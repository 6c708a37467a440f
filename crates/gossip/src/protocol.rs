use distclass_core::{Classification, ClassifierNode, Instance};
use distclass_net::{Context, NodeId, Protocol};

use crate::message::{GossipMessage, GossipPattern};

/// How a node picks the neighbor to gossip with on each tick.
///
/// Both satisfy the algorithm's fairness requirement (every neighbor chosen
/// infinitely often — deterministically for round-robin, almost surely for
/// uniform selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorKind {
    /// Cycle through neighbors in a fixed order (staggered start offsets).
    RoundRobin,
    /// Pick a uniformly random neighbor (classic push gossip, the paper's
    /// simulation pattern) — the default.
    #[default]
    UniformRandom,
}

/// When incoming classifications are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Merge each incoming classification on arrival (Algorithm 1's event
    /// handler; the only option under the asynchronous engine).
    Immediate,
    /// Buffer a round's worth of messages and run one `partition` for the
    /// entire accumulated set at round end — the batching the paper's
    /// simulations use (§5.3).
    #[default]
    Batched,
}

/// A [`Protocol`] adapter running one classifier node: on every tick it
/// gossips with a neighbor per the configured [`GossipPattern`]; incoming
/// classifications are merged immediately or at round end depending on the
/// [`DeliveryMode`].
#[derive(Debug, Clone)]
pub struct ClassifierProtocol<I: Instance> {
    node: ClassifierNode<I>,
    inbox: Vec<Classification<I::Summary>>,
    selector: SelectorKind,
    delivery: DeliveryMode,
    pattern: GossipPattern,
}

impl<I: Instance> ClassifierProtocol<I> {
    /// Wraps a classifier node with push gossip.
    pub fn new(node: ClassifierNode<I>, selector: SelectorKind, delivery: DeliveryMode) -> Self {
        Self::with_pattern(node, selector, delivery, GossipPattern::Push)
    }

    /// Wraps a classifier node with an explicit communication pattern.
    pub fn with_pattern(
        node: ClassifierNode<I>,
        selector: SelectorKind,
        delivery: DeliveryMode,
        pattern: GossipPattern,
    ) -> Self {
        ClassifierProtocol {
            node,
            inbox: Vec::new(),
            selector,
            delivery,
            pattern,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &ClassifierNode<I> {
        &self.node
    }

    /// The node's current classification.
    pub fn classification(&self) -> &Classification<I::Summary> {
        self.node.classification()
    }

    /// Messages buffered and not yet merged (non-empty only mid-round in
    /// [`DeliveryMode::Batched`]).
    pub fn pending(&self) -> usize {
        self.inbox.len()
    }

    fn pick_target(&mut self, ctx: &mut Context<'_, GossipMessage<I::Summary>>) -> NodeId {
        match self.selector {
            SelectorKind::RoundRobin => ctx.round_robin_neighbor(),
            SelectorKind::UniformRandom => ctx.random_neighbor(),
        }
    }

    fn deliver(&mut self, classification: Classification<I::Summary>) {
        if classification.is_empty() {
            return;
        }
        match self.delivery {
            DeliveryMode::Immediate => self.node.receive(classification),
            DeliveryMode::Batched => self.inbox.push(classification),
        }
    }

    /// Splits and sends half the classification to `to`; empty splits
    /// (all-quantum weights) send nothing.
    fn send_half(
        &mut self,
        to: NodeId,
        wrap: fn(Classification<I::Summary>) -> GossipMessage<I::Summary>,
        ctx: &mut Context<'_, GossipMessage<I::Summary>>,
    ) {
        let half = self.node.split_for_send();
        if !half.is_empty() {
            ctx.send(to, wrap(half));
        } else if matches!(self.pattern, GossipPattern::PushPull) {
            // A push-pull initiator with nothing to give still wants the
            // peer's half; degrade to a pull.
            ctx.send(to, GossipMessage::PullRequest);
        }
    }
}

impl<I: Instance> Protocol for ClassifierProtocol<I> {
    type Message = GossipMessage<I::Summary>;

    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let to = self.pick_target(ctx);
        match self.pattern {
            GossipPattern::Push => self.send_half(to, GossipMessage::Data, ctx),
            GossipPattern::Pull => ctx.send(to, GossipMessage::PullRequest),
            GossipPattern::PushPull => self.send_half(to, GossipMessage::PushPullRequest, ctx),
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    ) {
        match msg {
            GossipMessage::Data(c) => self.deliver(c),
            GossipMessage::PullRequest => {
                let half = self.node.split_for_send();
                if !half.is_empty() {
                    ctx.send(from, GossipMessage::Data(half));
                }
            }
            GossipMessage::PushPullRequest(c) => {
                // Reply with our half *before* absorbing theirs, so the
                // exchange is symmetric.
                let half = self.node.split_for_send();
                if !half.is_empty() {
                    ctx.send(from, GossipMessage::Data(half));
                }
                self.deliver(c);
            }
        }
    }

    fn on_round_end(&mut self, _ctx: &mut Context<'_, Self::Message>) {
        self.node.receive_batch(&mut self.inbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distclass_core::{CentroidInstance, Quantum};
    use distclass_linalg::Vector;
    use distclass_net::{RoundEngine, Topology};
    use std::sync::Arc;

    fn build(
        selector: SelectorKind,
        delivery: DeliveryMode,
        pattern: GossipPattern,
    ) -> RoundEngine<ClassifierProtocol<CentroidInstance>> {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        RoundEngine::new(Topology::complete(8), 1, |i| {
            let node = ClassifierNode::new(
                Arc::clone(&inst),
                &Vector::from([i as f64 % 2.0]),
                Quantum::new(1 << 16),
            );
            ClassifierProtocol::with_pattern(node, selector, delivery, pattern)
        })
    }

    fn total_grains(engine: &RoundEngine<ClassifierProtocol<CentroidInstance>>) -> u64 {
        let at_nodes: u64 = engine
            .nodes()
            .iter()
            .map(|p| p.classification().total_weight().grains())
            .sum();
        // Pull / push-pull replies are sent during the delivery phase and
        // cross round boundaries in flight.
        let in_flight: u64 = engine
            .in_flight_messages()
            .filter_map(|m| m.payload())
            .map(|c| c.total_weight().grains())
            .sum();
        at_nodes + in_flight
    }

    #[test]
    fn push_conserves_weight() {
        let mut engine = build(
            SelectorKind::RoundRobin,
            DeliveryMode::Batched,
            GossipPattern::Push,
        );
        engine.run_rounds(20);
        assert_eq!(total_grains(&engine), 8 * (1 << 16));
        assert!(engine.nodes().iter().all(|p| p.pending() == 0));
    }

    #[test]
    fn pull_moves_weight_and_conserves() {
        let mut engine = build(
            SelectorKind::UniformRandom,
            DeliveryMode::Batched,
            GossipPattern::Pull,
        );
        engine.run_rounds(20);
        assert_eq!(total_grains(&engine), 8 * (1 << 16));
        // Pull responses arrive a round late (carried messages), but after
        // 20 rounds everyone must have heard both clusters.
        for p in engine.nodes() {
            assert_eq!(p.classification().len(), 2);
        }
    }

    #[test]
    fn push_pull_exchanges_bilaterally() {
        let mut engine = build(
            SelectorKind::UniformRandom,
            DeliveryMode::Immediate,
            GossipPattern::PushPull,
        );
        engine.run_rounds(20);
        assert_eq!(total_grains(&engine), 8 * (1 << 16));
        for p in engine.nodes() {
            assert_eq!(p.classification().len(), 2);
        }
    }

    #[test]
    fn classification_stays_within_k_for_all_patterns() {
        for pattern in [
            GossipPattern::Push,
            GossipPattern::Pull,
            GossipPattern::PushPull,
        ] {
            let mut engine = build(SelectorKind::RoundRobin, DeliveryMode::Batched, pattern);
            engine.run_rounds(15);
            assert!(
                engine.nodes().iter().all(|p| p.classification().len() <= 2),
                "pattern {pattern:?} exceeded k"
            );
        }
    }
}
