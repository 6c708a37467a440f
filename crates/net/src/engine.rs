use rand::rngs::StdRng;
use rand::Rng;

use crate::topology::Neighbors;
use crate::NodeId;

/// A node-local protocol driven by a simulation engine.
///
/// Implementations hold per-node state; the engine owns one instance per
/// node and invokes the callbacks below. All randomness must come from
/// [`Context::rng`] so runs are reproducible.
pub trait Protocol {
    /// The message type exchanged between nodes.
    type Message: Clone;

    /// Called when this node gets a communication turn (once per round in
    /// the round engine, at tick events in the event engine).
    fn on_tick(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called by the round engine after all of a round's messages have been
    /// delivered. Protocols that batch incoming data (as the paper's
    /// simulations do: “accumulate all the received collections and run EM
    /// once for the entire set”) process their buffer here.
    fn on_round_end(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }
}

/// The per-callback view a protocol gets of its node and the network.
///
/// Provides the node id, its static neighbor list, a deterministic RNG, the
/// current round, and the only way to communicate: [`Context::send`].
#[derive(Debug)]
pub struct Context<'a, M> {
    node: NodeId,
    neighbors: Neighbors<'a>,
    // Liveness view for neighbor selection (perfect failure detector).
    // `None` means no fault information is available.
    alive: Option<&'a [bool]>,
    rr_cursor: &'a mut usize,
    rng: &'a mut StdRng,
    outbox: &'a mut Vec<(NodeId, M)>,
    round: u64,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(
        node: NodeId,
        neighbors: Neighbors<'a>,
        alive: Option<&'a [bool]>,
        rr_cursor: &'a mut usize,
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<(NodeId, M)>,
        round: u64,
    ) -> Self {
        Context {
            node,
            neighbors,
            alive,
            rr_cursor,
            rng,
            outbox,
            round,
        }
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.alive.map(|a| a[node]).unwrap_or(true)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// This node's static out-neighbors, in ascending order.
    pub fn neighbors(&self) -> Neighbors<'a> {
        self.neighbors
    }

    /// The current round (round engine) or coarse time step (event engine).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node's deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues `msg` for reliable delivery to neighbor `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not one of this node's out-neighbors — the paper's
    /// model only permits communication along topology edges. The check
    /// is O(1) on a complete graph and a binary search on a list.
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.neighbors.contains(to),
            "node {} tried to send to non-neighbor {}",
            self.node,
            to
        );
        self.outbox.push((to, msg));
    }

    /// Returns the next neighbor in round-robin order, skipping neighbors
    /// the engine knows to have crashed (when fault information is
    /// available — a perfect local failure detector, as deployed gossip
    /// systems get from their membership layer).
    ///
    /// Round-robin selection satisfies the algorithm's fairness requirement:
    /// in an infinite run every neighbor is chosen infinitely often.
    ///
    /// # Panics
    ///
    /// Panics if the node has no neighbors (impossible for the strongly
    /// connected topologies produced by [`crate::Topology`]).
    pub fn round_robin_neighbor(&mut self) -> NodeId {
        assert!(!self.neighbors.is_empty(), "node has no neighbors");
        let len = self.neighbors.len();
        for _ in 0..len {
            let pick = self.neighbors.get(*self.rr_cursor % len);
            *self.rr_cursor = (*self.rr_cursor + 1) % len;
            if self.is_live(pick) {
                return pick;
            }
        }
        // Every neighbor has crashed; return the current cursor position —
        // the message will be dropped, which is all that can happen.
        self.neighbors.get(*self.rr_cursor % len)
    }

    /// Returns a uniformly random neighbor (gossip-style push target),
    /// preferring live neighbors when fault information is available (see
    /// [`Context::round_robin_neighbor`]).
    ///
    /// Uniform selection satisfies fairness with probability 1.
    ///
    /// # Panics
    ///
    /// Panics if the node has no neighbors.
    pub fn random_neighbor(&mut self) -> NodeId {
        assert!(!self.neighbors.is_empty(), "node has no neighbors");
        let len = self.neighbors.len();
        // Rejection-sample a few times, then fall back to an exact scan of
        // the live neighbors (only reached when most neighbors are dead).
        for _ in 0..8 {
            let pick = self.neighbors.get(self.rng.gen_range(0..len));
            if self.is_live(pick) {
                return pick;
            }
        }
        let live: Vec<NodeId> = self.neighbors.iter().filter(|&n| self.is_live(n)).collect();
        if live.is_empty() {
            return self.neighbors.get(self.rng.gen_range(0..len));
        }
        live[self.rng.gen_range(0..live.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn with_ctx<R>(neighbors: Neighbors<'_>, f: impl FnOnce(&mut Context<'_, u32>) -> R) -> R {
        let mut cursor = 0usize;
        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox: Vec<(NodeId, u32)> = Vec::new();
        let mut ctx = Context::new(0, neighbors, None, &mut cursor, &mut rng, &mut outbox, 3);
        f(&mut ctx)
    }

    #[test]
    fn accessors() {
        with_ctx(Neighbors::from_sorted(&[1, 2]), |ctx| {
            assert_eq!(ctx.id(), 0);
            assert_eq!(ctx.neighbors().iter().collect::<Vec<_>>(), [1, 2]);
            assert_eq!(ctx.round(), 3);
        });
    }

    #[test]
    fn round_robin_cycles() {
        let neighbors = [1, 2, 3];
        let mut cursor = 0usize;
        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox: Vec<(NodeId, u32)> = Vec::new();
        let mut picks = Vec::new();
        for _ in 0..6 {
            let mut ctx = Context::new(
                0,
                Neighbors::from_sorted(&neighbors),
                None,
                &mut cursor,
                &mut rng,
                &mut outbox,
                0,
            );
            picks.push(ctx.round_robin_neighbor());
        }
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn random_neighbor_is_a_neighbor() {
        with_ctx(Neighbors::from_sorted(&[4, 7, 9]), |ctx| {
            for _ in 0..50 {
                let n = ctx.random_neighbor();
                assert!([4, 7, 9].contains(&n));
            }
        });
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_stranger_panics() {
        with_ctx(Neighbors::from_sorted(&[1]), |ctx| ctx.send(5, 0));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_self_on_complete_graph_panics() {
        with_ctx(crate::Topology::complete(4).neighbors(0), |ctx| {
            ctx.send(0, 0)
        });
    }

    #[test]
    fn send_queues_to_outbox() {
        let neighbors = [1, 2];
        let mut cursor = 0usize;
        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox: Vec<(NodeId, u32)> = Vec::new();
        {
            let mut ctx = Context::new(
                0,
                Neighbors::from_sorted(&neighbors),
                None,
                &mut cursor,
                &mut rng,
                &mut outbox,
                0,
            );
            ctx.send(1, 10);
            ctx.send(2, 20);
        }
        assert_eq!(outbox, vec![(1, 10), (2, 20)]);
    }
}
