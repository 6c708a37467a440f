use distclass_obs::{DropReason, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{Context, Protocol};
use crate::metrics::NetMetrics;
use crate::rng::derive_seed;
use crate::topology::Topology;
use crate::NodeId;

/// A message in flight with its causal identity: the sender's send
/// counter (the span id is `(from, seq)`) and its Lamport stamp at send
/// time.
#[derive(Debug)]
pub(crate) struct Envelope<M> {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    seq: u64,
    lamport: u64,
    pub(crate) msg: M,
}

/// The paper's network model (§3.1), which both engines step: a static
/// topology, the nodes' protocol states, fail-stop liveness, and the
/// rules for a node's turn, a send, a delivery, a drop and a crash. The
/// engines decide only *when* each rule runs; `at` is the simulated time
/// (the round number in the round engine), and its whole part is what a
/// protocol reads as [`Context::round`].
#[derive(Debug)]
pub(crate) struct Network<P: Protocol> {
    topo: Topology,
    nodes: Vec<P>,
    alive: Vec<bool>,
    /// How many of `alive` are `true`.
    live: usize,
    rr_cursors: Vec<usize>,
    node_rngs: Vec<StdRng>,
    /// Per-node Lamport clocks: bumped on every send, folded with
    /// `max(local, sender) + 1` on every delivery.
    lamport: Vec<u64>,
    /// Per-node send counters; one span id `(from, seq)` per send.
    send_seq: Vec<u64>,
    pub(crate) metrics: NetMetrics,
    pub(crate) sizer: Option<fn(&P::Message) -> usize>,
    pub(crate) tracer: Tracer,
}

impl<P: Protocol> Network<P> {
    /// Builds node `i`'s state with `init(i)`; deterministic in `seed`.
    pub(crate) fn new(topo: Topology, seed: u64, init: impl FnMut(NodeId) -> P) -> Self {
        let n = topo.len();
        // Round-robin cursors start at per-node offsets: with a common
        // start, structured topologies (e.g. complete graphs with sorted
        // neighbor lists) would aim every node at the same recipient each
        // round, starving everyone else for the first `degree` rounds.
        let rr_cursors = (0..n)
            .map(|i| {
                let deg = topo.degree(i).max(1);
                (derive_seed(seed, 0x5EED ^ i as u64) % deg as u64) as usize
            })
            .collect();
        Network {
            nodes: (0..n).map(init).collect(),
            alive: vec![true; n],
            live: n,
            rr_cursors,
            node_rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(derive_seed(seed, i as u64)))
                .collect(),
            lamport: vec![0; n],
            send_seq: vec![0; n],
            metrics: NetMetrics::default(),
            sizer: None,
            tracer: Tracer::disabled(),
            topo,
        }
    }

    pub(crate) fn nodes(&self) -> &[P] {
        &self.nodes
    }

    pub(crate) fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node]
    }

    pub(crate) fn live_count(&self) -> usize {
        self.live
    }

    pub(crate) fn live_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.alive[i]).collect()
    }

    /// Gives `node` a turn: `act` runs on its state with its [`Context`],
    /// which sees which nodes are live when `alive_aware` holds (a
    /// perfect failure detector). What the node sends lands in `outbox`.
    pub(crate) fn turn(
        &mut self,
        node: NodeId,
        at: f64,
        alive_aware: bool,
        outbox: &mut Vec<(NodeId, P::Message)>,
        act: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let mut ctx = Context::new(
            node,
            self.topo.neighbors(node),
            alive_aware.then_some(&self.alive[..]),
            &mut self.rr_cursors[node],
            &mut self.node_rngs[node],
            outbox,
            at as u64,
        );
        act(&mut self.nodes[node], &mut ctx);
    }

    /// Runs `node`'s [`Protocol::on_tick`] and counts the tick.
    pub(crate) fn tick(
        &mut self,
        node: NodeId,
        at: f64,
        alive_aware: bool,
        outbox: &mut Vec<(NodeId, P::Message)>,
    ) {
        self.turn(node, at, alive_aware, outbox, |p, ctx| p.on_tick(ctx));
        self.metrics.ticks += 1;
    }

    fn bytes(&self, msg: &P::Message) -> u64 {
        self.sizer.map_or(0, |sizer| sizer(msg) as u64)
    }

    /// Accounts for one send at time `at` and mints its causal identity:
    /// the span id's sequence number and the sender's bumped Lamport
    /// clock.
    pub(crate) fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: P::Message,
        at: f64,
    ) -> Envelope<P::Message> {
        self.metrics.messages_sent += 1;
        let bytes = self.bytes(&msg);
        self.metrics.bytes_sent += bytes;
        self.send_seq[from] += 1;
        self.lamport[from] += 1;
        let (seq, lamport) = (self.send_seq[from], self.lamport[from]);
        self.tracer.emit(|| TraceEvent::MessageSent {
            from,
            to,
            bytes,
            at,
            lamport: Some(lamport),
            seq: Some(seq),
        });
        Envelope {
            from,
            to,
            seq,
            lamport,
            msg,
        }
    }

    /// Sends, in order, every message `from` queued in `outbox`, adding
    /// each to `into`.
    pub(crate) fn send_all(
        &mut self,
        from: NodeId,
        at: f64,
        outbox: &mut Vec<(NodeId, P::Message)>,
        into: &mut Vec<Envelope<P::Message>>,
    ) {
        for (to, msg) in outbox.drain(..) {
            into.push(self.send(from, to, msg, at));
        }
    }

    /// Delivers `e` at time `at`; see [`Network::turn`] for `alive_aware`
    /// and `outbox`. A message to a crashed node is dropped instead, and
    /// the weight it carries leaves the system. Returns whether the
    /// message was delivered.
    pub(crate) fn deliver(
        &mut self,
        e: Envelope<P::Message>,
        at: f64,
        alive_aware: bool,
        outbox: &mut Vec<(NodeId, P::Message)>,
    ) -> bool {
        let (from, to) = (e.from, e.to);
        if !self.alive[to] {
            self.metrics.messages_dropped += 1;
            self.tracer.emit(|| TraceEvent::MessageDropped {
                from,
                to,
                reason: DropReason::Crashed,
            });
            return false;
        }
        let bytes = self.bytes(&e.msg);
        self.metrics.bytes_delivered += bytes;
        self.turn(to, at, alive_aware, outbox, |p, ctx| {
            p.on_message(from, e.msg, ctx)
        });
        self.metrics.messages_delivered += 1;
        // Lamport receive rule, then stamp the delivery with the
        // receiver's new clock and the send's span id.
        self.lamport[to] = self.lamport[to].max(e.lamport) + 1;
        let lamport = self.lamport[to];
        self.tracer.emit(|| TraceEvent::MessageDelivered {
            from,
            to,
            bytes,
            at,
            lamport: Some(lamport),
            span_seq: Some(e.seq),
        });
        true
    }

    /// Whether `node` may crash now: it exists, is live, and is not the
    /// last live node (which is always spared).
    pub(crate) fn may_crash(&self, node: NodeId) -> bool {
        self.alive.get(node) == Some(&true) && self.live > 1
    }

    /// Fail-stops `node` at time `at`: it never ticks or receives again.
    pub(crate) fn crash(&mut self, node: NodeId, at: f64) {
        self.alive[node] = false;
        self.live -= 1;
        self.metrics.crashes += 1;
        self.tracer.emit(|| TraceEvent::FaultActivated {
            kind: "crash".to_string(),
            node: Some(node),
            at,
        });
    }
}
