use std::panic;
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

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

/// A round end whose nodes took at least this long each, on whichever
/// thread, is heavy: the next one may run on two threads. Fig. 2's EM
/// round ends take about 6–50 µs per node from round 3 on, a centroid
/// round end about 1 µs.
const HEAVY_ROUND_END_NS: u128 = 5_000;

/// A message queued by a round end, with its sender: `(from, to, msg)`.
type Queued<M> = (NodeId, NodeId, M);

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
    /// Whether the last round end's nodes took at least
    /// `HEAVY_ROUND_END_NS` each.
    heavy_round_end: bool,
    /// Whether a round end may use the helper thread; tests turn it off
    /// to compare the two paths.
    #[cfg(test)]
    pub(crate) helper_allowed: bool,
    /// Round ends that ran on two threads.
    #[cfg(test)]
    pub(crate) helper_runs: u64,
}

/// What a turn changes, for the contiguous nodes from `first`: their
/// states, round-robin cursors and RNGs.
struct NodeRange<'a, P> {
    first: NodeId,
    states: &'a mut [P],
    rr_cursors: &'a mut [usize],
    rngs: &'a mut [StdRng],
}

impl<'a, P: Protocol> NodeRange<'a, P> {
    /// Splits the range into the nodes before `node` and the rest.
    fn split_at(self, node: NodeId) -> (Self, Self) {
        let mid = node - self.first;
        let (states, upper_states) = self.states.split_at_mut(mid);
        let (rr_cursors, upper_cursors) = self.rr_cursors.split_at_mut(mid);
        let (rngs, upper_rngs) = self.rngs.split_at_mut(mid);
        let lower = NodeRange {
            first: self.first,
            states,
            rr_cursors,
            rngs,
        };
        let upper = NodeRange {
            first: node,
            states: upper_states,
            rr_cursors: upper_cursors,
            rngs: upper_rngs,
        };
        (lower, upper)
    }

    /// See [`Network::turn`]; `alive` is the liveness view the node's
    /// [`Context`] gets.
    fn turn(
        &mut self,
        topo: &Topology,
        alive: Option<&[bool]>,
        node: NodeId,
        at: f64,
        outbox: &mut Vec<(NodeId, P::Message)>,
        act: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        let i = node - self.first;
        let mut ctx = Context::new(
            node,
            topo.neighbors(node),
            alive,
            &mut self.rr_cursors[i],
            &mut self.rngs[i],
            outbox,
            at as u64,
        );
        act(&mut self.states[i], &mut ctx);
    }

    /// Runs [`Protocol::on_round_end`] for each node of `live`, all of
    /// them in this range, and appends what each sends to `queued`.
    fn end_round(
        &mut self,
        topo: &Topology,
        alive: Option<&[bool]>,
        live: &[NodeId],
        at: f64,
        queued: &mut Vec<Queued<P::Message>>,
    ) {
        let mut outbox = Vec::new();
        for &i in live {
            self.turn(topo, alive, i, at, &mut outbox, |p, ctx| {
                p.on_round_end(ctx)
            });
            queued.extend(outbox.drain(..).map(|(to, msg)| (i, to, msg)));
        }
    }
}

/// How long `f` takes.
fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Whether this process may run on two CPUs or more. Read once, and only
/// when a round end first asks: the read costs system calls and cgroup
/// files that a short run should not pay.
fn two_cpus() -> bool {
    static TWO_CPUS: OnceLock<bool> = OnceLock::new();
    *TWO_CPUS.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() >= 2))
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
            heavy_round_end: false,
            #[cfg(test)]
            helper_allowed: true,
            #[cfg(test)]
            helper_runs: 0,
            topo,
        }
    }

    /// The topology and liveness, which a turn reads, and every node's
    /// state that a turn changes.
    fn split_nodes(&mut self) -> (&Topology, &[bool], NodeRange<'_, P>) {
        let range = NodeRange {
            first: 0,
            states: &mut self.nodes,
            rr_cursors: &mut self.rr_cursors,
            rngs: &mut self.node_rngs,
        };
        (&self.topo, &self.alive, range)
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
        let (topo, alive, mut nodes) = self.split_nodes();
        nodes.turn(topo, alive_aware.then_some(alive), node, at, outbox, act);
    }

    /// Runs [`Protocol::on_round_end`] for every node of `live` (ascending)
    /// at time `at`, then sends what they queued, in node order, into
    /// `into`; see [`Network::turn`] for `alive_aware`.
    ///
    /// A scoped helper thread runs the upper half of `live` while this
    /// thread runs the lower half, when the last round end was heavy, no
    /// profiler times this one (`profiled`), and the process may use two
    /// CPUs. The sends wait for the join, so metrics, stamps and trace
    /// bytes are those of a serial round end (DESIGN.md §5).
    pub(crate) fn round_end(
        &mut self,
        live: &[NodeId],
        at: f64,
        alive_aware: bool,
        profiled: bool,
        into: &mut Vec<Envelope<P::Message>>,
    ) {
        let (low, high) = live.split_at(live.len() / 2);
        let helped = !low.is_empty() && self.heavy_round_end && !profiled;
        #[cfg(test)]
        let helped = helped && self.helper_allowed;
        let helped = helped && two_cpus();
        let mut queued = Vec::new();
        let (topo, alive, mut nodes) = self.split_nodes();
        let alive = alive_aware.then_some(alive);
        // The round ends' time, summed over the threads that ran them.
        let busy = if helped {
            let (mut lower, mut upper) = nodes.split_at(high[0]);
            let mut upper_queued = Vec::new();
            let (lower_busy, upper_busy) = thread::scope(|s| {
                let helper = thread::Builder::new().spawn_scoped(s, || {
                    timed(|| upper.end_round(topo, alive, high, at, &mut upper_queued))
                });
                let lower_busy = timed(|| lower.end_round(topo, alive, low, at, &mut queued));
                // Joined by its handle, so that the helper has exited, and
                // handed its malloc arena back, before the next one starts.
                let upper_busy = helper.ok().map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                });
                (lower_busy, upper_busy)
            });
            #[cfg(test)]
            let spawned = upper_busy.is_some();
            // Without a helper (its spawn failed), the upper half runs here.
            let upper_busy = upper_busy.unwrap_or_else(|| {
                timed(|| upper.end_round(topo, alive, high, at, &mut upper_queued))
            });
            queued.append(&mut upper_queued);
            #[cfg(test)]
            {
                self.helper_runs += u64::from(spawned);
            }
            lower_busy + upper_busy
        } else {
            timed(|| nodes.end_round(topo, alive, live, at, &mut queued))
        };
        for (from, to, msg) in queued {
            into.push(self.send(from, to, msg, at));
        }
        self.heavy_round_end = busy.as_nanos() >= HEAVY_ROUND_END_NS * live.len() as u128;
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
