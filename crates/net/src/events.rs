use distclass_obs::{DropReason, TraceEvent, Tracer};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Context, Protocol};
use crate::metrics::NetMetrics;
use crate::queue::EventQueue;
use crate::rng::derive_seed;
use crate::topology::Topology;
use crate::NodeId;

/// Per-message delay distribution for the asynchronous event engine.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DelayModel {
    /// Every message takes exactly this long.
    Constant(f64),
    /// Delays drawn uniformly from `[min, max]`.
    Uniform {
        /// Smallest possible delay (must be > 0).
        min: f64,
        /// Largest possible delay.
        max: f64,
    },
    /// Exponentially distributed delays with the given mean (heavy
    /// asynchrony: occasional very slow links).
    Exponential {
        /// Mean delay (must be > 0).
        mean: f64,
    },
}

impl DelayModel {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => rng.gen_range(min..=max),
            DelayModel::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
        }
    }

    fn validate(&self) {
        match *self {
            DelayModel::Constant(d) => assert!(d > 0.0, "delay must be positive"),
            DelayModel::Uniform { min, max } => {
                assert!(min > 0.0 && max >= min, "invalid uniform delay bounds")
            }
            DelayModel::Exponential { mean } => assert!(mean > 0.0, "mean must be positive"),
        }
    }
}

enum EventKind<M> {
    Tick(NodeId),
    Deliver {
        from: NodeId,
        to: NodeId,
        // The message's causal identity: the sender's per-node send
        // counter (span id `(from, span_seq)`) and Lamport stamp.
        id: (u64, u64),
        msg: M,
    },
    Crash(NodeId),
}

/// Maps simulated time's bits to an integer queue key that orders like
/// `f64::total_cmp`, so the order stays well-defined even if a NaN delay
/// ever sneaks in (NaN sorts after +inf, i.e. last). The map is its own
/// inverse: it turns a key back into the time's bits.
fn total_order(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Fully asynchronous discrete-event simulation engine.
///
/// Nodes tick at jittered intervals; messages experience randomized delays
/// drawn from a [`DelayModel`]. Links are reliable (every message is
/// eventually delivered) but arbitrarily reordered — the exact setting of
/// the paper's convergence theorem. Deterministic given the seed.
///
/// # Example
///
/// ```
/// use distclass_net::{Context, DelayModel, EventEngine, NodeId, Protocol, Topology};
///
/// struct MaxGossip(u64);
/// impl Protocol for MaxGossip {
///     type Message = u64;
///     fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
///         let to = ctx.random_neighbor();
///         ctx.send(to, self.0);
///     }
///     fn on_message(&mut self, _f: NodeId, m: u64, _c: &mut Context<'_, u64>) {
///         self.0 = self.0.max(m);
///     }
/// }
///
/// let mut engine = EventEngine::new(Topology::ring(6), 1, |i| MaxGossip(i as u64));
/// engine.run_until(200.0);
/// assert!(engine.nodes().iter().all(|n| n.0 == 5));
/// ```
pub struct EventEngine<P: Protocol> {
    topo: Topology,
    nodes: Vec<P>,
    alive: Vec<bool>,
    rr_cursors: Vec<usize>,
    node_rngs: Vec<StdRng>,
    env_rng: StdRng,
    queue: EventQueue<i64, EventKind<P::Message>>,
    now: f64,
    tick_interval: f64,
    delay: DelayModel,
    link_factor: Option<Box<dyn Fn(NodeId, NodeId) -> f64>>,
    metrics: NetMetrics,
    sizer: Option<fn(&P::Message) -> usize>,
    tracer: Tracer,
    /// Per-node Lamport clocks: bumped on every send, folded with
    /// `max(local, sender) + 1` on every delivery.
    lamport: Vec<u64>,
    /// Per-node send counters minting span ids `(from, seq)`.
    send_seq: Vec<u64>,
}

impl<P: Protocol> EventEngine<P> {
    /// Creates an engine with unit tick interval and uniform delays in
    /// `[0.1, 2.5]` (messages may span multiple tick periods).
    pub fn new(topo: Topology, seed: u64, init: impl FnMut(NodeId) -> P) -> Self {
        Self::with_timing(
            topo,
            seed,
            1.0,
            DelayModel::Uniform { min: 0.1, max: 2.5 },
            init,
        )
    }

    /// Creates an engine with explicit tick interval and delay model.
    ///
    /// # Panics
    ///
    /// Panics if `tick_interval <= 0` or the delay model is invalid.
    pub fn with_timing(
        topo: Topology,
        seed: u64,
        tick_interval: f64,
        delay: DelayModel,
        init: impl FnMut(NodeId) -> P,
    ) -> Self {
        assert!(tick_interval > 0.0, "tick interval must be positive");
        delay.validate();
        let n = topo.len();
        let nodes: Vec<P> = (0..n).map(init).collect();
        // Stagger round-robin cursors (see RoundEngine::new for rationale).
        let rr_cursors = (0..n)
            .map(|i| {
                let deg = topo.degree(i).max(1);
                (derive_seed(seed, 0x5EED ^ i as u64) % deg as u64) as usize
            })
            .collect();
        let mut engine = EventEngine {
            topo,
            nodes,
            alive: vec![true; n],
            rr_cursors,
            node_rngs: (0..n)
                .map(|i| StdRng::seed_from_u64(derive_seed(seed, i as u64)))
                .collect(),
            env_rng: StdRng::seed_from_u64(derive_seed(seed, n as u64 + 7)),
            queue: EventQueue::new(),
            now: 0.0,
            tick_interval,
            delay,
            link_factor: None,
            metrics: NetMetrics::default(),
            sizer: None,
            tracer: Tracer::disabled(),
            lamport: vec![0; n],
            send_seq: vec![0; n],
        };
        for i in 0..n {
            let offset = engine.env_rng.gen_range(0.0..engine.tick_interval);
            engine.push_event(offset, EventKind::Tick(i));
        }
        engine
    }

    /// Installs per-link delay scaling (builder style): every sampled
    /// message delay from `a` to `b` is multiplied by `factor(a, b)`.
    /// Useful for heterogeneous deployments — e.g. radio links whose
    /// latency grows with physical distance in a random geometric graph.
    ///
    /// The factor function must be positive and deterministic.
    pub fn with_link_delay_factors(
        mut self,
        factor: impl Fn(NodeId, NodeId) -> f64 + 'static,
    ) -> Self {
        self.link_factor = Some(Box::new(factor));
        self
    }

    /// Installs a message sizer (builder style): every sent and delivered
    /// message is priced at `sizer(&msg)` wire bytes and accumulated in
    /// [`NetMetrics::bytes_sent`] / [`NetMetrics::bytes_delivered`].
    pub fn with_message_sizer(mut self, sizer: fn(&P::Message) -> usize) -> Self {
        self.sizer = Some(sizer);
        self
    }

    /// Schedules fail-stop crashes (builder style): each node's crash time
    /// is drawn from an exponential distribution with the given hazard
    /// `rate` (crashes per unit time per node). Crashed nodes stop ticking
    /// and receiving; messages in flight to them are dropped. The engine
    /// never crashes its last live node.
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "crash rate must be positive");
        let n = self.nodes.len();
        for i in 0..n {
            let u: f64 = self.env_rng.gen_range(f64::EPSILON..1.0);
            let when = -u.ln() / rate;
            self.push_event(when, EventKind::Crash(i));
        }
        self
    }

    /// Attaches a trace sink (builder style). A disabled tracer (the
    /// default) costs one branch per event and never builds events.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// All node protocol states (including crashed nodes' last state).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Whether node `i` is still live.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_alive(&self, i: NodeId) -> bool {
        self.alive[i]
    }

    /// Ids of live nodes.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.alive[i]).collect()
    }

    /// Node `i`'s protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: NodeId) -> &P {
        &self.nodes[i]
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.metrics.in_flight()
    }

    fn push_event(&mut self, time: f64, kind: EventKind<P::Message>) {
        self.queue.push(total_order(time.to_bits() as i64), kind);
    }

    /// Processes events until simulated time reaches `t_end`.
    pub fn run_until(&mut self, t_end: f64) {
        let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
        while let Some(&key) = self.queue.peek_time() {
            let time = f64::from_bits(total_order(key) as u64);
            if time > t_end {
                break;
            }
            let (_, kind) = self.queue.pop().expect("peeked event exists");
            self.now = time;
            match kind {
                EventKind::Crash(i) => {
                    // Fail-stop, sparing the last live node.
                    if self.alive[i] && self.alive.iter().filter(|&&a| a).count() > 1 {
                        self.alive[i] = false;
                        self.metrics.crashes += 1;
                        self.tracer.emit(|| TraceEvent::FaultActivated {
                            kind: "crash".to_string(),
                            node: Some(i),
                            at: time,
                        });
                    }
                }
                // Crashed nodes neither tick (no reschedule) nor receive.
                EventKind::Tick(node) if !self.alive[node] => {}
                EventKind::Tick(node) => {
                    let mut ctx = Context::new(
                        node,
                        self.topo.neighbors(node),
                        &mut self.rr_cursors[node],
                        &mut self.node_rngs[node],
                        &mut outbox,
                        time as u64,
                    )
                    .with_alive(&self.alive);
                    self.nodes[node].on_tick(&mut ctx);
                    self.metrics.ticks += 1;
                    self.tracer
                        .emit(|| TraceEvent::TickCompleted { node, time });
                    self.schedule(node, &mut outbox);
                    // Reschedule the node's next tick with ±50 % jitter.
                    let jitter = self.env_rng.gen_range(0.5..1.5);
                    self.push_event(time + self.tick_interval * jitter, EventKind::Tick(node));
                }
                // Message to a crashed node: dropped, weight lost.
                EventKind::Deliver { from, to, .. } if !self.alive[to] => {
                    self.dropped(from, to);
                }
                EventKind::Deliver { from, to, id, msg } => {
                    self.deliver(from, to, id, msg, &mut outbox, true);
                }
            }
        }
        self.now = t_end.max(self.now);
    }

    /// Drains all in-flight deliveries without triggering further ticks —
    /// useful at the end of a run to reach a message-free state.
    ///
    /// Any messages produced while handling these deliveries are delivered
    /// too (the process terminates because handlers of a quiescent protocol
    /// eventually stop sending; a `max_events` cap guards against protocols
    /// that always respond).
    pub fn drain_in_flight(&mut self, max_events: u64) {
        let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
        let mut processed = 0;
        // Pull events in time order, executing deliveries and discarding
        // ticks (without rescheduling them).
        while processed < max_events {
            let Some((key, kind)) = self.queue.pop() else {
                break;
            };
            let time = f64::from_bits(total_order(key) as u64);
            self.now = time.max(self.now);
            let EventKind::Deliver { from, to, id, msg } = kind else {
                continue;
            };
            if !self.alive[to] {
                self.dropped(from, to);
            } else {
                self.deliver(from, to, id, msg, &mut outbox, false);
                processed += 1;
            }
        }
    }

    /// Drops a message addressed to a crashed node: the weight it
    /// carries leaves the system.
    fn dropped(&mut self, from: NodeId, to: NodeId) {
        self.metrics.messages_dropped += 1;
        self.tracer.emit(|| TraceEvent::MessageDropped {
            from,
            to,
            reason: DropReason::Crashed,
        });
    }

    /// Hands one message (with its causal identity `(span_seq,
    /// lamport)`) to live node `to`, then schedules what the handler sent.
    /// `alive_aware` lets the handler's context see which nodes are up.
    fn deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        (span_seq, lamport): (u64, u64),
        msg: P::Message,
        outbox: &mut Vec<(NodeId, P::Message)>,
        alive_aware: bool,
    ) {
        let mut ctx = Context::new(
            to,
            self.topo.neighbors(to),
            &mut self.rr_cursors[to],
            &mut self.node_rngs[to],
            outbox,
            self.now as u64,
        );
        if alive_aware {
            ctx = ctx.with_alive(&self.alive);
        }
        let bytes = self.sizer.map_or(0, |sizer| sizer(&msg) as u64);
        self.metrics.bytes_delivered += bytes;
        self.nodes[to].on_message(from, msg, &mut ctx);
        self.metrics.messages_delivered += 1;
        // Lamport receive rule before stamping the event.
        self.lamport[to] = self.lamport[to].max(lamport) + 1;
        let recv_lamport = self.lamport[to];
        self.tracer.emit(|| TraceEvent::MessageDelivered {
            from,
            to,
            bytes,
            at: self.now,
            lamport: Some(recv_lamport),
            span_seq: Some(span_seq),
        });
        self.schedule(to, outbox);
    }

    /// Schedules `from`'s produced messages with random delays (scaled by
    /// the per-link factor when one is installed).
    fn schedule(&mut self, from: NodeId, outbox: &mut Vec<(NodeId, P::Message)>) {
        for (to, msg) in outbox.drain(..) {
            let mut delay = self.delay.sample(&mut self.env_rng);
            if let Some(factor) = &self.link_factor {
                delay *= factor(from, to);
            }
            self.metrics.messages_sent += 1;
            let bytes = self.sizer.map_or(0, |sizer| sizer(&msg) as u64);
            self.metrics.bytes_sent += bytes;
            self.send_seq[from] += 1;
            self.lamport[from] += 1;
            let (span_seq, lamport) = (self.send_seq[from], self.lamport[from]);
            self.tracer.emit(|| TraceEvent::MessageSent {
                from,
                to,
                bytes,
                at: self.now,
                lamport: Some(lamport),
                seq: Some(span_seq),
            });
            let id = (span_seq, lamport);
            self.push_event(self.now + delay, EventKind::Deliver { from, to, id, msg });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MaxGossip {
        value: u64,
    }

    impl Protocol for MaxGossip {
        type Message = u64;

        fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
            let to = ctx.random_neighbor();
            ctx.send(to, self.value);
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.value = self.value.max(msg);
        }
    }

    fn engine(topo: Topology, seed: u64) -> EventEngine<MaxGossip> {
        EventEngine::new(topo, seed, |i| MaxGossip { value: i as u64 })
    }

    #[test]
    fn max_spreads_over_ring() {
        let mut e = engine(Topology::ring(12), 3);
        e.run_until(300.0);
        assert!(e.nodes().iter().all(|n| n.value == 11));
    }

    #[test]
    fn max_spreads_under_exponential_delays() {
        let mut e = EventEngine::with_timing(
            Topology::grid(4, 4),
            9,
            1.0,
            DelayModel::Exponential { mean: 3.0 },
            |i| MaxGossip { value: i as u64 },
        );
        e.run_until(400.0);
        assert!(e.nodes().iter().all(|n| n.value == 15));
    }

    #[test]
    fn deterministic_given_seed() {
        let values = |seed| {
            let mut e = engine(Topology::complete(10), seed);
            e.run_until(5.0);
            e.nodes().iter().map(|n| n.value).collect::<Vec<_>>()
        };
        assert_eq!(values(4), values(4));
    }

    #[test]
    fn time_advances_and_metrics_counted() {
        let mut e = engine(Topology::complete(5), 2);
        e.run_until(10.0);
        assert!(e.now() >= 10.0);
        let m = e.metrics();
        assert!(
            m.ticks >= 5 * 5,
            "expected ~10 ticks per node, got {}",
            m.ticks
        );
        assert!(m.messages_sent > 0);
        assert!(m.messages_delivered <= m.messages_sent);
    }

    #[test]
    fn drain_delivers_leftovers() {
        let mut e = engine(Topology::complete(5), 2);
        e.run_until(10.0);
        e.drain_in_flight(10_000);
        assert_eq!(e.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "tick interval must be positive")]
    fn rejects_bad_tick_interval() {
        let _ =
            EventEngine::with_timing(Topology::ring(3), 1, 0.0, DelayModel::Constant(1.0), |i| {
                MaxGossip { value: i as u64 }
            });
    }

    #[test]
    #[should_panic(expected = "invalid uniform delay bounds")]
    fn rejects_bad_delay_model() {
        let _ = EventEngine::with_timing(
            Topology::ring(3),
            1,
            1.0,
            DelayModel::Uniform { min: 2.0, max: 1.0 },
            |i| MaxGossip { value: i as u64 },
        );
    }
    #[test]
    fn message_sizer_prices_every_send_and_delivery() {
        let run = |sized: bool| {
            let mut e = engine(Topology::ring(6), 2);
            if sized {
                e = e.with_message_sizer(|_| 24);
            }
            e.run_until(30.0);
            e.drain_in_flight(10_000);
            e.metrics()
        };
        let plain = run(false);
        assert_eq!(plain.bytes_sent, 0);
        assert_eq!(plain.bytes_delivered, 0);
        let sized = run(true);
        assert_eq!(
            sized.messages_sent, plain.messages_sent,
            "sizer is observational"
        );
        assert_eq!(sized.bytes_sent, 24 * sized.messages_sent);
        assert_eq!(sized.bytes_delivered, 24 * sized.messages_delivered);
    }
}
