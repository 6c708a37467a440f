use distclass_obs::{Phase, ThreadProfiler, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Protocol;
use crate::faults::CrashModel;
use crate::metrics::NetMetrics;
use crate::network::{Envelope, Network};
use crate::rng::derive_seed;
use crate::topology::Topology;
use crate::NodeId;

/// Synchronous round-based simulation engine.
///
/// Reproduces the paper's evaluation methodology (§5.3): “we measure
/// progress in rounds, where in each round each node sends a classification
/// to one neighbor”. A round consists of:
///
/// 1. every live node's [`Protocol::on_tick`] runs (in node order) and its
///    outgoing messages are collected;
/// 2. all collected messages are delivered via [`Protocol::on_message`]
///    (messages sent while handling a delivery are carried into the next
///    round — links are reliable but asynchronous);
/// 3. every live node's [`Protocol::on_round_end`] runs;
/// 4. crash faults are applied per the configured [`CrashModel`].
///
/// The engine is deterministic given the construction seed.
///
/// See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct RoundEngine<P: Protocol> {
    net: Network<P>,
    crash_rng: StdRng,
    crash: CrashModel,
    failure_detector: bool,
    // Messages sent during the delivery and round-end phases, carried
    // into the next round.
    carried: Vec<Envelope<P::Message>>,
    round: u64,
    prof: ThreadProfiler,
}

impl<P: Protocol> RoundEngine<P> {
    /// Creates an engine over `topo`; `init(i)` builds node `i`'s protocol
    /// state. Deterministic in `seed`.
    pub fn new(topo: Topology, seed: u64, init: impl FnMut(NodeId) -> P) -> Self {
        let n = topo.len() as u64;
        RoundEngine {
            net: Network::new(topo, seed, init),
            crash_rng: StdRng::seed_from_u64(derive_seed(seed, n + 1)),
            crash: CrashModel::None,
            failure_detector: true,
            carried: Vec::new(),
            round: 0,
            prof: ThreadProfiler::disabled(),
        }
    }

    /// Attaches a phase-profiler thread handle (builder style): each
    /// round runs under a `tick` span with the round-end merge/EM
    /// reduction nested as `em_reduce`. A profiler core built with a
    /// metrics registry feeds both into `distclass_phase_us`. A disabled
    /// handle (the default) never reads the clock.
    pub fn with_profiler(mut self, prof: ThreadProfiler) -> Self {
        self.prof = prof;
        self
    }

    /// Sets the crash model (builder style).
    pub fn with_crash_model(mut self, crash: CrashModel) -> Self {
        self.crash = crash;
        self
    }

    /// Installs a message sizer (builder style): every sent and delivered
    /// message is priced at `sizer(&msg)` wire bytes and accumulated in
    /// [`NetMetrics::bytes_sent`] / [`NetMetrics::bytes_delivered`], so
    /// simulations report the byte costs a deployment would pay.
    pub fn with_message_sizer(mut self, sizer: fn(&P::Message) -> usize) -> Self {
        self.net.sizer = Some(sizer);
        self
    }

    /// Attaches a trace sink (builder style). A disabled tracer (the
    /// default) costs one branch per message and never builds events.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.net.tracer = tracer;
        self
    }

    /// Enables or disables the perfect failure detector (builder style).
    ///
    /// When enabled (the default), neighbor selection skips crashed nodes —
    /// the behavior a deployed gossip stack gets from its membership layer.
    /// When disabled, nodes keep addressing crashed neighbors and those
    /// messages are dropped; on fault-heavy runs this starves survivors,
    /// whose weights then collapse to the quantum (see the ablation bench).
    pub fn with_failure_detector(mut self, enabled: bool) -> Self {
        self.failure_detector = enabled;
        self
    }

    /// The engine's profiler thread handle — for wrappers (like the
    /// gossip runner) that span work outside [`RoundEngine::run_round`]
    /// on the same thread tree.
    pub fn profiler(&self) -> &ThreadProfiler {
        &self.prof
    }

    /// All node protocol states (including crashed nodes).
    pub fn nodes(&self) -> &[P] {
        self.net.nodes()
    }

    /// Node `i`'s protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: NodeId) -> &P {
        &self.net.nodes()[i]
    }

    /// Whether node `i` is still live.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_alive(&self, i: NodeId) -> bool {
        self.net.is_alive(i)
    }

    /// Ids of all live nodes.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.net.live_nodes()
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.net.live_count()
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> NetMetrics {
        self.net.metrics
    }

    /// Messages currently in flight at a round boundary (sent during the
    /// previous delivery phase, to be delivered next round) — needed for
    /// exact conservation accounting with reply-based protocols.
    pub fn in_flight_messages(&self) -> impl Iterator<Item = &P::Message> {
        self.carried.iter().map(|e| &e.msg)
    }

    /// Runs a single round.
    pub fn run_round(&mut self) {
        // The span guards borrow the thread handle, so it moves to a
        // local for the duration of the round (a guard can't borrow a
        // field of `self` across the `&mut self` helper calls below).
        let prof = std::mem::replace(&mut self.prof, ThreadProfiler::disabled());
        let round_span = prof.span(Phase::Tick);
        let (at, fd) = (self.round as f64, self.failure_detector);
        let net = &mut self.net;
        // Nodes crash only in phase 4, so one live set serves phases 1–3.
        let live = net.live_nodes();
        // Phase 1: ticks.
        let mut pending = std::mem::take(&mut self.carried);
        let mut outbox = Vec::new();
        for &i in &live {
            net.tick(i, at, fd, &mut outbox);
            net.send_all(i, at, &mut outbox, &mut pending);
        }

        // Phase 2: deliveries. Sends from handlers go to the next round.
        for e in pending {
            let to = e.to;
            net.deliver(e, at, fd, &mut outbox);
            net.send_all(to, at, &mut outbox, &mut self.carried);
        }

        // Phase 3: round end (where the protocol merges received halves
        // and runs its EM-style reduction).
        let merge_span = prof.span(Phase::EmReduce);
        for &i in &live {
            net.turn(i, at, fd, &mut outbox, |p, ctx| p.on_round_end(ctx));
            net.send_all(i, at, &mut outbox, &mut self.carried);
        }
        drop(merge_span);

        // Phase 4: crash faults.
        self.apply_crashes();

        drop(round_span);
        self.prof = prof;
        self.round += 1;
        self.net.metrics.rounds += 1;
        self.net.tracer.emit(|| TraceEvent::RoundCompleted {
            round: self.round - 1,
            live: self.net.live_count(),
            sent: self.net.metrics.messages_sent,
            delivered: self.net.metrics.messages_delivered,
            dropped: self.net.metrics.messages_dropped,
        });
    }

    /// Runs `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Runs rounds until `stop(self)` returns `true` or `max_rounds` is
    /// reached; returns the number of rounds executed.
    pub fn run_until(&mut self, max_rounds: u64, mut stop: impl FnMut(&Self) -> bool) -> u64 {
        let start = self.round;
        while self.round - start < max_rounds && !stop(self) {
            self.run_round();
        }
        self.round - start
    }

    /// Fail-stops nodes at the end of the current round.
    fn apply_crashes(&mut self) {
        let at = self.round as f64;
        match &self.crash {
            CrashModel::None => {}
            CrashModel::PerRound { prob } => {
                for i in 0..self.net.nodes().len() {
                    if self.net.may_crash(i) && self.crash_rng.gen::<f64>() < *prob {
                        self.net.crash(i, at);
                    }
                }
            }
            CrashModel::Scheduled(plan) => {
                for &(_, node) in plan.iter().filter(|(r, _)| *r == self.round) {
                    if self.net.may_crash(node) {
                        self.net.crash(node, at);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Context;

    /// Floods the maximum value seen so far to every neighbor.
    struct Flood {
        value: u64,
        received: Vec<u64>,
        batch_runs: u64,
    }

    impl Protocol for Flood {
        type Message = u64;

        fn on_tick(&mut self, ctx: &mut Context<'_, u64>) {
            let to = ctx.round_robin_neighbor();
            ctx.send(to, self.value);
        }

        fn on_message(&mut self, _from: NodeId, msg: u64, _ctx: &mut Context<'_, u64>) {
            self.received.push(msg);
        }

        fn on_round_end(&mut self, _ctx: &mut Context<'_, u64>) {
            self.batch_runs += 1;
            for m in self.received.drain(..) {
                if m > self.value {
                    self.value = m;
                }
            }
        }
    }

    fn flood_engine(topo: Topology) -> RoundEngine<Flood> {
        RoundEngine::new(topo, 9, |i| Flood {
            value: i as u64,
            received: Vec::new(),
            batch_runs: 0,
        })
    }

    #[test]
    fn max_floods_over_ring() {
        let mut engine = flood_engine(Topology::ring(10));
        engine.run_rounds(25);
        assert!(engine.nodes().iter().all(|n| n.value == 9));
    }

    #[test]
    fn max_floods_over_complete_quickly() {
        let mut engine = flood_engine(Topology::complete(20));
        let rounds = engine.run_until(100, |e| e.nodes().iter().all(|n| n.value == 19));
        assert!(rounds <= 20, "took {rounds} rounds");
    }

    #[test]
    fn round_end_called_once_per_round_per_node() {
        let mut engine = flood_engine(Topology::ring(4));
        engine.run_rounds(3);
        assert!(engine.nodes().iter().all(|n| n.batch_runs == 3));
    }

    #[test]
    fn metrics_track_messages() {
        let mut engine = flood_engine(Topology::ring(4));
        engine.run_rounds(2);
        let m = engine.metrics();
        assert_eq!(m.messages_sent, 8);
        assert_eq!(m.messages_delivered, 8);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.rounds, 2);
        assert_eq!(m.ticks, 8);
    }

    #[test]
    fn per_round_crashes_thin_the_network() {
        let mut engine =
            flood_engine(Topology::complete(50)).with_crash_model(CrashModel::per_round(0.2));
        engine.run_rounds(10);
        let live = engine.live_count();
        assert!(live < 50, "nobody crashed");
        assert!(live >= 1);
        assert_eq!(engine.metrics().crashes as usize, 50 - live);
    }

    #[test]
    fn crashed_nodes_drop_messages() {
        // Without a failure detector, senders keep addressing the crashed
        // nodes and those messages are dropped.
        let mut engine = flood_engine(Topology::complete(10))
            .with_crash_model(CrashModel::Scheduled(vec![(0, 3), (0, 4)]))
            .with_failure_detector(false);
        engine.run_rounds(5);
        assert!(!engine.is_alive(3));
        assert!(!engine.is_alive(4));
        assert!(engine.metrics().messages_dropped > 0);
        assert_eq!(engine.live_count(), 8);
    }

    #[test]
    fn scheduled_crash_never_kills_last_node() {
        let plan: Vec<(u64, NodeId)> = (0..2).map(|i| (0, i)).collect();
        let mut engine =
            flood_engine(Topology::ring(2)).with_crash_model(CrashModel::Scheduled(plan));
        engine.run_rounds(1);
        assert_eq!(engine.live_count(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = RoundEngine::new(Topology::complete(8), seed, |i| Flood {
                value: i as u64,
                received: Vec::new(),
                batch_runs: 0,
            })
            .with_crash_model(CrashModel::per_round(0.1));
            e.run_rounds(10);
            (e.live_nodes(), e.metrics())
        };
        assert_eq!(run(5), run(5));
        // Different seeds should (overwhelmingly) differ in crash pattern.
        assert_ne!(run(5).0, run(6).0);
    }
    #[test]
    fn profiler_nests_em_reduce_under_tick_and_feeds_round_ns() {
        use distclass_obs::{MetricValue, Metrics, MetricsRegistry, Profiler, ProfilerCore};
        use std::sync::Arc;

        let registry = Arc::new(MetricsRegistry::new());
        let core = Arc::new(ProfilerCore::with_metrics(Metrics::new(Arc::clone(
            &registry,
        ))));
        let prof = Profiler::new(Arc::clone(&core));
        let mut engine = flood_engine(Topology::ring(6)).with_profiler(prof.thread("engine"));
        engine.run_rounds(4);
        drop(engine); // finalizes the thread's books

        let report = core.snapshot();
        assert!(report.clean(), "anomalies: {:?}", report.anomalies());
        let t = &report.threads[0];
        assert_eq!(t.label, "engine");
        let tick = t
            .spans
            .iter()
            .find(|s| s.path == [Phase::Tick])
            .expect("whole-round tick span");
        assert_eq!(tick.count, 4, "one tick span per round");
        let em = t
            .spans
            .iter()
            .find(|s| s.path == [Phase::Tick, Phase::EmReduce])
            .expect("em_reduce nested under tick");
        assert_eq!(em.count, 4, "one merge phase per round");

        // The round time reaches the registry through the tick span: one
        // `distclass_phase_us{phase="tick"}` sample per round.
        let snap = registry.snapshot();
        let rounds = snap
            .families
            .iter()
            .find(|f| f.name == "distclass_phase_us")
            .and_then(|f| {
                f.series
                    .iter()
                    .find(|s| s.labels.contains(&("phase".into(), "tick".into())))
            })
            .expect("tick phase series");
        match &rounds.value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 4),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn message_sizer_prices_every_send_and_delivery() {
        let run = |sized: bool| {
            let mut e = RoundEngine::new(Topology::ring(6), 2, |i| Flood {
                value: i as u64,
                received: Vec::new(),
                batch_runs: 0,
            });
            if sized {
                e = e.with_message_sizer(|_| 24);
            }
            e.run_rounds(5);
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
