use std::sync::Arc;

use distclass_core::{convergence, Classification, ClassifierNode, Instance, Quantum, Weight};
use distclass_net::{
    CrashModel, DelayModel, EventEngine, NetMetrics, NodeId, RoundEngine, Topology,
};
use distclass_obs::{Phase, TelemetrySample, ThreadProfiler, TraceEvent, Tracer};

use crate::message::GossipPattern;
use crate::protocol::{ClassifierProtocol, DeliveryMode, SelectorKind};

/// Configuration shared by the simulation runners.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Engine seed (drives neighbor choice, crashes and delays).
    pub seed: u64,
    /// The weight quantum.
    pub quantum: Quantum,
    /// Neighbor selection policy.
    pub selector: SelectorKind,
    /// Merge-on-arrival or per-round batching.
    pub delivery: DeliveryMode,
    /// Push, pull, or push-pull gossip (§4.1). Pull-based patterns need
    /// reverse edges, i.e. undirected topologies.
    pub pattern: GossipPattern,
    /// Crash faults (round simulator only).
    pub crash: CrashModel,
    /// Perfect failure detector: neighbor selection skips crashed nodes
    /// (round simulator only; the asynchronous simulator always has one).
    /// Disabling it starves survivors on fault-heavy runs — kept for
    /// ablation studies.
    pub failure_detector: bool,
    /// Track auxiliary mixture vectors (§4.2) for auditing. Costs `O(n)`
    /// memory per collection — fine for tests and experiments, off by
    /// default.
    pub audit: bool,
}

impl Default for GossipConfig {
    /// Seed 42, default quantum, uniform-random selection, batched
    /// delivery, push gossip, no crashes, failure detector on, no
    /// auditing.
    fn default() -> Self {
        GossipConfig {
            seed: 42,
            quantum: Quantum::default(),
            selector: SelectorKind::default(),
            delivery: DeliveryMode::default(),
            pattern: GossipPattern::default(),
            crash: CrashModel::None,
            failure_detector: true,
            audit: false,
        }
    }
}

/// The function an [`ErrorProbe`] wraps.
type ProbeFn<S> = dyn Fn(&Classification<S>) -> Option<f64> + Send + Sync;

/// A per-node error probe: maps a classification to its error against a
/// caller-defined ground truth (`None` when undefined, e.g. empty input).
/// Wrapped so the simulators can keep deriving `Debug`.
pub struct ErrorProbe<S>(Arc<ProbeFn<S>>);

impl<S> ErrorProbe<S> {
    /// Wraps a probe function.
    pub fn new(f: impl Fn(&Classification<S>) -> Option<f64> + Send + Sync + 'static) -> Self {
        ErrorProbe(Arc::new(f))
    }

    /// Applies the probe.
    pub fn measure(&self, c: &Classification<S>) -> Option<f64> {
        (self.0)(c)
    }
}

impl<S> Clone for ErrorProbe<S> {
    fn clone(&self) -> Self {
        ErrorProbe(Arc::clone(&self.0))
    }
}

impl<S> std::fmt::Debug for ErrorProbe<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ErrorProbe")
    }
}

/// Computes a [`TelemetrySample`] over a set of live classifications —
/// shared by both simulators.
fn sample_classifications<S>(
    round: u64,
    quantum: Quantum,
    live: &[&Classification<S>],
    probe: Option<&ErrorProbe<S>>,
    dispersion: Option<f64>,
) -> TelemetrySample {
    let mut count_sum = 0usize;
    let mut count_max = 0usize;
    let mut w_min = u64::MAX;
    let mut w_max = 0u64;
    let mut err_sum = 0.0;
    let mut err_max = 0.0f64;
    let mut err_n = 0usize;
    for c in live {
        count_sum += c.len();
        count_max = count_max.max(c.len());
        let w = c.total_weight().grains();
        w_min = w_min.min(w);
        w_max = w_max.max(w);
        if let Some(p) = probe {
            if let Some(e) = p.measure(c) {
                err_sum += e;
                err_max = err_max.max(e);
                err_n += 1;
            }
        }
    }
    let n = live.len();
    TelemetrySample {
        round,
        live: n,
        classifications_mean: if n == 0 {
            0.0
        } else {
            count_sum as f64 / n as f64
        },
        classifications_max: count_max,
        weight_spread: if n < 2 {
            0.0
        } else {
            (w_max - w_min) as f64 * quantum.q()
        },
        mean_error: (err_n > 0).then(|| err_sum / err_n as f64),
        max_error: (err_n > 0).then_some(err_max),
        dispersion,
        // Round-driven simulation: no wall clock to plot against.
        unix_ms: None,
    }
}

fn make_protocol<I: Instance>(
    instance: &Arc<I>,
    values: &[I::Value],
    config: &GossipConfig,
    i: NodeId,
) -> ClassifierProtocol<I> {
    let node = if config.audit {
        ClassifierNode::new_audited(
            Arc::clone(instance),
            &values[i],
            config.quantum,
            values.len(),
            i,
        )
    } else {
        ClassifierNode::new(Arc::clone(instance), &values[i], config.quantum)
    };
    ClassifierProtocol::with_pattern(node, config.selector, config.delivery, config.pattern)
}

/// The paper's evaluation loop: synchronous rounds in which every live node
/// pushes half its classification to one neighbor; received classifications
/// are merged per the configured [`DeliveryMode`]; crash faults optional.
///
/// See the crate-level docs for an example.
#[derive(Debug)]
pub struct RoundSim<I: Instance> {
    engine: RoundEngine<ClassifierProtocol<I>>,
    instance: Arc<I>,
    quantum: Quantum,
    tracer: Tracer,
    probe: Option<ErrorProbe<I::Summary>>,
}

impl<I: Instance> RoundSim<I> {
    /// Builds a simulation: node `i` takes `values[i]` as its input.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != topology.len()`.
    pub fn new(
        topology: Topology,
        instance: Arc<I>,
        values: &[I::Value],
        config: &GossipConfig,
    ) -> Self {
        assert_eq!(
            values.len(),
            topology.len(),
            "one input value per node required"
        );
        let engine = RoundEngine::new(topology, config.seed, |i| {
            make_protocol(&instance, values, config, i)
        })
        .with_crash_model(config.crash.clone())
        .with_failure_detector(config.failure_detector);
        RoundSim {
            engine,
            instance,
            quantum: config.quantum,
            tracer: Tracer::disabled(),
            probe: None,
        }
    }

    /// Attaches a trace sink (builder style): the engine reports message
    /// and fault events, and every completed round emits a
    /// [`TraceEvent::Telemetry`] convergence sample. Disabled tracers
    /// (the default) keep the hot path at its untraced cost.
    ///
    /// Causal stamps (per-node Lamport clocks and `(origin, seq)` span
    /// ids on sends/deliveries) are emitted by the network engines
    /// themselves, not the runner — this runner only adds the per-round
    /// telemetry on top, so the causal report works on any trace
    /// produced through here without runner involvement.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.engine = self.engine.with_tracer(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Attaches a phase-profiler thread handle (builder style): the
    /// engine's rounds run under `tick` spans (with the round-end merge
    /// nested as `em_reduce`) and each telemetry sample under a
    /// `checkpoint` span, all on the same thread tree. A disabled
    /// handle (the default) never reads the clock.
    pub fn with_profiler(mut self, prof: ThreadProfiler) -> Self {
        self.engine = self.engine.with_profiler(prof);
        self
    }

    /// Installs a per-node error probe (builder style): telemetry samples
    /// then carry mean/max error over live nodes.
    pub fn with_error_probe(
        mut self,
        probe: impl Fn(&Classification<I::Summary>) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        self.probe = Some(ErrorProbe::new(probe));
        self
    }

    /// Convenience probe (builder style): error of a node is the mean,
    /// over the `truth` summaries, of the summary distance to the nearest
    /// collection in the node's classification — `None` for empty
    /// classifications.
    pub fn with_ground_truth(self, truth: Vec<I::Summary>) -> Self
    where
        I: Send + Sync + 'static,
        I::Summary: Send + Sync + 'static,
    {
        let instance = Arc::clone(&self.instance);
        self.with_error_probe(move |c| {
            if c.is_empty() || truth.is_empty() {
                return None;
            }
            let total: f64 = truth
                .iter()
                .map(|t| {
                    c.iter()
                        .map(|col| instance.summary_distance(&col.summary, t))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum();
            Some(total / truth.len() as f64)
        })
    }

    /// The instance being run.
    pub fn instance(&self) -> &Arc<I> {
        &self.instance
    }

    /// Prices every message at its exact wire size (builder style):
    /// [`NetMetrics::bytes_sent`] / [`NetMetrics::bytes_delivered`] will
    /// then report the bytes a deployment of this run would put on the
    /// network, computed from the [`crate::wire`] codec sizes.
    pub fn with_byte_accounting(mut self) -> Self
    where
        I::Summary: crate::wire::WireSummary,
    {
        self.engine = self
            .engine
            .with_message_sizer(crate::wire::gossip_message_size::<I::Summary>);
        self
    }

    /// Runs one round; with a tracer attached, emits a telemetry sample.
    pub fn run_round(&mut self) {
        self.engine.run_round();
        if self.tracer.enabled() {
            let sample_span = self.engine.profiler().span(Phase::Checkpoint);
            let sample = self.telemetry_sample();
            drop(sample_span);
            self.tracer.emit(|| TraceEvent::Telemetry(sample));
        }
    }

    /// Runs `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// The current convergence telemetry sample: classification sizes,
    /// weight spread, and (with a probe installed) error statistics over
    /// live nodes. Dispersion is `None` — it is quadratic in the network
    /// size, so callers opt in via [`RoundSim::dispersion`].
    pub fn telemetry_sample(&self) -> TelemetrySample {
        sample_classifications(
            self.engine.round(),
            self.quantum,
            &self.live_classifications(),
            self.probe.as_ref(),
            None,
        )
    }

    /// Runs until the dispersion across live nodes has been below `tol`
    /// for `window` consecutive rounds, or `max_rounds` elapsed; returns
    /// the number of rounds executed.
    pub fn run_until_stable(&mut self, max_rounds: u64, window: usize, tol: f64) -> u64 {
        let mut detector = convergence::StabilityDetector::new(window, tol);
        let mut executed = 0;
        for _ in 0..max_rounds {
            self.run_round();
            executed += 1;
            detector.observe(self.dispersion());
            if detector.is_stable() && self.dispersion() <= tol {
                break;
            }
        }
        executed
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.engine.round()
    }

    /// Ids of live nodes.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.engine.live_nodes()
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.engine.live_count()
    }

    /// Node `i`'s current classification (crashed nodes retain their last
    /// state).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn classification_of(&self, i: NodeId) -> &Classification<I::Summary> {
        self.engine.node(i).classification()
    }

    /// The classifications of all live nodes.
    pub fn live_classifications(&self) -> Vec<&Classification<I::Summary>> {
        self.engine
            .live_nodes()
            .into_iter()
            .map(|i| self.engine.node(i).classification())
            .collect()
    }

    /// Maximum classification distance between live nodes (agreement
    /// metric; 0 = full agreement).
    pub fn dispersion(&self) -> f64 {
        convergence::dispersion(self.instance.as_ref(), self.live_classifications())
    }

    /// The exact total weight held by live nodes.
    pub fn total_live_weight(&self) -> Weight {
        self.live_classifications()
            .iter()
            .map(|c| c.total_weight())
            .sum::<Weight>()
    }

    /// Network metrics accumulated so far.
    pub fn metrics(&self) -> NetMetrics {
        self.engine.metrics()
    }
}

/// Fully asynchronous simulation: nodes tick at jittered intervals and
/// messages take randomized delays — the convergence theorem's setting.
/// Always uses [`DeliveryMode::Immediate`] (there are no rounds to batch
/// over).
pub struct AsyncSim<I: Instance> {
    engine: EventEngine<ClassifierProtocol<I>>,
    instance: Arc<I>,
    quantum: Quantum,
    probe: Option<ErrorProbe<I::Summary>>,
}

impl<I: Instance> AsyncSim<I> {
    /// Builds an asynchronous simulation with the given message delay
    /// model; ticks happen at unit intervals (±50 % jitter).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != topology.len()` or the delay model is
    /// invalid.
    pub fn new(
        topology: Topology,
        instance: Arc<I>,
        values: &[I::Value],
        config: &GossipConfig,
        delay: DelayModel,
    ) -> Self {
        Self::with_crash_rate(topology, instance, values, config, delay, None)
    }

    /// Builds an asynchronous simulation with optional fail-stop crashes:
    /// each node crashes at an exponentially distributed time with hazard
    /// `crash_rate` (crashes per unit time per node).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != topology.len()`, the delay model is
    /// invalid, or the crash rate is non-positive.
    pub fn with_crash_rate(
        topology: Topology,
        instance: Arc<I>,
        values: &[I::Value],
        config: &GossipConfig,
        delay: DelayModel,
        crash_rate: Option<f64>,
    ) -> Self {
        assert_eq!(
            values.len(),
            topology.len(),
            "one input value per node required"
        );
        let immediate = GossipConfig {
            delivery: DeliveryMode::Immediate,
            ..config.clone()
        };
        let mut engine = EventEngine::with_timing(topology, config.seed, 1.0, delay, |i| {
            make_protocol(&instance, values, &immediate, i)
        });
        if let Some(rate) = crash_rate {
            engine = engine.with_crash_rate(rate);
        }
        AsyncSim {
            engine,
            instance,
            quantum: config.quantum,
            probe: None,
        }
    }

    /// Attaches a trace sink (builder style): the event engine reports
    /// tick, message, and fault events. Telemetry samples are pulled via
    /// [`AsyncSim::telemetry_sample`] (there are no rounds to emit on).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.engine = self.engine.with_tracer(tracer);
        self
    }

    /// Installs a per-node error probe (builder style); see
    /// [`RoundSim::with_error_probe`].
    pub fn with_error_probe(
        mut self,
        probe: impl Fn(&Classification<I::Summary>) -> Option<f64> + Send + Sync + 'static,
    ) -> Self {
        self.probe = Some(ErrorProbe::new(probe));
        self
    }

    /// The current convergence telemetry sample; `round` is the whole
    /// part of the simulated time.
    pub fn telemetry_sample(&self) -> TelemetrySample {
        sample_classifications(
            self.engine.now() as u64,
            self.quantum,
            &self.live_classifications(),
            self.probe.as_ref(),
            None,
        )
    }

    /// Prices every message at its exact wire size (builder style); see
    /// [`RoundSim::with_byte_accounting`].
    pub fn with_byte_accounting(mut self) -> Self
    where
        I::Summary: crate::wire::WireSummary,
    {
        self.engine = self
            .engine
            .with_message_sizer(crate::wire::gossip_message_size::<I::Summary>);
        self
    }

    /// Ids of live nodes.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.engine.live_nodes()
    }

    /// Advances simulated time to `t_end`.
    pub fn run_until(&mut self, t_end: f64) {
        self.engine.run_until(t_end);
    }

    /// Delivers all in-flight messages without further ticks (so weight
    /// accounting over node states is exact afterwards).
    pub fn drain_in_flight(&mut self) {
        self.engine.drain_in_flight(u64::MAX);
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Node `i`'s current classification.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn classification_of(&self, i: NodeId) -> &Classification<I::Summary> {
        self.engine.node(i).classification()
    }

    /// All classifications (crashed nodes keep their last state).
    pub fn classifications(&self) -> Vec<&Classification<I::Summary>> {
        self.engine
            .nodes()
            .iter()
            .map(|p| p.classification())
            .collect()
    }

    /// The classifications of live nodes only.
    pub fn live_classifications(&self) -> Vec<&Classification<I::Summary>> {
        self.engine
            .live_nodes()
            .into_iter()
            .map(|i| self.engine.node(i).classification())
            .collect()
    }

    /// Maximum classification distance between live nodes.
    pub fn dispersion(&self) -> f64 {
        convergence::dispersion(self.instance.as_ref(), self.live_classifications())
    }

    /// The exact total weight across node states (excludes in-flight
    /// messages; call [`AsyncSim::drain_in_flight`] first for a complete
    /// count).
    pub fn total_node_weight(&self) -> Weight {
        self.classifications()
            .iter()
            .map(|c| c.total_weight())
            .sum::<Weight>()
    }

    /// Network metrics accumulated so far.
    pub fn metrics(&self) -> NetMetrics {
        self.engine.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distclass_core::{CentroidInstance, Collection};
    use distclass_linalg::Vector;

    fn bimodal_values(n: usize) -> Vec<Vector> {
        (0..n)
            .map(|i| Vector::from([if i % 2 == 0 { 0.0 } else { 10.0 }]))
            .collect()
    }

    fn instance() -> Arc<CentroidInstance> {
        Arc::new(CentroidInstance::new(2).unwrap())
    }

    #[test]
    fn round_sim_converges_on_complete_graph() {
        let values = bimodal_values(32);
        let mut sim = RoundSim::new(
            Topology::complete(32),
            instance(),
            &values,
            &GossipConfig::default(),
        );
        let rounds = sim.run_until_stable(200, 5, 1e-3);
        assert!(rounds < 200, "did not stabilize");
        // Both clusters present at every node, at their true centroids.
        for c in sim.live_classifications() {
            assert_eq!(c.len(), 2);
            let mut means: Vec<f64> = c.iter().map(|col| col.summary[0]).collect();
            means.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert!((means[0] - 0.0).abs() < 0.5, "means {means:?}");
            assert!((means[1] - 10.0).abs() < 0.5, "means {means:?}");
        }
    }

    #[test]
    fn round_sim_conserves_weight_without_crashes() {
        let values = bimodal_values(16);
        let cfg = GossipConfig {
            quantum: Quantum::new(1 << 12),
            ..GossipConfig::default()
        };
        let mut sim = RoundSim::new(Topology::ring(16), instance(), &values, &cfg);
        for _ in 0..30 {
            sim.run_round();
            assert_eq!(sim.total_live_weight().grains(), 16 << 12);
        }
    }

    #[test]
    fn round_sim_converges_on_sparse_ring() {
        let values = bimodal_values(12);
        let mut sim = RoundSim::new(
            Topology::ring(12),
            instance(),
            &values,
            &GossipConfig::default(),
        );
        sim.run_rounds(150);
        assert!(sim.dispersion() < 0.5, "dispersion {}", sim.dispersion());
    }

    #[test]
    fn crashes_reduce_live_count_but_not_agreement() {
        let values = bimodal_values(24);
        let cfg = GossipConfig {
            crash: CrashModel::per_round(0.02),
            ..GossipConfig::default()
        };
        let mut sim = RoundSim::new(Topology::complete(24), instance(), &values, &cfg);
        sim.run_rounds(60);
        assert!(sim.live_count() < 24);
        assert!(sim.live_count() >= 1);
        assert!(sim.dispersion() < 1.0, "dispersion {}", sim.dispersion());
    }

    #[test]
    fn async_sim_converges_and_conserves() {
        let values = bimodal_values(16);
        let cfg = GossipConfig {
            quantum: Quantum::new(1 << 12),
            ..GossipConfig::default()
        };
        let mut sim = AsyncSim::new(
            Topology::grid(4, 4),
            instance(),
            &values,
            &cfg,
            DelayModel::Uniform { min: 0.1, max: 3.0 },
        );
        sim.run_until(250.0);
        sim.drain_in_flight();
        assert_eq!(sim.total_node_weight().grains(), 16 << 12);
        assert!(sim.dispersion() < 0.5, "dispersion {}", sim.dispersion());
    }

    #[test]
    fn byte_accounting_matches_codec_sizes() {
        use crate::message::GossipMessage;
        use crate::wire::gossip_message_size;

        // Track every message's exact wire size alongside the engine's
        // counters by replaying the sizer over a twin unsized run: same
        // seed, same topology, so the message streams are identical.
        let values = bimodal_values(12);
        let cfg = GossipConfig::default();
        let run = |accounted: bool| {
            let mut sim = RoundSim::new(Topology::ring(12), instance(), &values, &cfg);
            if accounted {
                sim = sim.with_byte_accounting();
            }
            sim.run_rounds(20);
            sim.metrics()
        };
        let plain = run(false);
        assert_eq!(plain.bytes_sent, 0, "accounting is opt-in");
        let m = run(true);
        assert_eq!(
            m.messages_sent, plain.messages_sent,
            "sizer is observational"
        );
        assert!(m.bytes_sent > 0);
        assert_eq!(
            m.bytes_sent, m.bytes_delivered,
            "reliable links deliver all bytes"
        );

        // Every push message here carries a k<=2 centroid classification of
        // dim 1, so its wire size is bounded by the exact codec sizes.
        let empty: GossipMessage<Vector> = GossipMessage::Data(Classification::new());
        let min = gossip_message_size(&empty) as u64;
        let two = {
            let mut c = Classification::new();
            let q = Quantum::default();
            c.push(Collection::new(Vector::from([0.0]), q.unit()));
            c.push(Collection::new(Vector::from([10.0]), q.unit()));
            GossipMessage::Data(c)
        };
        let max = gossip_message_size(&two) as u64;
        assert!(m.bytes_sent >= m.messages_sent * min);
        assert!(m.bytes_sent <= m.messages_sent * max);

        // The asynchronous simulator accounts through the same sizer.
        let mut asim = AsyncSim::new(
            Topology::ring(12),
            instance(),
            &values,
            &cfg,
            DelayModel::Constant(0.5),
        )
        .with_byte_accounting();
        asim.run_until(20.0);
        asim.drain_in_flight();
        let am = asim.metrics();
        assert!(am.bytes_sent > 0);
        assert_eq!(am.bytes_sent, am.bytes_delivered);
        assert!(am.bytes_sent >= am.messages_sent * min);
        assert!(am.bytes_sent <= am.messages_sent * max);
    }

    #[test]
    fn profiler_sees_ticks_and_telemetry_checkpoints() {
        use distclass_obs::{Phase, Profiler, ProfilerCore, RingSink};

        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let values = bimodal_values(8);
        let sink = Arc::new(RingSink::new(4096));
        let mut sim = RoundSim::new(
            Topology::complete(8),
            instance(),
            &values,
            &GossipConfig::default(),
        )
        .with_tracer(Tracer::new(sink as _))
        .with_profiler(prof.thread("sim"));
        sim.run_rounds(3);
        drop(sim); // closes the thread's books

        let report = core.snapshot();
        assert!(report.clean(), "anomalies: {:?}", report.anomalies());
        let t = &report.threads[0];
        let count_of = |path: &[Phase]| {
            t.spans
                .iter()
                .find(|s| s.path == path)
                .map(|s| s.count)
                .unwrap_or(0)
        };
        assert_eq!(count_of(&[Phase::Tick]), 3, "one tick span per round");
        assert_eq!(
            count_of(&[Phase::Tick, Phase::EmReduce]),
            3,
            "merge phase nested under each tick"
        );
        assert_eq!(
            count_of(&[Phase::Checkpoint]),
            3,
            "one telemetry sample span per traced round"
        );
    }

    #[test]
    fn audit_mode_runs() {
        let values = bimodal_values(8);
        let cfg = GossipConfig {
            audit: true,
            ..GossipConfig::default()
        };
        let mut sim = RoundSim::new(Topology::complete(8), instance(), &values, &cfg);
        sim.run_rounds(10);
        for c in sim.live_classifications() {
            for col in c.iter() {
                assert!(col.aux.is_some());
            }
        }
    }
}
