//! The four workloads. Each `*_unit` function builds its inputs from the
//! seed (timed as set-up), runs the measured phase, and checks the
//! outputs. With `traced`, it also records the layer instruments of
//! [`crate::layers`]; without, none of them exists.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use distclass_baselines::em_central;
use distclass_core::{CentroidInstance, EmConfig, GaussianSummary, GmInstance, Instance, Quantum};
use distclass_experiments::data::{figure2_components, sample_mixture};
use distclass_experiments::sampled_dispersion;
use distclass_gossip::wire::WireSummary;
use distclass_gossip::{GossipConfig, RoundSim};
use distclass_linalg::Vector;
use distclass_net::{derive_seed, Topology};
use distclass_obs::{
    AnalyzeOptions, ByzReport, CausalReport, DynOptions, DynReport, JsonlSink, Phase,
    ProfileReport, Profiler, ProfilerCore, TelemetrySeries, TraceReport, TraceSink, Tracer,
};
use distclass_runtime::{
    run_channel_cluster, run_cluster_with_faults, ChannelNet, ClusterConfig, FaultPlan,
};

use crate::layers::{CoreLog, NetLog, TimedInstance, TimedNet, TimedSink};
use crate::measure::{median, ns_since, Calibrator, Stopwatch};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 2: GM k=7, n=1000, complete graph, a fixed length
    /// past convergence.
    Fig2Gm,
    /// Algorithm 2 (centroids) k=2, n=4000, complete graph, fixed length.
    CentroidDense,
    /// The threaded runtime: n=2 peers over in-process channels.
    ClusterGm,
    /// A traced centroid run written as JSONL, then replayed by four
    /// reports.
    TraceReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig2Gm,
        Workload::CentroidDense,
        Workload::ClusterGm,
        Workload::TraceReplay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Gm => "fig2_gm",
            Workload::CentroidDense => "centroid_dense",
            Workload::ClusterGm => "cluster_gm",
            Workload::TraceReplay => "trace_replay",
        }
    }

    /// Inputs measured per end-to-end run: each is a reading set and
    /// engine seed of its own, so a run's counts and times average over
    /// several inputs rather than hang on one. `fig2_gm`'s inputs differ
    /// in work by about a tenth, more than its units differ by noise once
    /// calibrated, so it takes more inputs than fit twice in a run.
    pub fn inputs(self) -> usize {
        match self {
            Workload::TraceReplay => 3,
            Workload::Fig2Gm => 5,
            Workload::CentroidDense => 6,
            Workload::ClusterGm => 4,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Sizes::FULL`] is the benchmark; tests run smaller
/// copies of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `fig2_gm` nodes.
    pub fig2_n: usize,
    /// `centroid_dense` nodes.
    pub centroid_n: usize,
    /// `trace_replay` nodes.
    pub replay_n: usize,
    /// `trace_replay` rounds written.
    pub replay_rounds: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        fig2_n: 1000,
        centroid_n: 4000,
        replay_n: 2000,
        replay_rounds: 50,
    };
}

/// `fig2_gm`'s collection bound, as in the paper.
const FIG2_K: usize = 7;
/// `centroid_dense` rounds run (a fixed length past convergence).
const CENTROID_ROUNDS: u64 = 40;
/// `cluster_gm` peers: no more peer threads than cores.
const CLUSTER_N: usize = 2;
/// `fig2_gm`'s round cap (as in `fig2.rs`); reaching it before the
/// stopping rule holds fails the run.
const FIG2_MAX_ROUNDS: u64 = 80;
/// `fig2_gm` rounds run when the stopping rule holds earlier. The rule
/// held after 26 to 34 rounds on the inputs probed; running on to a fixed
/// length gives every input about the same work, so a run's time does not
/// hang on how soon its few inputs happened to settle.
const FIG2_ROUNDS: u64 = 36;
/// Sampled dispersion at or below which a centroid run counts as
/// converged.
const CENTROID_TOL: f64 = 1e-3;
/// Nodes whose classifications the sampled dispersion compares.
const DISPERSION_SAMPLE: usize = 16;
/// A generating component counts as recovered when an estimated mean
/// lies this close (the bound of `fig2.rs`'s test).
const MATCH_RADIUS: f64 = 2.5;
/// The distributed fit must reach the centralized log-likelihood within
/// this share of its magnitude (the tolerance of `fig2.rs`'s test).
const LL_TOLERANCE: f64 = 0.15;
/// Set-ups per unit: `setup_s` is the median of their times.
const SETUP_REPEATS: usize = 3;
/// `cluster_gm`'s gossip period.
const CLUSTER_TICK: Duration = Duration::from_millis(1);
/// `cluster_gm`'s convergence window.
const CLUSTER_STABLE: Duration = Duration::from_millis(100);

/// The outputs of one unit that are counted, not timed. On the
/// `RoundSim` workloads they are a function of the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    /// The round at which the stopping rule first held (`cluster_gm`:
    /// ticks per peer, the runtime's rounds).
    pub rounds: f64,
    /// Live nodes × rounds executed (`cluster_gm`: ticks).
    pub node_rounds: f64,
    /// Messages (data frames) sent per node.
    pub msgs_per_node: f64,
    /// Wire bytes sent per node.
    pub bytes_per_node: f64,
    /// `fig2_gm`: the log-likelihood gap as a factor, `1 + (central −
    /// node0) / |central|` over the average log-likelihoods: 1 when node 0
    /// fits as well as centralized EM, above 1 when it fits worse. The raw
    /// gap crosses 0 (node 0 often fits slightly better), so only this
    /// form has a spread relative to its median.
    pub ll_gap: Option<f64>,
    /// `trace_replay`: bytes of the JSONL trace.
    pub trace_bytes: Option<u64>,
    /// `trace_replay`: events in the trace.
    pub trace_events: Option<u64>,
}

/// What one unit measured. Times of work on the CPU are calibrated (see
/// [`Calibrator`]); `cluster_gm`'s `wall_s` and `converge_ms`, which wait
/// on the tick and the stable window, are raw.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The calibration scale applied: reference seconds per second.
    pub scale: f64,
    /// Set-up wall time: inputs, topology, simulator or cluster config.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Process CPU time (all threads) of the measured phase.
    pub cpu_s: f64,
    /// Wall ms until the workload's convergence rule first held
    /// (`cluster_gm`: `converged_after − stable_window`; `fig2_gm`: the
    /// whole timed phase, a stand-in).
    pub converge_ms: f64,
    /// `trace_replay`: wall time of the four report replays.
    pub replay_s: Option<f64>,
    /// The counted outputs.
    pub counts: Counts,
    /// Why the correctness check failed, if it did.
    pub failure: Option<String>,
}

/// Layer records of the traced units, summed over units.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Traced units summed here.
    pub units: u32,
    /// The `Instance` wrapper's records.
    pub core: CoreLog,
    /// Duration of each timed `RoundSim::run_round`, ns.
    pub round_ns: Vec<u64>,
    /// Messages and bytes sent inside timed rounds.
    pub round_msgs: u64,
    /// See `round_msgs`.
    pub round_bytes: u64,
    /// Profiler: Σ self time of the engine's `tick` span, ns.
    pub tick_self_ns: u64,
    /// Profiler: Σ total time of the engine's `em_reduce` span, ns.
    pub em_reduce_ns: u64,
    /// The transport wrappers' records.
    pub net: NetLog,
    /// Profiler, summed over peers: self ns per phase, indexed like
    /// [`Phase::ALL`].
    pub peer_self_ns: [u64; Phase::ALL.len()],
    /// Profiler: Σ busy and Σ lifetime ns over peers.
    pub peer_busy_ns: u64,
    /// See `peer_busy_ns`.
    pub peer_lifetime_ns: u64,
    /// Profiler: supervisor busy ns.
    pub supervisor_busy_ns: u64,
    /// The sink wrapper's per-`record` ns.
    pub record_ns: Vec<u64>,
    /// Replay phase ns: read, then the four reports.
    pub read_ns: u64,
    /// See `read_ns`.
    pub report_ns: [u64; 4],
    /// `trace_replay`'s trace bytes and events, summed.
    pub trace_bytes: u64,
    /// See `trace_bytes`.
    pub trace_events: u64,
}

/// Runs one unit of `workload`.
///
/// `work_dir` holds `trace_replay`'s trace file while it runs; `layers`,
/// when given, turns the traced run's instruments on and receives their
/// records; `cal` samples the machine's speed around and inside the unit.
pub fn run_unit(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    work_dir: &Path,
    layers: Option<&mut Layers>,
    cal: &mut Calibrator,
) -> Unit {
    cal.sample();
    match workload {
        Workload::Fig2Gm => fig2_unit(seed, sizes.fig2_n, layers, cal),
        Workload::CentroidDense => centroid_unit(seed, sizes, layers, cal),
        Workload::ClusterGm => cluster_unit(seed, layers, cal),
        Workload::TraceReplay => replay_unit(seed, sizes, work_dir, layers, cal),
    }
}

/// The seed of a run's `input`-th input.
pub fn input_seed(seed: u64, input: usize) -> u64 {
    derive_seed(seed, 0x1_0000 + input as u64)
}

/// The seed of the readings, distinct from the engine seed.
fn readings_seed(seed: u64) -> u64 {
    derive_seed(seed, 0xF162)
}

fn centroid() -> Arc<CentroidInstance> {
    Arc::new(CentroidInstance::new(2).expect("k > 0"))
}

/// Readings from the Fig. 2 mixture, a complete graph, and a `RoundSim`
/// with byte accounting (and the profiler thread, when given).
fn build_sim<I>(seed: u64, n: usize, inst: Arc<I>, prof: Option<&Profiler>) -> RoundSim<I>
where
    I: Instance<Value = Vector>,
    I::Summary: WireSummary,
{
    let (values, _labels) = sample_mixture(n, &figure2_components(), readings_seed(seed));
    let gossip = GossipConfig {
        seed,
        ..GossipConfig::default()
    };
    let sim = RoundSim::new(Topology::complete(n), inst, &values, &gossip).with_byte_accounting();
    match prof {
        Some(p) => sim.with_profiler(p.thread("sim")),
        None => sim,
    }
}

/// Builds a unit's inputs `SETUP_REPEATS` times, dropping each build
/// before the next, and returns the last with the median build time.
fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_REPEATS > 0"), median(&times))
}

/// One round, timed into `layers` when tracing.
fn round<I: Instance>(sim: &mut RoundSim<I>, layers: &mut Option<&mut Layers>) {
    match layers {
        Some(l) => {
            let before = sim.metrics();
            let t0 = Instant::now();
            sim.run_round();
            l.round_ns.push(ns_since(t0));
            let after = sim.metrics();
            l.round_msgs += after.messages_sent - before.messages_sent;
            l.round_bytes += after.bytes_sent - before.bytes_sent;
        }
        None => sim.run_round(),
    }
}

/// Exact conservation: live nodes hold `n` units of grains.
fn conservation<I: Instance>(sim: &RoundSim<I>, n: usize) -> Option<String> {
    let want = n as u64 * Quantum::default().grains_per_unit();
    let got = sim.total_live_weight().grains();
    (got != want).then(|| format!("grains {got} != {want}"))
}

/// Folds a `RoundSim` profile into `layers`.
fn absorb_sim_profile(layers: &mut Layers, report: &ProfileReport) {
    for t in &report.threads {
        for s in &t.spans {
            if s.path == [Phase::Tick] {
                layers.tick_self_ns += s.self_ns;
            }
            if s.path.last() == Some(&Phase::EmReduce) {
                layers.em_reduce_ns += s.total_ns;
            }
        }
    }
}

fn first_failure(checks: impl IntoIterator<Item = Option<String>>) -> Option<String> {
    checks.into_iter().flatten().next()
}

fn fig2_unit(seed: u64, n: usize, layers: Option<&mut Layers>, cal: &mut Calibrator) -> Unit {
    let gm = GmInstance::new(FIG2_K).expect("k > 0");
    match layers {
        None => fig2_run(seed, n, Arc::new(gm), None, None, cal),
        Some(l) => {
            let timed = Arc::new(TimedInstance::new(gm));
            fig2_run(seed, n, Arc::clone(&timed), Some(&timed), Some(l), cal)
        }
    }
}

fn fig2_run<I>(
    seed: u64,
    n: usize,
    inst: Arc<I>,
    timed: Option<&TimedInstance<GmInstance>>,
    mut layers: Option<&mut Layers>,
    cal: &mut Calibrator,
) -> Unit
where
    I: Instance<Value = Vector, Summary = GaussianSummary>,
{
    let core = Arc::new(ProfilerCore::new());
    let prof = layers.as_ref().map(|_| Profiler::new(Arc::clone(&core)));
    let (mut sim, setup_s) = set_up(|| build_sim(seed, n, Arc::clone(&inst), prof.as_ref()));
    if let Some(t) = timed {
        t.take_log();
    }

    // `fig2.rs`'s stopping rule: sampled dispersion settles.
    let mut clock = Stopwatch::start();
    let mut telemetry = TelemetrySeries::new();
    let mut settled = None;
    let mut rounds = 0;
    while rounds < FIG2_MAX_ROUNDS && (rounds < FIG2_ROUNDS || settled.is_none()) {
        round(&mut sim, &mut layers);
        rounds += 1;
        let mut sample = sim.telemetry_sample();
        sample.dispersion = Some(sampled_dispersion(&sim, DISPERSION_SAMPLE));
        telemetry.push(sample);
        if settled.is_none() && telemetry.converged(5, 1e-3, 0.5) {
            settled = Some(rounds);
        }
        cal.tick(&mut clock);
    }
    let (wall_s, cpu_s) = clock.stop();
    let scale = cal.finish();

    let (values, _labels) = sample_mixture(n, &figure2_components(), readings_seed(seed));
    let node0 = sim.classification_of(sim.live_nodes()[0]);
    let total = node0.total_weight();
    let mixture: Vec<(GaussianSummary, f64)> = node0
        .iter()
        .map(|c| (c.summary.clone(), c.weight.fraction_of(total)))
        .collect();
    let unmatched = figure2_components()
        .iter()
        .filter(|t| {
            mixture
                .iter()
                .all(|(s, _)| s.mean.distance(&t.gaussian.mean) >= MATCH_RADIUS)
        })
        .count();
    let ll_dist = em_central::avg_log_likelihood(&values, &mixture, 1e-6);
    let ll_central = em_central::fit(&values, FIG2_K, &EmConfig::default())
        .and_then(|c| em_central::avg_log_likelihood(&values, &c.model, 1e-6));
    let (ll_gap, ll_check) = match (ll_central, ll_dist) {
        (Ok(c), Ok(d)) => (
            1.0 + (c - d) / c.abs(),
            (d <= c - LL_TOLERANCE * c.abs())
                .then(|| format!("log-likelihood {d} vs centralized {c}")),
        ),
        (c, d) => (
            f64::NAN,
            Some(format!("log-likelihood failed: {c:?} {d:?}")),
        ),
    };
    let failure = first_failure([
        conservation(&sim, n),
        settled.is_none().then(|| "hit the round cap".to_string()),
        (unmatched > 0).then(|| format!("{unmatched} generating components unmatched")),
        ll_check,
    ]);

    let m = sim.metrics();
    let live = sim.live_count() as f64;
    drop(sim);
    if let (Some(l), Some(t)) = (layers, timed) {
        l.units += 1;
        merge_core(&mut l.core, t.take_log());
        absorb_sim_profile(l, &core.snapshot());
    }
    Unit {
        scale,
        setup_s: setup_s * scale,
        wall_s: wall_s * scale,
        cpu_s: cpu_s * scale,
        converge_ms: wall_s * scale * 1e3,
        replay_s: None,
        counts: Counts {
            rounds: settled.unwrap_or(rounds) as f64,
            node_rounds: live * rounds as f64,
            msgs_per_node: m.messages_sent as f64 / n as f64,
            bytes_per_node: m.bytes_sent as f64 / n as f64,
            ll_gap: Some(ll_gap),
            trace_bytes: None,
            trace_events: None,
        },
        failure,
    }
}

fn merge_core(acc: &mut CoreLog, log: CoreLog) {
    acc.partition_ns.extend(log.partition_ns);
    acc.partition_inputs += log.partition_inputs;
    acc.reducing += log.reducing;
    acc.merge_calls += log.merge_calls;
    acc.merge_ns += log.merge_ns;
}

fn centroid_unit(
    seed: u64,
    sizes: &Sizes,
    layers: Option<&mut Layers>,
    cal: &mut Calibrator,
) -> Unit {
    match layers {
        None => centroid_run(seed, sizes, centroid(), None, None, cal),
        Some(l) => {
            let timed = Arc::new(TimedInstance::new(CentroidInstance::new(2).expect("k > 0")));
            centroid_run(seed, sizes, Arc::clone(&timed), Some(&timed), Some(l), cal)
        }
    }
}

fn centroid_run<I>(
    seed: u64,
    sizes: &Sizes,
    inst: Arc<I>,
    timed: Option<&TimedInstance<CentroidInstance>>,
    mut layers: Option<&mut Layers>,
    cal: &mut Calibrator,
) -> Unit
where
    I: Instance<Value = Vector, Summary = Vector>,
{
    let n = sizes.centroid_n;
    let core = Arc::new(ProfilerCore::new());
    let prof = layers.as_ref().map(|_| Profiler::new(Arc::clone(&core)));
    let (mut sim, setup_s) = set_up(|| build_sim(seed, n, Arc::clone(&inst), prof.as_ref()));
    if let Some(t) = timed {
        t.take_log();
    }

    let mut clock = Stopwatch::start();
    let mut converged: Option<(u64, f64)> = None;
    let mut dispersion = f64::INFINITY;
    for r in 1..=CENTROID_ROUNDS {
        round(&mut sim, &mut layers);
        dispersion = sampled_dispersion(&sim, DISPERSION_SAMPLE);
        if converged.is_none() && dispersion <= CENTROID_TOL {
            converged = Some((r, clock.wall_s() * 1e3));
        }
        cal.tick(&mut clock);
    }
    let (wall_s, cpu_s) = clock.stop();
    let scale = cal.finish();

    let failure = first_failure([
        conservation(&sim, n),
        (dispersion > CENTROID_TOL).then(|| format!("final dispersion {dispersion}")),
    ]);
    let m = sim.metrics();
    let live = sim.live_count() as f64;
    drop(sim);
    if let (Some(l), Some(t)) = (layers, timed) {
        l.units += 1;
        merge_core(&mut l.core, t.take_log());
        absorb_sim_profile(l, &core.snapshot());
    }
    let (rounds, converge_ms) = converged.unwrap_or((CENTROID_ROUNDS, wall_s * 1e3));
    Unit {
        scale,
        setup_s: setup_s * scale,
        wall_s: wall_s * scale,
        cpu_s: cpu_s * scale,
        converge_ms: converge_ms * scale,
        replay_s: None,
        counts: Counts {
            rounds: rounds as f64,
            node_rounds: live * CENTROID_ROUNDS as f64,
            msgs_per_node: m.messages_sent as f64 / n as f64,
            bytes_per_node: m.bytes_sent as f64 / n as f64,
            ll_gap: None,
            trace_bytes: None,
            trace_events: None,
        },
        failure,
    }
}

fn cluster_inputs(seed: u64, n: usize) -> (Topology, Vec<Vector>, ClusterConfig) {
    let (values, _labels) = sample_mixture(n, &figure2_components(), readings_seed(seed));
    let config = ClusterConfig {
        tick: CLUSTER_TICK,
        seed,
        stable_window: CLUSTER_STABLE,
        audit: true,
        max_wall: Duration::from_secs(20),
        drain_wall: Duration::from_secs(5),
        ..ClusterConfig::default()
    };
    (Topology::complete(n), values, config)
}

fn cluster_unit(seed: u64, layers: Option<&mut Layers>, cal: &mut Calibrator) -> Unit {
    let n = CLUSTER_N;
    let gm = GmInstance::new(FIG2_K).expect("k > 0");
    let ((topo, values, mut config), setup_s) = set_up(|| cluster_inputs(seed, n));

    let (report, clock, timed) = match &layers {
        None => {
            let clock = Stopwatch::start();
            let report = run_channel_cluster(&topo, Arc::new(gm), &values, &config);
            (report, clock.stop(), None)
        }
        Some(_) => {
            let timed = Arc::new(TimedInstance::new(gm));
            config.profiler = Profiler::new(Arc::new(ProfilerCore::new()));
            let log = Arc::new(Mutex::new(NetLog::default()));
            let net = TimedNet::new(ChannelNet::new(n), Arc::clone(&log));
            let plan = FaultPlan::new(seed);
            let clock = Stopwatch::start();
            let report =
                run_cluster_with_faults(&topo, Arc::clone(&timed), &values, net, &plan, &config);
            let clock = clock.stop();
            let log = std::mem::take(&mut *log.lock().expect("net log poisoned"));
            (report, clock, Some((timed, log)))
        }
    };
    let (wall_s, cpu_s) = clock;
    let scale = cal.finish();

    let want = n as u64 * config.quantum.grains_per_unit();
    let failure = first_failure([
        (!report.converged).then(|| "did not converge".to_string()),
        (!report.drained).then(|| "did not drain".to_string()),
        match &report.audit {
            Some(a) if a.exact && a.conserved => None,
            other => Some(format!("audit not exact: {other:?}")),
        },
        (report.total_grains() != want)
            .then(|| format!("grains {} != {want}", report.total_grains())),
    ]);
    let m = report.total_metrics();
    if let (Some(l), Some((timed, log))) = (layers, timed) {
        l.units += 1;
        merge_core(&mut l.core, timed.take_log());
        merge_net(&mut l.net, log);
        if let Some(profile) = &report.profile {
            absorb_cluster_profile(l, profile);
        }
    }
    let converge_ms = report.converged_after.map_or(wall_s * 1e3, |d| {
        d.saturating_sub(CLUSTER_STABLE).as_secs_f64() * 1e3
    });
    Unit {
        scale,
        setup_s: setup_s * scale,
        wall_s,
        cpu_s: cpu_s * scale,
        converge_ms,
        replay_s: None,
        counts: Counts {
            rounds: m.ticks as f64 / n as f64,
            node_rounds: m.ticks as f64,
            msgs_per_node: m.msgs_sent as f64 / n as f64,
            bytes_per_node: m.bytes_sent as f64 / n as f64,
            ll_gap: None,
            trace_bytes: None,
            trace_events: None,
        },
        failure,
    }
}

fn merge_net(acc: &mut NetLog, log: NetLog) {
    acc.send_ns.extend(log.send_ns);
    acc.recv_calls += log.recv_calls;
    acc.recv_hits += log.recv_hits;
    acc.recv_wait_ns += log.recv_wait_ns;
    acc.data += log.data;
    acc.ack += log.ack;
    acc.other += log.other;
    acc.retries += log.retries;
    acc.data_received += log.data_received;
    acc.dups += log.dups;
}

fn absorb_cluster_profile(layers: &mut Layers, report: &ProfileReport) {
    for t in &report.threads {
        if t.label == "supervisor" {
            layers.supervisor_busy_ns += t.busy_ns;
            continue;
        }
        layers.peer_busy_ns += t.busy_ns;
        layers.peer_lifetime_ns += t.lifetime_ns;
        for s in &t.spans {
            if let Some(p) = s.path.last() {
                layers.peer_self_ns[p.as_index()] += s.self_ns;
            }
        }
    }
}

fn replay_unit(
    seed: u64,
    sizes: &Sizes,
    work_dir: &Path,
    layers: Option<&mut Layers>,
    cal: &mut Calibrator,
) -> Unit {
    let path = work_dir.join(format!("trace-{}-{seed}.jsonl", std::process::id()));
    let jsonl = JsonlSink::create(&path).expect("create the trace file");
    match layers {
        None => replay_run(
            seed,
            sizes,
            (&path, Arc::new(jsonl)),
            centroid(),
            None,
            None,
            cal,
        ),
        Some(l) => {
            let sink = Arc::new(TimedSink::new(jsonl));
            let timed = Arc::new(TimedInstance::new(CentroidInstance::new(2).expect("k > 0")));
            let unit = replay_run(
                seed,
                sizes,
                (&path, Arc::clone(&sink)),
                Arc::clone(&timed),
                Some(&timed),
                Some(&mut *l),
                cal,
            );
            l.record_ns.extend(sink.record_ns());
            unit
        }
    }
}

/// `trace` is the trace file and the sink that writes it.
fn replay_run<S, I>(
    seed: u64,
    sizes: &Sizes,
    (path, sink): (&Path, Arc<S>),
    inst: Arc<I>,
    timed: Option<&TimedInstance<CentroidInstance>>,
    mut layers: Option<&mut Layers>,
    cal: &mut Calibrator,
) -> Unit
where
    S: TraceSink + 'static,
    I: Instance<Value = Vector, Summary = Vector>,
{
    let n = sizes.replay_n;
    let (sim, setup_s) = set_up(|| build_sim(seed, n, Arc::clone(&inst), None));
    let mut sim = sim.with_tracer(Tracer::new(sink.clone()));
    if let Some(t) = timed {
        t.take_log();
    }

    let mut clock = Stopwatch::start();
    let mut converged: Option<(u64, f64)> = None;
    for r in 1..=sizes.replay_rounds {
        round(&mut sim, &mut layers);
        if converged.is_none() && sampled_dispersion(&sim, DISPERSION_SAMPLE) <= CENTROID_TOL {
            converged = Some((r, clock.wall_s() * 1e3));
        }
        cal.tick(&mut clock);
    }
    let flushed = sink.flush();
    let conserved = conservation(&sim, n);
    let m = sim.metrics();
    drop(sim);

    let t_read = Instant::now();
    let text = std::fs::read_to_string(path).expect("read the trace back");
    let read_ns = ns_since(t_read);
    let opts = AnalyzeOptions::default();
    let mut report_ns = [0u64; 4];
    let t = Instant::now();
    let trace = TraceReport::from_jsonl(&text, &opts);
    report_ns[0] = ns_since(t);
    cal.tick(&mut clock);
    let t = Instant::now();
    let causal = CausalReport::from_jsonl(&text, &opts);
    report_ns[1] = ns_since(t);
    cal.tick(&mut clock);
    let t = Instant::now();
    let byz = ByzReport::from_jsonl(&text);
    report_ns[2] = ns_since(t);
    cal.tick(&mut clock);
    let t = Instant::now();
    let dynr = DynReport::from_jsonl(&text, &DynOptions::default());
    report_ns[3] = ns_since(t);
    let (wall_s, cpu_s) = clock.stop();
    let scale = cal.finish();
    let trace_bytes = text.len() as u64;
    drop(text);
    let _ = std::fs::remove_file(path);

    let want_events = 2 * m.messages_sent + 2 * m.rounds;
    let events = trace.as_ref().map_or(0, |r| r.events as u64);
    let failure = first_failure([
        flushed.err().map(|e| format!("trace write failed: {e}")),
        conserved,
        match &trace {
            Ok(r) if r.clean() => None,
            Ok(r) => Some(format!("trace-report anomalies: {:?}", r.anomalies)),
            Err(e) => Some(format!("trace-report: {e:?}")),
        },
        match &causal {
            Ok(r) if r.clean() => None,
            Ok(r) => Some(format!("causal-report anomalies: {:?}", r.anomalies)),
            Err(e) => Some(format!("causal-report: {e:?}")),
        },
        byz.err().map(|e| format!("byz-report: {e:?}")),
        dynr.err().map(|e| format!("dyn-report: {e:?}")),
        (events != want_events).then(|| format!("{events} events, want {want_events}")),
    ]);

    if let (Some(l), Some(t)) = (layers, timed) {
        l.units += 1;
        merge_core(&mut l.core, t.take_log());
        l.read_ns += read_ns;
        for (acc, ns) in l.report_ns.iter_mut().zip(report_ns) {
            *acc += ns;
        }
        l.trace_bytes += trace_bytes;
        l.trace_events += events;
    }
    let (rounds, converge_ms) = converged.unwrap_or((sizes.replay_rounds, wall_s * 1e3));
    Unit {
        scale,
        setup_s: setup_s * scale,
        wall_s: wall_s * scale,
        cpu_s: cpu_s * scale,
        converge_ms: converge_ms * scale,
        replay_s: Some(report_ns.iter().sum::<u64>() as f64 * 1e-9 * scale),
        counts: Counts {
            rounds: rounds as f64,
            node_rounds: n as f64 * sizes.replay_rounds as f64,
            msgs_per_node: m.messages_sent as f64 / n as f64,
            bytes_per_node: m.bytes_sent as f64 / n as f64,
            ll_gap: None,
            trace_bytes: Some(trace_bytes),
            trace_events: Some(events),
        },
        failure,
    }
}
