//! Golden bit-identity pins for the simulation hot paths.
//!
//! Two digests, recorded before the EM kernel was rewritten for speed,
//! pin its outputs bit for bit:
//!
//! * every `em::reduce` outcome (groups, iteration count, and the f64 bits
//!   of each model mean, covariance and mixing weight) over a seeded
//!   corpus of 2,400 inputs spanning d = 1–4, k = 1–7, l up to 2k + 10,
//!   zero and full covariances, tied weights, duplicated components,
//!   inputs that run to the 30-iteration cap, and inputs whose far,
//!   featherweight component starves and is reseeded;
//! * every node's classification after 30 rounds of a fixed-seed GM
//!   `RoundSim` on Fig. 2 readings (n = 200, k = 7).
//!
//! Five more, recorded before complete graphs became implicit and the
//! greedy partition started caching group summaries, pin every node's
//! classification (summary bits and grains) and the `NetMetrics` after
//! 30 rounds (or 30 time units) of:
//!
//! * a centroid `RoundSim` on `Topology::complete(300)`, uniform selector;
//! * the same with round-robin selection;
//! * a centroid `RoundSim` on a 15 × 20 grid (explicit neighbor lists);
//! * a centroid `AsyncSim` on `Topology::complete(300)`;
//! * a GM `RoundSim` with `PartitionStrategy::Greedy` (n = 200, k = 7).
//!
//! Three more, recorded before the round and event engines came to share
//! one network model, pin the crash paths and the simulators' trace
//! bytes: the digest of the JSONL trace, the `NetMetrics` and every
//! node's final classification (crashed nodes included) of
//!
//! * a traced push–pull centroid `RoundSim` on a ring with
//!   `CrashModel::per_round` and byte accounting (replies carried across
//!   rounds, some of them dropped at crashed nodes);
//! * a traced centroid `RoundSim` with `CrashModel::Scheduled` and the
//!   failure detector off (sends to the crashed nodes are dropped);
//! * a traced centroid `AsyncSim` built `with_crash_rate` under
//!   `DelayModel::Exponential`, then drained.
//!
//! A change that moves any bit fails here. If a change reorders float
//! operations on purpose, it must say so and re-record the values.

use std::fmt::Write;
use std::sync::{Arc, Mutex};

use distclass::core::em::{self, EmConfig};
use distclass::core::{
    CentroidInstance, Classification, GaussianSummary, GmInstance, PartitionStrategy,
};
use distclass::experiments::data::{figure2_components, sample_mixture};
use distclass::gossip::{AsyncSim, GossipConfig, GossipPattern, RoundSim, SelectorKind};
use distclass::linalg::{Matrix, Vector};
use distclass::net::{CrashModel, DelayModel, NetMetrics, Topology};
use distclass::obs::{TraceEvent, TraceSink, Tracer};

const REDUCE_DIGEST: u64 = 0x58a1_369b_352e_6580;
const ROUNDSIM_DIGEST: u64 = 0x546c_96f1_7429_e233;
const CENTROID_COMPLETE_DIGEST: u64 = 0x5bf6_6f51_b8b5_646f;
const CENTROID_ROUND_ROBIN_DIGEST: u64 = 0x54c1_3e9f_0fea_f4cd;
const CENTROID_GRID_DIGEST: u64 = 0xea3f_3be0_69ab_d226;
const CENTROID_ASYNC_DIGEST: u64 = 0xd3bd_b83c_911e_8336;
const GM_GREEDY_DIGEST: u64 = 0xbcfb_89b1_9986_b735;
const RING_PER_ROUND_CRASH_DIGEST: u64 = 0xc162_9c1e_0568_0fc8;
const SCHEDULED_CRASH_DIGEST: u64 = 0x3c7c_763d_0ad5_1d95;
const ASYNC_CRASH_RATE_DIGEST: u64 = 0x3af7_1ea8_f121_3e9f;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn summary(&mut self, s: &GaussianSummary) {
        self.f64s(s.mean.as_slice());
        self.f64s(s.cov.as_slice());
    }

    /// Every node's classification, then the engine counters.
    fn run<'a, S: 'a>(
        classifications: impl IntoIterator<Item = &'a Classification<S>>,
        summary: impl Fn(&mut Self, &S),
        m: NetMetrics,
    ) -> u64 {
        let mut digest = Digest::new();
        for c in classifications {
            digest.word(c.len() as u64);
            for col in c.iter() {
                summary(&mut digest, &col.summary);
                digest.word(col.weight.grains());
            }
        }
        for w in [
            m.messages_sent,
            m.messages_delivered,
            m.messages_dropped,
            m.ticks,
            m.rounds,
            m.crashes,
            // Once `NetMetrics::restarts`, zero in every recorded run.
            0,
            m.bytes_sent,
            m.bytes_delivered,
        ] {
            digest.word(w);
        }
        digest.0
    }
}

/// SplitMix64: a self-contained generator, so the corpus never moves
/// with the workspace's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn symmetric(&mut self, scale: f64) -> f64 {
        scale * (2.0 * self.unit() - 1.0)
    }
}

/// A random SPD covariance `s · A Aᵀ + 0.01 · I`.
fn full_cov(rng: &mut Rng, d: usize) -> Matrix {
    let a: Vec<f64> = (0..d * d).map(|_| rng.symmetric(1.0)).collect();
    let s = 0.05 + 2.0 * rng.unit();
    let mut cov = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            let dot: f64 = (0..d).map(|t| a[i * d + t] * a[j * d + t]).sum();
            cov[(i, j)] = s * dot;
        }
    }
    cov.add_diagonal(0.01);
    cov
}

/// One corpus input. `case % 4` picks the family:
///
/// 0. clustered means, mixed zero/full covariances, real weights;
/// 1. clustered points (zero covariances), real weights, some exact
///    duplicates — the `fit_points` shape;
/// 2. full covariances with small integer weights, so the heaviest-seed
///    choice ties;
/// 3. grain-sized weights (~1e10) plus, for k ≥ 2, one featherweight
///    component 1e9 away: it is seeded, then starved, then reseeded.
fn corpus_input(case: usize, rng: &mut Rng) -> (Vec<(GaussianSummary, f64)>, usize) {
    let d = 1 + case % 4;
    let k = 1 + (case / 4) % 7;
    let family = case % 4;
    let l = 1 + rng.below(2 * k + 10);
    let centers: Vec<Vec<f64>> = (0..1 + rng.below(k + 2))
        .map(|_| (0..d).map(|_| rng.symmetric(10.0)).collect())
        .collect();
    let mut comps: Vec<(GaussianSummary, f64)> = Vec::with_capacity(l + 1);
    for _ in 0..l {
        if family == 1 && !comps.is_empty() && rng.below(5) == 0 {
            let dup = comps[rng.below(comps.len())].clone();
            comps.push(dup);
            continue;
        }
        let c = &centers[rng.below(centers.len())];
        let spread = 0.2 + 2.0 * rng.unit();
        let mean: Vector = c.iter().map(|x| x + rng.symmetric(spread)).collect();
        let zero_cov = family == 1 || (family == 0 && rng.below(2) == 0);
        let cov = if zero_cov {
            Matrix::zeros(d, d)
        } else {
            full_cov(rng, d)
        };
        let w = match family {
            2 => (1 + rng.below(4)) as f64,
            3 => 1e10 * (1.0 + rng.unit()),
            _ => 0.5 + 10.0 * rng.unit(),
        };
        comps.push((GaussianSummary::new(mean, cov), w));
    }
    if family == 3 && k >= 2 {
        let far = GaussianSummary::from_point(&Vector::filled(d, 1e9));
        comps.push((far, 1e-3));
    }
    (comps, k)
}

#[test]
fn em_reduce_outputs_match_the_recorded_digest() {
    let cfg = EmConfig::default();
    let mut rng = Rng(0x5eed_0e77);
    let mut digest = Digest::new();
    let (mut capped, mut failed) = (0, 0);
    for case in 0..2_400 {
        let (comps, k) = corpus_input(case, &mut rng);
        match em::reduce(&comps, k, &cfg) {
            Ok(out) => {
                digest.word(out.groups.len() as u64);
                for g in &out.groups {
                    digest.word(g.len() as u64);
                    for &i in g {
                        digest.word(i as u64);
                    }
                }
                digest.word(out.iterations as u64);
                for (s, pi) in &out.model {
                    digest.summary(s);
                    digest.word(pi.to_bits());
                }
                capped += usize::from(out.iterations == cfg.max_iters);
            }
            Err(_) => {
                digest.word(u64::MAX);
                failed += 1;
            }
        }
    }
    assert!(capped > 0, "no corpus input reached the iteration cap");
    assert_eq!(failed, 0, "corpus inputs are all well formed");
    assert_eq!(
        digest.0, REDUCE_DIGEST,
        "em::reduce outputs changed: digest {:#018x}",
        digest.0
    );
}

#[test]
fn gm_roundsim_classifications_match_the_recorded_digest() {
    let n = 200;
    let (values, _labels) = sample_mixture(n, &figure2_components(), 0xF162);
    let inst = Arc::new(GmInstance::new(7).expect("k > 0"));
    let cfg = GossipConfig {
        seed: 12,
        ..GossipConfig::default()
    };
    let mut sim = RoundSim::new(Topology::complete(n), inst, &values, &cfg);
    sim.run_rounds(30);
    let mut digest = Digest::new();
    for node in sim.live_nodes() {
        let c = sim.classification_of(node);
        digest.word(c.len() as u64);
        for col in c.iter() {
            digest.summary(&col.summary);
            digest.word(col.weight.grains());
        }
    }
    assert_eq!(
        digest.0, ROUNDSIM_DIGEST,
        "GM RoundSim classifications changed: digest {:#018x}",
        digest.0
    );
}

/// Fig. 2 readings for `n` nodes and a config on engine seed 12.
fn fig2_inputs(n: usize, selector: SelectorKind) -> (Vec<Vector>, GossipConfig) {
    let (values, _labels) = sample_mixture(n, &figure2_components(), 0xF162);
    let cfg = GossipConfig {
        seed: 12,
        selector,
        ..GossipConfig::default()
    };
    (values, cfg)
}

/// 30 rounds of a k = 2 centroid `RoundSim` with byte accounting.
fn centroid_roundsim_digest(topo: Topology, selector: SelectorKind) -> u64 {
    let (values, cfg) = fig2_inputs(topo.len(), selector);
    let inst = Arc::new(CentroidInstance::new(2).expect("k > 0"));
    let mut sim = RoundSim::new(topo, inst, &values, &cfg).with_byte_accounting();
    sim.run_rounds(30);
    Digest::run(
        sim.live_classifications(),
        |d, s: &Vector| d.f64s(s.as_slice()),
        sim.metrics(),
    )
}

fn check(name: &str, digest: u64, recorded: u64) {
    assert_eq!(digest, recorded, "{name} changed: digest {digest:#018x}");
}

#[test]
fn centroid_roundsim_on_complete_graph_matches_the_recorded_digest() {
    let digest = centroid_roundsim_digest(Topology::complete(300), SelectorKind::UniformRandom);
    check(
        "complete-graph centroid RoundSim",
        digest,
        CENTROID_COMPLETE_DIGEST,
    );
}

#[test]
fn round_robin_centroid_roundsim_matches_the_recorded_digest() {
    let digest = centroid_roundsim_digest(Topology::complete(300), SelectorKind::RoundRobin);
    check(
        "round-robin centroid RoundSim",
        digest,
        CENTROID_ROUND_ROBIN_DIGEST,
    );
}

#[test]
fn centroid_roundsim_on_grid_matches_the_recorded_digest() {
    let digest = centroid_roundsim_digest(Topology::grid(15, 20), SelectorKind::UniformRandom);
    check("grid centroid RoundSim", digest, CENTROID_GRID_DIGEST);
}

#[test]
fn centroid_asyncsim_on_complete_graph_matches_the_recorded_digest() {
    let (values, cfg) = fig2_inputs(300, SelectorKind::UniformRandom);
    let inst = Arc::new(CentroidInstance::new(2).expect("k > 0"));
    let delay = DelayModel::Uniform { min: 0.1, max: 2.5 };
    let mut sim =
        AsyncSim::new(Topology::complete(300), inst, &values, &cfg, delay).with_byte_accounting();
    sim.run_until(30.0);
    let digest = Digest::run(
        sim.classifications(),
        |d, s: &Vector| d.f64s(s.as_slice()),
        sim.metrics(),
    );
    check(
        "complete-graph centroid AsyncSim",
        digest,
        CENTROID_ASYNC_DIGEST,
    );
}

#[test]
fn greedy_gm_roundsim_matches_the_recorded_digest() {
    let (values, cfg) = fig2_inputs(200, SelectorKind::UniformRandom);
    let inst = Arc::new(
        GmInstance::new(7)
            .expect("k > 0")
            .with_partition_strategy(PartitionStrategy::Greedy),
    );
    let mut sim =
        RoundSim::new(Topology::complete(200), inst, &values, &cfg).with_byte_accounting();
    sim.run_rounds(30);
    let digest = Digest::run(sim.live_classifications(), Digest::summary, sim.metrics());
    check("greedy GM RoundSim", digest, GM_GREEDY_DIGEST);
}

/// A run's JSONL trace held in memory: each event's line as `JsonlSink`
/// writes it.
#[derive(Default)]
struct JsonlBuffer(Mutex<String>);

impl TraceSink for JsonlBuffer {
    fn record(&self, event: &TraceEvent) {
        let mut lines = self.0.lock().expect("trace buffer lock");
        writeln!(lines, "{event}").expect("writing to a String cannot fail");
    }
}

impl JsonlBuffer {
    /// A tracer recording into a fresh buffer, and the buffer.
    fn tracer() -> (Tracer, Arc<JsonlBuffer>) {
        let buffer = Arc::new(JsonlBuffer::default());
        (Tracer::new(Arc::clone(&buffer) as _), buffer)
    }

    /// The digest of a traced run: every node's classification and the
    /// engine counters (as [`Digest::run`]), then the trace's bytes.
    fn digest<'a>(
        &self,
        classifications: impl IntoIterator<Item = &'a Classification<Vector>>,
        m: NetMetrics,
    ) -> u64 {
        let run = Digest::run(classifications, |d, s: &Vector| d.f64s(s.as_slice()), m);
        let lines = self.0.lock().expect("trace buffer lock");
        let mut digest = Digest(run);
        digest.word(lines.len() as u64);
        digest.bytes(lines.as_bytes());
        digest.0
    }
}

/// A traced k = 2 centroid `RoundSim` with byte accounting, run for 30
/// rounds; returns the run's digest and its counters.
fn traced_roundsim_digest(topo: Topology, cfg: GossipConfig) -> (u64, NetMetrics) {
    let n = topo.len();
    let (values, _labels) = sample_mixture(n, &figure2_components(), 0xF162);
    let inst = Arc::new(CentroidInstance::new(2).expect("k > 0"));
    let (tracer, trace) = JsonlBuffer::tracer();
    let mut sim = RoundSim::new(topo, inst, &values, &cfg)
        .with_byte_accounting()
        .with_tracer(tracer);
    sim.run_rounds(30);
    let m = sim.metrics();
    let every_node = (0..n).map(|i| sim.classification_of(i));
    (trace.digest(every_node, m), m)
}

#[test]
fn traced_ring_roundsim_with_per_round_crashes_matches_the_recorded_digest() {
    let cfg = GossipConfig {
        seed: 12,
        pattern: GossipPattern::PushPull,
        crash: CrashModel::per_round(0.02),
        ..GossipConfig::default()
    };
    let (digest, m) = traced_roundsim_digest(Topology::ring(48), cfg);
    assert!(m.crashes > 0 && m.messages_dropped > 0, "{m}");
    check(
        "traced ring RoundSim with per-round crashes",
        digest,
        RING_PER_ROUND_CRASH_DIGEST,
    );
}

#[test]
fn traced_roundsim_with_scheduled_crashes_matches_the_recorded_digest() {
    let cfg = GossipConfig {
        seed: 12,
        selector: SelectorKind::RoundRobin,
        crash: CrashModel::Scheduled(vec![(0, 3), (4, 17), (4, 18), (11, 0), (11, 99)]),
        failure_detector: false,
        ..GossipConfig::default()
    };
    let (digest, m) = traced_roundsim_digest(Topology::complete(40), cfg);
    assert_eq!(m.crashes, 4, "{m}");
    assert!(m.messages_dropped > 0, "{m}");
    check(
        "traced RoundSim with scheduled crashes",
        digest,
        SCHEDULED_CRASH_DIGEST,
    );
}

#[test]
fn traced_asyncsim_with_crash_rate_matches_the_recorded_digest() {
    let n = 36;
    let (values, cfg) = fig2_inputs(n, SelectorKind::UniformRandom);
    let inst = Arc::new(CentroidInstance::new(2).expect("k > 0"));
    let (tracer, trace) = JsonlBuffer::tracer();
    let delay = DelayModel::Exponential { mean: 1.5 };
    let mut sim =
        AsyncSim::with_crash_rate(Topology::grid(6, 6), inst, &values, &cfg, delay, Some(0.01))
            .with_byte_accounting()
            .with_tracer(tracer);
    sim.run_until(30.0);
    sim.drain_in_flight();
    let m = sim.metrics();
    assert!(m.crashes > 0 && m.messages_dropped > 0, "{m}");
    assert_eq!(m.in_flight(), 0, "{m}");
    check(
        "traced AsyncSim with a crash rate",
        trace.digest(sim.classifications(), m),
        ASYNC_CRASH_RATE_DIGEST,
    );
}
