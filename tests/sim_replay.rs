//! Replay: a run of the virtual-time cluster driver (`run_sim_cluster`)
//! is a function of its inputs and seeds. Two runs with one seed write
//! byte-identical JSONL traces and equal reports, and another seed gives
//! another run — under crash–restart, a partition, duplication with
//! reordering and delay, a colluding cartel, and drift plus churn.
//!
//! Seeds come from `DISTCLASS_CHAOS_SEEDS` (default: 3).

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{sweep, two_site_values};
use distclass::core::CentroidInstance;
use distclass::net::Topology;
use distclass::obs::{JsonlSink, Tracer};
use distclass::runtime::{
    run_sim_cluster, AdversaryPlan, ChurnPlan, ClusterConfig, DefenseConfig, DriftSchedule,
    FaultPlan,
};

const SEEDS: &str = "DISTCLASS_CHAOS_SEEDS";

fn base(seed: u64) -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-6,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed,
        audit: true,
        ..ClusterConfig::default()
    }
}

/// One run of scenario `name` with `seed`: its report (as `Debug` text)
/// and the bytes of its JSONL trace.
fn run(name: &str, n: usize, plan: &FaultPlan, config: ClusterConfig) -> (String, Vec<u8>) {
    let seed = config.seed;
    let path = std::env::temp_dir().join(format!(
        "distclass-replay-{}-{name}-{seed}-{}.jsonl",
        std::process::id(),
        plan.digest()
    ));
    let sink = Arc::new(JsonlSink::create(&path).expect("create the trace file"));
    let config = ClusterConfig {
        tracer: Tracer::new(sink),
        ..config
    };
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let report = run_sim_cluster(
        &Topology::complete(n),
        inst,
        &two_site_values(n),
        plan,
        &config,
    );
    drop(config);
    let trace = std::fs::read(&path).expect("read the trace back");
    std::fs::remove_file(&path).ok();
    assert!(report.converged, "{name} seed {seed}: did not converge");
    (format!("{report:?}"), trace)
}

/// Runs the scenario twice with `seed` and once with the next seed.
fn assert_replays(
    name: &str,
    n: usize,
    seed: u64,
    setup: impl Fn(u64) -> (FaultPlan, ClusterConfig),
) {
    let (plan, config) = setup(seed);
    let (report_a, trace_a) = run(name, n, &plan, config.clone());
    let (report_b, trace_b) = run(name, n, &plan, config);
    assert!(!trace_a.is_empty(), "{name} seed {seed}: empty trace");
    assert!(
        trace_a == trace_b,
        "{name} seed {seed}: two runs wrote different traces"
    );
    assert_eq!(report_a, report_b, "{name} seed {seed}: reports differ");
    let (plan, config) = setup(seed + 1);
    let (_, trace_c) = run(name, n, &plan, config);
    assert!(
        trace_a != trace_c,
        "{name} seed {seed}: the next seed replayed the same trace"
    );
}

#[test]
fn crash_restart_replays_from_its_seed() {
    sweep(
        SEEDS,
        3..=3,
        "crash_restart_replays_from_its_seed",
        |seed| {
            assert_replays("crash-restart", 8, seed, |s| {
                let victim = (s % 8) as usize;
                let downtime = Duration::from_millis(100);
                let plan =
                    FaultPlan::new(s).crash_restart(Duration::from_millis(150), victim, downtime);
                (plan, base(s))
            });
        },
    );
}

#[test]
fn partition_replays_from_its_seed() {
    sweep(SEEDS, 3..=3, "partition_replays_from_its_seed", |seed| {
        assert_replays("partition", 8, seed, |s| {
            let (from, until) = (Duration::from_millis(100), Duration::from_millis(300));
            (
                FaultPlan::new(s).partition(from, until, (0..4).collect()),
                base(s),
            )
        });
    });
}

#[test]
fn dup_reorder_and_delay_replay_from_their_seed() {
    sweep(
        SEEDS,
        3..=3,
        "dup_reorder_and_delay_replay_from_their_seed",
        |seed| {
            assert_replays("dup-reorder-delay", 8, seed, |s| {
                let (min, max) = (Duration::from_millis(1), Duration::from_millis(3));
                let plan = FaultPlan::new(s)
                    .duplicate(0.10)
                    .reorder(0.15)
                    .delay(0.2, min, max);
                (plan, base(s))
            });
        },
    );
}

#[test]
fn cartel_replays_from_its_seed() {
    sweep(SEEDS, 3..=3, "cartel_replays_from_its_seed", |seed| {
        assert_replays("cartel", 12, seed, |s| {
            let cartel = AdversaryPlan::new(s).cartel(&[4, 9], 1.2).sigma(1.0);
            let config = ClusterConfig {
                adversaries: Some(Arc::new(cartel)),
                defense: Some(DefenseConfig::default()),
                stable_window: Duration::from_millis(150),
                ..base(s)
            };
            (FaultPlan::new(s), config)
        });
    });
}

#[test]
fn drift_and_churn_replay_from_their_seed() {
    sweep(
        SEEDS,
        3..=3,
        "drift_and_churn_replay_from_their_seed",
        |seed| {
            assert_replays("drift-churn", 8, seed, |s| {
                let drift = DriftSchedule::parse("step@300ms:0-3=9.0,9.0", s).expect("drift spec");
                let churn =
                    ChurnPlan::parse("join@250ms:8=4.0,4.0;leave@450ms:2", s).expect("churn spec");
                let config = ClusterConfig {
                    drift: Some(Arc::new(drift)),
                    churn: Some(Arc::new(churn)),
                    stable_window: Duration::from_millis(150),
                    ..base(s)
                };
                (FaultPlan::new(s), config)
            });
        },
    );
}
