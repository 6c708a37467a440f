//! End-to-end phase-profiler checks over the chaos matrix: on every
//! seed, the snapshot taken at quiesce must satisfy the accounting
//! identities exactly (per-thread `busy == Σ self`, `busy + idle_wait ==
//! lifetime`), the `distclass_phase_us` registry families must reconcile
//! against the profile tree to the microsecond, and the collapsed-stack
//! export must round-trip through its parser.
//!
//! Each scenario sweeps a seed matrix; set `DISTCLASS_CHAOS_SEEDS` to a
//! comma-separated list (e.g. `DISTCLASS_CHAOS_SEEDS=3` in a CI matrix
//! job) to override the default.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{
    MetricValue, Metrics, MetricsRegistry, Phase, ProfileReport, Profiler, ProfilerCore,
};
use distclass::runtime::{
    run_cluster_with_faults, ChannelNet, ClusterConfig, ClusterReport, FaultPlan,
};

fn seeds() -> Vec<u64> {
    match std::env::var("DISTCLASS_CHAOS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("DISTCLASS_CHAOS_SEEDS: bad seed"))
            .collect(),
        Err(_) => (1..=4).collect(),
    }
}

fn two_site_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

/// A chaos run (partition-heal plus a crash–restart) with the profiler
/// attached — respawns exercise the label-dedup path too.
fn profiled_run(
    seed: u64,
) -> (
    ClusterReport<Vector>,
    Arc<ProfilerCore>,
    Arc<MetricsRegistry>,
) {
    const N: usize = 6;
    let registry = Arc::new(MetricsRegistry::new());
    let core = Arc::new(ProfilerCore::with_metrics(Metrics::new(Arc::clone(
        &registry,
    ))));
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed,
        audit: true,
        metrics: Metrics::new(Arc::clone(&registry)),
        profiler: Profiler::new(Arc::clone(&core)),
        ..ClusterConfig::default()
    };
    let plan = FaultPlan::new(seed)
        .partition(
            Duration::from_millis(100),
            Duration::from_millis(250),
            (0..N / 2).collect(),
        )
        .crash_restart(
            Duration::from_millis(150),
            (seed % N as u64) as usize,
            Duration::from_millis(100),
        );
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let report = run_cluster_with_faults(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        ChannelNet::new(N),
        &plan,
        &config,
    );
    (report, core, registry)
}

/// The tentpole acceptance check: on every seed of the matrix the
/// quiesce-time snapshot is anomaly-free — every thread finalized with
/// no unclosed spans, and both identities hold exactly by construction.
#[test]
fn profile_identities_hold_on_every_chaos_seed() {
    for seed in seeds() {
        let (report, _core, _registry) = profiled_run(seed);
        assert!(report.converged, "seed {seed}: did not converge");
        let profile = report.profile.as_ref().expect("profiler was attached");
        assert!(
            profile.clean(),
            "seed {seed}: profile anomalies: {:?}",
            profile.anomalies()
        );
        for t in &profile.threads {
            let top_sum: u64 = t
                .spans
                .iter()
                .filter(|s| s.path.len() == 1)
                .map(|s| s.total_ns)
                .sum();
            assert_eq!(
                t.busy_ns + t.idle_wait_ns,
                t.lifetime_ns,
                "seed {seed}, thread {}: lifetime identity",
                t.label
            );
            assert_eq!(
                top_sum + t.residual_ns,
                t.lifetime_ns,
                "seed {seed}, thread {}: span tree covers the lifetime",
                t.label
            );
        }
        // The respawned incarnation registers under a deduped label.
        let victim = (seed % 6) as usize;
        let respawn = format!("peer{victim}#1");
        assert!(
            profile.threads.iter().any(|t| t.label == respawn),
            "seed {seed}: respawned incarnation {respawn} missing from {:?}",
            profile.threads.iter().map(|t| &t.label).collect::<Vec<_>>()
        );
    }
}

/// Registry reconciliation: for every (thread, phase) series in the
/// `distclass_phase_us` family, the histogram's count and sum equal the
/// profile tree's aggregate for that thread and phase — same
/// measurement, two views, zero drift.
#[test]
fn phase_histograms_reconcile_with_profile_tree_exactly() {
    for seed in seeds() {
        let (report, _core, registry) = profiled_run(seed);
        let profile = report.profile.as_ref().expect("profiler was attached");
        let mut expected: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for t in &profile.threads {
            for p in &t.phases {
                expected.insert(
                    (t.label.clone(), p.phase.as_str().to_string()),
                    (p.count, p.total_us),
                );
            }
        }
        let snap = registry.snapshot();
        let fam = snap
            .families
            .iter()
            .find(|f| f.name == "distclass_phase_us")
            .expect("phase family registered");
        let mut seen = 0usize;
        for series in &fam.series {
            let get = |key: &str| {
                series
                    .labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .expect("labelled series")
            };
            let key = (get("thread"), get("phase"));
            let MetricValue::Histogram(h) = &series.value else {
                panic!("phase series is not a histogram");
            };
            let (count, total_us) = expected
                .get(&key)
                .unwrap_or_else(|| panic!("seed {seed}: registry has extra series {key:?}"));
            assert_eq!(h.count, *count, "seed {seed}: count mismatch for {key:?}");
            assert_eq!(h.sum, *total_us, "seed {seed}: µs sum mismatch for {key:?}");
            seen += 1;
        }
        assert_eq!(
            seen,
            expected.len(),
            "seed {seed}: every profile phase appears in the registry"
        );
    }
}

/// The collapsed-stack export round-trips through its parser, covers
/// every thread, and sums to ≈ the cluster's total thread lifetime
/// (each line carries self-µs; the residual is folded into idle_wait).
#[test]
fn collapsed_stacks_round_trip_and_cover_lifetimes() {
    let (report, _core, _registry) = profiled_run(1);
    let profile = report.profile.as_ref().expect("profiler was attached");
    let text = profile.to_collapsed();
    assert!(!text.is_empty(), "collapsed export is non-empty");
    let parsed = ProfileReport::parse_collapsed(&text).expect("parses back");
    assert_eq!(parsed, profile.collapsed_stacks(), "lossless round trip");
    for t in &profile.threads {
        let total_us: u64 = parsed
            .iter()
            .filter(|s| s.thread == t.label)
            .map(|s| s.self_us)
            .sum();
        let lifetime_us = t.lifetime_ns / 1_000;
        // Each span instance loses < 1 µs to flooring, so the folded
        // total can undershoot the lifetime by at most one µs per
        // recorded span (+1 for the lifetime's own flooring).
        let max_loss = t.spans.iter().map(|s| s.count).sum::<u64>() + 1;
        assert!(
            total_us <= lifetime_us && lifetime_us - total_us <= max_loss,
            "thread {}: folded {total_us} µs vs lifetime {lifetime_us} µs (allowed loss {max_loss})",
            t.label
        );
    }
    // Every line mentions a known phase taxonomy entry.
    for stack in &parsed {
        for p in &stack.path {
            assert!(Phase::ALL.contains(p));
        }
    }
}
