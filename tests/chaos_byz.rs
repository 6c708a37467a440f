//! Combined chaos + Byzantine sweeps: scripted crash–restarts,
//! partitions, and duplication/reordering faults running *concurrently*
//! with a colluding cartel, so the defense has to tell infrastructure
//! failure apart from malice. An honest node that restarts mid-audit
//! must never eat a strike (its new incarnation voids the probe), and a
//! cartel member must not hide behind the churn.
//!
//! Each scenario sweeps a seed matrix on the virtual-time driver
//! (`run_sim_cluster`), so each seed replays exactly; set
//! `DISTCLASS_CHAOS_BYZ_SEEDS` to a comma-separated list to override the
//! default eight seeds.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{sweep, two_site_values};
use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::{NodeId, Topology};
use distclass::obs::{ByzReport, RingSink, TraceEvent, Tracer};
use distclass::runtime::{
    run_sim_cluster, AdversaryPlan, ClusterConfig, ClusterReport, DefenseConfig, FaultPlan,
    NodeOutcome,
};

const SEEDS: &str = "DISTCLASS_CHAOS_BYZ_SEEDS";

/// Runs the cluster under both a fault schedule and an adversary plan,
/// capturing the trace for offline replay.
fn run_traced(
    n: usize,
    seed: u64,
    plan: AdversaryPlan,
    faults: &FaultPlan,
) -> (ClusterReport<Vector>, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 20));
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-6,
        stable_window: Duration::from_millis(150),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed,
        audit: true,
        tracer: Tracer::new(Arc::clone(&sink) as _),
        adversaries: Some(Arc::new(plan)),
        defense: Some(DefenseConfig::default()),
        ..ClusterConfig::default()
    };
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let report = run_sim_cluster(
        &Topology::complete(n),
        inst,
        &two_site_values(n),
        faults,
        &config,
    );
    (report, sink.events())
}

/// The full combined contract: exactly the cast convicted (no honest
/// node swept up by the churn), honest nodes converged to agreeing
/// centroids, the books balanced to the grain, and the offline replay
/// confirming 100% detection with zero false positives.
fn assert_defended_through_chaos(
    report: &ClusterReport<Vector>,
    events: &[TraceEvent],
    adversaries: &[usize],
    label: &str,
) {
    assert_eq!(
        report.convicted, adversaries,
        "{label}: convicted set must be exactly the cast"
    );
    assert!(report.converged, "{label}: honest nodes did not converge");
    assert!(report.drained, "{label}: cluster did not drain");
    let audit = report.audit.as_ref().expect("audit was requested");
    assert!(audit.ok(), "{label}: audit failed\n{audit}");

    // Honest centroid agreement, checked directly against the final
    // classifications rather than trusting the dispersion figure.
    let honest: Vec<_> = report
        .nodes
        .iter()
        .filter(|r| r.outcome == NodeOutcome::Completed && !report.convicted.contains(&r.id))
        .collect();
    assert!(honest.len() >= 2, "{label}: too few honest survivors");
    let reference = &honest[0].classification;
    for node in &honest[1..] {
        assert_eq!(
            node.classification.len(),
            reference.len(),
            "{label}: node {} disagrees on collection count",
            node.id
        );
        for c in node.classification.iter() {
            let nearest = reference
                .iter()
                .map(|r| r.summary.distance(&c.summary))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest < 1e-3,
                "{label}: node {} centroid {} is {nearest} from consensus",
                node.id,
                c.summary
            );
        }
    }

    let byz = ByzReport::from_events(events);
    assert!(
        byz.clean(),
        "{label}: the byz report raised anomalies: {:?}",
        byz.anomalies
    );
    assert_eq!(byz.detection_rate(), 1.0, "{label}");
    assert_eq!(byz.false_positive_rate(), 0.0, "{label}");
    assert_eq!(
        byz.summary,
        Some((audit.minted_grains, audit.rejected_frames as u64)),
        "{label}: byz_summary must mirror the grain auditor"
    );
}

/// An honest node crash–restarts while a cartel is lying about its
/// centroids. The restart voids any probe in flight against the victim
/// (a new incarnation is a new seq namespace), so the churn produces
/// zero false strikes while the cartel is still fully convicted.
#[test]
fn crash_restart_during_cartel_attack_convicts_only_the_cartel() {
    const N: usize = 12;
    let adversaries = [4usize, 9];
    let name = "crash_restart_during_cartel_attack_convicts_only_the_cartel";
    sweep(SEEDS, 1..=8, name, |seed| {
        // A seed-dependent *honest* crash victim, so the sweep exercises
        // restarts of different auditors/audit targets.
        let honest: Vec<NodeId> = (0..N).filter(|i| !adversaries.contains(i)).collect();
        let victim = honest[seed as usize % honest.len()];
        let faults = FaultPlan::new(seed).crash_restart(
            Duration::from_millis(150),
            victim,
            Duration::from_millis(100),
        );
        let plan = AdversaryPlan::new(seed)
            .cartel(&adversaries, 1.2)
            .sigma(1.0);
        let (report, events) = run_traced(N, seed, plan, &faults);
        let label = format!("crash+cartel seed {seed} (victim {victim})");
        assert_eq!(
            report.nodes[victim].restarts, 1,
            "{label}: the victim was not respawned"
        );
        assert_defended_through_chaos(&report, &events, &adversaries, &label);
    });
}

/// The cluster partitions in half with one cartel member on each side,
/// then heals. Probes that cross the cut simply expire (silence is
/// never evidence), audits inside each island keep collecting strikes,
/// and after the heal both liars end up convicted everywhere.
#[test]
fn partition_with_a_liar_on_each_side_still_convicts_both() {
    const N: usize = 12;
    let adversaries = [4usize, 9];
    let name = "partition_with_a_liar_on_each_side_still_convicts_both";
    sweep(SEEDS, 1..=8, name, |seed| {
        let faults = FaultPlan::new(seed).partition(
            Duration::from_millis(100),
            Duration::from_millis(300),
            (0..N / 2).collect(), // 4 on the left, 9 on the right
        );
        let plan = AdversaryPlan::new(seed)
            .cartel(&adversaries, 1.2)
            .sigma(1.0);
        let (report, events) = run_traced(N, seed, plan, &faults);
        assert_defended_through_chaos(
            &report,
            &events,
            &adversaries,
            &format!("partition+cartel seed {seed}"),
        );
    });
}

/// Duplication and reordering on top of the cartel: replayed corrupted
/// frames are deduplicated rather than double-counted as evidence, and
/// the seq-keyed attestation ring is immune to delivery order, so the
/// verdict is byte-for-byte the same contract as on a clean network.
#[test]
fn dup_and_reorder_do_not_confuse_the_audit() {
    const N: usize = 12;
    let adversaries = [4usize, 9];
    let name = "dup_and_reorder_do_not_confuse_the_audit";
    sweep(SEEDS, 1..=8, name, |seed| {
        let faults = FaultPlan::new(seed).duplicate(0.10).reorder(0.15).delay(
            0.2,
            Duration::from_millis(1),
            Duration::from_millis(3),
        );
        let plan = AdversaryPlan::new(seed)
            .cartel(&adversaries, 1.2)
            .sigma(1.0);
        let (report, events) = run_traced(N, seed, plan, &faults);
        let label = format!("dup+reorder+cartel seed {seed}");
        assert_defended_through_chaos(&report, &events, &adversaries, &label);
        let dups = report.total_metrics().duplicates;
        assert!(dups > 0, "{label}: plan injected nothing");
    });
}
