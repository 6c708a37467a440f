//! End-to-end Byzantine adversary tests: scripted liars against the
//! stochastic-audit defense, with the grain auditor and the offline
//! byz replay (`ByzReport`, `report`'s byz section) checking every
//! number twice.
//!
//! The adversary model is *wire-only*: an adversary corrupts the data
//! frames it puts on the wire but keeps its internal books truthful and
//! answers audit probes honestly — a fully consistent liar would be
//! indistinguishable from an honest node with a shifted reading. The
//! defense therefore convicts on arithmetic (claimed weight beyond the
//! ingress bound) or geometry (attested state drifting from what the
//! accuser remembers receiving), never on silence.
//!
//! The sweeps run on the virtual-time driver (`run_sim_cluster`), so each
//! seed replays exactly, and honor `DISTCLASS_BYZ_SEEDS` (comma-separated)
//! so CI can sweep more seeds; the default is four.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{sweep, two_site_values};
use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{ByzReport, RingSink, TraceEvent, Tracer};
use distclass::runtime::{
    run_sim_cluster, AdversaryPlan, ClusterConfig, ClusterReport, DefenseConfig, FaultPlan,
    NodeOutcome,
};

const SEEDS: &str = "DISTCLASS_BYZ_SEEDS";

fn byz_config(seed: u64, plan: AdversaryPlan, sink: &Arc<RingSink>) -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-6,
        stable_window: Duration::from_millis(150),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed,
        audit: true,
        tracer: Tracer::new(Arc::clone(sink) as _),
        adversaries: Some(Arc::new(plan)),
        defense: Some(DefenseConfig::default()),
        ..ClusterConfig::default()
    }
}

/// Runs the cluster with a ring sink and returns the report plus the
/// captured trace, so assertions can replay it offline.
fn run_traced(
    n: usize,
    seed: u64,
    plan: AdversaryPlan,
) -> (ClusterReport<Vector>, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 20));
    let config = byz_config(seed, plan, &sink);
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let values = two_site_values(n);
    let faults = FaultPlan::new(seed);
    let report = run_sim_cluster(&Topology::complete(n), inst, &values, &faults, &config);
    (report, sink.events())
}

/// Every scripted adversary convicted, no honest node convicted, honest
/// nodes converged and drained, the auditor's books balanced — and the
/// offline replay agreeing with all of it.
fn assert_defended(
    report: &ClusterReport<Vector>,
    events: &[TraceEvent],
    adversaries: &[usize],
    label: &str,
) -> ByzReport {
    assert_eq!(
        report.convicted, adversaries,
        "{label}: convicted set must be exactly the cast"
    );
    assert!(report.converged, "{label}: honest nodes did not converge");
    assert!(report.drained, "{label}: cluster did not drain");
    for r in &report.nodes {
        assert_eq!(
            r.outcome,
            NodeOutcome::Completed,
            "{label}: node {} did not complete",
            r.id
        );
    }
    let audit = report.audit.as_ref().expect("audit was requested");
    assert!(audit.ok(), "{label}: audit failed\n{audit}");

    let byz = ByzReport::from_events(events);
    assert!(
        byz.clean(),
        "{label}: the byz report raised anomalies: {:?}",
        byz.anomalies
    );
    assert_eq!(byz.detection_rate(), 1.0, "{label}");
    assert_eq!(byz.false_positive_rate(), 0.0, "{label}");
    let mut convicted: Vec<usize> = byz.convictions.iter().map(|c| c.node).collect();
    convicted.sort_unstable();
    assert_eq!(convicted, report.convicted, "{label}: trace vs supervisor");
    assert_eq!(
        byz.summary,
        Some((audit.minted_grains, audit.rejected_frames as u64)),
        "{label}: byz_summary must mirror the grain auditor"
    );
    byz
}

/// The flagship acceptance scenario: a 20-node cluster with a 10%
/// colluding cartel whose shifts stay *inside* the robust-merge outlier
/// bound (1.2σ < 1.5σ), so only the stochastic audit can catch them.
/// Every cartel member is convicted, no honest node is, the honest
/// cluster converges, and the books balance to the grain.
#[test]
fn ten_percent_cartel_is_fully_convicted_with_zero_false_positives() {
    const N: usize = 20;
    let name = "ten_percent_cartel_is_fully_convicted_with_zero_false_positives";
    sweep(SEEDS, 1..=4, name, |seed| {
        let adversaries = [4usize, 13];
        let plan = AdversaryPlan::new(seed)
            .cartel(&adversaries, 1.2)
            .sigma(1.0);
        let (report, events) = run_traced(N, seed, plan);
        let byz = assert_defended(
            &report,
            &events,
            &adversaries,
            &format!("cartel seed {seed}"),
        );
        // Cartel members lie about *where*, not *how much*: any frames
        // rejected are post-conviction quarantine, never minted weight.
        let audit = report.audit.as_ref().unwrap();
        assert_eq!(
            audit.minted_grains, 0,
            "cartel seed {seed}: a location shift must not mint weight"
        );
        assert!(
            byz.failed_verdicts >= 2,
            "cartel seed {seed}: convictions must come from audit evidence"
        );
    });
}

/// A grain minter inflates the weight of every frame it sends. The
/// ingress screen rejects the very first such frame (the claim exceeds
/// the bound), strikes convict the minter, and the auditor measures the
/// minted weight *exactly* while keeping conservation over true grains.
#[test]
fn minted_weight_is_screened_convicted_and_measured_exactly() {
    const N: usize = 12;
    let name = "minted_weight_is_screened_convicted_and_measured_exactly";
    sweep(SEEDS, 1..=4, name, |seed| {
        let adversaries = [5usize];
        let plan = AdversaryPlan::new(seed).mint(&adversaries, 16);
        let (report, events) = run_traced(N, seed, plan);
        let byz = assert_defended(&report, &events, &adversaries, &format!("mint seed {seed}"));
        let audit = report.audit.as_ref().unwrap();
        assert!(
            audit.rejected_frames > 0,
            "mint seed {seed}: no frame was screened\n{audit}"
        );
        assert!(
            audit.minted_grains > 0,
            "mint seed {seed}: the mint went unmeasured\n{audit}"
        );
        // The screen rejects the whole frame, so its true grains are a
        // declared loss; conservation holds over what actually exists.
        assert!(
            audit.declared_losses > 0,
            "mint seed {seed}: rejected true grains must be declared\n{audit}"
        );
        let minted_rejections = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FrameRejected { reason, .. } if reason == "minted"))
            .count();
        assert!(
            minted_rejections > 0,
            "mint seed {seed}: no minted rejection traced"
        );
        assert!(byz.rejections.contains_key(&5), "mint seed {seed}");
    });
}

/// The CI adversary matrix: every attack kind, across the seed sweep,
/// must end in 100% detection with zero false positives.
#[test]
fn adversary_matrix_detects_every_attack_kind_across_seeds() {
    const N: usize = 12;
    let name = "adversary_matrix_detects_every_attack_kind_across_seeds";
    sweep(SEEDS, 1..=4, name, |seed| {
        for kind in ["mint", "poison", "cartel"] {
            let adversaries = [3usize, 9];
            let plan = match kind {
                "mint" => AdversaryPlan::new(seed).mint(&adversaries, 16),
                "poison" => AdversaryPlan::new(seed).poison(&adversaries, 1.2),
                _ => AdversaryPlan::new(seed).cartel(&adversaries, 1.2),
            };
            let (report, events) = run_traced(N, seed, plan);
            assert_defended(
                &report,
                &events,
                &adversaries,
                &format!("{kind} seed {seed}"),
            );
        }
    });
}

/// With the defense disabled the same cartel goes entirely unconvicted —
/// and the offline replay says so loudly instead of reporting a
/// meaningless 0% detection as clean.
#[test]
fn undefended_run_is_flagged_not_silently_passed() {
    const N: usize = 12;
    let name = "undefended_run_is_flagged_not_silently_passed";
    sweep(SEEDS, 7..=7, name, |seed| {
        let sink = Arc::new(RingSink::new(1 << 20));
        let plan = AdversaryPlan::new(seed).cartel(&[2, 8], 1.2);
        let config = ClusterConfig {
            defense: None,
            // An unconvicted cartel keeps dragging honest books, so the
            // run may legitimately never converge — don't wait long for
            // it.
            max_wall: Duration::from_secs(5),
            ..byz_config(seed, plan, &sink)
        };
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        let values = two_site_values(N);
        let faults = FaultPlan::new(seed);
        let report = run_sim_cluster(&Topology::complete(N), inst, &values, &faults, &config);
        assert!(
            report.convicted.is_empty(),
            "nobody convicts without a defense"
        );
        let byz = ByzReport::from_events(&sink.events());
        assert!(
            !byz.clean(),
            "an undefended adversarial run must not gate-pass"
        );
        assert_eq!(byz.detection_rate(), 0.0);
    });
}

/// Determinism: the same adversary spec and seed produce identical
/// digests; a different seed diverges (the collusion direction is part
/// of the schedule).
#[test]
fn adversary_plans_are_deterministic_in_spec_and_seed() {
    let spec = "cartel@1,5:shift=1.2; mint@3:units=16; sigma=2";
    let a = AdversaryPlan::parse(spec, 17).expect("spec parses");
    let b = AdversaryPlan::parse(spec, 17).expect("spec parses");
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    let c = AdversaryPlan::parse(spec, 18).expect("spec parses");
    assert_ne!(a.digest(), c.digest(), "seed must be part of the schedule");
}
