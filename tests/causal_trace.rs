//! Property tests for the causal layer: Lamport clocks must be strictly
//! monotone along every causal edge — per-node program order (including
//! across crash–restart incarnation bumps) and every split→merge hop —
//! under a chaos sweep of duplication, reordering, and crash–restart.
//!
//! Each scenario sweeps a seed matrix on the virtual-time driver
//! (`run_sim_cluster`), so each seed replays exactly; set
//! `DISTCLASS_CHAOS_SEEDS` to a comma-separated list to override the
//! default eight seeds.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{sweep, two_site_values};
use distclass::core::CentroidInstance;
use distclass::net::{NodeId, Topology};
use distclass::obs::{AnalyzeOptions, CausalReport, RingSink, TraceEvent, Tracer};
use distclass::runtime::{run_sim_cluster, ClusterConfig, FaultPlan};

const SEEDS: &str = "DISTCLASS_CHAOS_SEEDS";

/// Runs an 8-peer chaos cluster (duplication + reordering + one scripted
/// crash–restart) with an in-memory trace, returning the captured events.
fn chaos_trace(seed: u64) -> Vec<TraceEvent> {
    const N: usize = 8;
    let victim = (seed % N as u64) as NodeId;
    let plan = FaultPlan::new(seed)
        .duplicate(0.05)
        .reorder(0.10)
        .crash_restart(
            Duration::from_millis(150),
            victim,
            Duration::from_millis(100),
        );
    let ring = Arc::new(RingSink::new(1 << 20));
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed,
        audit: true,
        tracer: Tracer::new(Arc::clone(&ring) as _),
        ..ClusterConfig::default()
    };
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let report = run_sim_cluster(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        &plan,
        &config,
    );
    assert!(report.converged, "seed {seed}: cluster did not converge");
    assert_eq!(
        report.nodes[victim].restarts, 1,
        "seed {seed}: node {victim} was not respawned, so the sweep never \
         crossed an incarnation boundary"
    );
    ring.events()
}

/// The core invariant: along each node's own event stream the Lamport
/// clock strictly increases — including across a crash–restart, where the
/// respawned incarnation must resume *above* every clock value any of its
/// predecessors ever emitted (no rewind).
#[test]
fn lamport_clocks_never_rewind_per_node_across_seeds() {
    let name = "lamport_clocks_never_rewind_per_node_across_seeds";
    sweep(SEEDS, 1..=8, name, |seed| {
        let events = chaos_trace(seed);
        let mut last: Vec<Option<(u64, u16)>> = vec![None; 8];
        let mut incarnations_seen = 0u32;
        for ev in &events {
            let (node, lamport, inc) = match ev {
                TraceEvent::GrainDelta {
                    node,
                    lamport: Some(l),
                    incarnation,
                    ..
                } => (*node, *l, *incarnation),
                _ => continue,
            };
            if let Some((prev, prev_inc)) = last[node] {
                assert!(
                    lamport > prev,
                    "seed {seed}: node {node} clock rewound {prev} -> {lamport} \
                     (incarnation {prev_inc} -> {inc})"
                );
                if inc != prev_inc {
                    incarnations_seen += 1;
                }
            }
            last[node] = Some((lamport, inc));
        }
        assert!(
            incarnations_seen > 0,
            "seed {seed}: no incarnation boundary was observed in the trace"
        );
    });
}

/// The cross-edge half of the invariant, checked by the offline analyzer:
/// every split→merge edge must go strictly uphill in Lamport time, the
/// happens-before DAG must be acyclic, every merge must find its minting
/// split, and grain provenance must reconcile exactly — on every seed.
#[test]
fn causal_report_is_clean_under_chaos_across_seeds() {
    let name = "causal_report_is_clean_under_chaos_across_seeds";
    sweep(SEEDS, 1..=8, name, |seed| {
        let events = chaos_trace(seed);
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(
            report.acyclic,
            "seed {seed}: happens-before DAG has a cycle\n{report}"
        );
        assert_eq!(
            report.lamport_violations, 0,
            "seed {seed}: a causal edge went downhill in Lamport time\n{report}"
        );
        assert_eq!(
            report.unmatched_parents, 0,
            "seed {seed}: a merge/return referenced a span never minted\n{report}"
        );
        assert!(
            report.provenance_exact,
            "seed {seed}: grain provenance drifted\n{report}"
        );
        assert!(report.clean(), "seed {seed}: anomalies:\n{report}");
        assert!(
            report.clock_skew < 1_000_000,
            "seed {seed}: absurd clock skew {}",
            report.clock_skew
        );
    });
}

/// A node id is untrusted input. One send to node 20,000 must not size
/// per-node state by the id: the replay comes back at once with a 2 × 2
/// influence matrix whose rows are labelled by the two ids that occur.
#[test]
fn a_huge_node_id_sizes_state_by_the_ids_that_occur() {
    let line =
        r#"{"type":"message_sent","from":0,"to":20000,"bytes":10,"at":0,"lamport":1,"seq":1}"#;
    let t0 = Instant::now();
    let report = CausalReport::from_jsonl(line, &AnalyzeOptions::default()).expect("parses");
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    assert!(report.clean(), "{report}");
    assert_eq!(report.nodes, 2);
    let influence = &report.influence;
    assert_eq!((influence.nodes, &influence.ids[..]), (2, &[0, 20_000][..]));
    assert_eq!(influence.earliest(20_000, 20_000), Some(0));
    assert!(
        !influence.reached(0, 20_000),
        "the message was never delivered"
    );
    let json = report.to_json().to_string();
    assert!(
        json.contains(r#""ids":[0,20000],"pairs_reached":2,"earliest":[[0,null],[null,0]]"#),
        "{json}"
    );
}
