//! The trace layer's accounting must agree with the grain-conservation
//! auditor: replaying a run's `GrainDelta`/`GrainsVoided` events
//! reconciles every peer's final holdings to the grain, both in-process
//! (RingSink) and through the CLI's `--trace` JSONL file.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{GrainOp, RingSink, TraceEvent, Tracer};
use distclass::runtime::{run_cluster_with_faults, ChannelNet, ClusterConfig, FaultPlan};

fn two_site_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

/// Per-node grain balance replayed from a trace: for every node,
///
/// `final = initial/n + Σ deltas(merge + return − split)
///                    − Σ voided(merged + returned − split)`
///
/// `GrainDelta` events are emitted live, including by incarnations whose
/// log batches the supervisor later rolls back; `GrainsVoided` carries
/// exactly those rolled-back sums, so subtracting them recovers the
/// durable ledger the auditor certifies.
#[derive(Default)]
struct Balance {
    deltas: i128,
    voided: i128,
}

fn reconcile(events: &[TraceEvent]) -> (u64, usize, HashMap<usize, Balance>) {
    let (mut initial_total, mut nodes) = (0u64, 0usize);
    let mut balances: HashMap<usize, Balance> = HashMap::new();
    for ev in events {
        match ev {
            TraceEvent::ClusterStarted {
                nodes: n,
                initial_grains,
            } => {
                nodes = *n;
                initial_total = *initial_grains;
            }
            TraceEvent::GrainDelta {
                node, op, grains, ..
            } => {
                let signed = match op {
                    GrainOp::Merge | GrainOp::Return => *grains as i128,
                    GrainOp::Split => -(*grains as i128),
                };
                balances.entry(*node).or_default().deltas += signed;
            }
            TraceEvent::GrainsVoided {
                node,
                split,
                merged,
                returned,
                ..
            } => {
                balances.entry(*node).or_default().voided +=
                    *merged as i128 + *returned as i128 - *split as i128;
            }
            _ => {}
        }
    }
    (initial_total, nodes, balances)
}

fn assert_trace_reconciles(events: &[TraceEvent], label: &str) {
    let (initial_total, nodes, balances) = reconcile(events);
    assert!(nodes > 0, "{label}: no cluster_started event");
    assert_eq!(
        initial_total % nodes as u64,
        0,
        "{label}: initial grains not evenly minted"
    );
    let per_node = (initial_total / nodes as u64) as i128;

    let mut finals: HashMap<usize, (String, u64)> = HashMap::new();
    for ev in events {
        if let TraceEvent::PeerFinal {
            node,
            outcome,
            grains,
        } = ev
        {
            finals.insert(*node, (outcome.clone(), *grains));
        }
    }
    assert_eq!(finals.len(), nodes, "{label}: missing peer_final events");

    for (node, (outcome, grains)) in &finals {
        // A panic without a death receipt makes the books inexact; the
        // audit_summary check below would already have caught that.
        assert_ne!(outcome, "panicked", "{label}: node {node} panicked");
        let b = balances.get(node).map(|b| b.deltas - b.voided).unwrap_or(0);
        assert_eq!(
            per_node + b,
            *grains as i128,
            "{label}: node {node} trace balance does not match its final holdings"
        );
    }

    let audit = events.iter().find_map(|ev| match ev {
        TraceEvent::AuditSummary {
            initial,
            final_grains,
            exact,
            conserved,
            ..
        } => Some((*initial, *final_grains, *exact, *conserved)),
        _ => None,
    });
    let (audit_initial, audit_final, exact, conserved) =
        audit.unwrap_or_else(|| panic!("{label}: no audit_summary event"));
    assert_eq!(audit_initial, initial_total, "{label}: audit initial");
    assert!(exact, "{label}: audit books are inexact");
    assert!(conserved, "{label}: audit says grains were not conserved");
    // The auditor's final-grain count only covers nodes alive at
    // shutdown; the trace's per-node balances must sum to the same.
    let completed: i128 = finals
        .iter()
        .filter(|(_, (outcome, _))| outcome == "completed")
        .map(|(_, (_, grains))| *grains as i128)
        .sum();
    assert_eq!(completed, audit_final as i128, "{label}: audit final");
}

fn crash_restart_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .crash_restart(Duration::from_millis(300), 2, Duration::from_millis(200))
        .crash_restart(Duration::from_millis(500), 5, Duration::from_millis(250))
}

/// In-process: a chaos run traced into a RingSink reconciles against the
/// auditor's certified report.
#[test]
fn ring_sink_trace_reconciles_with_audit() {
    const N: usize = 8;
    let sink = Arc::new(RingSink::new(200_000));
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed: 7,
        audit: true,
        tracer: Tracer::new(Arc::clone(&sink) as _),
        ..ClusterConfig::default()
    };
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let report = run_cluster_with_faults(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        ChannelNet::new(N),
        &crash_restart_plan(7),
        &config,
    );
    let audit = report.audit.as_ref().expect("audit was requested");
    assert!(audit.ok(), "audit failed\n{audit}");

    let events = sink.events();
    assert!(
        events.len() < 200_000,
        "ring filled up; reconciliation would be lossy"
    );
    assert_trace_reconciles(&events, "ring sink");

    // Cross-check the trace against the in-memory report too.
    let summary = events
        .iter()
        .find_map(|ev| match ev {
            TraceEvent::AuditSummary {
                initial,
                final_grains,
                gains,
                losses,
                ..
            } => Some((*initial, *final_grains, *gains, *losses)),
            _ => None,
        })
        .expect("audit_summary present");
    assert_eq!(summary.0, audit.initial_grains);
    assert_eq!(summary.1, audit.final_grains);
    assert_eq!(summary.2, audit.declared_gains);
    assert_eq!(summary.3, audit.declared_losses);
}

/// End to end through the binary: `run-cluster --trace` writes JSONL that
/// parses line by line back into [`TraceEvent`]s and reconciles
/// self-contained, with no access to the in-memory report.
#[test]
fn cli_trace_jsonl_reconciles() {
    let dir = std::env::temp_dir().join(format!("distclass-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args([
            "run-cluster",
            "--transport",
            "channel",
            "--n",
            "8",
            "--max-secs",
            "20",
            "--faults",
            "crash@300ms:2+200ms;crash@500ms:5+250ms",
            "--audit",
            "--trace",
            trace.to_str().expect("utf-8 path"),
            "--metrics-json",
            metrics.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("spawn distclass");
    assert!(
        out.status.success(),
        "run-cluster failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let raw = std::fs::read_to_string(&trace).expect("trace file written");
    let events: Vec<TraceEvent> = raw
        .lines()
        .map(|line| {
            TraceEvent::from_json(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"))
        })
        .collect();
    assert!(!events.is_empty(), "trace file is empty");
    assert_trace_reconciles(&events, "cli jsonl");

    let metrics_doc = std::fs::read_to_string(&metrics).expect("metrics file written");
    for key in ["\"nodes\"", "\"audit\"", "\"metrics\"", "\"total_grains\""] {
        assert!(metrics_doc.contains(key), "metrics json missing {key}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The gossip runner's tracer emits per-round telemetry alongside the
/// engine's round events, with internally consistent values.
#[test]
fn gossip_round_sim_emits_round_and_telemetry_events() {
    const N: usize = 32;
    const ROUNDS: u64 = 5;
    let sink = Arc::new(RingSink::new(4096));
    let values: Vec<Vector> = (0..N).map(|i| Vector::from([i as f64 % 4.0])).collect();
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let mut sim = RoundSim::new(
        Topology::complete(N),
        inst,
        &values,
        &GossipConfig::default(),
    )
    .with_tracer(Tracer::new(Arc::clone(&sink) as _));
    sim.run_rounds(ROUNDS);

    let events = sink.events();
    let rounds: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::RoundCompleted { round, live, .. } => Some((*round, *live)),
            _ => None,
        })
        .collect();
    assert_eq!(rounds.len(), ROUNDS as usize);
    for (i, (round, live)) in rounds.iter().enumerate() {
        // The engine reports the 0-based index of the round that just ran.
        assert_eq!(*round, i as u64);
        assert_eq!(*live, N, "no crash model, everyone stays live");
    }

    let samples: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Telemetry(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(samples.len(), ROUNDS as usize);
    for s in &samples {
        assert_eq!(s.live, N);
        assert!(s.classifications_mean >= 1.0);
        assert!(s.classifications_max as f64 >= s.classifications_mean);
        assert!(s.weight_spread.is_finite() && s.weight_spread >= 0.0);
    }
}
