//! Offline replay runs in bounded memory.
//!
//! This file holds a single test, so the process's peak resident memory
//! (`VmHWM` in `/proc/self/status`) measures that test alone. It writes a
//! traced centroid `RoundSim` (n = 1,000, complete graph) to a JSONL file,
//! reads it back as text, resets the peak, and lets all four reports
//! replay the text while every finished report stays alive, as the
//! benchmark's `trace_replay` workload does. It then bounds how far the
//! peak rose above the resident memory before the replay.
//!
//! Measured on a 2-vCPU x86-64 Linux VM (a 3.4 MiB trace of 40,040
//! events), release and debug alike: the peak rose 76.5 MiB when each
//! report parsed the whole text into events and kept a dense histogram
//! per link, and 16.4 MiB with the reports as one-pass folds. The bound,
//! 40 MiB, sits between the two.
//!
//! Linux only: elsewhere the test returns without checking.

use std::sync::Arc;

use distclass::core::CentroidInstance;
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{
    AnalyzeOptions, ByzReport, CausalReport, DynOptions, DynReport, JsonlSink, TraceReport,
    TraceSink, Tracer,
};

const NODES: usize = 1000;
const ROUNDS: u64 = 20;
/// Allowed rise of the peak over the pre-replay resident set, in KiB.
const BOUND_KIB: u64 = 40 * 1024;

/// A `kB` line of `/proc/self/status`.
fn status_kib(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {key} in /proc/self/status"))
}

/// The trace as JSONL text, written through the file sink and read back.
fn trace_text() -> String {
    let path = std::env::temp_dir().join(format!("distclass-replay-{}.jsonl", std::process::id()));
    let sink = Arc::new(JsonlSink::create(&path).expect("create the trace file"));
    let values: Vec<Vector> = (0..NODES)
        .map(|i| Vector::from(vec![(i % 7) as f64, (i % 5) as f64]))
        .collect();
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let mut sim = RoundSim::new(
        Topology::complete(NODES),
        inst,
        &values,
        &GossipConfig::default(),
    )
    .with_tracer(Tracer::new(Arc::clone(&sink) as _));
    sim.run_rounds(ROUNDS);
    drop(sim);
    sink.flush().expect("flush the trace");
    drop(sink);
    let text = std::fs::read_to_string(&path).expect("read the trace back");
    let _ = std::fs::remove_file(&path);
    text
}

#[test]
fn four_reports_replay_a_trace_in_bounded_memory() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let text = trace_text();
    let before = status_kib("VmRSS");
    // Writing 5 resets VmHWM to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the peak resident set");

    let opts = AnalyzeOptions::default();
    let trace = TraceReport::from_jsonl(&text, &opts).expect("trace report");
    let causal = CausalReport::from_jsonl(&text, &opts).expect("causal report");
    let byz = ByzReport::from_jsonl(&text).expect("byz report");
    let dynr = DynReport::from_jsonl(&text, &DynOptions::default()).expect("dyn report");
    let growth = status_kib("VmHWM").saturating_sub(before);

    assert!(trace.clean(), "{trace}");
    assert!(causal.clean(), "{causal}");
    assert_eq!(trace.events, causal.events);
    assert_eq!((byz.events, dynr.events), (trace.events, trace.events));
    assert_eq!(causal.influence.nodes, NODES);
    eprintln!(
        "replaying {} KiB of trace ({} events) raised the peak by {growth} KiB",
        text.len() / 1024,
        trace.events
    );
    assert!(
        growth <= BOUND_KIB,
        "replay raised the peak resident set by {growth} KiB (bound {BOUND_KIB} KiB)"
    );
}
