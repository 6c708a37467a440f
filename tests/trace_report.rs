//! The offline trace analyzer (`obs::analyze`, the trace section of the
//! `report` CLI subcommand) must reach the same verdict as the live grain
//! auditor: replaying a chaos run's trace reconciles every peer ledger to
//! the grain (drift 0), and the CLI exit code encodes clean vs anomalous.
//! `report` prints the four offline reports exactly as the library
//! renders them, and no command dies when its reader closes stdout.

use std::sync::Arc;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{
    prom, AnalyzeOptions, ByzReport, CausalReport, DynOptions, DynReport, Json, JsonlSink,
    RingSink, TraceReport, TraceSink, Tracer,
};
use distclass::runtime::{
    run_cluster_with_faults, run_sim_cluster, ChannelNet, ClusterConfig, DriftSchedule, FaultPlan,
};

fn two_site_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

/// In-process: the analyzer's replayed ledgers agree exactly with the
/// auditor's certified report on a crash-restart chaos run.
#[test]
fn trace_report_agrees_with_audit_on_chaos_run() {
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
    let plan = FaultPlan::new(7)
        .crash_restart(Duration::from_millis(300), 2, Duration::from_millis(200))
        .crash_restart(Duration::from_millis(500), 5, Duration::from_millis(250));
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let live = run_cluster_with_faults(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        ChannelNet::new(N),
        &plan,
        &config,
    );
    let audit = live.audit.as_ref().expect("audit was requested");

    let events = sink.events();
    assert!(events.len() < 200_000, "ring filled; replay would be lossy");
    let report = TraceReport::from_events(&events, &AnalyzeOptions::default());

    // The replayed verdict must match the live auditor's.
    assert_eq!(report.clean(), audit.ok(), "verdicts disagree\n{report}");
    assert_eq!(report.nodes, N);
    assert_eq!(report.ledgers.len(), N, "one ledger per peer");
    for ledger in &report.ledgers {
        assert_eq!(
            ledger.drift,
            Some(0),
            "node {} ledger does not reconcile\n{report}",
            ledger.node
        );
    }
    let replayed = report.audit.as_ref().expect("audit summary in trace");
    assert_eq!(replayed.initial, audit.initial_grains);
    assert_eq!(replayed.final_grains, audit.final_grains);
    assert!(replayed.exact && replayed.conserved);
    assert!(report.faults.len() >= 2, "both scripted crashes recorded");
    assert!(
        report.anomalies.is_empty(),
        "unexpected: {:?}",
        report.anomalies
    );
}

/// The rounds engine's send/deliver events yield per-link latency
/// histograms whose quantiles sit inside the observed value range.
#[test]
fn trace_report_builds_link_latencies_from_round_sim() {
    const N: usize = 16;
    let sink = Arc::new(RingSink::new(100_000));
    let values: Vec<Vector> = (0..N).map(|i| Vector::from([i as f64 % 4.0])).collect();
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let mut sim = RoundSim::new(
        Topology::complete(N),
        inst,
        &values,
        &GossipConfig::default(),
    )
    .with_tracer(Tracer::new(Arc::clone(&sink) as _));
    sim.run_rounds(6);

    let report = TraceReport::from_events(&sink.events(), &AnalyzeOptions::default());
    assert!(report.clean(), "round sim trace not clean:\n{report}");
    assert!(!report.links.is_empty(), "no link stats extracted");
    assert!(report.rounds.count >= 6);
    let delivered: u64 = report.links.iter().map(|l| l.delivered).sum();
    assert_eq!(
        delivered, report.rounds.delivered,
        "per-link deliveries sum"
    );
    for link in &report.links {
        if link.delivered == 0 {
            continue;
        }
        let (p50, p99) = (link.latency_quantile(0.5), link.latency_quantile(0.99));
        assert!(p50.is_finite() && p50 >= 0.0);
        assert!(p99 >= p50, "quantiles must be monotone");
    }
}

/// End to end through the binary: `run-cluster --trace --metrics-prom`
/// then `report` exits 0 with a CLEAN verdict and machine-readable
/// drift fields, and the Prometheus dump passes the exposition validator.
#[test]
fn cli_trace_report_clean_run_and_prom_dump() {
    let dir = std::env::temp_dir().join(format!("distclass-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.jsonl");
    let prom_out = dir.join("metrics.prom");

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
            "--metrics-prom",
            prom_out.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("spawn distclass run-cluster");
    assert!(
        out.status.success(),
        "run-cluster failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Human report: exit 0 and an explicit CLEAN verdict.
    let report = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args(["report", trace.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn distclass report");
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert_eq!(
        report.status.code(),
        Some(0),
        "report on a clean run must exit 0:\n{stdout}\n{}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert!(
        stdout.contains("verdict: CLEAN"),
        "no verdict line:\n{stdout}"
    );

    // JSON report: parseable, clean, and every ledger drift is zero.
    let json_out = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args(["report", trace.to_str().expect("utf-8 path"), "--json"])
        .output()
        .expect("spawn distclass report --json");
    assert_eq!(json_out.status.code(), Some(0));
    let doc = Json::parse(&String::from_utf8_lossy(&json_out.stdout)).expect("valid JSON report");
    let doc = doc.get("trace").expect("trace section");
    assert_eq!(doc.get("clean").and_then(Json::as_bool), Some(true));
    let ledgers = match doc.get("ledgers") {
        Some(Json::Arr(items)) => items,
        other => panic!("ledgers must be an array, got {other:?}"),
    };
    assert_eq!(ledgers.len(), 8);
    for ledger in ledgers {
        assert_eq!(
            ledger.get("drift").and_then(Json::as_f64),
            Some(0.0),
            "nonzero drift in {ledger}"
        );
    }

    // The Prometheus dump is a valid exposition, line by line.
    let prom_text = std::fs::read_to_string(&prom_out).expect("prom dump written");
    prom::validate_exposition(&prom_text)
        .unwrap_or_else(|(line, e)| panic!("invalid exposition at line {line}: {e}"));
    assert!(
        prom_text.contains("distclass_checkpoint_ns"),
        "checkpoint histogram missing from dump"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An anomalous trace (panicked peer, drifting ledger) makes
/// `report` exit 2, distinct from usage errors (1).
#[test]
fn cli_trace_report_flags_anomalies_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("distclass-anom-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("bad.jsonl");
    // Two peers minted 100 grains each; node 0 claims 70 after a +10
    // merge (drift -40), node 1 panicked.
    let lines = [
        r#"{"type":"cluster_started","nodes":2,"initial_grains":200}"#,
        r#"{"type":"grain_delta","node":0,"incarnation":0,"op":"merge","grains":10,"peer":1}"#,
        r#"{"type":"peer_final","node":0,"outcome":"completed","grains":70}"#,
        r#"{"type":"peer_final","node":1,"outcome":"panicked","grains":0}"#,
    ];
    std::fs::write(&trace, lines.join("\n")).expect("write synthetic trace");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args(["report", trace.to_str().expect("utf-8 path")])
        .output()
        .expect("spawn distclass report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "anomalous trace must exit 2:\n{stdout}"
    );
    assert!(
        stdout.contains("ANOMAL"),
        "verdict must flag anomalies:\n{stdout}"
    );

    // Usage error (missing file) is exit 1, never 2.
    let missing = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
        .args(["report", "/nonexistent/trace.jsonl"])
        .output()
        .expect("spawn distclass report");
    assert_eq!(missing.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile nesting: a trace line whose extra key opens 200,000 arrays,
/// and a profile that does the same, exit 1 with an error that names the
/// line or the file, instead of overflowing the parser's stack.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let dir = std::env::temp_dir().join(format!("distclass-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let deep = "[".repeat(200_000);
    let trace = dir.join("deep.jsonl");
    let tick = r#"{"type":"tick_completed","node":0,"time":1}"#;
    let hostile = format!(r#"{{"type":"tick_completed","node":0,"time":2,"x":{deep}}}"#);
    std::fs::write(&trace, format!("{tick}\n{hostile}\n")).expect("write the trace");
    let profile = dir.join("deep.json");
    std::fs::write(&profile, &deep).expect("write the profile");
    for (cmd, path, names) in [
        ("report", &trace, "trace line 2"),
        ("prof-report", &profile, "deep.json"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
            .args([cmd, path.to_str().expect("utf-8 path")])
            .output()
            .expect("spawn distclass");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}:\n{stderr}");
        assert!(
            stderr.contains(names) && stderr.contains("nesting deeper than 128"),
            "{cmd}:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that closes stdout early (`| head -c1`) must not make
/// `report` panic: it stops writing and exits with the code the report
/// gives when read to the end (0 clean, 2 anomalous).
#[test]
fn report_subcommands_exit_quietly_when_stdout_is_closed() {
    let dir = std::env::temp_dir().join(format!("distclass-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // A clean simulation trace, and the anomalous one above.
    let sink = Arc::new(RingSink::new(100_000));
    let values: Vec<Vector> = (0..16).map(|i| Vector::from([i as f64 % 4.0])).collect();
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let mut sim = RoundSim::new(
        Topology::complete(16),
        inst,
        &values,
        &GossipConfig::default(),
    )
    .with_tracer(Tracer::new(Arc::clone(&sink) as _));
    sim.run_rounds(6);
    let clean = dir.join("clean.jsonl");
    let lines: Vec<String> = sink.events().iter().map(|e| e.to_string()).collect();
    std::fs::write(&clean, lines.join("\n")).expect("write the clean trace");
    let anomalous = dir.join("anomalous.jsonl");
    let lines = [
        r#"{"type":"cluster_started","nodes":2,"initial_grains":200}"#,
        r#"{"type":"grain_delta","node":0,"incarnation":0,"op":"merge","grains":10,"peer":1}"#,
        r#"{"type":"peer_final","node":0,"outcome":"completed","grains":70}"#,
        r#"{"type":"peer_final","node":1,"outcome":"panicked","grains":0}"#,
    ];
    std::fs::write(&anomalous, lines.join("\n")).expect("write the anomalous trace");

    let mut codes = Vec::new();
    for trace in [&clean, &anomalous] {
        for extra in [None, Some("--json"), Some("--dot")] {
            let mut args = vec!["report", trace.to_str().expect("utf-8 path")];
            args.extend(extra);
            let run = |stdout: std::process::Stdio| {
                std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
                    .args(&args)
                    .stdout(stdout)
                    .output()
                    .expect("spawn distclass")
            };
            let usual = run(std::process::Stdio::piped());
            assert!(!usual.stdout.is_empty(), "{args:?} printed nothing");
            let (reader, writer) = std::io::pipe().expect("create a pipe");
            drop(reader);
            let closed = run(writer.into());
            let stderr = String::from_utf8_lossy(&closed.stderr);
            assert_eq!(
                closed.status.code(),
                usual.status.code(),
                "{args:?} with stdout closed:\n{stderr}"
            );
            assert!(stderr.is_empty(), "{args:?} with stdout closed:\n{stderr}");
            codes.push(usual.status.code());
        }
    }
    assert!(
        codes.contains(&Some(0)) && codes.contains(&Some(2)),
        "{codes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `report` is the four offline reports of one pass, byte for byte: its
/// `--json` members are each report's `to_json()` over the same file, and
/// its text is their `Display`s in order, then the verdict line. The
/// trace is a chaos run whose crash-restart voids drifted grains.
#[test]
fn report_prints_the_four_reports_byte_for_byte() {
    const N: usize = 8;
    let dir = std::env::temp_dir().join(format!("distclass-sections-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("chaos.jsonl");
    let sink = Arc::new(JsonlSink::create(&path).expect("create the trace"));
    let plan = FaultPlan::new(3)
        .duplicate(0.05)
        .reorder(0.1)
        .crash_restart(Duration::from_millis(318), 1, Duration::from_millis(150));
    // Node 1 re-reads at 312 ms and crashes at 318 ms, before its next
    // checkpoint (every 25 ms): the void carries the drift terms.
    let drift = DriftSchedule::parse("step@312ms:0-3=9.0,9.0", 3).expect("drift spec");
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-6,
        stable_window: Duration::from_millis(150),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed: 3,
        audit: true,
        tracer: Tracer::new(Arc::clone(&sink) as _),
        drift: Some(Arc::new(drift)),
        ..ClusterConfig::default()
    };
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let run = run_sim_cluster(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        &plan,
        &config,
    );
    assert!(run.converged && run.drained, "the chaos run did not settle");
    sink.flush().expect("flush the trace");
    let text = std::fs::read_to_string(&path).expect("read the trace back");

    let opts = AnalyzeOptions::default();
    let t = TraceReport::from_jsonl(&text, &opts).expect("trace report");
    let c = CausalReport::from_jsonl(&text, &opts).expect("causal report");
    let b = ByzReport::from_jsonl(&text).expect("byz report");
    let y = DynReport::from_jsonl(&text, &DynOptions::default()).expect("dyn report");
    assert!(
        t.clean() && c.clean() && b.clean() && y.clean(),
        "a clean chaos run:\n{t}{c}{b}{y}"
    );

    let report = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
            .arg("report")
            .arg(&path)
            .args(extra)
            .output()
            .expect("spawn distclass report")
    };
    let json = report(&["--json"]);
    assert_eq!(json.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&json.stdout),
        format!(
            "{{\"trace\":{},\"causal\":{},\"byz\":{},\"dyn\":{},\"clean\":true}}\n",
            t.to_json(),
            c.to_json(),
            b.to_json(),
            y.to_json()
        )
    );
    let human = report(&[]);
    assert_eq!(human.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&human.stdout);
    let mut rest = &*stdout;
    for section in [t.to_string(), c.to_string(), b.to_string(), y.to_string()] {
        let at = rest.find(&section).expect("every section, in order");
        rest = &rest[at + section.len()..];
    }
    assert_eq!(rest, "report: CLEAN\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With stdout closed (`| head -c1`), the other commands still finish
/// their work and exit 0: `run-cluster` writes its `--metrics-json` file.
#[test]
fn commands_finish_their_work_when_stdout_is_closed() {
    let dir = std::env::temp_dir().join(format!("distclass-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let metrics = dir.join("metrics.json");
    let metrics_path = metrics.to_str().expect("utf-8 path");
    let runs: [&[&str]; 4] = [
        &["classify", "--n", "10", "--rounds", "3"],
        &[
            "robust-average",
            "--n",
            "40",
            "--outliers",
            "2",
            "--rounds",
            "3",
        ],
        &["topologies", "--n", "16"],
        &[
            "run-cluster",
            "--transport",
            "channel",
            "--n",
            "4",
            "--max-secs",
            "3",
            "--metrics-json",
            metrics_path,
        ],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_distclass"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn distclass");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}:\n{stderr}");
        assert!(stderr.is_empty(), "{args:?}:\n{stderr}");
    }
    let doc = std::fs::read_to_string(&metrics).expect("run-cluster wrote --metrics-json");
    let doc = Json::parse(&doc).expect("metrics JSON parses");
    assert_eq!(doc.get("nodes").and_then(Json::as_u64), Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}
