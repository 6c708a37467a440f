//! End-to-end tests for the live operations console: a real chaos run
//! feeds the aggregator through the supervisor's trace path, and the
//! served `/snapshot.json` must parse with `obs::json` and reconcile
//! *exactly* with the auditor's final verdict.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{EpisodeRule, Json, Live, LiveAggregator, LiveConsole, Profiler, Tracer};
use distclass::runtime::{run_chaos_channel_cluster, ClusterConfig, FaultPlan};

fn two_site_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

fn http_get(addr: std::net::SocketAddr, target: &str) -> Option<(String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let mut halves = response.splitn(2, "\r\n\r\n");
    let head = halves.next()?.to_string();
    let body = halves.next().unwrap_or_default().to_string();
    Some((head, body))
}

/// Acceptance criterion: after a crash-and-recover chaos run, the
/// console's `/snapshot.json` parses with `obs::json` and its audit
/// object equals the run's `AuditReport` field for field — the live
/// view and the offline auditor tell one story.
#[test]
fn snapshot_reconciles_exactly_with_the_final_audit() {
    const N: usize = 6;
    let agg = Arc::new(LiveAggregator::new(EpisodeRule::default()));
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed: 5,
        audit: true,
        // Feed the aggregator through the same tracer path the
        // supervisor and peers already use.
        tracer: Tracer::disabled().tee(agg.clone()),
        ..ClusterConfig::default()
    };
    let plan =
        FaultPlan::new(5).crash_restart(Duration::from_millis(120), 1, Duration::from_millis(150));
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let report = run_chaos_channel_cluster(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        &plan,
        &config,
    );
    let audit = report.audit.as_ref().expect("audit was requested");
    assert!(report.converged && report.drained, "{audit}");

    // Serve the aggregator the run just filled and fetch the snapshot
    // over real HTTP.
    let server = match LiveConsole::start(
        "127.0.0.1:0",
        None,
        Live::new(agg.clone()),
        Profiler::disabled(),
        None,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("skipping HTTP leg: bind failed: {e}");
            return;
        }
    };
    let (head, body) = http_get(server.local_addr(), "/snapshot.json").expect("snapshot roundtrip");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let doc = Json::parse(&body).expect("snapshot parses with obs::json");

    // Exact reconciliation, grain for grain.
    let snap_audit = doc.get("audit").expect("audit section present");
    let get = |key: &str| snap_audit.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(get("initial"), audit.initial_grains);
    assert_eq!(get("final_grains"), audit.final_grains);
    assert_eq!(get("gains"), audit.declared_gains);
    assert_eq!(get("losses"), audit.declared_losses);
    assert_eq!(get("injected"), audit.injected_grains);
    assert_eq!(get("forgotten"), audit.forgotten_grains);
    assert_eq!(
        snap_audit.get("exact").and_then(Json::as_bool),
        Some(audit.exact)
    );
    assert_eq!(
        snap_audit.get("conserved").and_then(Json::as_bool),
        Some(audit.conserved)
    );

    // The telemetry the supervisor streamed is there, with a monotone
    // round (elapsed-ms) series and stamped wall-clock times.
    let samples = doc
        .get("samples")
        .and_then(Json::as_array)
        .expect("samples array");
    assert!(!samples.is_empty(), "supervisor telemetry reached the view");
    let rounds: Vec<u64> = samples
        .iter()
        .map(|s| s.get("round").and_then(Json::as_u64).expect("round"))
        .collect();
    assert!(
        rounds.windows(2).all(|w| w[0] <= w[1]),
        "round series must be monotone: {rounds:?}"
    );
    assert!(
        samples
            .iter()
            .all(|s| s.get("unix_ms").and_then(Json::as_u64).is_some()),
        "runtime samples carry wall-clock stamps"
    );

    // The crash-and-recover run moved grains: the running checkpoint
    // totals are live (merged frames were durably checkpointed).
    let running = doc.get("audit_running").expect("running totals");
    assert!(
        running
            .get("merged")
            .and_then(Json::as_u64)
            .expect("merged")
            > 0,
        "durable checkpoints reached the live view"
    );
}

/// The `--dash-listen` wiring end to end: a cluster run with the flag's
/// config field set serves the dashboard, metrics and snapshot *while*
/// the run is in flight.
#[test]
fn dash_listen_serves_the_console_during_a_run() {
    const N: usize = 6;
    // Reserve an ephemeral port, then hand it to the cluster. (The bound
    // address lives inside the supervisor, so port 0 would be unknowable
    // from out here.)
    let addr = match TcpListener::bind("127.0.0.1:0") {
        Ok(probe) => {
            let addr = probe.local_addr().expect("probe addr");
            drop(probe);
            addr
        }
        Err(e) => {
            eprintln!("skipping dash-listen test: no loopback TCP: {e}");
            return;
        }
    };
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        // A generous stable window keeps the run alive long enough for
        // the poller to catch it mid-flight.
        stable_window: Duration::from_millis(1_500),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed: 7,
        audit: true,
        dash_listen: Some(addr.to_string()),
        ..ClusterConfig::default()
    };
    let runner = thread::spawn(move || {
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        run_chaos_channel_cluster(
            &Topology::complete(N),
            inst,
            &two_site_values(N),
            &FaultPlan::new(7),
            &config,
        )
    });

    // Poll until the console answers (the supervisor binds it early).
    let mut dashboard = None;
    for _ in 0..100 {
        if let Some((head, body)) = http_get(addr, "/") {
            dashboard = Some((head, body));
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let (head, body) = dashboard.expect("console came up during the run");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("distclass live console"));

    // Snapshot parses mid-run; wait until the supervisor's telemetry and
    // the peers' grain movements have both reached the view.
    let (mut saw_samples, mut merged, mut hops) = (false, 0, 0);
    for _ in 0..100 {
        let Some((head, body)) = http_get(addr, "/snapshot.json") else {
            break; // run (and console) already over
        };
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let doc = Json::parse(&body).expect("snapshot parses mid-run");
        let count = |section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        saw_samples = doc.get("sample_count").and_then(Json::as_u64).unwrap_or(0) > 0;
        merged = count("audit_running", "merged");
        hops = count("hops", "count");
        if saw_samples && merged > 0 && hops > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(saw_samples, "telemetry samples appeared while running");
    // Peers emit through the run's teed tracer too: their checkpoints
    // and stamped merges reach the console, not just the trace file.
    assert!(merged > 0, "peer checkpoints reached the live view");
    assert!(hops > 0, "stamped hops reached the live view");

    let report = runner.join().expect("cluster thread");
    let audit = report.audit.as_ref().expect("audit was requested");
    assert!(report.converged && report.drained && audit.ok(), "{audit}");
}
