//! CLI flag hygiene: unknown flags, flags missing their value,
//! contradictory or vacuous flag combinations, hostile plan specs, plans
//! naming nodes outside the cluster, and node counts no topology can
//! hold, must die with a clear usage error before any peer is spawned,
//! not start a run with surprising defaults or panic.

use std::process::Command;

fn distclass(cmd: &str, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_distclass"))
        .arg(cmd)
        .args(extra)
        .output()
        .expect("spawn distclass")
}

fn run_cluster(extra: &[&str]) -> std::process::Output {
    distclass("run-cluster", extra)
}

#[test]
fn defense_and_no_defense_together_is_an_error() {
    let out = run_cluster(&["--defense", "--no-defense"]);
    assert_eq!(out.status.code(), Some(1), "must exit 1 on a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--defense and --no-defense contradict each other"),
        "unclear error:\n{stderr}"
    );
}

#[test]
fn empty_plan_specs_are_errors() {
    for flag in ["--faults", "--drift", "--churn"] {
        // Both the bare flag and an explicit empty spec are vacuous.
        for extra in [vec![flag], vec![flag, ""]] {
            let out = run_cluster(&extra);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{flag} with an empty spec must exit 1"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{flag} needs a non-empty spec")),
                "unclear error for {flag}:\n{stderr}"
            );
        }
    }
}

#[test]
fn bad_churn_join_ids_are_spec_errors_not_panics() {
    // Join id 12 on an 8-node cluster: not contiguous from 8.
    let out = run_cluster(&[
        "--transport",
        "channel",
        "--n",
        "8",
        "--churn",
        "join@100ms:12=1.0,1.0",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("contiguous from 8"),
        "unclear error:\n{stderr}"
    );

    // Leaving a node that never exists is equally a spec error.
    let out = run_cluster(&[
        "--transport",
        "channel",
        "--n",
        "8",
        "--churn",
        "leave@100ms:99",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown node 99"),
        "unclear error:\n{stderr}"
    );
}

/// Runs a 4-node channel cluster with `extra` and requires a usage error
/// whose text names `flag` and contains `error`, before any run starts.
fn assert_plan_rejected(extra: &[&str], flag: &str, error: &str) {
    let mut args = vec!["--transport", "channel", "--n", "4"];
    args.extend_from_slice(extra);
    let out = run_cluster(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{extra:?}:\n{stderr}");
    assert!(
        stderr.contains(flag) && stderr.contains(error),
        "unclear error for {extra:?}:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{extra:?} started a run");
}

#[test]
fn hostile_plan_specs_are_spec_errors_not_crashes() {
    // Each of these once panicked (debug), aborted on a failed
    // allocation, or wrapped a time (release).
    let cases = [
        (
            "--faults",
            "crash@18446744073709552s:1",
            "duration `18446744073709552s` overflows u64 milliseconds",
        ),
        (
            "--faults",
            "partition@0ms-1s:0-99999999999",
            "names more than 65536 nodes",
        ),
        (
            "--adversaries",
            "cartel@0-99999999999",
            "names more than 65536 nodes",
        ),
        (
            "--drift",
            "ramp@0ms-1s:0=1.0,1.0>2.0,2.0/18446744073709551615",
            "ramp expands to more than 65536 events",
        ),
    ];
    for (flag, spec, error) in cases {
        assert_plan_rejected(&[flag, spec], flag, error);
    }
}

#[test]
fn plan_nodes_outside_the_cluster_are_errors() {
    for (flag, spec) in [
        ("--faults", "crash@100ms:99"),
        ("--faults", "partition@0ms-300ms:99"),
        ("--adversaries", "cartel@99"),
        ("--drift", "step@100ms:99=1.0,1.0"),
    ] {
        assert_plan_rejected(&[flag, spec], flag, "unknown node 99");
    }
    // A churn joiner counts: node 4 exists once it joins, node 5 never.
    assert_plan_rejected(
        &[
            "--churn",
            "join@50ms:4=1.0,1.0",
            "--faults",
            "crash@100ms:5",
        ],
        "--faults",
        "unknown node 5 (the cluster has 5 nodes including joiners)",
    );
}

#[test]
fn too_few_nodes_for_a_topology_is_an_error_not_a_panic() {
    let one_line = std::env::temp_dir().join(format!("distclass-one-{}.csv", std::process::id()));
    std::fs::write(&one_line, "1.0,2.0\n").expect("write values file");
    let values = one_line.to_str().expect("utf-8 temp path");
    let cases = [
        (
            "classify",
            vec!["--n", "1"],
            "topology complete needs at least 2 nodes, got 1",
        ),
        (
            "classify",
            vec!["--n", "0"],
            "topology complete needs at least 2 nodes, got 0",
        ),
        (
            "classify",
            vec!["--n", "1", "--topology", "ring"],
            "topology ring needs at least 2 nodes, got 1",
        ),
        (
            "run-cluster",
            vec!["--values", values],
            "topology complete needs at least 2 nodes, got 1",
        ),
    ];
    for (cmd, extra, error) in cases {
        let out = distclass(cmd, &extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {extra:?}:\n{stderr}");
        assert!(
            stderr.contains(error),
            "unclear error for {cmd} {extra:?}:\n{stderr}"
        );
    }
    let _ = std::fs::remove_file(&one_line);
}

#[test]
fn unknown_flags_are_errors_that_name_the_flag() {
    let cases: [(&str, &[&str], &str); 3] = [
        (
            "run-cluster",
            &["--transport", "channel", "--nodes", "4"],
            "--nodes",
        ),
        ("classify", &["--instnace", "centroid"], "--instnace"),
        // A removed alias: the report's file is its operand.
        ("report", &["--file", "trace.jsonl"], "--file"),
    ];
    for (cmd, extra, flag) in cases {
        let out = distclass(cmd, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd} {extra:?}:\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{cmd} {extra:?} must name {flag}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{cmd} {extra:?} ran anyway");
    }
}

#[test]
fn a_value_flag_without_its_value_is_an_error() {
    let out = distclass("classify", &["--n", "--rounds", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--n needs a non-empty count"), "{stderr}");
    assert!(out.stdout.is_empty(), "classify ran with a default --n");
}

#[test]
fn a_switch_never_takes_the_next_argument() {
    let trace = std::env::temp_dir().join(format!("distclass-switch-{}.jsonl", std::process::id()));
    std::fs::write(
        &trace,
        "{\"type\":\"cluster_started\",\"nodes\":2,\"initial_grains\":200}\n",
    )
    .expect("write a trace");
    let out = distclass("report", &["--json", trace.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(1), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"trace\":"),
        "not the JSON report:\n{stdout}"
    );
    let _ = std::fs::remove_file(&trace);
}
