//! `distclass` — command-line driver for gossip-based distributed data
//! classification simulations.
//!
//! ```text
//! distclass classify --instance gm --n 200 --k 3 --topology complete --rounds 40
//! distclass classify --instance centroid --n 100 --k 2 --topology ring --values values.csv
//! distclass robust-average --n 300 --outliers 15 --delta 12
//! distclass topologies --n 64
//! ```
//!
//! Input values come from `--values <file>` (one comma-separated vector per
//! line) or are synthesized from the built-in three-Gaussian workload.
//! Output is a markdown table of node 0's final classification plus run
//! statistics; `--csv` switches to CSV.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use distclass::baselines::PushSumSim;
use distclass::core::{outlier, CentroidInstance, GmInstance, Instance};
use distclass::experiments::data::{figure2_components, outlier_mixture, sample_mixture, F_MIN};
use distclass::experiments::report::{f, Table};
use distclass::experiments::topo::{self, TopoConfig};
use distclass::gossip::wire::WireSummary;
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::json::{field, num, unum};
use distclass::obs::{
    prom, read_jsonl, AnalyzeOptions, ByzReport, CausalReport, DynOptions, DynReport, Fold, Json,
    JsonlSink, Metrics, MetricsRegistry, ProfileReport, Profiler, ProfilerCore, TraceReport,
    TraceSink, Tracer,
};
use distclass::runtime::{
    run_cluster_with_faults, AdversaryPlan, ChannelNet, ChurnPlan, ClusterConfig, ClusterReport,
    DefenseConfig, DriftSchedule, FaultPlan, NodeOutcome, UdpNet,
};

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if iter.peek().map(|v| !v.starts_with("--")).unwrap_or(false) {
                    iter.next()
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }
}

fn usage() -> &'static str {
    "usage: distclass <command> [options]\n\
     \n\
     commands:\n\
       classify        run a classification simulation\n\
         --instance gm|centroid   (default gm)\n\
         --n <nodes>              (default 200)\n\
         --k <collections>        (default 3)\n\
         --topology complete|ring|grid|star|cycle  (default complete)\n\
         --rounds <rounds>        (default 40)\n\
         --seed <seed>            (default 42)\n\
         --values <file>          CSV of input vectors (one per line)\n\
         --csv                    CSV output instead of markdown\n\
       robust-average  outlier-robust mean vs plain aggregation\n\
         --n / --outliers / --delta / --rounds / --seed\n\
       topologies      convergence-speed study across topologies\n\
         --n / --seed\n\
       run-cluster     run real concurrent peers (threads + UDP)\n\
         --transport udp|channel  (default udp)\n\
         --instance gm|centroid   (default centroid)\n\
         --n <nodes>              (default 16)\n\
         --k <collections>        (default 3)\n\
         --topology complete|ring|grid|star|cycle  (default complete)\n\
         --tick-ms <ms>           gossip period (default 2)\n\
         --tol <dispersion>       convergence threshold (default 0.05)\n\
         --max-secs <s>           wall-clock bound (default 30)\n\
         --faults <spec>          scripted fault plan, ';'-separated, e.g.\n\
                                  partition@200ms-1s:0-3;crash@500ms:2+300ms;\n\
                                  delay=0.2:1ms-5ms;dup=0.05;reorder=0.1\n\
         --fault-seed <seed>      fault-plan RNG seed (default: --seed)\n\
         --adversaries <spec>     scripted Byzantine adversaries, ';'-\n\
                                  separated, e.g. cartel@4,13:shift=1.2;\n\
                                  mint@5:units=16;sigma=1 (roles: mint,\n\
                                  poison, cartel); implies --defense and\n\
                                  forces the auditor on\n\
         --adversary-seed <seed>  adversary-plan RNG seed (default: --seed)\n\
         --drift <spec>           scripted sensor drift, ';'-separated, e.g.\n\
                                  step@300ms:0-3=5.0,5.0;\n\
                                  ramp@200ms-800ms:2=1.0,1.0>9.0,9.0/4;\n\
                                  redraw@500ms:0-7=5.0,5.0~1.0;decay=1/2\n\
                                  (drifting nodes decay old mass and inject\n\
                                  a fresh unit reading; forces the auditor\n\
                                  on)\n\
         --drift-seed <seed>      drift-schedule RNG seed (default: --seed)\n\
         --churn <spec>           scripted join/leave churn, ';'-separated,\n\
                                  e.g. join@400ms:16=5.0,5.0;leave@600ms:3\n\
                                  (join ids must be contiguous from the\n\
                                  cluster size; leavers hand their grains\n\
                                  off and drain; forces the auditor on)\n\
         --churn-seed <seed>      churn-plan RNG seed (default: --seed)\n\
         --defense                enable the Byzantine defenses (ingress\n\
                                  screen, stochastic audit, quarantine)\n\
                                  without scripting adversaries\n\
         --no-defense             run scripted adversaries undefended\n\
         --audit-every <ticks>    audit probe cadence (default 10)\n\
         --audit                  run the grain-conservation auditor\n\
         --trace <path>           write a JSONL event trace (grain deltas,\n\
                                  crashes, checkpoints, telemetry)\n\
         --trace-cap-mb <mb>      cap the trace file; the sink stops at the\n\
                                  cap and records a trace_truncated marker\n\
                                  (0 = unlimited, the default)\n\
         --metrics-json <path>    write the run summary as JSON\n\
         --dash-listen <addr>     serve the live operations console during\n\
                                  the run, e.g. 127.0.0.1:9184 — dashboard\n\
                                  at /, Prometheus /metrics, /snapshot.json\n\
                                  and the /events long-poll stream\n\
         --prom-listen <addr>     alias for --dash-listen (kept from when\n\
                                  the endpoint only served /metrics)\n\
         --metrics-prom <path>    write the metrics registry in Prometheus\n\
                                  text format at end of run\n\
         --profile <path>         write the hierarchical phase profile as\n\
                                  JSON at end of run (see prof-report)\n\
         --profile-folded <path>  write collapsed stacks (flamegraph.pl\n\
                                  input: 'thread;phase;phase self_us')\n\
         --seed / --values / --csv as for classify\n\
       trace-report    replay a --trace JSONL file offline\n\
         <trace.jsonl>            the trace to analyze (positional)\n\
         --json                   machine-readable report on stdout\n\
         --window <n>             convergence window (default 5)\n\
         --delta-tol <x>          convergence delta tolerance (default 1e-3)\n\
         --level <x>              convergence dispersion level (default 0.05)\n\
         exit status: 0 clean trace, 2 anomalies found, 1 usage/IO error\n\
       causal-report   happens-before analysis of a --trace JSONL file\n\
         <trace.jsonl>            the trace to analyze (positional)\n\
         --json                   machine-readable report on stdout\n\
         --dot                    Graphviz DOT of the causal DAG on stdout\n\
         --window / --delta-tol / --level as for trace-report\n\
         exit status: 0 clean trace, 2 anomalies found, 1 usage/IO error\n\
       byz-report      Byzantine-defense analysis of a --trace JSONL file:\n\
                       detection / false-positive rates, mean detection\n\
                       tick, audit bandwidth overhead, and reconciliation\n\
                       against the grain auditor's minted-weight measure\n\
         <trace.jsonl>            the trace to analyze (positional)\n\
         --json                   machine-readable report on stdout\n\
         exit status: 0 clean, 2 anomalies found, 1 usage/IO error\n\
       dyn-report      dynamic-workload analysis of a --trace JSONL file:\n\
                       converged/perturbed/re-converged episode timeline\n\
                       with settle times, sensor staleness, and the\n\
                       reconciliation of drift/churn grain flows against\n\
                       the grain auditor\n\
         <trace.jsonl>            the trace to analyze (positional)\n\
         --json                   machine-readable report on stdout\n\
         --window <n>             settle window, samples (default 3)\n\
         --delta-tol <x>          settle delta tolerance (default 1e-3)\n\
         --level <x>              settle dispersion level (default 1e-2)\n\
         exit status: 0 clean, 2 anomalies found, 1 usage/IO error\n\
       prof-report     inspect a --profile JSON file: per-thread busy/idle\n\
                       accounting, phase summary with p50/p95/p99, and the\n\
                       span tree\n\
         <profile.json>           the profile to inspect (positional)\n\
         --json                   lossless profile JSON on stdout\n\
         --collapsed              collapsed stacks (flamegraph.pl input)\n\
         exit status: 0 identities hold, 2 anomalies found, 1 usage/IO\n\
                      error\n\
       help            this text"
}

fn build_topology(name: &str, n: usize) -> Result<Topology, String> {
    let build: fn(usize) -> Topology = match name {
        "complete" => Topology::complete,
        "ring" => Topology::ring,
        "grid" => |n| {
            let side = ((n as f64).sqrt().round() as usize).max(2);
            Topology::grid(side, side)
        },
        "star" => Topology::star,
        "cycle" => Topology::directed_cycle,
        other => return Err(format!("unknown topology {other}")),
    };
    if n < 2 {
        return Err(format!("topology {name} needs at least 2 nodes, got {n}"));
    }
    Ok(build(n))
}

fn load_values(path: &str) -> Result<Vec<Vector>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let comps: Result<Vec<f64>, _> = line.split(',').map(|c| c.trim().parse()).collect();
        let comps = comps.map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        out.push(Vector::from(comps));
    }
    if out.is_empty() {
        return Err(format!("{path}: no values"));
    }
    let d = out[0].dim();
    if out.iter().any(|v| v.dim() != d) {
        return Err(format!("{path}: inconsistent dimensions"));
    }
    Ok(out)
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 200)?;
    let k: usize = args.get("k", 3)?;
    let rounds: u64 = args.get("rounds", 40)?;
    let seed: u64 = args.get("seed", 42)?;
    let topology_name = args.flag("topology").unwrap_or("complete");
    let instance_name = args.flag("instance").unwrap_or("gm");

    // The grid builder may round the node count (to the nearest square),
    // so size the cluster off the topology it actually produces.
    let (values, topology) = match args.flag("values") {
        Some(path) => {
            let values = load_values(path)?;
            let topology = build_topology(topology_name, values.len())?;
            if topology.len() != values.len() {
                return Err(format!(
                    "topology {topology_name} holds {} nodes but {path} has {} readings",
                    topology.len(),
                    values.len()
                ));
            }
            (values, topology)
        }
        None => {
            let topology = build_topology(topology_name, n)?;
            let values = sample_mixture(topology.len(), &figure2_components(), seed).0;
            (values, topology)
        }
    };
    let n = values.len();
    let gossip = GossipConfig {
        seed,
        ..GossipConfig::default()
    };

    let mut table = Table::new(vec!["weight %".into(), "summary".into(), "spread".into()]);
    let (rounds_run, dispersion, messages);
    match instance_name {
        "gm" => {
            let inst = Arc::new(GmInstance::new(k).map_err(|e| e.to_string())?);
            let mut sim = RoundSim::new(topology, inst, &values, &gossip);
            sim.run_rounds(rounds);
            let c = sim.classification_of(sim.live_nodes()[0]);
            let total = c.total_weight();
            for col in c.iter() {
                table.row(vec![
                    format!("{:.1}", col.weight.fraction_of(total) * 100.0),
                    format!("{}", col.summary.mean),
                    f(col.summary.cov.trace()),
                ]);
            }
            rounds_run = sim.round();
            dispersion = distclass::experiments::sampled_dispersion(&sim, 16);
            messages = sim.metrics().messages_sent;
        }
        "centroid" => {
            let inst = Arc::new(CentroidInstance::new(k).map_err(|e| e.to_string())?);
            let mut sim = RoundSim::new(topology, inst, &values, &gossip);
            sim.run_rounds(rounds);
            let c = sim.classification_of(sim.live_nodes()[0]);
            let total = c.total_weight();
            for col in c.iter() {
                table.row(vec![
                    format!("{:.1}", col.weight.fraction_of(total) * 100.0),
                    format!("{}", col.summary),
                    "-".into(),
                ]);
            }
            rounds_run = sim.round();
            dispersion = distclass::experiments::sampled_dispersion(&sim, 16);
            messages = sim.metrics().messages_sent;
        }
        other => return Err(format!("unknown instance {other}")),
    }

    println!(
        "# classification after {rounds_run} rounds ({instance_name}, k={k}, {topology_name}, n={n})\n"
    );
    if args.has("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_markdown());
    }
    println!(
        "\nmessages: {messages}; dispersion (sampled): {}",
        f(dispersion)
    );
    Ok(())
}

fn cmd_run_cluster(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 16)?;
    let k: usize = args.get("k", 3)?;
    let seed: u64 = args.get("seed", 42)?;
    let tick_ms: u64 = args.get("tick-ms", 2)?;
    let tol: f64 = args.get("tol", 0.05)?;
    let max_secs: u64 = args.get("max-secs", 30)?;
    let topology_name = args.flag("topology").unwrap_or("complete");
    let instance_name = args.flag("instance").unwrap_or("centroid");
    let transport = args.flag("transport").unwrap_or("udp");

    if !matches!(transport, "udp" | "channel") {
        return Err(format!("unknown transport {transport}"));
    }
    if !matches!(instance_name, "gm" | "centroid") {
        return Err(format!("unknown instance {instance_name}"));
    }
    // Flag hygiene: contradictory or vacuous combinations are user
    // errors, not runs with surprising defaults.
    if args.has("defense") && args.has("no-defense") {
        return Err("--defense and --no-defense contradict each other; pass at most one".into());
    }
    for plan_flag in ["faults", "drift", "churn"] {
        if args.has(plan_flag) && args.flag(plan_flag).is_none_or(|s| s.trim().is_empty()) {
            return Err(format!(
                "--{plan_flag} needs a non-empty spec; to run without it, drop the flag"
            ));
        }
    }
    for path_flag in ["profile", "profile-folded"] {
        if args.has(path_flag) && args.flag(path_flag).is_none_or(|s| s.trim().is_empty()) {
            return Err(format!("--{path_flag} needs a file path"));
        }
    }

    // The grid builder may round the node count (to the nearest square),
    // so size the cluster off the topology it actually produces.
    let (values, topology) = match args.flag("values") {
        Some(path) => {
            let values = load_values(path)?;
            let topology = build_topology(topology_name, values.len())?;
            if topology.len() != values.len() {
                return Err(format!(
                    "topology {topology_name} holds {} nodes but {path} has {} readings",
                    topology.len(),
                    values.len()
                ));
            }
            (values, topology)
        }
        None => {
            let topology = build_topology(topology_name, n)?;
            let values = sample_mixture(topology.len(), &figure2_components(), seed).0;
            (values, topology)
        }
    };
    let n = values.len();
    let fault_seed: u64 = args.get("fault-seed", seed)?;
    let plan = match args.flag("faults") {
        Some(spec) => Some(FaultPlan::parse(spec, fault_seed).map_err(|e| e.to_string())?),
        None => None,
    };
    let adversary_seed: u64 = args.get("adversary-seed", seed)?;
    let adversaries = match args.flag("adversaries") {
        Some(spec) => Some(Arc::new(
            AdversaryPlan::parse(spec, adversary_seed).map_err(|e| e.to_string())?,
        )),
        None => None,
    };
    let drift_seed: u64 = args.get("drift-seed", seed)?;
    let drift = match args.flag("drift") {
        Some(spec) => Some(Arc::new(
            DriftSchedule::parse(spec, drift_seed).map_err(|e| e.to_string())?,
        )),
        None => None,
    };
    let churn_seed: u64 = args.get("churn-seed", seed)?;
    let churn = match args.flag("churn") {
        Some(spec) => {
            let plan = ChurnPlan::parse(spec, churn_seed).map_err(|e| e.to_string())?;
            // The supervisor asserts these; fail them here as spec
            // errors instead of panics.
            let mut ids: Vec<usize> = plan.joins.iter().map(|j| j.node).collect();
            ids.sort_unstable();
            for (i, &id) in ids.iter().enumerate() {
                if id != n + i {
                    return Err(format!(
                        "--churn join ids must be contiguous from {n} (the cluster size); \
                         got id {id} where {} was expected",
                        n + i
                    ));
                }
            }
            let n_total = n + plan.joins.len();
            if let Some(l) = plan.leaves.iter().find(|l| l.node >= n_total) {
                return Err(format!(
                    "--churn leave targets unknown node {} (cluster has {n_total} \
                     nodes including joiners)",
                    l.node
                ));
            }
            Some(Arc::new(plan))
        }
        None => None,
    };
    let dyn_active = drift.is_some() || churn.is_some();
    // Scripting adversaries turns the defenses on unless the run asks to
    // watch them succeed (--no-defense).
    let defense = if args.has("no-defense") {
        None
    } else if args.has("defense") || adversaries.is_some() {
        Some(DefenseConfig {
            audit_every: args.get("audit-every", DefenseConfig::default().audit_every)?,
            ..DefenseConfig::default()
        })
    } else {
        None
    };
    let byz_active = adversaries.is_some() || defense.is_some();
    // --trace: every peer and the supervisor share one JSONL sink; the
    // handle is kept so flush errors surface as CLI errors at the end.
    let trace_cap: u64 = args.get("trace-cap-mb", 0)?;
    let trace_sink = match args.flag("trace") {
        Some(path) => {
            let sink = if trace_cap > 0 {
                JsonlSink::with_cap(path, trace_cap * 1024 * 1024)
            } else {
                JsonlSink::create(path)
            };
            Some(Arc::new(
                sink.map_err(|e| format!("cannot create trace {path}: {e}"))?,
            ))
        }
        None => None,
    };
    let tracer = match &trace_sink {
        Some(sink) => Tracer::new(Arc::clone(sink) as _),
        None => Tracer::disabled(),
    };
    // A metrics registry exists only when some consumer asked for it —
    // otherwise every handle stays a no-op. `--prom-listen` is an alias
    // for `--dash-listen`: the console's /metrics is byte-identical to
    // the scrape-only endpoint it grew out of.
    let dash_listen = args
        .flag("dash-listen")
        .or_else(|| args.flag("prom-listen"))
        .map(str::to_string);
    let registry = (dash_listen.is_some() || args.has("metrics-prom"))
        .then(|| Arc::new(MetricsRegistry::new()));
    let metrics = registry
        .as_ref()
        .map_or_else(Metrics::disabled, |r| Metrics::new(Arc::clone(r)));
    // The profiler runs when an export was asked for, and also whenever
    // the console is up so its phase-breakdown panel has data to show.
    // When a registry exists the core feeds `distclass_phase_us` through
    // it, so profile and registry views reconcile exactly.
    let profiler = (args.has("profile") || args.has("profile-folded") || dash_listen.is_some())
        .then(|| Arc::new(ProfilerCore::with_metrics(metrics.clone())))
        .map_or_else(Profiler::disabled, Profiler::new);
    let config = ClusterConfig {
        tick: Duration::from_millis(tick_ms),
        tol,
        seed,
        max_wall: Duration::from_secs(max_secs),
        // Byzantine and dynamic runs always audit: the auditor is the
        // ground truth `byz-report` reconciles minted weight against and
        // `dyn-report` reconciles injected/forgotten grains against.
        audit: args.has("audit") || byz_active || dyn_active,
        drift: drift.clone(),
        churn: churn.clone(),
        tracer,
        metrics,
        profiler,
        dash_listen,
        adversaries: adversaries.clone(),
        defense,
        ..ClusterConfig::default()
    };

    println!(
        "# {n} peers over {transport} ({instance_name}, k={k}, {topology_name}, tick {tick_ms}ms)\n"
    );
    if let Some(plan) = &plan {
        println!(
            "fault plan (seed {fault_seed}, digest {:016x}): {} partition(s), {} crash event(s), \
             delay {}, dup {:.2}, reorder {:.2}\n",
            plan.digest(),
            plan.partitions.len(),
            plan.crashes.len(),
            if plan.delay.is_some() { "on" } else { "off" },
            plan.duplicate,
            plan.reorder,
        );
    }
    if let Some(plan) = &adversaries {
        println!(
            "adversary plan (seed {adversary_seed}, digest {:016x}): {} adversaries \
             ({:?}), defenses {}\n",
            plan.digest(),
            plan.adversaries().len(),
            plan.adversaries(),
            if defense.is_some() { "on" } else { "OFF" },
        );
    }
    if let Some(d) = &drift {
        println!(
            "drift schedule (seed {drift_seed}, digest {:016x}): {} re-read event(s), \
             decay {}/{}\n",
            d.digest(),
            d.events.len(),
            d.decay.0,
            d.decay.1,
        );
    }
    if let Some(c) = &churn {
        println!(
            "churn plan (seed {churn_seed}, digest {:016x}): {} join(s), {} leave(s)\n",
            c.digest(),
            c.joins.len(),
            c.leaves.len(),
        );
    }
    match instance_name {
        "gm" => {
            let inst = Arc::new(GmInstance::new(k).map_err(|e| e.to_string())?);
            let report =
                dispatch_cluster(transport, &topology, inst, &values, plan.as_ref(), &config)?;
            print_cluster_report(&report, &config, n, args.has("csv"), |s| {
                format!("{}", s.mean)
            })?;
            finish_cluster_outputs(
                args,
                &report,
                &config,
                n,
                trace_sink.as_deref(),
                registry.as_deref(),
            )
        }
        "centroid" => {
            let inst = Arc::new(CentroidInstance::new(k).map_err(|e| e.to_string())?);
            let report =
                dispatch_cluster(transport, &topology, inst, &values, plan.as_ref(), &config)?;
            print_cluster_report(&report, &config, n, args.has("csv"), |s| format!("{s}"))?;
            finish_cluster_outputs(
                args,
                &report,
                &config,
                n,
                trace_sink.as_deref(),
                registry.as_deref(),
            )
        }
        other => Err(format!("unknown instance {other}")),
    }
}

/// Post-run outputs shared by every instance type: surface trace-sink
/// flush errors, write the `--metrics-json` summary, and dump the
/// metrics registry in Prometheus text format for `--metrics-prom`.
fn finish_cluster_outputs<S>(
    args: &Args,
    report: &ClusterReport<S>,
    config: &ClusterConfig,
    n: usize,
    trace_sink: Option<&JsonlSink>,
    registry: Option<&MetricsRegistry>,
) -> Result<(), String> {
    if let Some(sink) = trace_sink {
        sink.flush()
            .map_err(|e| format!("trace write failed: {e}"))?;
    }
    if let Some(path) = args.flag("metrics-json") {
        let json = cluster_metrics_json(report, config, n);
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = args.flag("metrics-prom") {
        let registry = registry.expect("registry exists whenever --metrics-prom is given");
        std::fs::write(path, prom::render(&registry.snapshot()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if args.has("profile") || args.has("profile-folded") {
        let profile = report
            .profile
            .as_ref()
            .expect("profiler runs whenever --profile/--profile-folded is given");
        if let Some(path) = args.flag("profile") {
            std::fs::write(path, format!("{}\n", profile.to_json()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = args.flag("profile-folded") {
            std::fs::write(path, profile.to_collapsed())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

/// The file a `*-report` subcommand reads: its first positional argument
/// or `--file`.
fn report_path<'a>(args: &'a Args, cmd: &str) -> Result<&'a str, String> {
    (args.positional.get(1).map(String::as_str))
        .or_else(|| args.flag("file"))
        .ok_or_else(|| format!("{cmd} needs a trace file\n{}", usage()))
}

/// A trace file, opened for the reports to fold one line at a time.
fn open_trace(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot read {path}: {e}"))
}

/// `--window` / `--delta-tol` / `--level` for `trace-report` and
/// `causal-report`.
fn analyze_options(args: &Args) -> Result<AnalyzeOptions, String> {
    let defaults = AnalyzeOptions::default();
    Ok(AnalyzeOptions {
        window: args.get("window", defaults.window)?,
        delta_tol: args.get("delta-tol", defaults.delta_tol)?,
        level: args.get("level", defaults.level)?,
    })
}

/// Prints a report and maps its verdict to the exit code: 0 when clean,
/// 2 when it flags anomalies. A reader that closes stdout early (`| head`)
/// ends the output quietly; the exit code still follows the verdict.
fn print_report(text: &str, clean: bool) -> Result<ExitCode, String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            return Err(format!("cannot write the report: {e}"));
        }
        _ => {}
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

/// A report's `--json` form (one line) or its text.
fn report_text(args: &Args, json: impl FnOnce() -> Json, text: impl fmt::Display) -> String {
    if args.has("json") {
        format!("{}\n", json())
    } else {
        text.to_string()
    }
}

/// `trace-report`: replay a `--trace` JSONL file into an offline report.
/// Exits 0 on a clean trace and 2 when the replay flags anomalies, so CI
/// can gate on trace health without parsing the output.
fn cmd_trace_report(args: &Args) -> Result<ExitCode, String> {
    let path = report_path(args, "trace-report")?;
    let opts = analyze_options(args)?;
    let report = (TraceReport::fold(&opts).fold_jsonl(open_trace(path)?))
        .map_err(|e| format!("{path}: {e}"))?;
    print_report(
        &report_text(args, || report.to_json(), &report),
        report.clean(),
    )
}

/// `causal-report`: rebuild the happens-before DAG from a `--trace` JSONL
/// file and report the convergence critical path, grain provenance, and
/// influence matrix. Same exit-code contract as `trace-report`: 0 on a
/// clean causal layer, 2 when the reconstruction flags anomalies (cycles,
/// clock rewinds, provenance drift), 1 on usage/IO errors.
fn cmd_causal_report(args: &Args) -> Result<ExitCode, String> {
    let path = report_path(args, "causal-report")?;
    let opts = analyze_options(args)?;
    if args.has("dot") {
        // The DOT view draws every vertex, so it holds the whole trace.
        // It is a rendering aid, not a health check; the exit code
        // follows the analyzed report.
        let mut events = Vec::new();
        read_jsonl(open_trace(path)?, |ev| events.push(ev)).map_err(|e| format!("{path}: {e}"))?;
        let report = CausalReport::from_events(&events, &opts);
        return print_report(&CausalReport::to_dot(&events, &opts), report.clean());
    }
    let report = (CausalReport::fold(&opts).fold_jsonl(open_trace(path)?))
        .map_err(|e| format!("{path}: {e}"))?;
    print_report(
        &report_text(args, || report.to_json(), &report),
        report.clean(),
    )
}

/// `byz-report`: replay a `--trace` JSONL file into the offline
/// Byzantine-defense report — detection and false-positive rates, mean
/// detection tick, audit bandwidth overhead, and the reconciliation of
/// traced rejections against the grain auditor's minted-weight
/// measurement. Same exit-code contract as `trace-report`: 0 on a clean
/// report, 2 when the replay flags anomalies, 1 on usage/IO errors.
fn cmd_byz_report(args: &Args) -> Result<ExitCode, String> {
    let path = report_path(args, "byz-report")?;
    let report =
        (ByzReport::fold().fold_jsonl(open_trace(path)?)).map_err(|e| format!("{path}: {e}"))?;
    print_report(
        &report_text(args, || report.to_json(), &report),
        report.clean(),
    )
}

/// `dyn-report`: replay a `--trace` JSONL file into the offline
/// dynamic-workload report — the converged → perturbed → re-converged
/// episode timeline with per-episode settle times, sensor staleness, and
/// the reconciliation of traced drift/churn grain flows against the
/// auditor's settled injected/forgotten totals. Same exit-code contract
/// as `trace-report`: 0 on a clean report, 2 when the replay flags
/// anomalies, 1 on usage/IO errors.
fn cmd_dyn_report(args: &Args) -> Result<ExitCode, String> {
    let path = report_path(args, "dyn-report")?;
    let defaults = DynOptions::default();
    let opts = DynOptions {
        window: args.get("window", defaults.window)?,
        delta_tol: args.get("delta-tol", defaults.delta_tol)?,
        level: args.get("level", defaults.level)?,
    };
    let report = (DynReport::fold(&opts).fold_jsonl(open_trace(path)?))
        .map_err(|e| format!("{path}: {e}"))?;
    print_report(
        &report_text(args, || report.to_json(), &report),
        report.clean(),
    )
}

/// `prof-report`: inspect a `--profile` JSON file. Text output shows the
/// per-thread busy/idle accounting and per-phase quantile summary;
/// `--json` re-emits the lossless document and `--collapsed` the
/// flamegraph.pl input. Same exit-code contract as `trace-report`: 0 when
/// the accounting identities hold, 2 when the profile carries anomalies,
/// 1 on usage/IO errors.
fn cmd_prof_report(args: &Args) -> Result<ExitCode, String> {
    let path = args
        .positional
        .get(1)
        .map(String::as_str)
        .or_else(|| args.flag("file"))
        .ok_or_else(|| format!("prof-report needs a profile JSON file\n{}", usage()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = ProfileReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let out = if args.has("collapsed") {
        report.to_collapsed()
    } else {
        report_text(args, || report.to_json(), &report)
    };
    print_report(&out, report.clean())
}

/// The `--metrics-json` document: the run summary, cluster-total runtime
/// counters, and the audit verdict when one was taken.
fn cluster_metrics_json<S>(report: &ClusterReport<S>, config: &ClusterConfig, n: usize) -> Json {
    let totals = report.total_metrics();
    let audit = match &report.audit {
        Some(a) => Json::Obj(vec![
            field("initial_grains", unum(a.initial_grains)),
            field("final_grains", unum(a.final_grains)),
            field("declared_gains", unum(a.declared_gains)),
            field("declared_losses", unum(a.declared_losses)),
            field("minted_grains", unum(a.minted_grains)),
            field("injected_grains", unum(a.injected_grains)),
            field("forgotten_grains", unum(a.forgotten_grains)),
            field("rejected_frames", unum(a.rejected_frames as u64)),
            field("crash_events", unum(a.crash_events as u64)),
            field("exact", Json::Bool(a.exact)),
            field("conserved", Json::Bool(a.conserved)),
            field("quiescent", Json::Bool(a.quiescent)),
            field("ok", Json::Bool(a.ok())),
        ]),
        None => Json::Null,
    };
    Json::Obj(vec![
        field("nodes", unum(n as u64)),
        field("converged", Json::Bool(report.converged)),
        field(
            "converged_after_ms",
            report
                .converged_after
                .map_or(Json::Null, |t| num(t.as_secs_f64() * 1e3)),
        ),
        field("wall_ms", num(report.wall.as_secs_f64() * 1e3)),
        field("drained", Json::Bool(report.drained)),
        field("final_dispersion", num(report.final_dispersion)),
        field("total_grains", unum(report.total_grains())),
        field(
            "expected_grains",
            unum(n as u64 * config.quantum.grains_per_unit()),
        ),
        field(
            "metrics",
            Json::Obj(vec![
                field("ticks", unum(totals.ticks)),
                field("msgs_sent", unum(totals.msgs_sent)),
                field("msgs_received", unum(totals.msgs_received)),
                field("acks_received", unum(totals.acks_received)),
                field("duplicates", unum(totals.duplicates)),
                field("retries", unum(totals.retries)),
                field("returned", unum(totals.returned)),
                field("bytes_sent", unum(totals.bytes_sent)),
                field("bytes_received", unum(totals.bytes_received)),
                field("audit_bytes", unum(totals.audit_bytes)),
                field("frames_rejected", unum(totals.frames_rejected)),
                field("decode_errors", unum(totals.decode_errors)),
                field("send_errors", unum(totals.send_errors)),
                field("checkpoints", unum(totals.checkpoints)),
                field("grains_split", unum(totals.grains_split)),
                field("grains_merged", unum(totals.grains_merged)),
                field("grains_returned", unum(totals.grains_returned)),
                field("drift_events", unum(totals.drift_events)),
                field("grains_injected", unum(totals.grains_injected)),
                field("grains_forgotten", unum(totals.grains_forgotten)),
                field("vacuous_passes", unum(totals.vacuous_passes)),
            ]),
        ),
        field("audit", audit),
    ])
}

fn dispatch_cluster<I>(
    transport: &str,
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    plan: Option<&FaultPlan>,
    config: &ClusterConfig,
) -> Result<ClusterReport<I::Summary>, String>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
{
    let empty = FaultPlan::new(config.seed);
    let plan = plan.unwrap_or(&empty);
    // Sized for every scripted churn joiner too: nets mint endpoints by id.
    let n = topology.len() + config.churn.as_ref().map_or(0, |c| c.joins.len());
    match transport {
        "udp" => {
            let net = UdpNet::bind_cluster(n).map_err(|e| e.to_string())?;
            Ok(run_cluster_with_faults(
                topology, instance, values, net, plan, config,
            ))
        }
        "channel" => Ok(run_cluster_with_faults(
            topology,
            instance,
            values,
            ChannelNet::new(n),
            plan,
            config,
        )),
        other => Err(format!("unknown transport {other}")),
    }
}

fn print_cluster_report<S>(
    report: &ClusterReport<S>,
    config: &ClusterConfig,
    n: usize,
    csv: bool,
    render: impl Fn(&S) -> String,
) -> Result<(), String> {
    match report.converged_after {
        Some(t) => println!("converged after {t:?} (wall {:?})", report.wall),
        None => println!(
            "did not converge within {:?} (wall {:?})",
            config.max_wall, report.wall
        ),
    }
    println!(
        "drained: {}; final dispersion: {}",
        report.drained,
        f(report.final_dispersion)
    );
    if !report.convicted.is_empty() {
        println!("convicted (quarantined) peers: {:?}", report.convicted);
    }
    let expected = n as u64 * config.quantum.grains_per_unit();
    // Crash-restart and quarantine both shed grains legitimately (death
    // receipts, rejected frames); the audit, not the headline total, is
    // the authority on whether the books balance.
    let faulted = !report.convicted.is_empty()
        || report
            .nodes
            .iter()
            .any(|r| r.outcome != NodeOutcome::Completed || r.restarts > 0);
    let dynamic = config.drift.is_some() || config.churn.is_some();
    println!(
        "grains: {} (expected {expected}, {})",
        report.total_grains(),
        if report.total_grains() == expected {
            "conserved"
        } else if dynamic {
            "drifted from the static total — see the audit's injected/forgotten terms"
        } else if faulted {
            "short of the fault-free total — see the audit for the accounting"
        } else {
            "NOT conserved"
        }
    );

    let mut table = Table::new(vec![
        "node".into(),
        "classification".into(),
        "msgs out/in".into(),
        "retries".into(),
        "bytes out".into(),
        "restarts".into(),
        "last merge".into(),
    ]);
    for node in &report.nodes {
        let total = node.classification.total_weight();
        let mut parts: Vec<String> = node
            .classification
            .iter()
            .map(|c| {
                format!(
                    "{:.0}% {}",
                    c.weight.fraction_of(total) * 100.0,
                    render(&c.summary)
                )
            })
            .collect();
        parts.sort();
        let id = match node.outcome {
            NodeOutcome::Completed => node.id.to_string(),
            NodeOutcome::Dead => format!("{} (dead)", node.id),
            NodeOutcome::Panicked => format!("{} (panicked)", node.id),
            NodeOutcome::Retired => format!("{} (retired)", node.id),
        };
        table.row(vec![
            id,
            parts.join(" + "),
            format!("{}/{}", node.metrics.msgs_sent, node.metrics.msgs_received),
            node.metrics.retries.to_string(),
            node.metrics.bytes_sent.to_string(),
            node.restarts.to_string(),
            node.last_merge
                .map(|t| format!("{t:?}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    if csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_markdown());
    }
    for node in &report.nodes {
        if let Some(err) = &node.error {
            println!("node {} panic: {err}", node.id);
        }
    }
    let totals = report.total_metrics();
    println!("\ncluster totals: {totals}");
    if let Some(audit) = &report.audit {
        println!("\n## audit\n\n{audit}");
    }
    Ok(())
}

fn cmd_robust_average(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 300)?;
    let outliers: usize = args.get("outliers", 15)?;
    let delta: f64 = args.get("delta", 12.0)?;
    let rounds: u64 = args.get("rounds", 30)?;
    let seed: u64 = args.get("seed", 42)?;

    let (values, flags) = outlier_mixture(n, outliers, delta, F_MIN, seed);
    let inst = Arc::new(GmInstance::new(2).map_err(|e| e.to_string())?);
    let gossip = GossipConfig {
        seed,
        ..GossipConfig::default()
    };
    let mut sim = RoundSim::new(Topology::complete(n), inst, &values, &gossip);
    sim.run_rounds(rounds);
    let mut push = PushSumSim::new(Topology::complete(n), &values, seed);
    push.run_rounds(rounds);

    let truth = Vector::zeros(2);
    let c = sim.classification_of(sim.live_nodes()[0]);
    let robust = outlier::robust_mean(c).ok_or("empty classification")?;
    println!(
        "{n} sensors, {} density-outliers, delta {delta}",
        flags.iter().filter(|&&o| o).count()
    );
    println!(
        "robust mean:  {} (error {})",
        robust,
        f(robust.distance(&truth))
    );
    let plain_error = push
        .mean_error(&truth)
        .ok_or("push-sum network has no live nodes")?;
    println!(
        "plain mean:   {} (error {})",
        push.estimates()[0],
        f(plain_error)
    );
    Ok(())
}

fn cmd_topologies(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 64)?;
    let seed: u64 = args.get("seed", 42)?;
    let cfg = TopoConfig {
        n,
        seed,
        ..TopoConfig::default()
    };
    let mut table = Table::new(vec![
        "topology".into(),
        "diameter".into(),
        "rounds to agree".into(),
    ]);
    for (name, topology) in topo::standard_topologies(cfg.n, cfg.seed) {
        let row = topo::run_topology(name, topology, &cfg).map_err(|e| e.to_string())?;
        table.row(vec![
            row.name.into(),
            row.diameter.to_string(),
            row.rounds_to_converge
                .map(|r| r.to_string())
                .unwrap_or_else(|| "did not converge".into()),
        ]);
    }
    print!("{}", table.to_markdown());
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::parse();
    let command = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    let result = match command {
        "classify" => cmd_classify(&args).map(|()| ExitCode::SUCCESS),
        "robust-average" => cmd_robust_average(&args).map(|()| ExitCode::SUCCESS),
        "topologies" => cmd_topologies(&args).map(|()| ExitCode::SUCCESS),
        "run-cluster" => cmd_run_cluster(&args).map(|()| ExitCode::SUCCESS),
        "trace-report" => cmd_trace_report(&args),
        "causal-report" => cmd_causal_report(&args),
        "byz-report" => cmd_byz_report(&args),
        "dyn-report" => cmd_dyn_report(&args),
        "prof-report" => cmd_prof_report(&args),
        "help" | "--help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
