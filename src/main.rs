//! `distclass` — command-line driver for gossip-based distributed data
//! classification simulations.
//!
//! ```text
//! distclass classify --instance gm --n 200 --k 3 --topology complete --rounds 40
//! distclass classify --instance centroid --n 100 --k 2 --topology ring --values values.csv
//! distclass robust-average --n 300 --outliers 15 --delta 12
//! distclass topologies --n 64
//! distclass run-cluster --transport channel --n 8 --trace trace.jsonl
//! distclass report trace.jsonl
//! ```
//!
//! Input values come from `--values <file>` (one comma-separated vector per
//! line) or are synthesized from the built-in three-Gaussian workload.
//! Output is a markdown table of node 0's final classification plus run
//! statistics; `--csv` switches to CSV. `distclass help` lists every
//! command and flag, from the same table the parser reads.

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
    check_plan_nodes, run_cluster_with_faults, AdversaryPlan, ChannelNet, ChurnPlan, ClusterConfig,
    ClusterReport, DefenseConfig, DriftSchedule, FaultPlan, NodeOutcome, UdpNet,
};

/// One flag of a subcommand: its name, its value's placeholder (`None`
/// for a switch, which never takes the next argument) and a help line.
struct Flag(&'static str, Option<&'static str>, &'static str);

const fn opt(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag(name, Some(value), help)
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag(name, None, help)
}

/// A subcommand: its name, the file it reads (if any), a summary line
/// and its flags. The parser and `usage()` both read this table.
struct Command {
    name: &'static str,
    operand: Option<&'static str>,
    about: &'static str,
    flags: &'static [Flag],
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "classify", operand: None,
        about: "run a classification simulation", flags: &[
        opt("instance", "name", "gm or centroid (default gm)"),
        opt("n", "count", "nodes (default 200)"),
        opt("k", "count", "collections per node (default 3)"),
        opt("topology", "name", "complete, ring, grid, star or cycle (default complete)"),
        opt("rounds", "count", "gossip rounds (default 40)"),
        opt("seed", "seed", "RNG seed (default 42)"),
        opt("values", "path", "CSV of input vectors, one per line"),
        switch("csv", "CSV output instead of markdown"),
    ] },
    Command { name: "robust-average", operand: None,
        about: "outlier-robust mean vs plain aggregation", flags: &[
        opt("n", "count", "sensors (default 300)"),
        opt("outliers", "count", "density outliers (default 15)"),
        opt("delta", "number", "outlier distance (default 12)"),
        opt("rounds", "count", "gossip rounds (default 30)"),
        opt("seed", "seed", "RNG seed (default 42)"),
    ] },
    Command { name: "topologies", operand: None,
        about: "convergence-speed study across topologies", flags: &[
        opt("n", "count", "nodes (default 64)"),
        opt("seed", "seed", "RNG seed (default 42)"),
    ] },
    Command { name: "run-cluster", operand: None,
        about: "run real concurrent peers (threads + UDP or channels)", flags: &[
        opt("transport", "name", "udp or channel (default udp)"),
        opt("instance", "name", "gm or centroid (default centroid)"),
        opt("n", "count", "peers (default 16)"),
        opt("k", "count", "collections per peer (default 3)"),
        opt("topology", "name", "complete, ring, grid, star or cycle (default complete)"),
        opt("tick-ms", "number", "gossip period in ms (default 2)"),
        opt("tol", "number", "convergence dispersion threshold (default 0.05)"),
        opt("max-secs", "number", "wall-clock bound in seconds (default 30)"),
        opt("seed", "seed", "RNG seed (default 42)"),
        opt("values", "path", "CSV of input vectors, one per line"),
        switch("csv", "CSV output instead of markdown"),
        opt("faults", "spec", "fault plan, e.g. partition@200ms-1s:0-3;crash@500ms:2+300ms"),
        opt("fault-seed", "seed", "fault-plan seed (default: --seed)"),
        opt("adversaries", "spec", "Byzantine liars, e.g. cartel@4,13:shift=1.2;sigma=1 (implies --defense)"),
        opt("adversary-seed", "seed", "adversary-plan seed (default: --seed)"),
        opt("drift", "spec", "sensor re-reads, e.g. step@300ms:0-3=5.0,5.0;decay=1/2"),
        opt("drift-seed", "seed", "drift-schedule seed (default: --seed)"),
        opt("churn", "spec", "joins and leaves, e.g. join@400ms:16=5.0,5.0;leave@600ms:3"),
        opt("churn-seed", "seed", "churn-plan seed (default: --seed)"),
        switch("defense", "Byzantine defenses on, without scripted adversaries"),
        switch("no-defense", "run scripted adversaries undefended"),
        opt("audit-every", "count", "audit probe cadence in ticks (default 10)"),
        switch("audit", "run the grain auditor (implied by adversaries, defense, drift, churn)"),
        opt("trace", "path", "write a JSONL event trace (replay it with report)"),
        opt("trace-cap-mb", "count", "end the trace with a truncation marker at this size (0: no cap)"),
        opt("metrics-json", "path", "write the run summary as JSON"),
        opt("metrics-prom", "path", "write the metrics registry in Prometheus text format"),
        opt("dash-listen", "address", "serve the live console during the run, e.g. 127.0.0.1:9184"),
        opt("profile", "path", "write the phase profile as JSON (see prof-report)"),
        opt("profile-folded", "path", "write collapsed stacks (flamegraph.pl input)"),
    ] },
    Command { name: "report", operand: Some("trace.jsonl"),
        about: "replay a --trace file once: trace, causal, byz and dyn sections", flags: &[
        switch("json", "one JSON object: {trace, causal, byz, dyn, clean}"),
        switch("dot", "Graphviz DOT of the causal DAG instead"),
        opt("window", "count", "convergence window, samples (default 5; dyn 3)"),
        opt("delta-tol", "number", "convergence delta tolerance (default 1e-3)"),
        opt("level", "number", "converged dispersion level (default 0.05; dyn 0.01)"),
    ] },
    Command { name: "prof-report", operand: Some("profile.json"),
        about: "inspect a --profile file: busy/idle per thread, phase quantiles", flags: &[
        switch("json", "lossless profile JSON"),
        switch("collapsed", "collapsed stacks (flamegraph.pl input)"),
    ] },
    Command { name: "help", operand: None, about: "this text", flags: &[] },
];

fn usage() -> String {
    let mut text = String::from("usage: distclass <command> [options]\n\ncommands:\n");
    for cmd in COMMANDS {
        let operand = cmd.operand.map_or(String::new(), |o| format!(" <{o}>"));
        text += &format!("  {}{operand}  {}\n", cmd.name, cmd.about);
        for Flag(name, value, help) in cmd.flags {
            let spec = value.map_or(format!("--{name}"), |v| format!("--{name} <{v}>"));
            text += &format!("    {spec:<25} {help}\n");
        }
    }
    text + "report and prof-report exit 0 when clean, 2 on anomalies, 1 on usage or IO errors\n"
}

/// A parsed command line, checked against its command's flag table.
struct Args {
    cmd: &'static Command,
    operand: Option<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let name = argv.next().unwrap_or_else(|| "help".into());
        let name = if name == "--help" { "help" } else { &name };
        let cmd = (COMMANDS.iter().find(|c| c.name == name))
            .ok_or_else(|| format!("unknown command {name}\n{}", usage()))?;
        let (mut operand, mut flags) = (None, Vec::new());
        let mut argv = argv.peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if cmd.operand.is_none() || operand.is_some() {
                    return Err(format!("{}: unexpected argument {arg}", cmd.name));
                }
                operand = Some(arg);
                continue;
            };
            let Some(Flag(flag, value, _)) = cmd.flags.iter().find(|f| f.0 == name) else {
                return Err(format!(
                    "{}: unknown flag --{name} (`distclass help` lists the flags)",
                    cmd.name
                ));
            };
            let value = match value {
                None => None,
                Some(kind) => match argv.next_if(|v| !v.starts_with("--")) {
                    Some(v) if !v.trim().is_empty() => Some(v),
                    _ => return Err(format!("--{flag} needs a non-empty {kind}")),
                },
            };
            flags.push((*flag, value));
        }
        Ok(Args {
            cmd,
            operand,
            flags,
        })
    }

    fn find(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.0 == name),
            "--{name} is not in {}'s flag table",
            self.cmd.name
        );
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.find(name).and_then(Option::as_deref)
    }

    fn has(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    /// The file the command reads.
    fn operand(&self) -> Result<&str, String> {
        let what = self.cmd.operand.unwrap_or("file");
        (self.operand.as_deref()).ok_or_else(|| format!("{} needs a <{what}>", self.cmd.name))
    }
}

/// Writes command output to stdout. A reader that closes it early
/// (`| head -c1`) is not an error: the rest of the output is dropped, and
/// the command still finishes its work and keeps its exit code.
fn emit(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {e}"))
        }
        _ => Ok(()),
    }
}

/// `println!` through [`emit`]; an error returns from the caller.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))?
    };
}

/// A report's exit code: 0 when clean, 2 when it flags anomalies.
fn verdict(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
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

/// The input readings (`--values`, or `n` synthesized ones) and the
/// topology over them. The grid builder may round the node count (to the
/// nearest square), so the readings follow the topology it produces.
fn inputs(args: &Args, topology_name: &str, n: usize) -> Result<(Vec<Vector>, Topology), String> {
    match args.flag("values") {
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
            Ok((values, topology))
        }
        None => {
            let topology = build_topology(topology_name, n)?;
            let seed = args.get("seed", 42)?;
            let values = sample_mixture(topology.len(), &figure2_components(), seed).0;
            Ok((values, topology))
        }
    }
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let n: usize = args.get("n", 200)?;
    let k: usize = args.get("k", 3)?;
    let rounds: u64 = args.get("rounds", 40)?;
    let seed: u64 = args.get("seed", 42)?;
    let topology_name = args.flag("topology").unwrap_or("complete");
    let instance_name = args.flag("instance").unwrap_or("gm");

    let (values, topology) = inputs(args, topology_name, n)?;
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

    say!(
        "# classification after {rounds_run} rounds ({instance_name}, k={k}, {topology_name}, n={n})\n"
    );
    emit(&if args.has("csv") {
        table.to_csv()
    } else {
        table.to_markdown()
    })?;
    say!(
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
    // Flag hygiene: contradictory combinations are user errors, not runs
    // with surprising defaults.
    if args.has("defense") && args.has("no-defense") {
        return Err("--defense and --no-defense contradict each other; pass at most one".into());
    }

    let (values, topology) = inputs(args, topology_name, n)?;
    let n = values.len();
    let fault_seed: u64 = args.get("fault-seed", seed)?;
    let plan = match args.flag("faults") {
        Some(spec) => {
            Some(FaultPlan::parse(spec, fault_seed).map_err(|e| format!("--faults: {e}"))?)
        }
        None => None,
    };
    let adversary_seed: u64 = args.get("adversary-seed", seed)?;
    let adversaries = match args.flag("adversaries") {
        Some(spec) => Some(Arc::new(
            AdversaryPlan::parse(spec, adversary_seed)
                .map_err(|e| format!("--adversaries: {e}"))?,
        )),
        None => None,
    };
    let drift_seed: u64 = args.get("drift-seed", seed)?;
    let drift = match args.flag("drift") {
        Some(spec) => Some(Arc::new(
            DriftSchedule::parse(spec, drift_seed).map_err(|e| format!("--drift: {e}"))?,
        )),
        None => None,
    };
    let churn_seed: u64 = args.get("churn-seed", seed)?;
    let churn = match args.flag("churn") {
        Some(spec) => Some(Arc::new(
            ChurnPlan::parse(spec, churn_seed).map_err(|e| format!("--churn: {e}"))?,
        )),
        None => None,
    };
    // Each plan's flag is its name in the error, with dashes.
    check_plan_nodes(
        n,
        plan.as_ref(),
        adversaries.as_deref(),
        drift.as_deref(),
        churn.as_deref(),
    )
    .map_err(|e| format!("--{e}"))?;
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
    // otherwise every handle stays a no-op.
    let dash_listen = args.flag("dash-listen").map(str::to_string);
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
        // ground truth `report`'s byz section reconciles minted weight
        // against, and its dyn section injected/forgotten grains.
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

    say!(
        "# {n} peers over {transport} ({instance_name}, k={k}, {topology_name}, tick {tick_ms}ms)\n"
    );
    if let Some(plan) = &plan {
        say!(
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
        say!(
            "adversary plan (seed {adversary_seed}, digest {:016x}): {} adversaries \
             ({:?}), defenses {}\n",
            plan.digest(),
            plan.adversaries().len(),
            plan.adversaries(),
            if defense.is_some() { "on" } else { "OFF" },
        );
    }
    if let Some(d) = &drift {
        say!(
            "drift schedule (seed {drift_seed}, digest {:016x}): {} re-read event(s), \
             decay {}/{}\n",
            d.digest(),
            d.events.len(),
            d.decay.0,
            d.decay.1,
        );
    }
    if let Some(c) = &churn {
        say!(
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

/// `report`: one pass over a `--trace` JSONL file feeds the trace,
/// causal, byz and dyn folds. The verdict is clean only when all four
/// sections are: exit 0, else 2 (1 on usage or IO errors), so CI can gate
/// on trace health without parsing the output.
fn cmd_report(args: &Args) -> Result<ExitCode, String> {
    let path = args.operand()?;
    let (json, dot) = (args.has("json"), args.has("dot"));
    if json && dot {
        return Err("--json and --dot contradict each other; pass at most one".into());
    }
    // The rule flags set every section's convergence rule; each section
    // keeps its own default for a flag that is absent.
    let (a, d) = (AnalyzeOptions::default(), DynOptions::default());
    let opts = AnalyzeOptions {
        window: args.get("window", a.window)?,
        delta_tol: args.get("delta-tol", a.delta_tol)?,
        level: args.get("level", a.level)?,
    };
    let dyn_opts = DynOptions {
        window: args.get("window", d.window)?,
        delta_tol: args.get("delta-tol", d.delta_tol)?,
        level: args.get("level", d.level)?,
    };
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (mut t, mut c, mut b, mut y) = (
        TraceReport::fold(&opts),
        CausalReport::fold(&opts),
        ByzReport::fold(),
        DynReport::fold(&dyn_opts),
    );
    // The DOT view draws every vertex, so only it keeps the whole trace.
    let mut events = Vec::new();
    let unknown = read_jsonl(BufReader::new(file), |ev| {
        t.on_event(&ev);
        c.on_event(&ev);
        b.on_event(&ev);
        y.on_event(&ev);
        if dot {
            events.push(ev);
        }
    })
    .map_err(|e| format!("{path}: {e}"))?;
    let (t, c, b, y) = (
        t.finish(unknown),
        c.finish(unknown),
        b.finish(unknown),
        y.finish(unknown),
    );
    let sections = [
        ("trace", t.clean()),
        ("causal", c.clean()),
        ("byz", b.clean()),
        ("dyn", y.clean()),
    ];
    let anomalous: Vec<&str> = sections
        .into_iter()
        .filter_map(|(name, clean)| (!clean).then_some(name))
        .collect();
    let clean = anomalous.is_empty();
    emit(&if dot {
        CausalReport::to_dot(&events, &opts)
    } else if json {
        let doc = Json::Obj(vec![
            field("trace", t.to_json()),
            field("causal", c.to_json()),
            field("byz", b.to_json()),
            field("dyn", y.to_json()),
            field("clean", Json::Bool(clean)),
        ]);
        format!("{doc}\n")
    } else if clean {
        format!("{t}{c}{b}{y}report: CLEAN\n")
    } else {
        format!(
            "{t}{c}{b}{y}report: ANOMALIES in {}\n",
            anomalous.join(", ")
        )
    })?;
    Ok(verdict(clean))
}

/// `prof-report`: inspect a `--profile` JSON file. Text output shows the
/// per-thread busy/idle accounting and per-phase quantile summary;
/// `--json` re-emits the lossless document and `--collapsed` the
/// flamegraph.pl input. Exit 0 when the accounting identities hold, 2
/// when the profile carries anomalies, 1 on usage/IO errors.
fn cmd_prof_report(args: &Args) -> Result<ExitCode, String> {
    let path = args.operand()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = ProfileReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    emit(&if args.has("collapsed") {
        report.to_collapsed()
    } else if args.has("json") {
        format!("{}\n", report.to_json())
    } else {
        report.to_string()
    })?;
    Ok(verdict(report.clean()))
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
                field("wait_us", unum(totals.wait_us)),
                field("transit_us", unum(totals.transit_us)),
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
        Some(t) => say!("converged after {t:?} (wall {:?})", report.wall),
        None => say!(
            "did not converge within {:?} (wall {:?})",
            config.max_wall,
            report.wall
        ),
    }
    say!(
        "drained: {}; final dispersion: {}",
        report.drained,
        f(report.final_dispersion)
    );
    if !report.convicted.is_empty() {
        say!("convicted (quarantined) peers: {:?}", report.convicted);
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
    say!(
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
    emit(&if csv {
        table.to_csv()
    } else {
        table.to_markdown()
    })?;
    for node in &report.nodes {
        if let Some(err) = &node.error {
            say!("node {} panic: {err}", node.id);
        }
    }
    let totals = report.total_metrics();
    say!("\ncluster totals: {totals}");
    if let Some(audit) = &report.audit {
        say!("\n## audit\n\n{audit}");
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
    say!(
        "{n} sensors, {} density-outliers, delta {delta}",
        flags.iter().filter(|&&o| o).count()
    );
    say!(
        "robust mean:  {} (error {})",
        robust,
        f(robust.distance(&truth))
    );
    let plain_error = push
        .mean_error(&truth)
        .ok_or("push-sum network has no live nodes")?;
    say!(
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
    emit(&table.to_markdown())
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| match args.cmd.name {
        "classify" => cmd_classify(&args).map(|()| ExitCode::SUCCESS),
        "robust-average" => cmd_robust_average(&args).map(|()| ExitCode::SUCCESS),
        "topologies" => cmd_topologies(&args).map(|()| ExitCode::SUCCESS),
        "run-cluster" => cmd_run_cluster(&args).map(|()| ExitCode::SUCCESS),
        "report" => cmd_report(&args),
        "prof-report" => cmd_prof_report(&args),
        _ => emit(&usage()).map(|()| ExitCode::SUCCESS),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
