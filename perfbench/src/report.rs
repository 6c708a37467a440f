//! Turning units into the named metrics of `BENCHMARK.json`.

use distclass_obs::Phase;

use crate::measure::{better_quartile, median, quantile_u64};
use crate::workloads::{Layers, Unit};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The units that passed their check; all units if none did (the run is
/// then reported incorrect anyway).
fn passed(units: &[Unit]) -> Vec<&Unit> {
    let ok: Vec<&Unit> = units.iter().filter(|u| u.failure.is_none()).collect();
    if ok.is_empty() {
        units.iter().collect()
    } else {
        ok
    }
}

/// The mean over inputs of each input's [`better_quartile`] of `f` over
/// its passed units.
///
/// Machine noise only ever makes a unit worse, in bursts of seconds, so
/// the better-side quartile tracks the code more closely than the median:
/// it is the best unit when an input has few (every unit of a `RoundSim`
/// input does the same work), and not an extreme one when it has many
/// (`cluster_gm`'s work varies with thread timing). Inputs differ in work,
/// so averaging per-input figures keeps a run's figure from depending on
/// how many units of each fitted in it.
pub fn mean_over_inputs(
    per_input: &[Vec<Unit>],
    lower_is_better: bool,
    f: impl Fn(&Unit) -> f64,
) -> f64 {
    let per: Vec<f64> = per_input
        .iter()
        .filter(|units| !units.is_empty())
        .map(|units| {
            let xs: Vec<f64> = passed(units).into_iter().map(&f).collect();
            better_quartile(&xs, lower_is_better)
        })
        .collect();
    if per.is_empty() {
        0.0
    } else {
        per.iter().sum::<f64>() / per.len() as f64
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics: `setup_s` as the median of every unit's set-up
/// time, the process's peak RSS, and every other metric through
/// [`mean_over_inputs`].
///
/// The result line must carry every declared metric, so a metric that
/// belongs to another workload gets a stand-in here (see `README.md`):
/// 1 for `ll_gap` (no gap) and `trace_mb`, and the workload's own
/// `wall_s` and `node_rounds_per_s` for `replay_s` and
/// `replay_events_per_s`. A
/// stand-in either never moves or moves exactly with a metric that is
/// already bounded, so it adds no constraint of its own.
pub fn end_to_end(per_input: &[Vec<Unit>], peak_rss_mib: f64) -> Vec<Metric> {
    let stat = |f: fn(&Unit) -> f64| mean_over_inputs(per_input, true, f);
    let rate = |f: fn(&Unit) -> f64| mean_over_inputs(per_input, false, f);
    let setups: Vec<f64> = per_input.iter().flatten().map(|u| u.setup_s).collect();
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", stat(|u| u.wall_s), "s"),
        metric("cpu_s", stat(|u| u.cpu_s), "s"),
        metric(
            "node_rounds_per_s",
            rate(|u| u.counts.node_rounds / u.wall_s),
            "1/s",
        ),
        metric("rounds", stat(|u| u.counts.rounds), "count"),
        metric("msgs_per_node", stat(|u| u.counts.msgs_per_node), "count"),
        metric("bytes_per_node", stat(|u| u.counts.bytes_per_node), "B"),
        metric("converge_ms", stat(|u| u.converge_ms), "ms"),
        metric("ll_gap", stat(|u| u.counts.ll_gap.unwrap_or(1.0)), "ratio"),
        metric("replay_s", stat(|u| u.replay_s.unwrap_or(u.wall_s)), "s"),
        metric(
            "replay_events_per_s",
            rate(|u| match (u.counts.trace_events, u.replay_s) {
                (Some(events), Some(s)) => events as f64 / s,
                _ => u.counts.node_rounds / u.wall_s,
            }),
            "1/s",
        ),
        metric(
            "trace_mb",
            stat(|u| u.counts.trace_bytes.map_or(1.0, |b| b as f64 / MIB)),
            "MiB",
        ),
        metric("peak_rss_mb", peak_rss_mib, "MiB"),
    ]
}

/// Runtime phases reported per peer, as `runtime.phase.<name>.self_ms`.
const PEER_PHASES: [Phase; 8] = [
    Phase::Tick,
    Phase::Recv,
    Phase::Decode,
    Phase::Merge,
    Phase::Encode,
    Phase::Enqueue,
    Phase::Retry,
    Phase::Checkpoint,
];

/// The per-layer metrics of a traced run: per-unit averages of the layer
/// records (0 where a layer does not run on the workload), and the
/// tracing overhead `traced wall ÷ untraced wall`.
pub fn per_layer(l: &Layers, traced_wall_s: f64, plain_wall_s: f64) -> Vec<Metric> {
    let units = f64::from(l.units.max(1));
    let per_unit = |x: f64| x / units;
    let ms = |ns: u64| ns as f64 * 1e-6 / units;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let us_q = |xs: &[u64], q: f64| quantile_u64(&mut xs.to_vec(), q) as f64 * 1e-3;

    let c = &l.core;
    let partition_ns = c.partition_total_ns();
    let round_total_ns: u64 = l.round_ns.iter().sum();
    // Round time outside the core calls; the core calls of the RoundSim
    // workloads all happen inside `run_round`.
    let round_self_ns = if l.round_ns.is_empty() {
        0
    } else {
        round_total_ns.saturating_sub(partition_ns + c.merge_ns)
    };
    let n = &l.net;
    let mut out = vec![
        metric(
            "core.partition.calls",
            per_unit(c.partition_ns.len() as f64),
            "count",
        ),
        metric("core.partition.ms", ms(partition_ns), "ms"),
        metric("core.partition.us_p50", us_q(&c.partition_ns, 0.5), "us"),
        metric("core.partition.us_p99", us_q(&c.partition_ns, 0.99), "us"),
        metric(
            "core.partition.input_len_mean",
            ratio(c.partition_inputs, c.partition_ns.len() as u64),
            "count",
        ),
        metric(
            "core.partition.reducing_share",
            ratio(c.reducing, c.partition_ns.len() as u64),
            "ratio",
        ),
        metric(
            "core.merge_set.calls",
            per_unit(c.merge_calls as f64),
            "count",
        ),
        metric("core.merge_set.ms", ms(c.merge_ns), "ms"),
        metric(
            "gossip.round.calls",
            per_unit(l.round_ns.len() as f64),
            "count",
        ),
        metric("gossip.round.ms", ms(round_total_ns), "ms"),
        metric("gossip.round.ms_p50", us_q(&l.round_ns, 0.5) * 1e-3, "ms"),
        metric("gossip.round.ms_p90", us_q(&l.round_ns, 0.9) * 1e-3, "ms"),
        metric("gossip.round.self_ms", ms(round_self_ns), "ms"),
        metric("net.tick.self_ms", ms(l.tick_self_ns), "ms"),
        metric("net.em_reduce.ms", ms(l.em_reduce_ns), "ms"),
        metric(
            "net.msgs_per_round",
            ratio(l.round_msgs, l.round_ns.len() as u64),
            "count",
        ),
        metric("net.bytes_per_msg", ratio(l.round_bytes, l.round_msgs), "B"),
        metric(
            "runtime.send.calls",
            per_unit(n.send_ns.len() as f64),
            "count",
        ),
        metric("runtime.send.us_p50", us_q(&n.send_ns, 0.5), "us"),
        metric("runtime.send.us_p99", us_q(&n.send_ns, 0.99), "us"),
        metric("runtime.recv.calls", per_unit(n.recv_calls as f64), "count"),
        metric(
            "runtime.recv.hit_share",
            ratio(n.recv_hits, n.recv_calls),
            "ratio",
        ),
        metric("runtime.recv.wait_ms", ms(n.recv_wait_ns), "ms"),
        metric("runtime.frames.data", per_unit(n.data as f64), "count"),
        metric("runtime.frames.ack", per_unit(n.ack as f64), "count"),
        metric("runtime.frames.other", per_unit(n.other as f64), "count"),
        metric("runtime.retry_share", ratio(n.retries, n.data), "ratio"),
        metric("runtime.dup_share", ratio(n.dups, n.data_received), "ratio"),
    ];
    for p in PEER_PHASES {
        out.push(metric(
            format!("runtime.phase.{}.self_ms", p.as_str()),
            ms(l.peer_self_ns[p.as_index()]),
            "ms",
        ));
    }
    out.extend([
        metric(
            "runtime.peer.busy_share",
            ratio(l.peer_busy_ns, l.peer_lifetime_ns),
            "ratio",
        ),
        metric("runtime.supervisor.busy_ms", ms(l.supervisor_busy_ns), "ms"),
        metric(
            "obs.sink.record.calls",
            per_unit(l.record_ns.len() as f64),
            "count",
        ),
        metric("obs.sink.record.ms", ms(l.record_ns.iter().sum()), "ms"),
        metric("obs.sink.record.us_p99", us_q(&l.record_ns, 0.99), "us"),
        metric(
            "obs.bytes_per_event",
            ratio(l.trace_bytes, l.trace_events),
            "B",
        ),
        metric("obs.replay.read_ms", ms(l.read_ns), "ms"),
        metric("obs.replay.trace.ms", ms(l.report_ns[0]), "ms"),
        metric("obs.replay.causal.ms", ms(l.report_ns[1]), "ms"),
        metric("obs.replay.byz.ms", ms(l.report_ns[2]), "ms"),
        metric("obs.replay.dyn.ms", ms(l.report_ns[3]), "ms"),
        metric(
            "bench.trace_overhead",
            if plain_wall_s > 0.0 {
                traced_wall_s / plain_wall_s
            } else {
                0.0
            },
            "ratio",
        ),
    ]);
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}
