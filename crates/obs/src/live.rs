//! The live operations console: an in-process aggregator fed from the
//! trace stream, served over HTTP while the cluster runs.
//!
//! Offline analysis (`analyze`, `causal`, `dynrep`) answers every
//! question *after* a run; this module answers them *during* one. A
//! [`LiveAggregator`] taps the supervisor's trace path (via
//! [`crate::Tracer::tee`]) and folds events into a bounded, queryable
//! view: the telemetry series with convergence episodes, running grain
//! totals from durable checkpoints, tribunal state, an online
//! causal-depth histogram, and hop wait/transit totals. [`LiveConsole`]
//! exposes that view through the routed [`HttpServer`]:
//!
//! * `GET /` — a dependency-free embedded HTML/JS dashboard;
//! * `GET /metrics` — the Prometheus page, byte-identical to the
//!   original scrape-only endpoint's;
//! * `GET /snapshot.json` — the full aggregator state as one JSON
//!   document;
//! * `GET /events?since=<id>` — long-poll stream of new telemetry
//!   samples from a bounded ring, with an explicit drop counter so a
//!   slow consumer knows what it missed.
//!
//! Everything is `std`-only, like the rest of the crate.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::analyze::AnalyzeOptions;
use crate::event::{GrainOp, TraceEvent};
use crate::json::{field, num, unum, Json};
use crate::metrics::{
    bucket_upper_bound, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry,
};
use crate::prof::Profiler;
use crate::prom::{render, HttpHandler, HttpResponse, HttpServer, PROM_CONTENT_TYPE};
use crate::sink::TraceSink;
use crate::telemetry::{TelemetrySample, TelemetrySeries};

/// Samples kept for `/events` consumers. Oldest are evicted (and
/// counted) when a consumer falls further behind than this.
const EVENT_RING_CAP: usize = 1024;

/// Hard cap on the retained telemetry series: at the supervisor's 25 ms
/// status cadence this is over 20 minutes of run. Beyond it the series
/// stops growing (episodes would be distorted by decimation) and the
/// snapshot flags the truncation.
const SERIES_CAP: usize = 65_536;

/// Most recent samples embedded in `/snapshot.json`; incremental
/// consumers follow `/events` instead of re-reading the full series.
const SNAPSHOT_TAIL: usize = 2_048;

/// How long `/events` parks before answering empty-handed.
const LONG_POLL_WAIT: Duration = Duration::from_millis(1_500);

/// Running grain totals folded from durable checkpoints and voids — the
/// live view of the ledger the auditor settles at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunningTotals {
    split: u64,
    merged: u64,
    returned: u64,
    voided_split: u64,
    voided_merged: u64,
    voided_returned: u64,
    voided_injected: u64,
    voided_forgotten: u64,
}

/// The auditor's final verdict, mirrored verbatim from the
/// `AuditSummary` trace event so the snapshot reconciles exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FinalAudit {
    initial: u64,
    final_grains: u64,
    gains: u64,
    losses: u64,
    injected: u64,
    forgotten: u64,
    exact: bool,
    conserved: bool,
}

#[derive(Default)]
struct LiveState {
    nodes: Option<usize>,
    initial_grains: Option<u64>,
    series: TelemetrySeries,
    series_truncated: bool,
    /// `(id, sample)` ring for `/events`; ids are assigned densely from 0.
    ring: VecDeque<(u64, TelemetrySample)>,
    next_id: u64,
    dropped: u64,
    totals: RunningTotals,
    audit: Option<FinalAudit>,
    strikes: BTreeMap<usize, u64>,
    convicted: Vec<usize>,
    /// Online causal-depth recurrence (the merge-depth rule of
    /// [`crate::causal`]): per-node depth and per-open-span depth.
    node_depth: HashMap<usize, u64>,
    span_depth: HashMap<(usize, u64, u64), u64>,
    hops: u64,
    wait_us_total: u64,
    transit_us_total: u64,
}

/// Folds trace events into the live view served by [`LiveConsole`].
///
/// Implements [`TraceSink`], so the supervisor attaches it with
/// [`crate::Tracer::tee`] — the JSONL trace (if any) is untouched and
/// peers keep emitting through the one tracer handle they already hold.
pub struct LiveAggregator {
    rule: AnalyzeOptions,
    state: Mutex<LiveState>,
    /// Woken on every new telemetry sample; `/events` parks here.
    wake: Condvar,
    /// Standalone (unregistered) histogram of merge causal depths.
    depth_hist: Histogram,
}

impl LiveAggregator {
    /// An empty aggregator applying `rule`, the offline reports'
    /// convergence rule, to its episode segmentation.
    pub fn new(rule: AnalyzeOptions) -> Self {
        LiveAggregator {
            rule,
            state: Mutex::new(LiveState::default()),
            wake: Condvar::new(),
            depth_hist: Histogram::standalone(),
        }
    }

    fn push_sample(&self, sample: TelemetrySample) {
        let mut s = self.state.lock().expect("live state lock");
        let id = s.next_id;
        s.next_id += 1;
        if s.ring.len() == EVENT_RING_CAP {
            s.ring.pop_front();
            s.dropped += 1;
        }
        s.ring.push_back((id, sample.clone()));
        if s.series.len() < SERIES_CAP {
            s.series.push(sample);
        } else {
            s.series_truncated = true;
        }
        drop(s);
        self.wake.notify_all();
    }

    /// Total telemetry samples seen so far.
    pub fn sample_count(&self) -> u64 {
        self.state.lock().expect("live state lock").next_id
    }

    /// Samples evicted from the `/events` ring so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("live state lock").dropped
    }

    /// The current state as one JSON document — the body of
    /// `GET /snapshot.json` (minus the per-link section, which needs the
    /// metrics registry and is merged in by [`LiveConsole`]).
    pub fn snapshot_json(&self) -> Json {
        let s = self.state.lock().expect("live state lock");
        let episodes = s
            .series
            .episodes(self.rule.window, self.rule.delta_tol, self.rule.level)
            .into_iter()
            .map(|ep| {
                Json::Obj(vec![
                    field("settled_round", unum(ep.settled_round)),
                    field("lost_round", ep.lost_round.map_or(Json::Null, unum)),
                    field("settle_rounds", unum(ep.settle_rounds)),
                ])
            })
            .collect();
        let tail_start = s.series.len().saturating_sub(SNAPSHOT_TAIL);
        let samples = s.series.samples[tail_start..]
            .iter()
            .map(TelemetrySample::to_json)
            .collect();
        let t = &s.totals;
        let audit_running = Json::Obj(vec![
            field("split", unum(t.split)),
            field("merged", unum(t.merged)),
            field("returned", unum(t.returned)),
            field("voided_split", unum(t.voided_split)),
            field("voided_merged", unum(t.voided_merged)),
            field("voided_returned", unum(t.voided_returned)),
            field("voided_injected", unum(t.voided_injected)),
            field("voided_forgotten", unum(t.voided_forgotten)),
        ]);
        let audit = s.audit.as_ref().map_or(Json::Null, |a| {
            Json::Obj(vec![
                field("initial", unum(a.initial)),
                field("final_grains", unum(a.final_grains)),
                field("gains", unum(a.gains)),
                field("losses", unum(a.losses)),
                field("injected", unum(a.injected)),
                field("forgotten", unum(a.forgotten)),
                field("exact", Json::Bool(a.exact)),
                field("conserved", Json::Bool(a.conserved)),
            ])
        });
        let tribunal = Json::Obj(vec![
            field(
                "strikes",
                Json::Arr(
                    s.strikes
                        .iter()
                        .map(|(node, n)| {
                            Json::Obj(vec![
                                field("node", unum(*node as u64)),
                                field("strikes", unum(*n)),
                            ])
                        })
                        .collect(),
                ),
            ),
            field(
                "convicted",
                Json::Arr(s.convicted.iter().map(|n| unum(*n as u64)).collect()),
            ),
        ]);
        let hops = Json::Obj(vec![
            field("count", unum(s.hops)),
            field("wait_us_total", unum(s.wait_us_total)),
            field("transit_us_total", unum(s.transit_us_total)),
            field(
                "wait_ms_mean",
                if s.hops == 0 {
                    Json::Null
                } else {
                    num(s.wait_us_total as f64 / s.hops as f64 / 1e3)
                },
            ),
            field(
                "transit_ms_mean",
                if s.hops == 0 {
                    Json::Null
                } else {
                    num(s.transit_us_total as f64 / s.hops as f64 / 1e3)
                },
            ),
        ]);
        Json::Obj(vec![
            field("nodes", s.nodes.map_or(Json::Null, |n| unum(n as u64))),
            field("initial_grains", s.initial_grains.map_or(Json::Null, unum)),
            field("sample_count", unum(s.next_id)),
            field("dropped", unum(s.dropped)),
            field("series_truncated", Json::Bool(s.series_truncated)),
            field(
                "latest",
                s.series.last().map_or(Json::Null, |l| l.to_json()),
            ),
            field("samples", Json::Arr(samples)),
            field("episodes", Json::Arr(episodes)),
            field("audit_running", audit_running),
            field("audit", audit),
            field("tribunal", tribunal),
            field("depth_hist", histogram_json(&self.depth_hist.snapshot())),
            field("hops", hops),
        ])
    }

    /// Answers one `/events` poll: samples with id ≥ `since`, the next
    /// cursor, and the cumulative drop counter. Parks up to
    /// `LONG_POLL_WAIT` (1.5 s) when nothing new has arrived yet.
    pub fn poll_events(&self, since: u64) -> Json {
        let mut s = self.state.lock().expect("live state lock");
        let deadline = std::time::Instant::now() + LONG_POLL_WAIT;
        while s.next_id <= since {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(s, deadline - now)
                .expect("live state lock");
            s = guard;
        }
        let samples: Vec<Json> = s
            .ring
            .iter()
            .filter(|(id, _)| *id >= since)
            .map(|(_, sample)| sample.to_json())
            .collect();
        Json::Obj(vec![
            field("next", unum(s.next_id)),
            field("dropped", unum(s.dropped)),
            field("samples", Json::Arr(samples)),
        ])
    }
}

impl TraceSink for LiveAggregator {
    fn record(&self, event: &TraceEvent) {
        match event {
            TraceEvent::ClusterStarted {
                nodes,
                initial_grains,
            } => {
                let mut s = self.state.lock().expect("live state lock");
                s.nodes = Some(*nodes);
                s.initial_grains = Some(*initial_grains);
            }
            TraceEvent::Telemetry(sample) => self.push_sample(sample.clone()),
            TraceEvent::ClusterTelemetry {
                elapsed_ms,
                live,
                dispersion,
                unix_ms,
            } => {
                // Same shape the dyn report uses when replaying supervisor
                // telemetry: elapsed milliseconds stand in for the round.
                self.push_sample(TelemetrySample {
                    round: *elapsed_ms as u64,
                    live: *live,
                    classifications_mean: 0.0,
                    classifications_max: 0,
                    weight_spread: 0.0,
                    mean_error: None,
                    max_error: None,
                    dispersion: Some(*dispersion),
                    unix_ms: *unix_ms,
                });
            }
            TraceEvent::PeerCheckpoint {
                split,
                merged,
                returned,
                ..
            } => {
                let mut s = self.state.lock().expect("live state lock");
                s.totals.split += split;
                s.totals.merged += merged;
                s.totals.returned += returned;
            }
            TraceEvent::GrainsVoided {
                split,
                merged,
                returned,
                injected,
                forgotten,
                ..
            } => {
                let mut s = self.state.lock().expect("live state lock");
                s.totals.voided_split += split;
                s.totals.voided_merged += merged;
                s.totals.voided_returned += returned;
                s.totals.voided_injected += injected;
                s.totals.voided_forgotten += forgotten;
            }
            TraceEvent::GrainDelta {
                node,
                incarnation,
                op,
                peer,
                seq,
                span_inc,
                span_seq,
                wait_us,
                transit_us,
                ..
            } => {
                let mut s = self.state.lock().expect("live state lock");
                match op {
                    GrainOp::Split => {
                        if let Some(seq) = seq {
                            let depth = s.node_depth.get(node).copied().unwrap_or(0);
                            s.span_depth
                                .insert((*node, u64::from(*incarnation), *seq), depth);
                        }
                    }
                    GrainOp::Merge => {
                        if let (Some(span_inc), Some(span_seq)) = (span_inc, span_seq) {
                            // The parent span was opened by `peer`'s split.
                            if let Some(parent) =
                                s.span_depth.remove(&(*peer, *span_inc, *span_seq))
                            {
                                let depth =
                                    (parent + 1).max(s.node_depth.get(node).copied().unwrap_or(0));
                                s.node_depth.insert(*node, depth);
                                self.depth_hist.observe(depth);
                            }
                        }
                        if let (Some(w), Some(t)) = (wait_us, transit_us) {
                            s.hops += 1;
                            s.wait_us_total = s.wait_us_total.saturating_add(*w);
                            s.transit_us_total = s.transit_us_total.saturating_add(*t);
                        }
                    }
                    GrainOp::Return => {
                        // The span came home unconsumed; drop its entry.
                        if let (Some(span_inc), Some(span_seq)) = (span_inc, span_seq) {
                            s.span_depth.remove(&(*node, *span_inc, *span_seq));
                        }
                    }
                }
            }
            TraceEvent::PeerStrike { target, .. } => {
                let mut s = self.state.lock().expect("live state lock");
                *s.strikes.entry(*target).or_insert(0) += 1;
            }
            TraceEvent::PeerConvicted {
                target, strikes, ..
            } => {
                let mut s = self.state.lock().expect("live state lock");
                s.strikes.insert(*target, *strikes);
                if !s.convicted.contains(target) {
                    s.convicted.push(*target);
                }
            }
            TraceEvent::AuditSummary {
                initial,
                final_grains,
                gains,
                losses,
                injected,
                forgotten,
                exact,
                conserved,
            } => {
                let mut s = self.state.lock().expect("live state lock");
                s.audit = Some(FinalAudit {
                    initial: *initial,
                    final_grains: *final_grains,
                    gains: *gains,
                    losses: *losses,
                    injected: *injected,
                    forgotten: *forgotten,
                    exact: *exact,
                    conserved: *conserved,
                });
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for LiveAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LiveAggregator(samples={})", self.sample_count())
    }
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|&(i, count)| {
            Json::Obj(vec![
                field("le", num(bucket_upper_bound(i))),
                field("count", unum(count)),
            ])
        })
        .collect();
    Json::Obj(vec![
        field("count", unum(h.count)),
        field("sum", unum(h.sum)),
        field("buckets", Json::Arr(buckets)),
        field("p50", finite_or_null(h.p50())),
        field("p90", finite_or_null(h.p90())),
        field("p99", finite_or_null(h.p99())),
    ])
}

fn finite_or_null(v: f64) -> Json {
    if v.is_finite() {
        num(v)
    } else {
        Json::Null
    }
}

/// Liveness state behind the console's `/healthz` route: the run phase
/// and a monotonic progress counter, updated lock-free by the
/// supervisor. External probes (CI smoke jobs, process supervisors) read
/// it without parsing the full snapshot.
#[derive(Debug, Default)]
pub struct Health {
    quiesced: AtomicBool,
    round: AtomicU64,
}

impl Health {
    /// A fresh probe target: running, at round 0.
    pub fn new() -> Health {
        Health::default()
    }

    /// Records run progress (the supervisor's monotonic round/elapsed
    /// counter — whatever "how far along" means for the run).
    pub fn set_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// Flips the state to `"quiesced"` — the drain phase has begun.
    pub fn set_quiesced(&self) {
        self.quiesced.store(true, Ordering::Relaxed);
    }

    /// The current state string, `"running"` or `"quiesced"`.
    pub fn state(&self) -> &'static str {
        if self.quiesced.load(Ordering::Relaxed) {
            "quiesced"
        } else {
            "running"
        }
    }

    /// The last recorded progress counter.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }
}

/// The routing table of the operations console: dashboard, metrics,
/// snapshot and event stream, all from one listener.
pub struct LiveConsole {
    registry: Option<Arc<MetricsRegistry>>,
    live: Option<Arc<LiveAggregator>>,
    profiler: Profiler,
    health: Option<Arc<Health>>,
}

impl LiveConsole {
    /// Starts the console on `addr`, serving `registry` (when present)
    /// on `/metrics`, the `live` aggregator on the JSON routes,
    /// `profiler`'s snapshot on `/profile.json` (404 when disabled), and
    /// `health` on `/healthz` (a disabled probe answers `"running"`/0).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Option<Arc<MetricsRegistry>>,
        live: Option<Arc<LiveAggregator>>,
        profiler: Profiler,
        health: Option<Arc<Health>>,
    ) -> io::Result<HttpServer> {
        let console = Arc::new(LiveConsole {
            registry,
            live,
            profiler,
            health,
        });
        HttpServer::start(addr, "dash-listener", console)
    }

    /// Per-link wait/transit summaries extracted from the registry's
    /// `distclass_hop_{wait,transit}_us` histogram families.
    fn links_json(&self) -> Json {
        let Some(registry) = &self.registry else {
            return Json::Arr(Vec::new());
        };
        // (peer, from) -> (wait, transit)
        let mut links: BTreeMap<(String, String), [Option<HistogramSnapshot>; 2]> = BTreeMap::new();
        for family in &registry.snapshot().families {
            let slot = match family.name.as_str() {
                "distclass_hop_wait_us" => 0,
                "distclass_hop_transit_us" => 1,
                _ => continue,
            };
            for series in &family.series {
                let MetricValue::Histogram(h) = &series.value else {
                    continue;
                };
                let label = |key: &str| {
                    series
                        .labels
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                };
                links.entry((label("peer"), label("from"))).or_default()[slot] = Some(h.clone());
            }
        }
        let side = |h: &Option<HistogramSnapshot>| {
            h.as_ref().map_or(Json::Null, |h| {
                Json::Obj(vec![
                    field("count", unum(h.count)),
                    field("mean_us", finite_or_null(h.mean())),
                    field("p50_us", finite_or_null(h.p50())),
                    field("p90_us", finite_or_null(h.p90())),
                    field("p99_us", finite_or_null(h.p99())),
                ])
            })
        };
        Json::Arr(
            links
                .iter()
                .map(|((peer, from), [wait, transit])| {
                    Json::Obj(vec![
                        field("to", Json::Str(peer.clone())),
                        field("from", Json::Str(from.clone())),
                        field("wait", side(wait)),
                        field("transit", side(transit)),
                    ])
                })
                .collect(),
        )
    }

    fn snapshot_response(&self) -> Option<HttpResponse> {
        let aggregator = self.live.as_ref()?;
        let mut doc = aggregator.snapshot_json();
        if let Json::Obj(fields) = &mut doc {
            fields.push(field("links", self.links_json()));
        }
        Some(HttpResponse::ok(
            "application/json; charset=utf-8",
            doc.to_string(),
        ))
    }

    fn events_response(&self, query: Option<&str>) -> Option<HttpResponse> {
        let aggregator = self.live.as_ref()?;
        let since = query
            .into_iter()
            .flat_map(|q| q.split('&'))
            .find_map(|kv| kv.strip_prefix("since="))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        Some(HttpResponse::ok(
            "application/json; charset=utf-8",
            aggregator.poll_events(since).to_string(),
        ))
    }

    /// `/healthz`: always 200, so a probe distinguishes "console up" from
    /// "console gone" by status alone and reads the phase from the body.
    fn healthz_response(&self) -> HttpResponse {
        let (state, round) = match &self.health {
            Some(h) => (h.state(), h.round()),
            None => ("running", 0),
        };
        let doc = Json::Obj(vec![
            field("state", Json::Str(state.to_string())),
            field("round", unum(round)),
        ]);
        HttpResponse::ok("application/json; charset=utf-8", doc.to_string())
    }

    /// `/profile.json`: a live snapshot of the phase profiler — mid-run
    /// threads appear unfinalized; the exact accounting holds once the
    /// run quiesces. 404 when no profiler is attached.
    fn profile_response(&self) -> Option<HttpResponse> {
        let core = self.profiler.core()?;
        Some(HttpResponse::ok(
            "application/json; charset=utf-8",
            core.snapshot().to_json().to_string(),
        ))
    }
}

impl HttpHandler for LiveConsole {
    fn handle(&self, path: &str, query: Option<&str>) -> Option<HttpResponse> {
        match path {
            "/" | "/index.html" => {
                Some(HttpResponse::ok("text/html; charset=utf-8", DASHBOARD_HTML))
            }
            "/metrics" => self
                .registry
                .as_ref()
                .map(|registry| HttpResponse::ok(PROM_CONTENT_TYPE, render(&registry.snapshot()))),
            "/snapshot.json" => self.snapshot_response(),
            "/events" => self.events_response(query),
            "/healthz" => Some(self.healthz_response()),
            "/profile.json" => self.profile_response(),
            _ => None,
        }
    }
}

/// The embedded dashboard: plain HTML + canvas, no external assets, so
/// it works from an air-gapped deployment with nothing but this binary.
const DASHBOARD_HTML: &str = r##"<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>distclass live console</title>
<style>
  body { font: 13px/1.4 monospace; background: #101418; color: #d7dde4; margin: 1.2em; }
  h1 { font-size: 16px; } h2 { font-size: 13px; color: #8fa3b8; margin: 1.2em 0 .3em; }
  canvas { background: #161b22; border: 1px solid #2b3440; display: block; }
  .row { display: flex; gap: 1.2em; flex-wrap: wrap; }
  .err { color: #ff7b72; }
  table { border-collapse: collapse; }
  td, th { border: 1px solid #2b3440; padding: 2px 8px; text-align: right; }
  th { color: #8fa3b8; }
</style>
</head>
<body>
<h1>distclass live console</h1>
<div id="status">connecting&hellip;</div>
<div class="row">
  <div><h2>dispersion</h2><canvas id="disp" width="420" height="160"></canvas></div>
  <div><h2>weight spread</h2><canvas id="spread" width="420" height="160"></canvas></div>
  <div><h2>live nodes</h2><canvas id="live" width="420" height="160"></canvas></div>
  <div><h2>causal depth</h2><canvas id="depth" width="420" height="160"></canvas></div>
</div>
<h2>convergence episodes</h2><div id="episodes">none yet</div>
<h2>hop latency: waiting vs transit</h2><div id="hops">no stamped hops yet</div>
<h2>phase breakdown (per thread, share of spanned time)</h2><div id="phases">no profiler attached</div>
<h2>grain ledger</h2><div id="ledger"></div>
<script>
"use strict";
let samples = [], next = 0, dropped = 0, snap = null;
const PHASE_COLORS = {tick:"#58a6ff", recv:"#3fb950", decode:"#d2a8ff", screen:"#ff7b72",
  merge:"#f0883e", em_reduce:"#eac54f", encode:"#76e3ea", enqueue:"#a5d6ff",
  retry:"#ffa198", checkpoint:"#7ee787", audit:"#e3b341", idle_wait:"#30363d"};

function line(id, pts, color, logY) {
  const c = document.getElementById(id), g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  if (!pts.length) return;
  const xs = pts.map(p => p[0]), ys = pts.map(p => logY ? Math.log10(Math.max(p[1], 1e-12)) : p[1]);
  const x0 = Math.min(...xs), x1 = Math.max(...xs, x0 + 1);
  const y0 = Math.min(...ys), y1 = Math.max(...ys, y0 + 1e-9);
  g.strokeStyle = color; g.beginPath();
  pts.forEach((p, i) => {
    const x = 6 + (c.width - 12) * (p[0] - x0) / (x1 - x0);
    const yv = logY ? Math.log10(Math.max(p[1], 1e-12)) : p[1];
    const y = c.height - 6 - (c.height - 12) * (yv - y0) / (y1 - y0);
    i ? g.lineTo(x, y) : g.moveTo(x, y);
  });
  g.stroke();
  g.fillStyle = "#8fa3b8";
  g.fillText((logY ? "log " : "") + y1.toPrecision(3), 8, 12);
  g.fillText(y0.toPrecision(3), 8, c.height - 8);
}

function bars(id, buckets, color) {
  const c = document.getElementById(id), g = c.getContext("2d");
  g.clearRect(0, 0, c.width, c.height);
  if (!buckets.length) return;
  const max = Math.max(...buckets.map(b => b.count));
  const w = Math.max(4, Math.floor((c.width - 12) / buckets.length) - 2);
  buckets.forEach((b, i) => {
    const h = Math.max(1, (c.height - 24) * b.count / max);
    g.fillStyle = color;
    g.fillRect(6 + i * (w + 2), c.height - 14 - h, w, h);
    g.fillStyle = "#8fa3b8";
    if (i % 2 === 0) g.fillText(String(b.le), 6 + i * (w + 2), c.height - 3);
  });
}

function redraw() {
  const x = s => (s.unix_ms ?? s.round);
  line("disp", samples.filter(s => s.dispersion != null).map(s => [x(s), s.dispersion]), "#58a6ff", true);
  line("spread", samples.map(s => [x(s), s.weight_spread]), "#d2a8ff", false);
  line("live", samples.map(s => [x(s), s.live]), "#3fb950", false);
  if (!snap) return;
  bars("depth", snap.depth_hist.buckets, "#f0883e");
  const eps = snap.episodes;
  document.getElementById("episodes").textContent = eps.length
    ? eps.map(e => `settled@${e.settled_round} (settle ${e.settle_rounds})` +
        (e.lost_round != null ? ` lost@${e.lost_round}` : " [holding]")).join("  |  ")
    : "none yet";
  const h = snap.hops;
  document.getElementById("hops").textContent = h.count
    ? `${h.count} hops — mean wait ${h.wait_ms_mean.toFixed(3)} ms, mean transit ${h.transit_ms_mean.toFixed(3)} ms`
    : "no stamped hops yet";
  const a = snap.audit, r = snap.audit_running;
  document.getElementById("ledger").innerHTML =
    `<table><tr><th>split</th><th>merged</th><th>returned</th><th>voided</th><th>final audit</th></tr>` +
    `<tr><td>${r.split}</td><td>${r.merged}</td><td>${r.returned}</td>` +
    `<td>${r.voided_split}/${r.voided_merged}/${r.voided_returned}</td>` +
    `<td>${a ? (a.exact ? "exact" : a.conserved ? "conserved" : "VIOLATED") : "pending"}</td></tr></table>`;
  document.getElementById("status").textContent =
    `nodes=${snap.nodes ?? "?"} samples=${snap.sample_count} dropped=${dropped}` +
    (snap.tribunal.convicted.length ? ` convicted=[${snap.tribunal.convicted}]` : "");
}

async function refreshSnapshot() {
  try {
    snap = await (await fetch("/snapshot.json")).json();
    if (next === 0) { samples = snap.samples; next = snap.sample_count; }
    redraw();
  } catch (e) {
    document.getElementById("status").innerHTML = `<span class="err">snapshot failed: ${e}</span>`;
  }
}

function renderProfile(prof) {
  const el = document.getElementById("phases");
  if (!prof || !prof.threads || !prof.threads.length) { el.textContent = "no profiler attached"; return; }
  const rows = prof.threads.map(t => {
    const total = t.phases.reduce((a, p) => a + p.total_us, 0);
    if (!total) return "";
    const segs = t.phases.map(p =>
      `<span title="${p.phase}: ${p.total_us} µs (n=${p.count})" style="display:inline-block;height:14px;` +
      `width:${(100 * p.total_us / total).toFixed(2)}%;background:${PHASE_COLORS[p.phase] || "#8fa3b8"}"></span>`).join("");
    return `<div style="margin:2px 0"><span style="display:inline-block;width:9em">${t.label}</span>` +
      `<span style="display:inline-block;width:60%;background:#161b22;border:1px solid #2b3440;font-size:0;line-height:0">${segs}</span></div>`;
  }).join("");
  el.innerHTML = (rows || "no spans recorded yet") +
    `<div style="color:#8fa3b8;margin-top:4px">` +
    Object.entries(PHASE_COLORS).map(([k, c]) => `<span style="color:${c}">■</span> ${k}`).join("  ") +
    `</div>`;
}

async function refreshProfile() {
  try {
    const r = await fetch("/profile.json");
    if (!r.ok) return;
    renderProfile(await r.json());
  } catch (e) { /* profiler off: keep the placeholder */ }
}

async function pollEvents() {
  for (;;) {
    try {
      const r = await (await fetch(`/events?since=${next}`)).json();
      next = r.next; dropped = r.dropped;
      samples.push(...r.samples);
      if (samples.length > 4096) samples.splice(0, samples.length - 4096);
      if (r.samples.length) redraw();
    } catch (e) {
      await new Promise(res => setTimeout(res, 1000));
    }
  }
}

refreshSnapshot();
refreshProfile();
setInterval(refreshSnapshot, 2000);
setInterval(refreshProfile, 2000);
pollEvents();
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::sink::Tracer;
    use std::io::{Read as _, Write as _};
    use std::net::{SocketAddr, TcpStream};

    fn telemetry(elapsed_ms: f64, live: usize, dispersion: f64) -> TraceEvent {
        TraceEvent::ClusterTelemetry {
            elapsed_ms,
            live,
            dispersion,
            unix_ms: Some(1_754_000_000_000 + elapsed_ms as u64),
        }
    }

    fn checkpoint(node: usize, split: u64, merged: u64, returned: u64) -> TraceEvent {
        TraceEvent::PeerCheckpoint {
            node,
            incarnation: 0,
            split,
            merged,
            returned,
        }
    }

    #[test]
    fn aggregator_folds_telemetry_checkpoints_and_audit() {
        let agg = LiveAggregator::new(AnalyzeOptions::default());
        agg.record(&TraceEvent::ClusterStarted {
            nodes: 4,
            initial_grains: 4096,
        });
        for i in 0..10u64 {
            agg.record(&telemetry(i as f64 * 10.0, 4, 0.5 / (i + 1) as f64));
        }
        agg.record(&checkpoint(0, 100, 90, 10));
        agg.record(&checkpoint(1, 50, 60, 0));
        agg.record(&TraceEvent::AuditSummary {
            initial: 4096,
            final_grains: 4096,
            gains: 10,
            losses: 10,
            injected: 0,
            forgotten: 0,
            exact: true,
            conserved: true,
        });
        let doc = agg.snapshot_json();
        assert_eq!(doc.get("nodes").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("sample_count").and_then(Json::as_u64), Some(10));
        let running = doc.get("audit_running").expect("running totals");
        assert_eq!(running.get("split").and_then(Json::as_u64), Some(150));
        assert_eq!(running.get("merged").and_then(Json::as_u64), Some(150));
        assert_eq!(running.get("returned").and_then(Json::as_u64), Some(10));
        let audit = doc.get("audit").expect("final audit");
        assert_eq!(audit.get("final_grains").and_then(Json::as_u64), Some(4096));
        assert_eq!(audit.get("exact").and_then(Json::as_bool), Some(true));
        // The document round-trips through the parser.
        let back = Json::parse(&doc.to_string()).expect("snapshot parses");
        assert_eq!(back.get("sample_count").and_then(Json::as_u64), Some(10));
    }

    /// The online depth recurrence matches the causal module's rule:
    /// a merge lands at (parent span depth + 1) ⊔ local depth.
    #[test]
    fn online_causal_depth_follows_split_merge_chains() {
        let agg = LiveAggregator::new(AnalyzeOptions::default());
        let split = |node: usize, seq: u64| TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op: GrainOp::Split,
            grains: 10,
            peer: node + 1,
            lamport: Some(1),
            seq: Some(seq),
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        };
        let merge = |node: usize, peer: usize, span_seq: u64| TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op: GrainOp::Merge,
            grains: 10,
            peer,
            lamport: Some(2),
            seq: None,
            span_inc: Some(0),
            span_seq: Some(span_seq),
            wait_us: Some(1_500),
            transit_us: Some(2_500),
        };
        // 0 -> 1 -> 2: depths 1 then 2.
        agg.record(&split(0, 7));
        agg.record(&merge(1, 0, 7));
        agg.record(&split(1, 8));
        agg.record(&merge(2, 1, 8));
        let doc = agg.snapshot_json();
        let hist = doc.get("depth_hist").expect("histogram");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(1 + 2));
        let hops = doc.get("hops").expect("hop totals");
        assert_eq!(hops.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            hops.get("wait_us_total").and_then(Json::as_u64),
            Some(3_000)
        );
        assert_eq!(
            hops.get("transit_us_total").and_then(Json::as_u64),
            Some(5_000)
        );
    }

    /// Overflowing the bounded ring is visible to `/events` consumers:
    /// the drop counter reports exactly the evicted samples.
    #[test]
    fn events_ring_overflow_reports_the_drop_counter() {
        let agg = LiveAggregator::new(AnalyzeOptions::default());
        let total = EVENT_RING_CAP as u64 + 57;
        for i in 0..total {
            agg.record(&telemetry(i as f64, 3, 0.2));
        }
        assert_eq!(agg.dropped(), 57);
        let page = agg.poll_events(0);
        assert_eq!(page.get("next").and_then(Json::as_u64), Some(total));
        assert_eq!(page.get("dropped").and_then(Json::as_u64), Some(57));
        let got = page.get("samples").and_then(Json::as_array).expect("array");
        assert_eq!(got.len(), EVENT_RING_CAP, "only the retained tail");
        // A caught-up consumer parks and then comes back empty-handed but
        // with the same cursor.
        let empty = agg.poll_events(total);
        assert_eq!(empty.get("next").and_then(Json::as_u64), Some(total));
        let got = empty
            .get("samples")
            .and_then(Json::as_array)
            .expect("array");
        assert!(got.is_empty());
    }

    #[test]
    fn teed_tracer_feeds_the_aggregator_without_touching_the_base() {
        let base = Arc::new(crate::sink::RingSink::new(16));
        let agg = Arc::new(LiveAggregator::new(AnalyzeOptions::default()));
        let tracer = Tracer::new(base.clone()).tee(agg.clone());
        tracer.emit(|| telemetry(5.0, 3, 0.4));
        assert_eq!(base.len(), 1);
        assert_eq!(agg.sample_count(), 1);
    }

    fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let mut halves = response.splitn(2, "\r\n\r\n");
        let head = halves.next().unwrap_or_default().to_string();
        let body = halves.next().unwrap_or_default().to_string();
        (head, body)
    }

    #[test]
    fn console_serves_dashboard_metrics_snapshot_and_events() {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Metrics::new(Arc::clone(&registry));
        metrics
            .counter("distclass_msgs_total", "messages", &[("node", "0")])
            .add(3);
        let agg = Arc::new(LiveAggregator::new(AnalyzeOptions::default()));
        agg.record(&telemetry(1.0, 2, 0.3));
        let prof_core = Arc::new(crate::prof::ProfilerCore::new());
        {
            let profiler = Profiler::new(Arc::clone(&prof_core));
            let thread = profiler.thread("peer0");
            drop(thread.span(crate::prof::Phase::Tick));
        }
        let server = match LiveConsole::start(
            "127.0.0.1:0",
            Some(Arc::clone(&registry)),
            Some(agg.clone()),
            Profiler::new(Arc::clone(&prof_core)),
            Some(Arc::new(Health::new())),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping console test: bind failed: {e}");
                return;
            }
        };
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("distclass live console"));

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        crate::prom::validate_exposition(&body)
            .unwrap_or_else(|(line, msg)| panic!("line {line}: {msg}"));

        let (head, body) = http_get(addr, "/snapshot.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let doc = Json::parse(&body).expect("snapshot parses");
        assert_eq!(doc.get("sample_count").and_then(Json::as_u64), Some(1));
        assert!(doc.get("links").is_some(), "per-link section present");

        let (head, body) = http_get(addr, "/events?since=0");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let page = Json::parse(&body).expect("events parses");
        assert_eq!(page.get("next").and_then(Json::as_u64), Some(1));

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let health = Json::parse(&body).expect("healthz parses");
        assert_eq!(
            health.get("state").and_then(Json::as_str),
            Some("running"),
            "fresh probe reports running"
        );
        assert_eq!(health.get("round").and_then(Json::as_u64), Some(0));

        let (head, body) = http_get(addr, "/profile.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let prof = crate::prof::ProfileReport::from_json(&body).expect("profile parses");
        assert_eq!(prof.threads.len(), 1);
        assert_eq!(prof.threads[0].label, "peer0");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    /// A quiesced health probe flips its state field, and a console
    /// without a profiler answers `/profile.json` with 404.
    #[test]
    fn healthz_tracks_quiesce_and_profile_is_optional() {
        let health = Arc::new(Health::new());
        health.set_round(42);
        health.set_quiesced();
        let server = match LiveConsole::start(
            "127.0.0.1:0",
            None,
            None,
            Profiler::disabled(),
            Some(Arc::clone(&health)),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping healthz test: bind failed: {e}");
                return;
            }
        };
        let addr = server.local_addr();
        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let doc = Json::parse(&body).expect("healthz parses");
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("quiesced"));
        assert_eq!(doc.get("round").and_then(Json::as_u64), Some(42));
        let (head, _) = http_get(addr, "/profile.json");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    /// A `/metrics` scrape must not be blocked by a concurrent
    /// `/snapshot.json` request (thread-per-connection contract).
    #[test]
    fn concurrent_metrics_and_snapshot_scrapes_both_answer() {
        let registry = Arc::new(MetricsRegistry::new());
        let agg = Arc::new(LiveAggregator::new(AnalyzeOptions::default()));
        for i in 0..100 {
            agg.record(&telemetry(i as f64, 2, 0.1));
        }
        let server = match LiveConsole::start(
            "127.0.0.1:0",
            Some(Arc::clone(&registry)),
            Some(agg),
            Profiler::disabled(),
            None,
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping concurrency test: bind failed: {e}");
                return;
            }
        };
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let target = if i % 2 == 0 {
                        "/metrics"
                    } else {
                        "/snapshot.json"
                    };
                    let (head, _) = http_get(addr, target);
                    assert!(head.starts_with("HTTP/1.1 200 OK"), "{target}: {head}");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("request thread");
        }
    }
}
