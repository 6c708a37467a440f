//! Offline trace analysis: replay a `--trace` JSONL file into a
//! structured report.
//!
//! [`TraceReport::from_events`] consumes a stream of [`TraceEvent`]s (in
//! file order) and derives everything the trace section of the `report`
//! CLI subcommand prints:
//!
//! * **per-link latency** — `MessageSent`/`MessageDelivered` pairs are
//!   matched FIFO per `(from, to)` link; the difference of their `at`
//!   clocks feeds a [`HistogramSnapshot`] (the same log-bucketed
//!   histogram the live metrics registry uses). The trace clock is
//!   whatever the emitting engine used — round indices for the rounds
//!   engine, simulated seconds for the event engine — so latencies are
//!   reported in *trace clock units*.
//! * **fault windows** — `FaultActivated`/`FaultHealed` pairs keyed by
//!   `(kind, node)`, annotated with the round (or telemetry sample)
//!   marker current when they fired.
//! * **per-peer grain ledgers** — replayed with exactly the semantics of
//!   the grain-conservation auditor: for every non-panicked peer,
//!   `final = initial/n + Σ deltas(merge + return − split) − Σ voided`,
//!   where the voided sums are `merged + returned − split` from
//!   `GrainsVoided` rollbacks. Any residue is reported as drift.
//! * **convergence** — the earliest round where
//!   [`TelemetrySeries::converged`] holds over the trace's telemetry
//!   samples (per-round `Telemetry` events, or `ClusterTelemetry`
//!   wall-clock samples when the trace came from the deployment runtime).
//! * **anomalies** — the flags the CI gate fails on: ledger drift,
//!   panicked peers, stalled peers, stale unmatched sends, and audit
//!   verdict mismatches.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;

use crate::event::{Fold, GrainOp, TraceEvent};
use crate::json::{field, num, str as jstr, unum, Json, JsonError};
use crate::metrics::HistogramSnapshot;
use crate::telemetry::{TelemetrySample, TelemetrySeries};

/// Latencies are observed in thousandths of a trace clock unit so the
/// integer-valued histogram keeps sub-unit resolution (a round-engine
/// hop of exactly 1 round lands at 1000).
const LATENCY_SCALE: f64 = 1000.0;

/// Tuning knobs for the replay — currently the convergence rule fed to
/// [`TelemetrySeries::converged`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOptions {
    /// Trailing samples that must all sit below `level`.
    pub window: usize,
    /// Maximum dispersion change between consecutive window samples.
    pub delta_tol: f64,
    /// Dispersion level counted as converged.
    pub level: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            window: 5,
            delta_tol: 1e-3,
            level: 0.05,
        }
    }
}

/// Send→deliver statistics for one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Sender node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Messages that reached the destination.
    pub delivered: u64,
    /// Messages dropped in flight (crash or partition).
    pub dropped: u64,
    /// Sends from the newest trace-clock instant still unresolved —
    /// legitimately in flight when the run ended.
    pub in_flight: u64,
    /// Sends older than the newest instant that never resolved; each
    /// link with any is flagged as an [`Anomaly::UnmatchedSends`].
    pub unmatched: u64,
    /// Send→deliver latency in thousandths of a trace clock unit.
    pub latency: HistogramSnapshot,
}

impl LinkStats {
    /// A latency quantile converted back to trace clock units.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q) / LATENCY_SCALE
    }

    /// Mean latency in trace clock units.
    pub fn latency_mean(&self) -> f64 {
        self.latency.mean() / LATENCY_SCALE
    }
}

/// One fault's lifetime, annotated against the round timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Fault kind (`"crash"`, `"partition"`, ...).
    pub kind: String,
    /// Affected node, when the fault targets one.
    pub node: Option<usize>,
    /// Trace clock when the fault fired.
    pub activated_at: f64,
    /// Trace clock when it healed; `None` if it never did.
    pub healed_at: Option<f64>,
    /// Round (or telemetry sample) marker current at activation.
    pub round: Option<u64>,
    /// Marker current at healing.
    pub healed_round: Option<u64>,
}

/// A peer's grain ledger replayed from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerLedger {
    /// Peer id.
    pub node: usize,
    /// Grains minted to this peer at start (`initial_grains / nodes`).
    pub initial: u64,
    /// Net signed grain movement: Σ (merge + return − split).
    pub deltas: i64,
    /// Net rolled-back movement: Σ voided (merged + returned − split
    /// + injected − forgotten).
    pub voided: i64,
    /// Net dynamic-workload movement: Σ (injected − forgotten) from
    /// sensor re-reads, plus a joiner's declared unit. Zero in static
    /// runs.
    pub dynamic: i64,
    /// Outcome string from `PeerFinal` (`"completed"`, `"retired"`,
    /// `"dead"`, `"panicked"`), when present.
    pub outcome: Option<String>,
    /// Grains held at shutdown, when a `PeerFinal` was recorded.
    pub final_grains: Option<u64>,
    /// `final − (initial + deltas + dynamic − voided)`; `Some(0)` means
    /// the ledger reconciles exactly. `None` when the peer panicked or
    /// never reported a final.
    pub drift: Option<i64>,
}

/// Aggregate round-engine counters from the last `RoundCompleted` event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundsSummary {
    /// Rounds completed.
    pub count: u64,
    /// Cumulative messages sent.
    pub sent: u64,
    /// Cumulative messages delivered.
    pub delivered: u64,
    /// Cumulative messages dropped.
    pub dropped: u64,
}

/// Convergence verdict over the trace's telemetry trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Convergence {
    /// Telemetry samples considered.
    pub samples: usize,
    /// Earliest round (or sample index for wall-clock telemetry) where
    /// the convergence rule first held; `None` if it never did.
    pub round: Option<u64>,
    /// Dispersion of the final sample, when it carried one.
    pub final_dispersion: Option<f64>,
}

/// The in-run auditor's verdict, copied from the `AuditSummary` event.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// Grains minted at start.
    pub initial: u64,
    /// Grains held by completed peers at shutdown.
    pub final_grains: u64,
    /// Declared gains.
    pub gains: u64,
    /// Declared losses.
    pub losses: u64,
    /// Declared dynamic injections (drift re-reads and joins).
    pub injected: u64,
    /// Declared dynamic decay (drift forgetting).
    pub forgotten: u64,
    /// Books closed exactly.
    pub exact: bool,
    /// Conservation held.
    pub conserved: bool,
}

/// A red flag the replay raises; any anomaly fails the CI trace gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// A peer's replayed ledger does not match its final holdings.
    LedgerDrift {
        /// Offending peer.
        node: usize,
        /// `final − expected` in grains (surplus positive).
        drift: i64,
    },
    /// A peer exited by panic — its books are unaccounted.
    PanickedPeer {
        /// Offending peer.
        node: usize,
    },
    /// The trace records finals for some peers but not this one.
    MissingPeerFinal {
        /// Peer without a `peer_final` event.
        node: usize,
    },
    /// A completed peer moved no grains while others did.
    StalledPeer {
        /// The inactive peer.
        node: usize,
    },
    /// Sends on a link never resolved although later traffic did.
    UnmatchedSends {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Stale unresolved sends.
        count: u64,
    },
    /// The in-run auditor declared its books inexact.
    AuditInexact,
    /// The in-run auditor saw conservation fail.
    AuditNotConserved,
    /// Completed peers' final grains disagree with the audit total.
    AuditFinalMismatch {
        /// Σ final grains over completed peers, replayed from the trace.
        replayed: i64,
        /// The auditor's final count.
        audited: u64,
    },
    /// JSONL lines with event types this binary does not know were
    /// skipped — the trace is from a newer taxonomy and the replay below
    /// may be missing information.
    UnknownEvents {
        /// Skipped lines.
        count: usize,
    },
    /// The trace sink hit its size cap mid-run: everything after the
    /// marker is missing, so the replay's books cannot be trusted.
    TraceTruncated {
        /// Bytes the sink had written when the cap fired.
        bytes_written: u64,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::LedgerDrift { node, drift } => {
                write!(f, "node {node}: ledger drift of {drift} grains")
            }
            Anomaly::PanickedPeer { node } => write!(f, "node {node}: panicked"),
            Anomaly::MissingPeerFinal { node } => {
                write!(f, "node {node}: no peer_final event")
            }
            Anomaly::StalledPeer { node } => {
                write!(f, "node {node}: no grain activity while peers were active")
            }
            Anomaly::UnmatchedSends { from, to, count } => {
                write!(f, "link {from}->{to}: {count} stale unmatched send(s)")
            }
            Anomaly::AuditInexact => write!(f, "audit books are inexact"),
            Anomaly::AuditNotConserved => write!(f, "audit says grains were not conserved"),
            Anomaly::AuditFinalMismatch { replayed, audited } => write!(
                f,
                "completed peers hold {replayed} grains but the audit counted {audited}"
            ),
            Anomaly::UnknownEvents { count } => {
                write!(f, "{count} line(s) with unknown event types were skipped")
            }
            Anomaly::TraceTruncated { bytes_written } => {
                write!(f, "trace truncated at its size cap ({bytes_written} bytes)")
            }
        }
    }
}

impl Anomaly {
    /// A machine-readable discriminator for the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::LedgerDrift { .. } => "ledger_drift",
            Anomaly::PanickedPeer { .. } => "panicked_peer",
            Anomaly::MissingPeerFinal { .. } => "missing_peer_final",
            Anomaly::StalledPeer { .. } => "stalled_peer",
            Anomaly::UnmatchedSends { .. } => "unmatched_sends",
            Anomaly::AuditInexact => "audit_inexact",
            Anomaly::AuditNotConserved => "audit_not_conserved",
            Anomaly::AuditFinalMismatch { .. } => "audit_final_mismatch",
            Anomaly::UnknownEvents { .. } => "unknown_events",
            Anomaly::TraceTruncated { .. } => "trace_truncated",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            field("kind", jstr(self.kind())),
            field("detail", jstr(self.to_string())),
        ];
        match self {
            Anomaly::LedgerDrift { node, drift } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("drift", num(*drift as f64)));
            }
            Anomaly::PanickedPeer { node }
            | Anomaly::MissingPeerFinal { node }
            | Anomaly::StalledPeer { node } => {
                fields.push(field("node", unum(*node as u64)));
            }
            Anomaly::UnmatchedSends { from, to, count } => {
                fields.push(field("from", unum(*from as u64)));
                fields.push(field("to", unum(*to as u64)));
                fields.push(field("count", unum(*count)));
            }
            Anomaly::AuditFinalMismatch { replayed, audited } => {
                fields.push(field("replayed", num(*replayed as f64)));
                fields.push(field("audited", unum(*audited)));
            }
            Anomaly::UnknownEvents { count } => {
                fields.push(field("count", unum(*count as u64)));
            }
            Anomaly::TraceTruncated { bytes_written } => {
                fields.push(field("bytes_written", unum(*bytes_written)));
            }
            Anomaly::AuditInexact | Anomaly::AuditNotConserved => {}
        }
        Json::Obj(fields)
    }
}

/// Everything the replay derived from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Events consumed.
    pub events: usize,
    /// Nodes declared by `cluster_started` (0 if the event is missing).
    pub nodes: usize,
    /// Grains minted at start.
    pub initial_grains: u64,
    /// Round-engine counters.
    pub rounds: RoundsSummary,
    /// Per-link latency and delivery stats, ordered by `(from, to)`.
    pub links: Vec<LinkStats>,
    /// Fault activations paired with their healings.
    pub faults: Vec<FaultWindow>,
    /// Per-peer grain ledgers, ordered by node id. Empty when the trace
    /// carries no grain accounting (pure simulation traces).
    pub ledgers: Vec<PeerLedger>,
    /// Convergence verdict over the telemetry trajectory.
    pub convergence: Convergence,
    /// The in-run auditor's verdict, when the trace carries one.
    pub audit: Option<AuditVerdict>,
    /// JSONL lines skipped because their event type was unknown (only
    /// populated by [`TraceReport::from_jsonl`]).
    pub unknown_events: usize,
    /// Red flags; empty means the trace is clean.
    pub anomalies: Vec<Anomaly>,
}

/// The round timeline the trace and causal replays both walk: the round
/// (or telemetry sample) marker current as the stream advances, and the
/// point where each telemetry series first satisfied the convergence
/// rule, found sample by sample.
#[derive(Default)]
pub(crate) struct Timeline {
    opts: AnalyzeOptions,
    /// The marker current at the latest event.
    pub(crate) marker: Option<u64>,
    rounds: SeriesScan,
    cluster: SeriesScan,
}

/// One telemetry series, scanned online for the convergence rule.
#[derive(Default)]
pub(crate) struct SeriesScan {
    /// Samples seen.
    pub(crate) samples: usize,
    /// Dispersion of the latest sample.
    pub(crate) last_dispersion: Option<f64>,
    /// `(round, stamp)` of the sample where the rule first held; the
    /// stamp is what the caller passed when that sample arrived.
    pub(crate) hit: Option<(u64, usize)>,
    /// The trailing samples the rule looks at, until it holds.
    tail: TelemetrySeries,
}

impl Timeline {
    pub(crate) fn new(opts: &AnalyzeOptions) -> Self {
        Timeline {
            opts: opts.clone(),
            ..Timeline::default()
        }
    }

    /// Advances over `ev`; `stamp` labels a convergence point found here.
    pub(crate) fn on_event(&mut self, ev: &TraceEvent, stamp: usize) {
        let sample = match ev {
            TraceEvent::RoundCompleted { round, .. } => {
                self.marker = Some(*round);
                return;
            }
            TraceEvent::Telemetry(sample) => sample.clone(),
            // The runtime's wall-clock samples, numbered as they arrive.
            TraceEvent::ClusterTelemetry {
                live,
                dispersion,
                unix_ms,
                ..
            } => TelemetrySample {
                round: self.cluster.samples as u64,
                live: *live,
                dispersion: dispersion.is_finite().then_some(*dispersion),
                unix_ms: *unix_ms,
                ..TelemetrySample::default()
            },
            _ => return,
        };
        let scan = match ev {
            TraceEvent::Telemetry(_) => &mut self.rounds,
            _ => &mut self.cluster,
        };
        self.marker = Some(sample.round);
        scan.samples += 1;
        scan.last_dispersion = sample.dispersion;
        if scan.hit.is_none() {
            let (round, o) = (sample.round, &self.opts);
            scan.tail.push(sample);
            if scan.tail.len() > o.window {
                scan.tail.samples.remove(0);
            }
            if scan.tail.converged(o.window, o.delta_tol, o.level) {
                scan.hit = Some((round, stamp));
            }
        }
    }

    /// The series convergence is judged on: per-round samples when the
    /// trace has any, the runtime's wall-clock samples otherwise.
    pub(crate) fn series(&self) -> &SeriesScan {
        if self.rounds.samples > 0 {
            &self.rounds
        } else {
            &self.cluster
        }
    }
}

/// The trace replay as a one-pass fold ([`TraceReport::fold`]).
#[derive(Default)]
struct TraceFold {
    events: usize,
    nodes: usize,
    initial_grains: u64,
    rounds: RoundsSummary,
    /// Per-link stats in order of first appearance; `in_flight` and
    /// `unmatched` are settled in `finish`.
    links: Vec<LinkStats>,
    link_index: HashMap<(usize, usize), usize>,
    /// Send instants not yet delivered or dropped, by link index, for
    /// the links that have any.
    pending: HashMap<usize, Pending>,
    /// The newest trace instant of any message event.
    max_at: f64,
    faults: Vec<FaultWindow>,
    deltas: HashMap<usize, i64>,
    voided: HashMap<usize, i64>,
    /// Dynamic-workload mass: drift injections net of forgetting, plus
    /// each joiner's declared unit (joiners start from a base of 0).
    dynamic: HashMap<usize, i64>,
    joined: HashSet<usize>,
    finals: BTreeMap<usize, (String, u64)>,
    audit: Option<AuditVerdict>,
    timeline: Timeline,
    /// Anomalies raised while streaming (the rest come from the
    /// reconciliations in `finish`).
    anomalies: Vec<Anomaly>,
}

/// One link's send instants not yet delivered or dropped, oldest first.
/// The usual single one is kept inline; only those behind it take heap.
struct Pending {
    oldest: f64,
    rest: VecDeque<f64>,
}

impl TraceFold {
    /// The index of link `from → to` in `links`, created on first sight.
    fn link(&mut self, from: usize, to: usize) -> usize {
        let fresh = self.links.len();
        let i = *self.link_index.entry((from, to)).or_insert(fresh);
        if i == fresh {
            self.links.push(LinkStats {
                from,
                to,
                ..LinkStats::default()
            });
        }
        i
    }

    /// Resolves the oldest pending send on link `i`, if any.
    fn resolve(&mut self, i: usize) -> Option<f64> {
        let pending = self.pending.get_mut(&i)?;
        let sent_at = pending.oldest;
        match pending.rest.pop_front() {
            Some(next) => pending.oldest = next,
            None => {
                self.pending.remove(&i);
            }
        }
        Some(sent_at)
    }
}

impl Fold for TraceFold {
    type Report = TraceReport;

    fn on_event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.timeline.on_event(ev, 0);
        match ev {
            TraceEvent::ClusterStarted {
                nodes,
                initial_grains,
            } => {
                self.nodes = *nodes;
                self.initial_grains = *initial_grains;
            }
            TraceEvent::RoundCompleted {
                round,
                sent,
                delivered,
                dropped,
                ..
            } => {
                self.rounds.count = self.rounds.count.max(round + 1);
                self.rounds.sent = *sent;
                self.rounds.delivered = *delivered;
                self.rounds.dropped = *dropped;
            }
            TraceEvent::MessageSent { from, to, at, .. } => {
                self.max_at = self.max_at.max(*at);
                let i = self.link(*from, *to);
                match self.pending.entry(i) {
                    Entry::Vacant(e) => {
                        e.insert(Pending {
                            oldest: *at,
                            rest: VecDeque::new(),
                        });
                    }
                    Entry::Occupied(e) => e.into_mut().rest.push_back(*at),
                }
            }
            TraceEvent::MessageDelivered { from, to, at, .. } => {
                self.max_at = self.max_at.max(*at);
                let i = self.link(*from, *to);
                let sent_at = self.resolve(i);
                let link = &mut self.links[i];
                link.delivered += 1;
                if let Some(sent_at) = sent_at {
                    let dt = (at - sent_at).max(0.0);
                    link.latency.observe((dt * LATENCY_SCALE).round() as u64);
                }
            }
            TraceEvent::MessageDropped { from, to, .. } => {
                let i = self.link(*from, *to);
                self.resolve(i);
                self.links[i].dropped += 1;
            }
            TraceEvent::FaultActivated { kind, node, at } => {
                self.faults.push(FaultWindow {
                    kind: kind.clone(),
                    node: *node,
                    activated_at: *at,
                    healed_at: None,
                    round: self.timeline.marker,
                    healed_round: None,
                });
            }
            TraceEvent::FaultHealed { kind, node, at } => {
                if let Some(w) = self
                    .faults
                    .iter_mut()
                    .find(|w| w.healed_at.is_none() && w.kind == *kind && w.node == *node)
                {
                    w.healed_at = Some(*at);
                    w.healed_round = self.timeline.marker;
                }
            }
            TraceEvent::GrainDelta {
                node, op, grains, ..
            } => {
                let signed = match op {
                    GrainOp::Merge | GrainOp::Return => *grains as i64,
                    GrainOp::Split => -(*grains as i64),
                };
                *self.deltas.entry(*node).or_default() += signed;
            }
            TraceEvent::GrainsVoided {
                node,
                split,
                merged,
                returned,
                injected,
                forgotten,
                ..
            } => {
                *self.voided.entry(*node).or_default() +=
                    *merged as i64 + *returned as i64 - *split as i64 + *injected as i64
                        - *forgotten as i64;
            }
            TraceEvent::SensorDrift {
                node,
                injected,
                forgotten,
                ..
            } => {
                *self.dynamic.entry(*node).or_default() += *injected as i64 - *forgotten as i64;
            }
            TraceEvent::PeerJoined { node, grains, .. } => {
                self.joined.insert(*node);
                *self.dynamic.entry(*node).or_default() += *grains as i64;
            }
            TraceEvent::PeerFinal {
                node,
                outcome,
                grains,
            } => {
                self.finals.insert(*node, (outcome.clone(), *grains));
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
                self.audit = Some(AuditVerdict {
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
            TraceEvent::TraceTruncated { bytes_written } => {
                self.anomalies.push(Anomaly::TraceTruncated {
                    bytes_written: *bytes_written,
                });
            }
            // Telemetry moves the timeline only. A retirement's handoff
            // already shows up as an ordinary split delta on the retiring
            // node, so the event itself carries no extra ledger weight.
            _ => {}
        }
    }

    fn finish(mut self, unknown: usize) -> TraceReport {
        let (nodes, finals, deltas) = (self.nodes, &self.finals, &self.deltas);
        let mut anomalies = std::mem::take(&mut self.anomalies);

        // Per-link stats. Unresolved sends from the newest trace instant
        // were legitimately in flight at shutdown; anything older had
        // later traffic pass it by and counts as unmatched.
        self.link_index = HashMap::new();
        let mut links = std::mem::take(&mut self.links);
        for (i, pending) in std::mem::take(&mut self.pending) {
            let link = &mut links[i];
            for at in std::iter::once(pending.oldest).chain(pending.rest) {
                if at < self.max_at {
                    link.unmatched += 1;
                } else {
                    link.in_flight += 1;
                }
            }
        }
        links.sort_unstable_by_key(|l| (l.from, l.to));
        links.shrink_to_fit();
        for l in links.iter().filter(|l| l.unmatched > 0) {
            anomalies.push(Anomaly::UnmatchedSends {
                from: l.from,
                to: l.to,
                count: l.unmatched,
            });
        }

        // Grain ledgers, with the auditor's exact arithmetic. Ledgers
        // only exist when the trace carries grain accounting at all.
        let mut ledgers: Vec<PeerLedger> = Vec::new();
        if !finals.is_empty() && nodes > 0 {
            let per_node = (self.initial_grains / nodes as u64) as i64;
            for node in 0..nodes {
                if !finals.contains_key(&node) {
                    anomalies.push(Anomaly::MissingPeerFinal { node });
                }
            }
            let any_active = !deltas.is_empty();
            for (&node, (outcome, grains)) in finals {
                let d = deltas.get(&node).copied().unwrap_or(0);
                let v = self.voided.get(&node).copied().unwrap_or(0);
                let dy = self.dynamic.get(&node).copied().unwrap_or(0);
                // Joiners were minted nothing at start: their whole base
                // arrives as a declared injection.
                let base = if self.joined.contains(&node) {
                    0
                } else {
                    per_node
                };
                let drift = if outcome == "panicked" {
                    anomalies.push(Anomaly::PanickedPeer { node });
                    None
                } else {
                    let expected = base + d + dy - v;
                    let drift = *grains as i64 - expected;
                    if drift != 0 {
                        anomalies.push(Anomaly::LedgerDrift { node, drift });
                    }
                    Some(drift)
                };
                if any_active && nodes > 1 && outcome == "completed" && !deltas.contains_key(&node)
                {
                    anomalies.push(Anomaly::StalledPeer { node });
                }
                ledgers.push(PeerLedger {
                    node,
                    initial: base as u64,
                    deltas: d,
                    voided: v,
                    dynamic: dy,
                    outcome: Some(outcome.clone()),
                    final_grains: Some(*grains),
                    drift,
                });
            }
        }

        // The replayed books must agree with the in-run auditor, whose
        // final count covers completed peers only.
        if let Some(a) = &self.audit {
            if !a.exact {
                anomalies.push(Anomaly::AuditInexact);
            }
            if !a.conserved {
                anomalies.push(Anomaly::AuditNotConserved);
            }
            if !finals.is_empty() {
                let replayed: i64 = finals
                    .values()
                    .filter(|(outcome, _)| outcome == "completed" || outcome == "retired")
                    .map(|(_, grains)| *grains as i64)
                    .sum();
                if replayed != a.final_grains as i64 {
                    anomalies.push(Anomaly::AuditFinalMismatch {
                        replayed,
                        audited: a.final_grains,
                    });
                }
            }
        }
        if unknown > 0 {
            anomalies.push(Anomaly::UnknownEvents { count: unknown });
        }

        let series = self.timeline.series();
        TraceReport {
            events: self.events,
            nodes,
            initial_grains: self.initial_grains,
            rounds: self.rounds,
            links,
            faults: self.faults,
            ledgers,
            convergence: Convergence {
                samples: series.samples,
                round: series.hit.map(|(round, _)| round),
                final_dispersion: series.last_dispersion,
            },
            audit: self.audit,
            unknown_events: unknown,
            anomalies,
        }
    }
}

impl TraceReport {
    /// The replay as a one-pass fold: feed it events in trace-file order.
    /// It keeps per-link, per-node and per-fault state, not the events.
    pub fn fold(opts: &AnalyzeOptions) -> impl Fold<Report = TraceReport> {
        TraceFold {
            max_at: f64::NEG_INFINITY,
            timeline: Timeline::new(opts),
            ..TraceFold::default()
        }
    }

    /// Replays a parsed event stream (in trace-file order).
    pub fn from_events(events: &[TraceEvent], opts: &AnalyzeOptions) -> TraceReport {
        Self::fold(opts).fold_events(events)
    }

    /// Parses a JSONL trace and replays it, one line at a time
    /// ([`read_jsonl`](crate::event::read_jsonl)): lines of unknown
    /// event types are skipped and counted, surfacing as an
    /// [`Anomaly::UnknownEvents`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending line on the first
    /// malformed line (bad JSON or a known event with broken fields).
    pub fn from_jsonl(text: &str, opts: &AnalyzeOptions) -> Result<TraceReport, JsonError> {
        Self::fold(opts).fold_jsonl(text.as_bytes())
    }

    /// Whether the replay raised no red flags.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Encodes the full report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> Json {
        let links = self
            .links
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    field("from", unum(l.from as u64)),
                    field("to", unum(l.to as u64)),
                    field("delivered", unum(l.delivered)),
                    field("dropped", unum(l.dropped)),
                    field("in_flight", unum(l.in_flight)),
                    field("unmatched", unum(l.unmatched)),
                    field("latency_count", unum(l.latency.count)),
                    field("latency_mean", num(l.latency_mean())),
                    field("latency_p50", num(l.latency_quantile(0.50))),
                    field("latency_p90", num(l.latency_quantile(0.90))),
                    field("latency_p95", num(l.latency_quantile(0.95))),
                    field("latency_p99", num(l.latency_quantile(0.99))),
                    field("latency_max", num(l.latency.max as f64 / LATENCY_SCALE)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|w| {
                let opt_u = |v: Option<u64>| v.map_or(Json::Null, unum);
                Json::Obj(vec![
                    field("kind", jstr(w.kind.clone())),
                    field("node", w.node.map_or(Json::Null, |n| unum(n as u64))),
                    field("activated_at", num(w.activated_at)),
                    field("healed_at", w.healed_at.map_or(Json::Null, num)),
                    field("round", opt_u(w.round)),
                    field("healed_round", opt_u(w.healed_round)),
                ])
            })
            .collect();
        let ledgers = self
            .ledgers
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    field("node", unum(l.node as u64)),
                    field("initial", unum(l.initial)),
                    field("deltas", num(l.deltas as f64)),
                    field("voided", num(l.voided as f64)),
                    field("dynamic", num(l.dynamic as f64)),
                    field("outcome", l.outcome.clone().map_or(Json::Null, jstr)),
                    field("final", l.final_grains.map_or(Json::Null, unum)),
                    field("drift", l.drift.map_or(Json::Null, |d| num(d as f64))),
                ])
            })
            .collect();
        let audit = self.audit.as_ref().map_or(Json::Null, |a| {
            Json::Obj(vec![
                field("initial", unum(a.initial)),
                field("final", unum(a.final_grains)),
                field("gains", unum(a.gains)),
                field("losses", unum(a.losses)),
                field("injected", unum(a.injected)),
                field("forgotten", unum(a.forgotten)),
                field("exact", Json::Bool(a.exact)),
                field("conserved", Json::Bool(a.conserved)),
            ])
        });
        Json::Obj(vec![
            field("events", unum(self.events as u64)),
            field("nodes", unum(self.nodes as u64)),
            field("initial_grains", unum(self.initial_grains)),
            field(
                "rounds",
                Json::Obj(vec![
                    field("count", unum(self.rounds.count)),
                    field("sent", unum(self.rounds.sent)),
                    field("delivered", unum(self.rounds.delivered)),
                    field("dropped", unum(self.rounds.dropped)),
                ]),
            ),
            field("links", Json::Arr(links)),
            field("faults", Json::Arr(faults)),
            field("ledgers", Json::Arr(ledgers)),
            field(
                "convergence",
                Json::Obj(vec![
                    field("samples", unum(self.convergence.samples as u64)),
                    field("round", self.convergence.round.map_or(Json::Null, unum)),
                    field(
                        "final_dispersion",
                        self.convergence.final_dispersion.map_or(Json::Null, num),
                    ),
                ]),
            ),
            field("audit", audit),
            field("unknown_events", unum(self.unknown_events as u64)),
            field(
                "anomalies",
                Json::Arr(self.anomalies.iter().map(Anomaly::to_json).collect()),
            ),
            field("clean", Json::Bool(self.clean())),
        ])
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events, {} nodes, {} grains minted",
            self.events, self.nodes, self.initial_grains
        )?;
        if self.rounds.count > 0 {
            writeln!(
                f,
                "rounds: {} (sent {}, delivered {}, dropped {})",
                self.rounds.count, self.rounds.sent, self.rounds.delivered, self.rounds.dropped
            )?;
        }
        if !self.links.is_empty() {
            writeln!(f, "links ({} active):", self.links.len())?;
            for l in &self.links {
                writeln!(
                    f,
                    "  {:>3} -> {:<3} delivered {:>6} dropped {:>4} latency p50 {:.3} p95 {:.3} p99 {:.3} (clock units)",
                    l.from,
                    l.to,
                    l.delivered,
                    l.dropped,
                    l.latency_quantile(0.50),
                    l.latency_quantile(0.95),
                    l.latency_quantile(0.99),
                )?;
            }
        }
        if !self.faults.is_empty() {
            writeln!(f, "fault windows:")?;
            for w in &self.faults {
                let node = w.node.map_or("-".to_string(), |n| n.to_string());
                let healed = w
                    .healed_at
                    .map_or("never healed".to_string(), |t| format!("healed at {t}"));
                let round = w.round.map_or(String::new(), |r| format!(" (round {r})"));
                writeln!(
                    f,
                    "  {} node {} at {}{round}, {}",
                    w.kind, node, w.activated_at, healed
                )?;
            }
        }
        if !self.ledgers.is_empty() {
            writeln!(f, "grain ledgers:")?;
            for l in &self.ledgers {
                let outcome = l.outcome.as_deref().unwrap_or("?");
                let drift = l.drift.map_or("-".to_string(), |d| d.to_string());
                writeln!(
                    f,
                    "  node {:>3} [{}] initial {} deltas {:+} voided {:+} final {} drift {}",
                    l.node,
                    outcome,
                    l.initial,
                    l.deltas,
                    l.voided,
                    l.final_grains.map_or("-".to_string(), |g| g.to_string()),
                    drift,
                )?;
            }
        }
        match self.convergence.round {
            Some(r) => writeln!(
                f,
                "convergence: reached at round {r} ({} samples)",
                self.convergence.samples
            )?,
            None if self.convergence.samples > 0 => writeln!(
                f,
                "convergence: not reached in {} samples",
                self.convergence.samples
            )?,
            None => {}
        }
        if let Some(a) = &self.audit {
            writeln!(
                f,
                "audit: initial {} final {} gains {} losses {} exact {} conserved {}",
                a.initial, a.final_grains, a.gains, a.losses, a.exact, a.conserved
            )?;
        }
        if self.unknown_events > 0 {
            writeln!(f, "unknown events: {} line(s) skipped", self.unknown_events)?;
        }
        if self.anomalies.is_empty() {
            writeln!(f, "verdict: CLEAN")?;
        } else {
            writeln!(f, "verdict: {} ANOMALY(IES)", self.anomalies.len())?;
            for a in &self.anomalies {
                writeln!(f, "  ! {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(from: usize, to: usize, at: f64) -> TraceEvent {
        TraceEvent::MessageSent {
            from,
            to,
            bytes: 64,
            at,
            lamport: None,
            seq: None,
        }
    }

    fn delivered(from: usize, to: usize, at: f64) -> TraceEvent {
        TraceEvent::MessageDelivered {
            from,
            to,
            bytes: 64,
            at,
            lamport: None,
            span_seq: None,
        }
    }

    fn delta(node: usize, op: GrainOp, grains: u64, peer: usize) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op,
            grains,
            peer,
            lamport: None,
            seq: None,
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        }
    }

    fn final_ev(node: usize, outcome: &str, grains: u64) -> TraceEvent {
        TraceEvent::PeerFinal {
            node,
            outcome: outcome.to_string(),
            grains,
        }
    }

    #[test]
    fn link_latency_matches_fifo_and_flags_stale_sends() {
        let events = vec![
            sent(0, 1, 1.0),
            sent(0, 1, 1.0),
            delivered(0, 1, 2.0),
            delivered(0, 1, 4.0),
            // A send that later traffic passes by — anomalous.
            sent(2, 3, 1.0),
            sent(0, 1, 5.0),
            delivered(0, 1, 6.0),
            // In flight at shutdown on the newest instant — benign.
            sent(0, 1, 6.0),
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert_eq!(report.links.len(), 2);
        let link01 = &report.links[0];
        assert_eq!((link01.from, link01.to), (0, 1));
        assert_eq!(link01.delivered, 3);
        assert_eq!(link01.in_flight, 1);
        assert_eq!(link01.unmatched, 0);
        assert_eq!(link01.latency.count, 3);
        // Latencies were 1, 3, 1: max is exact, p50 within one bucket.
        assert_eq!(link01.latency.max, 3000);
        let p50 = link01.latency_quantile(0.50);
        assert!((1.0..=1.2).contains(&p50), "p50 = {p50}");

        let link23 = &report.links[1];
        assert_eq!(link23.unmatched, 1);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            Anomaly::UnmatchedSends {
                from: 2,
                to: 3,
                count: 1
            }
        )));
    }

    #[test]
    fn dropped_messages_consume_sends_without_latency() {
        let events = vec![
            sent(0, 1, 1.0),
            TraceEvent::MessageDropped {
                from: 0,
                to: 1,
                reason: crate::event::DropReason::Crashed,
            },
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        let link = &report.links[0];
        assert_eq!(link.dropped, 1);
        assert_eq!(link.latency.count, 0);
        assert_eq!(link.unmatched, 0);
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    /// The ledger replay mirrors the auditor: clean books reconcile to
    /// drift 0; a perturbed final is flagged.
    #[test]
    fn ledgers_reconcile_and_flag_drift() {
        let mk = |finals: [u64; 2]| {
            vec![
                TraceEvent::ClusterStarted {
                    nodes: 2,
                    initial_grains: 2000,
                },
                delta(0, GrainOp::Split, 300, 1),
                delta(1, GrainOp::Merge, 300, 0),
                delta(1, GrainOp::Split, 100, 0),
                // Node 1 crashes before flushing its batch: everything
                // above is voided, node 0's return brings grains home.
                TraceEvent::GrainsVoided {
                    node: 1,
                    incarnation: 0,
                    split: 100,
                    merged: 300,
                    returned: 0,
                    injected: 0,
                    forgotten: 0,
                },
                delta(0, GrainOp::Return, 300, 1),
                final_ev(0, "completed", finals[0]),
                final_ev(1, "completed", finals[1]),
                TraceEvent::AuditSummary {
                    initial: 2000,
                    final_grains: finals[0] + finals[1],
                    gains: 300,
                    losses: 300,
                    injected: 0,
                    forgotten: 0,
                    exact: true,
                    conserved: true,
                },
            ]
        };
        // Node 0: 1000 − 300 + 300 = 1000. Node 1: 1000 + 300 − 100 −
        // (300 − 100) = 1000.
        let clean = TraceReport::from_events(&mk([1000, 1000]), &AnalyzeOptions::default());
        assert!(clean.clean(), "{:?}", clean.anomalies);
        assert_eq!(clean.ledgers.len(), 2);
        assert!(clean.ledgers.iter().all(|l| l.drift == Some(0)));

        let drifted = TraceReport::from_events(&mk([1000, 993]), &AnalyzeOptions::default());
        assert!(drifted
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::LedgerDrift { node: 1, drift: -7 })));
    }

    #[test]
    fn panicked_and_missing_finals_are_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            delta(0, GrainOp::Split, 10, 1),
            delta(1, GrainOp::Merge, 10, 0),
            final_ev(0, "completed", 990),
            final_ev(1, "panicked", 0),
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::PanickedPeer { node: 1 })));
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::MissingPeerFinal { node: 2 })));
    }

    #[test]
    fn stalled_completed_peer_is_flagged_but_dead_is_not() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            delta(0, GrainOp::Split, 10, 1),
            delta(1, GrainOp::Merge, 10, 0),
            final_ev(0, "completed", 990),
            final_ev(1, "completed", 1010),
            final_ev(2, "dead", 1000),
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert!(
            !report
                .anomalies
                .iter()
                .any(|a| matches!(a, Anomaly::StalledPeer { node: 2 })),
            "dead peers are not stalled: {:?}",
            report.anomalies
        );

        let mut events = events;
        events[5] = final_ev(2, "completed", 1000);
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::StalledPeer { node: 2 })));
    }

    #[test]
    fn audit_mismatch_is_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 1,
                initial_grains: 1000,
            },
            delta(0, GrainOp::Split, 0, 0),
            final_ev(0, "completed", 1000),
            TraceEvent::AuditSummary {
                initial: 1000,
                final_grains: 999,
                gains: 0,
                losses: 0,
                injected: 0,
                forgotten: 0,
                exact: true,
                conserved: false,
            },
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::AuditNotConserved)));
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            Anomaly::AuditFinalMismatch {
                replayed: 1000,
                audited: 999
            }
        )));
    }

    #[test]
    fn convergence_finds_earliest_round() {
        let mut events = vec![];
        let disps = [0.9, 0.5, 0.2, 0.04, 0.041, 0.0405, 0.040, 0.0401];
        for (round, d) in disps.iter().enumerate() {
            events.push(TraceEvent::Telemetry(TelemetrySample {
                round: round as u64,
                live: 4,
                classifications_mean: 2.0,
                classifications_max: 3,
                weight_spread: 0.1,
                mean_error: None,
                max_error: None,
                dispersion: Some(*d),
                unix_ms: None,
            }));
        }
        let opts = AnalyzeOptions {
            window: 3,
            delta_tol: 1e-2,
            level: 0.05,
        };
        let report = TraceReport::from_events(&events, &opts);
        assert_eq!(report.convergence.samples, 8);
        // Rounds 3..=5 are the first window that is low and flat.
        assert_eq!(report.convergence.round, Some(5));
    }

    #[test]
    fn cluster_telemetry_feeds_convergence_when_no_round_samples() {
        let mut events = vec![];
        for d in [0.5, 0.01, 0.011, 0.0105] {
            events.push(TraceEvent::ClusterTelemetry {
                elapsed_ms: 10.0,
                live: 4,
                dispersion: d,
                unix_ms: None,
            });
        }
        let opts = AnalyzeOptions {
            window: 2,
            delta_tol: 1e-2,
            level: 0.05,
        };
        let report = TraceReport::from_events(&events, &opts);
        assert_eq!(report.convergence.samples, 4);
        assert_eq!(report.convergence.round, Some(2));
    }

    #[test]
    fn fault_windows_pair_and_annotate_rounds() {
        let events = vec![
            TraceEvent::RoundCompleted {
                round: 2,
                live: 4,
                sent: 8,
                delivered: 8,
                dropped: 0,
            },
            TraceEvent::FaultActivated {
                kind: "crash".to_string(),
                node: Some(1),
                at: 0.3,
            },
            TraceEvent::RoundCompleted {
                round: 3,
                live: 3,
                sent: 11,
                delivered: 10,
                dropped: 1,
            },
            TraceEvent::FaultHealed {
                kind: "crash".to_string(),
                node: Some(1),
                at: 0.5,
            },
            TraceEvent::FaultActivated {
                kind: "partition".to_string(),
                node: None,
                at: 0.6,
            },
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert_eq!(report.faults.len(), 2);
        let crash = &report.faults[0];
        assert_eq!(crash.round, Some(2));
        assert_eq!(crash.healed_at, Some(0.5));
        assert_eq!(crash.healed_round, Some(3));
        let part = &report.faults[1];
        assert_eq!(part.healed_at, None);
        assert_eq!(report.rounds.count, 4);
    }

    #[test]
    fn jsonl_parse_errors_name_the_line() {
        let text = "{\"type\":\"cluster_started\",\"nodes\":2,\"initial_grains\":200}\nnot json\n";
        let err = TraceReport::from_jsonl(text, &AnalyzeOptions::default())
            .expect_err("second line is garbage");
        assert!(err.message.contains("line 2"), "{err}");
    }

    /// Unknown event types are skipped and counted, not fatal — older
    /// binaries stay able to read newer traces. The count is anomalous.
    #[test]
    fn unknown_event_types_are_counted_not_fatal() {
        let text = "{\"type\":\"cluster_started\",\"nodes\":2,\"initial_grains\":200}\n\
                    {\"type\":\"quantum_entangled\",\"with\":7}\n\
                    {\"type\":\"tick_completed\",\"node\":0,\"time\":1.0,\"extra_key\":true}\n\
                    {\"type\":\"also_unknown\"}\n";
        let report =
            TraceReport::from_jsonl(text, &AnalyzeOptions::default()).expect("replay survives");
        assert_eq!(report.unknown_events, 2);
        assert_eq!(report.events, 2, "known lines were all consumed");
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::UnknownEvents { count: 2 })));
        assert!(!report.clean());
        // The count survives into the JSON report.
        let back = Json::parse(&report.to_json().to_string()).expect("parses");
        assert_eq!(back.req_u64("unknown_events").expect("field"), 2);
    }

    #[test]
    fn truncated_trace_is_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 200,
            },
            TraceEvent::TraceTruncated { bytes_written: 512 },
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::TraceTruncated { bytes_written: 512 })));
        assert!(!report.clean());
    }

    #[test]
    fn report_json_is_parseable_and_carries_verdict() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            sent(0, 1, 1.0),
            delivered(0, 1, 2.0),
            final_ev(0, "completed", 1000),
            final_ev(1, "completed", 1000),
        ];
        let report = TraceReport::from_events(&events, &AnalyzeOptions::default());
        let text = report.to_json().to_string();
        let back = Json::parse(&text).expect("report JSON parses");
        assert_eq!(back.req_u64("nodes").expect("nodes"), 2);
        assert_eq!(back.req_bool("clean").expect("clean"), report.clean());
        // Human rendering mentions the verdict too.
        let human = report.to_string();
        assert!(human.contains("verdict:"), "{human}");
    }
}
