//! Offline dynamic-workload analysis: replay a trace into a
//! [`DynReport`].
//!
//! A dynamic run perturbs the cluster on purpose — sensor drift decays
//! old mass and injects fresh readings, churn spawns and retires peers —
//! and the interesting question is no longer "did it converge" but "did
//! it *re*-converge after each perturbation, and do the books still
//! balance". [`DynReport::from_events`] derives both halves from a JSONL
//! trace alone:
//!
//! * **episode timeline** — `cluster_telemetry` samples are replayed
//!   into a [`TelemetrySeries`] (elapsed milliseconds as the round axis)
//!   and segmented by [`TelemetrySeries::episodes`] into converged →
//!   perturbed → re-converged episodes with per-episode settle times.
//! * **perturbation ledger** — `sensor_drift`, `peer_joined` and
//!   `peer_retired` events are the scripted dynamics; `grains_voided`
//!   events carry the drift terms rolled back by crash–restarts.
//! * **reconciliation** — the net traced injection
//!   (`drift injected + join units − voided injected`) and forgetting
//!   (`drift forgotten − voided forgotten`) must equal what the grain
//!   auditor settled in `audit_summary`, to the grain. A mismatch, a
//!   perturbed run that never re-converged, or a violated conservation
//!   verdict is an anomaly, and any anomaly fails the CI dyn gate
//!   ([`DynReport::clean`]).
//! * **staleness** — per-node re-read counts and last re-read tick show
//!   which sensors went stale (no drift event while the schedule was
//!   active).

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{Fold, TraceEvent};
use crate::json::{field, num, str as jstr, unum, Json, JsonError};
use crate::telemetry::{Episode, TelemetrySample, TelemetrySeries};

/// Tuning for the episode segmentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynOptions {
    /// Samples that must satisfy the flat-low-tail rule to declare the
    /// converged regime (see [`TelemetrySeries::converged`]).
    pub window: usize,
    /// Maximum dispersion delta between consecutive in-window samples.
    pub delta_tol: f64,
    /// Dispersion level bounding the converged regime.
    pub level: f64,
}

impl Default for DynOptions {
    fn default() -> Self {
        DynOptions {
            window: 3,
            delta_tol: 1e-3,
            level: 1e-2,
        }
    }
}

/// One scripted churn event as the trace recorded it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRecord {
    /// The joining or retiring node.
    pub node: usize,
    /// Grains it brought in (join) or held when told to leave (retire).
    pub grains: u64,
    /// Seconds since cluster start.
    pub at: f64,
}

/// Per-node sensor staleness: how often and how recently it re-read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Staleness {
    /// Drift events this node played.
    pub re_reads: u64,
    /// The node's gossip tick at its last re-read.
    pub last_tick: u64,
}

/// A red flag the replay raises; any anomaly fails the CI dyn gate.
#[derive(Debug, Clone, PartialEq)]
pub enum DynAnomaly {
    /// Traced net injections disagree with what the auditor settled.
    InjectedMismatch {
        /// `drift injected + join units − voided injected` in the trace.
        traced: i64,
        /// The auditor's settled injection total.
        audited: u64,
    },
    /// Traced net forgetting disagrees with what the auditor settled.
    ForgottenMismatch {
        /// `drift forgotten − voided forgotten` in the trace.
        traced: i64,
        /// The auditor's settled forgetting total.
        audited: u64,
    },
    /// The trajectory left the converged regime and never settled again.
    NeverReconverged {
        /// Elapsed-ms sample at which convergence was last lost.
        lost_at_ms: u64,
    },
    /// Dynamics were scripted but the trace carries no telemetry to
    /// segment — re-convergence cannot be confirmed either way.
    NoTelemetry,
    /// The auditor itself reported the conservation identity violated.
    NotConserved,
}

impl fmt::Display for DynAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynAnomaly::InjectedMismatch { traced, audited } => write!(
                f,
                "injection mismatch: trace nets {traced} grains, auditor settled {audited}"
            ),
            DynAnomaly::ForgottenMismatch { traced, audited } => write!(
                f,
                "forgetting mismatch: trace nets {traced} grains, auditor settled {audited}"
            ),
            DynAnomaly::NeverReconverged { lost_at_ms } => write!(
                f,
                "never re-converged after losing convergence at {lost_at_ms} ms"
            ),
            DynAnomaly::NoTelemetry => {
                write!(f, "dynamics scripted but no telemetry samples in the trace")
            }
            DynAnomaly::NotConserved => {
                write!(f, "the grain auditor reported conservation violated")
            }
        }
    }
}

/// The dynamic-workload story of one traced run, replayed offline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynReport {
    /// Events consumed.
    pub events: usize,
    /// Nodes declared by `cluster_started` (0 if the event is missing).
    pub nodes: usize,
    /// Telemetry samples replayed into the episode series.
    pub samples: usize,
    /// Converged → perturbed → re-converged episodes; round units are
    /// elapsed milliseconds.
    pub episodes: Vec<Episode>,
    /// Sensor re-reads traced.
    pub drift_events: u64,
    /// Grains injected by traced re-reads (before voiding).
    pub drift_injected: u64,
    /// Grains forgotten by traced re-reads (before voiding).
    pub drift_forgotten: u64,
    /// Drift injections rolled back by crash–restarts.
    pub voided_injected: u64,
    /// Drift forgetting rolled back by crash–restarts.
    pub voided_forgotten: u64,
    /// Mid-run joins, in trace order.
    pub joins: Vec<ChurnRecord>,
    /// Graceful retirements, in trace order.
    pub retirements: Vec<ChurnRecord>,
    /// Per-node sensor staleness.
    pub staleness: BTreeMap<usize, Staleness>,
    /// The auditor's `(injected, forgotten, conserved)`, when the run
    /// carried an `audit_summary`.
    pub audit: Option<(u64, u64, bool)>,
    /// Final outcome → node count (`"completed"`, `"retired"`, …).
    pub outcomes: BTreeMap<String, usize>,
    /// Red flags; any fails the gate.
    pub anomalies: Vec<DynAnomaly>,
}

/// The dyn replay as a one-pass fold ([`DynReport::fold`]): tallies fill
/// in as events arrive; the telemetry series is segmented at the end.
struct DynFold {
    report: DynReport,
    series: TelemetrySeries,
    opts: DynOptions,
}

impl Fold for DynFold {
    type Report = DynReport;

    fn on_event(&mut self, ev: &TraceEvent) {
        let report = &mut self.report;
        report.events += 1;
        match ev {
            TraceEvent::ClusterStarted { nodes, .. } => report.nodes = *nodes,
            TraceEvent::ClusterTelemetry {
                elapsed_ms,
                live,
                dispersion,
                unix_ms,
            } => self.series.push(TelemetrySample {
                round: *elapsed_ms as u64,
                live: *live,
                dispersion: Some(*dispersion),
                unix_ms: *unix_ms,
                ..TelemetrySample::default()
            }),
            TraceEvent::SensorDrift {
                node,
                injected,
                forgotten,
                tick,
                ..
            } => {
                report.drift_events += 1;
                report.drift_injected += injected;
                report.drift_forgotten += forgotten;
                let s = report.staleness.entry(*node).or_default();
                s.re_reads += 1;
                s.last_tick = s.last_tick.max(*tick);
            }
            TraceEvent::GrainsVoided {
                injected,
                forgotten,
                ..
            } => {
                report.voided_injected += injected;
                report.voided_forgotten += forgotten;
            }
            TraceEvent::PeerJoined { node, grains, at } => report.joins.push(ChurnRecord {
                node: *node,
                grains: *grains,
                at: *at,
            }),
            TraceEvent::PeerRetired { node, grains, at } => report.retirements.push(ChurnRecord {
                node: *node,
                grains: *grains,
                at: *at,
            }),
            TraceEvent::AuditSummary {
                injected,
                forgotten,
                conserved,
                ..
            } => report.audit = Some((*injected, *forgotten, *conserved)),
            TraceEvent::PeerFinal { outcome, .. } => {
                *report.outcomes.entry(outcome.clone()).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn finish(self, _unknown: usize) -> DynReport {
        let (mut report, o) = (self.report, self.opts);
        report.samples = self.series.len();
        report.episodes = self.series.episodes(o.window, o.delta_tol, o.level);

        // Verdicts.
        let dynamic =
            report.drift_events > 0 || !report.joins.is_empty() || !report.retirements.is_empty();
        if let Some((injected, forgotten, conserved)) = report.audit {
            let join_units: u64 = report.joins.iter().map(|j| j.grains).sum();
            let traced_injected =
                report.drift_injected as i64 + join_units as i64 - report.voided_injected as i64;
            if traced_injected != injected as i64 {
                report.anomalies.push(DynAnomaly::InjectedMismatch {
                    traced: traced_injected,
                    audited: injected,
                });
            }
            let traced_forgotten = report.drift_forgotten as i64 - report.voided_forgotten as i64;
            if traced_forgotten != forgotten as i64 {
                report.anomalies.push(DynAnomaly::ForgottenMismatch {
                    traced: traced_forgotten,
                    audited: forgotten,
                });
            }
            if !conserved {
                report.anomalies.push(DynAnomaly::NotConserved);
            }
        }
        if dynamic && report.samples == 0 {
            report.anomalies.push(DynAnomaly::NoTelemetry);
        }
        if let Some(last) = report.episodes.last() {
            if let Some(lost) = last.lost_round {
                report
                    .anomalies
                    .push(DynAnomaly::NeverReconverged { lost_at_ms: lost });
            }
        }
        report
    }
}

impl DynReport {
    /// The replay as a one-pass fold: feed it events in trace-file
    /// order. It keeps the dynamics tallies, the churn records and the
    /// wall-clock telemetry series it segments at the end.
    pub fn fold(opts: &DynOptions) -> impl Fold<Report = DynReport> {
        DynFold {
            report: DynReport::default(),
            series: TelemetrySeries::new(),
            opts: *opts,
        }
    }

    /// Replays a JSONL trace file into a report, one line at a time.
    /// Unknown event types are skipped (forward compatibility); malformed
    /// lines are errors.
    ///
    /// # Errors
    ///
    /// [`JsonError`] naming the offending line, as for
    /// [`crate::analyze::TraceReport::from_jsonl`].
    pub fn from_jsonl(text: &str, opts: &DynOptions) -> Result<DynReport, JsonError> {
        Self::fold(opts).fold_jsonl(text.as_bytes())
    }

    /// Replays a stream of events (in file order) into a report.
    pub fn from_events(events: &[TraceEvent], opts: &DynOptions) -> DynReport {
        Self::fold(opts).fold_events(events)
    }

    /// Settle time of the final episode, in the series' ms axis.
    pub fn final_settle_ms(&self) -> Option<u64> {
        self.episodes.last().map(|e| e.settle_rounds)
    }

    /// Nodes from the head count with zero traced re-reads, given that
    /// at least one node did re-read — the stale sensors.
    pub fn stale_nodes(&self) -> Vec<usize> {
        if self.drift_events == 0 {
            return Vec::new();
        }
        (0..self.nodes)
            .filter(|id| !self.staleness.contains_key(id))
            .collect()
    }

    /// `true` when the replay raised no anomaly — the CI dyn gate.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Encodes the full report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> Json {
        let episodes = self
            .episodes
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    field("settled_ms", unum(e.settled_round)),
                    field("lost_ms", e.lost_round.map(unum).unwrap_or(Json::Null)),
                    field("settle_ms", unum(e.settle_rounds)),
                ])
            })
            .collect();
        let churn = |list: &[ChurnRecord]| {
            Json::Arr(
                list.iter()
                    .map(|c| {
                        Json::Obj(vec![
                            field("node", unum(c.node as u64)),
                            field("grains", unum(c.grains)),
                            field("at", num(c.at)),
                        ])
                    })
                    .collect(),
            )
        };
        let staleness = self
            .staleness
            .iter()
            .map(|(&node, s)| {
                Json::Obj(vec![
                    field("node", unum(node as u64)),
                    field("re_reads", unum(s.re_reads)),
                    field("last_tick", unum(s.last_tick)),
                ])
            })
            .collect();
        let outcomes = self
            .outcomes
            .iter()
            .map(|(k, &v)| field(k, unum(v as u64)))
            .collect();
        let anomalies = self.anomalies.iter().map(|a| jstr(a.to_string())).collect();
        Json::Obj(vec![
            field("events", unum(self.events as u64)),
            field("nodes", unum(self.nodes as u64)),
            field("samples", unum(self.samples as u64)),
            field("episodes", Json::Arr(episodes)),
            field("drift_events", unum(self.drift_events)),
            field("drift_injected", unum(self.drift_injected)),
            field("drift_forgotten", unum(self.drift_forgotten)),
            field("voided_injected", unum(self.voided_injected)),
            field("voided_forgotten", unum(self.voided_forgotten)),
            field("joins", churn(&self.joins)),
            field("retirements", churn(&self.retirements)),
            field("staleness", Json::Arr(staleness)),
            field(
                "audit_injected",
                self.audit.map(|(i, _, _)| unum(i)).unwrap_or(Json::Null),
            ),
            field(
                "audit_forgotten",
                self.audit.map(|(_, g, _)| unum(g)).unwrap_or(Json::Null),
            ),
            field(
                "conserved",
                self.audit
                    .map(|(_, _, c)| Json::Bool(c))
                    .unwrap_or(Json::Null),
            ),
            field("outcomes", Json::Obj(outcomes)),
            field("anomalies", Json::Arr(anomalies)),
            field("clean", Json::Bool(self.clean())),
        ])
    }
}

impl fmt::Display for DynReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dyn: {} events, {} nodes, {} telemetry samples",
            self.events, self.nodes, self.samples
        )?;
        writeln!(
            f,
            "dynamics: {} re-reads (+{} −{} grains, voided +{} −{}), {} joins, {} retirements",
            self.drift_events,
            self.drift_injected,
            self.drift_forgotten,
            self.voided_injected,
            self.voided_forgotten,
            self.joins.len(),
            self.retirements.len(),
        )?;
        if self.episodes.is_empty() {
            writeln!(f, "episodes: none (never settled)")?;
        } else {
            writeln!(f, "episodes: {}", self.episodes.len())?;
            for (i, e) in self.episodes.iter().enumerate() {
                let end = e
                    .lost_round
                    .map(|r| format!("lost at {r} ms"))
                    .unwrap_or_else(|| "held to the end".into());
                writeln!(
                    f,
                    "  {}: settled at {} ms after {} ms perturbed, {}",
                    i + 1,
                    e.settled_round,
                    e.settle_rounds,
                    end
                )?;
            }
        }
        let stale = self.stale_nodes();
        if !stale.is_empty() {
            writeln!(f, "stale sensors (no re-read): {stale:?}")?;
        }
        match self.audit {
            Some((injected, forgotten, conserved)) => writeln!(
                f,
                "auditor: injected={injected} forgotten={forgotten} conserved={conserved}"
            )?,
            None => writeln!(f, "auditor: no audit_summary in the trace")?,
        }
        if !self.outcomes.is_empty() {
            let parts: Vec<String> = self
                .outcomes
                .iter()
                .map(|(k, v)| format!("{v} {k}"))
                .collect();
            writeln!(f, "outcomes: {}", parts.join(", "))?;
        }
        if self.anomalies.is_empty() {
            writeln!(f, "anomalies: none")?;
        } else {
            writeln!(f, "anomalies: {}", self.anomalies.len())?;
            for a in &self.anomalies {
                writeln!(f, "  - {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(elapsed_ms: f64, dispersion: f64) -> TraceEvent {
        TraceEvent::ClusterTelemetry {
            elapsed_ms,
            live: 4,
            dispersion,
            unix_ms: None,
        }
    }

    fn drift(node: usize, injected: u64, forgotten: u64, tick: u64) -> TraceEvent {
        TraceEvent::SensorDrift {
            node,
            incarnation: 0,
            injected,
            forgotten,
            tick,
        }
    }

    fn settled_then_perturbed_then_settled() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ClusterStarted {
                nodes: 4,
                initial_grains: 4000,
            },
            telemetry(10.0, 0.9),
            telemetry(20.0, 0.005),
            telemetry(30.0, 0.0051),
            telemetry(40.0, 0.0049),
            drift(1, 1000, 400, 17),
            telemetry(50.0, 0.7),
            telemetry(60.0, 0.004),
            telemetry(70.0, 0.0041),
            telemetry(80.0, 0.0042),
            TraceEvent::AuditSummary {
                initial: 4000,
                final_grains: 4600,
                gains: 0,
                losses: 0,
                injected: 1000,
                forgotten: 400,
                exact: true,
                conserved: true,
            },
        ]
    }

    #[test]
    fn clean_drift_run_segments_two_episodes() {
        let report = DynReport::from_events(
            &settled_then_perturbed_then_settled(),
            &DynOptions::default(),
        );
        assert!(report.clean(), "anomalies: {:?}", report.anomalies);
        assert_eq!(report.episodes.len(), 2, "{:?}", report.episodes);
        assert_eq!(report.episodes[0].settled_round, 40);
        assert_eq!(report.episodes[0].lost_round, Some(50));
        assert_eq!(report.episodes[1].settled_round, 80);
        assert_eq!(report.episodes[1].settle_rounds, 30, "50 → 80 ms");
        assert_eq!(report.episodes[1].lost_round, None);
        assert_eq!(report.drift_events, 1);
        assert_eq!(report.staleness.get(&1).unwrap().re_reads, 1);
        assert_eq!(report.stale_nodes(), vec![0, 2, 3]);
    }

    #[test]
    fn injection_mismatch_is_an_anomaly() {
        let mut events = settled_then_perturbed_then_settled();
        // The auditor settled more injection than the trace shows.
        if let Some(TraceEvent::AuditSummary { injected, .. }) = events.last_mut() {
            *injected = 1500;
        }
        let report = DynReport::from_events(&events, &DynOptions::default());
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            DynAnomaly::InjectedMismatch {
                traced: 1000,
                audited: 1500
            }
        )));
    }

    #[test]
    fn voided_drift_reconciles_against_the_auditor() {
        let mut events = settled_then_perturbed_then_settled();
        // A crash–restart voided the whole re-read; the auditor settles 0.
        events.push(TraceEvent::GrainsVoided {
            node: 1,
            incarnation: 0,
            split: 0,
            merged: 0,
            returned: 0,
            injected: 1000,
            forgotten: 400,
        });
        if let Some(TraceEvent::AuditSummary {
            injected,
            forgotten,
            ..
        }) = events
            .iter_mut()
            .rfind(|e| matches!(e, TraceEvent::AuditSummary { .. }))
        {
            *injected = 0;
            *forgotten = 0;
        }
        let report = DynReport::from_events(&events, &DynOptions::default());
        assert!(report.clean(), "anomalies: {:?}", report.anomalies);
    }

    #[test]
    fn join_units_count_as_injection() {
        let mut events = settled_then_perturbed_then_settled();
        events.insert(
            5,
            TraceEvent::PeerJoined {
                node: 4,
                grains: 1000,
                at: 0.045,
            },
        );
        if let Some(TraceEvent::AuditSummary { injected, .. }) = events.last_mut() {
            *injected = 2000;
        }
        let report = DynReport::from_events(&events, &DynOptions::default());
        assert!(report.clean(), "anomalies: {:?}", report.anomalies);
        assert_eq!(report.joins.len(), 1);
    }

    #[test]
    fn lost_convergence_without_recovery_is_an_anomaly() {
        let events = vec![
            telemetry(10.0, 0.005),
            telemetry(20.0, 0.0051),
            telemetry(30.0, 0.0049),
            telemetry(40.0, 0.9),
            telemetry(50.0, 0.8),
        ];
        let report = DynReport::from_events(&events, &DynOptions::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, DynAnomaly::NeverReconverged { lost_at_ms: 40 })));
    }

    #[test]
    fn dynamics_without_telemetry_flagged() {
        let events = vec![drift(0, 1000, 500, 3)];
        let report = DynReport::from_events(&events, &DynOptions::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, DynAnomaly::NoTelemetry)));
    }

    #[test]
    fn static_trace_is_clean_and_inert() {
        let report = DynReport::from_events(&[], &DynOptions::default());
        assert!(report.clean());
        assert!(report.episodes.is_empty());
        assert_eq!(report.final_settle_ms(), None);
        assert!(report.stale_nodes().is_empty());
    }

    #[test]
    fn json_encodes_episodes_and_gate() {
        let report = DynReport::from_events(
            &settled_then_perturbed_then_settled(),
            &DynOptions::default(),
        );
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(true));
        let eps = parsed.get("episodes").and_then(Json::as_array).unwrap();
        assert_eq!(eps.len(), 2);
        assert_eq!(
            eps[1].get("settle_ms").and_then(Json::as_f64),
            Some(30.0),
            "{text}"
        );
    }
}
