//! Offline Byzantine-defense analysis: replay a trace into a
//! [`ByzReport`].
//!
//! [`ByzReport::from_events`] consumes a stream of [`TraceEvent`]s (in
//! file order) and derives everything the byz section of the `report`
//! CLI subcommand prints:
//!
//! * **the cast** — `adversary_activated` events name the scripted
//!   liars and their roles; everyone else in `cluster_started`'s head
//!   count is presumed honest.
//! * **detection** — `peer_convicted` events are matched against the
//!   cast: the detection rate is convicted adversaries over adversaries,
//!   the false-positive rate is convicted honest nodes over honest
//!   nodes, and the mean detection tick averages the conviction ticks
//!   of true positives.
//! * **audit bandwidth** — `peer_bandwidth` events carry each lineage's
//!   total bytes handled and the audit-traffic share; the overhead is
//!   `Σ audit / (Σ bytes − Σ audit)` — audit bytes per useful byte.
//! * **reconciliation** — the `byz_summary` event carries the grain
//!   auditor's *exact* measurement of minted weight (the excess of
//!   rejected frames' claims over their senders' durable books). Minted
//!   grains without a scripted minter, or a rejected-frame count that
//!   disagrees with the `frame_rejected` events, are anomalies.
//!
//! Like [`crate::analyze::TraceReport`], the report is a pure function
//! of the event stream: any anomaly fails the CI byz gate
//! ([`ByzReport::clean`]).

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{Fold, TraceEvent};
use crate::json::{field, num, str as jstr, unum, Json, JsonError};

/// One conviction, matched against the scripted cast.
#[derive(Debug, Clone, PartialEq)]
pub struct Conviction {
    /// The convicted peer.
    pub node: usize,
    /// Strikes tallied at conviction.
    pub strikes: u64,
    /// The latest accuser tick among the convicting strikes.
    pub tick: u64,
    /// The convicted peer's scripted role, if it had one (`None` marks
    /// a false positive).
    pub role: Option<String>,
}

/// Ingress rejections charged to one sender.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RejectionStats {
    /// Frames rejected.
    pub frames: u64,
    /// Grains those frames *claimed* to carry.
    pub claimed_grains: u64,
}

/// A red flag the replay raises; any anomaly fails the CI byz gate.
#[derive(Debug, Clone, PartialEq)]
pub enum ByzAnomaly {
    /// A scripted adversary was never convicted.
    MissedAdversary {
        /// The undetected adversary.
        node: usize,
        /// Its scripted role.
        role: String,
    },
    /// An honest node was convicted.
    FalseConviction {
        /// The wrongly convicted peer.
        node: usize,
    },
    /// The auditor measured minted grains but nobody was scripted to
    /// mint (`mint` is the only weight-creating role).
    MintedWithoutMinter {
        /// Grains the auditor measured.
        minted: u64,
    },
    /// The auditor settled more rejected frames than the trace ever
    /// recorded. (The trace may legitimately show *more* — a receiver
    /// that crashes after rejecting re-rejects the retransmission under
    /// its next incarnation — but never fewer.)
    RejectedMismatch {
        /// Distinct rejections seen in the trace.
        traced: u64,
        /// Rejections the auditor settled.
        audited: u64,
    },
    /// Adversaries were scripted but the trace shows no defense at work
    /// (no probes, no rejections, no strikes) — the run was undefended,
    /// so its detection figures are meaningless.
    DefenseInactive,
}

impl fmt::Display for ByzAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByzAnomaly::MissedAdversary { node, role } => {
                write!(
                    f,
                    "missed adversary: node {node} ({role}) was never convicted"
                )
            }
            ByzAnomaly::FalseConviction { node } => {
                write!(f, "false conviction: honest node {node} was convicted")
            }
            ByzAnomaly::MintedWithoutMinter { minted } => {
                write!(f, "{minted} grains minted but no minter was scripted")
            }
            ByzAnomaly::RejectedMismatch { traced, audited } => write!(
                f,
                "rejected-frame mismatch: trace shows {traced}, auditor settled {audited}"
            ),
            ByzAnomaly::DefenseInactive => {
                write!(
                    f,
                    "adversaries scripted but no defense activity in the trace"
                )
            }
        }
    }
}

/// The Byzantine story of one traced run, replayed offline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ByzReport {
    /// Events consumed.
    pub events: usize,
    /// Nodes declared by `cluster_started` (0 if the event is missing).
    pub nodes: usize,
    /// The scripted cast: node → role (`"mint"`, `"poison"`, `"cartel"`).
    pub adversaries: BTreeMap<usize, String>,
    /// Audit probes sent.
    pub probes: u64,
    /// Audit replies verified.
    pub verdicts: u64,
    /// Verifications that found drift (struck the target).
    pub failed_verdicts: u64,
    /// Passes that were vacuous — the target attested nothing, so
    /// silence was taken as a pass. A high share means the audit is
    /// mostly not looking at anything.
    pub vacuous_verdicts: u64,
    /// Strikes reported to the supervisor, by accused peer.
    pub strikes: BTreeMap<usize, u64>,
    /// Convictions, in trace order.
    pub convictions: Vec<Conviction>,
    /// Ingress rejections, by sender.
    pub rejections: BTreeMap<usize, RejectionStats>,
    /// Σ `bytes` over `peer_bandwidth` events (sent + received).
    pub bytes: u64,
    /// Σ `audit_bytes` over `peer_bandwidth` events.
    pub audit_bytes: u64,
    /// The grain auditor's `(minted_grains, rejected_frames)`, when the
    /// run carried a `byz_summary`.
    pub summary: Option<(u64, u64)>,
    /// Red flags; any fails the gate.
    pub anomalies: Vec<ByzAnomaly>,
}

/// The byz replay as a one-pass fold ([`ByzReport::fold`]): the report's
/// tallies fill in as events arrive, its verdicts at the end.
struct ByzFold(ByzReport);

impl Fold for ByzFold {
    type Report = ByzReport;

    fn on_event(&mut self, ev: &TraceEvent) {
        let report = &mut self.0;
        report.events += 1;
        match ev {
            TraceEvent::ClusterStarted { nodes, .. } => report.nodes = *nodes,
            TraceEvent::AdversaryActivated { node, role } => {
                report.adversaries.insert(*node, role.clone());
            }
            TraceEvent::AuditProbe { .. } => report.probes += 1,
            TraceEvent::AuditVerdict {
                passed, vacuous, ..
            } => {
                report.verdicts += 1;
                if !passed {
                    report.failed_verdicts += 1;
                }
                if *vacuous {
                    report.vacuous_verdicts += 1;
                }
            }
            TraceEvent::PeerStrike { target, .. } => {
                *report.strikes.entry(*target).or_insert(0) += 1;
            }
            TraceEvent::PeerConvicted {
                target,
                strikes,
                tick,
            } => report.convictions.push(Conviction {
                node: *target,
                strikes: *strikes,
                tick: *tick,
                role: None, // filled in at the end, once the cast is complete
            }),
            TraceEvent::FrameRejected { sender, grains, .. } => {
                let r = report.rejections.entry(*sender).or_default();
                r.frames += 1;
                r.claimed_grains += grains;
            }
            TraceEvent::PeerBandwidth {
                bytes, audit_bytes, ..
            } => {
                report.bytes += bytes;
                report.audit_bytes += audit_bytes;
            }
            TraceEvent::ByzSummary {
                minted_grains,
                rejected_frames,
            } => report.summary = Some((*minted_grains, *rejected_frames)),
            _ => {}
        }
    }

    fn finish(self, _unknown: usize) -> ByzReport {
        let mut report = self.0;
        for c in &mut report.convictions {
            c.role = report.adversaries.get(&c.node).cloned();
        }

        // Verdicts.
        let convicted: Vec<usize> = report.convictions.iter().map(|c| c.node).collect();
        for (&node, role) in &report.adversaries {
            if !convicted.contains(&node) {
                report.anomalies.push(ByzAnomaly::MissedAdversary {
                    node,
                    role: role.clone(),
                });
            }
        }
        for c in &report.convictions {
            if c.role.is_none() {
                report
                    .anomalies
                    .push(ByzAnomaly::FalseConviction { node: c.node });
            }
        }
        if let Some((minted, audited_rejects)) = report.summary {
            let has_minter = report.adversaries.values().any(|r| r == "mint");
            if minted > 0 && !has_minter {
                report
                    .anomalies
                    .push(ByzAnomaly::MintedWithoutMinter { minted });
            }
            let traced: u64 = report.rejections.values().map(|r| r.frames).sum();
            if traced < audited_rejects {
                report.anomalies.push(ByzAnomaly::RejectedMismatch {
                    traced,
                    audited: audited_rejects,
                });
            }
        }
        let defense_seen =
            report.probes > 0 || !report.strikes.is_empty() || !report.rejections.is_empty();
        if !report.adversaries.is_empty() && !defense_seen {
            report.anomalies.push(ByzAnomaly::DefenseInactive);
        }
        report
    }
}

impl ByzReport {
    /// The replay as a one-pass fold: feed it events in trace-file
    /// order. It keeps per-node tallies and the convictions.
    pub fn fold() -> impl Fold<Report = ByzReport> {
        ByzFold(ByzReport::default())
    }

    /// Replays a JSONL trace file into a report, one line at a time.
    /// Unknown event types are skipped (forward compatibility); malformed
    /// lines are errors.
    ///
    /// # Errors
    ///
    /// [`JsonError`] naming the offending line, as for
    /// [`crate::analyze::TraceReport::from_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<ByzReport, JsonError> {
        Self::fold().fold_jsonl(text.as_bytes())
    }

    /// Replays a stream of events (in file order) into a report.
    pub fn from_events(events: &[TraceEvent]) -> ByzReport {
        Self::fold().fold_events(events)
    }

    /// Convicted adversaries over scripted adversaries; `1.0` when
    /// nothing was scripted (there was nothing to miss).
    pub fn detection_rate(&self) -> f64 {
        if self.adversaries.is_empty() {
            return 1.0;
        }
        let caught = self.convictions.iter().filter(|c| c.role.is_some()).count();
        caught as f64 / self.adversaries.len() as f64
    }

    /// Convicted honest nodes over honest nodes; `0.0` when the head
    /// count is unknown.
    pub fn false_positive_rate(&self) -> f64 {
        let honest = self.nodes.saturating_sub(self.adversaries.len());
        if honest == 0 {
            return 0.0;
        }
        let wrong = self.convictions.iter().filter(|c| c.role.is_none()).count();
        wrong as f64 / honest as f64
    }

    /// Mean conviction tick over true positives; `None` until something
    /// was caught.
    pub fn mean_detection_tick(&self) -> Option<f64> {
        let ticks: Vec<u64> = self
            .convictions
            .iter()
            .filter(|c| c.role.is_some())
            .map(|c| c.tick)
            .collect();
        if ticks.is_empty() {
            return None;
        }
        Some(ticks.iter().sum::<u64>() as f64 / ticks.len() as f64)
    }

    /// Share of verdicts that were vacuous passes: `vacuous / verdicts`.
    /// `None` until a verdict exists. A silence rate near 1.0 means the
    /// stochastic audit is passing targets it never actually compared —
    /// observable cover for an attacker that simply attests nothing.
    pub fn silence_rate(&self) -> Option<f64> {
        if self.verdicts == 0 {
            return None;
        }
        Some(self.vacuous_verdicts as f64 / self.verdicts as f64)
    }

    /// Audit bytes per useful (non-audit) byte handled: `Σ audit /
    /// (Σ bytes − Σ audit)`. `None` without bandwidth events or useful
    /// traffic.
    pub fn audit_overhead(&self) -> Option<f64> {
        let useful = self.bytes.checked_sub(self.audit_bytes)?;
        if useful == 0 {
            return None;
        }
        Some(self.audit_bytes as f64 / useful as f64)
    }

    /// `true` when the replay raised no anomaly — the CI byz gate.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Encodes the full report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> Json {
        let adversaries = self
            .adversaries
            .iter()
            .map(|(&node, role)| {
                Json::Obj(vec![
                    field("node", unum(node as u64)),
                    field("role", jstr(role.clone())),
                ])
            })
            .collect();
        let convictions = self
            .convictions
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    field("node", unum(c.node as u64)),
                    field("strikes", unum(c.strikes)),
                    field("tick", unum(c.tick)),
                    field("role", c.role.clone().map(jstr).unwrap_or(Json::Null)),
                ])
            })
            .collect();
        let rejections = self
            .rejections
            .iter()
            .map(|(&sender, r)| {
                Json::Obj(vec![
                    field("sender", unum(sender as u64)),
                    field("frames", unum(r.frames)),
                    field("claimed_grains", unum(r.claimed_grains)),
                ])
            })
            .collect();
        let anomalies = self.anomalies.iter().map(|a| jstr(a.to_string())).collect();
        Json::Obj(vec![
            field("events", unum(self.events as u64)),
            field("nodes", unum(self.nodes as u64)),
            field("adversaries", Json::Arr(adversaries)),
            field("probes", unum(self.probes)),
            field("verdicts", unum(self.verdicts)),
            field("failed_verdicts", unum(self.failed_verdicts)),
            field("vacuous_verdicts", unum(self.vacuous_verdicts)),
            field(
                "silence_rate",
                self.silence_rate().map(num).unwrap_or(Json::Null),
            ),
            field("convictions", Json::Arr(convictions)),
            field("rejections", Json::Arr(rejections)),
            field("detection_rate", num(self.detection_rate())),
            field("false_positive_rate", num(self.false_positive_rate())),
            field(
                "mean_detection_tick",
                self.mean_detection_tick().map(num).unwrap_or(Json::Null),
            ),
            field("bytes", unum(self.bytes)),
            field("audit_bytes", unum(self.audit_bytes)),
            field(
                "audit_overhead",
                self.audit_overhead().map(num).unwrap_or(Json::Null),
            ),
            field(
                "minted_grains",
                self.summary.map(|(m, _)| unum(m)).unwrap_or(Json::Null),
            ),
            field(
                "rejected_frames",
                self.summary.map(|(_, r)| unum(r)).unwrap_or(Json::Null),
            ),
            field("anomalies", Json::Arr(anomalies)),
            field("clean", Json::Bool(self.clean())),
        ])
    }
}

impl fmt::Display for ByzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "byz: {} events, {} nodes, {} scripted adversaries",
            self.events,
            self.nodes,
            self.adversaries.len()
        )?;
        for (&node, role) in &self.adversaries {
            writeln!(f, "  adversary {node}: {role}")?;
        }
        writeln!(
            f,
            "audit: {} probes, {} verdicts ({} failed, {} vacuous{})",
            self.probes,
            self.verdicts,
            self.failed_verdicts,
            self.vacuous_verdicts,
            self.silence_rate()
                .map(|r| format!(", silence rate {r:.2}"))
                .unwrap_or_default(),
        )?;
        for c in &self.convictions {
            let role = c.role.as_deref().unwrap_or("HONEST — false positive");
            writeln!(
                f,
                "  convicted {} at tick {} with {} strikes ({})",
                c.node, c.tick, c.strikes, role
            )?;
        }
        let total_rejected: u64 = self.rejections.values().map(|r| r.frames).sum();
        if total_rejected > 0 {
            writeln!(f, "ingress: {total_rejected} frames rejected")?;
            for (&sender, r) in &self.rejections {
                writeln!(
                    f,
                    "  from {}: {} frames claiming {} grains",
                    sender, r.frames, r.claimed_grains
                )?;
            }
        }
        writeln!(
            f,
            "detection: rate {:.2}, false positives {:.2}, mean tick {}",
            self.detection_rate(),
            self.false_positive_rate(),
            self.mean_detection_tick()
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".into()),
        )?;
        match self.audit_overhead() {
            Some(o) => writeln!(
                f,
                "bandwidth: {} audit bytes over {} handled ({:.2}% overhead)",
                self.audit_bytes,
                self.bytes,
                o * 100.0
            )?,
            None => writeln!(f, "bandwidth: no peer_bandwidth events")?,
        }
        if let Some((minted, rejected)) = self.summary {
            writeln!(
                f,
                "auditor: {minted} grains minted across {rejected} rejected frames"
            )?;
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

    fn cast() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ClusterStarted {
                nodes: 8,
                initial_grains: 8 << 20,
            },
            TraceEvent::AdversaryActivated {
                node: 2,
                role: "cartel".into(),
            },
            TraceEvent::AdversaryActivated {
                node: 5,
                role: "cartel".into(),
            },
        ]
    }

    fn convict(target: usize, strikes: u64, tick: u64) -> TraceEvent {
        TraceEvent::PeerConvicted {
            target,
            strikes,
            tick,
        }
    }

    fn strike(node: usize, target: usize, tick: u64) -> TraceEvent {
        TraceEvent::PeerStrike {
            node,
            target,
            reason: "drift".into(),
            tick,
        }
    }

    #[test]
    fn clean_run_with_all_adversaries_caught() {
        let mut events = cast();
        events.extend([
            TraceEvent::AuditProbe {
                node: 0,
                target: 2,
                tick: 70,
            },
            TraceEvent::AuditVerdict {
                node: 0,
                target: 2,
                passed: false,
                vacuous: false,
                tick: 72,
            },
            strike(0, 2, 72),
            strike(1, 2, 80),
            convict(2, 2, 80),
            strike(3, 5, 90),
            strike(4, 5, 100),
            convict(5, 2, 100),
            TraceEvent::PeerBandwidth {
                node: 0,
                bytes: 1000,
                audit_bytes: 20,
            },
            TraceEvent::PeerBandwidth {
                node: 1,
                bytes: 1000,
                audit_bytes: 20,
            },
        ]);
        let report = ByzReport::from_events(&events);
        assert!(report.clean(), "anomalies: {:?}", report.anomalies);
        assert_eq!(report.detection_rate(), 1.0);
        assert_eq!(report.false_positive_rate(), 0.0);
        assert_eq!(report.mean_detection_tick(), Some(90.0));
        let overhead = report.audit_overhead().unwrap();
        assert!((overhead - 40.0 / 1960.0).abs() < 1e-12);
    }

    #[test]
    fn missed_adversary_and_false_conviction_are_anomalies() {
        let mut events = cast();
        // Node 2 caught; node 5 missed; honest node 7 railroaded.
        events.extend([strike(0, 2, 70), convict(2, 2, 70), convict(7, 2, 75)]);
        let report = ByzReport::from_events(&events);
        assert!(!report.clean());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, ByzAnomaly::MissedAdversary { node: 5, .. })));
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, ByzAnomaly::FalseConviction { node: 7 })));
        assert_eq!(report.detection_rate(), 0.5);
        assert!((report.false_positive_rate() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn minted_grains_require_a_scripted_minter() {
        let mut events = cast(); // cartel only — nobody mints
        events.extend([
            strike(0, 2, 70),
            convict(2, 2, 70),
            strike(0, 5, 71),
            convict(5, 2, 71),
            TraceEvent::FrameRejected {
                node: 0,
                sender: 2,
                grains: 99,
                reason: "minted".into(),
                tick: 69,
            },
            TraceEvent::ByzSummary {
                minted_grains: 42,
                rejected_frames: 1,
            },
        ]);
        let report = ByzReport::from_events(&events);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, ByzAnomaly::MintedWithoutMinter { minted: 42 })));
    }

    #[test]
    fn rejected_counts_must_reconcile_with_the_auditor() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 4,
                initial_grains: 4 << 20,
            },
            TraceEvent::AdversaryActivated {
                node: 1,
                role: "mint".into(),
            },
            TraceEvent::FrameRejected {
                node: 0,
                sender: 1,
                grains: 99,
                reason: "minted".into(),
                tick: 10,
            },
            strike(0, 1, 10),
            strike(2, 1, 11),
            convict(1, 2, 11),
            TraceEvent::ByzSummary {
                minted_grains: 17,
                rejected_frames: 3,
            },
        ];
        let report = ByzReport::from_events(&events);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            ByzAnomaly::RejectedMismatch {
                traced: 1,
                audited: 3
            }
        )));
    }

    #[test]
    fn scripted_adversaries_with_no_defense_activity_flagged() {
        let report = ByzReport::from_events(&cast());
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, ByzAnomaly::DefenseInactive)));
        // And both adversaries are missed, of course.
        assert_eq!(report.detection_rate(), 0.0);
    }

    #[test]
    fn vacuous_passes_surface_in_the_silence_rate() {
        let verdict = |passed: bool, vacuous: bool, tick: u64| TraceEvent::AuditVerdict {
            node: 0,
            target: 2,
            passed,
            vacuous,
            tick,
        };
        let events = vec![
            verdict(true, true, 10),
            verdict(true, true, 20),
            verdict(true, false, 30),
            verdict(false, false, 40),
        ];
        let report = ByzReport::from_events(&events);
        assert_eq!(report.verdicts, 4);
        assert_eq!(report.vacuous_verdicts, 2);
        assert_eq!(report.silence_rate(), Some(0.5));
        let json = report.to_json().to_string();
        let parsed = Json::parse(&json).expect("valid json");
        assert_eq!(
            parsed.get("vacuous_verdicts").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(parsed.get("silence_rate").and_then(Json::as_f64), Some(0.5));
        assert!(report.to_string().contains("silence rate 0.50"));
    }

    #[test]
    fn empty_trace_is_clean_and_inert() {
        let report = ByzReport::from_events(&[]);
        assert!(report.clean());
        assert_eq!(report.detection_rate(), 1.0);
        assert_eq!(report.false_positive_rate(), 0.0);
        assert_eq!(report.mean_detection_tick(), None);
        assert_eq!(report.audit_overhead(), None);
    }

    #[test]
    fn json_round_trips_through_the_writer() {
        let mut events = cast();
        events.extend([strike(0, 2, 70), convict(2, 2, 70)]);
        let report = ByzReport::from_events(&events);
        let text = report.to_json().to_string();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(
            parsed.get("nodes").and_then(Json::as_f64),
            Some(8.0),
            "{text}"
        );
        assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(false));
    }
}
