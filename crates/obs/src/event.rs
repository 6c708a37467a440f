//! Typed trace events and their JSONL encoding.
//!
//! One event type covers every layer: the simulation engines (rounds,
//! events), the gossip runner, and the deployment runtime. Each event
//! serializes to a single-line JSON object with a `"type"` discriminator,
//! so a trace file is plain JSONL that external tooling can consume, and
//! [`TraceEvent::from_json`] parses it back for in-repo analysis (for
//! example the grain-conservation reconciliation test).

use std::io::BufRead;

use crate::json::{field, num, str as jstr, unum, Json, JsonError};
use crate::telemetry::TelemetrySample;

/// Appends an optional causal field only when present, so traces without
/// the causal layer keep their pre-existing JSON shape byte for byte.
fn push_opt(fields: &mut Vec<(String, Json)>, key: &str, value: Option<u64>) {
    if let Some(v) = value {
        fields.push(field(key, unum(v)));
    }
}

/// Which direction a grain movement went, from the owning node's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrainOp {
    /// Grains left the node inside an outgoing half (Algorithm 1's split).
    Split,
    /// Grains from a received half were merged into the node's state.
    Merge,
    /// Grains came back after an abandoned retransmission.
    Return,
}

impl GrainOp {
    fn as_str(self) -> &'static str {
        match self {
            GrainOp::Split => "split",
            GrainOp::Merge => "merge",
            GrainOp::Return => "return",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "split" => Some(GrainOp::Split),
            "merge" => Some(GrainOp::Merge),
            "return" => Some(GrainOp::Return),
            _ => None,
        }
    }
}

/// Why an in-flight message never reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The destination was crashed at delivery time.
    Crashed,
    /// A partition window separated sender and receiver.
    Partitioned,
}

impl DropReason {
    fn as_str(self) -> &'static str {
        match self {
            DropReason::Crashed => "crashed",
            DropReason::Partitioned => "partitioned",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "crashed" => Some(DropReason::Crashed),
            "partitioned" => Some(DropReason::Partitioned),
            _ => None,
        }
    }
}

/// A structured observation from any layer of the stack.
///
/// Node indices are `usize` everywhere (the runtime's `u16` peer ids
/// widen losslessly); `incarnation` is only meaningful for runtime peers
/// and is `0` in simulation engines.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began: how many participants and the total grains minted.
    ClusterStarted {
        /// Number of nodes/peers in the run.
        nodes: usize,
        /// Total grains minted at start (one weight unit per node, so the
        /// per-node share is `initial_grains / nodes`).
        initial_grains: u64,
    },
    /// A synchronous round finished (rounds engine / gossip runner).
    RoundCompleted {
        /// Round index that just completed.
        round: u64,
        /// Live nodes after the round's crash phase.
        live: usize,
        /// Cumulative messages sent so far.
        sent: u64,
        /// Cumulative messages delivered so far.
        delivered: u64,
        /// Cumulative messages dropped so far.
        dropped: u64,
    },
    /// A node's periodic tick fired (event-driven engine).
    TickCompleted {
        /// Node that ticked.
        node: usize,
        /// Simulated time of the tick.
        time: f64,
    },
    /// A message left its sender.
    MessageSent {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Encoded size, `0` when no sizer is configured.
        bytes: u64,
        /// When it was sent: round index (rounds engine) or simulated
        /// time (event engine). Pairs with the matching delivery's `at`
        /// to give per-link latency; `0.0` in traces predating the field.
        at: f64,
        /// Sender's Lamport clock at send time (`None` in legacy traces).
        lamport: Option<u64>,
        /// Per-sender message sequence number — together with `from` this
        /// is the message's span ID `(origin, seq)`.
        seq: Option<u64>,
    },
    /// A message reached its destination handler.
    MessageDelivered {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Encoded size, `0` when no sizer is configured.
        bytes: u64,
        /// When it arrived, on the same clock as the matching
        /// [`TraceEvent::MessageSent`]'s `at`.
        at: f64,
        /// Receiver's Lamport clock after the max-merge (`None` in
        /// legacy traces).
        lamport: Option<u64>,
        /// Sequence number of the matching send span `(from, span_seq)`.
        span_seq: Option<u64>,
    },
    /// A message was dropped in flight.
    MessageDropped {
        /// Sender node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A fault-model action fired (crash injection, partition opening).
    FaultActivated {
        /// Fault kind, e.g. `"crash"` or `"partition"`.
        kind: String,
        /// Affected node, if the fault targets one.
        node: Option<usize>,
        /// Engine time or wall-clock milliseconds when it fired.
        at: f64,
    },
    /// A fault-model action was undone (restart, partition healing).
    FaultHealed {
        /// Fault kind, matching the activation.
        kind: String,
        /// Affected node, if the fault targets one.
        node: Option<usize>,
        /// Engine time or wall-clock milliseconds when it healed.
        at: f64,
    },
    /// A runtime peer incarnation died.
    PeerCrashed {
        /// Peer id.
        node: usize,
        /// Incarnation that died.
        incarnation: u16,
    },
    /// A runtime peer came back as a fresh incarnation.
    PeerRestarted {
        /// Peer id.
        node: usize,
        /// The new incarnation number.
        incarnation: u16,
    },
    /// A runtime peer flushed its grain log batch to the supervisor.
    PeerCheckpoint {
        /// Peer id.
        node: usize,
        /// Incarnation that checkpointed.
        incarnation: u16,
        /// Grains split away in the flushed batch.
        split: u64,
        /// Grains merged in the flushed batch.
        merged: u64,
        /// Grains returned in the flushed batch.
        returned: u64,
    },
    /// A single grain movement on a live peer or simulation node.
    GrainDelta {
        /// Node the grains moved on.
        node: usize,
        /// Incarnation (0 for simulation engines).
        incarnation: u16,
        /// Movement direction.
        op: GrainOp,
        /// How many grains moved.
        grains: u64,
        /// The counterpart node (destination of a split, source of a merge).
        peer: usize,
        /// The node's Lamport clock when the movement happened (`None`
        /// in legacy traces).
        lamport: Option<u64>,
        /// Split: the outgoing frame's sequence number — with
        /// `(node, incarnation)` this is the frame's span ID. `None` for
        /// merges.
        seq: Option<u64>,
        /// Merge/return: incarnation of the span being merged/returned
        /// (the parent span is `(peer, span_inc, span_seq)` for merges,
        /// `(node, span_inc, span_seq)` for returns).
        span_inc: Option<u64>,
        /// Merge/return: sequence number of the span being
        /// merged/returned.
        span_seq: Option<u64>,
        /// Merge: how long the delivered frame waited on the sender side
        /// (retry/backoff delay between first enqueue and the successful
        /// transmission attempt), in microseconds. `None` for splits,
        /// returns, simulation engines, and legacy traces.
        wait_us: Option<u64>,
        /// Merge: how long the delivered frame spent in transit (channel
        /// plus receiver ingress queueing, send to delivery), in
        /// microseconds. `wait_us + transit_us` is the hop's full
        /// enqueue-to-delivery latency, exactly.
        transit_us: Option<u64>,
    },
    /// The supervisor rolled back a non-durable grain-log batch.
    GrainsVoided {
        /// Peer whose batch was voided.
        node: usize,
        /// Incarnation the batch belonged to.
        incarnation: u16,
        /// Voided split grains.
        split: u64,
        /// Voided merged grains.
        merged: u64,
        /// Voided returned grains.
        returned: u64,
        /// Voided drift injections (grains injected since the last
        /// checkpoint, rolled back with the restore). Omitted from the
        /// JSON when zero so pre-drift traces keep their shape.
        injected: u64,
        /// Voided drift decay (grains forgotten since the last
        /// checkpoint, restored by the rollback).
        forgotten: u64,
    },
    /// A peer's final standing when the cluster shut down.
    PeerFinal {
        /// Peer id.
        node: usize,
        /// `"completed"`, `"retired"`, `"dead"`, or `"panicked"`.
        outcome: String,
        /// Grains held at shutdown (0 for dead and retired peers).
        grains: u64,
    },
    /// A peer re-read its sensor on the drift schedule: the old
    /// contribution decayed, a fresh unit-weight reading was injected.
    SensorDrift {
        /// The drifting peer.
        node: usize,
        /// Its incarnation at the re-read.
        incarnation: u16,
        /// Grains injected (one unit per event).
        injected: u64,
        /// Grains decayed away.
        forgotten: u64,
        /// The peer's gossip tick when the re-read happened.
        tick: u64,
    },
    /// A brand-new peer was spawned mid-run by the churn plan; its unit
    /// weight is declared as an injection, not initial mass.
    PeerJoined {
        /// The joining peer.
        node: usize,
        /// Grains the joiner declared (its unit weight).
        grains: u64,
        /// Wall-clock milliseconds since cluster start.
        at: f64,
    },
    /// A peer retired gracefully: it handed its entire classification to
    /// a live neighbor and drained, leaving no grains behind.
    PeerRetired {
        /// The retiring peer.
        node: usize,
        /// Grains handed off (its classification total at retirement).
        grains: u64,
        /// Wall-clock milliseconds since cluster start.
        at: f64,
    },
    /// The grain-conservation auditor's verdict.
    AuditSummary {
        /// Grains minted at start.
        initial: u64,
        /// Grains held at shutdown.
        final_grains: u64,
        /// Declared gains (returns + voided-send reabsorptions).
        gains: u64,
        /// Declared losses (crash holdings, unmerged pendings, voids).
        losses: u64,
        /// Grains injected by drift re-reads and joins (0 in static
        /// runs; omitted from the JSON when zero).
        injected: u64,
        /// Grains decayed away by drift re-reads.
        forgotten: u64,
        /// Whether the books closed exactly.
        exact: bool,
        /// Whether conservation held (exactly or within declared slack).
        conserved: bool,
    },
    /// The trace sink hit its configured size cap: recording stopped
    /// here (nothing older was dropped) and this is the file's last
    /// event.
    TraceTruncated {
        /// Bytes written to the sink before the cap fired.
        bytes_written: u64,
    },
    /// A per-round convergence telemetry sample (gossip runner).
    Telemetry(TelemetrySample),
    /// A wall-clock convergence sample from the runtime supervisor.
    ClusterTelemetry {
        /// Milliseconds since the cluster started.
        elapsed_ms: f64,
        /// Peers currently believed live.
        live: usize,
        /// Classification dispersion across reporting peers.
        dispersion: f64,
        /// Wall-clock stamp, ms since the Unix epoch; `None` in legacy
        /// traces (the field is simply absent from their JSONL lines).
        unix_ms: Option<u64>,
    },
    /// A peer was spawned under a Byzantine adversary role (byz runs).
    AdversaryActivated {
        /// The adversarial peer.
        node: usize,
        /// Role name: `"mint"`, `"poison"` or `"cartel"`.
        role: String,
    },
    /// A defender sent a stochastic-audit probe.
    AuditProbe {
        /// The probing peer.
        node: usize,
        /// The audited peer.
        target: usize,
        /// The prober's gossip tick when the probe left.
        tick: u64,
    },
    /// A defender finished verifying an audit reply.
    AuditVerdict {
        /// The probing peer.
        node: usize,
        /// The audited peer.
        target: usize,
        /// Whether the attested state matched the remembered frame.
        passed: bool,
        /// Whether the pass was vacuous — the target attested nothing
        /// (evicted or never-retained send, or an incarnation change
        /// voided the comparison), so silence was taken as a pass.
        /// Omitted from the JSON when false.
        vacuous: bool,
        /// The prober's gossip tick at verification.
        tick: u64,
    },
    /// A peer reported evidence of misbehavior to the supervisor.
    PeerStrike {
        /// The accusing peer.
        node: usize,
        /// The accused peer.
        target: usize,
        /// Evidence class: `"non_finite"`, `"minted"` or `"drift"`.
        reason: String,
        /// The accuser's gossip tick when the evidence was found.
        tick: u64,
    },
    /// The supervisor's cluster-wide strike tally convicted a peer.
    PeerConvicted {
        /// The convicted peer.
        target: usize,
        /// Total strikes at conviction.
        strikes: u64,
        /// The latest accuser tick among the convicting strikes.
        tick: u64,
    },
    /// An inbound data frame was rejected by ingress screening.
    FrameRejected {
        /// The rejecting peer.
        node: usize,
        /// The frame's sender.
        sender: usize,
        /// Grains the frame *claimed* to carry.
        grains: u64,
        /// Rejection class: `"convicted"`, `"non_finite"` or `"minted"`.
        reason: String,
        /// The rejecting peer's gossip tick.
        tick: u64,
    },
    /// One peer lineage's final byte accounting (byz runs): total bytes
    /// handled (sent + received) and the audit-traffic share among them,
    /// both counted on the same two-sided basis so their ratio is the
    /// wire-level audit share.
    PeerBandwidth {
        /// The peer.
        node: usize,
        /// All bytes the lineage sent or received.
        bytes: u64,
        /// Bytes of audit probes and replies among them (both
        /// directions).
        audit_bytes: u64,
    },
    /// The grain auditor's Byzantine reconciliation (byz runs): minted
    /// weight measured exactly from the rejected frames' excess over
    /// their senders' durable books.
    ByzSummary {
        /// Minted grains measured across rejected frames.
        minted_grains: u64,
        /// Distinct data frames rejected at ingress.
        rejected_frames: u64,
    },
}

impl TraceEvent {
    /// The `"type"` discriminator used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ClusterStarted { .. } => "cluster_started",
            TraceEvent::RoundCompleted { .. } => "round_completed",
            TraceEvent::TickCompleted { .. } => "tick_completed",
            TraceEvent::MessageSent { .. } => "message_sent",
            TraceEvent::MessageDelivered { .. } => "message_delivered",
            TraceEvent::MessageDropped { .. } => "message_dropped",
            TraceEvent::FaultActivated { .. } => "fault_activated",
            TraceEvent::FaultHealed { .. } => "fault_healed",
            TraceEvent::PeerCrashed { .. } => "peer_crashed",
            TraceEvent::PeerRestarted { .. } => "peer_restarted",
            TraceEvent::PeerCheckpoint { .. } => "peer_checkpoint",
            TraceEvent::GrainDelta { .. } => "grain_delta",
            TraceEvent::GrainsVoided { .. } => "grains_voided",
            TraceEvent::PeerFinal { .. } => "peer_final",
            TraceEvent::SensorDrift { .. } => "sensor_drift",
            TraceEvent::PeerJoined { .. } => "peer_joined",
            TraceEvent::PeerRetired { .. } => "peer_retired",
            TraceEvent::AuditSummary { .. } => "audit_summary",
            TraceEvent::TraceTruncated { .. } => "trace_truncated",
            TraceEvent::Telemetry(_) => "telemetry",
            TraceEvent::ClusterTelemetry { .. } => "cluster_telemetry",
            TraceEvent::AdversaryActivated { .. } => "adversary_activated",
            TraceEvent::AuditProbe { .. } => "audit_probe",
            TraceEvent::AuditVerdict { .. } => "audit_verdict",
            TraceEvent::PeerStrike { .. } => "peer_strike",
            TraceEvent::PeerConvicted { .. } => "peer_convicted",
            TraceEvent::FrameRejected { .. } => "frame_rejected",
            TraceEvent::PeerBandwidth { .. } => "peer_bandwidth",
            TraceEvent::ByzSummary { .. } => "byz_summary",
        }
    }

    /// Encodes the event as a JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![field("type", jstr(self.kind()))];
        match self {
            TraceEvent::ClusterStarted {
                nodes,
                initial_grains,
            } => {
                fields.push(field("nodes", unum(*nodes as u64)));
                fields.push(field("initial_grains", unum(*initial_grains)));
            }
            TraceEvent::RoundCompleted {
                round,
                live,
                sent,
                delivered,
                dropped,
            } => {
                fields.push(field("round", unum(*round)));
                fields.push(field("live", unum(*live as u64)));
                fields.push(field("sent", unum(*sent)));
                fields.push(field("delivered", unum(*delivered)));
                fields.push(field("dropped", unum(*dropped)));
            }
            TraceEvent::TickCompleted { node, time } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("time", num(*time)));
            }
            TraceEvent::MessageSent {
                from,
                to,
                bytes,
                at,
                lamport,
                seq,
            } => {
                fields.push(field("from", unum(*from as u64)));
                fields.push(field("to", unum(*to as u64)));
                fields.push(field("bytes", unum(*bytes)));
                fields.push(field("at", num(*at)));
                push_opt(&mut fields, "lamport", *lamport);
                push_opt(&mut fields, "seq", *seq);
            }
            TraceEvent::MessageDelivered {
                from,
                to,
                bytes,
                at,
                lamport,
                span_seq,
            } => {
                fields.push(field("from", unum(*from as u64)));
                fields.push(field("to", unum(*to as u64)));
                fields.push(field("bytes", unum(*bytes)));
                fields.push(field("at", num(*at)));
                push_opt(&mut fields, "lamport", *lamport);
                push_opt(&mut fields, "span_seq", *span_seq);
            }
            TraceEvent::MessageDropped { from, to, reason } => {
                fields.push(field("from", unum(*from as u64)));
                fields.push(field("to", unum(*to as u64)));
                fields.push(field("reason", jstr(reason.as_str())));
            }
            TraceEvent::FaultActivated { kind, node, at }
            | TraceEvent::FaultHealed { kind, node, at } => {
                fields.push(field("kind", jstr(kind.clone())));
                fields.push(field("node", node.map_or(Json::Null, |n| unum(n as u64))));
                fields.push(field("at", num(*at)));
            }
            TraceEvent::PeerCrashed { node, incarnation }
            | TraceEvent::PeerRestarted { node, incarnation } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
            }
            TraceEvent::PeerCheckpoint {
                node,
                incarnation,
                split,
                merged,
                returned,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
                fields.push(field("split", unum(*split)));
                fields.push(field("merged", unum(*merged)));
                fields.push(field("returned", unum(*returned)));
            }
            TraceEvent::GrainsVoided {
                node,
                incarnation,
                split,
                merged,
                returned,
                injected,
                forgotten,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
                fields.push(field("split", unum(*split)));
                fields.push(field("merged", unum(*merged)));
                fields.push(field("returned", unum(*returned)));
                push_opt(
                    &mut fields,
                    "injected",
                    (*injected > 0).then_some(*injected),
                );
                push_opt(
                    &mut fields,
                    "forgotten",
                    (*forgotten > 0).then_some(*forgotten),
                );
            }
            TraceEvent::GrainDelta {
                node,
                incarnation,
                op,
                grains,
                peer,
                lamport,
                seq,
                span_inc,
                span_seq,
                wait_us,
                transit_us,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
                fields.push(field("op", jstr(op.as_str())));
                fields.push(field("grains", unum(*grains)));
                fields.push(field("peer", unum(*peer as u64)));
                push_opt(&mut fields, "lamport", *lamport);
                push_opt(&mut fields, "seq", *seq);
                push_opt(&mut fields, "span_inc", *span_inc);
                push_opt(&mut fields, "span_seq", *span_seq);
                push_opt(&mut fields, "wait_us", *wait_us);
                push_opt(&mut fields, "transit_us", *transit_us);
            }
            TraceEvent::PeerFinal {
                node,
                outcome,
                grains,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("outcome", jstr(outcome.clone())));
                fields.push(field("grains", unum(*grains)));
            }
            TraceEvent::SensorDrift {
                node,
                incarnation,
                injected,
                forgotten,
                tick,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
                fields.push(field("injected", unum(*injected)));
                fields.push(field("forgotten", unum(*forgotten)));
                fields.push(field("tick", unum(*tick)));
            }
            TraceEvent::PeerJoined { node, grains, at }
            | TraceEvent::PeerRetired { node, grains, at } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("grains", unum(*grains)));
                fields.push(field("at", num(*at)));
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
                fields.push(field("initial", unum(*initial)));
                fields.push(field("final", unum(*final_grains)));
                fields.push(field("gains", unum(*gains)));
                fields.push(field("losses", unum(*losses)));
                push_opt(
                    &mut fields,
                    "injected",
                    (*injected > 0).then_some(*injected),
                );
                push_opt(
                    &mut fields,
                    "forgotten",
                    (*forgotten > 0).then_some(*forgotten),
                );
                fields.push(field("exact", Json::Bool(*exact)));
                fields.push(field("conserved", Json::Bool(*conserved)));
            }
            TraceEvent::TraceTruncated { bytes_written } => {
                fields.push(field("bytes_written", unum(*bytes_written)));
            }
            TraceEvent::Telemetry(sample) => {
                fields.extend(sample.json_fields());
            }
            TraceEvent::ClusterTelemetry {
                elapsed_ms,
                live,
                dispersion,
                unix_ms,
            } => {
                fields.push(field("elapsed_ms", num(*elapsed_ms)));
                fields.push(field("live", unum(*live as u64)));
                fields.push(field("dispersion", num(*dispersion)));
                push_opt(&mut fields, "unix_ms", *unix_ms);
            }
            TraceEvent::AdversaryActivated { node, role } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("role", jstr(role.clone())));
            }
            TraceEvent::AuditProbe { node, target, tick } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("target", unum(*target as u64)));
                fields.push(field("tick", unum(*tick)));
            }
            TraceEvent::AuditVerdict {
                node,
                target,
                passed,
                vacuous,
                tick,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("target", unum(*target as u64)));
                fields.push(field("passed", Json::Bool(*passed)));
                if *vacuous {
                    fields.push(field("vacuous", Json::Bool(true)));
                }
                fields.push(field("tick", unum(*tick)));
            }
            TraceEvent::PeerStrike {
                node,
                target,
                reason,
                tick,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("target", unum(*target as u64)));
                fields.push(field("reason", jstr(reason.clone())));
                fields.push(field("tick", unum(*tick)));
            }
            TraceEvent::PeerConvicted {
                target,
                strikes,
                tick,
            } => {
                fields.push(field("target", unum(*target as u64)));
                fields.push(field("strikes", unum(*strikes)));
                fields.push(field("tick", unum(*tick)));
            }
            TraceEvent::FrameRejected {
                node,
                sender,
                grains,
                reason,
                tick,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("sender", unum(*sender as u64)));
                fields.push(field("grains", unum(*grains)));
                fields.push(field("reason", jstr(reason.clone())));
                fields.push(field("tick", unum(*tick)));
            }
            TraceEvent::PeerBandwidth {
                node,
                bytes,
                audit_bytes,
            } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("bytes", unum(*bytes)));
                fields.push(field("audit_bytes", unum(*audit_bytes)));
            }
            TraceEvent::ByzSummary {
                minted_grains,
                rejected_frames,
            } => {
                fields.push(field("minted_grains", unum(*minted_grains)));
                fields.push(field("rejected_frames", unum(*rejected_frames)));
            }
        }
        Json::Obj(fields)
    }

    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON, an unknown `"type"`, or a
    /// missing required field.
    pub fn from_json(line: &str) -> Result<TraceEvent, JsonError> {
        let v = Json::parse(line)?;
        let bad = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let kind = v.req_str("type")?;
        let kind = kind.as_str();
        let u = |key: &str| v.req_u64(key);
        let f = |key: &str| v.req_f64(key);
        let s = |key: &str| v.req_str(key);
        let b = |key: &str| v.req_bool(key);
        let opt_node = || match v.get("node") {
            Some(Json::Null) | None => Ok(None),
            Some(j) => j
                .as_u64()
                .map(|n| Some(n as usize))
                .ok_or_else(|| JsonError::field_type("node", "unsigned integer or null")),
        };
        Ok(match kind {
            "cluster_started" => TraceEvent::ClusterStarted {
                nodes: u("nodes")? as usize,
                initial_grains: u("initial_grains")?,
            },
            "round_completed" => TraceEvent::RoundCompleted {
                round: u("round")?,
                live: u("live")? as usize,
                sent: u("sent")?,
                delivered: u("delivered")?,
                dropped: u("dropped")?,
            },
            "tick_completed" => TraceEvent::TickCompleted {
                node: u("node")? as usize,
                time: f("time")?,
            },
            "message_sent" => TraceEvent::MessageSent {
                from: u("from")? as usize,
                to: u("to")? as usize,
                bytes: u("bytes")?,
                // Traces from before the field default to 0.0.
                at: v.opt_f64("at")?.unwrap_or(0.0),
                lamport: v.opt_u64("lamport")?,
                seq: v.opt_u64("seq")?,
            },
            "message_delivered" => TraceEvent::MessageDelivered {
                from: u("from")? as usize,
                to: u("to")? as usize,
                bytes: u("bytes")?,
                at: v.opt_f64("at")?.unwrap_or(0.0),
                lamport: v.opt_u64("lamport")?,
                span_seq: v.opt_u64("span_seq")?,
            },
            "message_dropped" => TraceEvent::MessageDropped {
                from: u("from")? as usize,
                to: u("to")? as usize,
                reason: DropReason::parse(&s("reason")?).ok_or_else(|| bad("bad reason"))?,
            },
            "fault_activated" => TraceEvent::FaultActivated {
                kind: s("kind")?,
                node: opt_node()?,
                at: f("at")?,
            },
            "fault_healed" => TraceEvent::FaultHealed {
                kind: s("kind")?,
                node: opt_node()?,
                at: f("at")?,
            },
            "peer_crashed" => TraceEvent::PeerCrashed {
                node: u("node")? as usize,
                incarnation: u("incarnation")? as u16,
            },
            "peer_restarted" => TraceEvent::PeerRestarted {
                node: u("node")? as usize,
                incarnation: u("incarnation")? as u16,
            },
            "peer_checkpoint" => TraceEvent::PeerCheckpoint {
                node: u("node")? as usize,
                incarnation: u("incarnation")? as u16,
                split: u("split")?,
                merged: u("merged")?,
                returned: u("returned")?,
            },
            "grain_delta" => TraceEvent::GrainDelta {
                node: u("node")? as usize,
                incarnation: u("incarnation")? as u16,
                op: GrainOp::parse(&s("op")?).ok_or_else(|| bad("bad op"))?,
                grains: u("grains")?,
                peer: u("peer")? as usize,
                lamport: v.opt_u64("lamport")?,
                seq: v.opt_u64("seq")?,
                span_inc: v.opt_u64("span_inc")?,
                span_seq: v.opt_u64("span_seq")?,
                wait_us: v.opt_u64("wait_us")?,
                transit_us: v.opt_u64("transit_us")?,
            },
            "grains_voided" => TraceEvent::GrainsVoided {
                node: u("node")? as usize,
                incarnation: u("incarnation")? as u16,
                split: u("split")?,
                merged: u("merged")?,
                returned: u("returned")?,
                // Traces from before the drift layer default to 0.
                injected: v.opt_u64("injected")?.unwrap_or(0),
                forgotten: v.opt_u64("forgotten")?.unwrap_or(0),
            },
            "peer_final" => TraceEvent::PeerFinal {
                node: u("node")? as usize,
                outcome: s("outcome")?,
                grains: u("grains")?,
            },
            "sensor_drift" => TraceEvent::SensorDrift {
                node: u("node")? as usize,
                incarnation: u("incarnation")? as u16,
                injected: u("injected")?,
                forgotten: u("forgotten")?,
                tick: u("tick")?,
            },
            "peer_joined" => TraceEvent::PeerJoined {
                node: u("node")? as usize,
                grains: u("grains")?,
                at: f("at")?,
            },
            "peer_retired" => TraceEvent::PeerRetired {
                node: u("node")? as usize,
                grains: u("grains")?,
                at: f("at")?,
            },
            "audit_summary" => TraceEvent::AuditSummary {
                initial: u("initial")?,
                final_grains: u("final")?,
                gains: u("gains")?,
                losses: u("losses")?,
                injected: v.opt_u64("injected")?.unwrap_or(0),
                forgotten: v.opt_u64("forgotten")?.unwrap_or(0),
                exact: b("exact")?,
                conserved: b("conserved")?,
            },
            "trace_truncated" => TraceEvent::TraceTruncated {
                bytes_written: u("bytes_written")?,
            },
            "telemetry" => TraceEvent::Telemetry(TelemetrySample::from_json_obj(&v)?),
            "cluster_telemetry" => TraceEvent::ClusterTelemetry {
                elapsed_ms: f("elapsed_ms")?,
                live: u("live")? as usize,
                dispersion: f("dispersion")?,
                unix_ms: v.opt_u64("unix_ms")?,
            },
            "adversary_activated" => TraceEvent::AdversaryActivated {
                node: u("node")? as usize,
                role: s("role")?,
            },
            "audit_probe" => TraceEvent::AuditProbe {
                node: u("node")? as usize,
                target: u("target")? as usize,
                tick: u("tick")?,
            },
            "audit_verdict" => TraceEvent::AuditVerdict {
                node: u("node")? as usize,
                target: u("target")? as usize,
                passed: b("passed")?,
                // Traces from before the silence-rate metric default to a
                // substantive (non-vacuous) verdict.
                vacuous: match v.get("vacuous") {
                    None | Some(Json::Null) => false,
                    Some(j) => j
                        .as_bool()
                        .ok_or_else(|| JsonError::field_type("vacuous", "bool"))?,
                },
                tick: u("tick")?,
            },
            "peer_strike" => TraceEvent::PeerStrike {
                node: u("node")? as usize,
                target: u("target")? as usize,
                reason: s("reason")?,
                tick: u("tick")?,
            },
            "peer_convicted" => TraceEvent::PeerConvicted {
                target: u("target")? as usize,
                strikes: u("strikes")?,
                tick: u("tick")?,
            },
            "frame_rejected" => TraceEvent::FrameRejected {
                node: u("node")? as usize,
                sender: u("sender")? as usize,
                grains: u("grains")?,
                reason: s("reason")?,
                tick: u("tick")?,
            },
            "peer_bandwidth" => TraceEvent::PeerBandwidth {
                node: u("node")? as usize,
                bytes: u("bytes")?,
                audit_bytes: u("audit_bytes")?,
            },
            "byz_summary" => TraceEvent::ByzSummary {
                minted_grains: u("minted_grains")?,
                rejected_frames: u("rejected_frames")?,
            },
            other => return Err(bad(&format!("unknown event type {other}"))),
        })
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// Reads a JSONL trace one line at a time, handing each event to
/// `on_event` in file order; nothing but the current line is held. Blank
/// lines are skipped. Lines of event types this binary does not know are
/// skipped and counted (the return value), so traces from a newer event
/// taxonomy stay readable.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending line on the first
/// malformed line (bad JSON, a known event with broken fields, or a read
/// failure such as invalid UTF-8).
pub fn read_jsonl(
    mut reader: impl BufRead,
    mut on_event: impl FnMut(TraceEvent),
) -> Result<usize, JsonError> {
    let (mut buf, mut unknown) = (String::new(), 0usize);
    let at_line = |line_no: usize, message: &dyn std::fmt::Display, offset: usize| JsonError {
        message: format!("trace line {line_no}: {message}"),
        offset,
    };
    for line_no in 1.. {
        buf.clear();
        let read = reader.read_line(&mut buf);
        if read.map_err(|e| at_line(line_no, &e, 0))? == 0 {
            break;
        }
        // Line endings as `str::lines` strips them.
        let line = buf
            .strip_suffix('\n')
            .map_or(buf.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::from_json(line) {
            Ok(ev) => on_event(ev),
            Err(e) if e.message.contains("unknown event type") => unknown += 1,
            Err(e) => return Err(at_line(line_no, &e.message, e.offset)),
        }
    }
    Ok(unknown)
}

/// An offline report computed in one pass over a trace: events go in
/// one at a time, in file order, and the report comes out at the end.
/// What a fold keeps grows with what its report describes (nodes, links,
/// causal vertices), not with the events it has seen.
pub trait Fold: Sized {
    /// What the fold yields.
    type Report;

    /// Takes the next event.
    fn on_event(&mut self, ev: &TraceEvent);

    /// The report, given how many lines of unknown event types the
    /// reader skipped.
    fn finish(self, unknown: usize) -> Self::Report;

    /// Folds a slice of events, in order.
    fn fold_events(mut self, events: &[TraceEvent]) -> Self::Report {
        for ev in events {
            self.on_event(ev);
        }
        self.finish(0)
    }

    /// Folds a JSONL trace read one line at a time ([`read_jsonl`]).
    ///
    /// # Errors
    ///
    /// As [`read_jsonl`].
    fn fold_jsonl(mut self, reader: impl BufRead) -> Result<Self::Report, JsonError> {
        let unknown = read_jsonl(reader, |ev| self.on_event(&ev))?;
        Ok(self.finish(unknown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: TraceEvent) {
        let line = e.to_string();
        let back = TraceEvent::from_json(&line).expect("parses back");
        assert_eq!(back, e, "line was: {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(TraceEvent::ClusterStarted {
            nodes: 16,
            initial_grains: 1 << 20,
        });
        round_trip(TraceEvent::RoundCompleted {
            round: 3,
            live: 15,
            sent: 48,
            delivered: 45,
            dropped: 3,
        });
        round_trip(TraceEvent::TickCompleted {
            node: 7,
            time: 1.25,
        });
        round_trip(TraceEvent::MessageSent {
            from: 1,
            to: 2,
            bytes: 96,
            at: 3.0,
            lamport: Some(17),
            seq: Some(4),
        });
        round_trip(TraceEvent::MessageSent {
            from: 1,
            to: 2,
            bytes: 96,
            at: 3.0,
            lamport: None,
            seq: None,
        });
        round_trip(TraceEvent::MessageDelivered {
            from: 1,
            to: 2,
            bytes: 96,
            at: 3.5,
            lamport: Some(18),
            span_seq: Some(4),
        });
        round_trip(TraceEvent::MessageDropped {
            from: 1,
            to: 2,
            reason: DropReason::Partitioned,
        });
        round_trip(TraceEvent::FaultActivated {
            kind: "crash".to_string(),
            node: Some(4),
            at: 100.0,
        });
        round_trip(TraceEvent::FaultHealed {
            kind: "partition".to_string(),
            node: None,
            at: 250.5,
        });
        round_trip(TraceEvent::PeerCrashed {
            node: 2,
            incarnation: 1,
        });
        round_trip(TraceEvent::PeerRestarted {
            node: 2,
            incarnation: 2,
        });
        round_trip(TraceEvent::PeerCheckpoint {
            node: 2,
            incarnation: 2,
            split: 10,
            merged: 20,
            returned: 5,
        });
        round_trip(TraceEvent::GrainDelta {
            node: 2,
            incarnation: 2,
            op: GrainOp::Merge,
            grains: 512,
            peer: 5,
            lamport: Some(9),
            seq: None,
            span_inc: Some(1),
            span_seq: Some(33),
            wait_us: Some(1_200),
            transit_us: Some(340),
        });
        round_trip(TraceEvent::GrainDelta {
            node: 3,
            incarnation: 0,
            op: GrainOp::Split,
            grains: 256,
            peer: 1,
            lamport: Some(2),
            seq: Some(1),
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        });
        round_trip(TraceEvent::TraceTruncated {
            bytes_written: 1 << 20,
        });
        round_trip(TraceEvent::GrainsVoided {
            node: 2,
            incarnation: 1,
            split: 100,
            merged: 200,
            returned: 0,
            injected: 0,
            forgotten: 0,
        });
        round_trip(TraceEvent::GrainsVoided {
            node: 3,
            incarnation: 2,
            split: 0,
            merged: 0,
            returned: 0,
            injected: 4096,
            forgotten: 2048,
        });
        round_trip(TraceEvent::PeerFinal {
            node: 2,
            outcome: "completed".to_string(),
            grains: 123_456,
        });
        round_trip(TraceEvent::PeerFinal {
            node: 9,
            outcome: "retired".to_string(),
            grains: 0,
        });
        round_trip(TraceEvent::SensorDrift {
            node: 4,
            incarnation: 1,
            injected: 4096,
            forgotten: 2048,
            tick: 17,
        });
        round_trip(TraceEvent::PeerJoined {
            node: 8,
            grains: 4096,
            at: 350.0,
        });
        round_trip(TraceEvent::PeerRetired {
            node: 2,
            grains: 5120,
            at: 612.5,
        });
        round_trip(TraceEvent::AuditSummary {
            initial: 1 << 24,
            final_grains: (1 << 24) - 37,
            gains: 11,
            losses: 48,
            injected: 0,
            forgotten: 0,
            exact: true,
            conserved: true,
        });
        round_trip(TraceEvent::AuditSummary {
            initial: 1 << 20,
            final_grains: 1 << 20,
            gains: 0,
            losses: 4096,
            injected: 8192,
            forgotten: 4096,
            exact: true,
            conserved: true,
        });
        round_trip(TraceEvent::ClusterTelemetry {
            elapsed_ms: 42.5,
            live: 8,
            dispersion: 0.03,
            unix_ms: None,
        });
        round_trip(TraceEvent::ClusterTelemetry {
            elapsed_ms: 42.5,
            live: 8,
            dispersion: 0.03,
            unix_ms: Some(1_754_000_000_123),
        });
        round_trip(TraceEvent::AdversaryActivated {
            node: 5,
            role: "cartel".to_string(),
        });
        round_trip(TraceEvent::AuditProbe {
            node: 1,
            target: 5,
            tick: 72,
        });
        round_trip(TraceEvent::AuditVerdict {
            node: 1,
            target: 5,
            passed: false,
            vacuous: false,
            tick: 74,
        });
        round_trip(TraceEvent::AuditVerdict {
            node: 1,
            target: 5,
            passed: true,
            vacuous: true,
            tick: 75,
        });
        round_trip(TraceEvent::PeerStrike {
            node: 1,
            target: 5,
            reason: "drift".to_string(),
            tick: 74,
        });
        round_trip(TraceEvent::PeerConvicted {
            target: 5,
            strikes: 2,
            tick: 83,
        });
        round_trip(TraceEvent::FrameRejected {
            node: 3,
            sender: 5,
            grains: 170,
            reason: "minted".to_string(),
            tick: 12,
        });
        round_trip(TraceEvent::PeerBandwidth {
            node: 3,
            bytes: 123_456,
            audit_bytes: 2_470,
        });
        round_trip(TraceEvent::ByzSummary {
            minted_grains: 1 << 14,
            rejected_frames: 96,
        });
    }

    #[test]
    fn unknown_type_is_an_error() {
        assert!(TraceEvent::from_json(r#"{"type":"warp_core_breach"}"#).is_err());
        assert!(TraceEvent::from_json(r#"{"no_type":1}"#).is_err());
        assert!(TraceEvent::from_json("not json").is_err());
    }

    /// Event-field errors name the offending key, for missing and
    /// mistyped fields alike.
    #[test]
    fn field_errors_name_the_key() {
        let err = TraceEvent::from_json(r#"{"type":"round_completed","round":1,"live":4}"#)
            .expect_err("sent/delivered/dropped are missing");
        assert!(err.message.contains("sent"), "{err}");

        let err = TraceEvent::from_json(
            r#"{"type":"grain_delta","node":1,"incarnation":"zero","op":"merge","grains":4,"peer":2}"#,
        )
        .expect_err("incarnation is a string");
        assert!(
            err.message.contains("incarnation") && err.message.contains("expected"),
            "{err}"
        );
    }

    /// A PR 3-era message event without `at` still parses (defaults 0.0).
    #[test]
    fn message_events_without_at_still_parse() {
        let e = TraceEvent::from_json(r#"{"type":"message_sent","from":1,"to":2,"bytes":9}"#)
            .expect("legacy line parses");
        assert_eq!(
            e,
            TraceEvent::MessageSent {
                from: 1,
                to: 2,
                bytes: 9,
                at: 0.0,
                lamport: None,
                seq: None,
            }
        );
    }

    /// Causal fields are omitted from the JSON when absent, so pre-causal
    /// consumers see exactly the shape they always did.
    #[test]
    fn absent_causal_fields_are_not_serialized() {
        let line = TraceEvent::MessageSent {
            from: 1,
            to: 2,
            bytes: 9,
            at: 1.0,
            lamport: None,
            seq: None,
        }
        .to_string();
        assert!(!line.contains("lamport"), "{line}");
        assert!(!line.contains("seq"), "{line}");
        let line = TraceEvent::GrainDelta {
            node: 1,
            incarnation: 0,
            op: GrainOp::Return,
            grains: 7,
            peer: 2,
            lamport: Some(5),
            seq: None,
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        }
        .to_string();
        assert!(line.contains("lamport"), "{line}");
        assert!(!line.contains("span_seq"), "{line}");
        assert!(!line.contains("wait_us"), "{line}");
        assert!(!line.contains("transit_us"), "{line}");
    }

    /// The line reader splits lines as `str::lines` does (CRLF endings,
    /// no newline after the last line), skips blank lines, counts lines
    /// of unknown types, and numbers lines from 1 in its errors.
    #[test]
    fn line_reader_matches_str_lines() {
        let tick = r#"{"type":"tick_completed","node":0,"time":1.0}"#;
        let text = format!("{tick}\r\n\r\n{{\"type\":\"later\"}}\n  \n{tick}");
        let mut events = Vec::new();
        let unknown = read_jsonl(text.as_bytes(), |ev| events.push(ev)).expect("parses");
        assert_eq!((events.len(), unknown), (2, 1));
        assert_eq!(text.lines().filter(|l| l.contains("tick")).count(), 2);

        let err = read_jsonl(format!("{tick}\n\nnot json\n").as_bytes(), |_| {})
            .expect_err("line 3 is not JSON");
        assert!(err.message.starts_with("trace line 3:"), "{err}");
    }
}
