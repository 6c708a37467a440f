//! Typed trace events and their JSONL encoding.
//!
//! One event type covers every layer: the simulation engines (rounds,
//! events), the gossip runner, and the deployment runtime. Each event is
//! one line of JSON, an object whose `"type"` names the variant, so a
//! trace file is plain JSONL that external tooling can consume, and
//! [`read_jsonl`] reads it back for the offline reports.
//!
//! The format is declared once, in the `trace_events!` table below: each
//! variant's wire name and, for each field, its doc, type, wire key and
//! rule. The table generates [`TraceEvent`] and [`TelemetrySample`],
//! [`TraceEvent::kind`], the encoder behind `Display` and
//! [`crate::JsonlSink`], and the decoder. A field's rule is one of:
//!
//! * `req`: always written, and a line without it is an error;
//! * `opt`: an `Option`, omitted when `None`;
//! * `null`: an `Option`, written as `null` when `None`;
//! * `zero`: omitted when zero or false;
//! * `dflt`: always written.
//!
//! The reader takes an absent or `null` field of the last four rules as
//! `None`, zero, false or `0.0`, so traces from before the field stay
//! readable.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, BufRead};

use crate::json::{self, JsonError, Members, Token};

/// A field type of the trace format.
trait Wire: Sized {
    /// What a field error says was expected.
    const EXPECTED: &'static str;

    /// Writes the value as JSON.
    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result;

    /// The value a scanned JSON value holds; `None` when it holds
    /// something else.
    fn read(token: Token<'_>) -> Option<Self>;
}

/// Integers are written exactly and read from the magnitude the scanner
/// built: a sign, fraction or exponent, or a value past the type's range,
/// is a field error.
macro_rules! wire_int {
    ($($t:ty => $expected:literal),*) => {$(
        impl Wire for $t {
            const EXPECTED: &'static str = $expected;

            fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
                write!(out, "{self}")
            }

            fn read(token: Token<'_>) -> Option<Self> {
                token.as_u64()?.try_into().ok()
            }
        }
    )*};
}

wire_int!(u16 => "integer in 0..=65535", u64 => "unsigned integer", usize => "unsigned integer");

impl Wire for bool {
    const EXPECTED: &'static str = "bool";

    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "{self}")
    }

    fn read(token: Token<'_>) -> Option<Self> {
        token.as_bool()
    }
}

impl Wire for f64 {
    const EXPECTED: &'static str = "number";

    /// JSON has no NaN or infinity: those are written as `null`.
    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        if self.is_finite() {
            write!(out, "{self}")
        } else {
            out.write_str("null")
        }
    }

    fn read(token: Token<'_>) -> Option<Self> {
        token.as_f64()
    }
}

/// `None` is written as `null`; the rules read `null` as `None` before
/// the value is.
impl<T: Wire> Wire for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;

    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Some(v) => v.write(out),
            None => out.write_str("null"),
        }
    }

    fn read(token: Token<'_>) -> Option<Self> {
        T::read(token).map(Some)
    }
}

impl Wire for String {
    const EXPECTED: &'static str = "string";

    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        json::write_escaped(out, self)
    }

    fn read(token: Token<'_>) -> Option<Self> {
        token.as_str().map(Cow::into_owned)
    }
}

/// Declares a fieldless enum that the trace writes as a string.
macro_rules! wire_enum {
    (
        $(#[$doc:meta])*
        pub enum $name:ident { $( $(#[$vdoc:meta])* $variant:ident = $wire:literal, )* }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name { $( $(#[$vdoc])* $variant, )* }

        impl Wire for $name {
            const EXPECTED: &'static str = concat!("one of" $(, " ", $wire)*);

            fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
                out.write_str(match self { $( $name::$variant => concat!("\"", $wire, "\""), )* })
            }

            fn read(token: Token<'_>) -> Option<Self> {
                match &*token.as_str()? {
                    $( $wire => Some($name::$variant), )*
                    _ => None,
                }
            }
        }
    };
}

wire_enum! {
    /// Which direction a grain movement went, from the owning node's view.
    pub enum GrainOp {
        /// Grains left the node inside an outgoing half (Algorithm 1's split).
        Split = "split",
        /// Grains from a received half were merged into the node's state.
        Merge = "merge",
        /// Grains came back after an abandoned retransmission.
        Return = "return",
    }
}

wire_enum! {
    /// Why an in-flight message never reached its destination.
    pub enum DropReason {
        /// The destination was crashed at delivery time.
        Crashed = "crashed",
        /// A partition window separated sender and receiver.
        Partitioned = "partitioned",
    }
}

/// The field rules of the module docs. `write` takes the field's
/// `,"key":` prefix, `read` its key and scanned value, if present. An
/// `Option` is `null` when `None`, so on an `Option` `zero` is `opt` and
/// `dflt` is `null`.
mod rule {
    use super::{fmt, JsonError, Token, Wire};

    pub mod req {
        use super::*;

        pub fn write<T: Wire>(out: &mut impl fmt::Write, prefix: &str, v: &T) -> fmt::Result {
            out.write_str(prefix)?;
            v.write(out)
        }

        #[inline]
        pub fn read<T: Wire>(key: &str, token: Option<Token<'_>>) -> Result<T, JsonError> {
            let token = token.ok_or_else(|| JsonError::field(key, "missing field"))?;
            T::read(token).ok_or_else(|| JsonError::field_type(key, T::EXPECTED))
        }
    }

    pub mod dflt {
        pub use super::req::write;
        use super::*;

        /// Absent or `null` is the default.
        #[inline]
        pub fn read<T: Wire + Default>(
            key: &str,
            token: Option<Token<'_>>,
        ) -> Result<T, JsonError> {
            match token {
                None | Some(Token::Null) => Ok(T::default()),
                token => req::read(key, token),
            }
        }
    }

    pub mod zero {
        pub use super::dflt::read;
        use super::*;

        pub fn write<T: Wire + Default + PartialEq>(
            out: &mut impl fmt::Write,
            prefix: &str,
            v: &T,
        ) -> fmt::Result {
            if *v != T::default() {
                req::write(out, prefix, v)?;
            }
            Ok(())
        }
    }

    pub mod opt {
        pub use super::zero::{read, write};
    }

    pub mod null {
        pub use super::dflt::{read, write};
    }
}

/// Generates the trace format from its table (see the module docs).
macro_rules! trace_events {
    // Reads one field list from a line's members: the first of a
    // repeated key counts, keys the list lacks are skipped.
    // Each field list is read by a function of its own, small enough for
    // the scanner to be inlined into it.
    (@read $members:ident, $ty:ty, $path:path { $( $rule:ident $field:ident = $key:literal ),* }) => {{
        fn read(mut members: Members<'_>) -> Result<$ty, JsonError> {
            $( let mut $field = None; )*
            while let Some((key, token)) = members.next_member()? {
                match &*key {
                    $( $key => { $field.get_or_insert(token); } )*
                    _ => {}
                }
            }
            Ok({ $path { $( $field: rule::$rule::read($key, $field)?, )* } })
        }
        read($members)?
    }};
    (@write $out:ident, $( $rule:ident $field:ident = $key:literal ),*) => {
        $( rule::$rule::write($out, concat!(",\"", $key, "\":"), $field)?; )*
    };
    (
        $(#[$doc:meta])*
        pub enum $name:ident {
            $(#[$tdoc:meta])*
            $tvariant:ident = $twire:literal (
                $(#[$sdoc:meta])*
                pub struct $sample:ident {
                    $( $(#[$sfdoc:meta])* $srule:ident $sfield:ident: $sty:ty = $skey:literal, )*
                }
            ),
            $(
                $(#[$vdoc:meta])*
                $variant:ident = $wire:literal {
                    $( $(#[$fdoc:meta])* $rule:ident $field:ident: $ty:ty = $key:literal, )*
                },
            )*
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $name {
            $(#[$tdoc])* $tvariant($sample),
            $( $(#[$vdoc])* $variant { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        $(#[$sdoc])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $sample {
            $( $(#[$sfdoc])* pub $sfield: $sty, )*
        }

        impl $name {
            /// The `"type"` discriminator used in the JSON encoding.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $wire, )*
                    $name::$tvariant(_) => $twire,
                }
            }

            /// Writes the event as one JSON object: its type, then its
            /// fields in table order, each by its rule.
            pub(crate) fn encode(&self, out: &mut impl fmt::Write) -> fmt::Result {
                match self {
                    $( $name::$variant { $($field),* } => {
                        out.write_str(concat!("{\"type\":\"", $wire, "\""))?;
                        trace_events!(@write out, $( $rule $field = $key ),*);
                    } )*
                    $name::$tvariant($sample { $($sfield),* }) => {
                        out.write_str(concat!("{\"type\":\"", $twire, "\""))?;
                        trace_events!(@write out, $( $srule $sfield = $skey ),*);
                    }
                }
                out.write_char('}')
            }

            /// The event of type `kind` from its line's members; `None`
            /// for a type the table lacks, once its members are checked.
            fn decode_fields(kind: &str, members: Members<'_>) -> Result<Option<Self>, JsonError> {
                Ok(Some(match kind {
                    $( $wire => trace_events!(@read members, $name, $name::$variant {
                        $( $rule $field = $key ),*
                    }), )*
                    $twire => $name::$tvariant(trace_events!(@read members, $sample, $sample {
                        $( $srule $sfield = $skey ),*
                    })),
                    _ => {
                        let mut members = members;
                        while members.next_member()?.is_some() {}
                        return Ok(None);
                    }
                }))
            }
        }
    };
}

trace_events! {
    /// A structured observation from any layer of the stack.
    ///
    /// Node indices are `usize` everywhere (the runtime's `u16` peer ids
    /// widen losslessly); `incarnation` is only meaningful for runtime peers
    /// and is `0` in simulation engines.
    pub enum TraceEvent {
        /// A per-round convergence telemetry sample (gossip runner).
        Telemetry = "telemetry" (
            /// One convergence measurement, taken after a round (or a
            /// wall-clock sampling interval in the deployment runtime).
            pub struct TelemetrySample {
                /// Round index the sample was taken after.
                req round: u64 = "round",
                /// Live nodes at sampling time.
                req live: usize = "live",
                /// Mean number of collections per live node's classification.
                req classifications_mean: f64 = "classifications_mean",
                /// Largest classification size among live nodes.
                req classifications_max: usize = "classifications_max",
                /// Spread of per-node total weight, in weight units (max − min).
                req weight_spread: f64 = "weight_spread",
                /// Mean per-node error against a ground truth, when a probe is set.
                null mean_error: Option<f64> = "mean_error",
                /// Worst per-node error against a ground truth, when a probe is set.
                null max_error: Option<f64> = "max_error",
                /// Classification dispersion across live nodes, when computed.
                null dispersion: Option<f64> = "dispersion",
                /// Wall-clock time the sample was taken, in milliseconds since the
                /// Unix epoch. `None` in legacy traces and in round-driven
                /// simulations that have no wall clock; the deployment runtime
                /// stamps it so dashboards and episode timelines can plot
                /// against real time instead of round index.
                null unix_ms: Option<u64> = "unix_ms",
            }
        ),
        /// A run began: how many participants and the total grains minted.
        ClusterStarted = "cluster_started" {
            /// Number of nodes/peers in the run.
            req nodes: usize = "nodes",
            /// Total grains minted at start (one weight unit per node, so the
            /// per-node share is `initial_grains / nodes`).
            req initial_grains: u64 = "initial_grains",
        },
        /// A synchronous round finished (rounds engine / gossip runner).
        RoundCompleted = "round_completed" {
            /// Round index that just completed.
            req round: u64 = "round",
            /// Live nodes after the round's crash phase.
            req live: usize = "live",
            /// Cumulative messages sent so far.
            req sent: u64 = "sent",
            /// Cumulative messages delivered so far.
            req delivered: u64 = "delivered",
            /// Cumulative messages dropped so far.
            req dropped: u64 = "dropped",
        },
        /// A node's periodic tick fired (event-driven engine).
        TickCompleted = "tick_completed" {
            /// Node that ticked.
            req node: usize = "node",
            /// Simulated time of the tick.
            req time: f64 = "time",
        },
        /// A message left its sender.
        MessageSent = "message_sent" {
            /// Sender node.
            req from: usize = "from",
            /// Destination node.
            req to: usize = "to",
            /// Encoded size, `0` when no sizer is configured.
            req bytes: u64 = "bytes",
            /// When it was sent: round index (rounds engine) or simulated
            /// time (event engine). Pairs with the matching delivery's `at`
            /// to give per-link latency; `0.0` in traces predating the field.
            dflt at: f64 = "at",
            /// Sender's Lamport clock at send time (`None` in legacy traces).
            opt lamport: Option<u64> = "lamport",
            /// Per-sender message sequence number — together with `from` this
            /// is the message's span ID `(origin, seq)`.
            opt seq: Option<u64> = "seq",
        },
        /// A message reached its destination handler.
        MessageDelivered = "message_delivered" {
            /// Sender node.
            req from: usize = "from",
            /// Destination node.
            req to: usize = "to",
            /// Encoded size, `0` when no sizer is configured.
            req bytes: u64 = "bytes",
            /// When it arrived, on the same clock as the matching
            /// [`TraceEvent::MessageSent`]'s `at`.
            dflt at: f64 = "at",
            /// Receiver's Lamport clock after the max-merge (`None` in
            /// legacy traces).
            opt lamport: Option<u64> = "lamport",
            /// Sequence number of the matching send span `(from, span_seq)`.
            opt span_seq: Option<u64> = "span_seq",
        },
        /// A message was dropped in flight.
        MessageDropped = "message_dropped" {
            /// Sender node.
            req from: usize = "from",
            /// Destination node.
            req to: usize = "to",
            /// Why it was dropped.
            req reason: DropReason = "reason",
        },
        /// A fault-model action fired (crash injection, partition opening).
        FaultActivated = "fault_activated" {
            /// Fault kind, e.g. `"crash"` or `"partition"`.
            req kind: String = "kind",
            /// Affected node, if the fault targets one.
            null node: Option<usize> = "node",
            /// Engine time or wall-clock milliseconds when it fired.
            req at: f64 = "at",
        },
        /// A fault-model action was undone (restart, partition healing).
        FaultHealed = "fault_healed" {
            /// Fault kind, matching the activation.
            req kind: String = "kind",
            /// Affected node, if the fault targets one.
            null node: Option<usize> = "node",
            /// Engine time or wall-clock milliseconds when it healed.
            req at: f64 = "at",
        },
        /// A runtime peer incarnation died.
        PeerCrashed = "peer_crashed" {
            /// Peer id.
            req node: usize = "node",
            /// Incarnation that died.
            req incarnation: u16 = "incarnation",
        },
        /// A runtime peer came back as a fresh incarnation.
        PeerRestarted = "peer_restarted" {
            /// Peer id.
            req node: usize = "node",
            /// The new incarnation number.
            req incarnation: u16 = "incarnation",
        },
        /// A runtime peer flushed its grain log batch to the supervisor.
        PeerCheckpoint = "peer_checkpoint" {
            /// Peer id.
            req node: usize = "node",
            /// Incarnation that checkpointed.
            req incarnation: u16 = "incarnation",
            /// Grains split away in the flushed batch.
            req split: u64 = "split",
            /// Grains merged in the flushed batch.
            req merged: u64 = "merged",
            /// Grains returned in the flushed batch.
            req returned: u64 = "returned",
        },
        /// A single grain movement on a live peer or simulation node.
        GrainDelta = "grain_delta" {
            /// Node the grains moved on.
            req node: usize = "node",
            /// Incarnation (0 for simulation engines).
            req incarnation: u16 = "incarnation",
            /// Movement direction.
            req op: GrainOp = "op",
            /// How many grains moved.
            req grains: u64 = "grains",
            /// The counterpart node (destination of a split, source of a merge).
            req peer: usize = "peer",
            /// The node's Lamport clock when the movement happened (`None`
            /// in legacy traces).
            opt lamport: Option<u64> = "lamport",
            /// Split: the outgoing frame's sequence number — with
            /// `(node, incarnation)` this is the frame's span ID. `None` for
            /// merges.
            opt seq: Option<u64> = "seq",
            /// Merge/return: incarnation of the span being merged/returned
            /// (the parent span is `(peer, span_inc, span_seq)` for merges,
            /// `(node, span_inc, span_seq)` for returns).
            opt span_inc: Option<u64> = "span_inc",
            /// Merge/return: sequence number of the span being
            /// merged/returned.
            opt span_seq: Option<u64> = "span_seq",
            /// Merge: how long the delivered frame waited on the sender side
            /// (retry/backoff delay between first enqueue and the successful
            /// transmission attempt), in microseconds. `None` for splits,
            /// returns, simulation engines, and legacy traces.
            opt wait_us: Option<u64> = "wait_us",
            /// Merge: how long the delivered frame spent in transit (channel
            /// plus receiver ingress queueing, send to delivery), in
            /// microseconds. `wait_us + transit_us` is the hop's full
            /// enqueue-to-delivery latency, exactly.
            opt transit_us: Option<u64> = "transit_us",
        },
        /// The supervisor rolled back a non-durable grain-log batch.
        GrainsVoided = "grains_voided" {
            /// Peer whose batch was voided.
            req node: usize = "node",
            /// Incarnation the batch belonged to.
            req incarnation: u16 = "incarnation",
            /// Voided split grains.
            req split: u64 = "split",
            /// Voided merged grains.
            req merged: u64 = "merged",
            /// Voided returned grains.
            req returned: u64 = "returned",
            /// Voided drift injections (grains injected since the last
            /// checkpoint, rolled back with the restore). Omitted from the
            /// JSON when zero so pre-drift traces keep their shape.
            zero injected: u64 = "injected",
            /// Voided drift decay (grains forgotten since the last
            /// checkpoint, restored by the rollback).
            zero forgotten: u64 = "forgotten",
        },
        /// A peer's final standing when the cluster shut down.
        PeerFinal = "peer_final" {
            /// Peer id.
            req node: usize = "node",
            /// `"completed"`, `"retired"`, `"dead"`, or `"panicked"`.
            req outcome: String = "outcome",
            /// Grains held at shutdown (0 for dead and retired peers).
            req grains: u64 = "grains",
        },
        /// A peer re-read its sensor on the drift schedule: the old
        /// contribution decayed, a fresh unit-weight reading was injected.
        SensorDrift = "sensor_drift" {
            /// The drifting peer.
            req node: usize = "node",
            /// Its incarnation at the re-read.
            req incarnation: u16 = "incarnation",
            /// Grains injected (one unit per event).
            req injected: u64 = "injected",
            /// Grains decayed away.
            req forgotten: u64 = "forgotten",
            /// The peer's gossip tick when the re-read happened.
            req tick: u64 = "tick",
        },
        /// A brand-new peer was spawned mid-run by the churn plan; its unit
        /// weight is declared as an injection, not initial mass.
        PeerJoined = "peer_joined" {
            /// The joining peer.
            req node: usize = "node",
            /// Grains the joiner declared (its unit weight).
            req grains: u64 = "grains",
            /// Wall-clock milliseconds since cluster start.
            req at: f64 = "at",
        },
        /// A peer retired gracefully: it handed its entire classification to
        /// a live neighbor and drained, leaving no grains behind.
        PeerRetired = "peer_retired" {
            /// The retiring peer.
            req node: usize = "node",
            /// Grains handed off (its classification total at retirement).
            req grains: u64 = "grains",
            /// Wall-clock milliseconds since cluster start.
            req at: f64 = "at",
        },
        /// The grain-conservation auditor's verdict.
        AuditSummary = "audit_summary" {
            /// Grains minted at start.
            req initial: u64 = "initial",
            /// Grains held at shutdown.
            req final_grains: u64 = "final",
            /// Declared gains (returns + voided-send reabsorptions).
            req gains: u64 = "gains",
            /// Declared losses (crash holdings, unmerged pendings, voids).
            req losses: u64 = "losses",
            /// Grains injected by drift re-reads and joins (0 in static
            /// runs; omitted from the JSON when zero).
            zero injected: u64 = "injected",
            /// Grains decayed away by drift re-reads.
            zero forgotten: u64 = "forgotten",
            /// Whether the books closed exactly.
            req exact: bool = "exact",
            /// Whether conservation held (exactly or within declared slack).
            req conserved: bool = "conserved",
        },
        /// The trace sink hit its configured size cap: recording stopped
        /// here (nothing older was dropped) and this is the file's last
        /// event.
        TraceTruncated = "trace_truncated" {
            /// Bytes written to the sink before the cap fired.
            req bytes_written: u64 = "bytes_written",
        },
        /// A wall-clock convergence sample from the runtime supervisor.
        ClusterTelemetry = "cluster_telemetry" {
            /// Milliseconds since the cluster started.
            req elapsed_ms: f64 = "elapsed_ms",
            /// Peers currently believed live.
            req live: usize = "live",
            /// Classification dispersion across reporting peers.
            req dispersion: f64 = "dispersion",
            /// Wall-clock stamp, ms since the Unix epoch; `None` in legacy
            /// traces (the field is simply absent from their JSONL lines).
            opt unix_ms: Option<u64> = "unix_ms",
        },
        /// A peer was spawned under a Byzantine adversary role (byz runs).
        AdversaryActivated = "adversary_activated" {
            /// The adversarial peer.
            req node: usize = "node",
            /// Role name: `"mint"`, `"poison"` or `"cartel"`.
            req role: String = "role",
        },
        /// A defender sent a stochastic-audit probe.
        AuditProbe = "audit_probe" {
            /// The probing peer.
            req node: usize = "node",
            /// The audited peer.
            req target: usize = "target",
            /// The prober's gossip tick when the probe left.
            req tick: u64 = "tick",
        },
        /// A defender finished verifying an audit reply.
        AuditVerdict = "audit_verdict" {
            /// The probing peer.
            req node: usize = "node",
            /// The audited peer.
            req target: usize = "target",
            /// Whether the attested state matched the remembered frame.
            req passed: bool = "passed",
            /// Whether the pass was vacuous — the target attested nothing
            /// (evicted or never-retained send, or an incarnation change
            /// voided the comparison), so silence was taken as a pass.
            /// Omitted from the JSON when false.
            zero vacuous: bool = "vacuous",
            /// The prober's gossip tick at verification.
            req tick: u64 = "tick",
        },
        /// A peer reported evidence of misbehavior to the supervisor.
        PeerStrike = "peer_strike" {
            /// The accusing peer.
            req node: usize = "node",
            /// The accused peer.
            req target: usize = "target",
            /// Evidence class: `"non_finite"`, `"minted"` or `"drift"`.
            req reason: String = "reason",
            /// The accuser's gossip tick when the evidence was found.
            req tick: u64 = "tick",
        },
        /// The supervisor's cluster-wide strike tally convicted a peer.
        PeerConvicted = "peer_convicted" {
            /// The convicted peer.
            req target: usize = "target",
            /// Total strikes at conviction.
            req strikes: u64 = "strikes",
            /// The latest accuser tick among the convicting strikes.
            req tick: u64 = "tick",
        },
        /// An inbound data frame was rejected by ingress screening.
        FrameRejected = "frame_rejected" {
            /// The rejecting peer.
            req node: usize = "node",
            /// The frame's sender.
            req sender: usize = "sender",
            /// Grains the frame *claimed* to carry.
            req grains: u64 = "grains",
            /// Rejection class: `"convicted"`, `"non_finite"` or `"minted"`.
            req reason: String = "reason",
            /// The rejecting peer's gossip tick.
            req tick: u64 = "tick",
        },
        /// One peer lineage's final byte accounting (byz runs): total bytes
        /// handled (sent + received) and the audit-traffic share among them,
        /// both counted on the same two-sided basis so their ratio is the
        /// wire-level audit share.
        PeerBandwidth = "peer_bandwidth" {
            /// The peer.
            req node: usize = "node",
            /// All bytes the lineage sent or received.
            req bytes: u64 = "bytes",
            /// Bytes of audit probes and replies among them (both
            /// directions).
            req audit_bytes: u64 = "audit_bytes",
        },
        /// The grain auditor's Byzantine reconciliation (byz runs): minted
        /// weight measured exactly from the rejected frames' excess over
        /// their senders' durable books.
        ByzSummary = "byz_summary" {
            /// Minted grains measured across rejected frames.
            req minted_grains: u64 = "minted_grains",
            /// Distinct data frames rejected at ingress.
            req rejected_frames: u64 = "rejected_frames",
        },
    }
}

impl TraceEvent {
    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed JSON, an unknown `"type"`, or a
    /// missing or mistyped field.
    pub fn from_json(line: &str) -> Result<TraceEvent, JsonError> {
        match Self::decode(line)? {
            (_, Some(event)) => Ok(event),
            (kind, None) => Err(JsonError {
                message: format!("unknown event type {kind}"),
                offset: 0,
            }),
        }
    }

    /// A line's type and, when the table declares that type, its event.
    /// Members may come in any order, and keys the event lacks are
    /// skipped whatever their value, but the whole line must be JSON.
    fn decode(line: &str) -> Result<(Cow<'_, str>, Option<TraceEvent>), JsonError> {
        let mut members = Members::new(line)?;
        let mut behind = false;
        let kind = loop {
            let member = members.next_member()?;
            let (key, token) = member.ok_or_else(|| JsonError::field("type", "missing field"))?;
            if key == "type" {
                break token
                    .as_str()
                    .ok_or_else(|| JsonError::field_type("type", "string"))?;
            }
            behind = true;
        };
        // The encoder writes the type first; else members before it count.
        if behind {
            members = Members::new(line)?;
        }
        let event = Self::decode_fields(&kind, members)?;
        Ok((kind, event))
    }
}

impl fmt::Display for TraceEvent {
    /// The event's JSONL line, without the newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.encode(f)
    }
}

/// Reads a JSONL trace one line at a time, handing each event to
/// `on_event` in file order. Each line is decoded where it lies in the
/// reader's buffer; only a line that the buffer's end cuts is copied,
/// into one buffer kept for the next such line. Blank lines (JSON
/// whitespace only: spaces, tabs and carriage returns) are skipped.
/// Lines of event types this binary does not know are skipped and
/// counted (the return value), so traces from a newer event taxonomy
/// stay readable.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending line on the first
/// malformed line (bad JSON, a known event with broken fields, invalid
/// UTF-8, or any other non-blank line that is not an object) or read
/// failure.
pub fn read_jsonl(
    mut reader: impl BufRead,
    mut on_event: impl FnMut(TraceEvent),
) -> Result<usize, JsonError> {
    let at_line = |line_no: usize, message: &dyn fmt::Display, offset: usize| JsonError {
        message: format!("trace line {line_no}: {message}"),
        offset,
    };
    let mut unknown = 0usize;
    let mut take = |line: &[u8], line_no: usize| {
        if line.iter().all(|b| matches!(b, b' ' | b'\t' | b'\r')) {
            return Ok(());
        }
        let line = std::str::from_utf8(line).map_err(|e| at_line(line_no, &e, e.valid_up_to()))?;
        match TraceEvent::decode(line) {
            Ok((_, Some(ev))) => on_event(ev),
            Ok((_, None)) => unknown += 1,
            Err(e) => return Err(at_line(line_no, &e.message, e.offset)),
        }
        Ok(())
    };
    // The start of a line that the buffer's end cut.
    let (mut carry, mut line_no) = (Vec::new(), 0);
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(at_line(line_no + 1, &e, 0)),
        };
        if buf.is_empty() {
            if !carry.is_empty() {
                take(&carry, line_no + 1)?;
            }
            return Ok(unknown);
        }
        let mut rest = buf;
        while let Some(end) = newline(rest) {
            line_no += 1;
            if carry.is_empty() {
                take(strip_cr(&rest[..end]), line_no)?;
            } else {
                carry.extend_from_slice(&rest[..end]);
                take(strip_cr(&carry), line_no)?;
                carry.clear();
            }
            rest = &rest[end + 1..];
        }
        carry.extend_from_slice(rest);
        let used = buf.len();
        reader.consume(used);
    }
}

/// A line without its newline, as `str::lines` strips a `\r\n` ending.
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// The index of the first newline in `bytes`, found eight bytes at a
/// time.
fn newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // The lowest high bit flags the first byte that was `\n`.
        let x = word ^ (ONES * u64::from(b'\n'));
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(8 * i + zero.trailing_zeros() as usize / 8);
        }
    }
    let rest = words.remainder();
    let at = bytes.len() - rest.len();
    rest.iter().position(|&b| b == b'\n').map(|i| at + i)
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
        let text = format!("{tick}\r\n\r\n{{\"type\":\"later\"}}\n \t\r \n{tick}");
        let mut events = Vec::new();
        let unknown = read_jsonl(text.as_bytes(), |ev| events.push(ev)).expect("parses");
        assert_eq!((events.len(), unknown), (2, 1));
        assert_eq!(text.lines().filter(|l| l.contains("tick")).count(), 2);

        let err = read_jsonl(format!("{tick}\n\nnot json\n").as_bytes(), |_| {})
            .expect_err("line 3 is not JSON");
        assert!(err.message.starts_with("trace line 3:"), "{err}");
    }

    /// Lines that the reader's buffer cuts, anywhere, read as the lines
    /// the whole text holds.
    #[test]
    fn lines_cut_by_the_buffer_read_whole() {
        let tick = r#"{"type":"tick_completed","node":0,"time":1.0}"#;
        let sent = r#"{"type":"message_sent","from":1,"to":2,"bytes":3,"lamport":4,"seq":5}"#;
        let fault = r#"{"type":"fault_activated","kind":"é→\u00e9","node":null,"at":2.5}"#;
        let text =
            format!("{tick}\r\n{sent}\n\n {{\"type\":\"later\"}}\r\n{fault}\n{sent}\r\n{tick}");
        let read = |reader: &mut dyn BufRead| {
            let mut events = Vec::new();
            let unknown = read_jsonl(reader, |ev| events.push(ev)).expect("parses");
            (events, unknown)
        };
        let whole = read(&mut text.as_bytes());
        assert_eq!((whole.0.len(), whole.1), (5, 1));
        for capacity in [1, 2, 3, 7, 64, 1 << 16] {
            let mut reader = io::BufReader::with_capacity(capacity, text.as_bytes());
            assert_eq!(read(&mut reader), whole, "capacity {capacity}");
        }
        let bad = format!("{tick}\n{sent}\n{{\"type\":7}}\n");
        let err = read_jsonl(io::BufReader::with_capacity(5, bad.as_bytes()), |_| {})
            .expect_err("line 3 has no string type");
        assert!(err.message.starts_with("trace line 3:"), "{err}");
    }

    /// The word-at-a-time newline search finds what a byte scan finds,
    /// at every offset and next to bytes one bit away from `\n`.
    #[test]
    fn newline_search_matches_a_byte_scan() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for len in 0..200 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    [b'\n', 0x0b, 0x8a, 0x09, 0xff, b'a', 0x00, 0x0e][(x % 8) as usize]
                })
                .collect();
            for start in 0..len.min(9) {
                let rest = &bytes[start..];
                assert_eq!(
                    newline(rest),
                    rest.iter().position(|&b| b == b'\n'),
                    "{rest:?}"
                );
            }
        }
    }

    /// Blank means JSON whitespace. A line of any other whitespace, or of
    /// invalid UTF-8, is an error naming the line, as `from_json`
    /// rejects it.
    #[test]
    fn only_json_whitespace_is_blank() {
        let tick = r#"{"type":"tick_completed","node":0,"time":1.0}"#;
        for space in [
            "\u{b}",
            "\u{c}",
            " \u{85}",
            "\u{a0}",
            "\u{2028}\t",
            "\u{3000}",
        ] {
            assert!(TraceEvent::from_json(space).is_err());
            let text = format!("{tick}\n{space}\n{tick}\n");
            let err = read_jsonl(text.as_bytes(), |_| {}).expect_err(space);
            assert!(err.message.starts_with("trace line 2:"), "{space:?}: {err}");
        }
        let text = [tick.as_bytes(), b"\n{\"type\":\"x\xff\"}\n"].concat();
        let err = read_jsonl(&text[..], |_| {}).expect_err("invalid UTF-8");
        assert!(err.message.starts_with("trace line 2:"), "{err}");
        assert_eq!(err.offset, 10);
    }
}
