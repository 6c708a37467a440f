//! Happens-before reconstruction: the causal DAG, convergence critical
//! path, grain provenance, and the influence matrix — all derived offline
//! from a `--trace` JSONL file.
//!
//! Every message path in the stack stamps its events with a Lamport clock
//! and a *span id*:
//!
//! * simulation engines give each send the span `(from, seq)` (incarnation
//!   0) and each delivery names it back via `span_seq`;
//! * the deployment runtime gives each outgoing half the span
//!   `(node, incarnation, seq)` — carried in the v3 wire frame — and each
//!   merge/return names the parent span it consumed.
//!
//! [`CausalReport::from_events`] rebuilds the happens-before DAG from
//! those stamps:
//!
//! * **vertices** are the causally stamped events (sends, deliveries,
//!   grain splits/merges/returns carrying a `lamport` field);
//! * **program edges** (weight 0) chain each node's events in emission
//!   order — one peer is one thread, so file order *is* program order;
//! * **cross edges** (weight 1 per message hop) connect a send/split to
//!   every delivery/merge naming its span, and a split to the return that
//!   brought its grains home (weight 0 — a timeout is not a hop).
//!
//! From the DAG the report derives:
//!
//! * **convergence critical path** — the longest chain of message hops
//!   from any initial input to an event at or before the trace's earliest
//!   convergence marker, with per-hop Lamport and trace-clock latency
//!   attribution;
//! * **grain provenance** — for every node, which origin nodes' grains it
//!   absorbed, reconciled *exactly* (i128 arithmetic, zero drift
//!   tolerated) against the auditor's ledgers: checkpoint-delimited
//!   segments of grain deltas and sensor re-reads are matched against
//!   `GrainsVoided` rollbacks so only durable movements count;
//! * **influence matrix** — for every ordered pair `(i, j)`, whether
//!   node `i`'s initial state causally reached node `j`, and the earliest
//!   round marker (Lamport clock for unmarked traces) where it did;
//! * **clock health** — per-node final clocks, cross-node skew, Lamport
//!   monotonicity violations, and the causal-depth histogram (the same
//!   log-bucketed shape the live metrics registry uses).
//!
//! A clean report means: the DAG is acyclic, every edge strictly
//! increases the Lamport clock, every parent span resolved, and the
//! provenance books closed exactly. Any failure surfaces as a
//! [`CausalAnomaly`], which the CI trace gate fails on.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use crate::analyze::{AnalyzeOptions, Timeline};
use crate::event::{Fold, GrainOp, TraceEvent};
use crate::json::{field, num, str as jstr, unum, Json, JsonError};
use crate::metrics::HistogramSnapshot;

/// A message span id: `(origin node, origin incarnation, sequence)`.
///
/// Simulation engines always use incarnation 0; runtime spans carry the
/// minting incarnation so a restarted peer's sequence space stays
/// disjoint from its predecessor's.
pub type SpanId = (usize, u64, u64);

/// The influence matrix's empty cell: the origin never reached the node.
const NEVER: u64 = u64::MAX;
/// No vertex.
const NONE: usize = usize::MAX;

/// What a causal DAG vertex describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VertexKind {
    /// A simulator `message_sent`.
    Send,
    /// A simulator `message_delivered`.
    Deliver,
    /// A runtime grain split (half leaving the node).
    Split,
    /// A runtime grain merge (half absorbed).
    Merge,
    /// A runtime grain return (abandoned half coming home).
    Return,
}

impl VertexKind {
    fn as_str(self) -> &'static str {
        match self {
            VertexKind::Send => "send",
            VertexKind::Deliver => "deliver",
            VertexKind::Split => "split",
            VertexKind::Merge => "merge",
            VertexKind::Return => "return",
        }
    }
}

/// The timing a vertex carries for the hop it ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stamp {
    /// Runtime grain events without frame time stamps.
    None,
    /// Simulator sends and deliveries: the trace clock `at`.
    At(f64),
    /// Runtime grain events with the delivered frame's stamps: how long
    /// it sat in the sender's retry queue and how long it spent on the
    /// wire plus the receiver's ingress queue, in microseconds.
    Hop(u64, u64),
}

/// One causally stamped event, as a DAG vertex.
#[derive(Debug, Clone, PartialEq)]
struct Vertex {
    /// The node's Lamport clock at the event.
    lamport: u64,
    stamp: Stamp,
    /// The span this vertex carries as `(incarnation, seq)` on its own
    /// node: every send, and grain events with a `seq`.
    span: Option<(u16, u64)>,
    /// Dense index of the node the event happened on.
    node: u32,
    /// The node's next vertex: the program-order edge (`NONE` for the
    /// node's last).
    next: usize,
    kind: VertexKind,
}

/// One message hop on the convergence critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// Span id of the message that carried the dependency.
    pub span: SpanId,
    /// Sender's Lamport clock at the send.
    pub lamport_send: u64,
    /// Receiver's Lamport clock after the fold.
    pub lamport_recv: u64,
    /// Latency of the hop. For runtime grain hops this is real time in
    /// milliseconds, computed as exactly `wait + transit` (the same
    /// floating-point sum, so the decomposition reconciles bit-for-bit).
    /// For simulator message pairs it is the trace-clock difference when
    /// both ends carry an `at` stamp. `None` for legacy runtime traces
    /// without frame time stamps.
    pub latency: Option<f64>,
    /// How long the delivered frame waited on the sender side before the
    /// transmission attempt that got through (retry/backoff delay), in
    /// the same unit as `latency`. Simulator hops are never queued, so
    /// they report `Some(0.0)` whenever `latency` is known.
    pub wait: Option<f64>,
    /// How long the delivered frame spent in transit — channel plus the
    /// receiver's ingress queue — in the same unit as `latency`.
    pub transit: Option<f64>,
}

/// The longest causal chain ending at or before convergence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Message hops on the path (its length in causal depth).
    pub depth: u64,
    /// Round marker of the earliest convergence point, when the trace's
    /// telemetry converged; `None` caps the path at end of trace instead.
    pub converged_round: Option<u64>,
    /// Node the path ends on, `None` when the trace has no causal events.
    pub end_node: Option<usize>,
    /// Lamport clock of the path's final event.
    pub end_lamport: Option<u64>,
    /// The hops, in causal order.
    pub hops: Vec<CriticalHop>,
}

/// One node's grain provenance, replayed with the auditor's arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProvenance {
    /// The node.
    pub node: usize,
    /// Outcome string from `peer_final`, when the trace carries one.
    pub outcome: Option<String>,
    /// Grains minted to the node at start (`initial_grains / nodes`).
    pub initial: u64,
    /// Durable (non-voided) grains absorbed, keyed by the origin node
    /// that split them away — "whose grains ended up here".
    pub absorbed: BTreeMap<usize, u128>,
    /// Durable grains split away to peers.
    pub split: u128,
    /// Durable grains returned after abandoned retransmissions.
    pub returned: u128,
    /// Durable net sensor-drift movement: Σ (injected − forgotten).
    pub dynamic: i128,
    /// `initial + Σ absorbed + returned − split + dynamic` in i128
    /// (cannot wrap).
    pub expected: i128,
    /// Grains held at shutdown, when a `peer_final` was recorded.
    pub final_grains: Option<u64>,
    /// `final − expected`; `Some(0)` means the books closed exactly.
    /// Only computed for completed peers — a dead peer's holdings are
    /// declared losses by the auditor, not ledger errors.
    pub drift: Option<i128>,
}

/// Per-pair causal reachability: did node `i`'s initial state reach `j`?
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InfluenceMatrix {
    /// Matrix dimension: how many distinct node ids the trace names.
    pub nodes: usize,
    /// The node id of each row and column, ascending: `0..nodes` on a
    /// trace whose ids are contiguous. An id the trace never names has
    /// no row, however large the ids around it.
    pub ids: Vec<usize>,
    /// `order[k]`: the stored row and column of node `ids[k]`.
    order: Vec<usize>,
    /// `nodes × nodes` earliest markers, destination-major (row `d` holds
    /// each origin's earliest marker at destination `d`), rows and
    /// columns in the order nodes appeared in the trace, `NEVER` where
    /// the origin never reached the destination.
    cells: Vec<u64>,
}

impl InfluenceMatrix {
    /// The earliest marker at which origin `i`'s state had causally
    /// reached node `j` (`Some(0)` on the diagonal), `None` if it never
    /// did or either id is absent from the trace. The marker is the
    /// current round index when the trace carries round/telemetry
    /// markers, otherwise the receiving event's Lamport clock.
    pub fn earliest(&self, i: usize, j: usize) -> Option<u64> {
        let (r, c) = (
            self.ids.binary_search(&i).ok()?,
            self.ids.binary_search(&j).ok()?,
        );
        self.row(r).nth(c).flatten()
    }

    /// Whether origin `i`'s state causally reached node `j`.
    pub fn reached(&self, i: usize, j: usize) -> bool {
        self.earliest(i, j).is_some()
    }

    /// Ordered pairs (including the diagonal) that were reached.
    pub fn pairs_reached(&self) -> usize {
        self.cells.iter().filter(|&&m| m != NEVER).count()
    }

    /// Row `k`: origin `ids[k]`'s earliest marker at each destination,
    /// in `ids` order (a column of the stored cells).
    fn row(&self, k: usize) -> impl Iterator<Item = Option<u64>> + '_ {
        let origin = self.order[k];
        (self.order.iter())
            .map(move |&d| Some(self.cells[d * self.nodes + origin]).filter(|&m| m != NEVER))
    }
}

/// A red flag from the causal replay; any anomaly fails the CI gate.
#[derive(Debug, Clone, PartialEq)]
pub enum CausalAnomaly {
    /// The reconstructed graph has a cycle — happens-before is a partial
    /// order, so this means corrupt stamps or a corrupt trace.
    Cyclic,
    /// Edges whose Lamport clocks do not strictly increase (a clock
    /// rewind — e.g. a peer that panicked without a death receipt).
    LamportViolations {
        /// Offending edges.
        count: usize,
    },
    /// Deliveries/merges/returns naming a span no send/split minted
    /// (typically a truncated trace).
    UnmatchedParents {
        /// Orphaned events.
        count: usize,
    },
    /// `grains_voided` rollbacks that matched no checkpoint-delimited
    /// delta segment — per-origin attribution cannot be trusted.
    UnmatchedVoids {
        /// Unmatched rollbacks.
        count: usize,
    },
    /// A `peer_checkpoint`'s sums disagree with the grain deltas traced
    /// since the previous checkpoint.
    CheckpointMismatch {
        /// Offending peer.
        node: usize,
        /// Offending incarnation.
        incarnation: u16,
    },
    /// A completed peer's provenance books do not close exactly.
    ProvenanceDrift {
        /// Offending peer.
        node: usize,
        /// `final − expected` in grains.
        drift: i64,
    },
    /// The trace sink hit its size cap: the DAG beyond the marker is
    /// missing.
    TraceTruncated {
        /// Bytes written before the cap fired.
        bytes_written: u64,
    },
    /// JSONL lines with unknown event types were skipped.
    UnknownEvents {
        /// Skipped lines.
        count: usize,
    },
}

impl fmt::Display for CausalAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalAnomaly::Cyclic => write!(f, "happens-before graph has a cycle"),
            CausalAnomaly::LamportViolations { count } => {
                write!(f, "{count} edge(s) with non-increasing Lamport clocks")
            }
            CausalAnomaly::UnmatchedParents { count } => {
                write!(f, "{count} event(s) name a span no send/split minted")
            }
            CausalAnomaly::UnmatchedVoids { count } => {
                write!(f, "{count} void(s) matched no delta segment")
            }
            CausalAnomaly::CheckpointMismatch { node, incarnation } => write!(
                f,
                "node {node} incarnation {incarnation}: checkpoint sums disagree with traced deltas"
            ),
            CausalAnomaly::ProvenanceDrift { node, drift } => {
                write!(f, "node {node}: provenance drift of {drift} grains")
            }
            CausalAnomaly::TraceTruncated { bytes_written } => {
                write!(f, "trace truncated at its size cap ({bytes_written} bytes)")
            }
            CausalAnomaly::UnknownEvents { count } => {
                write!(f, "{count} line(s) with unknown event types were skipped")
            }
        }
    }
}

impl CausalAnomaly {
    /// A machine-readable discriminator for the JSON report.
    pub fn kind(&self) -> &'static str {
        match self {
            CausalAnomaly::Cyclic => "cyclic",
            CausalAnomaly::LamportViolations { .. } => "lamport_violations",
            CausalAnomaly::UnmatchedParents { .. } => "unmatched_parents",
            CausalAnomaly::UnmatchedVoids { .. } => "unmatched_voids",
            CausalAnomaly::CheckpointMismatch { .. } => "checkpoint_mismatch",
            CausalAnomaly::ProvenanceDrift { .. } => "provenance_drift",
            CausalAnomaly::TraceTruncated { .. } => "trace_truncated",
            CausalAnomaly::UnknownEvents { .. } => "unknown_events",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            field("kind", jstr(self.kind())),
            field("detail", jstr(self.to_string())),
        ];
        match self {
            CausalAnomaly::LamportViolations { count }
            | CausalAnomaly::UnmatchedParents { count }
            | CausalAnomaly::UnmatchedVoids { count }
            | CausalAnomaly::UnknownEvents { count } => {
                fields.push(field("count", unum(*count as u64)));
            }
            CausalAnomaly::CheckpointMismatch { node, incarnation } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("incarnation", unum(*incarnation as u64)));
            }
            CausalAnomaly::ProvenanceDrift { node, drift } => {
                fields.push(field("node", unum(*node as u64)));
                fields.push(field("drift", num(*drift as f64)));
            }
            CausalAnomaly::TraceTruncated { bytes_written } => {
                fields.push(field("bytes_written", unum(*bytes_written)));
            }
            CausalAnomaly::Cyclic => {}
        }
        Json::Obj(fields)
    }
}

/// One checkpoint-delimited run of grain deltas and sensor re-reads on a
/// `(node, incarnation)` — the unit the supervisor voids when a batch
/// was not durable.
#[derive(Debug, Default)]
struct Segment {
    split: u64,
    merged: u64,
    returned: u64,
    injected: u64,
    forgotten: u64,
    /// Merged grains keyed by the origin node that split them away.
    by_src: BTreeMap<usize, u128>,
    voided: bool,
    /// Whether any delta landed in this segment (distinguishes a fresh
    /// open segment from one that traced zero-grain movements).
    touched: bool,
}

/// Everything the causal replay derived from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalReport {
    /// Events consumed.
    pub events: usize,
    /// Events carrying causal stamps (DAG vertices).
    pub causal_events: usize,
    /// Nodes: what `cluster_started` declares, or how many distinct ids
    /// the trace names when that is more.
    pub nodes: usize,
    /// Whether the happens-before graph is cycle-free.
    pub acyclic: bool,
    /// Edges whose Lamport clocks failed to strictly increase.
    pub lamport_violations: usize,
    /// Events naming a span no send/split minted.
    pub unmatched_parents: usize,
    /// Void rollbacks that matched no delta segment.
    pub unmatched_voids: usize,
    /// Same-node program-order edges.
    pub program_edges: usize,
    /// Cross-node (and split→return) span edges.
    pub cross_edges: usize,
    /// Highest Lamport clock observed per node.
    pub node_clocks: BTreeMap<usize, u64>,
    /// `max − min` of the per-node final clocks (0 with < 2 nodes).
    pub clock_skew: u64,
    /// Distribution of causal depth (message hops from any initial
    /// input) over all vertices.
    pub depth: HistogramSnapshot,
    /// The convergence critical path.
    pub critical_path: CriticalPath,
    /// Per-node provenance, ordered by node id. Empty when the trace
    /// carries no grain accounting.
    pub provenance: Vec<NodeProvenance>,
    /// Whether every completed peer's books closed exactly and every
    /// void/checkpoint reconciled.
    pub provenance_exact: bool,
    /// Pairwise causal reachability.
    pub influence: InfluenceMatrix,
    /// JSONL lines skipped for unknown event types (populated by
    /// [`CausalReport::from_jsonl`]).
    pub unknown_events: usize,
    /// Red flags; empty means the causal layer is healthy.
    pub anomalies: Vec<CausalAnomaly>,
}

/// Largest matrix Display renders cell-by-cell; bigger runs summarize.
const DISPLAY_MATRIX_MAX: usize = 16;

/// A span key in the mint maps: `(dense node, incarnation, seq)`;
/// simulator messages use incarnation 0 in a map of their own.
type SpanKey = (u32, u64, u64);

/// Where one node's timeline stands while the pass runs, so that a new
/// vertex is checked without reading the node's previous one.
#[derive(Clone, Copy)]
struct Tip {
    /// The node's latest vertex (`NONE` before its first).
    vertex: usize,
    /// That vertex's Lamport clock.
    lamport: u64,
    /// The highest clock among the node's vertices.
    clock: u64,
}

/// The causal replay as a one-pass fold ([`CausalReport::fold`]).
#[derive(Default)]
struct CausalFold {
    timeline: Timeline,
    events: usize,
    declared_nodes: usize,
    initial_grains: u64,
    /// Node ids in order of first appearance: a node's dense index is
    /// its place here.
    ids: Vec<usize>,
    index: HashMap<usize, u32>,
    verts: Vec<Vertex>,
    /// Each node's timeline so far, by dense index.
    tips: Vec<Tip>,
    /// Span mint sites: simulator messages and runtime grain halves.
    msg_spans: HashMap<SpanKey, usize>,
    grain_spans: HashMap<SpanKey, usize>,
    /// Cross-edge children with the span each names, resolved against
    /// the complete mint maps after the pass — a trace whose sink
    /// reordered a send behind its delivery still links (and then fails
    /// the Lamport/cycle checks honestly instead of silently unmatching).
    parents: Vec<(usize, u32, u64, u64)>,
    /// Influence: per-node reach masks, bit `k` for dense origin `k`.
    reach: Vec<Vec<u64>>,
    /// The mask each span's sender had at send time, so a delivery
    /// absorbs exactly what the sender knew then. Freed when the span is
    /// delivered, or dropped while the only one in flight on its link
    /// (a drop names no span); returned halves keep theirs.
    snap_msg: BTreeMap<(u32, u64), (u32, Vec<u64>)>,
    snap_grain: HashMap<SpanKey, Vec<u64>>,
    /// Freed snapshots, reused by the next sends.
    spare: Vec<Vec<u64>>,
    /// Earliest markers while the pass runs: `cap × cap`, destination-
    /// major in dense order (an absorb writes one destination's row),
    /// `NEVER` where not reached; `cap` doubles as nodes appear.
    cells: Vec<u64>,
    cap: usize,
    /// Provenance: checkpoint-delimited delta segments per
    /// (node, incarnation); the last entry is the open tail.
    segments: HashMap<(usize, u16), Vec<Segment>>,
    finals: BTreeMap<usize, (String, u64)>,
    program_edges: usize,
    lamport_violations: usize,
    unmatched_parents: usize,
    unmatched_voids: usize,
    checkpoint_mismatches: Vec<(usize, u16)>,
    truncated: Option<u64>,
    /// Once linked: the cross edges grouped by parent, vertex `u`'s
    /// children at `cross[start[u]..start[u + 1]]` in file order.
    cross: Vec<usize>,
    start: Vec<usize>,
}

impl CausalFold {
    fn new(opts: &AnalyzeOptions) -> Self {
        CausalFold {
            timeline: Timeline::new(opts),
            ..CausalFold::default()
        }
    }

    /// The dense index of node `id`, assigned when the id first appears.
    /// Per-node state is sized by how many ids the trace uses, never by
    /// how large an id is.
    fn node(&mut self, id: usize) -> u32 {
        if let Some(&k) = self.index.get(&id) {
            return k;
        }
        let k = self.ids.len();
        if k == self.cap {
            let cap = (2 * k).max(16);
            let mut cells = vec![NEVER; cap * cap];
            for r in 0..k {
                cells[r * cap..r * cap + k].copy_from_slice(&self.cells[r * k..(r + 1) * k]);
            }
            (self.cells, self.cap) = (cells, cap);
        }
        self.cells[k * self.cap + k] = 0;
        let mut mask = vec![0u64; k / 64 + 1];
        mask[k / 64] = 1 << (k % 64);
        self.reach.push(mask);
        self.tips.push(Tip {
            vertex: NONE,
            lamport: 0,
            clock: 0,
        });
        self.ids.push(id);
        self.index.insert(id, k as u32);
        k as u32
    }

    /// Adds a vertex plus its program-order edge, checking clock
    /// monotonicity along the node's own timeline.
    fn add_vertex(
        &mut self,
        node: u32,
        lamport: u64,
        kind: VertexKind,
        stamp: Stamp,
        span: Option<(u16, u64)>,
    ) -> usize {
        let id = self.verts.len();
        let tip = &mut self.tips[node as usize];
        let prev = std::mem::replace(&mut tip.vertex, id);
        if prev != NONE {
            if tip.lamport >= lamport {
                self.lamport_violations += 1;
            }
            self.verts[prev].next = id;
            self.program_edges += 1;
        }
        tip.lamport = lamport;
        tip.clock = tip.clock.max(lamport);
        self.verts.push(Vertex {
            lamport,
            stamp,
            span,
            node,
            next: NONE,
            kind,
        });
        id
    }

    /// Node `from`'s reach now, in a freed snapshot's buffer.
    fn snapshot(&mut self, from: u32) -> Vec<u64> {
        let mut snap = self.spare.pop().unwrap_or_default();
        snap.clear();
        snap.extend_from_slice(&self.reach[from as usize]);
        snap
    }

    /// ORs a span's send-time mask into node `to`'s reach; every origin
    /// it newly reaches gets `marker` as its earliest. The snapshot's
    /// buffer is kept for the next send.
    fn absorb(&mut self, to: u32, snap: Vec<u64>, marker: u64) {
        let reach = &mut self.reach[to as usize];
        if reach.len() < snap.len() {
            reach.resize(snap.len(), 0);
        }
        let row = &mut self.cells[to as usize * self.cap..][..self.cap];
        for (w, (dst, src)) in reach.iter_mut().zip(&snap).enumerate() {
            let mut fresh = src & !*dst;
            *dst |= src;
            // A cell is set exactly when its origin joins the reach, so
            // a fresh origin's cell is still `NEVER`.
            while fresh != 0 {
                row[w * 64 + fresh.trailing_zeros() as usize] = marker;
                fresh &= fresh - 1;
            }
        }
        self.spare.push(snap);
    }

    /// `u`'s out-edges with their hop weights, in construction order:
    /// the program-order edge, then the cross edges.
    fn out(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let next = self.verts[u].next;
        let cross = &self.cross[self.start[u]..self.start[u + 1]];
        // A return brought a timed-out half home: no message hop.
        let hop = |c: usize| u64::from(self.verts[c].kind != VertexKind::Return);
        let cross = cross.iter().map(move |&c| (c, hop(c)));
        (next != NONE).then_some((next, 0)).into_iter().chain(cross)
    }

    /// The open (last, unvoided) segment of `(node, incarnation)`.
    fn open_segment(&mut self, node: usize, incarnation: u16) -> &mut Segment {
        let segs = self.segments.entry((node, incarnation)).or_default();
        if segs.last().is_none_or(|s| s.voided) {
            segs.push(Segment::default());
        }
        segs.last_mut().expect("open segment")
    }

    /// Resolves every cross edge against the complete mint maps.
    fn link(&mut self) {
        let mut pairs = Vec::with_capacity(self.parents.len());
        for (child, node, inc, seq) in std::mem::take(&mut self.parents) {
            let spans = match self.verts[child].kind {
                VertexKind::Deliver => &self.msg_spans,
                _ => &self.grain_spans,
            };
            match spans.get(&(node, inc, seq)) {
                Some(&p) => {
                    if self.verts[p].lamport >= self.verts[child].lamport {
                        self.lamport_violations += 1;
                    }
                    pairs.push((p, child));
                }
                None => self.unmatched_parents += 1,
            }
        }
        (self.msg_spans, self.grain_spans) = (HashMap::new(), HashMap::new());
        // Stable: each parent's children stay in file order.
        pairs.sort_by_key(|&(p, _)| p);
        let mut start = vec![0; self.verts.len() + 1];
        for &(p, _) in &pairs {
            start[p + 1] += 1;
        }
        for u in 0..self.verts.len() {
            start[u + 1] += start[u];
        }
        self.cross = pairs.into_iter().map(|(_, c)| c).collect();
        self.start = start;
    }
}

impl Fold for CausalFold {
    type Report = CausalReport;

    fn on_event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.timeline.on_event(ev, self.verts.len());
        // Every id the trace names gets a node as it first appears: `a`
        // and `b` are the event's nodes by dense index (0 when unused).
        let (a, b) = match ev {
            TraceEvent::MessageSent { from, to, .. }
            | TraceEvent::MessageDelivered { from, to, .. }
            | TraceEvent::MessageDropped { from, to, .. } => (self.node(*from), self.node(*to)),
            TraceEvent::GrainDelta { node, peer, .. } => (self.node(*node), self.node(*peer)),
            TraceEvent::TickCompleted { node, .. }
            | TraceEvent::PeerCrashed { node, .. }
            | TraceEvent::PeerRestarted { node, .. }
            | TraceEvent::PeerCheckpoint { node, .. }
            | TraceEvent::GrainsVoided { node, .. }
            | TraceEvent::PeerFinal { node, .. } => (self.node(*node), 0),
            _ => (0, 0),
        };
        let marker = self.timeline.marker;
        match ev {
            TraceEvent::ClusterStarted {
                nodes,
                initial_grains,
            } => {
                self.declared_nodes = *nodes;
                self.initial_grains = *initial_grains;
            }
            TraceEvent::MessageSent {
                at,
                lamport: Some(l),
                seq: Some(q),
                ..
            } => {
                let (from, to) = (a, b);
                let id = self.add_vertex(from, *l, VertexKind::Send, Stamp::At(*at), Some((0, *q)));
                self.msg_spans.insert((from, 0, *q), id);
                let snap = self.snapshot(from);
                if let Some((_, old)) = self.snap_msg.insert((from, *q), (to, snap)) {
                    self.spare.push(old);
                }
            }
            TraceEvent::MessageDelivered {
                at,
                lamport: Some(l),
                span_seq: Some(q),
                ..
            } => {
                let (from, to) = (a, b);
                let id = self.add_vertex(to, *l, VertexKind::Deliver, Stamp::At(*at), None);
                self.parents.push((id, from, 0, *q));
                if let Some((_, snap)) = self.snap_msg.remove(&(from, *q)) {
                    self.absorb(to, snap, marker.unwrap_or(*l));
                }
            }
            TraceEvent::MessageDropped { .. } => {
                // A drop names no span: free a snapshot only when it is
                // the one message in flight on the link.
                let (from, to) = (a, b);
                let mut on_link = self
                    .snap_msg
                    .range((from, 0)..=(from, u64::MAX))
                    .filter(|(_, (dest, _))| *dest == to)
                    .map(|(&key, _)| key);
                if let (Some(key), None) = (on_link.next(), on_link.next()) {
                    self.spare
                        .extend(self.snap_msg.remove(&key).map(|(_, snap)| snap));
                }
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
                // Provenance bookkeeping happens regardless of the
                // causal stamps, so legacy traces still reconcile.
                let seg = self.open_segment(*node, *incarnation);
                seg.touched = true;
                match op {
                    GrainOp::Split => seg.split += grains,
                    GrainOp::Merge => {
                        seg.merged += grains;
                        *seg.by_src.entry(*peer).or_default() += u128::from(*grains);
                    }
                    GrainOp::Return => seg.returned += grains,
                }

                let Some(l) = lamport else { return };
                let (nd, pd) = (a, b);
                let (kind, origin) = match op {
                    GrainOp::Split => (VertexKind::Split, nd),
                    // The parent is the *sender's* split.
                    GrainOp::Merge => (VertexKind::Merge, pd),
                    // The parent is this node's own earlier split.
                    GrainOp::Return => (VertexKind::Return, nd),
                };
                let stamp = wait_us
                    .zip(*transit_us)
                    .map_or(Stamp::None, |(w, t)| Stamp::Hop(w, t));
                let id = self.add_vertex(nd, *l, kind, stamp, seq.map(|q| (*incarnation, q)));
                if *op == GrainOp::Split {
                    if let Some(q) = seq {
                        let span = (nd, u64::from(*incarnation), *q);
                        self.grain_spans.insert(span, id);
                        let snap = self.snapshot(nd);
                        self.spare.extend(self.snap_grain.insert(span, snap));
                    }
                    return;
                }
                let Some(span) = span_inc.zip(*span_seq).map(|(i, q)| (origin, i, q)) else {
                    self.unmatched_parents += 1;
                    return;
                };
                self.parents.push((id, span.0, span.1, span.2));
                if *op == GrainOp::Merge {
                    if let Some(snap) = self.snap_grain.remove(&span) {
                        self.absorb(nd, snap, marker.unwrap_or(*l));
                    }
                }
            }
            TraceEvent::PeerCheckpoint {
                node,
                incarnation,
                split,
                merged,
                returned,
            } => {
                // The flushed batch must equal the deltas traced since
                // the previous checkpoint; close the segment.
                let seg = self.open_segment(*node, *incarnation);
                if (seg.split, seg.merged, seg.returned) != (*split, *merged, *returned) {
                    self.checkpoint_mismatches.push((*node, *incarnation));
                }
                let segs = self.segments.entry((*node, *incarnation)).or_default();
                segs.push(Segment::default());
            }
            // A re-read is local (no causal span); its terms belong to
            // the batch the next checkpoint flushes or a crash voids.
            TraceEvent::SensorDrift {
                node,
                incarnation,
                injected,
                forgotten,
                ..
            } => {
                let seg = self.open_segment(*node, *incarnation);
                seg.touched = true;
                seg.injected += injected;
                seg.forgotten += forgotten;
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
                let sums = (*split, *merged, *returned, *injected, *forgotten);
                if sums == (0, 0, 0, 0, 0) {
                    return; // nothing to attribute
                }
                // Attribute the rollback to the earliest unvoided segment
                // with exactly matching sums: the open tail for a crash
                // before flush, a closed segment for a stale checkpoint
                // the supervisor refused.
                let segs = self.segments.entry((*node, *incarnation)).or_default();
                match segs.iter_mut().find(|s| {
                    !s.voided && (s.split, s.merged, s.returned, s.injected, s.forgotten) == sums
                }) {
                    Some(seg) => seg.voided = true,
                    None => self.unmatched_voids += 1,
                }
            }
            TraceEvent::PeerFinal {
                node,
                outcome,
                grains,
            } => {
                self.finals.insert(*node, (outcome.clone(), *grains));
            }
            TraceEvent::TraceTruncated { bytes_written } => {
                self.truncated = Some(*bytes_written);
            }
            _ => {}
        }
    }

    fn finish(mut self, unknown: usize) -> CausalReport {
        self.link();
        (self.reach, self.snap_msg, self.snap_grain, self.spare) =
            (Vec::new(), BTreeMap::new(), HashMap::new(), Vec::new());
        let verts = &self.verts;

        // ---- Toposort (Kahn) and longest-hop distances ----
        let nv = verts.len();
        let mut indeg = vec![0u32; nv];
        for u in 0..nv {
            for (v, _) in self.out(u) {
                indeg[v] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..nv).filter(|&v| indeg[v] == 0).collect();
        let mut topo = Vec::with_capacity(nv);
        while let Some(u) = queue.pop_front() {
            topo.push(u);
            for (v, _) in self.out(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        let acyclic = topo.len() == nv;

        let mut dist = vec![0u64; nv];
        let mut prev = vec![NONE; nv];
        let mut depth = HistogramSnapshot::empty();
        if acyclic {
            for &u in &topo {
                for (v, w) in self.out(u) {
                    let d = dist[u] + w;
                    if d > dist[v] {
                        dist[v] = d;
                        prev[v] = u;
                    }
                }
            }
            for &d in &dist {
                depth.observe(d);
            }
        }

        // ---- Convergence critical path ----
        // Vertices added after the converging sample are past it.
        let hit = self.timeline.series().hit;
        let limit = hit.map_or(nv, |(_, stamp)| stamp);
        let end = if acyclic {
            (0..limit).max_by_key(|&v| (dist[v], verts[v].lamport))
        } else {
            None
        };
        let id_of = |v: usize| self.ids[verts[v].node as usize];
        let mut hops = Vec::new();
        if let Some(end) = end {
            let mut v = end;
            while prev[v] != NONE {
                let u = prev[v];
                if verts[u].node != verts[v].node {
                    // A real hop; the parent minted the span it rode.
                    let span = verts[u]
                        .span
                        .map_or((id_of(u), 0, 0), |(inc, q)| (id_of(u), u64::from(inc), q));
                    // Runtime merge vertices carry the delivered frame's
                    // wait/transit stamps (real milliseconds); the hop's
                    // latency is their exact f64 sum, so the printed
                    // decomposition reconciles bit-for-bit. Simulator
                    // hops fall back to the trace-clock difference with
                    // zero wait — the simulator has no retry queue.
                    let (wait, transit, latency) = match (verts[u].stamp, verts[v].stamp) {
                        (_, Stamp::Hop(w, t)) => {
                            let (w_ms, t_ms) = (w as f64 / 1e3, t as f64 / 1e3);
                            (Some(w_ms), Some(t_ms), Some(w_ms + t_ms))
                        }
                        (Stamp::At(a), Stamp::At(b)) => {
                            let lat = (b - a).max(0.0);
                            (Some(0.0), Some(lat), Some(lat))
                        }
                        _ => (None, None, None),
                    };
                    hops.push(CriticalHop {
                        from: id_of(u),
                        to: id_of(v),
                        span,
                        lamport_send: verts[u].lamport,
                        lamport_recv: verts[v].lamport,
                        latency,
                        wait,
                        transit,
                    });
                }
                v = u;
            }
            hops.reverse();
        }
        let critical_path = CriticalPath {
            depth: end.map_or(0, |e| dist[e]),
            converged_round: hit.map(|(round, _)| round),
            end_node: end.map(id_of),
            end_lamport: end.map(|e| verts[e].lamport),
            hops,
        };

        // ---- Provenance: durable movements only, i128-exact ----
        let per_node_initial = if self.declared_nodes > 0 {
            self.initial_grains / self.declared_nodes as u64
        } else {
            0
        };
        let mut touched: Vec<usize> = self
            .segments
            .keys()
            .map(|&(node, _)| node)
            .chain(self.finals.keys().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut provenance = Vec::new();
        let mut drift_anomalies = Vec::new();
        for node in touched {
            let mut absorbed: BTreeMap<usize, u128> = BTreeMap::new();
            let (mut split, mut merged, mut returned) = (0u128, 0u128, 0u128);
            let mut dynamic = 0i128;
            for ((_, _), segs) in self.segments.iter().filter(|((nd, _), _)| *nd == node) {
                for seg in segs.iter().filter(|s| !s.voided && s.touched) {
                    split += u128::from(seg.split);
                    merged += u128::from(seg.merged);
                    returned += u128::from(seg.returned);
                    dynamic += i128::from(seg.injected) - i128::from(seg.forgotten);
                    for (&src, &g) in &seg.by_src {
                        *absorbed.entry(src).or_default() += g;
                    }
                }
            }
            let expected = i128::from(per_node_initial) + merged as i128 + returned as i128
                - split as i128
                + dynamic;
            let (outcome, final_grains) = match self.finals.get(&node) {
                Some((o, g)) => (Some(o.clone()), Some(*g)),
                None => (None, None),
            };
            let drift = match (&outcome, final_grains) {
                (Some(o), Some(g)) if o == "completed" => {
                    let d = i128::from(g) - expected;
                    if d != 0 {
                        drift_anomalies.push(CausalAnomaly::ProvenanceDrift {
                            node,
                            drift: d as i64,
                        });
                    }
                    Some(d)
                }
                _ => None,
            };
            provenance.push(NodeProvenance {
                node,
                outcome,
                initial: per_node_initial,
                absorbed,
                split,
                returned,
                dynamic,
                expected,
                final_grains,
                drift,
            });
        }
        let provenance_exact = drift_anomalies.is_empty()
            && self.unmatched_voids == 0
            && self.checkpoint_mismatches.is_empty();

        // ---- Anomalies ----
        let mut anomalies = Vec::new();
        if !acyclic {
            anomalies.push(CausalAnomaly::Cyclic);
        }
        if self.lamport_violations > 0 {
            anomalies.push(CausalAnomaly::LamportViolations {
                count: self.lamport_violations,
            });
        }
        if self.unmatched_parents > 0 {
            anomalies.push(CausalAnomaly::UnmatchedParents {
                count: self.unmatched_parents,
            });
        }
        if self.unmatched_voids > 0 {
            anomalies.push(CausalAnomaly::UnmatchedVoids {
                count: self.unmatched_voids,
            });
        }
        for &(node, incarnation) in &self.checkpoint_mismatches {
            anomalies.push(CausalAnomaly::CheckpointMismatch { node, incarnation });
        }
        anomalies.extend(drift_anomalies);
        if let Some(bytes_written) = self.truncated {
            anomalies.push(CausalAnomaly::TraceTruncated { bytes_written });
        }
        if unknown > 0 {
            anomalies.push(CausalAnomaly::UnknownEvents { count: unknown });
        }

        // The clocks of the nodes that have a vertex.
        let node_clocks: BTreeMap<usize, u64> = (self.ids.iter().zip(&self.tips))
            .filter(|(_, tip)| tip.vertex != NONE)
            .map(|(&id, tip)| (id, tip.clock))
            .collect();
        let clock_skew = match (node_clocks.values().max(), node_clocks.values().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        };

        // ---- Influence: rows compacted to stride n, in place ----
        let (n, cap) = (self.ids.len(), self.cap);
        let mut cells = std::mem::take(&mut self.cells);
        for r in 1..n {
            cells.copy_within(r * cap..r * cap + n, r * n);
        }
        cells.truncate(n * n);
        cells.shrink_to_fit();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&k| self.ids[k]);
        self.ids.sort_unstable();

        CausalReport {
            events: self.events,
            causal_events: nv,
            nodes: self.declared_nodes.max(n),
            acyclic,
            lamport_violations: self.lamport_violations,
            unmatched_parents: self.unmatched_parents,
            unmatched_voids: self.unmatched_voids,
            program_edges: self.program_edges,
            cross_edges: self.cross.len(),
            node_clocks,
            clock_skew,
            depth,
            critical_path,
            provenance,
            provenance_exact,
            influence: InfluenceMatrix {
                nodes: n,
                ids: self.ids,
                order,
                cells,
            },
            unknown_events: unknown,
            anomalies,
        }
    }
}

impl CausalReport {
    /// The causal replay as a one-pass fold: feed it events in
    /// trace-file order. It keeps the DAG's vertices and cross edges,
    /// per-node reach masks, the influence matrix and the provenance
    /// segments; a span's send-time snapshot lives only while the span is
    /// in flight.
    pub fn fold(opts: &AnalyzeOptions) -> impl Fold<Report = CausalReport> {
        CausalFold::new(opts)
    }

    /// Rebuilds the happens-before DAG from a parsed event stream (in
    /// trace-file order) and derives the full report.
    pub fn from_events(events: &[TraceEvent], opts: &AnalyzeOptions) -> CausalReport {
        Self::fold(opts).fold_events(events)
    }

    /// Parses a JSONL trace one line at a time and rebuilds the causal
    /// report.
    ///
    /// Unknown event types are skipped and counted (anomalously), like
    /// [`crate::TraceReport::from_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending line on the first
    /// malformed line.
    pub fn from_jsonl(text: &str, opts: &AnalyzeOptions) -> Result<CausalReport, JsonError> {
        Self::fold(opts).fold_jsonl(text.as_bytes())
    }

    /// Whether the causal layer is healthy: acyclic, clock-monotone,
    /// fully matched, and exactly reconciled.
    pub fn clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Encodes the full report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> Json {
        let opt_u = |v: Option<u64>| v.map_or(Json::Null, unum);
        let hops = self
            .critical_path
            .hops
            .iter()
            .map(|h| {
                Json::Obj(vec![
                    field("from", unum(h.from as u64)),
                    field("to", unum(h.to as u64)),
                    field(
                        "span",
                        Json::Arr(vec![unum(h.span.0 as u64), unum(h.span.1), unum(h.span.2)]),
                    ),
                    field("lamport_send", unum(h.lamport_send)),
                    field("lamport_recv", unum(h.lamport_recv)),
                    field("latency", h.latency.map_or(Json::Null, num)),
                    field("wait", h.wait.map_or(Json::Null, num)),
                    field("transit", h.transit.map_or(Json::Null, num)),
                ])
            })
            .collect();
        let provenance = self
            .provenance
            .iter()
            .map(|p| {
                let absorbed = p
                    .absorbed
                    .iter()
                    .map(|(&src, &g)| {
                        Json::Obj(vec![
                            field("src", unum(src as u64)),
                            field("grains", num(g as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    field("node", unum(p.node as u64)),
                    field("outcome", p.outcome.clone().map_or(Json::Null, jstr)),
                    field("initial", unum(p.initial)),
                    field("absorbed", Json::Arr(absorbed)),
                    field("split", num(p.split as f64)),
                    field("returned", num(p.returned as f64)),
                    field("dynamic", num(p.dynamic as f64)),
                    field("expected", num(p.expected as f64)),
                    field("final", p.final_grains.map_or(Json::Null, unum)),
                    field("drift", p.drift.map_or(Json::Null, |d| num(d as f64))),
                ])
            })
            .collect();
        let inf = &self.influence;
        let earliest = (0..inf.nodes)
            .map(|r| Json::Arr(inf.row(r).map(opt_u).collect()))
            .collect();
        let mut influence = vec![
            field("nodes", unum(inf.nodes as u64)),
            field("pairs_reached", unum(inf.pairs_reached() as u64)),
            field("earliest", Json::Arr(earliest)),
        ];
        // Rows are labelled by position unless the ids have gaps.
        if inf.ids.iter().enumerate().any(|(k, &id)| k != id) {
            let ids = inf.ids.iter().map(|&id| unum(id as u64)).collect();
            influence.insert(1, field("ids", Json::Arr(ids)));
        }
        let node_clocks = self
            .node_clocks
            .iter()
            .map(|(&node, &clock)| {
                Json::Obj(vec![
                    field("node", unum(node as u64)),
                    field("max_lamport", unum(clock)),
                ])
            })
            .collect();
        Json::Obj(vec![
            field("events", unum(self.events as u64)),
            field("causal_events", unum(self.causal_events as u64)),
            field("nodes", unum(self.nodes as u64)),
            field("acyclic", Json::Bool(self.acyclic)),
            field("lamport_violations", unum(self.lamport_violations as u64)),
            field("unmatched_parents", unum(self.unmatched_parents as u64)),
            field("unmatched_voids", unum(self.unmatched_voids as u64)),
            field("program_edges", unum(self.program_edges as u64)),
            field("cross_edges", unum(self.cross_edges as u64)),
            field("node_clocks", Json::Arr(node_clocks)),
            field("clock_skew", unum(self.clock_skew)),
            field(
                "depth",
                Json::Obj(vec![
                    field("count", unum(self.depth.count)),
                    field("mean", num(self.depth.mean())),
                    field("p50", num(self.depth.quantile(0.50))),
                    field("p99", num(self.depth.quantile(0.99))),
                    field("max", unum(self.depth.max)),
                ]),
            ),
            field(
                "critical_path",
                Json::Obj(vec![
                    field("depth", unum(self.critical_path.depth)),
                    field("converged_round", opt_u(self.critical_path.converged_round)),
                    field(
                        "end_node",
                        self.critical_path
                            .end_node
                            .map_or(Json::Null, |e| unum(e as u64)),
                    ),
                    field("end_lamport", opt_u(self.critical_path.end_lamport)),
                    field("hops", Json::Arr(hops)),
                ]),
            ),
            field("provenance", Json::Arr(provenance)),
            field("provenance_exact", Json::Bool(self.provenance_exact)),
            field("influence", Json::Obj(influence)),
            field("unknown_events", unum(self.unknown_events as u64)),
            field(
                "anomalies",
                Json::Arr(self.anomalies.iter().map(CausalAnomaly::to_json).collect()),
            ),
            field("clean", Json::Bool(self.clean())),
        ])
    }

    /// Renders the happens-before DAG in Graphviz DOT. Program-order
    /// edges are dotted, message hops solid and labeled with their span.
    ///
    /// Runs the report's own fold over the events, so the picture
    /// matches the report (which itself keeps only aggregates).
    pub fn to_dot(events: &[TraceEvent], opts: &AnalyzeOptions) -> String {
        let mut fold = CausalFold::new(opts);
        for ev in events {
            fold.on_event(ev);
        }
        fold.link();
        let mut s = String::from("digraph causal {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, v) in fold.verts.iter().enumerate() {
            let node = fold.ids[v.node as usize];
            let span = v
                .span
                .map(|(inc, q)| format!(" ({node},{inc},{q})"))
                .unwrap_or_default();
            s.push_str(&format!(
                "  e{i} [label=\"n{node}@{} {}{span}\"];\n",
                v.lamport,
                v.kind.as_str()
            ));
        }
        for u in 0..fold.verts.len() {
            for (v, w) in fold.out(u) {
                if w == 0 {
                    s.push_str(&format!("  e{u} -> e{v} [style=dotted];\n"));
                } else {
                    s.push_str(&format!("  e{u} -> e{v};\n"));
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for CausalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "causal: {} events ({} causal), {} nodes, {} program + {} cross edges",
            self.events, self.causal_events, self.nodes, self.program_edges, self.cross_edges
        )?;
        writeln!(
            f,
            "dag: {}, {} lamport violation(s), {} unmatched parent(s)",
            if self.acyclic { "acyclic" } else { "CYCLIC" },
            self.lamport_violations,
            self.unmatched_parents
        )?;
        if !self.node_clocks.is_empty() {
            writeln!(
                f,
                "clocks: skew {} (per-node max: {})",
                self.clock_skew,
                self.node_clocks
                    .iter()
                    .map(|(n, c)| format!("{n}:{c}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )?;
        }
        if self.depth.count > 0 {
            writeln!(
                f,
                "depth: p50 {:.1} p99 {:.1} max {} hops over {} events",
                self.depth.quantile(0.50),
                self.depth.quantile(0.99),
                self.depth.max,
                self.depth.count
            )?;
        }
        let cp = &self.critical_path;
        match cp.end_node {
            Some(end) => {
                let conv = cp
                    .converged_round
                    .map_or("end of trace".to_string(), |r| format!("round {r}"));
                writeln!(
                    f,
                    "critical path: {} hop(s) to node {} (lamport {}), capped at {}",
                    cp.depth,
                    end,
                    cp.end_lamport.unwrap_or(0),
                    conv
                )?;
                for (i, h) in cp.hops.iter().enumerate() {
                    let lat = match (h.latency, h.wait.zip(h.transit)) {
                        (Some(l), Some((w, t))) => {
                            format!(", {l:.3} = wait {w:.3} + transit {t:.3}")
                        }
                        (Some(l), None) => format!(", {l:.3} clock units"),
                        _ => String::new(),
                    };
                    writeln!(
                        f,
                        "  hop {:>2}: {} -> {} span ({},{},{}) lamport {} -> {}{}",
                        i + 1,
                        h.from,
                        h.to,
                        h.span.0,
                        h.span.1,
                        h.span.2,
                        h.lamport_send,
                        h.lamport_recv,
                        lat
                    )?;
                }
            }
            None => writeln!(f, "critical path: no causal events")?,
        }
        if !self.provenance.is_empty() {
            writeln!(
                f,
                "provenance ({}):",
                if self.provenance_exact {
                    "exact"
                } else {
                    "INEXACT"
                }
            )?;
            for p in &self.provenance {
                let absorbed = if p.absorbed.is_empty() {
                    "-".to_string()
                } else {
                    p.absorbed
                        .iter()
                        .map(|(s, g)| format!("{s}:{g}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                writeln!(
                    f,
                    "  node {:>3} [{}] initial {} absorbed {{{}}} returned {} split {} dynamic {:+} expected {} final {} drift {}",
                    p.node,
                    p.outcome.as_deref().unwrap_or("?"),
                    p.initial,
                    absorbed,
                    p.returned,
                    p.split,
                    p.dynamic,
                    p.expected,
                    p.final_grains.map_or("-".to_string(), |g| g.to_string()),
                    p.drift.map_or("-".to_string(), |d| d.to_string()),
                )?;
            }
        }
        writeln!(
            f,
            "influence: {}/{} pairs reached",
            self.influence.pairs_reached(),
            self.influence.nodes * self.influence.nodes
        )?;
        if self.influence.nodes > 0 && self.influence.nodes <= DISPLAY_MATRIX_MAX {
            writeln!(
                f,
                "  (rows = origin, cols = destination, cell = earliest marker)"
            )?;
            for (r, id) in self.influence.ids.iter().enumerate() {
                let cells = (self.influence.row(r))
                    .map(|e| e.map_or(".".to_string(), |m| m.to_string()))
                    .collect::<Vec<_>>()
                    .join(" ");
                writeln!(f, "  {id:>3}: {cells}")?;
            }
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
    use crate::telemetry::TelemetrySample;

    fn sent(from: usize, to: usize, at: f64, lamport: u64, seq: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            from,
            to,
            bytes: 64,
            at,
            lamport: Some(lamport),
            seq: Some(seq),
        }
    }

    fn delivered(from: usize, to: usize, at: f64, lamport: u64, span_seq: u64) -> TraceEvent {
        TraceEvent::MessageDelivered {
            from,
            to,
            bytes: 64,
            at,
            lamport: Some(lamport),
            span_seq: Some(span_seq),
        }
    }

    fn split(node: usize, inc: u16, grains: u64, peer: usize, l: u64, seq: u64) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: inc,
            op: GrainOp::Split,
            grains,
            peer,
            lamport: Some(l),
            seq: Some(seq),
            span_inc: None,
            span_seq: None,
            wait_us: None,
            transit_us: None,
        }
    }

    fn merge(
        node: usize,
        inc: u16,
        grains: u64,
        peer: usize,
        l: u64,
        span_inc: u64,
        span_seq: u64,
    ) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: inc,
            op: GrainOp::Merge,
            grains,
            peer,
            lamport: Some(l),
            seq: None,
            span_inc: Some(span_inc),
            span_seq: Some(span_seq),
            wait_us: None,
            transit_us: None,
        }
    }

    fn merge_timed(
        node: usize,
        grains: u64,
        peer: usize,
        l: u64,
        span_seq: u64,
        wait_us: u64,
        transit_us: u64,
    ) -> TraceEvent {
        TraceEvent::GrainDelta {
            node,
            incarnation: 0,
            op: GrainOp::Merge,
            grains,
            peer,
            lamport: Some(l),
            seq: None,
            span_inc: Some(0),
            span_seq: Some(span_seq),
            wait_us: Some(wait_us),
            transit_us: Some(transit_us),
        }
    }

    /// A 3-node relay: 0 -> 1 -> 2. The chain is the critical path.
    fn relay() -> Vec<TraceEvent> {
        vec![
            TraceEvent::ClusterStarted {
                nodes: 3,
                initial_grains: 3000,
            },
            sent(0, 1, 0.0, 1, 1),
            delivered(0, 1, 1.0, 2, 1),
            sent(1, 2, 1.0, 3, 1),
            delivered(1, 2, 2.0, 4, 1),
        ]
    }

    #[test]
    fn relay_dag_is_acyclic_with_two_hop_critical_path() {
        let report = CausalReport::from_events(&relay(), &AnalyzeOptions::default());
        assert!(report.acyclic);
        assert_eq!(report.causal_events, 4);
        assert_eq!(report.lamport_violations, 0);
        assert_eq!(report.unmatched_parents, 0);
        assert_eq!(report.cross_edges, 2);
        assert_eq!(report.critical_path.depth, 2);
        assert_eq!(report.critical_path.end_node, Some(2));
        assert_eq!(report.critical_path.hops.len(), 2);
        let h = &report.critical_path.hops[0];
        assert_eq!((h.from, h.to), (0, 1));
        assert_eq!(h.span, (0, 0, 1));
        assert_eq!(h.latency, Some(1.0));
        // Sim hops have no frame stamps: the whole latency is booked as transit.
        assert_eq!(h.wait, Some(0.0));
        assert_eq!(h.transit, Some(1.0));
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn stamped_merge_hops_split_latency_into_wait_plus_transit() {
        // One split on node 0 delivered to node 1 with frame stamps:
        // wait 1500 us, transit 2500 us -> 1.5 ms + 2.5 ms = 4 ms exactly.
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 100, 1, 1, 1),
            merge_timed(1, 100, 0, 2, 1, 1_500, 2_500),
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        let hop = report
            .critical_path
            .hops
            .iter()
            .find(|h| h.wait != Some(0.0) && h.wait.is_some())
            .expect("stamped hop on critical path");
        let (w, t) = (hop.wait.unwrap(), hop.transit.unwrap());
        assert_eq!(w, 1.5);
        assert_eq!(t, 2.5);
        // The acceptance identity: latency is the *same* f64 sum, bit-exact.
        assert_eq!(hop.latency, Some(w + t));
    }

    #[test]
    fn influence_matrix_tracks_transitive_reach_with_markers() {
        let mut events = relay();
        // Round markers so "by round r" is round-indexed.
        events.insert(
            1,
            TraceEvent::RoundCompleted {
                round: 0,
                live: 3,
                sent: 0,
                delivered: 0,
                dropped: 0,
            },
        );
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        let inf = &report.influence;
        assert!(inf.reached(0, 1));
        assert!(inf.reached(0, 2), "influence must be transitive");
        assert!(inf.reached(1, 2));
        assert!(!inf.reached(2, 0), "nothing flowed backwards");
        assert!(!inf.reached(1, 0));
        assert_eq!(inf.earliest(0, 1), Some(0), "marker is the current round");
        // Diagonal is reached at marker 0 by definition.
        assert!(inf.reached(1, 1));
        assert_eq!(inf.pairs_reached(), 3 + 3);
    }

    /// Node 1's state rides a message *sent before* node 1 learned of
    /// node 2 — the snapshot-at-send rule must not leak later knowledge.
    #[test]
    fn influence_snapshots_at_send_time() {
        let events = vec![
            sent(0, 1, 0.0, 1, 1),      // 0 sends before knowing anything
            delivered(2, 0, 0.5, 2, 7), // unmatched: span (2,7) never sent
            delivered(0, 1, 1.0, 2, 1),
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        // The delivery of (0,1) folds 0's snapshot from *before* node 2
        // could have influenced node 0 — and the (2,7) parent is
        // unmatched anyway.
        assert!(report.influence.reached(0, 1));
        assert!(!report.influence.reached(2, 1));
        assert_eq!(report.unmatched_parents, 1);
        assert!(!report.clean());
    }

    #[test]
    fn grain_spans_link_merges_and_reconcile_provenance_exactly() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 300, 1, 1, 1),
            merge(1, 0, 300, 0, 2, 0, 1),
            TraceEvent::PeerCheckpoint {
                node: 0,
                incarnation: 0,
                split: 300,
                merged: 0,
                returned: 0,
            },
            TraceEvent::PeerCheckpoint {
                node: 1,
                incarnation: 0,
                split: 0,
                merged: 300,
                returned: 0,
            },
            TraceEvent::PeerFinal {
                node: 0,
                outcome: "completed".to_string(),
                grains: 700,
            },
            TraceEvent::PeerFinal {
                node: 1,
                outcome: "completed".to_string(),
                grains: 1300,
            },
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report.acyclic);
        assert_eq!(report.cross_edges, 1);
        assert!(report.provenance_exact, "{:?}", report.anomalies);
        let p1 = report.provenance.iter().find(|p| p.node == 1).unwrap();
        assert_eq!(p1.absorbed.get(&0), Some(&300u128));
        assert_eq!(p1.expected, 1300);
        assert_eq!(p1.drift, Some(0));
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    /// A crash voids the unflushed batch: the voided segment's merges
    /// must not count toward provenance, and the books still close.
    #[test]
    fn voided_segments_are_excluded_from_provenance() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 300, 1, 1, 1),
            merge(1, 0, 300, 0, 2, 0, 1),
            // Node 1 crashes before flushing; the supervisor voids its
            // batch and node 0's half eventually comes home.
            TraceEvent::GrainsVoided {
                node: 1,
                incarnation: 0,
                split: 0,
                merged: 300,
                returned: 0,
                injected: 0,
                forgotten: 0,
            },
            TraceEvent::GrainDelta {
                node: 0,
                incarnation: 0,
                op: GrainOp::Return,
                grains: 300,
                peer: 1,
                lamport: Some(5),
                seq: None,
                span_inc: Some(0),
                span_seq: Some(1),
                wait_us: None,
                transit_us: None,
            },
            TraceEvent::PeerFinal {
                node: 0,
                outcome: "completed".to_string(),
                grains: 1000,
            },
            TraceEvent::PeerFinal {
                node: 1,
                outcome: "completed".to_string(),
                grains: 1000,
            },
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report.provenance_exact, "{:?}", report.anomalies);
        let p1 = report.provenance.iter().find(|p| p.node == 1).unwrap();
        assert!(p1.absorbed.is_empty(), "voided merge must not count");
        assert_eq!(p1.drift, Some(0));
        let p0 = report.provenance.iter().find(|p| p.node == 0).unwrap();
        assert_eq!(p0.returned, 300);
        assert_eq!(p0.drift, Some(0));
        // The return edge is weight 0: no hop was involved.
        assert_eq!(report.critical_path.depth, 1);
        assert!(report.clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn provenance_drift_and_unmatched_voids_are_flagged() {
        let events = vec![
            TraceEvent::ClusterStarted {
                nodes: 2,
                initial_grains: 2000,
            },
            split(0, 0, 300, 1, 1, 1),
            merge(1, 0, 300, 0, 2, 0, 1),
            // A void that matches no traced segment.
            TraceEvent::GrainsVoided {
                node: 1,
                incarnation: 0,
                split: 7,
                merged: 9,
                returned: 0,
                injected: 0,
                forgotten: 0,
            },
            TraceEvent::PeerFinal {
                node: 0,
                outcome: "completed".to_string(),
                grains: 690, // 10 grains unaccounted
            },
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(!report.provenance_exact);
        assert_eq!(report.unmatched_voids, 1);
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            CausalAnomaly::ProvenanceDrift {
                node: 0,
                drift: -10
            }
        )));
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, CausalAnomaly::UnmatchedVoids { count: 1 })));
    }

    #[test]
    fn checkpoint_mismatch_is_flagged() {
        let events = vec![
            split(0, 0, 300, 1, 1, 1),
            TraceEvent::PeerCheckpoint {
                node: 0,
                incarnation: 0,
                split: 299, // disagrees with the traced delta
                merged: 0,
                returned: 0,
            },
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            CausalAnomaly::CheckpointMismatch {
                node: 0,
                incarnation: 0
            }
        )));
        assert!(!report.provenance_exact);
    }

    #[test]
    fn lamport_rewind_is_a_violation() {
        let events = vec![
            sent(0, 1, 0.0, 5, 1),
            sent(0, 1, 1.0, 3, 2), // clock went backwards on node 0
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert_eq!(report.lamport_violations, 1);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, CausalAnomaly::LamportViolations { count: 1 })));
    }

    /// Crafted crossing spans force a cycle; the report must flag it
    /// rather than loop or miscount.
    #[test]
    fn cycles_are_detected() {
        let events = vec![
            // Node 0 delivers a span node 1 only mints *later* in file
            // order, and vice versa: e0→e1 (program), e1→e2 (cross),
            // e2→e3 (program), e3→e0 (cross).
            delivered(1, 0, 0.0, 10, 1),
            sent(0, 1, 0.0, 11, 1),
            delivered(0, 1, 1.0, 12, 1),
            sent(1, 0, 1.0, 13, 1),
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(!report.acyclic);
        assert!(report
            .anomalies
            .iter()
            .any(|a| matches!(a, CausalAnomaly::Cyclic)));
        assert_eq!(report.critical_path.depth, 0);
    }

    #[test]
    fn critical_path_is_capped_at_convergence() {
        let mk_sample = |round: u64, d: f64| {
            TraceEvent::Telemetry(TelemetrySample {
                round,
                live: 2,
                classifications_mean: 1.0,
                classifications_max: 1,
                weight_spread: 0.0,
                mean_error: None,
                max_error: None,
                dispersion: Some(d),
                unix_ms: None,
            })
        };
        let events = vec![
            sent(0, 1, 0.0, 1, 1),
            delivered(0, 1, 1.0, 2, 1),
            mk_sample(0, 0.01),
            mk_sample(1, 0.01), // converged here (window 2)
            // Post-convergence traffic must not extend the path.
            sent(1, 0, 2.0, 3, 1),
            delivered(1, 0, 3.0, 4, 1),
        ];
        let opts = AnalyzeOptions {
            window: 2,
            delta_tol: 1e-2,
            level: 0.05,
        };
        let report = CausalReport::from_events(&events, &opts);
        assert_eq!(report.critical_path.converged_round, Some(1));
        assert_eq!(report.critical_path.depth, 1, "capped at convergence");
        assert_eq!(report.critical_path.end_node, Some(1));
    }

    #[test]
    fn clock_skew_and_depth_histogram() {
        let report = CausalReport::from_events(&relay(), &AnalyzeOptions::default());
        // Final clocks: node 0 -> 1, node 1 -> 3, node 2 -> 4.
        assert_eq!(report.clock_skew, 3);
        assert_eq!(report.depth.count, 4);
        assert_eq!(report.depth.max, 2);
    }

    #[test]
    fn legacy_traces_without_stamps_yield_an_empty_clean_dag() {
        let events = vec![
            TraceEvent::MessageSent {
                from: 0,
                to: 1,
                bytes: 9,
                at: 0.0,
                lamport: None,
                seq: None,
            },
            TraceEvent::MessageDelivered {
                from: 0,
                to: 1,
                bytes: 9,
                at: 1.0,
                lamport: None,
                span_seq: None,
            },
        ];
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert_eq!(report.causal_events, 0);
        assert!(report.acyclic);
        assert!(report.clean(), "{:?}", report.anomalies);
        assert_eq!(report.critical_path.end_node, None);
    }

    #[test]
    fn jsonl_round_trip_and_unknown_events() {
        let text = relay()
            .iter()
            .map(|e| e.to_string())
            .chain(["{\"type\":\"tachyon_burst\"}".to_string()])
            .collect::<Vec<_>>()
            .join("\n");
        let report = CausalReport::from_jsonl(&text, &AnalyzeOptions::default()).expect("parses");
        assert_eq!(report.unknown_events, 1);
        assert_eq!(report.critical_path.depth, 2);
        assert!(!report.clean());
        let back = Json::parse(&report.to_json().to_string()).expect("report JSON parses");
        assert!(back.req_bool("acyclic").expect("field"));
        assert_eq!(back.req_u64("causal_events").expect("field"), 4);
    }

    #[test]
    fn dot_export_names_every_vertex_and_hop() {
        let dot = CausalReport::to_dot(&relay(), &AnalyzeOptions::default());
        assert!(dot.starts_with("digraph causal {"), "{dot}");
        assert!(dot.contains("n0@1 send (0,0,1)"), "{dot}");
        assert!(dot.contains("style=dotted"), "program edges dotted: {dot}");
        assert!(dot.trim_end().ends_with('}'), "{dot}");
        // Four vertices, three program edges... exactly 2 solid hops.
        let solid = dot
            .lines()
            .filter(|l| l.contains("->") && !l.contains("dotted"))
            .count();
        assert_eq!(solid, 2, "{dot}");
    }

    #[test]
    fn truncated_trace_is_anomalous() {
        let mut events = relay();
        events.push(TraceEvent::TraceTruncated {
            bytes_written: 4096,
        });
        let report = CausalReport::from_events(&events, &AnalyzeOptions::default());
        assert!(report.anomalies.iter().any(|a| matches!(
            a,
            CausalAnomaly::TraceTruncated {
                bytes_written: 4096
            }
        )));
        assert!(!report.clean());
    }
}
