//! The peer: one classifier node behind a small reliability layer.
//!
//! [`PeerCore`] holds one incarnation's entire protocol state and moves
//! only when called:
//!
//! 1. [`PeerCore::on_ctrl`] takes a command from the harness (quiesce /
//!    crash / exit / retire, membership and conviction updates);
//! 2. [`PeerCore::on_tick`] does the time-driven work due at `now`: on
//!    its gossip tick, split the classification and send half to a
//!    neighbor as a sequenced data frame, remembering it as pending; then
//!    retransmit pending frames whose ack is overdue, with exponential
//!    backoff — after the retry budget is spent, the half is merged back
//!    into the local classification (*return-to-sender*) so its grains
//!    are never lost;
//! 3. [`PeerCore::on_frame`] handles one received frame: merge fresh data
//!    frames (acking them), re-ack suppressed duplicates, settle pendings
//!    on acks;
//! 4. [`PeerCore::on_report`] periodically reports status to the harness,
//!    and periodically ships a *checkpoint* — classification, sequence
//!    state, duplicate-suppression trackers and in-flight frames — so the
//!    supervisor can respawn this node after a crash.
//!
//! The core is sans-IO: it reads no clock and owns no thread, channel or
//! socket. Time comes in as the `now` argument, and frames and
//! [`PeerEvent`]s leave through the [`PeerIo`] its caller implements.
//! [`run_peer`] is the threaded driver a cluster runs; tests step cores
//! by hand in virtual time.
//!
//! Steps 2–3 turn a fair-loss transport into the reliable links the paper
//! assumes (§3.1), while keeping the grain-conservation invariant exact:
//! every sent half is eventually either acknowledged (the receiver merged
//! it, exactly once thanks to duplicate suppression) or returned to the
//! sender.
//!
//! # Incarnations
//!
//! A respawned peer is a fresh *incarnation*: its sequence numbers start
//! over in a namespace disjoint from its predecessor's (the frame carries
//! the incarnation — see [`crate::frame`]), so receivers never mistake a
//! new half for a retransmission from before the crash, and stale acks
//! never settle new pendings. State restored from the checkpoint —
//! trackers and pending frames — keeps its *original* incarnation
//! labels: a restored pending retransmits the exact bytes the dead
//! incarnation sent, and the ack that settles it echoes that old
//! incarnation.
//!
//! # Grain logs
//!
//! Between checkpoints the peer records every grain movement (splits
//! sent, merges, returns) in a [`GrainLogs`] batch. A checkpoint flushes
//! the batch to the supervisor as *durable*; a crash receipt hands the
//! unflushed batch over as *voided* — the restore rewinds to a state from
//! before any of it happened. The auditor ([`crate::audit`]) settles the
//! books from those two piles.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use distclass_core::{Classification, ClassifierNode, Instance};
use distclass_gossip::wire::WireSummary;
use distclass_net::{derive_seed, NodeId};
use distclass_obs::{Counter, GrainOp, Histogram, Metrics, Phase, ThreadProfiler, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::audit::{FrameId, GrainLogs, MergedRec, RejectedRec, SentRec};
use crate::byz::{AttackState, DefenseState, StrikeReason};
use crate::cluster::{ClusterConfig, NodeOutcome, NodeReport};
use crate::frame::{decode_frame, encode_frame, restamp_sent, stamp_times, Frame, FrameKind};
use crate::metrics::RuntimeMetrics;

mod driver;

pub(crate) use driver::{run_peer, MAX_WAIT, MIN_WAIT};

/// Commands from the harness to a peer.
pub(crate) enum Ctrl {
    /// Stop initiating gossip; keep receiving, acking and retransmitting
    /// until all pending sends settle.
    Quiesce,
    /// Die *now*, as a fault injection: exit mid-stride with a death
    /// receipt (exact state and unflushed logs) for the supervisor.
    Crash,
    /// Terminate cleanly and report the final state.
    Exit,
    /// The supervisor's cluster-wide strike tally convicted a peer:
    /// quarantine it (stop selecting it, reject its frames).
    Convict(NodeId),
    /// Leave gracefully: hand the entire classification to a live
    /// neighbor as a [`FrameKind::Handoff`], then drain and exit. Unlike
    /// [`Ctrl::Crash`], no grains are stranded — the handoff rides the
    /// normal sequenced/acked/retried machinery, so it is either merged
    /// by the neighbor or returned to this peer before it exits.
    Retire,
    /// A churn join: start gossiping with this brand-new peer too.
    Adopt(NodeId),
    /// A churn leave: stop selecting this peer (it is retiring).
    Forget(NodeId),
}

/// A peer's periodic report to the harness.
pub(crate) struct Status<S> {
    pub id: NodeId,
    pub classification: Classification<S>,
    /// Quiescing with no unsettled sends: every half this peer put on the
    /// wire has been acknowledged or returned.
    pub drained: bool,
}

/// A periodic checkpoint: everything the supervisor needs to respawn this
/// peer, plus the grain-log batch accumulated since the last checkpoint
/// (durable once this message is received).
pub(crate) struct CheckpointMsg<S> {
    pub id: NodeId,
    pub classification: Classification<S>,
    pub restore: RestoreState,
    pub logs: GrainLogs,
}

/// What a peer sends the harness on its events channel.
pub(crate) enum PeerEvent<S> {
    Status(Status<S>),
    Checkpoint(Box<CheckpointMsg<S>>),
    /// Evidence of misbehavior found by this peer's defense layer. The
    /// supervisor tallies strikes cluster-wide and convicts at the
    /// configured threshold. (The *reason* travels in the striker's
    /// [`TraceEvent::PeerStrike`]; the tribunal only counts testimony.)
    Strike {
        from: NodeId,
        target: NodeId,
        tick: u64,
    },
}

/// An in-flight frame snapshotted for (or restored from) a checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct PendingFrame {
    pub to: NodeId,
    /// The exact encoded frame — incarnation and seq included — so a
    /// restored pending retransmits byte-identical copies.
    pub frame: Vec<u8>,
    pub grains: u64,
}

/// Mutable protocol state a respawned incarnation starts from.
#[derive(Debug, Clone, Default)]
pub(crate) struct RestoreState {
    /// The incarnation about to run (0 at first spawn). No sequence
    /// number is carried: seqs are scoped per incarnation, so a respawn
    /// starts its own namespace at 1.
    pub incarnation: u16,
    /// The Lamport clock the incarnation resumes from. Unlike sequence
    /// numbers the clock is *lineage-scoped*: it must never rewind across
    /// a restart, so the supervisor seeds it with the maximum of the
    /// checkpointed value and the dead incarnation's final clock.
    pub lamport: u64,
    /// Duplicate-suppression trackers, keyed by `(sender, incarnation)`.
    pub trackers: HashMap<(u16, u16), SeqTracker>,
    /// Frames that were unacknowledged at the checkpoint; the new
    /// incarnation resumes retrying them with a fresh retry budget.
    pub pendings: Vec<PendingFrame>,
    /// Peers convicted before this incarnation spawned — the quarantine
    /// survives crash–restart (the supervisor, which owns the tally,
    /// seeds this from its own conviction set at respawn time).
    pub convicted: Vec<NodeId>,
}

/// What one peer incarnation is spawned with: the run's shared
/// configuration plus the fields that differ from peer to peer.
pub(crate) struct PeerConfig {
    /// The run's one configuration, shared by the supervisor and every
    /// peer: timing, retry policy, seed, quantum, defense,
    /// drift decay, and the observability handles. Its tracer is the
    /// run's trace path, with the live console teed in when one runs.
    pub run: Arc<ClusterConfig>,
    pub id: NodeId,
    /// Gossip partners at spawn time.
    pub neighbors: Vec<NodeId>,
    /// Byzantine attack machinery, when this peer is an adversary
    /// (corrupts outgoing data frames; everything else stays truthful).
    pub attack: Option<AttackState>,
    /// Sensor re-reads this peer plays: `(offset from epoch, raw
    /// reading)`, sorted ascending. Each re-read decays the current
    /// classification by the run's drift decay and injects a fresh
    /// unit-weight reading.
    pub drift: Vec<(Duration, Vec<f64>)>,
    /// Whether this peer is a churn joiner: announce itself to its
    /// neighbors with a [`FrameKind::Join`] at startup so they adopt it.
    pub announce_join: bool,
    /// The cluster's shared epoch: frame time stamps and drift offsets
    /// are measured from it. A respawned incarnation must not replay
    /// re-reads whose time already passed (their effect is either durable
    /// or was voided with the rollback).
    pub epoch: Instant,
}

/// Registry handles a peer updates, minted once per incarnation (series
/// are shared across incarnations: same name and labels resolve to the
/// same cells).
struct PeerInstruments {
    /// Registry handle kept for lazily minting per-sender hop series —
    /// churn can introduce senders that were not neighbors at spawn.
    metrics: Metrics,
    /// This peer's `peer=` label value.
    peer_label: String,
    /// Frame retransmissions.
    retries: Counter,
    /// Duplicate data frames suppressed.
    duplicates: Counter,
    /// Fresh data frames that arrived out of order (left a seq gap).
    reorders: Counter,
    /// Halves returned to sender after an exhausted retry budget.
    returns: Counter,
    /// Wall time of building and shipping one checkpoint, ns.
    checkpoint_ns: Histogram,
    /// Send→ack latency per neighbor link, ns.
    ack_rtt_ns: HashMap<NodeId, Histogram>,
    /// Sender-side waiting time of each merged data frame, per sender, µs.
    hop_wait_us: HashMap<NodeId, Histogram>,
    /// Channel + ingress time of each merged data frame, per sender, µs.
    hop_transit_us: HashMap<NodeId, Histogram>,
}

impl PeerInstruments {
    fn mint(cfg: &PeerConfig) -> Option<PeerInstruments> {
        let metrics = &cfg.run.metrics;
        if !metrics.enabled() {
            return None;
        }
        let peer = cfg.id.to_string();
        let labels = [("peer", peer.as_str())];
        Some(PeerInstruments {
            metrics: metrics.clone(),
            peer_label: peer.clone(),
            retries: metrics.counter(
                "distclass_retries_total",
                "Frame retransmissions after an overdue ack",
                &labels,
            ),
            duplicates: metrics.counter(
                "distclass_duplicates_total",
                "Duplicate data frames suppressed and re-acked",
                &labels,
            ),
            reorders: metrics.counter(
                "distclass_reorders_total",
                "Fresh data frames that arrived out of sequence order",
                &labels,
            ),
            returns: metrics.counter(
                "distclass_returns_total",
                "Halves returned to sender after the retry budget",
                &labels,
            ),
            checkpoint_ns: metrics.histogram(
                "distclass_checkpoint_ns",
                "Wall time of building and shipping one checkpoint, ns",
                &labels,
            ),
            ack_rtt_ns: cfg
                .neighbors
                .iter()
                .map(|&to| {
                    let to_label = to.to_string();
                    let h = metrics.histogram(
                        "distclass_ack_rtt_ns",
                        "Send-to-ack latency per link, ns (includes retries)",
                        &[("peer", peer.as_str()), ("to", to_label.as_str())],
                    );
                    (to, h)
                })
                .collect(),
            hop_wait_us: HashMap::new(),
            hop_transit_us: HashMap::new(),
        })
    }

    fn observe_ack(&self, to: NodeId, rtt: Duration) {
        if let Some(h) = self.ack_rtt_ns.get(&to) {
            h.observe(rtt.as_nanos() as u64);
        }
    }

    /// Records one merged frame's waiting-vs-transit split against the
    /// sender's link series, minting the pair on first sight.
    fn observe_hop(&mut self, from: NodeId, wait_us: u64, transit_us: u64) {
        let from_label = from.to_string();
        let metrics = self.metrics.clone();
        let peer = self.peer_label.clone();
        self.hop_wait_us
            .entry(from)
            .or_insert_with(|| {
                metrics.histogram(
                    "distclass_hop_wait_us",
                    "Sender-side wait (enqueue to delivered transmission) of merged frames, us",
                    &[("peer", peer.as_str()), ("from", from_label.as_str())],
                )
            })
            .observe(wait_us);
        self.hop_transit_us
            .entry(from)
            .or_insert_with(|| {
                metrics.histogram(
                    "distclass_hop_transit_us",
                    "Channel and ingress time (delivered transmission to merge) of merged frames, us",
                    &[("peer", peer.as_str()), ("from", from_label.as_str())],
                )
            })
            .observe(transit_us);
    }
}

/// An unacknowledged data frame, keyed in the pending map by
/// `(incarnation, seq)` — restored pendings keep their dead incarnation's
/// key so old acks still settle them.
struct PendingSend {
    to: NodeId,
    frame: Vec<u8>,
    grains: u64,
    attempts: u32,
    due: Instant,
    /// When this incarnation first put the frame on the wire (restore
    /// time for restored pendings) — the ack-RTT baseline.
    sent_at: Instant,
}

/// How far above the contiguous watermark out-of-order sequence numbers
/// are remembered exactly. The retry layer abandons a frame after
/// `max_retries` backoffs (~1.7 s at defaults), and a sender emits one
/// seq per tick (ms scale), so live frames span far fewer than 4096
/// numbers; the window only force-advances under pathological reordering.
pub(crate) const SEQ_WINDOW: u64 = 4096;

/// Per-sender duplicate suppression with bounded memory: a contiguous
/// watermark plus a sliding window of out-of-order numbers above it.
///
/// When a number arrives more than [`SEQ_WINDOW`] past the watermark, the
/// watermark is forced forward and every skipped number is treated as
/// seen. That direction is the grain-safe one — forgetting a *seen*
/// number would let a late retransmission merge twice (grain creation),
/// while treating an unseen number as seen merely suppresses a frame the
/// retry layer will return to its sender. The forced flag is still
/// surfaced because a suppressed-but-returned half can no longer be
/// distinguished from a delivered one by the auditor's tracker
/// cross-checks, making its books inexact.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqTracker {
    /// Every sequence number in `1..=contiguous` counts as seen.
    contiguous: u64,
    /// Seen numbers above the watermark (reordering gaps).
    above: HashSet<u64>,
    /// Whether the window ever force-advanced past unseen numbers.
    forced: bool,
}

impl SeqTracker {
    /// Whether `seq` has been recorded (or skipped by a forced advance).
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq <= self.contiguous || self.above.contains(&seq)
    }

    /// Records `seq`; `true` iff it had not been seen before.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq > self.contiguous + SEQ_WINDOW {
            // Slide the window: everything at or below the new watermark
            // is treated as seen, whether or not it ever arrived. At
            // least one skipped number is genuinely unseen — had they all
            // been seen, the watermark would have advanced past them.
            let floor = seq - SEQ_WINDOW;
            self.forced = true;
            self.contiguous = self.contiguous.max(floor);
            self.above.retain(|&s| s > floor);
        }
        if seq <= self.contiguous || !self.above.insert(seq) {
            return false;
        }
        while self.above.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        true
    }

    /// Whether the window ever force-advanced (audit exactness).
    pub(crate) fn was_forced(&self) -> bool {
        self.forced
    }
}

/// A peer's complete exit record: the public [`NodeReport`] plus the
/// recovery and audit state the supervisor consumes.
pub(crate) struct PeerExit<S> {
    pub report: NodeReport<S>,
    /// Grain-log batch since the last checkpoint. Durable on a clean
    /// exit; voided on a crash (the restore predates all of it).
    pub logs: GrainLogs,
    /// Unsettled sends at exit, by wire identity.
    pub pendings: Vec<SentRec>,
    /// Final duplicate-suppression trackers — the audit's authority on
    /// which frames this node merged and kept.
    pub trackers: HashMap<(u16, u16), SeqTracker>,
    /// Whether the exit was an injected crash ([`Ctrl::Crash`]).
    pub crashed: bool,
    /// Whether any tracker force-advanced (audit becomes inexact).
    pub forced: bool,
    /// The incarnation's final Lamport clock — the floor for any
    /// successor incarnation's clock (no-rewind across restarts).
    pub lamport: u64,
}

/// Where a [`PeerCore`]'s output goes; implemented by its caller.
///
/// `send` says whether the medium took the frame, so the core merges a
/// refused half back within the same call and never holds output for
/// later.
pub(crate) trait PeerIo<S> {
    /// Hands one frame to the medium; `false` if the medium refused it.
    fn send(&mut self, to: NodeId, frame: &[u8]) -> bool;
    /// Reports one event to the supervisor; `false` once it has hung up.
    fn report(&mut self, event: PeerEvent<S>) -> bool;
}

/// Audit retention: the *true* halves this incarnation put on the wire,
/// by seq, recorded before any adversarial corruption — what an
/// `AuditProbe` naming one of those sends is answered from. Bounded so
/// memory stays O(1); a probe for an evicted seq is answered with an
/// empty attestation, which the auditor treats as a vacuous pass.
const SENT_LOG_CAP: usize = 64;

/// Audit traffic is metered on its own (`RuntimeMetrics::audit_bytes`)
/// so the defense's bandwidth overhead is measurable.
fn is_audit(kind: FrameKind) -> bool {
    matches!(kind, FrameKind::AuditProbe | FrameKind::AuditReply)
}

/// One peer incarnation's protocol state (see the module docs).
pub(crate) struct PeerCore<'p, I: Instance> {
    cfg: PeerConfig,
    node: ClassifierNode<I>,
    /// The driving thread's span handle: the core attributes its work to
    /// profiler phases but reads no clock of its own.
    prof: &'p ThreadProfiler,
    /// When this incarnation started — the origin of `last_merge`.
    start: Instant,
    me: u16,
    incarnation: u16,
    rng: StdRng,
    metrics: RuntimeMetrics,
    instruments: Option<PeerInstruments>,
    logs: GrainLogs,
    /// Gossip partners can change mid-run (churn joins adopt new peers,
    /// leaves forget them), so the neighbor list is owned state.
    neighbors: Vec<NodeId>,
    /// The next drift event to play.
    drift_idx: usize,
    attack: Option<AttackState>,
    defense: Option<DefenseState>,
    /// The true halves this incarnation sent, by seq (see
    /// [`SENT_LOG_CAP`]).
    sent_log: VecDeque<(u64, Vec<u8>)>,
    /// Duplicate-suppression trackers, keyed by `(sender, incarnation)`.
    seen: HashMap<(u16, u16), SeqTracker>,
    /// Unsettled sends, keyed by `(incarnation, seq)`: ordered, so
    /// retransmissions, returns, checkpoints and exit records walk them in
    /// the same order in every process.
    pending: BTreeMap<(u16, u64), PendingSend>,
    seq: u64,
    clock: u64,
    quiescing: bool,
    retiring: bool,
    crashed: bool,
    /// The incarnation must stop: an exit or crash was ordered, the
    /// harness hung up, or a retiree has nothing left to hand off.
    done: bool,
    drained_reported: bool,
    last_merge: Option<Duration>,
    next_tick: Instant,
    next_status: Instant,
    next_ckpt: Instant,
}

impl<'p, I> PeerCore<'p, I>
where
    I: Instance,
    I::Summary: WireSummary,
{
    /// Starts an incarnation at `now` from `restore`; a churn joiner
    /// announces itself through `io` here.
    pub(crate) fn new(
        node: ClassifierNode<I>,
        cfg: PeerConfig,
        restore: RestoreState,
        prof: &'p ThreadProfiler,
        now: Instant,
        io: &mut impl PeerIo<I::Summary>,
    ) -> Self {
        let run = &cfg.run;
        let incarnation = restore.incarnation;
        // Restored pendings keep their original (incarnation, seq) keys and
        // byte-identical frames; only the retry clock restarts.
        let mut pending = BTreeMap::new();
        for p in restore.pendings {
            if let Ok(f) = decode_frame(&p.frame) {
                pending.insert(
                    (f.incarnation, f.seq),
                    PendingSend {
                        to: p.to,
                        grains: p.grains,
                        frame: p.frame,
                        attempts: 0,
                        due: now + run.retry.base,
                        sent_at: now,
                    },
                );
            }
        }
        let mut core = PeerCore {
            start: now,
            me: cfg.id as u16,
            incarnation,
            rng: StdRng::seed_from_u64(derive_seed(
                run.seed,
                0x9EE9 ^ cfg.id as u64 ^ ((incarnation as u64) << 32),
            )),
            metrics: RuntimeMetrics::default(),
            instruments: PeerInstruments::mint(&cfg),
            logs: GrainLogs::default(),
            neighbors: cfg.neighbors.clone(),
            // Drift events whose offset already passed belong to a
            // predecessor incarnation: played there, and either durable or
            // voided with the rollback. Never replay them.
            drift_idx: cfg.drift.partition_point(|(at, _)| cfg.epoch + *at <= now),
            attack: cfg.attack.clone(),
            // The defense's probe-target stream is seeded per lineage (not
            // per incarnation): a restart resumes the same deterministic
            // schedule.
            defense: run.defense.map(|d| {
                DefenseState::new(
                    d,
                    cfg.id,
                    derive_seed(run.seed, 0xA0D1_7000 ^ cfg.id as u64),
                    run.quantum.grains_per_unit(),
                    &restore.convicted,
                )
            }),
            sent_log: VecDeque::new(),
            seen: restore.trackers,
            pending,
            // A fresh incarnation starts its own sequence namespace at 1.
            // The Lamport clock, by contrast, continues the lineage's: it
            // resumes from the restore and only ever moves forward.
            seq: 0,
            clock: restore.lamport,
            quiescing: false,
            retiring: false,
            crashed: false,
            done: false,
            drained_reported: false,
            last_merge: None,
            next_tick: now + run.tick,
            next_status: now + run.status_interval,
            next_ckpt: now + run.checkpoint_interval,
            node,
            prof,
            cfg,
        };
        // A churn joiner introduces itself so established peers adopt it.
        // Join frames are fire-and-forget (the supervisor also broadcasts
        // `Ctrl::Adopt`, so a lost announcement is only a lost shortcut).
        if core.cfg.announce_join {
            for to in core.neighbors.clone() {
                core.send_control(FrameKind::Join, to, incarnation, 0, &[], io);
            }
        }
        core
    }

    /// Whether the incarnation has stopped; the caller then collects
    /// [`PeerCore::finish`].
    pub(crate) fn done(&self) -> bool {
        self.done
    }

    /// When the core next has timed work: a threaded caller receives
    /// frames until then.
    pub(crate) fn next_deadline(&self) -> Instant {
        if self.quiescing {
            self.next_status
        } else {
            self.next_tick.min(self.next_status)
        }
    }

    /// Applies one command from the harness.
    pub(crate) fn on_ctrl(&mut self, cmd: Ctrl) {
        match cmd {
            Ctrl::Quiesce => self.quiescing = true,
            Ctrl::Crash => {
                self.crashed = true;
                self.done = true;
            }
            Ctrl::Exit => self.done = true,
            Ctrl::Convict(target) => {
                if let Some(d) = self.defense.as_mut() {
                    d.convict(target);
                }
            }
            Ctrl::Retire => {
                self.retiring = true;
                self.quiescing = true;
            }
            Ctrl::Adopt(peer) => self.adopt(peer),
            Ctrl::Forget(peer) => self.neighbors.retain(|&p| p != peer),
        }
    }

    /// The time-driven work due at `now`, in order: a retiree's handoff,
    /// sensor drift, the gossip tick with its audit probe, and
    /// retransmission of overdue pendings.
    pub(crate) fn on_tick(&mut self, now: Instant, io: &mut impl PeerIo<I::Summary>) {
        // Retirement handoff: give the entire classification to one live
        // neighbor through the normal sequenced/acked machinery. Until the
        // ack lands the handoff sits in `pending` like any other send —
        // retried, and returned to this peer if abandoned — so the books
        // stay exact whichever way it goes. Grains merged after a handoff
        // (a half already in flight when the others learned of the
        // retirement) are handed off the same way on a later lap.
        if self.retiring && !self.node.classification().is_empty() {
            if let Some(to) = self.heir() {
                let whole = self.node.take_classification();
                self.send_half(FrameKind::Handoff, to, whole, now, io);
            }
        }
        self.play_drift(now);
        if !self.quiescing && now >= self.next_tick && !self.neighbors.is_empty() {
            self.gossip(now, io);
        }
        self.retransmit(now, io);
    }

    /// Handles one frame received at `now`.
    pub(crate) fn on_frame(&mut self, now: Instant, buf: &[u8], io: &mut impl PeerIo<I::Summary>) {
        let Ok(frame) = decode_frame(buf) else {
            self.metrics.decode_errors += 1;
            return;
        };
        // Every frame costs bandwidth and carries causality: the Lamport
        // receive rule advances past the sender's stamp before any event
        // this receipt causes (acks included).
        self.metrics.bytes_received += buf.len() as u64;
        if is_audit(frame.kind) {
            self.metrics.audit_bytes += buf.len() as u64;
        }
        self.clock = self.clock.max(frame.lamport) + 1;
        match frame.kind {
            FrameKind::Ack => self.settle(now, &frame),
            // A churn joiner's announcement: adopt it as a gossip partner.
            // Idempotent, no ack needed.
            FrameKind::Join => self.adopt(frame.sender as NodeId),
            // A handoff is a retiring peer's whole classification; it rides
            // the same dedup/screen/merge/ack path as an ordinary half.
            FrameKind::Data | FrameKind::Handoff => self.merge(now, &frame, io),
            FrameKind::AuditProbe => self.attest(&frame, io),
            FrameKind::AuditReply => self.judge(&frame, io),
        }
    }

    /// A receive the medium failed, counted like an undecodable frame.
    pub(crate) fn on_recv_error(&mut self) {
        self.metrics.decode_errors += 1;
    }

    /// The reporting due at `now`: a checkpoint, then status — periodic,
    /// plus immediately on drain. A retiree stops here once it has
    /// nothing left to hand off.
    pub(crate) fn on_report(&mut self, now: Instant, io: &mut impl PeerIo<I::Summary>) {
        let interval = self.cfg.run.checkpoint_interval;
        if interval > Duration::ZERO && now >= self.next_ckpt {
            self.next_ckpt = now + interval;
            if !self.checkpoint(io) {
                self.done = true;
                return;
            }
        }
        // A retiree is drained only by leaving: until then it may merge a
        // late half and owe another handoff.
        let drained = self.quiescing && self.pending.is_empty() && !self.retiring;
        if now >= self.next_status || (drained && !self.drained_reported) {
            self.next_status = now + self.cfg.run.status_interval;
            self.drained_reported = drained;
            let status = Status {
                id: self.cfg.id,
                classification: self.node.classification().clone(),
                drained,
            };
            if !io.report(PeerEvent::Status(status)) {
                // Harness hung up: nothing left to report to.
                self.done = true;
                return;
            }
        }
        // A retiree leaves once everything it held is handed off and
        // settled — or once no unconvicted neighbor is left to take it.
        // Frames that arrive after it left are dropped by the medium and
        // returned to their senders by the retry layer.
        if self.retiring
            && self.pending.is_empty()
            && (self.node.classification().is_empty() || self.heir().is_none())
        {
            self.done = true;
        }
    }

    /// The incarnation's exit record.
    pub(crate) fn finish(self) -> PeerExit<I::Summary> {
        let me = self.me;
        PeerExit {
            report: NodeReport {
                id: self.cfg.id,
                classification: self.node.classification().clone(),
                metrics: self.metrics,
                last_merge: self.last_merge,
                undelivered: self.pending.len(),
                restarts: self.incarnation as u32,
                outcome: NodeOutcome::Completed,
                error: None,
            },
            logs: self.logs,
            pendings: self
                .pending
                .iter()
                .map(|(&(incarnation, seq), p)| SentRec {
                    id: FrameId {
                        sender: me,
                        incarnation,
                        seq,
                    },
                    to: p.to,
                    grains: p.grains,
                })
                .collect(),
            forced: self.seen.values().any(SeqTracker::was_forced),
            trackers: self.seen,
            crashed: self.crashed,
            lamport: self.clock,
        }
    }

    fn adopt(&mut self, peer: NodeId) {
        if peer != self.cfg.id && !self.neighbors.contains(&peer) {
            self.neighbors.push(peer);
        }
    }

    /// The neighbor a retiree hands its grains to: the first one not
    /// convicted.
    fn heir(&self) -> Option<NodeId> {
        self.neighbors
            .iter()
            .copied()
            .find(|&p| self.defense.as_ref().is_none_or(|d| !d.is_convicted(p)))
    }

    /// Microseconds from the cluster epoch to `now`, the scale of the
    /// frame time stamps.
    fn micros(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.cfg.epoch).as_micros() as u64
    }

    /// Sensor drift: plays due re-reads from the seeded schedule — decays
    /// the old contribution, injects the fresh unit-weight reading, and
    /// accounts both sides so the auditor's `injected`/`forgotten` terms
    /// stay exact. Suppressed while quiescing: the drain must converge,
    /// not chase a moving sensor.
    fn play_drift(&mut self, now: Instant) {
        while !self.quiescing
            && self.drift_idx < self.cfg.drift.len()
            && now >= self.cfg.epoch + self.cfg.drift[self.drift_idx].0
        {
            let reading = &self.cfg.drift[self.drift_idx].1;
            self.drift_idx += 1;
            let Some(val) = self.node.instance().value_from_components(reading) else {
                continue;
            };
            let (num, den) = self.cfg.run.drift.as_ref().map_or((1, 2), |d| d.decay);
            let (injected, forgotten) =
                self.node
                    .refresh_reading(&val, self.cfg.run.quantum, num, den);
            self.metrics.drift_events += 1;
            self.metrics.grains_injected += injected;
            self.metrics.grains_forgotten += forgotten;
            self.logs.injected += injected;
            self.logs.forgotten += forgotten;
            self.clock += 1;
            self.cfg.run.tracer.emit(|| TraceEvent::SensorDrift {
                node: self.cfg.id,
                incarnation: self.incarnation,
                injected,
                forgotten,
                tick: self.metrics.ticks,
            });
        }
    }

    /// The gossip tick: split and push half to one neighbor, then the
    /// audit probe when this tick is the defense's cadence slot.
    fn gossip(&mut self, now: Instant, io: &mut impl PeerIo<I::Summary>) {
        let prof = self.prof;
        let _tick_span = prof.span(Phase::Tick);
        self.next_tick = now + self.cfg.run.tick;
        self.metrics.ticks += 1;
        if let Some(to) = self.pick_target() {
            let half = self.node.split_for_send();
            // An empty half (every collection at quantum weight) is a
            // legal no-op; anything else goes on the wire.
            if !half.is_empty() {
                self.send_half(FrameKind::Data, to, half, now, io);
            }
        }
        // Stochastic audit: on this tick's cadence slot, challenge a
        // seeded pick among remembered senders to attest the send named
        // in the probe payload (the seq of the last data frame accepted
        // from that sender).
        let tick = self.metrics.ticks;
        if let Some((target, probe_seq, audited_seq)) =
            self.defense.as_mut().and_then(|d| d.due_probe(tick))
        {
            let _audit_span = prof.span(Phase::Audit);
            self.cfg.run.tracer.emit(|| TraceEvent::AuditProbe {
                node: self.cfg.id,
                target,
                tick,
            });
            let audited = audited_seq.to_le_bytes();
            self.send_control(
                FrameKind::AuditProbe,
                target,
                self.incarnation,
                probe_seq,
                &audited,
                io,
            );
        }
    }

    /// The tick's gossip partner. Reputation-weighted neighbor selection,
    /// degenerate form: convicted peers have reputation zero and are
    /// skipped (with a bounded number of re-picks so the tick stays
    /// O(degree)). `None` when every neighbor is convicted: the half is
    /// held this tick.
    fn pick_target(&mut self) -> Option<NodeId> {
        let n = self.neighbors.len();
        let mut next_pick = || self.neighbors[self.rng.gen_range(0..n)];
        let mut pick = next_pick();
        let Some(d) = &self.defense else {
            return Some(pick);
        };
        let mut tries = 0;
        while d.is_convicted(pick) && tries < n {
            pick = next_pick();
            tries += 1;
        }
        (!d.is_convicted(pick)).then_some(pick)
    }

    /// Puts one sequenced half on the wire — a gossip
    /// [`FrameKind::Data`] split or a retiree's [`FrameKind::Handoff`] —
    /// and into the retry queue. A half the medium refuses, or that
    /// cannot be encoded, is merged straight back: no grain is dropped
    /// here.
    fn send_half(
        &mut self,
        kind: FrameKind,
        to: NodeId,
        half: Classification<I::Summary>,
        now: Instant,
        io: &mut impl PeerIo<I::Summary>,
    ) {
        let prof = self.prof;
        let grains = half.total_weight().grains();
        // An adversary corrupts only the wire copy of its gossip; its own
        // books below record the true half it gave up.
        let wire_half = match (kind, self.attack.as_mut()) {
            (FrameKind::Data, Some(attack)) => Some(attack.corrupt(&half)),
            _ => None,
        };
        let enc_span = prof.span(Phase::Encode);
        let Ok(payload) = <I::Summary as WireSummary>::encode(wire_half.as_ref().unwrap_or(&half))
        else {
            // Unencodable halves (never produced by a healthy instance)
            // stay local rather than vanish.
            drop(enc_span);
            self.node.receive(half);
            return;
        };
        self.seq += 1;
        self.clock += 1;
        let mut frame = encode_frame(
            kind,
            self.me,
            self.incarnation,
            self.seq,
            self.clock,
            &payload,
        );
        // First transmission: the frame enters the retry queue and hits
        // the wire in the same instant.
        let now_us = self.micros(now);
        stamp_times(&mut frame, now_us, now_us);
        drop(enc_span);
        let _enq_span = prof.span(Phase::Enqueue);
        if !io.send(to, &frame) {
            self.metrics.send_errors += 1;
            self.node.receive(half);
            return;
        }
        self.metrics.msgs_sent += 1;
        self.metrics.bytes_sent += frame.len() as u64;
        self.metrics.grains_split += grains;
        let id = FrameId {
            sender: self.me,
            incarnation: self.incarnation,
            seq: self.seq,
        };
        self.logs.sent.push(SentRec { id, to, grains });
        self.grain_delta(GrainOp::Split, grains, to, Some(self.seq), None, None);
        // Retain the true half for audit attestation. An honest node's
        // books equal its wire copy; an adversary's books record the half
        // it actually gave up, pre-corruption.
        if self.cfg.run.defense.is_some() {
            let true_payload = match wire_half {
                Some(_) => <I::Summary as WireSummary>::encode(&half).ok(),
                None => Some(payload),
            };
            if let Some(p) = true_payload {
                if self.sent_log.len() == SENT_LOG_CAP {
                    self.sent_log.pop_front();
                }
                self.sent_log.push_back((self.seq, p.to_vec()));
            }
        }
        self.pending.insert(
            (self.incarnation, self.seq),
            PendingSend {
                to,
                frame,
                grains,
                attempts: 0,
                due: now + self.cfg.run.retry.base,
                sent_at: now,
            },
        );
    }

    /// Sends one unsequenced control frame — Join, Ack, AuditProbe or
    /// AuditReply — stamped with a fresh Lamport tick. Control frames are
    /// never retried: a lost ack is repaired by the data frame's
    /// retransmission, a lost probe expires, a lost join is covered by the
    /// supervisor's `Ctrl::Adopt`.
    fn send_control(
        &mut self,
        kind: FrameKind,
        to: NodeId,
        incarnation: u16,
        seq: u64,
        payload: &[u8],
        io: &mut impl PeerIo<I::Summary>,
    ) {
        self.clock += 1;
        let frame = encode_frame(kind, self.me, incarnation, seq, self.clock, payload);
        if io.send(to, &frame) {
            self.metrics.bytes_sent += frame.len() as u64;
            if is_audit(kind) {
                self.metrics.audit_bytes += frame.len() as u64;
            }
        } else {
            self.metrics.send_errors += 1;
        }
    }

    /// Acknowledges a data or handoff frame. The ack names this node as
    /// sender but echoes the *data frame's* incarnation and seq — the key
    /// of the pending entry it settles.
    fn ack(&mut self, data: &Frame<'_>, io: &mut impl PeerIo<I::Summary>) {
        self.send_control(
            FrameKind::Ack,
            data.sender as NodeId,
            data.incarnation,
            data.seq,
            &[],
            io,
        );
    }

    /// Traces one grain movement at this node, stamped with its current
    /// Lamport clock. `span` names the split a merge or return settles;
    /// `hop` is a merged frame's (wait, transit) split in µs.
    fn grain_delta(
        &self,
        op: GrainOp,
        grains: u64,
        peer: NodeId,
        seq: Option<u64>,
        span: Option<FrameId>,
        hop: Option<(u64, u64)>,
    ) {
        self.cfg.run.tracer.emit(|| TraceEvent::GrainDelta {
            node: self.cfg.id,
            incarnation: self.incarnation,
            op,
            grains,
            peer,
            lamport: Some(self.clock),
            seq,
            span_inc: span.map(|f| f.incarnation as u64),
            span_seq: span.map(|f| f.seq),
            wait_us: hop.map(|(wait, _)| wait),
            transit_us: hop.map(|(_, transit)| transit),
        });
    }

    /// Reports misbehavior by `target` to the tribunal, and traces why.
    fn strike(&self, target: NodeId, reason: StrikeReason, io: &mut impl PeerIo<I::Summary>) {
        let tick = self.metrics.ticks;
        self.cfg.run.tracer.emit(|| TraceEvent::PeerStrike {
            node: self.cfg.id,
            target,
            reason: reason.as_str().to_string(),
            tick,
        });
        io.report(PeerEvent::Strike {
            from: self.cfg.id,
            target,
            tick,
        });
    }

    /// Retransmits overdue pendings with exponential backoff; returns the
    /// exhausted ones to this node.
    fn retransmit(&mut self, now: Instant, io: &mut impl PeerIo<I::Summary>) {
        // Spanned only when there is work: an empty pending map is a
        // no-op scan and would otherwise flood the retry phase with
        // zero-length samples every loop lap.
        let prof = self.prof;
        let _retry_span = (!self.pending.is_empty()).then(|| prof.span(Phase::Retry));
        let retry = self.cfg.run.retry;
        let now_us = self.micros(now);
        let mut abandoned: Vec<(u16, u64)> = Vec::new();
        for (&key, p) in self.pending.iter_mut() {
            if now < p.due {
                continue;
            }
            if p.attempts >= retry.max_retries {
                abandoned.push(key);
                continue;
            }
            p.attempts += 1;
            p.due = now + retry.backoff(p.attempts);
            // Refresh the sent stamp in place: waiting vs transit is
            // measured against the transmission that actually delivered,
            // and only this attempt can be it if the frame reaches the
            // receiver's merge. The enqueue stamp and the acked identity
            // (sender, incarnation, seq) are untouched.
            restamp_sent(&mut p.frame, now_us);
            if io.send(p.to, &p.frame) {
                self.metrics.retries += 1;
                self.metrics.bytes_sent += p.frame.len() as u64;
                if let Some(ins) = &self.instruments {
                    ins.retries.inc();
                }
            } else {
                self.metrics.send_errors += 1;
            }
        }
        for key in abandoned {
            self.give_back(key, now);
        }
    }

    /// Return-to-sender: merges an abandoned half back into this node so
    /// its grains are never lost. An abandoned handoff also drops its
    /// heir from the neighbor list, so the retiree tries the next
    /// neighbor — and leaves with the grains once none is left.
    fn give_back(&mut self, key: (u16, u64), now: Instant) {
        let p = self.pending.remove(&key).expect("abandoned key is pending");
        let Ok(frame) = decode_frame(&p.frame) else {
            return;
        };
        let Ok(half) = <I::Summary as WireSummary>::decode(frame.payload) else {
            return;
        };
        if frame.kind == FrameKind::Handoff {
            self.neighbors.retain(|&n| n != p.to);
        }
        self.node.receive(half);
        self.metrics.returned += 1;
        self.metrics.grains_returned += p.grains;
        if let Some(ins) = &self.instruments {
            ins.returns.inc();
        }
        // The span names this node's own earlier split (possibly from a
        // prior incarnation, for restored pendings).
        let id = FrameId {
            sender: self.me,
            incarnation: key.0,
            seq: key.1,
        };
        self.logs.returned.push(SentRec {
            id,
            to: p.to,
            grains: p.grains,
        });
        self.clock += 1;
        // A return is a local timeout, not a hop.
        self.grain_delta(GrainOp::Return, p.grains, p.to, None, Some(id), None);
        self.last_merge = Some(now.saturating_duration_since(self.start));
    }

    /// An ack settles the pending send it echoes — only when it comes
    /// from that send's addressee.
    fn settle(&mut self, now: Instant, ack: &Frame<'_>) {
        let key = (ack.incarnation, ack.seq);
        let settled = self
            .pending
            .get(&key)
            .is_some_and(|p| p.to == ack.sender as NodeId);
        if settled {
            let p = self.pending.remove(&key).expect("settled key is pending");
            self.metrics.acks_received += 1;
            if let Some(ins) = &self.instruments {
                ins.observe_ack(p.to, now.saturating_duration_since(p.sent_at));
            }
        }
    }

    /// A data or handoff frame: suppress it if seen, screen it, merge it,
    /// ack it.
    fn merge(&mut self, now: Instant, frame: &Frame<'_>, io: &mut impl PeerIo<I::Summary>) {
        let prof = self.prof;
        let _recv_span = prof.span(Phase::Recv);
        let tracker = self
            .seen
            .entry((frame.sender, frame.incarnation))
            .or_default();
        if tracker.contains(frame.seq) {
            // Duplicate: the merge already happened; just re-ack so the
            // sender stops retransmitting.
            self.metrics.duplicates += 1;
            if let Some(ins) = &self.instruments {
                ins.duplicates.inc();
            }
            self.ack(frame, io);
            return;
        }
        // A fresh frame that leaves a sequence gap arrived out of order
        // (loss or reordering).
        let gapped = frame.seq > tracker.contiguous + 1;
        // The seq is recorded only once the payload decodes — an
        // undecodable frame must stay unseen so a clean retransmission
        // can land.
        let decode_span = prof.span(Phase::Decode);
        let decoded = <I::Summary as WireSummary>::decode(frame.payload);
        drop(decode_span);
        let Ok(half) = decoded else {
            self.metrics.decode_errors += 1;
            return;
        };
        // Ingress screening, one verdict per decoded frame (the screen is
        // pure).
        let verdict = self.defense.as_ref().and_then(|d| {
            let _screen_span = prof.span(Phase::Screen);
            d.screen(frame.sender as NodeId, &half)
        });
        tracker.insert(frame.seq);
        let sender = frame.sender as NodeId;
        let id = FrameId {
            sender: frame.sender,
            incarnation: frame.incarnation,
            seq: frame.seq,
        };
        if let Some(reason) = verdict {
            // Ingress screening: acknowledge and discard. The seq is
            // recorded so retransmissions stay suppressed and the sender
            // settles; the claim is logged so the grain auditor can
            // measure any minted excess; nothing is merged.
            let claimed = half.total_weight().grains();
            self.metrics.frames_rejected += 1;
            self.logs.rejected.push(RejectedRec {
                id,
                grains: claimed,
            });
            self.cfg.run.tracer.emit(|| TraceEvent::FrameRejected {
                node: self.cfg.id,
                sender,
                grains: claimed,
                reason: reason.as_str().to_string(),
                tick: self.metrics.ticks,
            });
            if let Some(strike) = reason.strike() {
                self.strike(sender, strike, io);
            }
            self.ack(frame, io);
            return;
        }
        if gapped {
            if let Some(ins) = &self.instruments {
                ins.reorders.inc();
            }
        }
        // Waiting-vs-transit split of this hop, from the frame's stamps
        // (µs since the cluster epoch shared by every peer). A zero sent
        // stamp means the frame was never stamped (legacy bytes restored
        // from an old checkpoint).
        let hop = (frame.sent_us != 0).then(|| {
            (
                frame.sent_us.saturating_sub(frame.enqueue_us),
                self.micros(now).saturating_sub(frame.sent_us),
            )
        });
        if let Some((wait, transit)) = hop {
            self.metrics.wait_us = self.metrics.wait_us.saturating_add(wait);
            self.metrics.transit_us = self.metrics.transit_us.saturating_add(transit);
            if let Some(ins) = self.instruments.as_mut() {
                ins.observe_hop(sender, wait, transit);
            }
        }
        let grains = half.total_weight().grains();
        // The audit's reference: the wire copy of this sender's last
        // send, and which send it was.
        if let Some(d) = self.defense.as_mut() {
            d.remember(sender, &half, frame.incarnation, frame.seq);
        }
        let merge_span = prof.span(Phase::Merge);
        self.node.receive(half);
        drop(merge_span);
        self.metrics.msgs_received += 1;
        self.metrics.grains_merged += grains;
        self.logs.merged.push(MergedRec { id, grains });
        // The parent span: the sender's split that minted this half.
        self.grain_delta(GrainOp::Merge, grains, sender, None, Some(id), hop);
        self.last_merge = Some(now.saturating_duration_since(self.start));
        self.ack(frame, io);
    }

    /// Answers an audit probe by attesting the half recorded in the books
    /// for the audited send — adversaries too: attacks corrupt only the
    /// outgoing wire copy, the books stay truthful, and the gap between a
    /// corrupted wire half and this truthful send record is exactly what
    /// convicts them (a liar consistent enough to also forge its books
    /// breaks grain conservation instead; see `byz::plan::AdversaryRole`).
    /// An unknown or evicted seq attests empty — a vacuous pass at the
    /// auditor, never a strike.
    fn attest(&mut self, probe: &Frame<'_>, io: &mut impl PeerIo<I::Summary>) {
        let prof = self.prof;
        let _audit_span = prof.span(Phase::Audit);
        let audited = <[u8; 8]>::try_from(probe.payload)
            .ok()
            .map(u64::from_le_bytes);
        let attested: Vec<u8> = audited
            .and_then(|s| {
                self.sent_log
                    .iter()
                    .find(|(q, _)| *q == s)
                    .map(|(_, p)| p.clone())
            })
            .unwrap_or_default();
        self.send_control(
            FrameKind::AuditReply,
            probe.sender as NodeId,
            self.incarnation,
            probe.seq,
            &attested,
            io,
        );
    }

    /// Checks an audit reply against the remembered wire copy, striking
    /// the target on a mismatch.
    fn judge(&mut self, reply: &Frame<'_>, io: &mut impl PeerIo<I::Summary>) {
        let prof = self.prof;
        let _audit_span = prof.span(Phase::Audit);
        let Some(d) = self.defense.as_mut() else {
            return;
        };
        // An empty payload is the target saying "I no longer retain that
        // send" — passed to the verifier as `None` (vacuous pass). An
        // undecodable non-empty payload is ignored; the probe simply
        // expires unanswered.
        let attested = if reply.payload.is_empty() {
            None
        } else {
            match <I::Summary as WireSummary>::decode(reply.payload) {
                Ok(half) => Some(half),
                Err(_) => return,
            }
        };
        let Some(out) = d.verify_reply(
            reply.sender as NodeId,
            reply.incarnation,
            reply.seq,
            attested.as_ref(),
        ) else {
            return;
        };
        self.metrics.vacuous_passes += out.vacuous as u64;
        self.cfg.run.tracer.emit(|| TraceEvent::AuditVerdict {
            node: self.cfg.id,
            target: out.target,
            passed: out.passed,
            vacuous: out.vacuous,
            tick: self.metrics.ticks,
        });
        if !out.passed {
            self.strike(out.target, StrikeReason::Drift, io);
        }
    }

    /// Ships a checkpoint: snapshots recovery state and flushes the
    /// grain-log batch (durable once the supervisor receives it).
    /// `false` if the harness hung up.
    fn checkpoint(&mut self, io: &mut impl PeerIo<I::Summary>) -> bool {
        self.metrics.checkpoints += 1;
        // One measurement feeds both the profiler tree and the legacy
        // checkpoint histogram, so the two always agree; the clock is
        // read only when at least one consumer wants it.
        let prof = self.prof;
        let ckpt_span = prof.span_timed(Phase::Checkpoint, self.instruments.is_some());
        self.cfg.run.tracer.emit(|| {
            let (split, merged, returned) = self.logs.grain_sums();
            TraceEvent::PeerCheckpoint {
                node: self.cfg.id,
                incarnation: self.incarnation,
                split,
                merged,
                returned,
            }
        });
        let msg = CheckpointMsg {
            id: self.cfg.id,
            classification: self.node.classification().clone(),
            restore: RestoreState {
                incarnation: self.incarnation,
                lamport: self.clock,
                trackers: self.seen.clone(),
                pendings: self
                    .pending
                    .values()
                    .map(|p| PendingFrame {
                        to: p.to,
                        frame: p.frame.clone(),
                        grains: p.grains,
                    })
                    .collect(),
                convicted: self
                    .defense
                    .as_ref()
                    .map(DefenseState::convicted)
                    .unwrap_or_default(),
            },
            logs: std::mem::take(&mut self.logs),
        };
        let delivered = io.report(PeerEvent::Checkpoint(Box::new(msg)));
        let ckpt_ns = ckpt_span.stop();
        if let (Some(ins), Some(ns)) = (&self.instruments, ckpt_ns) {
            ins.checkpoint_ns.observe(ns);
        }
        delivered
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_tracker_dedups_in_order() {
        let mut t = SeqTracker::default();
        assert!(t.insert(1));
        assert!(t.insert(2));
        assert!(!t.insert(1));
        assert!(!t.insert(2));
        assert_eq!(t.contiguous, 2);
        assert!(t.above.is_empty());
        assert!(!t.was_forced());
    }

    #[test]
    fn seq_tracker_handles_reordering_with_bounded_memory() {
        let mut t = SeqTracker::default();
        assert!(t.insert(3));
        assert!(t.insert(1));
        assert!(!t.insert(3));
        assert_eq!(t.contiguous, 1);
        assert_eq!(t.above.len(), 1);
        assert!(t.insert(2));
        // Gap closed: watermark advances, set empties.
        assert_eq!(t.contiguous, 3);
        assert!(t.above.is_empty());
        assert!(!t.insert(2));
        assert!(!t.was_forced());
    }

    /// Regression: the out-of-order set must not grow without bound on a
    /// long-lived link with persistent gaps.
    #[test]
    fn seq_tracker_window_bounds_memory_under_persistent_gaps() {
        let mut t = SeqTracker::default();
        // Seq 1 never arrives, so the watermark can't advance naturally;
        // a million further seqs must not hoard a million entries.
        for s in 2..=1_000_000u64 {
            t.insert(s);
        }
        assert!(
            (t.above.len() as u64) <= SEQ_WINDOW,
            "out-of-order set grew to {}",
            t.above.len()
        );
        assert!(t.was_forced(), "forced advance must be surfaced");
        // Skipped numbers count as seen: a late copy of seq 1 (say, a
        // stale retransmission) is suppressed, never merged twice.
        assert!(t.contains(1));
        assert!(!t.insert(1));
        // The recent window still dedups exactly.
        assert!(!t.insert(1_000_000));
        assert!(t.insert(1_000_001));
    }

    #[test]
    fn seq_tracker_never_forgets_seen_numbers() {
        let mut t = SeqTracker::default();
        for s in 1..=10_000u64 {
            assert!(t.insert(s));
        }
        assert!(!t.was_forced(), "contiguous growth needs no forcing");
        for s in 1..=10_000u64 {
            assert!(t.contains(s), "seq {s} forgotten — double-merge hazard");
        }
    }

    /// Sustained join/leave churn cycles incarnations rapidly, and every
    /// `(peer, incarnation)` pair gets a fresh tracker whose sequence
    /// space restarts at 1. A forced advance anywhere marks the whole
    /// audit inexact, so cycling incarnations fast must not force as
    /// long as each incarnation's reordering stays inside the
    /// [`SEQ_WINDOW`] (4096-seq) bound — otherwise every churn storm
    /// would be unauditable by construction.
    #[test]
    fn seq_tracker_stays_exact_under_rapid_incarnation_cycling() {
        let mut trackers: HashMap<(u16, u16), SeqTracker> = HashMap::new();
        for peer in 0..8u16 {
            for incarnation in 0..64u16 {
                let t = trackers.entry((peer, incarnation)).or_default();
                // Worst tolerated reordering: deliver each block of 1000
                // sequence numbers in reverse — displacement stays well
                // inside the 4096 window.
                for block in 0..2u64 {
                    for s in (block * 1000 + 1..=(block + 1) * 1000).rev() {
                        assert!(t.insert(s), "peer {peer}/{incarnation} seq {s} fresh");
                    }
                }
            }
        }
        for ((peer, incarnation), t) in &trackers {
            assert!(
                !t.was_forced(),
                "peer {peer} incarnation {incarnation} force-advanced — the audit would go inexact"
            );
            assert_eq!(t.contiguous, 2000);
        }
        // Late frames from a dead incarnation land in that incarnation's
        // own tracker and dedup there; they can never collide with the
        // successor's identical sequence numbers.
        assert!(!trackers.get_mut(&(3, 0)).unwrap().insert(7));
        assert!(trackers.get_mut(&(3, 1)).unwrap().insert(2001));
    }

    // ---- PeerCore in virtual time: cores stepped by hand over a tape,
    // with `now` built as `t0 + offset`. No threads, channels or clocks.

    use distclass_core::CentroidInstance;
    use distclass_linalg::Vector;
    use distclass_obs::{RingSink, Tracer};

    use crate::cluster::RetryPolicy;

    /// A medium that takes every frame and keeps it, with every event,
    /// for the test to deliver, drop or inspect.
    #[derive(Default)]
    struct Tape {
        frames: Vec<(NodeId, Vec<u8>)>,
        events: Vec<PeerEvent<Vector>>,
    }

    impl PeerIo<Vector> for Tape {
        fn send(&mut self, to: NodeId, frame: &[u8]) -> bool {
            self.frames.push((to, frame.to_vec()));
            true
        }

        fn report(&mut self, event: PeerEvent<Vector>) -> bool {
            self.events.push(event);
            true
        }
    }

    impl Tape {
        /// Takes the frames sent so far, in send order.
        fn take(&mut self) -> Vec<Vec<u8>> {
            self.frames.drain(..).map(|(_, f)| f).collect()
        }
    }

    /// One run's shared configuration, its epoch `t0`, and a disabled
    /// profiler: everything a core borrows or is built from.
    struct World {
        run: Arc<ClusterConfig>,
        t0: Instant,
        prof: ThreadProfiler,
        inst: Arc<CentroidInstance>,
    }

    impl World {
        fn new(retry: RetryPolicy, tracer: Tracer) -> World {
            World {
                run: Arc::new(ClusterConfig {
                    tick: Duration::from_millis(1),
                    retry,
                    tracer,
                    ..ClusterConfig::default()
                }),
                t0: Instant::now(),
                prof: ThreadProfiler::disabled(),
                inst: Arc::new(CentroidInstance::new(2).expect("k >= 1")),
            }
        }

        fn at(&self, ms: u64) -> Instant {
            self.t0 + Duration::from_millis(ms)
        }

        fn gpu(&self) -> u64 {
            self.run.quantum.grains_per_unit()
        }

        fn cfg(&self, id: NodeId, neighbors: &[NodeId]) -> PeerConfig {
            PeerConfig {
                run: Arc::clone(&self.run),
                id,
                neighbors: neighbors.to_vec(),
                attack: None,
                drift: Vec::new(),
                announce_join: false,
                epoch: self.t0,
            }
        }

        /// A fresh incarnation 0 holding one unit, started at `t0`.
        fn peer(
            &self,
            id: NodeId,
            neighbors: &[NodeId],
            tape: &mut Tape,
        ) -> PeerCore<'_, CentroidInstance> {
            let value = Vector::from(vec![10.0 * id as f64, 0.0]);
            let node = ClassifierNode::new(Arc::clone(&self.inst), &value, self.run.quantum);
            let cfg = self.cfg(id, neighbors);
            PeerCore::new(
                node,
                cfg,
                RestoreState::default(),
                &self.prof,
                self.t0,
                tape,
            )
        }
    }

    fn grains(core: &PeerCore<'_, CentroidInstance>) -> u64 {
        core.node.classification().total_weight().grains()
    }

    fn kind(frame: &[u8]) -> FrameKind {
        decode_frame(frame).expect("frame decodes").kind
    }

    #[test]
    fn core_data_merge_ack_settle_conserves_grains_exactly() {
        let w = World::new(RetryPolicy::default(), Tracer::disabled());
        let (mut ta, mut tb) = (Tape::default(), Tape::default());
        let mut a = w.peer(0, &[1], &mut ta);
        let mut b = w.peer(1, &[0], &mut tb);

        a.on_tick(w.at(1), &mut ta);
        let data = ta.take();
        assert_eq!(data.len(), 1, "one tick, one half");
        assert_eq!(kind(&data[0]), FrameKind::Data);
        let half = a.metrics.grains_split;
        assert!(half > 0 && grains(&a) + half == w.gpu());
        assert_eq!(a.pending.len(), 1);

        b.on_frame(w.at(2), &data[0], &mut tb);
        let acks = tb.take();
        assert_eq!(acks.len(), 1);
        assert_eq!(kind(&acks[0]), FrameKind::Ack);
        a.on_frame(w.at(3), &acks[0], &mut ta);
        assert!(a.pending.is_empty(), "the ack settles the send");

        let (a, b) = (a.finish(), b.finish());
        let total = |e: &PeerExit<Vector>| e.report.classification.total_weight().grains();
        assert_eq!(total(&a) + total(&b), 2 * w.gpu(), "grains conserved");
        assert_eq!(total(&b), w.gpu() + half);
        assert!(a.pendings.is_empty());
        assert_eq!(a.report.metrics.acks_received, 1);
        assert_eq!(b.report.metrics.msgs_received, 1);
        assert_eq!(b.report.metrics.grains_merged, half);
        // Virtual time makes the hop split exact: sent and delivered 1 ms
        // apart, with no wait in the sender's queue.
        assert_eq!(b.report.metrics.wait_us, 0);
        assert_eq!(b.report.metrics.transit_us, 1_000);
    }

    #[test]
    fn core_dropped_frame_retries_on_backoff_then_returns_to_sender() {
        let retry = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
            max_retries: 3,
        };
        let sink = Arc::new(RingSink::new(1 << 12));
        let w = World::new(retry, Tracer::new(Arc::clone(&sink) as _));
        let mut ta = Tape::default();
        let mut a = w.peer(0, &[1], &mut ta);
        a.on_tick(w.at(1), &mut ta);
        let first = ta.take().pop().expect("the half went out");
        let first = decode_frame(&first).expect("decodes").clone();
        let half = a.metrics.grains_split;
        // The medium dropped it. Gossip no more: only the retry layer acts.
        a.on_ctrl(Ctrl::Quiesce);

        let mut due = w.at(1) + retry.base;
        for attempt in 1..=retry.max_retries {
            a.on_tick(due - Duration::from_micros(1), &mut ta);
            assert!(ta.frames.is_empty(), "attempt {attempt} fired early");
            a.on_tick(due, &mut ta);
            let copies = ta.take();
            assert_eq!(copies.len(), 1, "attempt {attempt} fired once");
            let copy = decode_frame(&copies[0]).expect("decodes");
            assert_eq!(
                (copy.sender, copy.incarnation, copy.seq, copy.lamport),
                (first.sender, first.incarnation, first.seq, first.lamport),
                "a retransmission keeps its identity"
            );
            assert_eq!(copy.payload, first.payload);
            assert_eq!(copy.enqueue_us, first.enqueue_us);
            assert_eq!(copy.sent_us, due.duration_since(w.t0).as_micros() as u64);
            due += retry.backoff(attempt);
        }
        assert_eq!(a.metrics.retries, u64::from(retry.max_retries));

        // The budget is spent: at the next deadline the half comes home.
        a.on_tick(due - Duration::from_micros(1), &mut ta);
        assert_eq!(a.pending.len(), 1);
        a.on_tick(due, &mut ta);
        assert!(ta.frames.is_empty() && a.pending.is_empty());
        assert_eq!(grains(&a), w.gpu(), "every grain is back");
        assert_eq!((a.metrics.returned, a.metrics.grains_returned), (1, half));
        let id = FrameId {
            sender: 0,
            incarnation: 0,
            seq: first.seq,
        };
        assert_eq!(a.logs.returned.len(), 1);
        assert_eq!(
            (a.logs.returned[0].id, a.logs.returned[0].grains),
            (id, half)
        );
        let returns: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::GrainDelta {
                        op: GrainOp::Return,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(returns.len(), 1);
        let TraceEvent::GrainDelta {
            grains: returned,
            peer,
            span_inc,
            span_seq,
            ..
        } = returns[0]
        else {
            unreachable!("filtered to grain deltas")
        };
        assert_eq!(
            (returned, peer, span_inc, span_seq),
            (half, 1, Some(0), Some(first.seq))
        );
    }

    #[test]
    fn core_duplicate_is_reacked_and_merged_once() {
        let w = World::new(RetryPolicy::default(), Tracer::disabled());
        let (mut ta, mut tb) = (Tape::default(), Tape::default());
        let mut a = w.peer(0, &[1], &mut ta);
        let mut b = w.peer(1, &[0], &mut tb);
        a.on_tick(w.at(1), &mut ta);
        let data = ta.take().pop().expect("the half went out");
        let half = a.metrics.grains_split;

        b.on_frame(w.at(2), &data, &mut tb);
        b.on_frame(w.at(3), &data, &mut tb);
        let acks = tb.take();
        assert_eq!(acks.len(), 2, "the duplicate is re-acked");
        for ack in &acks {
            let ack = decode_frame(ack).expect("decodes");
            assert_eq!((ack.kind, ack.incarnation, ack.seq), (FrameKind::Ack, 0, 1));
        }
        assert_eq!(b.metrics.msgs_received, 1);
        assert_eq!(b.metrics.duplicates, 1);
        assert_eq!(grains(&b), w.gpu() + half, "merged exactly once");
    }

    #[test]
    fn core_restore_retransmits_the_pending_frame_and_never_rewinds_the_clock() {
        let w = World::new(RetryPolicy::default(), Tracer::disabled());
        let (mut ta, mut tb) = (Tape::default(), Tape::default());
        let mut a = w.peer(0, &[1], &mut ta);
        let mut b = w.peer(1, &[0], &mut tb);
        a.on_tick(w.at(1), &mut ta);
        let lost = ta.take().pop().expect("the half went out");
        let lost = decode_frame(&lost).expect("decodes").clone();

        // The checkpoint falls due at 25 ms and carries the pending send.
        a.on_report(w.at(25), &mut ta);
        let ckpt = ta
            .events
            .drain(..)
            .find_map(|e| match e {
                PeerEvent::Checkpoint(msg) => Some(msg),
                _ => None,
            })
            .expect("a checkpoint was shipped");
        assert_eq!(ckpt.restore.pendings.len(), 1);
        // More work after the checkpoint advances the clock, then a crash.
        a.on_tick(w.at(26), &mut ta);
        ta.take();
        a.on_ctrl(Ctrl::Crash);
        assert!(a.done());
        let death = a.finish();
        assert!(death.crashed);
        assert!(death.lamport > ckpt.restore.lamport);

        // Respawn the way the supervisor does: incarnation 1, the clock
        // floored at the dead incarnation's final value.
        let mut restore = ckpt.restore.clone();
        restore.incarnation = 1;
        restore.lamport = restore.lamport.max(death.lamport) + 1;
        let node = ClassifierNode::from_classification(Arc::clone(&w.inst), ckpt.classification);
        let start = w.at(30);
        let mut a1 = PeerCore::new(node, w.cfg(0, &[1]), restore, &w.prof, start, &mut ta);
        assert!(a1.clock > death.lamport);

        a1.on_tick(start + w.run.retry.base, &mut ta);
        let frames: Vec<_> = ta.take();
        let decoded: Vec<_> = frames
            .iter()
            .map(|f| decode_frame(f).expect("decodes"))
            .collect();
        let resent = decoded
            .iter()
            .find(|f| f.incarnation == 0)
            .expect("the restored pending is retransmitted");
        assert_eq!(
            (resent.kind, resent.sender, resent.seq, resent.lamport),
            (FrameKind::Data, lost.sender, lost.seq, lost.lamport)
        );
        assert_eq!(resent.payload, lost.payload);
        let fresh = decoded
            .iter()
            .find(|f| f.incarnation == 1)
            .expect("the new incarnation gossips too");
        assert_eq!(fresh.seq, 1, "a new incarnation starts its own seqs");
        assert!(fresh.lamport > death.lamport, "the clock never rewinds");

        // The old identity still settles: the ack echoes incarnation 0.
        let resent_bytes = frames
            .iter()
            .find(|f| decode_frame(f).expect("decodes").incarnation == 0)
            .expect("present");
        b.on_frame(w.at(41), resent_bytes, &mut tb);
        let ack = tb.take().pop().expect("acked");
        a1.on_frame(w.at(42), &ack, &mut ta);
        assert!(!a1.pending.contains_key(&(0, lost.seq)), "settled");
        assert!(a1.finish().lamport > death.lamport);
    }

    #[test]
    fn core_retiree_hands_off_a_late_merge_and_exits_empty() {
        let w = World::new(RetryPolicy::default(), Tracer::disabled());
        let (mut ta, mut tb) = (Tape::default(), Tape::default());
        let mut a = w.peer(0, &[1], &mut ta);
        let mut b = w.peer(1, &[0], &mut tb);
        // b's half to a is in flight when a retires.
        b.on_tick(w.at(1), &mut tb);
        let late = tb.take().pop().expect("b gossiped");

        a.on_ctrl(Ctrl::Retire);
        a.on_tick(w.at(1), &mut ta);
        let first = ta.take().pop().expect("handoff sent");
        assert_eq!(kind(&first), FrameKind::Handoff);
        assert_eq!(grains(&a), 0, "the whole classification left");

        // The late half lands after the handoff.
        a.on_frame(w.at(2), &late, &mut ta);
        let ack_b = ta.take().pop().expect("acked");
        b.on_frame(w.at(2), &ack_b, &mut tb);
        assert!(grains(&a) > 0, "merged after the handoff");
        a.on_report(w.at(2), &mut ta);
        assert!(!a.done(), "still holds grains");

        b.on_frame(w.at(3), &first, &mut tb);
        let ack = tb.take().pop().expect("handoff acked");
        a.on_frame(w.at(3), &ack, &mut ta);
        a.on_report(w.at(3), &mut ta);
        assert!(!a.done(), "the late half is still here");

        // Next lap: the late grains are handed off too.
        a.on_tick(w.at(4), &mut ta);
        let second = ta.take().pop().expect("second handoff");
        assert_eq!(kind(&second), FrameKind::Handoff);
        b.on_frame(w.at(5), &second, &mut tb);
        let ack = tb.take().pop().expect("second handoff acked");
        a.on_frame(w.at(5), &ack, &mut ta);
        a.on_report(w.at(5), &mut ta);
        assert!(
            a.done(),
            "nothing held, nothing pending: the retiree leaves"
        );
        let exit = a.finish();
        assert_eq!(exit.report.classification.total_weight().grains(), 0);
        assert!(exit.pendings.is_empty());
        assert_eq!(grains(&b), 2 * w.gpu(), "every grain ended at b");
        let drained_early = ta.events.iter().any(|e| match e {
            PeerEvent::Status(s) => s.drained,
            _ => false,
        });
        assert!(!drained_early, "a retiree drains only by leaving");

        // A retiree with no neighbor to take its grains leaves with them.
        let mut tc = Tape::default();
        let mut c = w.peer(2, &[], &mut tc);
        c.on_ctrl(Ctrl::Retire);
        c.on_tick(w.at(1), &mut tc);
        c.on_report(w.at(1), &mut tc);
        assert!(c.done());
        assert_eq!(grains(&c), w.gpu());
    }

    /// Retransmissions and returns walk the pending sends in ascending
    /// `(incarnation, seq)` order — restored pendings of a dead
    /// incarnation first — so a run replays the same way in every
    /// process. (A std `HashMap` iterates in a per-map random order.)
    #[test]
    fn core_retries_and_returns_pendings_in_ascending_key_order() {
        let retry = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(10),
            max_retries: 1,
        };
        let w = World::new(retry, Tracer::disabled());
        let mut ta = Tape::default();
        // Incarnation 0 sends four halves, checkpoints them as pending,
        // and dies; incarnation 1 restores them and sends eight more.
        let mut a0 = w.peer(0, &[1], &mut ta);
        for t in 1..=4 {
            a0.on_tick(w.at(t), &mut ta);
        }
        a0.on_report(w.at(25), &mut ta);
        let ckpt = ta
            .events
            .drain(..)
            .find_map(|e| match e {
                PeerEvent::Checkpoint(msg) => Some(msg),
                _ => None,
            })
            .expect("a checkpoint was shipped");
        let mut restore = ckpt.restore.clone();
        restore.incarnation = 1;
        let node = ClassifierNode::from_classification(Arc::clone(&w.inst), ckpt.classification);
        let mut a = PeerCore::new(node, w.cfg(0, &[1]), restore, &w.prof, w.at(30), &mut ta);
        for t in 31..=38 {
            a.on_tick(w.at(t), &mut ta);
        }
        a.on_ctrl(Ctrl::Quiesce);
        ta.take();
        let want: Vec<(u16, u64)> = (1..=4)
            .map(|s| (0, s))
            .chain((1..=8).map(|s| (1, s)))
            .collect();
        assert_eq!(a.pending.keys().copied().collect::<Vec<_>>(), want);

        // Every send is past its deadline: one lap retransmits them all.
        a.on_tick(w.at(60), &mut ta);
        let resent: Vec<(u16, u64)> = ta
            .take()
            .iter()
            .map(|f| decode_frame(f).expect("decodes"))
            .map(|f| (f.incarnation, f.seq))
            .collect();
        assert_eq!(resent, want, "retransmitted in ascending key order");

        // The budget is spent: the next lap returns them all, in order.
        a.on_tick(w.at(70), &mut ta);
        assert!(a.pending.is_empty());
        let returned: Vec<(u16, u64)> = a
            .logs
            .returned
            .iter()
            .map(|r| (r.id.incarnation, r.id.seq))
            .collect();
        assert_eq!(returned, want, "returned in ascending key order");
    }
}
