//! Deterministic fault injection for the runtime cluster.
//!
//! The paper's network model (§3.1) assumes message loss, link failure
//! and node crashes; Figure 4 measures classification quality as nodes
//! die. This module scripts those failure modes against the runtime
//! cluster, reproducibly:
//!
//! * A [`FaultPlan`] is a fully deterministic schedule — partition
//!   windows over node sets, per-peer crash (and optional restart)
//!   events, and probabilistic per-frame loss, delay, duplication and
//!   reordering rules whose coin flips are seeded. The same plan and
//!   seed always yield the same schedule ([`FaultPlan::digest`] is the
//!   proof handle).
//! * A `FaultMedium` applies the plan's per-frame rules for one sender
//!   incarnation: given a frame sent at time `t` (since the cluster
//!   epoch), it decides how many copies arrive and after what delay.
//!   Frames crossing an active partition cut are silently dropped (acks
//!   included — a partition severs the link, not one direction of it).
//!   Crash events are *not* the medium's job; the supervisor executes
//!   them by killing and respawning peers ([`crate::cluster`]).
//!
//! The medium reads no clock: time is its argument. Its coin flips come
//! from an RNG seeded by `(plan seed, node, incarnation)`, so a sender's
//! fault sequence is a function of the frames it sends. Under the
//! virtual-time driver ([`crate::cluster::run_sim_cluster`]) that makes
//! a whole faulted run replay from its seed; on threads, the interleaving
//! across peers still varies run to run, as it does on real hardware.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use distclass_net::{derive_seed, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{decode_frame, FrameKind};
use crate::spec::{parse_duration, parse_nodes, parse_window, Fnv};

/// A time window during which the cluster is split in two: frames between
/// `side` and its complement are dropped, in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start, relative to cluster start.
    pub from: Duration,
    /// Window end (exclusive) — the heal time.
    pub until: Duration,
    /// One side of the cut; every node not listed is on the other side.
    pub side: Vec<NodeId>,
}

impl PartitionWindow {
    /// Whether a frame from `a` to `b` at elapsed time `t` crosses the cut.
    pub fn cuts(&self, a: NodeId, b: NodeId, t: Duration) -> bool {
        t >= self.from && t < self.until && self.side.contains(&a) != self.side.contains(&b)
    }
}

/// A scripted crash: the supervisor kills `node` at `at`, and — when
/// `restart_after` is set — respawns it from its last checkpoint that
/// much later. Without a restart the crash is permanent and the node's
/// grains become a *declared* loss in the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Kill time, relative to cluster start.
    pub at: Duration,
    /// The victim.
    pub node: NodeId,
    /// Downtime before the respawn; `None` means the crash is permanent.
    pub restart_after: Option<Duration>,
}

/// Probabilistic per-frame delay: with probability `prob` a frame is held
/// in the sender's delay queue for a uniform duration in `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayRule {
    /// Per-frame delay probability.
    pub prob: f64,
    /// Shortest injected delay.
    pub min: Duration,
    /// Longest injected delay.
    pub max: Duration,
}

/// A complete, deterministic fault schedule for one cluster run.
///
/// Build one with the fluent constructors or parse the CLI grammar with
/// [`FaultPlan::parse`]. An empty plan (no windows, events or rules) is a
/// no-op: every frame is delivered at once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-frame coin flip the plan's rules require.
    pub seed: u64,
    /// Partition/heal windows.
    pub partitions: Vec<PartitionWindow>,
    /// Crash (and restart) events.
    pub crashes: Vec<CrashEvent>,
    /// Per-frame delay rule, if any.
    pub delay: Option<DelayRule>,
    /// Per-frame duplication probability (the copy is sent immediately
    /// after the original).
    pub duplicate: f64,
    /// Per-frame reordering probability (the frame is held briefly so
    /// later frames overtake it).
    pub reorder: f64,
    /// Per-frame loss probability for data frames. Acks and control
    /// frames are never lost this way, so the retry layer's exactly-once
    /// weight accounting stays an invariant rather than a
    /// high-probability property. Builder-only: the `--faults` grammar
    /// has no loss clause.
    pub loss: f64,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a partition window splitting `side` from everyone else.
    ///
    /// Windows added through the builder compose by **union**: a frame is
    /// dropped while *any* window cuts its link. Overlapping windows are
    /// therefore permitted here (the effect is well defined), but the
    /// spec-string grammar ([`FaultPlan::parse`]) rejects time-overlapping
    /// partition clauses outright — two windows that overlap in time
    /// always disagree about some node pair, and a spec author writing
    /// them almost certainly meant one merged window.
    #[must_use]
    pub fn partition(mut self, from: Duration, until: Duration, side: Vec<NodeId>) -> FaultPlan {
        self.partitions.push(PartitionWindow { from, until, side });
        self
    }

    /// Adds a permanent crash of `node` at `at`.
    #[must_use]
    pub fn crash(mut self, at: Duration, node: NodeId) -> FaultPlan {
        self.crashes.push(CrashEvent {
            at,
            node,
            restart_after: None,
        });
        self
    }

    /// Adds a crash of `node` at `at` with a respawn `downtime` later.
    #[must_use]
    pub fn crash_restart(mut self, at: Duration, node: NodeId, downtime: Duration) -> FaultPlan {
        self.crashes.push(CrashEvent {
            at,
            node,
            restart_after: Some(downtime),
        });
        self
    }

    /// Sets the per-frame delay rule.
    #[must_use]
    pub fn delay(mut self, prob: f64, min: Duration, max: Duration) -> FaultPlan {
        self.delay = Some(DelayRule { prob, min, max });
        self
    }

    /// Sets the per-frame duplication probability.
    #[must_use]
    pub fn duplicate(mut self, prob: f64) -> FaultPlan {
        self.duplicate = prob;
        self
    }

    /// Sets the per-frame reordering probability.
    #[must_use]
    pub fn reorder(mut self, prob: f64) -> FaultPlan {
        self.reorder = prob;
        self
    }

    /// Sets the per-frame data-frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= prob < 1.0`: a link that loses every data
    /// frame can never deliver a half.
    #[must_use]
    pub fn loss(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..1.0).contains(&prob), "loss must be in [0, 1)");
        self.loss = prob;
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.delay.is_none()
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.loss == 0.0
    }

    /// Parses the CLI fault grammar: `;`-separated clauses, each one of
    ///
    /// * `partition@<from>-<until>:<nodes>` — e.g. `partition@200ms-600ms:0-3`
    ///   (nodes as a `-` range or `,` list);
    /// * `crash@<at>:<node>` — permanent; `crash@<at>:<node>+<downtime>`
    ///   — with restart, e.g. `crash@300ms:5+250ms`;
    /// * `delay=<prob>:<min>-<max>` — e.g. `delay=0.1:1ms-5ms`;
    /// * `dup=<prob>`; `reorder=<prob>`.
    ///
    /// Durations take `ms`/`s` suffixes; a bare integer means
    /// milliseconds, and a duration past `u64::MAX` milliseconds is an
    /// error. A node set names at most [`crate::MAX_SPEC_NODES`] ids.
    ///
    /// Partition clauses must not overlap in time: two overlapping windows
    /// always disagree about some node pair, so an overlap is a parse
    /// error naming both clauses; write one merged window instead.
    /// Windows may still touch end-to-start (`until` is exclusive).
    ///
    /// # Errors
    ///
    /// A [`FaultSpecError`] naming the offending clause.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::new(seed);
        let mut partition_clauses: Vec<String> = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |msg: &str| FaultSpecError(format!("clause `{clause}`: {msg}"));
            if let Some(rest) = clause.strip_prefix("partition@") {
                let (window, nodes) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `<from>-<until>:<nodes>`"))?;
                let (from, until) = parse_window(window).map_err(|m| err(&m))?;
                let side = parse_nodes(nodes).map_err(|m| err(&m))?;
                if let Some(prior) = plan
                    .partitions
                    .iter()
                    .position(|w| w.from < until && from < w.until)
                {
                    return Err(err(&format!(
                        "partition window overlaps `{}` in time; overlapping \
                         windows would cut the same link twice with different \
                         sides — merge them into one window",
                        partition_clauses[prior]
                    )));
                }
                plan.partitions.push(PartitionWindow { from, until, side });
                partition_clauses.push(clause.to_string());
            } else if let Some(rest) = clause.strip_prefix("crash@") {
                let (at, victim) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `<at>:<node>[+<downtime>]`"))?;
                let at = parse_duration(at).map_err(|m| err(&m))?;
                let (node, restart_after) = match victim.split_once('+') {
                    Some((node, downtime)) => (
                        node.parse().map_err(|_| err("bad node id"))?,
                        Some(parse_duration(downtime).map_err(|m| err(&m))?),
                    ),
                    None => (victim.parse().map_err(|_| err("bad node id"))?, None),
                };
                plan.crashes.push(CrashEvent {
                    at,
                    node,
                    restart_after,
                });
            } else if let Some(rest) = clause.strip_prefix("delay=") {
                let (prob, window) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `<prob>:<min>-<max>`"))?;
                let prob = parse_prob(prob).map_err(|m| err(&m))?;
                let (min, max) = parse_window(window).map_err(|m| err(&m))?;
                plan.delay = Some(DelayRule { prob, min, max });
            } else if let Some(rest) = clause.strip_prefix("dup=") {
                plan.duplicate = parse_prob(rest).map_err(|m| err(&m))?;
            } else if let Some(rest) = clause.strip_prefix("reorder=") {
                plan.reorder = parse_prob(rest).map_err(|m| err(&m))?;
            } else {
                return Err(err("unknown clause"));
            }
        }
        Ok(plan)
    }

    /// A deterministic fingerprint of the materialized schedule — every
    /// window, event, rule and the seed. Two plans produce byte-identical
    /// fault schedules iff their digests match.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(&self.seed.to_be_bytes());
        for w in &self.partitions {
            h.eat(&w.from.as_nanos().to_be_bytes());
            h.eat(&w.until.as_nanos().to_be_bytes());
            for &n in &w.side {
                h.eat(&(n as u64).to_be_bytes());
            }
            h.eat(b"|");
        }
        for c in &self.crashes {
            h.eat(&c.at.as_nanos().to_be_bytes());
            h.eat(&(c.node as u64).to_be_bytes());
            match c.restart_after {
                Some(d) => h.eat(&d.as_nanos().to_be_bytes()),
                None => h.eat(b"perm"),
            }
            h.eat(b"|");
        }
        if let Some(d) = self.delay {
            h.eat(&d.prob.to_bits().to_be_bytes());
            h.eat(&d.min.as_nanos().to_be_bytes());
            h.eat(&d.max.as_nanos().to_be_bytes());
        }
        h.eat(&self.duplicate.to_bits().to_be_bytes());
        h.eat(&self.reorder.to_bits().to_be_bytes());
        if self.loss > 0.0 {
            h.eat(&self.loss.to_bits().to_be_bytes());
        }
        h.finish()
    }
}

/// A malformed `--faults` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("bad probability `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability `{s}` outside [0, 1]"));
    }
    Ok(p)
}

/// What the medium does with one frame: `copies` byte-identical copies
/// (0 = dropped) arrive `delay` after the send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fate {
    /// Extra time in flight beyond the transport's own latency.
    pub delay: Duration,
    /// How many copies arrive.
    pub copies: usize,
}

/// Applies a [`FaultPlan`]'s per-frame rules to the frames one sender
/// incarnation puts on the wire. Every sender shares the plan and the
/// cluster epoch, so partition windows open and close in unison.
#[derive(Debug)]
pub(crate) struct FaultMedium {
    id: NodeId,
    plan: Arc<FaultPlan>,
    rng: StdRng,
}

impl FaultMedium {
    /// The medium for node `id`'s incarnation `incarnation`.
    pub(crate) fn new(plan: Arc<FaultPlan>, id: NodeId, incarnation: u16) -> FaultMedium {
        let rng = StdRng::seed_from_u64(derive_seed(
            plan.seed,
            0xC805 ^ id as u64 ^ ((incarnation as u64) << 32),
        ));
        FaultMedium { id, plan, rng }
    }

    /// The fate of a frame sent to `to` at `t` since the cluster epoch. In
    /// order: a partition cut drops it (data and acks alike — the
    /// reliability layer sees the silence of a dead cable); the loss rule
    /// may drop a data frame; the delay or reorder rule may hold it back;
    /// otherwise it goes at once, possibly with a duplicate right behind.
    pub(crate) fn send(&mut self, t: Duration, to: NodeId, frame: &[u8]) -> Fate {
        let plan = &self.plan;
        let fate = |delay, copies| Fate { delay, copies };
        if plan.partitions.iter().any(|w| w.cuts(self.id, to, t)) {
            return fate(Duration::ZERO, 0);
        }
        if plan.loss > 0.0
            && decode_frame(frame).is_ok_and(|f| f.kind == FrameKind::Data)
            && self.rng.gen::<f64>() < plan.loss
        {
            return fate(Duration::ZERO, 0);
        }
        if let Some(d) = plan.delay {
            if self.rng.gen::<f64>() < d.prob {
                let span = d.max.saturating_sub(d.min);
                let extra = if span.is_zero() {
                    Duration::ZERO
                } else {
                    span.mul_f64(self.rng.gen::<f64>())
                };
                return fate(d.min + extra, 1);
            }
        }
        if plan.reorder > 0.0 && self.rng.gen::<f64>() < plan.reorder {
            // Hold just long enough for subsequent frames to overtake.
            let jitter = Duration::from_micros(500 + self.rng.gen_range(0..2_500u64));
            return fate(jitter, 1);
        }
        // The duplicate is a faithful byte copy, testing the receiver's
        // suppression rather than the sender's honesty.
        let dup = plan.duplicate > 0.0 && self.rng.gen::<f64>() < plan.duplicate;
        fate(Duration::ZERO, 1 + usize::from(dup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn data() -> Vec<u8> {
        encode_frame(FrameKind::Data, 0, 0, 1, 1, &[])
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_plan_is_pass_through() {
        let plan = Arc::new(FaultPlan::new(1));
        assert!(plan.is_empty());
        let mut a = FaultMedium::new(plan, 0, 0);
        for t in 0..100 {
            let fate = a.send(ms(t), 1, &[7]);
            assert_eq!(
                fate,
                Fate {
                    delay: Duration::ZERO,
                    copies: 1
                }
            );
        }
    }

    #[test]
    fn partition_cuts_both_directions_then_heals() {
        let w = PartitionWindow {
            from: Duration::from_millis(10),
            until: Duration::from_millis(20),
            side: vec![0, 1],
        };
        // Inside the window, only cross-cut pairs drop.
        let t = Duration::from_millis(15);
        assert!(w.cuts(0, 2, t));
        assert!(w.cuts(2, 0, t));
        assert!(!w.cuts(0, 1, t));
        assert!(!w.cuts(2, 3, t));
        // Outside it, nothing drops.
        assert!(!w.cuts(0, 2, Duration::from_millis(5)));
        assert!(!w.cuts(0, 2, Duration::from_millis(20)));
    }

    #[test]
    fn partitioned_medium_drops_silently_until_the_heal() {
        let plan = Arc::new(FaultPlan::new(3).partition(ms(0), ms(3600), vec![0]));
        let mut a = FaultMedium::new(plan, 0, 0);
        assert_eq!(a.send(ms(5), 1, &[1]).copies, 0, "cut links drop");
        assert_eq!(a.send(ms(3600), 1, &[1]).copies, 1, "healed at `until`");
    }

    #[test]
    fn duplication_sends_byte_copies() {
        let plan = Arc::new(FaultPlan::new(5).duplicate(1.0));
        let mut a = FaultMedium::new(plan, 0, 0);
        let fate = a.send(ms(0), 1, &[9, 9]);
        assert_eq!(
            fate,
            Fate {
                delay: Duration::ZERO,
                copies: 2
            }
        );
    }

    #[test]
    fn delayed_frames_arrive_after_their_holdback() {
        let plan = Arc::new(FaultPlan::new(7).delay(1.0, ms(20), ms(25)));
        let mut a = FaultMedium::new(plan, 0, 0);
        for t in 0..50 {
            let fate = a.send(ms(t), 1, &[4]);
            assert_eq!(fate.copies, 1);
            assert!(fate.delay >= ms(20) && fate.delay <= ms(25), "{fate:?}");
        }
    }

    #[test]
    fn loss_drops_data_but_not_acks() {
        let plan = Arc::new(FaultPlan::new(7).loss(0.99));
        let mut a = FaultMedium::new(plan, 0, 0);
        let ack = encode_frame(FrameKind::Ack, 0, 0, 1, 1, &[]);
        let mut data_got = 0;
        for t in 0..100 {
            data_got += a.send(ms(t), 1, &data()).copies;
            assert_eq!(a.send(ms(t), 1, &ack).copies, 1, "acks are never lost");
        }
        assert!(data_got < 50, "loss rule dropped only {data_got}/100");
    }

    #[test]
    fn loss_is_deterministic_in_seed_and_incarnation() {
        // Same seed and incarnation ⇒ the same drop sequence; a different
        // seed or a respawned incarnation ⇒ a different one
        // (overwhelmingly, at 200 coin flips).
        let delivered = |seed: u64, incarnation: u16| {
            let plan = Arc::new(FaultPlan::new(seed).loss(0.5));
            let mut a = FaultMedium::new(plan, 0, incarnation);
            (0..200u64)
                .filter(|&t| a.send(ms(t), 1, &data()).copies == 1)
                .collect::<Vec<_>>()
        };
        let first = delivered(21, 0);
        assert_eq!(first, delivered(21, 0), "same seed must drop identically");
        assert_ne!(first, delivered(22, 0), "different seed should differ");
        assert_ne!(first, delivered(21, 1), "a new incarnation draws afresh");
        assert!(!first.is_empty() && first.len() < 200);
    }

    #[test]
    #[should_panic(expected = "loss must be in [0, 1)")]
    fn total_loss_is_rejected() {
        let _ = FaultPlan::new(0).loss(1.0);
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let spec = "partition@200ms-600ms:0-3; crash@300ms:5+250ms; crash@1s:2; \
                    delay=0.1:1ms-5ms; dup=0.05; reorder=0.2";
        let plan = FaultPlan::parse(spec, 42).unwrap();
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].side, vec![0, 1, 2, 3]);
        assert_eq!(plan.partitions[0].from, Duration::from_millis(200));
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(
            plan.crashes[0].restart_after,
            Some(Duration::from_millis(250))
        );
        assert_eq!(plan.crashes[1].restart_after, None);
        assert_eq!(plan.crashes[1].at, Duration::from_secs(1));
        assert_eq!(plan.delay.unwrap().prob, 0.1);
        assert_eq!(plan.duplicate, 0.05);
        assert_eq!(plan.reorder, 0.2);
        // Comma lists parse too.
        let plan = FaultPlan::parse("partition@0ms-10ms:1,3,5", 0).unwrap();
        assert_eq!(plan.partitions[0].side, vec![1, 3, 5]);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "partition@600ms-200ms:0-3", // inverted window
            "crash@100ms",               // missing victim
            "delay=1.5:1ms-2ms",         // probability out of range
            "dup=nope",
            "mystery=1",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn parse_rejects_overlapping_partition_windows() {
        // Same side, partial time overlap.
        let err = FaultPlan::parse("partition@100ms-300ms:0-1; partition@200ms-400ms:0-1", 0)
            .expect_err("overlap must be rejected");
        // The error names both offending clauses.
        assert!(err.0.contains("partition@200ms-400ms:0-1"), "{err}");
        assert!(err.0.contains("partition@100ms-300ms:0-1"), "{err}");
        // Different sides overlap too — that is the ambiguous case.
        assert!(
            FaultPlan::parse("partition@100ms-300ms:0-1; partition@150ms-250ms:2,3", 0).is_err()
        );
        // One window containing another is also an overlap.
        assert!(FaultPlan::parse("partition@100ms-400ms:0; partition@200ms-300ms:1", 0).is_err());
        // Touching end-to-start is fine: `until` is exclusive.
        let plan =
            FaultPlan::parse("partition@100ms-200ms:0-1; partition@200ms-300ms:2,3", 0).unwrap();
        assert_eq!(plan.partitions.len(), 2);
        // The fluent builder stays permissive (union semantics).
        let built = FaultPlan::new(0)
            .partition(
                Duration::from_millis(100),
                Duration::from_millis(300),
                vec![0],
            )
            .partition(
                Duration::from_millis(200),
                Duration::from_millis(400),
                vec![1],
            );
        assert_eq!(built.partitions.len(), 2);
    }

    #[test]
    fn digest_is_deterministic_and_seed_sensitive() {
        let spec = "partition@200ms-600ms:0-3; crash@300ms:5+250ms; dup=0.05";
        let a = FaultPlan::parse(spec, 42).unwrap();
        let b = FaultPlan::parse(spec, 42).unwrap();
        let c = FaultPlan::parse(spec, 43).unwrap();
        assert_eq!(a.digest(), b.digest(), "same plan+seed must match");
        assert_ne!(a.digest(), c.digest(), "seed must perturb the digest");
        assert_ne!(a.digest(), a.clone().loss(0.1).digest(), "so must loss");
        assert_ne!(
            a.digest(),
            FaultPlan::parse(
                "partition@200ms-601ms:0-3; crash@300ms:5+250ms; dup=0.05",
                42
            )
            .unwrap()
            .digest(),
            "any schedule change must perturb the digest"
        );
    }
}
