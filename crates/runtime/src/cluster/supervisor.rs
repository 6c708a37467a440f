//! The supervisor core: one run's control state, moved only by its
//! caller. Like [`crate::peer::PeerCore`] it is sans-IO: time arrives as
//! the `now` argument, and peers are started and commanded through the
//! [`SupervisorIo`] its driver implements. It decides when scripted
//! crashes, joins and leaves fire, when a downed node respawns and from
//! which checkpoint, whom the tribunal convicts, when dispersion has held
//! under `tol` for the stable window and when the drain is over — and it
//! keeps the grain ledger the auditor settles.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distclass_core::{convergence, Classification, ClassifierNode, Instance};
use distclass_net::{NodeId, Topology};
use distclass_obs::{Phase, ThreadProfiler, TraceEvent, Tracer};

use crate::audit::{run_audit, GrainLogs, Ledger, NodeLedger};
use crate::byz::AttackState;
use crate::chaos::{CrashEvent, FaultPlan};
use crate::metrics::RuntimeMetrics;
use crate::peer::{Ctrl, PeerConfig, PeerEvent, PeerExit, RestoreState};

use super::{check_plan_nodes, ClusterConfig, ClusterReport, NodeOutcome, NodeReport};

/// Where a [`SupervisorCore`]'s decisions go; implemented by its driver.
pub(crate) trait SupervisorIo<I: Instance> {
    /// Starts one peer incarnation. An error (no endpoint could be
    /// minted for it) leaves the node down for good.
    fn spawn(
        &mut self,
        node: ClassifierNode<I>,
        cfg: PeerConfig,
        restore: RestoreState,
    ) -> io::Result<()>;
    /// Delivers one command to node `id`'s running incarnation.
    fn ctrl(&mut self, id: NodeId, cmd: Ctrl);
    /// Wall-clock telemetry stamp, ms since the Unix epoch; `None` when
    /// the driver runs in virtual time.
    fn unix_ms(&self) -> Option<u64>;
}

/// One scripted event; the script fires them in time order.
#[derive(Clone, Copy)]
enum Scripted {
    /// A churn join: this node spawns (with its plan reading).
    Join(NodeId),
    /// A churn leave: this node retires.
    Leave(NodeId),
    Crash(CrashEvent),
}

/// A node's last received checkpoint: what a respawn restores.
struct Ckpt<S> {
    classification: Classification<S>,
    restore: RestoreState,
}

/// Supervisor-side state for one node across all its incarnations.
struct Slot<S> {
    /// An incarnation was started and its end not yet reported.
    running: bool,
    incarnation: u16,
    restarts: u32,
    /// When to respawn the node: set when a crash with a restart is
    /// ordered, or on a panic; cleared by the respawn. `None` at a crash
    /// exit means the crash is permanent.
    respawn_at: Option<Instant>,
    /// Permanently down: scripted permanent crash, or respawn failure.
    dead: bool,
    last_ckpt: Option<Ckpt<S>>,
    /// The highest Lamport clock any dead incarnation reported — the
    /// floor for a successor's restored clock, so a restart never rewinds
    /// the lineage's logical time (the checkpoint alone may be stale by
    /// everything the incarnation did after it).
    last_lamport: u64,
    /// The most recent crash receipt, held until the respawn actually
    /// happens (only then are its logs truly voided) or until shutdown
    /// (a permanent crash's receipt is the loss accounting).
    last_death: Option<PeerExit<S>>,
    final_exit: Option<PeerExit<S>>,
    durable: GrainLogs,
    voided: GrainLogs,
    prior_metrics: RuntimeMetrics,
    error: Option<String>,
    inexact: Option<String>,
    /// Ever spawned. Seed nodes start `true`; a churn joiner's
    /// placeholder slot flips when its join time arrives.
    spawned: bool,
    /// Told to retire (churn leave): its clean exit is reported as
    /// [`NodeOutcome::Retired`], and the convergence count excludes it.
    retiring: bool,
    /// The node's latest status report.
    latest: Option<Classification<S>>,
    /// Every send settled: reported drained, or down for good. An
    /// unspawned joiner is vacuously drained; its spawn clears this.
    drained: bool,
}

impl<S> Slot<S> {
    /// A seed node's slot (`spawned`), or a joiner's placeholder.
    fn new(spawned: bool) -> Slot<S> {
        Slot {
            running: false,
            spawned,
            drained: !spawned,
            incarnation: 0,
            restarts: 0,
            respawn_at: None,
            dead: false,
            last_ckpt: None,
            last_lamport: 0,
            last_death: None,
            final_exit: None,
            durable: GrainLogs::default(),
            voided: GrainLogs::default(),
            prior_metrics: RuntimeMetrics::default(),
            error: None,
            inexact: None,
            retiring: false,
            latest: None,
        }
    }

    /// Voids an incarnation's grain-log batch — a restore rolled back
    /// everything in it — and traces the rollback.
    fn void(&mut self, node: NodeId, incarnation: u16, logs: GrainLogs, tracer: &Tracer) {
        tracer.emit(|| {
            let (split, merged, returned) = logs.grain_sums();
            TraceEvent::GrainsVoided {
                node,
                incarnation,
                split,
                merged,
                returned,
                injected: logs.injected,
                forgotten: logs.forgotten,
            }
        });
        self.voided.absorb(logs);
    }
}

/// The supervisor's Byzantine court: a cluster-wide strike tally.
/// Strikes are evidence reported by individual peers
/// ([`PeerEvent::Strike`]); conviction is a cluster-level decision so
/// that one confused auditor cannot quarantine an honest node — it takes
/// `threshold` independent strikes. Testimony from convicted peers, and
/// strikes against the already convicted, are discarded, so a convicted
/// node's tally stays at the threshold.
struct Tribunal {
    /// Strikes to convict; `0` means the defense is off (never convict).
    threshold: u32,
    strikes: Vec<u32>,
}

impl Tribunal {
    fn is_convicted(&self, id: NodeId) -> bool {
        self.strikes
            .get(id)
            .is_none_or(|&s| self.threshold > 0 && s >= self.threshold)
    }

    /// Records one strike; returns the total if this one convicts.
    fn strike(&mut self, from: NodeId, target: NodeId) -> Option<u32> {
        if self.threshold == 0 || self.is_convicted(from) || self.is_convicted(target) {
            return None;
        }
        self.strikes[target] += 1;
        Some(self.strikes[target]).filter(|_| self.is_convicted(target))
    }

    /// The convicted node ids, sorted.
    fn convicted_ids(&self) -> Vec<NodeId> {
        (0..self.strikes.len())
            .filter(|&id| self.is_convicted(id))
            .collect()
    }
}

/// One cluster run's supervisor state (see the module docs).
pub(crate) struct SupervisorCore<'a, I: Instance> {
    topology: &'a Topology,
    instance: Arc<I>,
    values: &'a [I::Value],
    /// Joiner initial values, materialized once (the respawn path needs
    /// them too). `None` when the instance has no component value form —
    /// that join is skipped with an error on its slot.
    joiner_values: Vec<Option<I::Value>>,
    /// The run's one configuration, shared with every peer.
    config: Arc<ClusterConfig>,
    /// Cluster start: every scripted offset is measured from it.
    epoch: Instant,
    slots: Vec<Slot<I::Summary>>,
    tribunal: Tribunal,
    /// Joins, leaves and crashes by time (ties in that order).
    script: Vec<(Duration, Scripted)>,
    /// The next script entry to fire.
    next: usize,
    crash_events: usize,
    /// Convergence may only be declared once the scripted schedule has
    /// fully played out — otherwise the harness would quiesce into the
    /// teeth of a pending partition, crash, drift event or churn.
    horizon: Duration,
    first_stable: Option<Instant>,
    converged_after: Option<Duration>,
    /// Supervisor-side telemetry is throttled to the status interval so a
    /// busy cluster does not flood the sink with one sample per step.
    last_telemetry: Option<Instant>,
    /// When the drain phase began.
    quiesced_at: Option<Instant>,
    /// Every running peer was told to exit; the driver collects them.
    stopping: bool,
}

impl<'a, I: Instance> SupervisorCore<'a, I> {
    /// Starts a run at `now`: traces the cluster's start and spawns the
    /// seed peers through `io`.
    ///
    /// # Panics
    ///
    /// Panics if `values` disagrees with the topology size, with the
    /// [`super::PlanNodeError`] message if a plan names a node outside the
    /// cluster, or if a seed peer cannot be spawned.
    pub(crate) fn new(
        topology: &'a Topology,
        instance: Arc<I>,
        values: &'a [I::Value],
        plan: &FaultPlan,
        config: Arc<ClusterConfig>,
        now: Instant,
        io: &mut impl SupervisorIo<I>,
    ) -> Self {
        let n = topology.len();
        assert_eq!(values.len(), n, "one input value per node");
        let (adversaries, drift) = (config.adversaries.as_deref(), config.drift.as_deref());
        let churn = config.churn.as_deref();
        if let Err(e) = check_plan_nodes(n, Some(plan), adversaries, drift, churn) {
            panic!("{e}");
        }
        let (joins, leaves) = churn.map_or((&[][..], &[][..]), |c| (&c.joins[..], &c.leaves[..]));
        // The joiners' slots exist from the start (placeholder, never
        // spawned) so every structure is indexed uniformly.
        let n_total = n + joins.len();
        let mut joiner_values: Vec<Option<I::Value>> = vec![None; joins.len()];
        for j in joins {
            joiner_values[j.node - n] = instance.value_from_components(&j.reading);
        }
        let mut script: Vec<(Duration, Scripted)> = joins
            .iter()
            .map(|j| (j.at, Scripted::Join(j.node)))
            .chain(leaves.iter().map(|l| (l.at, Scripted::Leave(l.node))))
            .chain(plan.crashes.iter().map(|&c| (c.at, Scripted::Crash(c))))
            .collect();
        script.sort_by_key(|&(at, _)| at);
        let horizon = plan
            .partitions
            .iter()
            .map(|w| w.until)
            .chain(
                plan.crashes
                    .iter()
                    .map(|c| c.at + c.restart_after.unwrap_or_default()),
            )
            .chain(config.drift.as_ref().map(|d| d.horizon()))
            .chain(config.churn.as_ref().map(|c| c.horizon()))
            .max()
            .unwrap_or_default();
        let threshold = config.defense.map_or(0, |d| d.conviction_threshold);
        let mut core = SupervisorCore {
            topology,
            instance,
            values,
            joiner_values,
            tribunal: Tribunal {
                threshold,
                strikes: vec![0; n_total],
            },
            slots: (0..n_total).map(|id| Slot::new(id < n)).collect(),
            epoch: now,
            script,
            next: 0,
            crash_events: 0,
            horizon,
            first_stable: None,
            converged_after: None,
            last_telemetry: None,
            quiesced_at: None,
            stopping: false,
            config,
        };
        let (config, tracer) = (&core.config, &core.config.tracer);
        tracer.emit(|| TraceEvent::ClusterStarted {
            nodes: n,
            initial_grains: n as u64 * config.quantum.grains_per_unit(),
        });
        for (id, value) in values.iter().enumerate() {
            if let Some(role) = config.adversaries.as_ref().and_then(|p| p.role_of(id)) {
                tracer.emit(|| TraceEvent::AdversaryActivated {
                    node: id,
                    role: role.as_str().to_string(),
                });
            }
            let node = core.seed_node(value);
            core.spawn(id, node, RestoreState::default(), false, io)
                .expect("spawn a seed peer");
            core.slots[id].running = true;
        }
        core
    }

    /// Whether the drain phase has begun.
    pub(crate) fn quiescing(&self) -> bool {
        self.quiesced_at.is_some()
    }

    /// When [`SupervisorCore::on_tick`] next has scheduled work: a
    /// scripted event, a respawn, or the end of the current phase.
    pub(crate) fn next_deadline(&self) -> Instant {
        let phase_end = match self.quiesced_at {
            Some(t) => t + self.config.drain_wall,
            None => self.epoch + self.config.max_wall,
        };
        let respawns = self.slots.iter().filter(|s| !s.running);
        self.script[self.next..]
            .first()
            .map(|&(at, _)| self.epoch + at)
            .into_iter()
            .chain(respawns.filter_map(|s| s.respawn_at))
            .fold(phase_end, Instant::min)
    }

    /// Absorbs one peer event. Checkpoints from the node's current
    /// incarnation become the restore point and flush their log batch as
    /// durable; anything from an older incarnation was rolled back by a
    /// restore that already happened, so its batch is voided.
    pub(crate) fn on_event(&mut self, ev: PeerEvent<I::Summary>, io: &mut impl SupervisorIo<I>) {
        let tracer = &self.config.tracer;
        match ev {
            PeerEvent::Status(status) => {
                let slot = &mut self.slots[status.id];
                slot.latest = Some(status.classification);
                slot.drained |= status.drained;
            }
            PeerEvent::Strike { from, target, tick } => {
                // Conviction is broadcast to every live peer; restarts
                // re-learn it from their RestoreState.
                if let Some(strikes) = self.tribunal.strike(from, target) {
                    tracer.emit(|| TraceEvent::PeerConvicted {
                        target,
                        strikes: strikes as u64,
                        tick,
                    });
                    self.broadcast(io, || Ctrl::Convict(target));
                }
            }
            PeerEvent::Checkpoint(msg) => {
                let slot = &mut self.slots[msg.id];
                if msg.restore.incarnation == slot.incarnation {
                    slot.durable.absorb(msg.logs);
                    slot.last_ckpt = Some(Ckpt {
                        classification: msg.classification,
                        restore: msg.restore,
                    });
                } else {
                    slot.void(msg.id, msg.restore.incarnation, msg.logs, tracer);
                }
            }
        }
    }

    /// Node `id`'s running incarnation ended at `now`: its exit record, or
    /// the panic message if it died without one. The driver delivers
    /// every event the incarnation sent first: a crash receipt's log
    /// batch is relative to the newest checkpoint, which must be
    /// installed before the receipt is interpreted.
    pub(crate) fn on_exit(
        &mut self,
        now: Instant,
        id: NodeId,
        exit: Result<PeerExit<I::Summary>, String>,
    ) {
        let slot = &mut self.slots[id];
        slot.running = false;
        let exit = match exit {
            Ok(exit) if !self.stopping => exit,
            // The snapshot: whatever the incarnation held is final.
            Ok(exit) => {
                slot.final_exit = Some(exit);
                return;
            }
            Err(msg) => {
                // No death receipt: the books are inexact. Try to recover
                // the node at once from its last checkpoint; the respawn
                // fails gracefully on nets that cannot mint replacement
                // endpoints.
                slot.inexact
                    .get_or_insert(format!("thread panicked without a death receipt: {msg}"));
                slot.error = Some(msg);
                slot.respawn_at = (!self.stopping).then_some(now);
                return;
            }
        };
        slot.last_lamport = slot.last_lamport.max(exit.lamport);
        if exit.forced {
            slot.inexact
                .get_or_insert_with(|| "duplicate-suppression window force-advanced".into());
        }
        if !exit.crashed {
            // Clean exit (a retiree with nothing left to hand off, or the
            // harness hung up): final state.
            slot.final_exit = Some(exit);
            slot.drained = true;
            return;
        }
        self.config.tracer.emit(|| TraceEvent::PeerCrashed {
            node: id,
            incarnation: slot.incarnation,
        });
        // Dead incarnations' counters travel with the lineage.
        slot.prior_metrics.absorb(&exit.report.metrics);
        slot.last_death = Some(exit);
        if slot.respawn_at.is_none() {
            // A permanent crash: nothing left to settle.
            slot.dead = true;
            slot.drained = true;
        }
    }

    /// The time-driven work due at `now`, in order: scripted events, due
    /// respawns, then the phase's check — the gossip phase watches
    /// dispersion until it holds under `tol` for the stable window (or
    /// `max_wall` runs out) and quiesces; the drain phase waits until
    /// every peer has settled its sends (or `drain_wall` runs out) and
    /// tells everyone to exit. `false` from then on.
    pub(crate) fn on_tick(&mut self, now: Instant, io: &mut impl SupervisorIo<I>) -> bool {
        if self.stopping {
            return false;
        }
        while let Some(&(at, ev)) = self.script.get(self.next) {
            if now < self.epoch + at {
                break;
            }
            self.next += 1;
            match ev {
                Scripted::Join(id) => self.join(id, now, io),
                Scripted::Leave(id) => self.leave(id, now, io),
                Scripted::Crash(c) => self.crash(c, io),
            }
        }
        self.respawn_due(now, io);
        if let Some(t) = self.quiesced_at {
            if self.slots.iter().all(|s| s.drained) || now >= t + self.config.drain_wall {
                self.stopping = true;
                self.broadcast(io, || Ctrl::Exit);
            }
        } else if self.stable(now, io) {
            self.converged_after = Some(now - self.epoch);
            self.quiesce(now, io);
        } else if now >= self.epoch + self.config.max_wall {
            self.quiesce(now, io);
        }
        !self.stopping
    }

    /// Sends `cmd()` to every running peer.
    fn broadcast(&self, io: &mut impl SupervisorIo<I>, cmd: impl Fn() -> Ctrl) {
        for id in (0..self.slots.len()).filter(|&id| self.slots[id].running) {
            io.ctrl(id, cmd());
        }
    }

    /// Drain phase: no new gossip, but receiving, acking and
    /// retransmitting continue until every in-flight half settles.
    fn quiesce(&mut self, now: Instant, io: &mut impl SupervisorIo<I>) {
        self.quiesced_at = Some(now);
        self.broadcast(io, || Ctrl::Quiesce);
    }

    /// Node `id`'s initial reading: its input value, or a joiner's from
    /// the churn plan (`None` when the instance cannot form it).
    fn seed_value(&self, id: NodeId) -> Option<&I::Value> {
        match id.checked_sub(self.topology.len()) {
            None => Some(&self.values[id]),
            Some(j) => self.joiner_values[j].as_ref(),
        }
    }

    fn seed_node(&self, value: &I::Value) -> ClassifierNode<I> {
        ClassifierNode::new(Arc::clone(&self.instance), value, self.config.quantum)
    }

    /// A joiner is not in the static topology; it is wired to a
    /// deterministic spread of seed nodes (its Join announcement plus the
    /// supervisor's Adopt broadcast make the links bidirectional).
    fn neighbors_of(&self, id: NodeId) -> Vec<NodeId> {
        let n = self.topology.len();
        if id < n {
            self.topology.neighbors(id).iter().collect()
        } else if n == 0 {
            Vec::new()
        } else {
            let fanout = n.min(3);
            let step = (n / fanout).max(1);
            (0..fanout).map(|i| (id + i * step) % n).collect()
        }
    }

    /// Starts one incarnation of node `id`: the run's shared config plus
    /// this peer's own fields.
    fn spawn(
        &self,
        id: NodeId,
        node: ClassifierNode<I>,
        restore: RestoreState,
        announce_join: bool,
        io: &mut impl SupervisorIo<I>,
    ) -> io::Result<()> {
        let config = &self.config;
        let gpu = config.quantum.grains_per_unit();
        let cfg = PeerConfig {
            run: Arc::clone(config),
            id,
            neighbors: self.neighbors_of(id),
            attack: config
                .adversaries
                .as_ref()
                .and_then(|p| AttackState::new(p, id, gpu)),
            drift: config
                .drift
                .as_ref()
                .map_or_else(Vec::new, |d| d.events_for(id)),
            announce_join,
            epoch: self.epoch,
        };
        io.spawn(node, cfg, restore)
    }

    /// A scripted churn join: a brand-new peer materializes with a
    /// unit-weight reading, declared to the auditor as a grain injection
    /// (the cluster's initial mass never changes).
    fn join(&mut self, id: NodeId, now: Instant, io: &mut impl SupervisorIo<I>) {
        if self.slots[id].spawned {
            return; // parser rejects duplicate ids; defensive
        }
        self.slots[id].spawned = true;
        let Some(value) = self.seed_value(id) else {
            self.slots[id].dead = true;
            self.slots[id].error =
                Some("join skipped: instance has no component value form".into());
            return;
        };
        // A late joiner must know the convicted set it never saw
        // announced.
        let restore = RestoreState {
            convicted: self.tribunal.convicted_ids(),
            ..RestoreState::default()
        };
        if let Err(e) = self.spawn(id, self.seed_node(value), restore, true, io) {
            self.slots[id].dead = true;
            self.slots[id].error = Some(format!("join spawn failed: {e}"));
            return;
        }
        let gpu = self.config.quantum.grains_per_unit();
        let slot = &mut self.slots[id];
        slot.running = true;
        // The joiner's unit enters the books as a declared, durable
        // injection.
        slot.durable.injected += gpu;
        slot.drained = false;
        if self.quiesced_at.is_some() {
            io.ctrl(id, Ctrl::Quiesce);
        }
        for nb in self.neighbors_of(id) {
            if self.slots[nb].running {
                io.ctrl(nb, Ctrl::Adopt(id));
            }
        }
        self.config.tracer.emit(|| TraceEvent::PeerJoined {
            node: id,
            grains: gpu,
            at: (now - self.epoch).as_secs_f64(),
        });
    }

    /// A scripted churn leave: a graceful drain-and-handoff retirement —
    /// the opposite of a crash, no grain stranded.
    fn leave(&mut self, id: NodeId, now: Instant, io: &mut impl SupervisorIo<I>) {
        let slot = &self.slots[id];
        if slot.retiring || slot.dead || !slot.running {
            return; // already down or leaving; the event is moot
        }
        self.slots[id].retiring = true;
        io.ctrl(id, Ctrl::Retire);
        // The retiree forgetting itself is a no-op.
        self.broadcast(io, || Ctrl::Forget(id));
        self.config.tracer.emit(|| TraceEvent::PeerRetired {
            node: id,
            grains: self.slots[id]
                .latest
                .as_ref()
                .map_or(0, |c| c.total_weight().grains()),
            at: (now - self.epoch).as_secs_f64(),
        });
    }

    /// A scripted crash: the peer dies with a receipt; with a restart it
    /// respawns `restart_after` past the crash time.
    fn crash(&mut self, ev: CrashEvent, io: &mut impl SupervisorIo<I>) {
        let slot = &mut self.slots[ev.node];
        if slot.dead || !slot.running {
            return; // already down; the event is moot
        }
        slot.respawn_at = ev.restart_after.map(|d| self.epoch + ev.at + d);
        io.ctrl(ev.node, Ctrl::Crash);
        self.crash_events += 1;
        self.config.tracer.emit(|| TraceEvent::FaultActivated {
            kind: "crash".into(),
            node: Some(ev.node),
            at: ev.at.as_secs_f64(),
        });
    }

    /// Respawns nodes whose downtime has elapsed, each from its last
    /// checkpoint as a fresh incarnation.
    fn respawn_due(&mut self, now: Instant, io: &mut impl SupervisorIo<I>) {
        for id in 0..self.slots.len() {
            let slot = &self.slots[id];
            if slot.respawn_at.is_none_or(|t| now < t) || slot.running || slot.dead {
                continue;
            }
            let inc = slot.incarnation.wrapping_add(1);
            let (node, mut restore) = match &slot.last_ckpt {
                Some(c) => (
                    ClassifierNode::from_classification(
                        Arc::clone(&self.instance),
                        c.classification.clone(),
                    ),
                    c.restore.clone(),
                ),
                None => {
                    let value = self.seed_value(id).expect("a spawned node has a reading");
                    (self.seed_node(value), RestoreState::default())
                }
            };
            restore.incarnation = inc;
            // The clock must not rewind: the death receipt's final clock
            // dominates whatever the checkpoint recorded.
            restore.lamport = restore.lamport.max(slot.last_lamport) + 1;
            // The supervisor's conviction record dominates whatever the
            // checkpoint knew — convictions never roll back.
            restore.convicted = self.tribunal.convicted_ids();
            let spawned = self.spawn(id, node, restore, false, io);
            let tracer = &self.config.tracer;
            let slot = &mut self.slots[id];
            slot.respawn_at = None;
            if let Err(e) = spawned {
                slot.dead = true;
                slot.drained = true;
                slot.error.get_or_insert(format!("respawn failed: {e}"));
                continue;
            }
            // The restore is now real: everything the dead incarnation
            // did since that checkpoint is void.
            if let Some(death) = slot.last_death.take() {
                slot.void(id, slot.incarnation, death.logs, tracer);
            }
            slot.running = true;
            slot.incarnation = inc;
            slot.restarts += 1;
            slot.drained = false;
            tracer.emit(|| TraceEvent::PeerRestarted {
                node: id,
                incarnation: inc,
            });
            tracer.emit(|| TraceEvent::FaultHealed {
                kind: "crash".into(),
                node: Some(id),
                at: (now - self.epoch).as_secs_f64(),
            });
            if self.quiesced_at.is_some() {
                io.ctrl(id, Ctrl::Quiesce);
            }
            if slot.retiring {
                // The leave outlives the crash: the new incarnation
                // resumes its retirement.
                io.ctrl(id, Ctrl::Retire);
            }
        }
    }

    /// The gossip phase's convergence check: once the schedule has
    /// played out, whether dispersion over every counted node's latest
    /// report has stayed under `tol` for the stable window.
    fn stable(&mut self, now: Instant, io: &impl SupervisorIo<I>) -> bool {
        let schedule_done = self.next >= self.script.len()
            && now >= self.epoch + self.horizon
            && self.slots.iter().all(|s| s.running || s.dead || s.retiring);
        if !schedule_done {
            self.first_stable = None;
            return false;
        }
        // Convicted nodes are quarantined out of the output, and retiring
        // nodes are on their way out: neither counts toward (or against)
        // convergence.
        let tribunal = &self.tribunal;
        let counted = |(id, s): &(usize, &Slot<I::Summary>)| {
            !s.dead && !s.retiring && !tribunal.is_convicted(*id)
        };
        let live: Option<Vec<&Classification<I::Summary>>> = self
            .slots
            .iter()
            .enumerate()
            .filter(counted)
            .map(|(_, s)| s.latest.as_ref())
            .collect();
        let Some(live) = live.filter(|l| !l.is_empty()) else {
            return false;
        };
        let disp = convergence::dispersion(self.instance.as_ref(), live.iter().copied());
        let tracer = &self.config.tracer;
        let due = self
            .last_telemetry
            .is_none_or(|t| now - t >= self.config.status_interval);
        if tracer.enabled() && due {
            self.last_telemetry = Some(now);
            tracer.emit(|| TraceEvent::ClusterTelemetry {
                elapsed_ms: (now - self.epoch).as_secs_f64() * 1e3,
                live: live.len(),
                dispersion: disp,
                unix_ms: io.unix_ms(),
            });
        }
        if disp > self.config.tol {
            self.first_stable = None;
            return false;
        }
        now - *self.first_stable.get_or_insert(now) >= self.config.stable_window
    }

    /// The run's final report at `now`, once every incarnation's exit was
    /// delivered: per-node snapshots, the ledger and (when configured)
    /// the audit, spanned on the driving thread's profiler.
    /// [`ClusterReport::profile`] is left for the driver, which owns the
    /// profiler.
    pub(crate) fn finish(
        mut self,
        now: Instant,
        prof: &ThreadProfiler,
    ) -> ClusterReport<I::Summary> {
        let config = Arc::clone(&self.config);
        let (gpu, tracer) = (config.quantum.grains_per_unit(), &config.tracer);
        let drained_all = self.slots.iter().all(|s| s.drained);
        let mut nodes: Vec<NodeReport<I::Summary>> = Vec::with_capacity(self.slots.len());
        let mut ledger = Ledger {
            initial_grains: self.topology.len() as u64 * gpu,
            nodes: Vec::with_capacity(self.slots.len()),
            crash_events: self.crash_events,
        };
        for id in 0..self.slots.len() {
            // A node lost without a receipt or checkpoint is reported with
            // its initial reading.
            let s = &self.slots[id];
            let lost = s.spawned && s.final_exit.is_none() && s.last_death.is_none();
            let initial = (lost && s.last_ckpt.is_none()).then(|| {
                let node = self.seed_value(id).map(|v| self.seed_node(v));
                node.map_or_else(Classification::default, |n| n.classification().clone())
            });
            let slot = &mut self.slots[id];
            let mut book = NodeLedger {
                durable: std::mem::take(&mut slot.durable),
                voided: std::mem::take(&mut slot.voided),
                ..NodeLedger::default()
            };
            let mut report = NodeReport {
                id,
                classification: Classification::default(),
                metrics: slot.prior_metrics,
                last_merge: None,
                undelivered: 0,
                restarts: slot.restarts,
                outcome: NodeOutcome::Panicked,
                error: slot.error.clone(),
            };
            if !slot.spawned {
                // A scripted join whose time never arrived (the run ended
                // first): nothing entered the books.
                book.final_grains = Some(0);
                report.outcome = NodeOutcome::Dead;
                report.error =
                    Some("scripted join never executed: run ended before its time".into());
            } else if let Some(exit) = slot.final_exit.take() {
                report.metrics.absorb(&exit.report.metrics);
                if exit.forced {
                    slot.inexact.get_or_insert_with(|| {
                        "duplicate-suppression window force-advanced".into()
                    });
                }
                let final_grains = exit.report.classification.total_weight().grains();
                // Every spawned node — joiners included — physically
                // starts with one unit; the joiner's *declared* injection
                // only matters at cluster level, where initial mass stays
                // n×gpu.
                book.ledger_ok = (slot.restarts == 0 && slot.error.is_none()).then(|| {
                    let m = &exit.report.metrics;
                    final_grains as i128
                        == gpu as i128 - m.grains_split as i128
                            + m.grains_merged as i128
                            + m.grains_returned as i128
                            + m.grains_injected as i128
                            - m.grains_forgotten as i128
                });
                book.final_grains = Some(final_grains);
                book.durable.absorb(exit.logs);
                book.exit_pendings = exit.pendings;
                book.trackers = exit.trackers;
                report.classification = exit.report.classification;
                report.last_merge = exit.report.last_merge;
                report.undelivered = exit.report.undelivered;
                report.outcome = if slot.retiring {
                    NodeOutcome::Retired
                } else {
                    NodeOutcome::Completed
                };
            } else if let Some(death) = slot.last_death.take() {
                // Permanently crashed (or down awaiting a respawn that
                // never came): the death receipt is the loss accounting.
                // Its since-checkpoint logs are neither durable nor voided
                // — nothing was restored, so the movements simply died
                // with the node, inside its final classification. Its
                // drift terms are counted, though: the injected mass sits
                // inside `perm_loss_grains`, so without the credit the
                // books would show a phantom deficit.
                book.perm_loss_grains = death.report.classification.total_weight().grains();
                book.injected_grains = death.logs.injected;
                book.forgotten_grains = death.logs.forgotten;
                book.perm_pendings = death.pendings;
                book.trackers = death.trackers;
                report.undelivered = book.perm_pendings.len();
                report.classification = death.report.classification;
                report.last_merge = death.report.last_merge;
                if slot.error.is_none() {
                    report.outcome = NodeOutcome::Dead;
                }
            } else {
                // Panicked with no receipt and no respawn: best-effort
                // report from the last checkpoint (or the initial
                // reading); the ledger is inexact by construction.
                report.classification = match &slot.last_ckpt {
                    Some(c) => c.classification.clone(),
                    None => initial.unwrap_or_default(),
                };
                book.perm_loss_grains = report.classification.total_weight().grains();
                slot.inexact
                    .get_or_insert_with(|| "node lost without a death receipt".into());
            }
            book.injected_grains += book.durable.injected;
            book.forgotten_grains += book.durable.forgotten;
            book.inexact = slot.inexact.clone();
            tracer.emit(|| TraceEvent::PeerFinal {
                node: id,
                outcome: match report.outcome {
                    NodeOutcome::Completed => "completed".into(),
                    NodeOutcome::Dead => "dead".into(),
                    NodeOutcome::Panicked => "panicked".into(),
                    NodeOutcome::Retired => "retired".into(),
                },
                grains: report.classification.total_weight().grains(),
            });
            ledger.nodes.push(book);
            nodes.push(report);
        }

        // Convicted nodes still hold real grains (conservation counts
        // them), but their classifications are quarantined out of the
        // agreement figure — the cluster's output is its honest nodes'.
        let tribunal = &self.tribunal;
        let honest = |r: &&NodeReport<I::Summary>| {
            r.outcome == NodeOutcome::Completed && !tribunal.is_convicted(r.id)
        };
        let final_dispersion = if nodes.iter().any(|r| honest(&r)) {
            let live = nodes.iter().filter(honest).map(|r| &r.classification);
            convergence::dispersion(self.instance.as_ref(), live)
        } else {
            f64::INFINITY
        };
        let byz_active = config.adversaries.is_some() || config.defense.is_some();
        if byz_active {
            for r in &nodes {
                let m = &r.metrics;
                tracer.emit(|| TraceEvent::PeerBandwidth {
                    node: r.id,
                    bytes: m.bytes_sent.saturating_add(m.bytes_received),
                    audit_bytes: m.audit_bytes,
                });
            }
        }
        let audit = config.audit.then(|| {
            let _audit_span = prof.span(Phase::Audit);
            run_audit(&ledger, drained_all, final_dispersion, config.tol)
        });
        if let Some(report) = &audit {
            tracer.emit(|| TraceEvent::AuditSummary {
                initial: report.initial_grains,
                final_grains: report.final_grains,
                gains: report.declared_gains,
                losses: report.declared_losses,
                injected: report.injected_grains,
                forgotten: report.forgotten_grains,
                exact: report.exact,
                conserved: report.conserved,
            });
            if byz_active {
                tracer.emit(|| TraceEvent::ByzSummary {
                    minted_grains: report.minted_grains,
                    rejected_frames: report.rejected_frames as u64,
                });
            }
        }
        // Best effort: a sink that cannot flush (e.g. a full disk) must
        // not turn a finished run into a panic; the CLI reports flush
        // errors when it owns the sink.
        let _ = tracer.flush();

        ClusterReport {
            converged: self.converged_after.is_some(),
            drained: drained_all,
            converged_after: self.converged_after,
            wall: now - self.epoch,
            final_dispersion,
            audit,
            convicted: tribunal.convicted_ids(),
            profile: None,
            nodes,
        }
    }
}
