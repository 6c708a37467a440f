//! The cluster harness: spawn, watch, quiesce, snapshot — and supervise.
//!
//! [`run_cluster`] turns a membership list into a running deployment: one
//! OS thread per node, each owning a [`ClassifierNode`], a transport
//! endpoint and the reliability layer of [`crate::peer`]. The calling
//! thread becomes the supervisor:
//!
//! * **gossip phase** — peers exchange halves on their own clocks; the
//!   supervisor folds their periodic status reports into a dispersion
//!   estimate ([`distclass_core::convergence::dispersion`]) and declares
//!   convergence once it stays under `tol` for `stable_window` (and any
//!   scripted fault schedule has fully played out);
//! * **drain phase** — peers are told to quiesce: no new gossip, but
//!   receiving, acking and retransmitting continue until every in-flight
//!   half is acknowledged or returned, so no weight is in flight;
//! * **snapshot** — peers exit and report their final classification and
//!   metrics. With a drained, crash-free cluster the reports conserve
//!   the total weight to the grain: `n × quantum` over all nodes.
//!
//! Throughout, the supervisor also plays warden. It executes the crash
//! events of a [`FaultPlan`], reaps peer threads that die — whether by
//! injection or by a genuine panic — and respawns them from their last
//! checkpoint as a fresh incarnation. Every grain movement rolled back
//! or duplicated by a restart is logged into a ledger that the auditor
//! ([`crate::audit`]) settles after the run, so conservation remains a
//! *checkable* invariant even under churn: `final = initial + declared
//! gains − declared losses`, to the grain.
//!
//! The supervisor is an observer and janitor, not a participant — all
//! data movement is peer-to-peer, exactly as in the paper's model.

use std::any::Any;
use std::io;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use distclass_core::{convergence, Classification, ClassifierNode, Instance, Quantum};
use distclass_gossip::wire::WireSummary;
use distclass_gossip::SelectorKind;
use distclass_net::{NodeId, Topology};
use distclass_obs::{
    EpisodeRule, Health, Live, LiveAggregator, LiveConsole, Metrics, Phase, ProfileReport,
    Profiler, TraceEvent, Tracer,
};

use crate::audit::{run_audit, AuditReport, GrainLogs, Ledger, NodeLedger};
use crate::byz::{AdversaryPlan, AttackState, DefenseConfig};
use crate::chaos::{ChaosTransport, CrashEvent, FaultPlan};
use crate::dynamics::{ChurnPlan, DriftSchedule, JoinEvent, LeaveEvent};
use crate::metrics::RuntimeMetrics;
use crate::peer::{run_peer, Ctrl, PeerConfig, PeerEvent, PeerExit, RestoreState};
use crate::transport::{ChannelNet, EndpointNet, PrebuiltNet, Transport, UdpNet};

/// Retransmission policy for unacknowledged data frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wait before the first retransmission.
    pub base: Duration,
    /// Upper bound on the exponential backoff.
    pub cap: Duration,
    /// Retransmissions before the half is returned to the sender.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The backoff before retransmission number `attempt` (1-based):
    /// `base × 2^(attempt-1)`, capped at `cap`. Attempt 0 (and 1) get the
    /// base wait; the doubling exponent saturates at 16 so huge attempt
    /// counts cannot overflow the multiplier.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(160),
            max_retries: 12,
        }
    }
}

/// Tuning for a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// A peer's gossip period: one split-and-send per tick.
    pub tick: Duration,
    /// Weight quantization (paper §4.1); every node starts at one unit.
    pub quantum: Quantum,
    /// Seed for all per-peer randomness (neighbor choice, loss models).
    pub seed: u64,
    /// Neighbor selection discipline.
    pub selector: SelectorKind,
    /// Convergence: dispersion threshold …
    pub tol: f64,
    /// … that must hold continuously for this long.
    pub stable_window: Duration,
    /// How often peers report status to the supervisor.
    pub status_interval: Duration,
    /// How often peers checkpoint recovery state to the supervisor;
    /// `Duration::ZERO` disables checkpointing (a crashed peer then
    /// restarts from its initial reading, and everything it did since
    /// cluster start is rolled back).
    pub checkpoint_interval: Duration,
    /// Hard wall-clock bound on the gossip phase.
    pub max_wall: Duration,
    /// Hard wall-clock bound on the drain phase.
    pub drain_wall: Duration,
    /// Retransmission policy.
    pub retry: RetryPolicy,
    /// Run the grain-conservation auditor after the snapshot and attach
    /// its report to the [`ClusterReport`].
    pub audit: bool,
    /// Trace sink handle shared by the supervisor and every peer;
    /// disabled by default (zero overhead — events are never built).
    pub tracer: Tracer,
    /// Metrics registry handle shared by every peer; disabled by default
    /// (no-op instruments, zero overhead).
    pub metrics: Metrics,
    /// Address for the live operations console (dashboard at `/`,
    /// `/metrics`, `/snapshot.json`, `/events`). Starting it attaches a
    /// [`distclass_obs::LiveAggregator`] to the run's trace path (teed,
    /// so a `--trace` file is unaffected, and shared by the supervisor
    /// and every peer) and serves it for the duration of the run.
    pub dash_listen: Option<String>,
    /// Byzantine adversary script: which nodes lie on the wire, and how.
    /// `None` (the default) runs an all-honest cluster, byte-identical
    /// to builds before the subsystem existed.
    pub adversaries: Option<Arc<AdversaryPlan>>,
    /// Byzantine defense tuning (ingress screening, stochastic audit,
    /// quarantine). `None` (the default) disables the defense entirely —
    /// peers merge whatever arrives, as before.
    pub defense: Option<DefenseConfig>,
    /// Sensor-drift schedule: scripted mid-run re-reads that decay a
    /// node's old contribution and inject a fresh unit reading. `None`
    /// (the default) runs a static workload, byte-identical to builds
    /// before the dynamics subsystem existed.
    pub drift: Option<Arc<DriftSchedule>>,
    /// Join/leave churn plan: brand-new peers spawned mid-run (their
    /// unit declared as a grain injection) and graceful retirements
    /// (drain-and-handoff, not death receipts). Joiner ids must be
    /// contiguous from `topology.len()`; the supervisor sizes the
    /// transport net for them up front.
    pub churn: Option<Arc<ChurnPlan>>,
    /// Phase profiler handle shared by the supervisor and every peer
    /// incarnation; disabled by default (no clock reads, no spans). When
    /// enabled, the final [`ClusterReport::profile`] carries the exact
    /// per-thread time attribution.
    pub profiler: Profiler,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            tick: Duration::from_millis(2),
            quantum: Quantum::default(),
            seed: 0,
            selector: SelectorKind::default(),
            tol: 1e-2,
            stable_window: Duration::from_millis(200),
            status_interval: Duration::from_millis(10),
            checkpoint_interval: Duration::from_millis(25),
            max_wall: Duration::from_secs(30),
            drain_wall: Duration::from_secs(10),
            retry: RetryPolicy::default(),
            audit: false,
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            dash_listen: None,
            adversaries: None,
            defense: None,
            drift: None,
            churn: None,
            profiler: Profiler::disabled(),
        }
    }
}

/// How a node's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome {
    /// Alive at shutdown; its classification is part of the output.
    Completed,
    /// Permanently crashed by the fault plan; its last state is reported
    /// for inspection but its grains are a *declared* loss.
    Dead,
    /// Its thread panicked and could not be respawned; the panic payload
    /// is in [`NodeReport::error`].
    Panicked,
    /// Left gracefully under the churn plan: handed its classification to
    /// a neighbor, drained, and exited. Its (usually empty) final state
    /// still counts toward conservation but not toward agreement.
    Retired,
}

/// One peer's final state, snapshotted at shutdown.
#[derive(Debug, Clone)]
pub struct NodeReport<S> {
    /// The node's id.
    pub id: NodeId,
    /// The node's classification at exit — its output. For a `Dead` or
    /// `Panicked` node this is its last known state (death receipt,
    /// checkpoint, or initial reading, in that order of preference).
    pub classification: Classification<S>,
    /// Lifetime counters, summed over every incarnation.
    pub metrics: RuntimeMetrics,
    /// When (relative to cluster start) the classification last changed.
    pub last_merge: Option<Duration>,
    /// Sends still unsettled at exit — zero in a drained cluster.
    pub undelivered: usize,
    /// Times this node was respawned (its final incarnation number).
    pub restarts: u32,
    /// How the node's run ended.
    pub outcome: NodeOutcome,
    /// The panic payload, if the node's thread ever panicked — recorded
    /// even when the supervisor recovered it by respawning.
    pub error: Option<String>,
}

/// The outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport<S> {
    /// Per-node final states, ordered by node id.
    pub nodes: Vec<NodeReport<S>>,
    /// Whether dispersion stayed under `tol` for `stable_window` before
    /// `max_wall` expired (after the fault schedule finished playing).
    pub converged: bool,
    /// Whether every live peer settled all of its sends before
    /// `drain_wall` expired. Only a drained cluster is guaranteed to
    /// conserve weight exactly (modulo the audit's declared events).
    pub drained: bool,
    /// When convergence was declared, if it was.
    pub converged_after: Option<Duration>,
    /// Total wall-clock time of the run.
    pub wall: Duration,
    /// Dispersion over the final snapshots of nodes alive at shutdown.
    pub final_dispersion: f64,
    /// The grain-conservation auditor's findings, when
    /// [`ClusterConfig::audit`] was set.
    pub audit: Option<AuditReport>,
    /// Nodes the supervisor convicted of Byzantine behavior (strike
    /// tally reached [`crate::byz::DefenseConfig::conviction_threshold`]),
    /// sorted by id. Convicted nodes are quarantined by every peer and
    /// excluded from the dispersion figures. Empty when the defense is
    /// off.
    pub convicted: Vec<NodeId>,
    /// The phase profiler's final snapshot (one thread profile per peer
    /// incarnation plus the supervisor), when [`ClusterConfig::profiler`]
    /// was enabled. Taken after every peer thread has joined, so all
    /// thread lifetimes are finalized and the accounting identities hold
    /// exactly.
    pub profile: Option<ProfileReport>,
}

impl<S> ClusterReport<S> {
    /// Total grains over the final classifications of nodes alive at
    /// shutdown — equals `n × quantum.grains_per_unit()` exactly when the
    /// cluster drained and no faults were injected. Under crash faults,
    /// the audit report's declared gains and losses account for the
    /// difference.
    pub fn total_grains(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|r| matches!(r.outcome, NodeOutcome::Completed | NodeOutcome::Retired))
            .map(|r| r.classification.total_weight().grains())
            .sum()
    }

    /// Cluster-wide metric totals (all nodes, all incarnations).
    pub fn total_metrics(&self) -> RuntimeMetrics {
        let mut total = RuntimeMetrics::default();
        for r in &self.nodes {
            total.absorb(&r.metrics);
        }
        total
    }
}

/// A node's last received checkpoint: what a respawn restores.
struct Ckpt<S> {
    classification: Classification<S>,
    restore: RestoreState,
}

/// Supervisor-side state for one node across all its incarnations.
struct Slot<S> {
    ctrl: Sender<Ctrl>,
    handle: Option<JoinHandle<PeerExit<S>>>,
    incarnation: u16,
    restarts: u32,
    /// Set when a crash ctrl is sent: `Some(restart_after)`.
    pending_downtime: Option<Option<Duration>>,
    /// When to respawn a down node; `None` while it is up or dead.
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
    /// A node's slot: spawned now (`handle` set), or a scripted joiner's
    /// placeholder (`handle` unset) until its join time arrives.
    fn new(ctrl: Sender<Ctrl>, handle: Option<JoinHandle<PeerExit<S>>>) -> Slot<S> {
        Slot {
            spawned: handle.is_some(),
            drained: handle.is_none(),
            ctrl,
            handle,
            incarnation: 0,
            restarts: 0,
            pending_downtime: None,
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

    /// Records that this node's thread panicked: no death receipt, so
    /// its books are inexact.
    fn panicked(&mut self, payload: Box<dyn Any + Send>) {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        self.inexact
            .get_or_insert(format!("thread panicked without a death receipt: {msg}"));
        self.error = Some(msg);
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

/// The supervisor's Byzantine court: a cluster-wide strike tally and the
/// convicted set. Strikes are evidence reported by individual peers
/// ([`PeerEvent::Strike`]); conviction is a cluster-level decision so
/// that one confused auditor cannot quarantine an honest node — it takes
/// `threshold` independent strikes. Testimony from convicted peers, and
/// strikes against the already convicted, are discarded.
struct Tribunal {
    /// Strikes to convict; `0` means the defense is off (never convict).
    threshold: u32,
    strikes: Vec<u32>,
    convicted: Vec<bool>,
}

impl Tribunal {
    fn new(n: usize, defense: Option<DefenseConfig>) -> Tribunal {
        Tribunal {
            threshold: defense.map_or(0, |d| d.conviction_threshold),
            strikes: vec![0; n],
            convicted: vec![false; n],
        }
    }

    fn is_convicted(&self, id: NodeId) -> bool {
        self.convicted.get(id).copied().unwrap_or(true)
    }

    /// Records one strike; returns the total if this one convicts.
    fn strike(&mut self, from: NodeId, target: NodeId) -> Option<u32> {
        if self.threshold == 0
            || target >= self.strikes.len()
            || self.is_convicted(from)
            || self.is_convicted(target)
        {
            return None;
        }
        self.strikes[target] += 1;
        if self.strikes[target] >= self.threshold {
            self.convicted[target] = true;
            Some(self.strikes[target])
        } else {
            None
        }
    }

    /// The convicted node ids, sorted.
    fn convicted_ids(&self) -> Vec<NodeId> {
        self.convicted
            .iter()
            .enumerate()
            .filter_map(|(id, &c)| c.then_some(id))
            .collect()
    }
}

/// Wall-clock stamp for telemetry, ms since the Unix epoch. `None` only
/// if the system clock sits before 1970.
fn unix_ms_now() -> Option<u64> {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| d.as_millis() as u64)
}

/// Runs a cluster over endpoints minted by `net`, under the fault plan.
/// This is the full supervisor; the public entry points below are thin
/// wrappers choosing a net and a plan.
fn run_cluster_core<I, N>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    mut net: N,
    plan: Arc<FaultPlan>,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
    N: EndpointNet,
{
    let n = topology.len();
    assert_eq!(values.len(), n, "one input value per node");

    // Churn: size the cluster for every scripted joiner up front — the
    // nets mint endpoints by id, so joiner ids must be contiguous from
    // `n`. The joiners' slots exist from the start (placeholder, never
    // spawned) so every supervisor structure is indexed uniformly.
    let mut join_schedule: Vec<JoinEvent> = config
        .churn
        .as_ref()
        .map(|c| c.joins.clone())
        .unwrap_or_default();
    join_schedule.sort_by_key(|j| j.at);
    let mut leave_schedule: Vec<LeaveEvent> = config
        .churn
        .as_ref()
        .map(|c| c.leaves.clone())
        .unwrap_or_default();
    leave_schedule.sort_by_key(|l| l.at);
    let n_total = n + join_schedule.len();
    {
        let mut ids: Vec<NodeId> = join_schedule.iter().map(|j| j.node).collect();
        ids.sort_unstable();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                id,
                n + i,
                "churn join ids must be contiguous from {n} (the seed cluster size)"
            );
        }
        for l in &leave_schedule {
            assert!(
                l.node < n_total,
                "churn leave targets unknown node {}",
                l.node
            );
        }
    }
    let mut next_join = 0usize;
    let mut next_leave = 0usize;
    // Joiner initial values, materialized once (the respawn path needs
    // them too). `None` when the instance has no component value form —
    // that join is skipped with an error on its slot.
    let joiner_values: Vec<Option<I::Value>> = {
        let mut vals: Vec<Option<I::Value>> = vec![None; join_schedule.len()];
        for j in &join_schedule {
            vals[j.node - n] = instance.value_from_components(&j.reading);
        }
        vals
    };
    let seed_value = |id: NodeId| -> &I::Value {
        if id < n {
            &values[id]
        } else {
            joiner_values[id - n]
                .as_ref()
                .expect("spawned joiner always has a materialized value")
        }
    };
    // A joiner is not in the static topology; wire it to a deterministic
    // spread of seed nodes (its Join announcement plus the supervisor's
    // Adopt broadcast make the links bidirectional).
    let neighbors_of = |id: NodeId| -> Vec<NodeId> {
        if id < n {
            topology.neighbors(id).iter().collect()
        } else if n == 0 {
            Vec::new()
        } else {
            let fanout = n.min(3);
            let step = (n / fanout).max(1);
            (0..fanout).map(|i| (id + i * step) % n).collect()
        }
    };

    let epoch = Instant::now();
    // The supervisor profiles itself too: its life is mostly idle waits
    // on the event queue, plus the final audit. Dropped before the
    // profile snapshot so its lifetime is finalized like the peers'.
    let sup_prof = config.profiler.thread("supervisor");
    // Liveness state for the console's /healthz probe.
    let health = config.dash_listen.as_ref().map(|_| Arc::new(Health::new()));
    // The live console, when asked for: an aggregator teed into the
    // run's trace path (the JSONL file, if any, sees the same events it
    // always did) plus the routed HTTP server over it. The run's one
    // shared config carries this teed tracer, so everything the
    // supervisor and peers emit below reaches the console.
    let live = match &config.dash_listen {
        Some(_) => Live::new(Arc::new(LiveAggregator::new(EpisodeRule {
            window: 5,
            delta_tol: 1e-3,
            level: config.tol,
        }))),
        None => Live::disabled(),
    };
    let config = Arc::new(ClusterConfig {
        tracer: match live.aggregator() {
            Some(agg) => config
                .tracer
                .tee(Arc::clone(agg) as Arc<dyn distclass_obs::TraceSink>),
            None => config.tracer.clone(),
        },
        ..config.clone()
    });
    let tracer = &config.tracer;
    // Bind failures are reported but never kill the run; the servers
    // (and their ports) are dropped when the cluster returns.
    let _dash = match &config.dash_listen {
        Some(addr) => {
            let registry = config.metrics.registry().map(Arc::clone);
            match LiveConsole::start(
                addr.as_str(),
                registry,
                live.clone(),
                config.profiler.clone(),
                health.clone(),
            ) {
                Ok(server) => {
                    // Announce the bound address: with `:0` the kernel
                    // picks the port, so this line is the only way to
                    // find the console from outside.
                    println!("dashboard listening on http://{}/", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("warning: could not bind dashboard listener on {addr}: {e}");
                    None
                }
            }
        }
        None => None,
    };
    tracer.emit(|| TraceEvent::ClusterStarted {
        nodes: n,
        initial_grains: n as u64 * config.quantum.grains_per_unit(),
    });
    let (event_tx, event_rx) = mpsc::channel::<PeerEvent<I::Summary>>();
    // Spawns one peer incarnation on its own thread: the endpoint behind
    // the run's chaos layer, the run's shared config plus this peer's own
    // fields, and the event channel back to this supervisor.
    let spawn = |id: NodeId,
                 node: ClassifierNode<I>,
                 endpoint: N::T,
                 announce_join: bool,
                 restore: RestoreState| {
        let inc = restore.incarnation;
        let transport = ChaosTransport::new(endpoint, id, inc, Arc::clone(&plan), epoch);
        let cfg = PeerConfig {
            run: Arc::clone(&config),
            id,
            neighbors: neighbors_of(id),
            attack: config
                .adversaries
                .as_ref()
                .and_then(|plan| AttackState::new(plan, id, config.quantum.grains_per_unit())),
            drift: config
                .drift
                .as_ref()
                .map(|d| d.events_for(id))
                .unwrap_or_default(),
            announce_join,
            epoch,
        };
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        let events = event_tx.clone();
        let handle = thread::Builder::new()
            .name(format!("distclass-peer-{id}-i{inc}"))
            .spawn(move || run_peer(node, transport, cfg, restore, ctrl_rx, events))
            .expect("spawn peer thread");
        (ctrl_tx, handle)
    };
    let mut slots: Vec<Slot<I::Summary>> = Vec::with_capacity(n_total);
    for (id, value) in values.iter().enumerate() {
        if let Some(role) = config.adversaries.as_ref().and_then(|p| p.role_of(id)) {
            tracer.emit(|| TraceEvent::AdversaryActivated {
                node: id,
                role: role.as_str().to_string(),
            });
        }
        let node = ClassifierNode::new(Arc::clone(&instance), value, config.quantum);
        let endpoint = net
            .endpoint(id, 0)
            .expect("mint initial transport endpoint");
        let (ctrl, handle) = spawn(id, node, endpoint, false, RestoreState::default());
        slots.push(Slot::new(ctrl, Some(handle)));
    }
    // Placeholder slots for scripted joiners: the dummy ctrl channel has
    // no receiver, so broadcasts to an unspawned joiner are silently (and
    // harmlessly) dropped.
    for _ in n..n_total {
        let (ctrl, _no_receiver) = mpsc::channel();
        slots.push(Slot::new(ctrl, None));
    }

    let mut tribunal = Tribunal::new(n_total, config.defense);
    let mut crash_schedule: Vec<CrashEvent> = plan.crashes.clone();
    crash_schedule.sort_by_key(|c| c.at);
    let mut next_crash = 0usize;
    let mut crash_events = 0usize;
    // Convergence may only be declared once the scripted schedule has
    // fully played out — otherwise the harness would quiesce into the
    // teeth of a pending partition, crash, drift event or churn.
    let horizon: Duration = plan
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
    let mut quiescing = false;

    // Absorbs one peer event into supervisor state. Checkpoints from the
    // node's current incarnation become the restore point and flush their
    // log batch as durable; anything from an older incarnation was rolled
    // back by a restore that already happened, so its batch is voided.
    // (The reaper drains the event queue before processing an exit, so
    // the stale path is defensive rather than expected.)
    fn handle_event<S>(
        ev: PeerEvent<S>,
        slots: &mut [Slot<S>],
        tribunal: &mut Tribunal,
        tracer: &Tracer,
    ) {
        match ev {
            PeerEvent::Status(status) => {
                let slot = &mut slots[status.id];
                slot.latest = Some(status.classification);
                if status.drained {
                    slot.drained = true;
                }
            }
            PeerEvent::Strike { from, target, tick } => {
                // Conviction is broadcast to every live peer; restarts
                // re-learn it from their RestoreState.
                if let Some(strikes) = tribunal.strike(from, target) {
                    tracer.emit(|| TraceEvent::PeerConvicted {
                        target,
                        strikes: strikes as u64,
                        tick,
                    });
                    for slot in slots.iter() {
                        let _ = slot.ctrl.send(Ctrl::Convict(target));
                    }
                }
            }
            PeerEvent::Checkpoint(msg) => {
                let slot = &mut slots[msg.id];
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

    fn drain_queue<S>(
        event_rx: &Receiver<PeerEvent<S>>,
        slots: &mut [Slot<S>],
        tribunal: &mut Tribunal,
        tracer: &Tracer,
    ) {
        while let Ok(ev) = event_rx.try_recv() {
            handle_event(ev, slots, tribunal, tracer);
        }
    }

    // One supervisor step, shared by the gossip and drain loops: execute
    // due churn and crash events, reap finished peer threads, respawn
    // nodes whose downtime has elapsed, then wait up to 5 ms for the next
    // peer event. Evaluates to `false` once every event sender is gone.
    macro_rules! supervise {
        () => {{
            // Scripted churn joins: a brand-new peer materializes with a
            // unit-weight reading, declared to the auditor as a grain
            // injection (the cluster's initial mass never changes).
            while next_join < join_schedule.len() && epoch.elapsed() >= join_schedule[next_join].at
            {
                let ev = join_schedule[next_join].clone();
                next_join += 1;
                let id = ev.node;
                if slots[id].spawned {
                    continue; // parser rejects duplicate ids; defensive
                }
                if joiner_values[id - n].is_none() {
                    slots[id].spawned = true;
                    slots[id].dead = true;
                    slots[id].error =
                        Some("join skipped: instance has no component value form".into());
                    continue;
                }
                match net.endpoint(id, 0) {
                    Ok(endpoint) => {
                        let node = ClassifierNode::new(
                            Arc::clone(&instance),
                            seed_value(id),
                            config.quantum,
                        );
                        // A late joiner must know the convicted set it
                        // never saw announced.
                        let mut restore = RestoreState::default();
                        restore.convicted = tribunal.convicted_ids();
                        let (ctrl, handle) = spawn(id, node, endpoint, true, restore);
                        let slot = &mut slots[id];
                        slot.ctrl = ctrl;
                        slot.handle = Some(handle);
                        slot.spawned = true;
                        // The joiner's unit enters the books as a
                        // declared, durable injection.
                        slot.durable.injected += config.quantum.grains_per_unit();
                        slot.drained = false;
                        if quiescing {
                            let _ = slot.ctrl.send(Ctrl::Quiesce);
                        }
                        for nb in neighbors_of(id) {
                            let _ = slots[nb].ctrl.send(Ctrl::Adopt(id));
                        }
                        tracer.emit(|| TraceEvent::PeerJoined {
                            node: id,
                            grains: config.quantum.grains_per_unit(),
                            at: epoch.elapsed().as_secs_f64(),
                        });
                    }
                    Err(e) => {
                        let slot = &mut slots[id];
                        slot.spawned = true;
                        slot.dead = true;
                        slot.error = Some(format!("join spawn failed: {e}"));
                    }
                }
            }
            // Scripted churn leaves: graceful drain-and-handoff
            // retirements — the opposite of a crash, no grain stranded.
            while next_leave < leave_schedule.len()
                && epoch.elapsed() >= leave_schedule[next_leave].at
            {
                let ev = leave_schedule[next_leave].clone();
                next_leave += 1;
                let id = ev.node;
                if slots[id].retiring || slots[id].dead || slots[id].handle.is_none() {
                    continue; // already down or leaving; the event is moot
                }
                slots[id].retiring = true;
                let _ = slots[id].ctrl.send(Ctrl::Retire);
                for (other, s) in slots.iter().enumerate() {
                    if other != id {
                        let _ = s.ctrl.send(Ctrl::Forget(id));
                    }
                }
                tracer.emit(|| TraceEvent::PeerRetired {
                    node: id,
                    grains: slots[id]
                        .latest
                        .as_ref()
                        .map_or(0, |c| c.total_weight().grains()),
                    at: epoch.elapsed().as_secs_f64(),
                });
            }
            // Scripted crashes.
            while next_crash < crash_schedule.len()
                && epoch.elapsed() >= crash_schedule[next_crash].at
            {
                let ev = crash_schedule[next_crash];
                next_crash += 1;
                let slot = &mut slots[ev.node];
                if slot.dead || slot.handle.is_none() {
                    continue; // already down; the event is moot
                }
                slot.pending_downtime = Some(ev.restart_after);
                slot.respawn_at = ev.restart_after.map(|d| epoch + ev.at + d);
                let _ = slot.ctrl.send(Ctrl::Crash);
                crash_events += 1;
                tracer.emit(|| TraceEvent::FaultActivated {
                    kind: "crash".into(),
                    node: Some(ev.node),
                    at: ev.at.as_secs_f64(),
                });
            }
            // Reap. The exiting thread sent its last events before dying,
            // so drain the queue first: the crash receipt's log batch is
            // relative to the newest checkpoint, which must be installed
            // before the receipt is interpreted.
            for id in 0..slots.len() {
                if slots[id].handle.as_ref().is_some_and(|h| h.is_finished()) {
                    drain_queue(&event_rx, &mut slots, &mut tribunal, tracer);
                    let handle = slots[id].handle.take().expect("handle present");
                    let slot = &mut slots[id];
                    match handle.join() {
                        Ok(exit) => {
                            slot.last_lamport = slot.last_lamport.max(exit.lamport);
                            if exit.forced {
                                slot.inexact.get_or_insert_with(|| {
                                    "duplicate-suppression window force-advanced".into()
                                });
                            }
                            if exit.crashed {
                                tracer.emit(|| TraceEvent::PeerCrashed {
                                    node: id,
                                    incarnation: slot.incarnation,
                                });
                                // Dead incarnations' counters travel with
                                // the lineage.
                                slot.prior_metrics.absorb(&exit.report.metrics);
                                let permanent =
                                    matches!(slot.pending_downtime.take(), Some(None) | None);
                                slot.last_death = Some(exit);
                                if permanent {
                                    slot.dead = true;
                                    slot.respawn_at = None;
                                    slot.drained = true; // vacuously: nothing left to settle
                                }
                            } else {
                                // Clean exit (a retiree with nothing left
                                // to hand off, or the events channel went
                                // away): final state; finalization folds
                                // its metrics into the lineage total.
                                slot.final_exit = Some(exit);
                                slot.drained = true;
                            }
                        }
                        Err(payload) => {
                            slot.panicked(payload);
                            slot.pending_downtime = None;
                            // Try to recover it immediately from the last
                            // checkpoint; the respawn fails gracefully on
                            // nets that cannot mint replacement endpoints.
                            slot.respawn_at = Some(Instant::now());
                        }
                    }
                }
            }
            // Respawns.
            for id in 0..slots.len() {
                let due = slots[id].respawn_at.is_some_and(|t| Instant::now() >= t);
                if !due || slots[id].handle.is_some() || slots[id].dead {
                    continue;
                }
                let inc = slots[id].incarnation.wrapping_add(1);
                let (node, mut restore) = match &slots[id].last_ckpt {
                    Some(c) => (
                        ClassifierNode::from_classification(
                            Arc::clone(&instance),
                            c.classification.clone(),
                        ),
                        c.restore.clone(),
                    ),
                    None => (
                        ClassifierNode::new(Arc::clone(&instance), seed_value(id), config.quantum),
                        RestoreState::default(),
                    ),
                };
                restore.incarnation = inc;
                // The clock must not rewind: the death receipt's final
                // clock dominates whatever the checkpoint recorded.
                restore.lamport = restore.lamport.max(slots[id].last_lamport) + 1;
                // The supervisor's conviction record dominates whatever
                // the checkpoint knew — convictions never roll back.
                restore.convicted = tribunal.convicted_ids();
                match net.endpoint(id, inc) {
                    Ok(endpoint) => {
                        // The restore is now real: everything the dead
                        // incarnation did since that checkpoint is void.
                        let slot = &mut slots[id];
                        if let Some(death) = slot.last_death.take() {
                            slot.void(id, slot.incarnation, death.logs, tracer);
                        }
                        let (ctrl, handle) = spawn(id, node, endpoint, false, restore);
                        slot.ctrl = ctrl;
                        slot.handle = Some(handle);
                        slot.incarnation = inc;
                        slot.restarts += 1;
                        slot.respawn_at = None;
                        slot.drained = false;
                        tracer.emit(|| TraceEvent::PeerRestarted {
                            node: id,
                            incarnation: inc,
                        });
                        tracer.emit(|| TraceEvent::FaultHealed {
                            kind: "crash".into(),
                            node: Some(id),
                            at: epoch.elapsed().as_secs_f64(),
                        });
                        if quiescing {
                            let _ = slot.ctrl.send(Ctrl::Quiesce);
                        }
                        if slot.retiring {
                            // The leave outlives the crash: the new
                            // incarnation resumes its retirement.
                            let _ = slot.ctrl.send(Ctrl::Retire);
                        }
                    }
                    Err(e) => {
                        let slot = &mut slots[id];
                        slot.dead = true;
                        slot.respawn_at = None;
                        slot.drained = true;
                        slot.error.get_or_insert(format!("respawn failed: {e}"));
                    }
                }
            }
            let idle_span = sup_prof.span(Phase::IdleWait);
            let received = event_rx.recv_timeout(Duration::from_millis(5));
            drop(idle_span);
            match received {
                Ok(ev) => {
                    handle_event(ev, &mut slots, &mut tribunal, tracer);
                    true
                }
                Err(RecvTimeoutError::Timeout) => true,
                Err(RecvTimeoutError::Disconnected) => false,
            }
        }};
    }

    // Gossip phase: watch dispersion until it holds under tol, after the
    // fault schedule has fully played out.
    let mut first_stable: Option<Instant> = None;
    let mut converged_after: Option<Duration> = None;
    // Supervisor-side telemetry is throttled to the status interval so a
    // busy cluster does not flood the sink with one sample per loop turn.
    let mut last_telemetry: Option<Instant> = None;
    let deadline = epoch + config.max_wall;
    while Instant::now() < deadline {
        if !supervise!() {
            break;
        }
        let schedule_done = next_crash >= crash_schedule.len()
            && next_join >= join_schedule.len()
            && next_leave >= leave_schedule.len()
            && epoch.elapsed() >= horizon
            && slots
                .iter()
                .all(|s| s.handle.is_some() || s.dead || s.retiring);
        if !schedule_done {
            first_stable = None;
            continue;
        }
        // Convicted nodes are quarantined out of the output, and retiring
        // nodes are on their way out: neither counts toward (or against)
        // convergence.
        let counted =
            |id: NodeId, s: &Slot<I::Summary>| !s.dead && !s.retiring && !tribunal.is_convicted(id);
        let live: Vec<&Classification<I::Summary>> = slots
            .iter()
            .enumerate()
            .filter(|(id, s)| counted(*id, s))
            .filter_map(|(_, s)| s.latest.as_ref())
            .collect();
        let counted_nodes = slots
            .iter()
            .enumerate()
            .filter(|(id, s)| counted(*id, s))
            .count();
        if live.len() == counted_nodes && !live.is_empty() {
            let disp = convergence::dispersion(instance.as_ref(), live.iter().copied());
            if tracer.enabled()
                && last_telemetry.is_none_or(|t| t.elapsed() >= config.status_interval)
            {
                last_telemetry = Some(Instant::now());
                tracer.emit(|| TraceEvent::ClusterTelemetry {
                    elapsed_ms: epoch.elapsed().as_secs_f64() * 1e3,
                    live: live.len(),
                    dispersion: disp,
                    unix_ms: unix_ms_now(),
                });
            }
            if let Some(h) = &health {
                h.set_round(epoch.elapsed().as_millis() as u64);
            }
            if disp <= config.tol {
                let since = *first_stable.get_or_insert_with(Instant::now);
                if since.elapsed() >= config.stable_window {
                    converged_after = Some(epoch.elapsed());
                    break;
                }
            } else {
                first_stable = None;
            }
        }
    }

    // Drain phase: quiesce, then wait for every peer to settle its sends.
    quiescing = true;
    if let Some(h) = &health {
        h.set_quiesced();
    }
    for slot in &slots {
        let _ = slot.ctrl.send(Ctrl::Quiesce);
    }
    let drain_deadline = Instant::now() + config.drain_wall;
    while !slots.iter().all(|s| s.drained) && Instant::now() < drain_deadline {
        if !supervise!() {
            break;
        }
    }
    let drained_all = slots.iter().all(|s| s.drained);

    // Snapshot: stop everyone and collect final reports. Draining the
    // queue after the joins folds any last checkpoint batches (they are
    // durable — the movements happened and were never rolled back).
    for slot in &slots {
        let _ = slot.ctrl.send(Ctrl::Exit);
    }
    for slot in &mut slots {
        if let Some(handle) = slot.handle.take() {
            match handle.join() {
                Ok(exit) => slot.final_exit = Some(exit),
                Err(payload) => slot.panicked(payload),
            }
        }
    }
    drain_queue(&event_rx, &mut slots, &mut tribunal, tracer);
    drop(event_tx);

    let mut nodes: Vec<NodeReport<I::Summary>> = Vec::with_capacity(n_total);
    let mut ledger = Ledger {
        initial_grains: n as u64 * config.quantum.grains_per_unit(),
        nodes: Vec::with_capacity(n_total),
        crash_events,
    };
    for (id, slot) in slots.iter_mut().enumerate() {
        if !slot.spawned {
            // A scripted join whose time never arrived (the run ended
            // first): nothing entered the books, so it contributes zeros.
            ledger.nodes.push(NodeLedger {
                final_grains: Some(0),
                ..NodeLedger::default()
            });
            nodes.push(NodeReport {
                id,
                classification: Classification::default(),
                metrics: RuntimeMetrics::default(),
                last_merge: None,
                undelivered: 0,
                restarts: 0,
                outcome: NodeOutcome::Dead,
                error: Some("scripted join never executed: run ended before its time".into()),
            });
        } else if let Some(exit) = slot.final_exit.take() {
            let mut metrics = slot.prior_metrics;
            metrics.absorb(&exit.report.metrics);
            if exit.forced {
                slot.inexact
                    .get_or_insert_with(|| "duplicate-suppression window force-advanced".into());
            }
            let final_grains = exit.report.classification.total_weight().grains();
            // Every spawned node — joiners included — physically starts
            // with one unit; the joiner's *declared* injection only
            // matters at cluster level, where initial mass stays n×gpu.
            let ledger_ok = (slot.restarts == 0 && slot.error.is_none()).then(|| {
                let m = &exit.report.metrics;
                final_grains as i128
                    == config.quantum.grains_per_unit() as i128 - m.grains_split as i128
                        + m.grains_merged as i128
                        + m.grains_returned as i128
                        + m.grains_injected as i128
                        - m.grains_forgotten as i128
            });
            let mut durable = std::mem::take(&mut slot.durable);
            durable.absorb(exit.logs);
            ledger.nodes.push(NodeLedger {
                final_grains: Some(final_grains),
                injected_grains: durable.injected,
                forgotten_grains: durable.forgotten,
                durable,
                voided: std::mem::take(&mut slot.voided),
                perm_loss_grains: 0,
                perm_pendings: Vec::new(),
                exit_pendings: exit.pendings,
                trackers: exit.trackers,
                inexact: slot.inexact.clone(),
                ledger_ok,
            });
            nodes.push(NodeReport {
                metrics,
                restarts: slot.restarts,
                outcome: if slot.retiring {
                    NodeOutcome::Retired
                } else {
                    NodeOutcome::Completed
                },
                error: slot.error.clone(),
                ..exit.report
            });
        } else if let Some(death) = slot.last_death.take() {
            // Permanently crashed (or down awaiting a respawn that never
            // came): the death receipt is the loss accounting. Its
            // since-checkpoint logs are neither durable nor voided —
            // nothing was restored, so the movements simply died with the
            // node, inside its final classification.
            let perm_grains = death.report.classification.total_weight().grains();
            // The receipt's since-checkpoint drift terms are counted —
            // the injected mass sits inside `perm_loss_grains`, so
            // without the credit the books would show a phantom deficit.
            let injected_grains = slot.durable.injected + death.logs.injected;
            let forgotten_grains = slot.durable.forgotten + death.logs.forgotten;
            ledger.nodes.push(NodeLedger {
                final_grains: None,
                durable: std::mem::take(&mut slot.durable),
                voided: std::mem::take(&mut slot.voided),
                perm_loss_grains: perm_grains,
                injected_grains,
                forgotten_grains,
                perm_pendings: death.pendings.clone(),
                exit_pendings: Vec::new(),
                trackers: death.trackers,
                inexact: slot.inexact.clone(),
                ledger_ok: None,
            });
            nodes.push(NodeReport {
                id,
                classification: death.report.classification,
                metrics: slot.prior_metrics,
                last_merge: death.report.last_merge,
                undelivered: death.pendings.len(),
                restarts: slot.restarts,
                outcome: if slot.error.is_some() {
                    NodeOutcome::Panicked
                } else {
                    NodeOutcome::Dead
                },
                error: slot.error.clone(),
            });
        } else {
            // Panicked with no receipt and no respawn: best-effort report
            // from the last checkpoint (or the initial reading); the
            // ledger is inexact by construction.
            let classification = match &slot.last_ckpt {
                Some(c) => c.classification.clone(),
                None => ClassifierNode::new(Arc::clone(&instance), seed_value(id), config.quantum)
                    .classification()
                    .clone(),
            };
            slot.inexact
                .get_or_insert_with(|| "node lost without a death receipt".into());
            let durable = std::mem::take(&mut slot.durable);
            ledger.nodes.push(NodeLedger {
                final_grains: None,
                injected_grains: durable.injected,
                forgotten_grains: durable.forgotten,
                durable,
                voided: std::mem::take(&mut slot.voided),
                perm_loss_grains: classification.total_weight().grains(),
                perm_pendings: Vec::new(),
                exit_pendings: Vec::new(),
                trackers: Default::default(),
                inexact: slot.inexact.clone(),
                ledger_ok: None,
            });
            nodes.push(NodeReport {
                id,
                classification,
                metrics: slot.prior_metrics,
                last_merge: None,
                undelivered: 0,
                restarts: slot.restarts,
                outcome: NodeOutcome::Panicked,
                error: slot.error.clone(),
            });
        }
    }
    nodes.sort_by_key(|r| r.id);
    for r in &nodes {
        tracer.emit(|| TraceEvent::PeerFinal {
            node: r.id,
            outcome: match r.outcome {
                NodeOutcome::Completed => "completed".into(),
                NodeOutcome::Dead => "dead".into(),
                NodeOutcome::Panicked => "panicked".into(),
                NodeOutcome::Retired => "retired".into(),
            },
            grains: r.classification.total_weight().grains(),
        });
    }

    // Convicted nodes still hold real grains (conservation counts them),
    // but their classifications are quarantined out of the agreement
    // figure — the cluster's output is its honest nodes' output.
    let final_dispersion = {
        let honest = |r: &&NodeReport<I::Summary>| {
            r.outcome == NodeOutcome::Completed && !tribunal.is_convicted(r.id)
        };
        let live = nodes.iter().filter(honest).map(|r| &r.classification);
        if nodes.iter().filter(honest).count() > 0 {
            convergence::dispersion(instance.as_ref(), live)
        } else {
            f64::INFINITY
        }
    };
    let byz_active = config.adversaries.is_some() || config.defense.is_some();
    if byz_active {
        for r in &nodes {
            tracer.emit(|| TraceEvent::PeerBandwidth {
                node: r.id,
                bytes: r
                    .metrics
                    .bytes_sent
                    .saturating_add(r.metrics.bytes_received),
                audit_bytes: r.metrics.audit_bytes,
            });
        }
    }
    let audit = config.audit.then(|| {
        let _audit_span = sup_prof.span(Phase::Audit);
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
    // Best effort: a sink that cannot flush (e.g. a full disk) must not
    // turn a finished run into a panic; the CLI reports flush errors when
    // it owns the sink.
    let _ = tracer.flush();

    // Every peer thread has joined (their thread profiles finalized on
    // exit) and the supervisor's is finalized by this drop, so the
    // snapshot's accounting identities hold for every thread.
    drop(sup_prof);
    let profile = config.profiler.core().map(|core| core.snapshot());

    ClusterReport {
        converged: converged_after.is_some(),
        drained: drained_all,
        converged_after,
        wall: epoch.elapsed(),
        final_dispersion,
        audit,
        convicted: tribunal.convicted_ids(),
        profile,
        nodes,
    }
}

/// The endpoint count a net must be sized for: the seed nodes plus every
/// scripted churn joiner.
fn cluster_size(topology: &Topology, config: &ClusterConfig) -> usize {
    topology.len() + config.churn.as_ref().map_or(0, |c| c.joins.len())
}

/// Runs a cluster of `topology.len()` peers over caller-provided
/// transports; blocks until shutdown and returns the final report.
/// Churn joins are likewise unsupported here (a prebuilt net cannot mint
/// a joiner's endpoint); a scripted join fails gracefully with an error
/// on its slot.
///
/// `values[i]` is node `i`'s input reading; `transports[i]` its endpoint.
/// Prebuilt transports cannot be re-minted, so crash recovery is
/// unavailable on this path: a panicked peer is reported as
/// [`NodeOutcome::Panicked`] rather than respawned. Use
/// [`run_cluster_with_faults`] with an [`EndpointNet`] for supervision.
///
/// # Panics
///
/// Panics if `values` or `transports` disagree with the topology size.
pub fn run_cluster<I, T>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    transports: Vec<T>,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
    T: Transport,
{
    assert_eq!(transports.len(), topology.len(), "one transport per node");
    run_cluster_core(
        topology,
        instance,
        values,
        PrebuiltNet::new(transports),
        Arc::new(FaultPlan::new(config.seed)),
        config,
    )
}

/// Runs a supervised cluster: endpoints minted by `net` (so crashed
/// peers can be respawned from their checkpoints) under the scripted
/// fault `plan`.
pub fn run_cluster_with_faults<I, N>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    net: N,
    plan: &FaultPlan,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
    N: EndpointNet,
{
    run_cluster_core(
        topology,
        instance,
        values,
        net,
        Arc::new(plan.clone()),
        config,
    )
}

/// [`run_cluster_with_faults`] over reliable in-process channels.
pub fn run_chaos_channel_cluster<I>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    plan: &FaultPlan,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
{
    let net = ChannelNet::new(cluster_size(topology, config));
    run_cluster_with_faults(topology, instance, values, net, plan, config)
}

/// [`run_cluster`] over reliable in-process channels.
pub fn run_channel_cluster<I>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
{
    let net = ChannelNet::new(cluster_size(topology, config));
    run_cluster_core(
        topology,
        instance,
        values,
        net,
        Arc::new(FaultPlan::new(config.seed)),
        config,
    )
}

/// [`run_cluster`] over in-process channels that drop each data frame with
/// probability `loss` — exercises the ack/retry layer end to end.
pub fn run_lossy_channel_cluster<I>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    loss: f64,
    config: &ClusterConfig,
) -> ClusterReport<I::Summary>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
{
    let net = ChannelNet::with_loss(cluster_size(topology, config), loss, config.seed);
    run_cluster_core(
        topology,
        instance,
        values,
        net,
        Arc::new(FaultPlan::new(config.seed)),
        config,
    )
}

/// [`run_cluster`] over real UDP sockets on loopback.
///
/// # Errors
///
/// Propagates socket binding failures.
pub fn run_udp_cluster<I>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    config: &ClusterConfig,
) -> io::Result<ClusterReport<I::Summary>>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
{
    let net = UdpNet::bind_cluster(cluster_size(topology, config))?;
    Ok(run_cluster_core(
        topology,
        instance,
        values,
        net,
        Arc::new(FaultPlan::new(config.seed)),
        config,
    ))
}

/// [`run_cluster_with_faults`] over real UDP sockets on loopback: a
/// respawned peer rebinds its dead incarnation's port.
///
/// # Errors
///
/// Propagates socket binding failures.
pub fn run_chaos_udp_cluster<I>(
    topology: &Topology,
    instance: Arc<I>,
    values: &[I::Value],
    plan: &FaultPlan,
    config: &ClusterConfig,
) -> io::Result<ClusterReport<I::Summary>>
where
    I: Instance + Send + Sync + 'static,
    I::Summary: WireSummary + Send + 'static,
{
    let net = UdpNet::bind_cluster(cluster_size(topology, config))?;
    Ok(run_cluster_with_faults(
        topology, instance, values, net, plan, config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(55),
            max_retries: 5,
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(55));
        assert_eq!(p.backoff(60), Duration::from_millis(55));
    }

    #[test]
    fn backoff_attempt_zero_is_the_base_wait() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), p.base);
        assert_eq!(p.backoff(1), p.base);
    }

    #[test]
    fn backoff_saturates_past_thirty_two_attempts() {
        // The doubling exponent is clamped at 16, so attempt counts past
        // the shift width neither overflow nor panic — they pin at cap.
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_secs(3600),
            max_retries: u32::MAX,
        };
        assert_eq!(p.backoff(17), Duration::from_millis(1 << 16));
        assert_eq!(p.backoff(32), Duration::from_millis(1 << 16));
        assert_eq!(p.backoff(33), Duration::from_millis(1 << 16));
        assert_eq!(p.backoff(u32::MAX), Duration::from_millis(1 << 16));
    }

    #[test]
    fn backoff_cap_clamps_even_a_saturated_factor() {
        let p = RetryPolicy {
            base: Duration::from_secs(1),
            cap: Duration::from_millis(1),
            max_retries: 1,
        };
        // base > cap: every attempt, including the first, clamps to cap.
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(64), Duration::from_millis(1));
        // And a base large enough to overflow the multiply saturates
        // instead of wrapping, then clamps.
        let p = RetryPolicy {
            base: Duration::from_secs(u64::MAX / 2),
            cap: Duration::from_secs(5),
            max_retries: 1,
        };
        assert_eq!(p.backoff(20), Duration::from_secs(5));
    }

    #[test]
    fn default_config_is_sane() {
        let c = ClusterConfig::default();
        assert!(c.tick > Duration::ZERO);
        assert!(c.tol > 0.0);
        assert!(c.max_wall > c.stable_window);
        assert!(c.checkpoint_interval > Duration::ZERO);
        assert!(!c.audit);
    }
}
