//! The cluster harness: spawn, watch, quiesce, snapshot — and supervise.
//!
//! A cluster run turns a membership list into a running deployment of
//! [`ClassifierNode`](distclass_core::ClassifierNode)s, each behind the
//! peer's reliability layer, and supervises it:
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
//! events of a [`FaultPlan`], reaps peers that die — whether by injection
//! or by a genuine panic — and respawns them from their last checkpoint
//! as a fresh incarnation. Every grain movement rolled back or duplicated
//! by a restart is logged into a ledger that the auditor
//! ([`crate::audit`]) settles after the run, so conservation remains a
//! *checkable* invariant even under churn: `final = initial + declared
//! gains − declared losses`, to the grain.
//!
//! The supervisor's decisions live in a clock-free core, stepped with the
//! peer cores by one of two drivers: [`run_cluster_with_faults`] runs one
//! OS thread per peer over real transports, and [`run_sim_cluster`] runs
//! them all on the calling thread in virtual time, so a run replays from
//! its seed.

use std::sync::Arc;
use std::time::Duration;

use distclass_core::{Classification, Instance, Quantum};
use distclass_gossip::wire::WireSummary;
use distclass_net::{NodeId, Topology};
use distclass_obs::{Metrics, ProfileReport, Profiler, Tracer};

use crate::audit::AuditReport;
use crate::byz::{AdversaryPlan, DefenseConfig};
use crate::chaos::FaultPlan;
use crate::dynamics::{ChurnPlan, DriftSchedule};
use crate::metrics::RuntimeMetrics;
use crate::transport::ChannelNet;

mod sim;
mod supervisor;
mod threaded;

pub use sim::run_sim_cluster;
pub use threaded::run_cluster_with_faults;

/// The node count a run is sized for: the seed nodes plus every scripted
/// churn joiner.
fn cluster_size(topology: &Topology, config: &ClusterConfig) -> usize {
    topology.len() + config.churn.as_ref().map_or(0, |c| c.joins.len())
}

/// A plan that names a node the run will not have (see
/// [`check_plan_nodes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNodeError {
    /// The churn joiners' ids do not continue the seed ids.
    JoinIds {
        /// The seed cluster's size: the first joiner's id.
        seed_nodes: usize,
        /// The id expected next.
        expected: NodeId,
        /// The id found in its place.
        got: NodeId,
    },
    /// A plan names a node past the cluster.
    UnknownNode {
        /// `"faults"`, `"adversaries"`, `"drift"` or `"churn"`.
        plan: &'static str,
        /// The node it names.
        node: NodeId,
        /// The cluster size, seed nodes and joiners.
        nodes: usize,
    },
}

impl std::fmt::Display for PlanNodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanNodeError::JoinIds {
                seed_nodes,
                expected,
                got,
            } => write!(
                f,
                "churn join ids must be contiguous from {seed_nodes} (the cluster size); \
                 got id {got} where {expected} was expected"
            ),
            PlanNodeError::UnknownNode { plan, node, nodes } => write!(
                f,
                "{plan} names unknown node {node} (the cluster has {nodes} nodes including joiners)"
            ),
        }
    }
}

impl std::error::Error for PlanNodeError {}

/// Checks, before any peer starts, that the plans of a run with `n` seed
/// nodes name only nodes it will have. The supervisor keeps one slot per
/// seed node and churn joiner: a crash beyond them would index past the
/// slots, and a partition, adversary or drift event naming such a node
/// would silently do nothing. Joiner ids must continue the seed ids,
/// because the transports mint endpoints by id.
///
/// # Errors
///
/// The first joiner id out of sequence; else the first node past the
/// cluster, checking the fault plan's partition sides and crashes, the
/// adversaries, the drift events and the churn leaves, in that order.
pub fn check_plan_nodes(
    n: usize,
    faults: Option<&FaultPlan>,
    adversaries: Option<&AdversaryPlan>,
    drift: Option<&DriftSchedule>,
    churn: Option<&ChurnPlan>,
) -> Result<(), PlanNodeError> {
    let mut joins: Vec<NodeId> =
        churn.map_or(Vec::new(), |c| c.joins.iter().map(|j| j.node).collect());
    joins.sort_unstable();
    if let Some((i, &got)) = joins.iter().enumerate().find(|&(i, &id)| id != n + i) {
        return Err(PlanNodeError::JoinIds {
            seed_nodes: n,
            expected: n + i,
            got,
        });
    }
    let nodes = n + joins.len();
    let named: [(&str, Vec<NodeId>); 4] = [
        (
            "faults",
            faults.map_or(Vec::new(), |f| {
                let sides = f.partitions.iter().flat_map(|w| w.side.iter().copied());
                sides.chain(f.crashes.iter().map(|c| c.node)).collect()
            }),
        ),
        (
            "adversaries",
            adversaries.map_or(Vec::new(), AdversaryPlan::adversaries),
        ),
        (
            "drift",
            drift.map_or(Vec::new(), |d| d.events.iter().map(|e| e.node).collect()),
        ),
        (
            "churn",
            churn.map_or(Vec::new(), |c| c.leaves.iter().map(|l| l.node).collect()),
        ),
    ];
    for (plan, named) in named {
        if let Some(node) = named.into_iter().find(|&id| id >= nodes) {
            return Err(PlanNodeError::UnknownNode { plan, node, nodes });
        }
    }
    Ok(())
}

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
    /// Hard bound on the gossip phase (virtual time under
    /// [`run_sim_cluster`]).
    pub max_wall: Duration,
    /// Hard bound on the drain phase.
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

/// [`run_cluster_with_faults`] over reliable in-process channels, with no
/// faults injected.
///
/// # Panics
///
/// As [`run_cluster_with_faults`].
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
    let plan = FaultPlan::new(config.seed);
    run_cluster_with_faults(topology, instance, values, net, &plan, config)
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
