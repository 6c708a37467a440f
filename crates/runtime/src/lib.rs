#![warn(missing_docs)]
//! Deployment runtime for the gossip classifier: real concurrent peers
//! instead of simulator callbacks.
//!
//! The simulators in [`distclass_net`] drive [`ClassifierNode`]s from a
//! single thread with perfectly reliable, free message passing. This crate
//! runs the same nodes the way a sensor deployment would:
//!
//! * each node is an OS thread with its own clock, owning one
//!   [`Transport`] endpoint — in-process mpsc channels
//!   ([`ChannelTransport`]) or real UDP datagrams ([`UdpTransport`]);
//! * classifications travel as bytes, encoded with the gossip
//!   [`codec`](distclass_gossip::codec) inside a versioned, sequenced
//!   [`frame`];
//! * links are fair-loss, so a reliability layer (acknowledgements,
//!   bounded retransmission with exponential backoff, duplicate
//!   suppression) recovers the reliable links the paper assumes in §3.1 —
//!   and when a send exhausts its retry budget, its half-classification is
//!   merged back into the sender, so the cluster-wide grain count is
//!   conserved exactly;
//! * a [`cluster`] harness spawns the peers, detects convergence by
//!   watching dispersion, then quiesces and drains the network before
//!   snapshotting every node's final classification;
//! * a deterministic [`chaos`] layer scripts faults — data
//!   loss, link partitions, delay, duplication, reordering, and per-peer
//!   crash–restart — while the harness supervises: peers checkpoint
//!   their recovery state, crashed peers are respawned as fresh
//!   incarnations from their last checkpoint, and an
//!   [`audit`] pass proves after the run that every grain
//!   is conserved or explicitly accounted for;
//! * the peer and the supervisor are clock-free cores, so the same run
//!   also executes in virtual time on one thread
//!   ([`run_sim_cluster`]), where it replays from its seed.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use distclass_core::CentroidInstance;
//! use distclass_linalg::Vector;
//! use distclass_net::Topology;
//! use distclass_runtime::{run_channel_cluster, ClusterConfig};
//!
//! // Six threads gossip readings from two sites over a ring.
//! let values: Vec<Vector> = (0..6)
//!     .map(|i| Vector::from(vec![if i % 2 == 0 { 0.0 } else { 5.0 }]))
//!     .collect();
//! let inst = Arc::new(CentroidInstance::new(2)?);
//! let config = ClusterConfig {
//!     tick: Duration::from_millis(1),
//!     tol: 0.05,
//!     stable_window: Duration::from_millis(60),
//!     ..ClusterConfig::default()
//! };
//! let report = run_channel_cluster(&Topology::ring(6), inst, &values, &config);
//!
//! // Weight is conserved to the grain and the nodes agree.
//! assert!(report.drained);
//! assert_eq!(
//!     report.total_grains(),
//!     6 * config.quantum.grains_per_unit()
//! );
//! assert!(report.final_dispersion < 0.5);
//! # Ok::<(), distclass_core::CoreError>(())
//! ```

pub mod audit;
pub mod byz;
pub mod chaos;
pub mod cluster;
pub mod dynamics;
pub mod frame;
mod metrics;
mod peer;
mod spec;
mod transport;

pub use audit::{AuditReport, FrameId};
pub use byz::{AdversaryPlan, AdversaryRole, AdversarySpecError, AttackState, DefenseConfig};
pub use chaos::{CrashEvent, DelayRule, FaultPlan, FaultSpecError, PartitionWindow};
pub use cluster::{
    check_plan_nodes, run_channel_cluster, run_cluster_with_faults, run_sim_cluster, ClusterConfig,
    ClusterReport, NodeOutcome, NodeReport, PlanNodeError, RetryPolicy,
};
pub use dynamics::{ChurnPlan, DriftEvent, DriftSchedule, DynSpecError, JoinEvent, LeaveEvent};
pub use metrics::RuntimeMetrics;
pub use spec::{MAX_CLAUSE_EVENTS, MAX_SPEC_NODES};
pub use transport::{
    ChannelNet, ChannelTransport, EndpointNet, PrebuiltNet, Transport, UdpNet, UdpTransport,
};

// Re-exported so doc links resolve and downstream code can name the node
// type without an extra dependency edge.
#[doc(no_inline)]
pub use distclass_core::ClassifierNode;
