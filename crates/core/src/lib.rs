#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Gossip-based distributed data classification.
//!
//! A production-quality implementation of *“Distributed Data Classification
//! in Sensor Networks”* (Eyal, Keidar, Rom — PODC 2010): `n` nodes each
//! hold one input value and all of them converge, by pairwise gossip of
//! *weighted collection summaries*, to a common classification of the
//! complete data set — without ever gathering the data anywhere.
//!
//! # Architecture
//!
//! * [`ClassifierNode`] is the generic algorithm (Algorithm 1): it keeps a
//!   [`Classification`] of at most `k` [`Collection`]s, periodically splits
//!   it in half ([`ClassifierNode::split_for_send`]) and merges incoming
//!   classifications ([`ClassifierNode::receive`]).
//! * The application-specific pieces — summary domain, `valToSummary`,
//!   `mergeSet`, `partition`, `d_S` — are an [`Instance`]:
//!   * [`CentroidInstance`] summarizes collections by their centroid
//!     (Algorithm 2, a distributed k-means flavor);
//!   * [`GmInstance`] summarizes collections as Gaussians and reduces
//!     over-full mixtures with Expectation Maximization ([`em`]).
//! * Weights are quantized exactly ([`Weight`], [`Quantum`]): the system
//!   conserves total weight to the grain at all times.
//! * The auxiliary machinery of §4.2 ([`MixtureVector`], [`audit`]) lets
//!   tests verify Lemma 1 and requirements R2–R4 on live runs.
//! * [`convergence`] quantifies agreement between nodes; [`outlier`]
//!   implements the robust-average application of §5.3.2; [`theory`]
//!   instruments the convergence proof's quantities (reference angles,
//!   direction classes) on live runs.
//!
//! Transport is *not* this crate's concern: `distclass-gossip` binds nodes
//! to simulated networks, and any other message layer can do the same.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use distclass_core::{convergence, CentroidInstance, ClassifierNode, Quantum};
//! use distclass_linalg::Vector;
//!
//! // Three nodes with 1-D readings gossip around a directed cycle.
//! let inst = Arc::new(CentroidInstance::new(2)?);
//! let q = Quantum::new(1 << 16);
//! let mut nodes: Vec<ClassifierNode<CentroidInstance>> = [1.0_f64, 2.0, 9.0]
//!     .iter()
//!     .map(|&x| ClassifierNode::new(Arc::clone(&inst), &Vector::from(vec![x]), q))
//!     .collect();
//!
//! for _ in 0..64 {
//!     for i in 0..3 {
//!         let msg = nodes[i].split_for_send();
//!         nodes[(i + 1) % 3].receive(msg);
//!     }
//! }
//! let cls: Vec<_> = nodes.iter().map(|n| n.classification().clone()).collect();
//! assert!(convergence::dispersion(inst.as_ref(), cls.iter()) < 0.5);
//! # Ok::<(), distclass_core::CoreError>(())
//! ```

pub mod audit;
mod centroid;
mod classification;
mod collection;
pub mod convergence;
pub mod em;
mod error;
mod gaussian;
mod instance;
mod mixture;
mod node;
pub mod outlier;
pub mod theory;
mod weight;

pub use centroid::CentroidInstance;
pub use classification::Classification;
pub use collection::Collection;
pub use em::{EmConfig, EmOutcome};
pub use error::CoreError;
pub use gaussian::{GaussianSummary, GmInstance, PartitionStrategy};
pub use instance::{greedy_partition, merge_quantum_singletons, Instance, MixtureSummary};
pub use mixture::MixtureVector;
pub use node::ClassifierNode;
pub use weight::{Quantum, Weight};
