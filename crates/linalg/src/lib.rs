#![warn(missing_docs)]
//! Small dense linear algebra for the `distclass` workspace.
//!
//! The Gaussian-Mixture instantiation of the distributed classification
//! algorithm needs exactly the operations implemented here: `d`-dimensional
//! vectors, symmetric `d × d` covariance matrices, Cholesky factorization
//! (for determinants, solves and multivariate-normal densities), and
//! numerically careful *weighted moment* accumulation and merging.
//!
//! The dimension `d` of sensor readings is small (2–10 in the paper's
//! scenarios), so everything is plain dense row-major storage with no
//! attempt at blocking or SIMD; clarity and testability win.
//!
//! # Example
//!
//! ```
//! use distclass_linalg::{Matrix, Vector};
//!
//! let mu = Vector::from(vec![1.0, 2.0]);
//! let sigma = Matrix::identity(2);
//! let chol = sigma.cholesky()?;
//! assert!((chol.log_det() - 0.0).abs() < 1e-12);
//! assert_eq!(chol.solve(&mu)?, mu);
//! # Ok::<(), distclass_linalg::LinalgError>(())
//! ```

mod cholesky;
mod error;
mod matrix;
mod stats;
mod vector;

pub use cholesky::{back_substitute, cholesky_factor, forward_substitute, Cholesky};
pub use error::LinalgError;
pub use matrix::{EigenPair, Matrix};
pub use stats::{merge_moments, Moments, WeightedAccumulator};
pub use vector::Vector;
