use std::fmt;

use distclass_linalg::{merge_moments, Cholesky, Matrix, Moments, Vector};

use crate::classification::Classification;
use crate::em::{self, EmConfig};
use crate::error::CoreError;
use crate::instance::{greedy_partition, merge_quantum_singletons, Instance, MixtureSummary};
use crate::mixture::MixtureVector;

/// The natural logarithm of 2π.
const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// A Gaussian collection summary: the weighted mean `μ` and covariance `Σ`
/// of the collection's values. Together with the collection weight this is
/// a weighted Gaussian; a classification of such collections is a Gaussian
/// Mixture (§5.1).
///
/// # Example
///
/// ```
/// use distclass_core::GaussianSummary;
/// use distclass_linalg::{Matrix, Vector};
///
/// let g = GaussianSummary::new(Vector::from(vec![0.0, 0.0]), Matrix::identity(2));
/// let at_mean = g.log_pdf(&Vector::from(vec![0.0, 0.0]), 0.0)?;
/// let away = g.log_pdf(&Vector::from(vec![3.0, 0.0]), 0.0)?;
/// assert!(at_mean > away);
/// # Ok::<(), distclass_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianSummary {
    /// The collection's weighted mean.
    pub mean: Vector,
    /// The collection's weighted covariance (may be singular, e.g. for a
    /// singleton collection it is all zeros).
    pub cov: Matrix,
}

impl GaussianSummary {
    /// Creates a summary from an explicit mean and covariance.
    ///
    /// # Panics
    ///
    /// Panics if `cov` is not square with side `mean.dim()`.
    pub fn new(mean: Vector, cov: Matrix) -> Self {
        assert!(
            cov.rows() == mean.dim() && cov.cols() == mean.dim(),
            "covariance shape does not match mean dimension"
        );
        GaussianSummary { mean, cov }
    }

    /// The summary of a singleton collection: mean = the value, `Σ = 0`.
    pub fn from_point(point: &Vector) -> Self {
        let d = point.dim();
        GaussianSummary {
            mean: point.clone(),
            cov: Matrix::zeros(d, d),
        }
    }

    /// The dimension of the value space.
    pub fn dim(&self) -> usize {
        self.mean.dim()
    }

    /// The log-density of `N(mean, cov + reg·I)` at `x`.
    ///
    /// `reg` regularizes singular covariances (pass `0.0` for an exact
    /// density of a full-rank Gaussian); an escalating jitter is applied on
    /// top when factorization still fails.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmFailed`] when the covariance cannot be
    /// factorized even with jitter.
    pub fn log_pdf(&self, x: &Vector, reg: f64) -> Result<f64, CoreError> {
        self.log_pdf_factored(&self.density_factor(reg)?, x)
    }

    /// Factorizes `cov + reg·I`, with jitter as in
    /// [`GaussianSummary::log_pdf`], once: [`GaussianSummary::log_pdf_factored`]
    /// then evaluates the density at any number of points.
    ///
    /// # Errors
    ///
    /// Same as [`GaussianSummary::log_pdf`].
    pub fn density_factor(&self, reg: f64) -> Result<Cholesky, CoreError> {
        let mut cov = self.cov.clone();
        if reg > 0.0 {
            cov.add_diagonal(reg);
        }
        cov.cholesky_with_jitter(1e-12, 40)
            .map_err(|e| CoreError::EmFailed {
                reason: format!("covariance factorization failed: {e}"),
            })
    }

    /// The log-density at `x`, given `factor` from
    /// [`GaussianSummary::density_factor`]`(reg)`: the value
    /// [`GaussianSummary::log_pdf`]`(x, reg)` returns.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmFailed`] when `x` has the wrong dimension.
    pub fn log_pdf_factored(&self, factor: &Cholesky, x: &Vector) -> Result<f64, CoreError> {
        let maha = factor
            .mahalanobis_sq(x, &self.mean)
            .map_err(|e| CoreError::EmFailed {
                reason: format!("dimension mismatch in log_pdf: {e}"),
            })?;
        let d = self.dim() as f64;
        Ok(-0.5 * (d * LN_2PI + factor.log_det() + maha))
    }

    /// The density of `N(mean, cov + reg·I)` at `x`.
    ///
    /// # Errors
    ///
    /// Same as [`GaussianSummary::log_pdf`].
    pub fn pdf(&self, x: &Vector, reg: f64) -> Result<f64, CoreError> {
        Ok(self.log_pdf(x, reg)?.exp())
    }

    /// `true` when mean and covariance are elementwise within `tol`.
    pub fn approx_eq(&self, other: &GaussianSummary, tol: f64) -> bool {
        self.mean.approx_eq(&other.mean, tol) && self.cov.approx_eq(&other.cov, tol)
    }
}

impl fmt::Display for GaussianSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N(μ={}, tr Σ={:.6})", self.mean, self.cov.trace())
    }
}

/// How [`GmInstance::partition`] reduces an over-full mixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Expectation-Maximization mixture reduction (§5.2, the paper's
    /// choice; covariance-aware).
    #[default]
    Em,
    /// Greedy closest-pair merging by mean distance (Algorithm 2's
    /// centroid strategy applied to Gaussians) — the ablation baseline,
    /// blind to covariance.
    Greedy,
}

/// The Gaussian-Mixture instantiation of the generic algorithm (§5):
/// collections are weighted Gaussians, classifications are Gaussian
/// Mixtures, and `partition` reduces an over-full mixture with
/// Expectation Maximization.
///
/// The summary distance `d_S` is the distance between means, as in the
/// centroid instance (the paper defines `d_S` identically for both).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use distclass_core::{ClassifierNode, GmInstance, Quantum};
/// use distclass_linalg::Vector;
///
/// let inst = Arc::new(GmInstance::new(2)?);
/// let mut node = ClassifierNode::new(inst, &Vector::from(vec![0.0, 1.0]), Quantum::default());
/// assert_eq!(node.classification().len(), 1);
/// # Ok::<(), distclass_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GmInstance {
    k: usize,
    em: EmConfig,
    strategy: PartitionStrategy,
}

impl GmInstance {
    /// Creates a GM instance with collection bound `k` and default EM
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidK`] if `k == 0`.
    pub fn new(k: usize) -> Result<Self, CoreError> {
        Self::with_em_config(k, EmConfig::default())
    }

    /// Creates a GM instance with an explicit EM configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidK`] if `k == 0`.
    pub fn with_em_config(k: usize, em: EmConfig) -> Result<Self, CoreError> {
        if k == 0 {
            return Err(CoreError::InvalidK { k });
        }
        Ok(GmInstance {
            k,
            em,
            strategy: PartitionStrategy::Em,
        })
    }

    /// Selects the partition strategy (builder style); the default is EM.
    pub fn with_partition_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The EM configuration used by `partition`.
    pub fn em_config(&self) -> &EmConfig {
        &self.em
    }

    /// The active partition strategy.
    pub fn partition_strategy(&self) -> PartitionStrategy {
        self.strategy
    }
}

impl Instance for GmInstance {
    type Value = Vector;
    type Summary = GaussianSummary;

    fn k(&self) -> usize {
        self.k
    }

    fn val_to_summary(&self, val: &Vector) -> GaussianSummary {
        GaussianSummary::from_point(val)
    }

    fn merge_set(&self, parts: &[(&GaussianSummary, f64)]) -> GaussianSummary {
        assert!(!parts.is_empty(), "merge_set of empty set");
        let Moments { mean, cov, .. } =
            merge_moments(parts.iter().map(|&(s, w)| (w, &s.mean, &s.cov)))
                .expect("non-empty positive-weight merge");
        GaussianSummary { mean, cov }
    }

    fn partition(&self, big: &Classification<GaussianSummary>) -> Vec<Vec<usize>> {
        if big.len() <= self.k {
            // Nothing to compress; only restriction (2) must be enforced.
            let mut groups: Vec<Vec<usize>> = (0..big.len()).map(|i| vec![i]).collect();
            merge_quantum_singletons(self, big, &mut groups);
            return groups;
        }
        if self.strategy == PartitionStrategy::Greedy {
            return greedy_partition(self, big);
        }
        match em::groups(big.collections(), self.k, &self.em) {
            Ok(mut groups) => {
                merge_quantum_singletons(self, big, &mut groups);
                groups
            }
            // EM can fail on pathological inputs (e.g. all-identical
            // means); greedy merging is always well defined.
            Err(_) => greedy_partition(self, big),
        }
    }

    fn summary_distance(&self, a: &GaussianSummary, b: &GaussianSummary) -> f64 {
        a.mean.distance(&b.mean)
    }

    fn value_from_components(&self, components: &[f64]) -> Option<Vector> {
        Some(Vector::from(components.to_vec()))
    }
}

impl MixtureSummary for GmInstance {
    fn summarize_mixture(&self, values: &[Vector], mixture: &MixtureVector) -> GaussianSummary {
        assert_eq!(values.len(), mixture.len(), "mixture length mismatch");
        // Each value is a point: its covariance is zero.
        let d = values.first().map_or(0, Vector::dim);
        let zero = Matrix::zeros(d, d);
        let parts = values
            .iter()
            .zip(mixture.components())
            .filter(|&(_, &w)| w > 0.0)
            .map(|(v, &w)| (w, v, &zero));
        let Moments { mean, cov, .. } =
            merge_moments(parts).expect("a non-empty mixture of values of one dimension");
        GaussianSummary { mean, cov }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::weight::Weight;

    #[test]
    fn from_point_is_degenerate() {
        let g = GaussianSummary::from_point(&Vector::from([1.0, 2.0]));
        assert_eq!(g.mean.as_slice(), &[1.0, 2.0]);
        assert_eq!(g.cov, Matrix::zeros(2, 2));
        assert_eq!(g.dim(), 2);
    }

    #[test]
    fn log_pdf_standard_normal_at_origin() {
        let g = GaussianSummary::new(Vector::zeros(2), Matrix::identity(2));
        let lp = g.log_pdf(&Vector::zeros(2), 0.0).unwrap();
        assert!((lp - (-LN_2PI)).abs() < 1e-12); // −(d/2)·ln 2π with d = 2
    }

    #[test]
    fn pdf_decreases_with_distance() {
        let g = GaussianSummary::new(Vector::zeros(1), Matrix::identity(1));
        let p0 = g.pdf(&Vector::from([0.0]), 0.0).unwrap();
        let p2 = g.pdf(&Vector::from([2.0]), 0.0).unwrap();
        assert!(p0 > p2);
        assert!((p0 - 1.0 / (2.0 * std::f64::consts::PI).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn log_pdf_of_degenerate_cov_uses_jitter() {
        let g = GaussianSummary::from_point(&Vector::from([1.0]));
        // Still produces a (very sharp) finite density.
        let lp = g.log_pdf(&Vector::from([1.0]), 0.0).unwrap();
        assert!(lp.is_finite());
    }

    #[test]
    fn merge_set_matches_moments_of_union() {
        let inst = GmInstance::new(2).unwrap();
        let a = GaussianSummary::from_point(&Vector::from([0.0]));
        let b = GaussianSummary::from_point(&Vector::from([2.0]));
        let m = inst.merge_set(&[(&a, 1.0), (&b, 1.0)]);
        assert!((m.mean[0] - 1.0).abs() < 1e-12);
        assert!((m.cov[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_identity_when_under_k() {
        let inst = GmInstance::new(3).unwrap();
        let big: Classification<GaussianSummary> = [0.0, 5.0]
            .iter()
            .map(|&x| {
                Collection::new(
                    GaussianSummary::from_point(&Vector::from([x])),
                    Weight::from_grains(4),
                )
            })
            .collect();
        let groups = inst.partition(&big);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn partition_reduces_overfull_mixture() {
        let inst = GmInstance::new(2).unwrap();
        // Two tight clusters of Gaussians: {0, 0.2, 0.4} and {10, 10.2}.
        let big: Classification<GaussianSummary> = [0.0, 0.2, 0.4, 10.0, 10.2]
            .iter()
            .map(|&x| {
                Collection::new(
                    GaussianSummary::from_point(&Vector::from([x])),
                    Weight::from_grains(8),
                )
            })
            .collect();
        let groups = inst.partition(&big);
        assert_eq!(groups.len(), 2);
        let g_of = |i: usize| groups.iter().position(|g| g.contains(&i)).unwrap();
        assert_eq!(g_of(0), g_of(1));
        assert_eq!(g_of(1), g_of(2));
        assert_eq!(g_of(3), g_of(4));
        assert_ne!(g_of(0), g_of(3));
    }

    #[test]
    fn non_finite_covariance_fails_em_and_partition_falls_back_to_greedy() {
        let inst = GmInstance::new(2).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let big: Classification<GaussianSummary> = [0.0, 0.2, 0.4, 10.0, 10.2]
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let mut s = GaussianSummary::from_point(&Vector::from([x, x]));
                    if i == 1 {
                        s.cov[(0, 0)] = bad;
                    }
                    Collection::new(s, Weight::from_grains(8))
                })
                .collect();
            assert!(matches!(
                em::reduce(big.collections(), 2, inst.em_config()),
                Err(CoreError::EmFailed { .. })
            ));
            let groups = inst.partition(&big);
            assert_eq!(groups, greedy_partition(&inst, &big), "cov[0][0] = {bad}");
            assert!(groups.len() <= 2);
            let mut all = groups.concat();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn summarize_mixture_r2_and_variance() {
        let inst = GmInstance::new(2).unwrap();
        let values = vec![Vector::from([0.0]), Vector::from([2.0])];
        // R2: basis vector gives the singleton summary.
        let f_e0 = inst.summarize_mixture(&values, &MixtureVector::basis(2, 0));
        assert!(f_e0.approx_eq(&inst.val_to_summary(&values[0]), 1e-12));
        // Uniform mixture gives the population moments.
        let f_all =
            inst.summarize_mixture(&values, &MixtureVector::from_components(vec![1.0, 1.0]));
        assert!((f_all.mean[0] - 1.0).abs() < 1e-12);
        assert!((f_all.cov[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_mean() {
        let g = GaussianSummary::new(Vector::zeros(1), Matrix::identity(1));
        assert!(format!("{g}").contains("N(μ="));
    }

    #[test]
    fn gm_instance_validates_k() {
        assert!(matches!(
            GmInstance::new(0),
            Err(CoreError::InvalidK { .. })
        ));
    }
}
