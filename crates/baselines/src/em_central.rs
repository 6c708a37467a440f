//! Centralized EM Gaussian-Mixture fitting — the classical algorithm whose
//! distributed analogue is the GM instance. A thin, documented wrapper
//! around [`distclass_core::em::fit_points`] plus a mixture
//! log-likelihood, used by tests and experiments to compare distributed
//! results against the “all data in one place” ideal.

use distclass_core::em::{fit_points, EmConfig, EmOutcome};
use distclass_core::{CoreError, GaussianSummary};
use distclass_linalg::Vector;

/// Fits a `k`-component Gaussian Mixture to unweighted points.
///
/// # Errors
///
/// Propagates [`CoreError`] from the underlying EM.
///
/// # Example
///
/// ```
/// use distclass_baselines::em_central;
/// use distclass_core::EmConfig;
/// use distclass_linalg::Vector;
///
/// let pts: Vec<Vector> = (0..40)
///     .map(|i| {
///         let base = if i % 2 == 0 { 0.0 } else { 8.0 };
///         Vector::from(vec![base + 0.01 * (i as f64)])
///     })
///     .collect();
/// let fit = em_central::fit(&pts, 2, &EmConfig::default())?;
/// assert_eq!(fit.model.len(), 2);
/// # Ok::<(), distclass_core::CoreError>(())
/// ```
pub fn fit(points: &[Vector], k: usize, cfg: &EmConfig) -> Result<EmOutcome, CoreError> {
    let weights = vec![1.0; points.len()];
    fit_points(points, &weights, k, cfg)
}

/// The average log-likelihood of `points` under a Gaussian-Mixture model
/// given as `(component, mixing weight)` pairs.
///
/// Degenerate component covariances are regularized with `reg`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for an empty model or point set,
/// and propagates density-evaluation failures.
pub fn avg_log_likelihood(
    points: &[Vector],
    model: &[(GaussianSummary, f64)],
    reg: f64,
) -> Result<f64, CoreError> {
    if model.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "model",
            constraint: "at least one component",
        });
    }
    if points.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "points",
            constraint: "at least one point",
        });
    }
    // One factorization per component. A failed one is reported at the
    // first point, where evaluating that component fails.
    let factors: Vec<_> = model.iter().map(|(g, _)| g.density_factor(reg)).collect();
    let mut total = 0.0;
    for p in points {
        let mut density = 0.0;
        for ((g, pi), factor) in model.iter().zip(&factors) {
            let factor = factor.as_ref().map_err(Clone::clone)?;
            density += pi * g.log_pdf_factored(factor, p)?.exp();
        }
        total += density.max(1e-300).ln();
    }
    Ok(total / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vector> {
        let mut pts = Vec::new();
        for i in 0..15 {
            let t = (i as f64 - 7.0) / 10.0;
            pts.push(Vector::from([t, t * 0.5]));
            pts.push(Vector::from([10.0 + t, -t]));
        }
        pts
    }

    #[test]
    fn fit_finds_both_blobs() {
        let pts = blobs();
        let out = fit(&pts, 2, &EmConfig::default()).unwrap();
        let mut means: Vec<f64> = out.model.iter().map(|(s, _)| s.mean[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(means[0].abs() < 0.5, "means {means:?}");
        assert!((means[1] - 10.0).abs() < 0.5, "means {means:?}");
    }

    #[test]
    fn two_component_model_beats_one_component() {
        let pts = blobs();
        let m1 = fit(&pts, 1, &EmConfig::default()).unwrap();
        let m2 = fit(&pts, 2, &EmConfig::default()).unwrap();
        let ll1 = avg_log_likelihood(&pts, &m1.model, 1e-6).unwrap();
        let ll2 = avg_log_likelihood(&pts, &m2.model, 1e-6).unwrap();
        assert!(ll2 > ll1, "ll2 {ll2} should beat ll1 {ll1}");
    }

    #[test]
    fn likelihood_matches_per_point_densities_bit_for_bit() {
        let pts = blobs();
        let model = fit(&pts, 2, &EmConfig::default()).unwrap().model;
        let mut total = 0.0;
        for p in &pts {
            let mut density = 0.0;
            for (g, pi) in &model {
                density += pi * g.pdf(p, 1e-6).unwrap();
            }
            total += density.max(1e-300).ln();
        }
        let ll = avg_log_likelihood(&pts, &model, 1e-6).unwrap();
        assert_eq!(ll.to_bits(), (total / pts.len() as f64).to_bits());
    }

    #[test]
    fn likelihood_reports_the_first_failing_density() {
        let pts = blobs();
        let model = fit(&pts, 2, &EmConfig::default()).unwrap().model;
        let mut broken = model.clone();
        broken[1].0.cov[(0, 0)] = f64::NAN;
        assert_eq!(
            avg_log_likelihood(&pts, &broken, 1e-6),
            Err(broken[1].0.pdf(&pts[0], 1e-6).unwrap_err())
        );
        let flat = [Vector::from([0.0])];
        assert_eq!(
            avg_log_likelihood(&flat, &model, 1e-6),
            Err(model[0].0.pdf(&flat[0], 1e-6).unwrap_err())
        );
    }

    #[test]
    fn likelihood_validates_inputs() {
        let pts = blobs();
        assert!(matches!(
            avg_log_likelihood(&pts, &[], 1e-6),
            Err(CoreError::InvalidParameter { .. })
        ));
        let model = fit(&pts, 1, &EmConfig::default()).unwrap().model;
        assert!(matches!(
            avg_log_likelihood(&[], &model, 1e-6),
            Err(CoreError::InvalidParameter { .. })
        ));
    }
}
