use crate::{LinalgError, Matrix, Vector};

/// First and second moments of a weighted point set: total weight `w`,
/// mean `μ` and covariance `Σ`.
///
/// This is exactly the information a Gaussian collection summary carries,
/// and the paper's `mergeSet` for Gaussian Mixtures is [`merge_moments`].
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    /// Total weight of the point set (must be positive).
    pub weight: f64,
    /// Weighted mean.
    pub mean: Vector,
    /// Weighted covariance (population convention, i.e. divide by total
    /// weight, not `w − 1`).
    pub cov: Matrix,
}

impl Moments {
    /// Moments of a single point with the given weight: mean = the point,
    /// covariance = 0.
    pub fn of_point(point: Vector, weight: f64) -> Self {
        let d = point.dim();
        Moments {
            weight,
            mean: point,
            cov: Matrix::zeros(d, d),
        }
    }

    /// The dimension of the underlying space.
    pub fn dim(&self) -> usize {
        self.mean.dim()
    }
}

/// Merges weighted moment sets: the result has the moments of the union of
/// the underlying point sets (moment matching).
///
/// Given components `(wᵢ, μᵢ, Σᵢ)`:
///
/// * `w = Σ wᵢ`
/// * `μ = Σ wᵢ μᵢ / w`
/// * `Σ = Σ wᵢ (Σᵢ + μᵢ μᵢᵀ) / w − μ μᵀ`
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for an empty input and
/// [`LinalgError::DimensionMismatch`] for inconsistent dimensions.
///
/// # Example
///
/// ```
/// use distclass_linalg::{merge_moments, Moments, Vector};
///
/// let a = Moments::of_point(Vector::from(vec![0.0]), 1.0);
/// let b = Moments::of_point(Vector::from(vec![2.0]), 1.0);
/// let m = merge_moments([&a, &b])?;
/// assert_eq!(m.mean.as_slice(), &[1.0]);
/// assert_eq!(m.cov[(0, 0)], 1.0); // variance of {0, 2}
/// # Ok::<(), distclass_linalg::LinalgError>(())
/// ```
pub fn merge_moments<'a, I>(parts: I) -> Result<Moments, LinalgError>
where
    I: IntoIterator<Item = &'a Moments>,
{
    let mut iter = parts.into_iter().peekable();
    let d = iter.peek().ok_or(LinalgError::Empty)?.dim();

    // Running sums of w·μ and w·(Σ + μμᵀ), added into in place. They start
    // at -0.0, the additive identity of every f64, so the first part's
    // terms are bitwise the terms themselves.
    let mut weight = -0.0;
    let mut mean = Vector::filled(d, -0.0);
    let mut cov = Matrix::zeros(d, d);
    cov.as_mut_slice().fill(-0.0);
    for m in iter {
        if m.dim() != d {
            return Err(LinalgError::DimensionMismatch {
                expected: d,
                actual: m.dim(),
            });
        }
        weight += m.weight;
        mean.axpy(m.weight, &m.mean);
        for i in 0..d {
            for j in 0..d {
                cov[(i, j)] += m.weight * (m.cov[(i, j)] + m.mean[i] * m.mean[j]);
            }
        }
    }

    if weight <= 0.0 {
        return Err(LinalgError::Empty);
    }

    let s = 1.0 / weight;
    mean.scale(s);
    cov.scale(s);
    for i in 0..d {
        for j in 0..d {
            cov[(i, j)] -= mean[i] * mean[j];
        }
    }
    cov.symmetrize();
    Ok(Moments { weight, mean, cov })
}

/// Incremental weighted mean/covariance accumulator (West's algorithm).
///
/// Numerically stabler than accumulating raw moments when many points are
/// folded in one at a time; used by the centralized baselines and the
/// workload validators.
///
/// # Example
///
/// ```
/// use distclass_linalg::{Vector, WeightedAccumulator};
///
/// let mut acc = WeightedAccumulator::new(1);
/// acc.push(&Vector::from(vec![0.0]), 1.0);
/// acc.push(&Vector::from(vec![2.0]), 1.0);
/// let m = acc.moments().unwrap();
/// assert_eq!(m.mean.as_slice(), &[1.0]);
/// assert_eq!(m.cov[(0, 0)], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedAccumulator {
    weight: f64,
    mean: Vector,
    // Weighted sum of squared deviations (co-moment matrix M2).
    m2: Matrix,
}

impl WeightedAccumulator {
    /// Creates an empty accumulator for `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        WeightedAccumulator {
            weight: 0.0,
            mean: Vector::zeros(dim),
            m2: Matrix::zeros(dim, dim),
        }
    }

    /// The total weight folded in so far.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Returns `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.weight == 0.0
    }

    /// Folds in a point with the given positive weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight <= 0`, the point has the wrong dimension, or the
    /// point is non-finite.
    pub fn push(&mut self, point: &Vector, weight: f64) {
        assert!(weight > 0.0, "weight must be positive, got {weight}");
        assert_eq!(point.dim(), self.mean.dim(), "push: dimension mismatch");
        assert!(point.is_finite(), "push: non-finite point");
        let new_weight = self.weight + weight;
        let delta = point - &self.mean;
        let r = weight / new_weight;
        self.mean.axpy(r, &delta);
        let delta2 = point - &self.mean;
        // M2 += w * delta * delta2ᵀ (symmetrized).
        let mut upd = Matrix::outer(&delta, &delta2);
        upd.symmetrize();
        self.m2.axpy(weight, &upd);
        self.weight = new_weight;
    }

    /// The accumulated moments, or `None` if the accumulator is empty.
    pub fn moments(&self) -> Option<Moments> {
        if self.is_empty() {
            return None;
        }
        Some(Moments {
            weight: self.weight,
            mean: self.mean.clone(),
            cov: self.m2.scaled(1.0 / self.weight),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn of_point_has_zero_cov() {
        let m = Moments::of_point(Vector::from([1.0, 2.0]), 0.5);
        assert_eq!(m.weight, 0.5);
        assert_eq!(m.cov, Matrix::zeros(2, 2));
    }

    #[test]
    fn merge_two_points_matches_variance() {
        let a = Moments::of_point(Vector::from([0.0, 0.0]), 1.0);
        let b = Moments::of_point(Vector::from([2.0, 4.0]), 1.0);
        let m = merge_moments([&a, &b]).unwrap();
        assert!(close(m.weight, 2.0));
        assert_eq!(m.mean.as_slice(), &[1.0, 2.0]);
        assert!(close(m.cov[(0, 0)], 1.0));
        assert!(close(m.cov[(1, 1)], 4.0));
        assert!(close(m.cov[(0, 1)], 2.0));
    }

    #[test]
    fn merge_respects_weights() {
        let a = Moments::of_point(Vector::from([0.0]), 3.0);
        let b = Moments::of_point(Vector::from([4.0]), 1.0);
        let m = merge_moments([&a, &b]).unwrap();
        assert!(close(m.mean[0], 1.0));
        // E[x²] = (3*0 + 1*16)/4 = 4; var = 4 - 1 = 3.
        assert!(close(m.cov[(0, 0)], 3.0));
    }

    #[test]
    fn merge_is_associative_via_accumulation() {
        let pts = [[0.0, 1.0], [2.0, -1.0], [5.0, 2.0], [-3.0, 0.5]];
        let moments: Vec<Moments> = pts
            .iter()
            .map(|p| Moments::of_point(Vector::from(*p), 1.0))
            .collect();
        let all = merge_moments(moments.iter()).unwrap();
        let left = merge_moments([&moments[0], &moments[1]]).unwrap();
        let right = merge_moments([&moments[2], &moments[3]]).unwrap();
        let two_step = merge_moments([&left, &right]).unwrap();
        assert!(all.mean.approx_eq(&two_step.mean, 1e-10));
        assert!(all.cov.approx_eq(&two_step.cov, 1e-10));
        assert!(close(all.weight, two_step.weight));
    }

    #[test]
    fn merge_empty_errors() {
        assert_eq!(
            merge_moments(std::iter::empty::<&Moments>()),
            Err(LinalgError::Empty)
        );
    }

    #[test]
    fn merge_dimension_mismatch_errors() {
        let a = Moments::of_point(Vector::from([0.0]), 1.0);
        let b = Moments::of_point(Vector::from([0.0, 1.0]), 1.0);
        assert!(matches!(
            merge_moments([&a, &b]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn accumulator_matches_merge() {
        let pts = [[0.0, 1.0], [2.0, -1.0], [5.0, 2.0]];
        let weights = [1.0, 2.0, 0.5];
        let mut acc = WeightedAccumulator::new(2);
        let mut moments = Vec::new();
        for (p, &w) in pts.iter().zip(weights.iter()) {
            acc.push(&Vector::from(*p), w);
            moments.push(Moments::of_point(Vector::from(*p), w));
        }
        let direct = merge_moments(moments.iter()).unwrap();
        let incremental = acc.moments().unwrap();
        assert!(close(direct.weight, incremental.weight));
        assert!(direct.mean.approx_eq(&incremental.mean, 1e-10));
        assert!(direct.cov.approx_eq(&incremental.cov, 1e-10));
    }

    #[test]
    fn empty_accumulator_has_no_moments() {
        let acc = WeightedAccumulator::new(3);
        assert!(acc.is_empty());
        assert!(acc.moments().is_none());
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn accumulator_rejects_nonpositive_weight() {
        let mut acc = WeightedAccumulator::new(1);
        acc.push(&Vector::zeros(1), 0.0);
    }
}
