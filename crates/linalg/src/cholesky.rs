use crate::{LinalgError, Matrix, Vector};

/// The lower-triangular Cholesky factor `L` of a symmetric positive
/// definite matrix `A = L Lᵀ`.
///
/// Provides the derived quantities the Gaussian code needs: log-determinant,
/// linear solves, Mahalanobis distances and sampling transforms.
///
/// # Example
///
/// ```
/// use distclass_linalg::{Matrix, Vector};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let x = chol.solve(&Vector::from(vec![1.0, 1.0]))?;
/// // A x == b
/// assert!(a.mul_vec(&x).approx_eq(&Vector::from(vec![1.0, 1.0]), 1e-12));
/// # Ok::<(), distclass_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when a non-positive pivot is
    /// encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        cholesky_factor(a.as_slice(), l.as_mut_slice(), n)?;
        Ok(Cholesky { l })
    }

    /// The dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// A borrowed view of the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// `log det A = 2 Σ log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b` has the wrong
    /// dimension.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.dim() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: b.dim(),
            });
        }
        let mut x = b.clone();
        forward_substitute(self.l.as_slice(), x.as_mut_slice());
        back_substitute(self.l.as_slice(), x.as_mut_slice());
        Ok(x)
    }

    /// The squared Mahalanobis distance `(x − μ)ᵀ A⁻¹ (x − μ)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn mahalanobis_sq(&self, x: &Vector, mu: &Vector) -> Result<f64, LinalgError> {
        if x.dim() != mu.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: mu.dim(),
                actual: x.dim(),
            });
        }
        // Solve L y = x − μ; then distance² = ‖y‖².
        let mut y = x - mu;
        let n = self.dim();
        if y.dim() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                actual: y.dim(),
            });
        }
        forward_substitute(self.l.as_slice(), y.as_mut_slice());
        Ok(y.dot(&y))
    }

    /// Reconstructs `A = L Lᵀ` (mainly for tests).
    pub fn reconstruct(&self) -> Matrix {
        self.l.mul_mat(&self.l.transposed())
    }

    /// Applies the factor to a vector: returns `L z`.
    ///
    /// If `z` is a vector of independent standard normal samples, `μ + L z`
    /// is a sample from `N(μ, A)` — used by workload generators.
    ///
    /// # Panics
    ///
    /// Panics if `z.dim() != self.dim()`.
    pub fn transform(&self, z: &Vector) -> Vector {
        self.l.mul_vec(z)
    }
}

/// Factorizes the row-major `n × n` SPD matrix `a = L Lᵀ` (lower triangle
/// read) into the lower triangle of `l` (upper triangle untouched).
///
/// # Errors
///
/// [`LinalgError::NotPositiveDefinite`] at a pivot that is not positive
/// and finite.
pub fn cholesky_factor(a: &[f64], l: &mut [f64], n: usize) -> Result<(), LinalgError> {
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    Ok(())
}

/// Forward substitution in place: `v ← L⁻¹ v` for the row-major
/// lower-triangular factor `l` of side `v.len()`.
pub fn forward_substitute(l: &[f64], v: &mut [f64]) {
    let n = v.len();
    for i in 0..n {
        let mut sum = v[i];
        for k in 0..i {
            sum -= l[i * n + k] * v[k];
        }
        v[i] = sum / l[i * n + i];
    }
}

/// Back substitution in place: `v ← L⁻ᵀ v` for the row-major
/// lower-triangular factor `l` of side `v.len()`.
pub fn back_substitute(l: &[f64], v: &mut [f64]) {
    let n = v.len();
    for i in (0..n).rev() {
        let mut sum = v[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * v[k];
        }
        v[i] = sum / l[i * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd_example();
        let chol = a.cholesky().unwrap();
        assert!(chol.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        );
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(Cholesky::new(&a), Err(LinalgError::NotPositiveDefinite));
    }

    #[test]
    fn rejects_zero_matrix() {
        assert_eq!(
            Cholesky::new(&Matrix::zeros(2, 2)),
            Err(LinalgError::NotPositiveDefinite)
        );
    }

    #[test]
    fn log_det_matches_diagonal() {
        let a = Matrix::diagonal(&[2.0, 8.0]);
        let chol = a.cholesky().unwrap();
        assert!((chol.log_det() - 16.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd_example();
        let chol = a.cholesky().unwrap();
        let b = Vector::from([1.0, -2.0, 0.5]);
        let x = chol.solve(&b).unwrap();
        assert!(a.mul_vec(&x).approx_eq(&b, 1e-10));
    }

    #[test]
    fn solve_rejects_wrong_dim() {
        let chol = spd_example().cholesky().unwrap();
        assert!(matches!(
            chol.solve(&Vector::zeros(2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mahalanobis_identity_cov_is_euclidean() {
        let chol = Matrix::identity(2).cholesky().unwrap();
        let x = Vector::from([3.0, 4.0]);
        let mu = Vector::zeros(2);
        assert!((chol.mahalanobis_sq(&x, &mu).unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_scales_with_variance() {
        let chol = Matrix::diagonal(&[4.0, 1.0]).cholesky().unwrap();
        let x = Vector::from([2.0, 0.0]);
        let mu = Vector::zeros(2);
        // distance² = 2² / 4 = 1
        assert!((chol.mahalanobis_sq(&x, &mu).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transform_of_basis_gives_factor_column() {
        let a = spd_example();
        let chol = a.cholesky().unwrap();
        let col0 = chol.transform(&Vector::basis(3, 0));
        for i in 0..3 {
            assert!((col0[i] - chol.factor()[(i, 0)]).abs() < 1e-15);
        }
    }
}
