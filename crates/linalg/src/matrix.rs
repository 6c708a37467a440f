use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

use crate::{Cholesky, LinalgError, Vector};

/// An eigenvalue paired with its (unit-length) eigenvector.
pub type EigenPair = (f64, Vector);

/// A dense row-major matrix, used for Gaussian covariance matrices.
///
/// Most call sites hold small symmetric `d × d` matrices, but the type
/// supports general rectangular shapes so tests can express products and
/// transposes naturally.
///
/// # Example
///
/// ```
/// use distclass_linalg::{Matrix, Vector};
///
/// let m = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]])?;
/// let v = Vector::from(vec![1.0, 1.0]);
/// assert_eq!(m.mul_vec(&v).as_slice(), &[2.0, 3.0]);
/// # Ok::<(), distclass_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &x) in diag.iter().enumerate() {
            m[(i, i)] = x;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if rows have unequal
    /// lengths, or [`LinalgError::Empty`] if no rows are given.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// The outer product `a bᵀ`.
    pub fn outer(a: &Vector, b: &Vector) -> Self {
        let mut m = Matrix::zeros(a.dim(), b.dim());
        for i in 0..a.dim() {
            for j in 0..b.dim() {
                m[(i, j)] = a[i] * b[j];
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A borrowed view of the row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A mutable borrowed view of the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.dim() != self.cols()`.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        assert_eq!(self.cols, v.dim(), "mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v.iter())
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            })
            .collect()
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "mul_mat: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Returns `self * s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Scales in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy: shape mismatch"
        );
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// The trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `true` when the matrix is symmetric up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes in place: `self = (self + selfᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Adds `eps` to every diagonal entry (Tikhonov regularization).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, eps: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += eps;
        }
    }

    /// Computes the Cholesky factorization `self = L Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when factorization fails.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::new(self)
    }

    /// Cholesky factorization with escalating diagonal jitter.
    ///
    /// Tries `self`, then `self + jitter·I`, doubling the jitter up to
    /// `max_tries` times. Used to handle the rank-deficient covariance
    /// matrices that arise from singleton collections.
    ///
    /// # Errors
    ///
    /// Returns the final [`LinalgError`] if no attempt succeeds.
    pub fn cholesky_with_jitter(
        &self,
        mut jitter: f64,
        max_tries: usize,
    ) -> Result<Cholesky, LinalgError> {
        match self.cholesky() {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotSquare { rows, cols }) => {
                return Err(LinalgError::NotSquare { rows, cols })
            }
            Err(_) => {}
        }
        let mut work = self.clone();
        let mut last = LinalgError::NotPositiveDefinite;
        for _ in 0..max_tries {
            work.clone_from(self);
            work.add_diagonal(jitter);
            match work.cholesky() {
                Ok(c) => return Ok(c),
                Err(e) => last = e,
            }
            jitter *= 10.0;
        }
        Err(last)
    }

    /// The eigenvalues and (unit) eigenvectors of a symmetric 2×2 matrix,
    /// largest eigenvalue first — enough to describe the equidensity
    /// ellipses of 2-D Gaussian summaries (axis lengths ∝ √λ, orientation
    /// = leading eigenvector).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] unless the matrix is 2×2.
    ///
    /// # Example
    ///
    /// ```
    /// use distclass_linalg::Matrix;
    ///
    /// let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]])?;
    /// let ((l1, v1), (l2, _)) = m.symmetric_eigen_2x2()?;
    /// assert_eq!((l1, l2), (3.0, 1.0));
    /// assert!((v1[0].abs() - 1.0).abs() < 1e-12); // x-axis
    /// # Ok::<(), distclass_linalg::LinalgError>(())
    /// ```
    pub fn symmetric_eigen_2x2(&self) -> Result<(EigenPair, EigenPair), LinalgError> {
        if self.rows() != 2 || self.cols() != 2 {
            return Err(LinalgError::NotSquare {
                rows: self.rows(),
                cols: self.cols(),
            });
        }
        let (a, b, c) = (
            self[(0, 0)],
            0.5 * (self[(0, 1)] + self[(1, 0)]),
            self[(1, 1)],
        );
        let mean = 0.5 * (a + c);
        let delta = (0.25 * (a - c) * (a - c) + b * b).sqrt();
        let l1 = mean + delta;
        let l2 = mean - delta;
        let v1 = if b.abs() > 1e-300 {
            let v = Vector::from([l1 - c, b]);
            v.scaled(1.0 / v.norm())
        } else if a >= c {
            Vector::from([1.0, 0.0])
        } else {
            Vector::from([0.0, 1.0])
        };
        let v2 = Vector::from([-v1[1], v1[0]]);
        Ok(((l1, v1), (l2, v2)))
    }

    /// Returns `true` when all entries differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        let d = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert!(d.is_symmetric(0.0));
    }

    #[test]
    fn from_rows_validates() {
        assert_eq!(Matrix::from_rows(&[]), Err(LinalgError::Empty));
        let bad: Result<Matrix, _> = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert_eq!(
            bad,
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn mul_vec_and_mat() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = Vector::from([1.0, 1.0]);
        assert_eq!(m.mul_vec(&v).as_slice(), &[3.0, 7.0]);
        let p = m.mul_mat(&Matrix::identity(2));
        assert_eq!(p, m);
        let sq = m.mul_mat(&m);
        assert_eq!(sq[(0, 0)], 7.0);
        assert_eq!(sq[(1, 1)], 22.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn outer_product() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([3.0, 4.0]);
        let m = Matrix::outer(&a, &b);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 0)], 6.0);
        assert_eq!(m[(0, 1)], 4.0);
        assert_eq!(m[(1, 1)], 8.0);
    }

    #[test]
    fn symmetrize_fixes_asymmetry() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]).unwrap();
        assert!(!m.is_symmetric(1e-12));
        m.symmetrize();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn add_and_sub() {
        let a = Matrix::identity(2);
        let b = Matrix::diagonal(&[2.0, 2.0]);
        assert_eq!((&a + &b).trace(), 6.0);
        assert_eq!((&b - &a).trace(), 2.0);
        assert_eq!((&a * 3.0).trace(), 6.0);
    }

    #[test]
    fn cholesky_with_jitter_handles_singular() {
        let singular = Matrix::zeros(2, 2);
        let chol = singular.cholesky_with_jitter(1e-9, 8).unwrap();
        // Reconstructed matrix should be close to jitter * I, i.e. tiny.
        assert!(chol.reconstruct().frobenius_norm() < 1e-6);
    }

    #[test]
    fn frobenius_norm_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
    }

    #[test]
    fn eigen_2x2_diagonal() {
        let m = Matrix::diagonal(&[1.0, 4.0]);
        let ((l1, v1), (l2, v2)) = m.symmetric_eigen_2x2().unwrap();
        assert_eq!((l1, l2), (4.0, 1.0));
        assert!((v1[1].abs() - 1.0).abs() < 1e-12);
        assert!((v2[0].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_2x2_correlated() {
        // [[2,1],[1,2]]: eigenvalues 3 and 1, eigenvectors along ±45°.
        let m = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let ((l1, v1), (l2, v2)) = m.symmetric_eigen_2x2().unwrap();
        assert!((l1 - 3.0).abs() < 1e-12);
        assert!((l2 - 1.0).abs() < 1e-12);
        assert!((v1[0] - v1[1]).abs() < 1e-12, "leading vector {v1}");
        // Eigen decomposition reconstructs: A v = λ v.
        assert!(m.mul_vec(&v1).approx_eq(&v1.scaled(l1), 1e-12));
        assert!(m.mul_vec(&v2).approx_eq(&v2.scaled(l2), 1e-12));
    }

    #[test]
    fn eigen_2x2_rejects_other_shapes() {
        assert!(matches!(
            Matrix::identity(3).symmetric_eigen_2x2(),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "mul_vec: dimension mismatch")]
    fn mul_vec_mismatch_panics() {
        let m = Matrix::identity(2);
        let _ = m.mul_vec(&Vector::zeros(3));
    }
}
