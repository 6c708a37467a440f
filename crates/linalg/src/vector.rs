use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::storage::Storage;
use crate::LinalgError;

/// A dense `d`-dimensional real vector.
///
/// `Vector` is the value type used for sensor readings, centroids and
/// Gaussian means throughout the workspace. Arithmetic is implemented for
/// borrowed operands so vectors are not consumed by expressions.
///
/// Up to four components are stored in place, so a planar reading or
/// mean is created, cloned and dropped without touching the heap.
///
/// # Panics
///
/// Binary arithmetic operators panic on dimension mismatch; fallible
/// checked variants ([`Vector::checked_add`], …) return a [`LinalgError`]
/// instead.
///
/// # Example
///
/// ```
/// use distclass_linalg::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0]);
/// let b = Vector::from(vec![3.0, 4.0]);
/// assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
/// assert_eq!(a.dot(&b), 11.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Vector {
    data: Storage,
}

impl Vector {
    /// Creates a zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector {
            data: Storage::filled(dim, 0.0),
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Vector {
            data: Storage::filled(dim, value),
        }
    }

    /// Creates the `i`-th standard basis vector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        let mut v = Vector::zeros(dim);
        v[i] = 1.0;
        v
    }

    /// The dimension of the vector.
    pub fn dim(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` if the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.dim() == 0
    }

    /// A borrowed view of the components.
    pub fn as_slice(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// A mutable borrowed view of the components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Consumes the vector, returning its components.
    pub fn into_inner(self) -> Vec<f64> {
        self.data.into_vec()
    }

    /// Iterates over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.as_slice().iter()
    }

    /// The dot product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dot: dimension mismatch");
        self.iter().zip(other.iter()).map(|(a, b)| a * b).sum()
    }

    /// The Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// The L1 norm (sum of absolute component values).
    pub fn norm_l1(&self) -> f64 {
        self.iter().map(|x| x.abs()).sum()
    }

    /// The L∞ norm (largest absolute component).
    pub fn norm_linf(&self) -> f64 {
        self.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn distance(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "distance: dimension mismatch");
        self.iter()
            .zip(other.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Returns `self * s` without consuming `self`.
    pub fn scaled(&self, s: f64) -> Vector {
        Vector {
            data: self.iter().map(|x| x * s).collect(),
        }
    }

    /// Scales the vector in place.
    pub fn scale(&mut self, s: f64) {
        for x in self.as_mut_slice() {
            *x *= s;
        }
    }

    /// `self += alpha * other` (BLAS axpy).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) {
        assert_eq!(self.dim(), other.dim(), "axpy: dimension mismatch");
        for (x, y) in self.as_mut_slice().iter_mut().zip(other.iter()) {
            *x += alpha * y;
        }
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn checked_add(&self, other: &Vector) -> Result<Vector, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(self + other)
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when dimensions differ.
    pub fn checked_sub(&self, other: &Vector) -> Result<Vector, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        Ok(self - other)
    }

    /// Returns `true` when every component differs from `other` by at most
    /// `tol` in absolute value.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if all components are finite.
    pub fn is_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector {
            data: Storage::from_vec(data),
        }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector {
            data: Storage::from_slice(data),
        }
    }
}

impl<const N: usize> From<[f64; N]> for Vector {
    fn from(data: [f64; N]) -> Self {
        Vector {
            data: Storage::from_slice(&data),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.as_mut_slice()[i]
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "add: dimension mismatch");
        Vector {
            data: self.iter().zip(rhs.iter()).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.dim(), rhs.dim(), "sub: dimension mismatch");
        Vector {
            data: self.iter().zip(rhs.iter()).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, s: f64) -> Vector {
        self.scaled(s)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_basis() {
        let z = Vector::zeros(3);
        assert_eq!(z.dim(), 3);
        assert_eq!(z.norm(), 0.0);
        let e1 = Vector::basis(3, 1);
        assert_eq!(e1.as_slice(), &[0.0, 1.0, 0.0]);
        assert_eq!(e1.norm(), 1.0);
    }

    #[test]
    #[should_panic(expected = "basis index")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from([1.0, 2.0, 3.0]);
        let b = Vector::from([4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0, -3.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn assign_ops() {
        let mut a = Vector::from([1.0, 1.0]);
        a += &Vector::from([2.0, 3.0]);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a -= &Vector::from([1.0, 1.0]);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a.axpy(2.0, &Vector::from([1.0, 0.0]));
        assert_eq!(a.as_slice(), &[4.0, 3.0]);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn norms_and_distance() {
        let a = Vector::from([3.0, -4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_l1(), 7.0);
        assert_eq!(a.norm_linf(), 4.0);
        let b = Vector::from([0.0, 0.0]);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn checked_ops_report_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert_eq!(
            a.checked_add(&b),
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(
            a.checked_sub(&b),
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert!(a.checked_add(&Vector::zeros(2)).is_ok());
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([1.0 + 1e-9, 2.0 - 1e-9]);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        assert!(!a.approx_eq(&Vector::zeros(3), 1.0));
    }

    #[test]
    fn display_formats_components() {
        let a = Vector::from([1.0, -2.5]);
        assert_eq!(format!("{a}"), "[1.000000, -2.500000]");
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = Vector::zeros(2);
        assert!(v.is_finite());
        v[0] = f64::NAN;
        assert!(!v.is_finite());
    }
}
