use std::fmt;

/// A vector in the paper's *mixture space* `R^n`: component `j` is the
/// amount of input value `j`'s weight contained in a collection.
///
/// Mixture vectors are the auxiliary bookkeeping of §4.2: they are never
/// sent in a real deployment, but carrying them alongside summaries lets
/// tests and experiments verify Lemma 1 (`f(c.aux) = c.summary`,
/// `‖c.aux‖₁ = c.weight`) and measure exactly how each input value's weight
/// was distributed among collections (e.g. the missed-outlier accounting of
/// Figure 3).
///
/// # Example
///
/// ```
/// use distclass_core::MixtureVector;
///
/// let e0 = MixtureVector::basis(3, 0);
/// let e1 = MixtureVector::basis(3, 1);
/// let sum = e0.plus(&e1);
/// assert_eq!(sum.norm_l1(), 2.0);
/// // Orthogonal basis vectors are 90° apart in the mixture space.
/// assert!((e0.angle(&e1) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureVector {
    components: Vec<f64>,
}

impl MixtureVector {
    /// The zero vector over `n` input values.
    pub fn zeros(n: usize) -> Self {
        MixtureVector {
            components: vec![0.0; n],
        }
    }

    /// The basis vector `e_i` — the initial auxiliary of node `i`, whose
    /// collection holds exactly its own input value at weight 1.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for {n} values");
        let mut v = MixtureVector::zeros(n);
        v.components[i] = 1.0;
        v
    }

    /// Creates a mixture vector from explicit per-value weights.
    pub fn from_components(components: Vec<f64>) -> Self {
        MixtureVector { components }
    }

    /// The number of input values (`n`).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the vector covers zero input values.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The weight of input value `j` within this collection.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn component(&self, j: usize) -> f64 {
        self.components[j]
    }

    /// A borrowed view of all components.
    pub fn components(&self) -> &[f64] {
        &self.components
    }

    /// The L1 norm — by Lemma 1 this equals the collection's weight.
    pub fn norm_l1(&self) -> f64 {
        self.components.iter().map(|x| x.abs()).sum()
    }

    /// The L2 norm.
    pub fn norm_l2(&self) -> f64 {
        self.components.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `self` scaled by `s` (used when splitting a collection:
    /// the kept auxiliary is scaled by `half(w)/w`, the sent one by the
    /// complement).
    pub fn scaled(&self, s: f64) -> MixtureVector {
        MixtureVector {
            components: self.components.iter().map(|x| x * s).collect(),
        }
    }

    /// Scales every component by `s` in place: the bits of
    /// [`MixtureVector::scaled`] without a new vector.
    pub(crate) fn scale(&mut self, s: f64) {
        for x in &mut self.components {
            *x *= s;
        }
    }

    /// Component-wise sum (the auxiliary of a merged collection).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn plus(&self, other: &MixtureVector) -> MixtureVector {
        assert_eq!(self.len(), other.len(), "mixture length mismatch");
        MixtureVector {
            components: self
                .components
                .iter()
                .zip(other.components.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Adds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn add_assign(&mut self, other: &MixtureVector) {
        assert_eq!(self.len(), other.len(), "mixture length mismatch");
        for (a, b) in self.components.iter_mut().zip(other.components.iter()) {
            *a += b;
        }
    }

    /// Returns the vector normalized to unit L1 norm, or `None` for the
    /// zero vector.
    pub fn normalized(&self) -> Option<MixtureVector> {
        let n = self.norm_l1();
        if n == 0.0 {
            return None;
        }
        Some(self.scaled(1.0 / n))
    }

    /// The angle between two mixture vectors — the paper's distance `d_M`.
    ///
    /// Returns a value in `[0, π]`; zero-length vectors are at angle `π/2`
    /// from everything by convention.
    pub fn angle(&self, other: &MixtureVector) -> f64 {
        let denom = self.norm_l2() * other.norm_l2();
        if denom == 0.0 {
            return std::f64::consts::FRAC_PI_2;
        }
        let mut cos = self
            .components
            .iter()
            .zip(other.components.iter())
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / denom;
        cos = cos.clamp(-1.0, 1.0);
        cos.acos()
    }

    /// The `i`-th *reference angle* `ϕᵥᵢ` — the angle between this vector
    /// and the `i`-th axis — which the convergence proof shows to be
    /// monotonically bounded.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reference_angle(&self, i: usize) -> f64 {
        assert!(i < self.len(), "reference axis out of range");
        let norm = self.norm_l2();
        if norm == 0.0 {
            return std::f64::consts::FRAC_PI_2;
        }
        (self.components[i] / norm).clamp(-1.0, 1.0).acos()
    }
}

impl fmt::Display for MixtureVector {
    /// Compact display eliding zero components, which dominate large
    /// sparse mixtures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (j, &x) in self.components.iter().enumerate() {
            if x != 0.0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{j}: {x:.6}")?;
                first = false;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_properties() {
        let e2 = MixtureVector::basis(4, 2);
        assert_eq!(e2.norm_l1(), 1.0);
        assert_eq!(e2.norm_l2(), 1.0);
        assert_eq!(e2.component(2), 1.0);
        assert_eq!(e2.component(0), 0.0);
        assert_eq!(e2.reference_angle(2), 0.0);
    }

    #[test]
    fn split_scaling_conserves_l1() {
        let v = MixtureVector::from_components(vec![0.5, 0.25, 0.0, 1.0]);
        let kept = v.scaled(0.6);
        let sent = v.scaled(0.4);
        let total = kept.plus(&sent);
        assert!((total.norm_l1() - v.norm_l1()).abs() < 1e-12);
        for j in 0..v.len() {
            assert!((total.component(j) - v.component(j)).abs() < 1e-12);
        }
    }

    #[test]
    fn angle_is_scale_invariant() {
        let a = MixtureVector::from_components(vec![1.0, 2.0]);
        let b = a.scaled(7.0);
        assert!(a.angle(&b) < 1e-7);
    }

    #[test]
    fn angle_of_orthogonal_vectors() {
        let a = MixtureVector::basis(2, 0);
        let b = MixtureVector::basis(2, 1);
        assert!((a.angle(&b) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_angle_convention() {
        let z = MixtureVector::zeros(2);
        let e = MixtureVector::basis(2, 0);
        assert_eq!(z.angle(&e), std::f64::consts::FRAC_PI_2);
        assert!(z.normalized().is_none());
    }

    #[test]
    fn normalized_has_unit_l1() {
        let v = MixtureVector::from_components(vec![2.0, 6.0]);
        let n = v.normalized().unwrap();
        assert!((n.norm_l1() - 1.0).abs() < 1e-12);
        assert!((n.component(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merging_reference_angle_between_parents() {
        // Lemma 2's intuition: a merged vector's reference angle lies
        // between those of its parents.
        let a = MixtureVector::from_components(vec![1.0, 0.2]);
        let b = MixtureVector::from_components(vec![0.3, 1.0]);
        let m = a.plus(&b);
        let phi = |v: &MixtureVector| v.reference_angle(0);
        assert!(phi(&m) >= phi(&a) - 1e-12);
        assert!(phi(&m) <= phi(&b) + 1e-12);
    }

    #[test]
    fn display_elides_zeros() {
        let v = MixtureVector::from_components(vec![0.0, 1.5, 0.0]);
        assert_eq!(format!("{v}"), "{1: 1.500000}");
    }
}
