use std::fmt;

use crate::collection::Collection;
use crate::weight::Weight;

/// Why a zero-weight collection is refused.
pub(crate) const ZERO_WEIGHT: &str = "zero-weight collection pushed into classification";

/// A classification: the (bounded) set of weighted collection summaries a
/// node maintains, and the unit the algorithm sends over links.
///
/// # Example
///
/// ```
/// use distclass_core::{Classification, Collection, Weight};
///
/// let mut c = Classification::new();
/// c.push(Collection::new(1.5_f64, Weight::from_grains(4)));
/// c.push(Collection::new(7.0_f64, Weight::from_grains(2)));
/// assert_eq!(c.total_weight().grains(), 6);
///
/// let sent = c.split_off_half();
/// assert_eq!(c.total_weight().grains() + sent.total_weight().grains(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Classification<S> {
    pub(crate) collections: Vec<Collection<S>>,
}

impl<S> Default for Classification<S> {
    fn default() -> Self {
        Classification::new()
    }
}

impl<S> Classification<S> {
    /// Creates an empty classification.
    pub fn new() -> Self {
        Classification {
            collections: Vec::new(),
        }
    }

    /// The number of collections.
    pub fn len(&self) -> usize {
        self.collections.len()
    }

    /// `true` when there are no collections.
    pub fn is_empty(&self) -> bool {
        self.collections.is_empty()
    }

    /// Adds a collection.
    ///
    /// # Panics
    ///
    /// Panics if the collection has zero weight — zero-weight collections
    /// describe nothing and must never circulate.
    pub fn push(&mut self, collection: Collection<S>) {
        assert!(!collection.weight.is_zero(), "{ZERO_WEIGHT}");
        self.collections.push(collection);
    }

    /// The collections.
    pub fn collections(&self) -> &[Collection<S>] {
        &self.collections
    }

    /// The collection at `index`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn collection(&self, index: usize) -> &Collection<S> {
        &self.collections[index]
    }

    /// Iterates over collections.
    pub fn iter(&self) -> std::slice::Iter<'_, Collection<S>> {
        self.collections.iter()
    }

    /// The sum of collection weights.
    pub fn total_weight(&self) -> Weight {
        self.collections.iter().map(|c| c.weight).sum()
    }

    /// Moves all collections of `other` into `self` (the `bigSet` union of
    /// Algorithm 1, line 9).
    pub fn absorb(&mut self, other: Classification<S>) {
        self.collections.extend(other.collections);
    }

    /// Consumes the classification, returning its collections.
    pub fn into_collections(self) -> Vec<Collection<S>> {
        self.collections
    }

    /// Decays every collection by the exact fraction `num / den` of its
    /// grains (rounded down per collection), returning the total number
    /// of grains removed — the *forgotten* mass of the windowed merge
    /// variant. Collections whose weight reaches zero are dropped, so no
    /// zero-weight collection ever circulates; auxiliary vectors are
    /// scaled by the surviving ratio, mirroring [`Collection::split`].
    ///
    /// Integer-exact: the caller can account the returned grain count
    /// against an external ledger and conservation still balances to the
    /// grain.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or `num > den` (a decay fraction above 1
    /// would mint negative weight).
    pub fn decay(&mut self, num: u64, den: u64) -> u64 {
        assert!(den > 0, "decay denominator must be nonzero");
        assert!(num <= den, "decay fraction must not exceed 1");
        let mut forgotten = 0u64;
        self.collections.retain_mut(|c| {
            let grains = c.weight.grains();
            let cut = grains * num / den;
            forgotten += cut;
            let left = grains - cut;
            if left == 0 {
                return false;
            }
            if cut > 0 {
                if let Some(aux) = c.aux.as_mut() {
                    *aux = aux.scaled(left as f64 / grains as f64);
                }
                c.weight = Weight::from_grains(left);
            }
            true
        });
        forgotten
    }

    /// The index of the collection with the largest weight, or `None` when
    /// empty (ties broken toward the lower index).
    pub fn heaviest(&self) -> Option<usize> {
        self.collections
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.weight.cmp(&b.weight).then(ib.cmp(ia)))
            .map(|(i, _)| i)
    }
}

impl<S: Clone> Classification<S> {
    /// Splits per Algorithm 1 (lines 5–7): every collection is halved in
    /// place, so `self` keeps one half in its own buffer, and the
    /// complement is returned for sending.
    ///
    /// Collections whose weight is a single grain stay whole on the kept
    /// side, so the sent classification may have fewer collections (or be
    /// empty).
    pub fn split_off_half(&mut self) -> Classification<S> {
        let mut sent = Vec::with_capacity(self.collections.len());
        sent.extend(self.collections.iter_mut().filter_map(Collection::halve));
        Classification { collections: sent }
    }
}

impl<S> FromIterator<Collection<S>> for Classification<S> {
    fn from_iter<T: IntoIterator<Item = Collection<S>>>(iter: T) -> Self {
        Classification {
            collections: iter.into_iter().collect(),
        }
    }
}

impl<S> IntoIterator for Classification<S> {
    type Item = Collection<S>;
    type IntoIter = std::vec::IntoIter<Collection<S>>;

    fn into_iter(self) -> Self::IntoIter {
        self.collections.into_iter()
    }
}

impl<'a, S> IntoIterator for &'a Classification<S> {
    type Item = &'a Collection<S>;
    type IntoIter = std::slice::Iter<'a, Collection<S>>;

    fn into_iter(self) -> Self::IntoIter {
        self.collections.iter()
    }
}

impl<S> Extend<Collection<S>> for Classification<S> {
    fn extend<T: IntoIterator<Item = Collection<S>>>(&mut self, iter: T) {
        self.collections.extend(iter);
    }
}

impl<S: fmt::Display> fmt::Display for Classification<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.collections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classification(weights: &[u64]) -> Classification<u32> {
        weights
            .iter()
            .enumerate()
            .map(|(i, &g)| Collection::new(i as u32, Weight::from_grains(g)))
            .collect()
    }

    #[test]
    fn total_weight_sums() {
        let c = classification(&[1, 2, 3]);
        assert_eq!(c.total_weight().grains(), 6);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn split_conserves_total() {
        let mut c = classification(&[5, 8, 1]);
        let before = c.total_weight();
        let sent = c.split_off_half();
        assert_eq!(c.total_weight() + sent.total_weight(), before);
        // The single-grain collection is not sent.
        assert_eq!(c.len(), 3);
        assert_eq!(sent.len(), 2);
    }

    #[test]
    fn absorb_unions() {
        let mut a = classification(&[2]);
        let b = classification(&[3, 4]);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_weight().grains(), 9);
    }

    #[test]
    fn heaviest_finds_max() {
        let c = classification(&[2, 9, 3]);
        assert_eq!(c.heaviest(), Some(1));
        assert_eq!(Classification::<u32>::new().heaviest(), None);
    }

    #[test]
    fn heaviest_tie_breaks_low_index() {
        let c = classification(&[5, 5]);
        assert_eq!(c.heaviest(), Some(0));
    }

    #[test]
    fn decay_is_integer_exact_and_drops_emptied_collections() {
        let mut c = classification(&[8, 5, 1]);
        // Half decay: cuts of 4, 2 and 0 grains respectively.
        let forgotten = c.decay(1, 2);
        assert_eq!(forgotten, 6);
        assert_eq!(c.total_weight().grains(), 14 - 6);
        assert_eq!(c.len(), 3, "no collection emptied at 1/2 decay");
        // Full decay empties everything.
        let forgotten = c.decay(1, 1);
        assert_eq!(forgotten, 8);
        assert!(c.is_empty());
    }

    #[test]
    fn decay_zero_fraction_is_noop() {
        let mut c = classification(&[3, 4]);
        assert_eq!(c.decay(0, 7), 0);
        assert_eq!(c.total_weight().grains(), 7);
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn decay_rejects_fraction_above_one() {
        let mut c = classification(&[2]);
        c.decay(3, 2);
    }

    #[test]
    #[should_panic(expected = "zero-weight collection")]
    fn push_rejects_zero_weight() {
        let mut c = Classification::new();
        c.push(Collection::new(0u32, Weight::ZERO));
    }

    #[test]
    fn display_lists_collections() {
        let c = classification(&[1, 2]);
        assert_eq!(format!("{c}"), "{⟨0, 1g⟩, ⟨1, 2g⟩}");
    }
}
