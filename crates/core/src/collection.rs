use std::fmt;

use crate::mixture::MixtureVector;
use crate::weight::Weight;

/// A collection as the algorithm stores it: a summary, the collection's
/// quantized weight, and (optionally) the auxiliary mixture-space vector of
/// §4.2 used to audit the run.
///
/// The paper overloads the word *collection* for both the abstract set of
/// weighted values and its summary–weight representation; this type is the
/// latter. The underlying value set is never materialized — that is the
/// whole point of the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection<S> {
    /// The application-specific summary of the underlying weighted values.
    pub summary: S,
    /// The collection's total weight (a multiple of the quantum `q`).
    pub weight: Weight,
    /// Auxiliary mixture vector (`None` outside audited runs).
    pub aux: Option<MixtureVector>,
}

impl<S> Collection<S> {
    /// Creates a collection without auxiliary tracking.
    pub fn new(summary: S, weight: Weight) -> Self {
        Collection {
            summary,
            weight,
            aux: None,
        }
    }

    /// Creates a collection with an auxiliary mixture vector.
    pub fn with_aux(summary: S, weight: Weight, aux: MixtureVector) -> Self {
        Collection {
            summary,
            weight,
            aux: Some(aux),
        }
    }
}

impl<S: Clone> Collection<S> {
    /// Splits this collection into `(kept, sent)` with identical summaries
    /// and complementary weights per the paper's `half` function; the
    /// auxiliary vector (if any) is scaled by the same ratios.
    ///
    /// The sent part is `None` when the collection's weight is a single
    /// grain (nothing can be sent without violating quantization).
    pub fn split(&self) -> (Collection<S>, Option<Collection<S>>) {
        let mut kept = self.clone();
        let sent = kept.halve();
        (kept, sent)
    }

    /// [`Collection::split`] in place: `self` becomes the kept half, so
    /// the summary is cloned once, for the returned sent half.
    pub(crate) fn halve(&mut self) -> Option<Collection<S>> {
        let (keep_w, send_w) = self.weight.split();
        let ratio = if self.weight.is_zero() {
            0.5
        } else {
            keep_w.grains() as f64 / self.weight.grains() as f64
        };
        let sent = (!send_w.is_zero()).then(|| Collection {
            summary: self.summary.clone(),
            weight: send_w,
            aux: self.aux.as_ref().map(|a| a.scaled(1.0 - ratio)),
        });
        self.weight = keep_w;
        if let Some(aux) = &mut self.aux {
            aux.scale(ratio);
        }
        sent
    }
}

impl<S: fmt::Display> fmt::Display for Collection<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.summary, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_conserves_weight_and_aux() {
        let c = Collection::with_aux("s", Weight::from_grains(5), MixtureVector::basis(2, 0));
        let (kept, sent) = c.split();
        let sent = sent.unwrap();
        assert_eq!(kept.weight + sent.weight, c.weight);
        assert_eq!(kept.summary, "s");
        assert_eq!(sent.summary, "s");
        let total = kept.aux.unwrap().plus(&sent.aux.unwrap());
        assert!((total.component(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_of_single_grain_sends_nothing() {
        let c: Collection<&str> = Collection::new("s", Weight::from_grains(1));
        let (kept, sent) = c.split();
        assert!(sent.is_none());
        assert_eq!(kept.weight.grains(), 1);
    }

    #[test]
    fn aux_ratio_matches_weight_ratio() {
        let c = Collection::with_aux((), Weight::from_grains(3), MixtureVector::basis(1, 0));
        let (kept, sent) = c.split();
        // keep = 2 grains of 3 → aux scaled by 2/3.
        assert!((kept.aux.unwrap().component(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((sent.unwrap().aux.unwrap().component(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_shows_summary_and_weight() {
        let c = Collection::new(42, Weight::from_grains(2));
        assert_eq!(format!("{c}"), "⟨42, 2g⟩");
    }
}
