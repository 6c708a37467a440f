use std::fmt;

use crate::classification::Classification;
use crate::mixture::MixtureVector;

/// The application-specific functions that instantiate the generic
/// algorithm (Algorithm 1): a summary domain `S`, `valToSummary`,
/// `mergeSet`, `partition` and the summary distance `d_S`.
///
/// Implementations must satisfy the paper's requirements:
///
/// * **R1** — collections of similar values have similar summaries
///   (`d_S(f(v₁), f(v₂)) ≤ ρ · d_M(v₁, v₂)`);
/// * **R2** — [`Instance::val_to_summary`] agrees with `f` on singleton
///   collections;
/// * **R3** — summaries are invariant under weight scaling;
/// * **R4** — merging summaries equals summarizing the merged collection.
///
/// R2–R4 are checked for all bundled instances by the property tests in
/// [`crate::audit`] (via the [`MixtureSummary`] reference mapping).
///
/// `partition` must additionally respect the two structural restrictions of
/// §4.1: at most `k` groups, and no group may consist of a single
/// collection of quantum weight. [`crate::ClassifierNode`] asserts both.
///
/// An instance and its summaries are shared between threads: the runtime
/// runs each peer on its own thread, and the round simulator may merge
/// half of its nodes on a helper thread.
pub trait Instance: Send + Sync {
    /// The input value domain `D`.
    type Value: Clone;
    /// The summary domain `S`.
    type Summary: Clone + fmt::Debug + Send + Sync;

    /// The bound `k` on the number of collections per classification.
    fn k(&self) -> usize;

    /// Summarizes a whole input value (weight 1) — the paper's
    /// `valToSummary`.
    fn val_to_summary(&self, val: &Self::Value) -> Self::Summary;

    /// Merges weighted summaries into the summary of the union collection —
    /// the paper's `mergeSet`. Weights are supplied as arbitrary positive
    /// numbers; by R3 only their ratios may matter.
    ///
    /// # Panics
    ///
    /// Implementations may panic on an empty slice; the node never passes
    /// one.
    fn merge_set(&self, parts: &[(&Self::Summary, f64)]) -> Self::Summary;

    /// Partitions the collections of `big` into at most `k` groups to be
    /// merged — the paper's `partition`. Returns groups of indices into
    /// `big.collections()`; every index must appear in exactly one group.
    fn partition(&self, big: &Classification<Self::Summary>) -> Vec<Vec<usize>>;

    /// The distance `d_S` between summaries.
    fn summary_distance(&self, a: &Self::Summary, b: &Self::Summary) -> f64;

    /// Reconstructs an input value from raw sensor components — the
    /// dynamic-workload layer's bridge from a drift schedule's numeric
    /// readings to `Self::Value`. `None` (the default) means the value
    /// domain has no canonical component form; drift events targeting
    /// such an instance are skipped.
    fn value_from_components(&self, components: &[f64]) -> Option<Self::Value> {
        let _ = components;
        None
    }
}

/// The reference summary mapping `f` from mixture-space vectors to
/// summaries (§4.2), used to audit Lemma 1 and requirements R2–R4.
///
/// `f` is defined on the *actual input values*, which only the test/audit
/// harness knows; the distributed algorithm itself never evaluates it.
pub trait MixtureSummary: Instance {
    /// Evaluates `f(mixture)` given the global input values: the summary of
    /// the collection containing `mixture[j]` weight of each value `j`.
    ///
    /// # Panics
    ///
    /// May panic if `values.len() != mixture.len()` or the mixture is all
    /// zeros.
    fn summarize_mixture(&self, values: &[Self::Value], mixture: &MixtureVector) -> Self::Summary;
}

/// Generic greedy partition (Algorithm 2's `partition`, phrased over any
/// instance): start from singleton groups, ensure no quantum-weight
/// collection sits alone, then repeatedly merge the two closest groups
/// (by `d_S` of their merged summaries) until at most `k` remain.
///
/// Shared by the centroid instance and used as the Gaussian instance's
/// fallback when EM cannot run. The groups are built in one flat buffer;
/// apart from the groups returned, a call allocates that buffer, the
/// group summaries and one list of `merge_set` parts.
pub fn greedy_partition<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
) -> Vec<Vec<usize>> {
    let mut groups = FlatGroups::singletons(big.len());
    // Restriction (2): merge quantum-weight singletons with their nearest
    // other group first.
    join_quantum_singletons(instance, big, &mut groups);
    if groups.count() <= instance.k() {
        return groups.to_vecs();
    }

    // Greedy closest-pair merging down to k groups. A group's summary
    // only changes when the group does, so each step re-merges just the
    // merged group: the same `merge_set` over the same parts in the same
    // order as a full recomputation, hence the same bits. A singleton's
    // summary is the one-part `merge_set` too, never the collection's own.
    let mut parts = Vec::with_capacity(big.len());
    let mut group_summary = |groups: &FlatGroups, g: usize| -> I::Summary {
        parts.clear();
        parts.extend(groups.members(g).map(|i| {
            let c = big.collection(i);
            (&c.summary, c.weight.grains() as f64)
        }));
        instance.merge_set(&parts)
    };
    let mut summaries: Vec<I::Summary> = (0..groups.count())
        .map(|g| group_summary(&groups, g))
        .collect();
    while groups.count() > instance.k() {
        let (mut bx, mut by, mut best) = (0, 1, f64::INFINITY);
        for x in 0..groups.count() {
            for y in (x + 1)..groups.count() {
                let d = instance.summary_distance(&summaries[x], &summaries[y]);
                if d < best {
                    best = d;
                    bx = x;
                    by = y;
                }
            }
        }
        groups.absorb(bx, by);
        summaries.swap_remove(by);
        summaries[bx] = group_summary(&groups, bx);
    }
    groups.to_vecs()
}

/// Enforces restriction (2) of §4.1 on a set of groups: every group that is
/// a single collection of quantum weight is merged into the nearest other
/// group (by `d_S` between that collection's summary and the other group's
/// first member).
///
/// No-op when only one group exists.
pub fn merge_quantum_singletons<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
    groups: &mut Vec<Vec<usize>>,
) {
    join_quantum_singletons(instance, big, groups);
}

/// [`merge_quantum_singletons`] over either form of a group list.
fn join_quantum_singletons<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
    groups: &mut impl Groups,
) {
    while groups.count() > 1 {
        let offender = (0..groups.count())
            .find(|&g| groups.size(g) == 1 && big.collection(groups.first(g)).weight.is_quantum());
        let Some(ox) = offender else { return };
        let osum = &big.collection(groups.first(ox)).summary;
        let (mut target, mut best) = (usize::MAX, f64::INFINITY);
        for y in (0..groups.count()).filter(|&y| y != ox) {
            let d = instance.summary_distance(osum, &big.collection(groups.first(y)).summary);
            if d < best {
                best = d;
                target = y;
            }
        }
        groups.absorb(target, ox);
    }
}

/// A list of groups of collection indices, as partitioning edits it.
trait Groups {
    /// The number of groups.
    fn count(&self) -> usize;
    /// The number of members of group `g`.
    fn size(&self, g: usize) -> usize;
    /// Group `g`'s first member.
    fn first(&self, g: usize) -> usize;
    /// Appends group `from`'s members to group `into`'s, then removes
    /// group `from` as `Vec::swap_remove` does (the last group takes its
    /// place, `into` included).
    fn absorb(&mut self, into: usize, from: usize);
}

impl Groups for Vec<Vec<usize>> {
    fn count(&self) -> usize {
        self.len()
    }

    fn size(&self, g: usize) -> usize {
        self[g].len()
    }

    fn first(&self, g: usize) -> usize {
        self[g][0]
    }

    fn absorb(&mut self, into: usize, from: usize) {
        let moved = self.swap_remove(from);
        let into = if into == self.len() { from } else { into };
        self[into].extend(moved);
    }
}

/// Marks the last member of a group in [`Slot::next`].
const END: usize = usize::MAX;

/// One entry of [`FlatGroups`]: the link after collection `i`, and the
/// ends and size of the group in slot `i`.
#[derive(Clone, Copy)]
struct Slot {
    next: usize,
    head: usize,
    tail: usize,
    len: usize,
}

/// Groups over `n` collections in one buffer of `n` slots: each group is
/// a linked list of its members, in order.
struct FlatGroups {
    slots: Vec<Slot>,
    count: usize,
}

impl FlatGroups {
    /// The `n` groups `{0}, …, {n − 1}`.
    fn singletons(n: usize) -> Self {
        let slots = (0..n)
            .map(|i| Slot {
                next: END,
                head: i,
                tail: i,
                len: 1,
            })
            .collect();
        FlatGroups { slots, count: n }
    }

    /// Group `g`'s members, in order.
    fn members(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.slots[g].head), |&i| {
            Some(self.slots[i].next).filter(|&next| next != END)
        })
    }

    /// The groups as `partition` returns them.
    fn to_vecs(&self) -> Vec<Vec<usize>> {
        (0..self.count)
            .map(|g| {
                let mut members = Vec::with_capacity(self.slots[g].len);
                members.extend(self.members(g));
                members
            })
            .collect()
    }
}

impl Groups for FlatGroups {
    fn count(&self) -> usize {
        self.count
    }

    fn size(&self, g: usize) -> usize {
        self.slots[g].len
    }

    fn first(&self, g: usize) -> usize {
        self.slots[g].head
    }

    fn absorb(&mut self, into: usize, from: usize) {
        let moved = self.slots[from];
        let tail = self.slots[into].tail;
        self.slots[tail].next = moved.head;
        self.slots[into].tail = moved.tail;
        self.slots[into].len += moved.len;
        self.count -= 1;
        let last = self.slots[self.count];
        let slot = &mut self.slots[from];
        (slot.head, slot.tail, slot.len) = (last.head, last.tail, last.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;
    use crate::weight::Weight;

    /// A toy 1-D centroid instance for exercising the helpers.
    struct Toy {
        k: usize,
    }

    impl Instance for Toy {
        type Value = f64;
        type Summary = f64;

        fn k(&self) -> usize {
            self.k
        }

        fn val_to_summary(&self, val: &f64) -> f64 {
            *val
        }

        fn merge_set(&self, parts: &[(&f64, f64)]) -> f64 {
            let w: f64 = parts.iter().map(|(_, w)| w).sum();
            parts.iter().map(|(s, pw)| *s * pw).sum::<f64>() / w
        }

        fn partition(&self, big: &Classification<f64>) -> Vec<Vec<usize>> {
            greedy_partition(self, big)
        }

        fn summary_distance(&self, a: &f64, b: &f64) -> f64 {
            (a - b).abs()
        }
    }

    fn big(vals_weights: &[(f64, u64)]) -> Classification<f64> {
        vals_weights
            .iter()
            .map(|&(v, g)| Collection::new(v, Weight::from_grains(g)))
            .collect()
    }

    #[test]
    fn greedy_merges_closest() {
        let inst = Toy { k: 2 };
        let c = big(&[(0.0, 10), (0.1, 10), (5.0, 10)]);
        let mut groups = inst.partition(&c);
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort();
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn greedy_respects_k() {
        let inst = Toy { k: 3 };
        let c = big(&[(0.0, 5), (1.0, 5), (2.0, 5), (3.0, 5), (4.0, 5), (5.0, 5)]);
        let groups = inst.partition(&c);
        assert_eq!(groups.len(), 3);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn quantum_singletons_never_left_alone() {
        let inst = Toy { k: 4 };
        // Collection 2 has quantum weight and is closest to collection 1.
        let c = big(&[(0.0, 10), (4.0, 10), (4.5, 1)]);
        let groups = inst.partition(&c);
        let holder = groups.iter().find(|g| g.contains(&2)).unwrap();
        assert!(
            holder.len() >= 2,
            "quantum singleton left alone: {groups:?}"
        );
        assert!(holder.contains(&1));
    }

    #[test]
    fn single_quantum_collection_alone_is_allowed() {
        // With only one collection total there is nothing to merge with.
        let inst = Toy { k: 2 };
        let c = big(&[(1.0, 1)]);
        let groups = inst.partition(&c);
        assert_eq!(groups, vec![vec![0]]);
    }

    /// The flat buffer edits its groups exactly as `Vec<Vec<usize>>` does:
    /// the same members, in the same order, at the same positions, after
    /// every merge of a random sequence.
    #[test]
    fn flat_groups_merge_like_vectors_of_groups() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for n in 1..=12 {
            for _ in 0..20 {
                let mut flat = FlatGroups::singletons(n);
                let mut vecs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
                while vecs.len() > 1 {
                    let from = rng.gen_range(0..vecs.len());
                    let into = (from + rng.gen_range(1..vecs.len())) % vecs.len();
                    flat.absorb(into, from);
                    vecs.absorb(into, from);
                    for g in 0..vecs.len() {
                        assert_eq!((flat.size(g), flat.first(g)), (vecs.size(g), vecs.first(g)));
                    }
                    assert_eq!(flat.to_vecs(), vecs);
                }
            }
        }
    }

    #[test]
    fn weighted_merge_set_is_weighted_mean() {
        let inst = Toy { k: 1 };
        let m = inst.merge_set(&[(&0.0, 3.0), (&4.0, 1.0)]);
        assert!((m - 1.0).abs() < 1e-12);
    }
}
