use std::sync::Arc;

use crate::classification::{Classification, ZERO_WEIGHT};
use crate::collection::Collection;
use crate::instance::Instance;
use crate::mixture::MixtureVector;
use crate::weight::{Quantum, Weight};

/// A node's state machine for the generic distributed classification
/// algorithm (Algorithm 1).
///
/// The node holds a classification of weighted collection summaries.
/// [`ClassifierNode::split_for_send`] implements lines 3–7 (halve every
/// collection, keep one half, return the other for sending);
/// [`ClassifierNode::receive`] implements lines 8–11 (union with the
/// incoming classification, partition, merge each group).
///
/// The node is transport-agnostic: the gossip runtime decides *when* to
/// split and *whom* to send to. All application-specific behavior lives in
/// the [`Instance`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use distclass_core::{CentroidInstance, ClassifierNode, Quantum};
/// use distclass_linalg::Vector;
///
/// let inst = Arc::new(CentroidInstance::new(2)?);
/// let q = Quantum::default();
/// let mut a = ClassifierNode::new(Arc::clone(&inst), &Vector::from(vec![0.0]), q);
/// let mut b = ClassifierNode::new(inst, &Vector::from(vec![2.0]), q);
///
/// // One gossip exchange: a sends half its weight to b.
/// let msg = a.split_for_send();
/// b.receive(msg);
/// assert_eq!(b.classification().len(), 2);
/// # Ok::<(), distclass_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassifierNode<I: Instance> {
    instance: Arc<I>,
    classification: Classification<I::Summary>,
}

impl<I: Instance> ClassifierNode<I> {
    /// Creates a node holding input value `val` at weight 1 (line 2 of
    /// Algorithm 1), without auxiliary tracking.
    pub fn new(instance: Arc<I>, val: &I::Value, quantum: Quantum) -> Self {
        let summary = instance.val_to_summary(val);
        let mut classification = Classification::new();
        classification.push(Collection::new(summary, quantum.unit()));
        ClassifierNode {
            instance,
            classification,
        }
    }

    /// Creates a node with auxiliary mixture-vector tracking enabled: the
    /// initial collection carries the basis vector `e_index` over
    /// `n_values` inputs (§4.2's auxiliary algorithm).
    pub fn new_audited(
        instance: Arc<I>,
        val: &I::Value,
        quantum: Quantum,
        n_values: usize,
        index: usize,
    ) -> Self {
        let summary = instance.val_to_summary(val);
        let mut classification = Classification::new();
        classification.push(Collection::with_aux(
            summary,
            quantum.unit(),
            MixtureVector::basis(n_values, index),
        ));
        ClassifierNode {
            instance,
            classification,
        }
    }

    /// Rebuilds a node around a previously captured classification — the
    /// crash-recovery path: a respawned peer resumes from its checkpoint
    /// instead of its initial reading. The classification is adopted
    /// verbatim; callers are responsible for it having come from a node
    /// of the same instance.
    pub fn from_classification(
        instance: Arc<I>,
        classification: Classification<I::Summary>,
    ) -> Self {
        ClassifierNode {
            instance,
            classification,
        }
    }

    /// The instance this node runs.
    pub fn instance(&self) -> &Arc<I> {
        &self.instance
    }

    /// The node's current classification (its output at every time `t`).
    pub fn classification(&self) -> &Classification<I::Summary> {
        &self.classification
    }

    /// Splits the classification in half (lines 5–7): the node keeps one
    /// half and the returned half is meant to be sent to a neighbor.
    ///
    /// The returned classification can be empty if every collection has
    /// quantum weight; sending an empty classification is a harmless no-op.
    pub fn split_for_send(&mut self) -> Classification<I::Summary> {
        self.classification.split_off_half()
    }

    /// Handles an incoming classification (lines 8–11): unions it with the
    /// local one, partitions the result with the instance's `partition`,
    /// and merges each group with `mergeSet`.
    pub fn receive(&mut self, incoming: Classification<I::Summary>) {
        self.classification.absorb(incoming);
        self.repartition();
    }

    /// Takes the node's entire classification, leaving it empty — a
    /// graceful retirement's handoff. The caller owns every grain now;
    /// a failed handoff must [`receive`](Self::receive) them back.
    pub fn take_classification(&mut self) -> Classification<I::Summary> {
        std::mem::take(&mut self.classification)
    }

    /// Re-reads the node's sensor: decays the current classification by
    /// the exact fraction `decay_num / decay_den` (the forgetting window
    /// of a dynamic workload) and injects a fresh unit-weight collection
    /// built from the new reading, then repartitions.
    ///
    /// Returns `(injected, forgotten)` grain counts, both integer-exact,
    /// so the caller's conservation ledger can extend its balance to
    /// `final = initial + gains + injected − losses − forgotten`.
    pub fn refresh_reading(
        &mut self,
        val: &I::Value,
        quantum: Quantum,
        decay_num: u64,
        decay_den: u64,
    ) -> (u64, u64) {
        let forgotten = self.classification.decay(decay_num, decay_den);
        let summary = self.instance.val_to_summary(val);
        let unit = quantum.unit();
        self.classification.push(Collection::new(summary, unit));
        self.repartition();
        (unit.grains(), forgotten)
    }

    /// Handles several incoming classifications at once, running
    /// `partition` a single time for the entire accumulated set — the
    /// batching the paper's simulations use when a node hears from multiple
    /// neighbors in one round. Takes every classification out of
    /// `incoming`, leaving its buffer for reuse.
    ///
    /// The union grows once, to the batch's total, before absorbing.
    pub fn receive_batch(&mut self, incoming: &mut Vec<Classification<I::Summary>>) {
        if incoming.is_empty() {
            return;
        }
        let total = incoming.iter().map(Classification::len).sum();
        self.classification.collections.reserve_exact(total);
        for c in incoming.drain(..) {
            self.classification.absorb(c);
        }
        self.repartition();
    }

    fn repartition(&mut self) {
        let groups = self.instance.partition(&self.classification);
        let owner = validate_groups::<I>(&self.instance, &self.classification, &groups);
        let big = std::mem::take(&mut self.classification.collections);
        self.classification.collections = merge_groups(&*self.instance, big, &groups, owner);
    }
}

/// Merges each group of `big` into one collection with `mergeSet`, in
/// group order; a singleton group's collection moves over unchanged.
/// `owner` is [`validate_groups`]' group of each collection.
///
/// Besides the result, a call allocates one list of `merge_set` parts,
/// and only when some group has two members or more.
fn merge_groups<I: Instance>(
    instance: &I,
    big: Vec<Collection<I::Summary>>,
    groups: &[Vec<usize>],
    mut owner: Vec<usize>,
) -> Vec<Collection<I::Summary>> {
    // The merged collections come first and the singletons after them,
    // in index order; `owner[n..]` records each one's group, and the
    // permutation at the end puts them in group order.
    let n = big.len();
    let mut merged = Vec::with_capacity(groups.len());
    let widest = groups.iter().map(Vec::len).filter(|&len| len > 1).max();
    let mut parts = Vec::with_capacity(widest.unwrap_or(0));
    for (g, group) in groups.iter().enumerate() {
        if group.len() == 1 {
            continue;
        }
        parts.clear();
        parts.extend(
            group
                .iter()
                .map(|&i| (&big[i].summary, big[i].weight.grains() as f64)),
        );
        let weight: Weight = group.iter().map(|&i| big[i].weight).sum();
        assert!(!weight.is_zero(), "{ZERO_WEIGHT}");
        merged.push(Collection {
            summary: instance.merge_set(&parts),
            weight,
            aux: merge_aux(group.iter().map(|&i| &big[i])),
        });
        owner.push(g);
    }
    for (i, c) in big.into_iter().enumerate() {
        let g = owner[i];
        if groups[g].len() == 1 {
            assert!(!c.weight.is_zero(), "{ZERO_WEIGHT}");
            merged.push(c);
            owner.push(g);
        }
    }
    let target = &mut owner[n..];
    for at in 0..target.len() {
        while target[at] != at {
            let to = target[at];
            merged.swap(at, to);
            target.swap(at, to);
        }
    }
    merged
}

fn merge_aux<'a, S: 'a>(
    mut members: impl Iterator<Item = &'a Collection<S>>,
) -> Option<MixtureVector> {
    let mut acc = members.next()?.aux.clone()?;
    for m in members {
        acc.add_assign(m.aux.as_ref()?);
    }
    Some(acc)
}

/// Asserts that `groups` is a partition of `big`'s indices that respects
/// §4.1's restrictions, and returns the group of each collection, with
/// room for [`merge_groups`] to append one entry per group.
fn validate_groups<I: Instance>(
    instance: &I,
    big: &Classification<I::Summary>,
    groups: &[Vec<usize>],
) -> Vec<usize> {
    assert!(
        groups.len() <= instance.k(),
        "partition produced {} groups, k = {}",
        groups.len(),
        instance.k()
    );
    const UNSEEN: usize = usize::MAX;
    let mut owner = Vec::with_capacity(big.len() + groups.len());
    owner.resize(big.len(), UNSEEN);
    for (g, members) in groups.iter().enumerate() {
        assert!(!members.is_empty(), "partition produced an empty group");
        for &i in members {
            assert!(i < big.len(), "partition index {i} out of range");
            assert!(owner[i] == UNSEEN, "partition assigned index {i} twice");
            owner[i] = g;
        }
    }
    assert!(
        owner.iter().all(|&g| g != UNSEEN),
        "partition did not cover all collections"
    );
    if groups.len() > 1 {
        for g in groups {
            assert!(
                !(g.len() == 1 && big.collection(g[0]).weight.is_quantum()),
                "partition left a quantum-weight collection alone"
            );
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centroid::CentroidInstance;
    use distclass_linalg::Vector;

    fn node(inst: &Arc<CentroidInstance>, x: f64) -> ClassifierNode<CentroidInstance> {
        ClassifierNode::new(Arc::clone(inst), &Vector::from([x]), Quantum::new(8))
    }

    #[test]
    fn initial_state_is_own_value() {
        let inst = Arc::new(CentroidInstance::new(3).unwrap());
        let n = node(&inst, 2.5);
        assert_eq!(n.classification().len(), 1);
        let c = n.classification().collection(0);
        assert_eq!(c.weight.grains(), 8);
        assert_eq!(c.summary.as_slice(), &[2.5]);
    }

    #[test]
    fn split_then_receive_conserves_weight() {
        let inst = Arc::new(CentroidInstance::new(3).unwrap());
        let mut a = node(&inst, 0.0);
        let mut b = node(&inst, 1.0);
        let msg = a.split_for_send();
        assert_eq!(msg.total_weight().grains(), 4);
        assert_eq!(a.classification().total_weight().grains(), 4);
        b.receive(msg);
        assert_eq!(b.classification().total_weight().grains(), 12);
    }

    #[test]
    fn k_bound_forces_merging() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let mut target = node(&inst, 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            let mut peer = node(&inst, x);
            target.receive(peer.split_for_send());
        }
        assert!(target.classification().len() <= 2);
        // All weight accounted for: own 8 + 4 × 4 sent halves.
        assert_eq!(target.classification().total_weight().grains(), 24);
    }

    #[test]
    fn receive_batch_partitions_once() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let mut target = node(&inst, 0.0);
        let mut msgs: Vec<_> = [10.0, 20.0, 30.0]
            .iter()
            .map(|&x| node(&inst, x).split_for_send())
            .collect();
        target.receive_batch(&mut msgs);
        assert!(target.classification().len() <= 2);
        assert_eq!(target.classification().total_weight().grains(), 8 + 3 * 4);
        assert!(msgs.is_empty(), "the batch is taken");
    }

    #[test]
    fn receive_batch_empty_is_noop() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let mut n = node(&inst, 1.0);
        let before = n.classification().clone();
        n.receive_batch(&mut Vec::new());
        assert_eq!(n.classification(), &before);
    }

    #[test]
    fn refresh_reading_balances_injected_against_forgotten() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let q = Quantum::new(8);
        let mut n = node(&inst, 0.0);
        let before = n.classification().total_weight().grains();
        let (injected, forgotten) = n.refresh_reading(&Vector::from([5.0]), q, 1, 2);
        assert_eq!(injected, 8);
        assert_eq!(forgotten, 4);
        assert_eq!(
            n.classification().total_weight().grains(),
            before + injected - forgotten
        );
        // The fresh reading dominates: the heaviest centroid sits at 5.
        let heavy = n.classification().heaviest().unwrap();
        let c = n.classification().collection(heavy);
        assert!((c.summary.as_slice()[0] - 5.0).abs() < 2.0);
    }

    #[test]
    fn refresh_reading_with_full_decay_replaces_state() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let q = Quantum::new(8);
        let mut n = node(&inst, 0.0);
        let (injected, forgotten) = n.refresh_reading(&Vector::from([9.0]), q, 1, 1);
        assert_eq!(injected, 8);
        assert_eq!(forgotten, 8);
        assert_eq!(n.classification().len(), 1);
        assert_eq!(n.classification().collection(0).summary.as_slice(), &[9.0]);
    }

    #[test]
    fn from_classification_restores_state_verbatim() {
        let inst = Arc::new(CentroidInstance::new(3).unwrap());
        let mut a = node(&inst, 2.0);
        let mut b = node(&inst, 5.0);
        a.receive(b.split_for_send());
        let snapshot = a.classification().clone();
        let restored = ClassifierNode::from_classification(Arc::clone(&inst), snapshot.clone());
        assert_eq!(restored.classification(), &snapshot);
        assert_eq!(
            restored.classification().total_weight().grains(),
            a.classification().total_weight().grains()
        );
    }

    /// Partitions into fixed groups, in an order unlike the indices', and
    /// merges by listing its parts, so the output shows which collections
    /// went where and in what order.
    #[derive(Debug)]
    struct FixedGroups(Vec<Vec<usize>>);

    impl Instance for FixedGroups {
        type Value = String;
        type Summary = String;

        fn k(&self) -> usize {
            self.0.len()
        }

        fn val_to_summary(&self, val: &String) -> String {
            val.clone()
        }

        fn merge_set(&self, parts: &[(&String, f64)]) -> String {
            let names: Vec<String> = parts.iter().map(|(s, w)| format!("{s}*{w}")).collect();
            format!("({})", names.join("+"))
        }

        fn partition(&self, _big: &Classification<String>) -> Vec<Vec<usize>> {
            self.0.clone()
        }

        fn summary_distance(&self, _a: &String, _b: &String) -> f64 {
            0.0
        }
    }

    #[test]
    fn merged_groups_come_out_in_group_order() {
        let groups = vec![vec![3], vec![4, 0, 2], vec![1], vec![5, 6]];
        let inst = Arc::new(FixedGroups(groups));
        let big: Classification<String> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .zip(1u64..)
            .map(|(name, grains)| Collection::new(name.to_string(), Weight::from_grains(grains)))
            .collect();
        let mut node = ClassifierNode::from_classification(inst, Classification::new());
        node.receive(big);
        let out: Vec<(&str, u64)> = node
            .classification()
            .iter()
            .map(|c| (c.summary.as_str(), c.weight.grains()))
            .collect();
        assert_eq!(
            out,
            [("d", 4), ("(e*5+a*1+c*3)", 9), ("b", 2), ("(f*6+g*7)", 13)]
        );
    }

    #[test]
    fn audited_node_carries_basis_vector() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let n = ClassifierNode::new_audited(inst, &Vector::from([1.0]), Quantum::new(8), 5, 3);
        let aux = n.classification().collection(0).aux.as_ref().unwrap();
        assert_eq!(aux.component(3), 1.0);
        assert_eq!(aux.norm_l1(), 1.0);
    }

    #[test]
    fn aux_flows_through_split_and_merge() {
        let inst = Arc::new(CentroidInstance::new(2).unwrap());
        let q = Quantum::new(8);
        let mut a = ClassifierNode::new_audited(Arc::clone(&inst), &Vector::from([0.0]), q, 2, 0);
        let mut b = ClassifierNode::new_audited(inst, &Vector::from([0.1]), q, 2, 1);
        let msg = a.split_for_send();
        b.receive(msg);
        // With k=2 and close values the partition may or may not merge; the
        // total aux over b's collections must equal e1 + 0.5 e0.
        let mut total = MixtureVector::zeros(2);
        for c in b.classification().iter() {
            total.add_assign(c.aux.as_ref().unwrap());
        }
        assert!((total.component(0) - 0.5).abs() < 1e-12);
        assert!((total.component(1) - 1.0).abs() < 1e-12);
    }
}
