//! Property-based tests (proptest) for the core invariants: weight
//! quantization, partition restrictions, moment merging, EM grouping, and
//! requirements R2–R4 on random mixtures.

use std::sync::Arc;

use distclass::baselines::HistogramInstance;
use distclass::core::em::{self, EmConfig};
use distclass::core::{
    audit, CentroidInstance, Classification, ClassifierNode, Collection, GaussianSummary,
    GmInstance, Instance, MixtureSummary, MixtureVector, Quantum, Weight,
};
use distclass::linalg::{merge_moments, Matrix, Moments, Vector, WeightedAccumulator};
use proptest::prelude::*;

proptest! {
    #[test]
    fn weight_split_conserves_and_balances(grains in 0u64..1_000_000_000) {
        let w = Weight::from_grains(grains);
        let (keep, send) = w.split();
        prop_assert_eq!(keep + send, w);
        prop_assert!(keep.grains() >= send.grains());
        prop_assert!(keep.grains() - send.grains() <= 1);
    }

    #[test]
    fn classification_split_conserves(grains in proptest::collection::vec(1u64..10_000, 1..10)) {
        let mut c: Classification<u32> = grains
            .iter()
            .enumerate()
            .map(|(i, &g)| Collection::new(i as u32, Weight::from_grains(g)))
            .collect();
        let before = c.total_weight();
        let sent = c.split_off_half();
        prop_assert_eq!(c.total_weight() + sent.total_weight(), before);
    }

    #[test]
    fn centroid_partition_respects_structure(
        xs in proptest::collection::vec(-100.0f64..100.0, 2..12),
        k in 1usize..5,
    ) {
        let inst = CentroidInstance::new(k).expect("k >= 1");
        let big: Classification<Vector> = xs
            .iter()
            .map(|&x| Collection::new(Vector::from([x]), Weight::from_grains(8)))
            .collect();
        let groups = inst.partition(&big);
        prop_assert!(groups.len() <= k);
        let mut seen: Vec<usize> = groups.concat();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..xs.len()).collect();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn centroid_partition_never_isolates_quantum_weight(
        xs in proptest::collection::vec(-10.0f64..10.0, 3..10),
    ) {
        let inst = CentroidInstance::new(4).expect("k = 4 is valid");
        // Make every other collection quantum-weight.
        let big: Classification<Vector> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let grains = if i % 2 == 0 { 1 } else { 16 };
                Collection::new(Vector::from([x]), Weight::from_grains(grains))
            })
            .collect();
        let groups = inst.partition(&big);
        if groups.len() > 1 {
            for g in &groups {
                let alone_quantum =
                    g.len() == 1 && big.collection(g[0]).weight.is_quantum();
                prop_assert!(!alone_quantum, "quantum singleton in {groups:?}");
            }
        }
    }

    #[test]
    fn moments_merge_matches_incremental(
        pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0, 0.1f64..5.0), 1..20),
    ) {
        let mut acc = WeightedAccumulator::new(2);
        let mut parts = Vec::new();
        for &(x, y, w) in &pts {
            let v = Vector::from([x, y]);
            acc.push(&v, w);
            parts.push(Moments::of_point(v, w));
        }
        let merged = merge_moments(parts.iter().map(|m| (m.weight, &m.mean, &m.cov)))
            .expect("non-empty");
        let incremental = acc.moments().expect("non-empty");
        prop_assert!((merged.weight - incremental.weight).abs() < 1e-9);
        prop_assert!(merged.mean.approx_eq(&incremental.mean, 1e-6));
        prop_assert!(merged.cov.approx_eq(&incremental.cov, 1e-5));
    }

    #[test]
    fn em_reduce_covers_all_inputs(
        xs in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 2..15),
        k in 1usize..6,
    ) {
        let comps: Vec<(GaussianSummary, f64)> = xs
            .iter()
            .map(|&(x, y)| (GaussianSummary::from_point(&Vector::from([x, y])), 1.0))
            .collect();
        let out = em::reduce(&comps, k, &EmConfig::default()).expect("valid EM input");
        prop_assert!(out.groups.len() <= k.min(xs.len()));
        let mut seen: Vec<usize> = out.groups.concat();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..xs.len()).collect();
        prop_assert_eq!(seen, expected);
        let pi_total: f64 = out.model.iter().map(|(_, p)| p).sum();
        prop_assert!((pi_total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn centroid_r3_r4_on_random_mixtures(
        vals in proptest::collection::vec(-50.0f64..50.0, 3..8),
        weights_a in proptest::collection::vec(0.0f64..1.0, 3..8),
        weights_b in proptest::collection::vec(0.0f64..1.0, 3..8),
        alpha in 0.01f64..100.0,
    ) {
        let n = vals.len().min(weights_a.len()).min(weights_b.len());
        let values: Vec<Vector> = vals[..n].iter().map(|&x| Vector::from([x])).collect();
        let mk = |w: &[f64]| {
            let mut c = w[..n].to_vec();
            if c.iter().all(|&x| x == 0.0) {
                c[0] = 1.0;
            }
            MixtureVector::from_components(c)
        };
        let inst = CentroidInstance::new(3).expect("k = 3 is valid");
        let va = mk(&weights_a);
        let vb = mk(&weights_b);
        audit::check_r3(&inst, &values, &va, alpha, 1e-6).map_err(TestCaseError::fail)?;
        audit::check_r4(&inst, &values, &[va, vb], 1e-6).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn gaussian_r3_r4_on_random_mixtures(
        vals in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 3..6),
        weights_a in proptest::collection::vec(0.05f64..1.0, 3..6),
        weights_b in proptest::collection::vec(0.05f64..1.0, 3..6),
        alpha in 0.1f64..10.0,
    ) {
        let n = vals.len().min(weights_a.len()).min(weights_b.len());
        let values: Vec<Vector> = vals[..n].iter().map(|&(x, y)| Vector::from([x, y])).collect();
        let inst = GmInstance::new(3).expect("k = 3 is valid");
        let va = MixtureVector::from_components(weights_a[..n].to_vec());
        let vb = MixtureVector::from_components(weights_b[..n].to_vec());
        audit::check_r3(&inst, &values, &va, alpha, 1e-6).map_err(TestCaseError::fail)?;
        audit::check_r4(&inst, &values, &[va, vb], 1e-6).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn histogram_r3_r4_exact(
        vals in proptest::collection::vec(0.0f64..10.0, 3..8),
        weights_a in proptest::collection::vec(0.01f64..1.0, 3..8),
        weights_b in proptest::collection::vec(0.01f64..1.0, 3..8),
        alpha in 0.01f64..100.0,
    ) {
        let n = vals.len().min(weights_a.len()).min(weights_b.len());
        let inst = HistogramInstance::new(2, 0.0, 10.0, 8).expect("valid histogram");
        let va = MixtureVector::from_components(weights_a[..n].to_vec());
        let vb = MixtureVector::from_components(weights_b[..n].to_vec());
        audit::check_r3(&inst, &vals[..n], &va, alpha, 1e-9).map_err(TestCaseError::fail)?;
        audit::check_r4(&inst, &vals[..n], &[va, vb], 1e-9).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn r2_holds_for_all_instances(idx in 0usize..5) {
        let values: Vec<Vector> = (0..5).map(|i| Vector::from([i as f64, 1.0])).collect();
        let e = MixtureVector::basis(5, idx);

        let centroid = CentroidInstance::new(2).expect("k = 2 is valid");
        let f_e = centroid.summarize_mixture(&values, &e);
        prop_assert!(centroid.summary_distance(&f_e, &centroid.val_to_summary(&values[idx])) < 1e-12);

        let gm = GmInstance::new(2).expect("k = 2 is valid");
        let f_e = gm.summarize_mixture(&values, &e);
        prop_assert!(gm.summary_distance(&f_e, &gm.val_to_summary(&values[idx])) < 1e-12);

        let scalars: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let hist = HistogramInstance::new(2, 0.0, 5.0, 5).expect("valid histogram");
        let f_e = hist.summarize_mixture(&scalars, &e);
        prop_assert!(hist.summary_distance(&f_e, &hist.val_to_summary(&scalars[idx])) < 1e-12);
    }

    #[test]
    fn node_exchange_conserves_weight_for_any_sequence(
        ops in proptest::collection::vec((0usize..4, 0usize..4), 1..40),
    ) {
        // Four nodes exchanging in an arbitrary (possibly unfair) pattern:
        // weight is conserved regardless.
        let q = Quantum::new(1 << 8);
        let inst = Arc::new(CentroidInstance::new(2).expect("k = 2 is valid"));
        let mut nodes: Vec<ClassifierNode<CentroidInstance>> = (0..4)
            .map(|i| ClassifierNode::new(Arc::clone(&inst), &Vector::from([i as f64]), q))
            .collect();
        for &(from, to) in &ops {
            if from == to {
                continue;
            }
            let msg = nodes[from].split_for_send();
            if !msg.is_empty() {
                nodes[to].receive(msg);
            }
        }
        let total: u64 = nodes
            .iter()
            .map(|n| n.classification().total_weight().grains())
            .sum();
        prop_assert_eq!(total, 4 * (1 << 8) as u64);
        for n in &nodes {
            prop_assert!(n.classification().len() <= 2);
        }
    }

    #[test]
    fn cholesky_roundtrip_on_random_spd(
        entries in proptest::collection::vec(-2.0f64..2.0, 9),
        diag in 0.5f64..5.0,
    ) {
        // A A^T + diag I is SPD for any A.
        let a = Matrix::from_rows(&[
            &entries[0..3],
            &entries[3..6],
            &entries[6..9],
        ]).expect("static shape");
        let mut spd = a.mul_mat(&a.transposed());
        spd.add_diagonal(diag);
        let chol = spd.cholesky().expect("SPD by construction");
        prop_assert!(chol.reconstruct().approx_eq(&spd, 1e-8));
        let b = Vector::from([1.0, -2.0, 0.5]);
        let x = chol.solve(&b).expect("dimensions match");
        prop_assert!(spd.mul_vec(&x).approx_eq(&b, 1e-6));
    }
}

/// A deliberately *invalid* instance: summaries are coordinate medians.
/// Medians do not compose (the median of medians is not the median of the
/// union), so R4 must fail — and the audit machinery must catch it. This
/// is the reason the paper's instances summarize with means/moments.
mod invalid_median_instance {
    use super::*;
    use distclass::core::{audit, greedy_partition, Classification};

    struct MedianInstance;

    impl Instance for MedianInstance {
        type Value = f64;
        type Summary = f64;

        fn k(&self) -> usize {
            2
        }

        fn val_to_summary(&self, val: &f64) -> f64 {
            *val
        }

        fn merge_set(&self, parts: &[(&f64, f64)]) -> f64 {
            // Weighted median of the part summaries.
            let mut items: Vec<(f64, f64)> = parts.iter().map(|(s, w)| (**s, *w)).collect();
            items.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let half: f64 = items.iter().map(|(_, w)| w).sum::<f64>() / 2.0;
            let mut acc = 0.0;
            for (s, w) in &items {
                acc += w;
                if acc >= half {
                    return *s;
                }
            }
            items.last().expect("non-empty").0
        }

        fn partition(&self, big: &Classification<f64>) -> Vec<Vec<usize>> {
            greedy_partition(self, big)
        }

        fn summary_distance(&self, a: &f64, b: &f64) -> f64 {
            (a - b).abs()
        }
    }

    impl MixtureSummary for MedianInstance {
        fn summarize_mixture(&self, values: &[f64], mixture: &MixtureVector) -> f64 {
            let mut items: Vec<(f64, f64)> = values
                .iter()
                .zip(mixture.components())
                .filter(|&(_, &w)| w > 0.0)
                .map(|(v, &w)| (*v, w))
                .collect();
            items.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let half = mixture.norm_l1() / 2.0;
            let mut acc = 0.0;
            for (s, w) in &items {
                acc += w;
                if acc >= half {
                    return *s;
                }
            }
            items.last().expect("non-empty").0
        }
    }

    #[test]
    fn audit_rejects_median_summaries() {
        let inst = MedianInstance;
        // Crafted so the medians provably disagree: the union's median is
        // 5 (mass 3 at 0 plus one grain at 5 crosses the halfway mark),
        // but merging the part medians {0 (mass 3), 6 (mass 4)} gives 6.
        let values = vec![0.0, 5.0, 6.0, 7.0, 8.0];
        let a = MixtureVector::from_components(vec![3.0, 0.0, 0.0, 0.0, 0.0]);
        let b = MixtureVector::from_components(vec![0.0, 1.0, 1.0, 1.0, 1.0]);
        // R3 still holds for medians (scale-invariant)...
        audit::check_r3(&inst, &values, &a, 5.0, 1e-9).expect("medians are scale invariant");
        // ...but R4 must fail.
        let err = audit::check_r4(&inst, &values, &[a, b], 1e-6)
            .expect_err("median instance must violate R4");
        assert!(err.contains("R4 violated"), "unexpected error: {err}");
    }
}
