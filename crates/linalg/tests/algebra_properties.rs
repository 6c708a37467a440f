//! Property tests for the linear-algebra substrate: algebraic laws of the
//! matrix/vector operations and statistical identities of the moment
//! machinery, on randomized inputs.

use distclass_linalg::{merge_moments, Matrix, Moments, Vector, WeightedAccumulator};
use proptest::prelude::*;

fn mat3(entries: &[f64]) -> Matrix {
    Matrix::from_rows(&[&entries[0..3], &entries[3..6], &entries[6..9]]).expect("static shape")
}

proptest! {
    #[test]
    fn matrix_multiplication_is_associative(
        a in proptest::collection::vec(-10.0f64..10.0, 9),
        b in proptest::collection::vec(-10.0f64..10.0, 9),
        c in proptest::collection::vec(-10.0f64..10.0, 9),
    ) {
        let (a, b, c) = (mat3(&a), mat3(&b), mat3(&c));
        let left = a.mul_mat(&b).mul_mat(&c);
        let right = a.mul_mat(&b.mul_mat(&c));
        prop_assert!(left.approx_eq(&right, 1e-6));
    }

    #[test]
    fn transpose_reverses_products(
        a in proptest::collection::vec(-10.0f64..10.0, 9),
        b in proptest::collection::vec(-10.0f64..10.0, 9),
    ) {
        let (a, b) = (mat3(&a), mat3(&b));
        let left = a.mul_mat(&b).transposed();
        let right = b.transposed().mul_mat(&a.transposed());
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn trace_is_cyclic(
        a in proptest::collection::vec(-5.0f64..5.0, 9),
        b in proptest::collection::vec(-5.0f64..5.0, 9),
    ) {
        let (a, b) = (mat3(&a), mat3(&b));
        let ab = a.mul_mat(&b).trace();
        let ba = b.mul_mat(&a).trace();
        prop_assert!((ab - ba).abs() < 1e-8, "tr(AB) = {ab} vs tr(BA) = {ba}");
    }

    #[test]
    fn matvec_distributes_over_addition(
        m in proptest::collection::vec(-10.0f64..10.0, 9),
        x in proptest::collection::vec(-10.0f64..10.0, 3),
        y in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let m = mat3(&m);
        let (x, y) = (Vector::from(x), Vector::from(y));
        let left = m.mul_vec(&(&x + &y));
        let mut right = m.mul_vec(&x);
        right += &m.mul_vec(&y);
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn dot_product_cauchy_schwarz(
        x in proptest::collection::vec(-100.0f64..100.0, 4),
        y in proptest::collection::vec(-100.0f64..100.0, 4),
    ) {
        let (x, y) = (Vector::from(x), Vector::from(y));
        prop_assert!(x.dot(&y).abs() <= x.norm() * y.norm() + 1e-6);
    }

    #[test]
    fn triangle_inequality(
        x in proptest::collection::vec(-100.0f64..100.0, 4),
        y in proptest::collection::vec(-100.0f64..100.0, 4),
        z in proptest::collection::vec(-100.0f64..100.0, 4),
    ) {
        let (x, y, z) = (Vector::from(x), Vector::from(y), Vector::from(z));
        prop_assert!(x.distance(&z) <= x.distance(&y) + y.distance(&z) + 1e-9);
    }

    #[test]
    fn merged_covariance_is_psd(
        pts in proptest::collection::vec(
            ((-100.0f64..100.0, -100.0f64..100.0), 0.01f64..10.0),
            2..25,
        ),
    ) {
        let moments: Vec<Moments> = pts
            .iter()
            .map(|&((x, y), w)| Moments::of_point(Vector::from([x, y]), w))
            .collect();
        let merged = merge_moments(moments.iter()).expect("non-empty");
        // A covariance of real weighted points is PSD: Cholesky of
        // cov + tiny jitter must succeed.
        let chol = merged.cov.cholesky_with_jitter(1e-9, 10);
        prop_assert!(chol.is_ok(), "non-PSD covariance: {}", merged.cov);
        // And the diagonal (variances) is non-negative.
        for i in 0..2 {
            prop_assert!(merged.cov[(i, i)] >= -1e-9);
        }
    }

    #[test]
    fn moment_merge_is_permutation_invariant(
        pts in proptest::collection::vec(
            ((-50.0f64..50.0, -50.0f64..50.0), 0.1f64..5.0),
            2..12,
        ),
    ) {
        let moments: Vec<Moments> = pts
            .iter()
            .map(|&((x, y), w)| Moments::of_point(Vector::from([x, y]), w))
            .collect();
        let forward = merge_moments(moments.iter()).expect("non-empty");
        let backward = merge_moments(moments.iter().rev()).expect("non-empty");
        prop_assert!((forward.weight - backward.weight).abs() < 1e-9);
        prop_assert!(forward.mean.approx_eq(&backward.mean, 1e-8));
        prop_assert!(forward.cov.approx_eq(&backward.cov, 1e-7));
    }

    #[test]
    fn accumulator_mean_within_input_hull(
        pts in proptest::collection::vec((-1000.0f64..1000.0, 0.1f64..10.0), 1..30),
    ) {
        let mut acc = WeightedAccumulator::new(1);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(x, w) in &pts {
            acc.push(&Vector::from([x]), w);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let m = acc.moments().expect("non-empty");
        prop_assert!(m.mean[0] >= lo - 1e-9 && m.mean[0] <= hi + 1e-9);
        prop_assert!(m.cov[(0, 0)] >= -1e-9);
        // Variance bounded by the squared half-range.
        let half = 0.5 * (hi - lo);
        prop_assert!(m.cov[(0, 0)] <= half * half * 4.0 + 1e-6);
    }

    #[test]
    fn cholesky_solve_reproduces_rhs(
        entries in proptest::collection::vec(-3.0f64..3.0, 9),
        diag in 1.0f64..10.0,
        rhs in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let a = mat3(&entries);
        let mut spd = a.mul_mat(&a.transposed());
        spd.add_diagonal(diag);
        let chol = spd.cholesky().expect("SPD by construction");
        let b = Vector::from(rhs);
        let x = chol.solve(&b).expect("dimensions match");
        prop_assert!(spd.mul_vec(&x).approx_eq(&b, 1e-6));
    }

    #[test]
    fn log_det_matches_product_of_pivots_scaling(
        diag in proptest::collection::vec(0.1f64..50.0, 3),
        scale in 0.1f64..10.0,
    ) {
        // det(sA) = s^d det(A) for diagonal A.
        let a = Matrix::diagonal(&diag);
        let scaled = a.scaled(scale);
        let ld_a = a.cholesky().expect("PD").log_det();
        let ld_s = scaled.cholesky().expect("PD").log_det();
        prop_assert!((ld_s - (ld_a + 3.0 * scale.ln())).abs() < 1e-9);
    }
}
