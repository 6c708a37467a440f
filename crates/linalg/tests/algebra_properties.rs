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
        let merged = merge_moments(moments.iter().map(|m| (m.weight, &m.mean, &m.cov)))
            .expect("non-empty");
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
        let parts: Vec<_> = moments.iter().map(|m| (m.weight, &m.mean, &m.cov)).collect();
        let forward = merge_moments(parts.iter().copied()).expect("non-empty");
        let backward = merge_moments(parts.iter().rev().copied()).expect("non-empty");
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

/// The largest dimension checked against a plain `Vec<f64>`: one past the
/// four elements `Vector` and `Matrix` hold in place.
const PAST_INLINE: usize = 5;

/// The types as they were when a `Vec<f64>` held the elements: their
/// derived `Debug` is the format the in-place storage must keep.
mod plain {
    #[derive(Debug)]
    #[allow(dead_code)]
    pub struct Vector {
        pub data: Vec<f64>,
    }

    #[derive(Debug)]
    #[allow(dead_code)]
    pub struct Matrix {
        pub rows: usize,
        pub cols: usize,
        pub data: Vec<f64>,
    }
}

fn sum(xs: impl Iterator<Item = f64>) -> f64 {
    xs.sum::<f64>()
}

/// `a + alpha · b`, element by element, as `axpy` computes it.
fn axpy(a: &[f64], alpha: f64, b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + alpha * y).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every `Vector` operation at dimension `x.len()`, against the same
/// arithmetic on slices: equal bits, not just close values.
fn check_vector(x: &[f64], y: &[f64], s: f64) -> Result<(), TestCaseError> {
    let d = x.len();
    let (a, b) = (Vector::from(x.to_vec()), Vector::from(y));
    prop_assert_eq!(a.dim(), d);
    prop_assert_eq!(a.is_empty(), d == 0);
    prop_assert_eq!(a.as_slice(), x);
    prop_assert_eq!(a.iter().copied().collect::<Vec<f64>>(), x.to_vec());
    prop_assert_eq!(a.as_ref(), x);
    prop_assert_eq!(x.iter().copied().collect::<Vector>(), a.clone());
    prop_assert_eq!(a.clone().into_inner(), x.to_vec());
    prop_assert_eq!(Vector::zeros(d).into_inner(), vec![0.0; d]);
    prop_assert_eq!(Vector::filled(d, s).into_inner(), vec![s; d]);
    for i in 0..d {
        prop_assert_eq!(a[i].to_bits(), x[i].to_bits());
        let mut e = vec![0.0; d];
        e[i] = 1.0;
        prop_assert_eq!(Vector::basis(d, i).into_inner(), e);
    }

    let dot = sum(x.iter().zip(y).map(|(p, q)| p * q));
    prop_assert_eq!(a.dot(&b).to_bits(), dot.to_bits());
    prop_assert_eq!(
        a.norm().to_bits(),
        sum(x.iter().map(|p| p * p)).sqrt().to_bits()
    );
    prop_assert_eq!(
        a.norm_l1().to_bits(),
        sum(x.iter().map(|p| p.abs())).to_bits()
    );
    let linf = x.iter().fold(0.0f64, |m, p| m.max(p.abs()));
    prop_assert_eq!(a.norm_linf().to_bits(), linf.to_bits());
    let dist = sum(x.iter().zip(y).map(|(p, q)| (p - q) * (p - q))).sqrt();
    prop_assert_eq!(a.distance(&b).to_bits(), dist.to_bits());

    let sum_xy: Vec<f64> = x.iter().zip(y).map(|(p, q)| p + q).collect();
    let diff_xy: Vec<f64> = x.iter().zip(y).map(|(p, q)| p - q).collect();
    let scaled: Vec<f64> = x.iter().map(|p| p * s).collect();
    let negated: Vec<f64> = x.iter().map(|p| p * -1.0).collect();
    prop_assert_eq!(bits((&a + &b).as_slice()), bits(&sum_xy));
    prop_assert_eq!(bits((&a - &b).as_slice()), bits(&diff_xy));
    prop_assert_eq!(
        bits(a.checked_add(&b).expect("same dim").as_slice()),
        bits(&sum_xy)
    );
    prop_assert_eq!(
        bits(a.checked_sub(&b).expect("same dim").as_slice()),
        bits(&diff_xy)
    );
    prop_assert_eq!(bits((&a * s).as_slice()), bits(&scaled));
    prop_assert_eq!(bits(a.scaled(s).as_slice()), bits(&scaled));
    prop_assert_eq!(bits((-&a).as_slice()), bits(&negated));
    let mut m = a.clone();
    m.scale(s);
    prop_assert_eq!(bits(m.as_slice()), bits(&scaled));
    let mut m = a.clone();
    m.axpy(s, &b);
    prop_assert_eq!(bits(m.as_slice()), bits(&axpy(x, s, y)));
    let mut m = a.clone();
    m += &b;
    prop_assert_eq!(bits(m.as_slice()), bits(&axpy(x, 1.0, y)));
    let mut m = a.clone();
    m -= &b;
    prop_assert_eq!(bits(m.as_slice()), bits(&axpy(x, -1.0, y)));
    let mut m = a.clone();
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        *v = i as f64;
    }
    for i in 0..d {
        prop_assert_eq!(m[i], i as f64);
        m[i] = -m[i];
    }
    prop_assert_eq!(
        m.as_slice(),
        &(0..d).map(|i| -(i as f64)).collect::<Vec<f64>>()[..]
    );
    let longer = Vector::zeros(d + 1);
    prop_assert!(a.checked_add(&longer).is_err() && a.checked_sub(&longer).is_err());

    // `PartialEq` compares the elements: across constructors and
    // representations, never across dimensions, and NaN is unequal.
    prop_assert_eq!(&a, &Vector::from(x));
    prop_assert_eq!(a == b, x == y);
    prop_assert!(a != longer);
    prop_assert!(a.approx_eq(&a, 0.0) && !a.approx_eq(&longer, f64::INFINITY));
    prop_assert!(a.is_finite());
    if d > 0 {
        let mut nan = a.clone();
        nan[d - 1] = f64::NAN;
        prop_assert!(nan != nan.clone() && !nan.is_finite());
        let mut other = a.clone();
        other[0] += 1.0;
        prop_assert!(other != a);
    }
    let mut copy = Vector::filled(PAST_INLINE + 2 - d, 9.0);
    copy.clone_from(&a);
    prop_assert_eq!(&copy, &a);

    let plain = plain::Vector { data: x.to_vec() };
    prop_assert_eq!(format!("{a:?}"), format!("{plain:?}"));
    prop_assert_eq!(format!("{a:#?}"), format!("{plain:#?}"));
    Ok(())
}

/// Every `Matrix` operation at shape `rows × cols`, against the same
/// arithmetic on a row-major `Vec<f64>`.
fn check_matrix(
    rows: usize,
    cols: usize,
    e: &[f64],
    f: &[f64],
    v: &[f64],
    s: f64,
) -> Result<(), TestCaseError> {
    let row_slices: Vec<&[f64]> = (0..rows).map(|i| &e[i * cols..(i + 1) * cols]).collect();
    let a = if rows == 0 {
        Matrix::zeros(0, cols)
    } else {
        Matrix::from_rows(&row_slices).expect("equal rows")
    };
    let mut b = Matrix::zeros(rows, cols);
    b.as_mut_slice().copy_from_slice(f);
    prop_assert_eq!(
        (a.rows(), a.cols(), a.is_square()),
        (rows, cols, rows == cols)
    );
    prop_assert_eq!(a.as_slice(), e);
    let zeros = Matrix::zeros(rows, cols);
    prop_assert_eq!(bits(zeros.as_slice()), vec![0; rows * cols]);
    for i in 0..rows {
        prop_assert_eq!(a.row(i), row_slices[i]);
        for j in 0..cols {
            prop_assert_eq!(a[(i, j)].to_bits(), e[i * cols + j].to_bits());
        }
    }

    let at = |m: &[f64], i: usize, j: usize| m[i * cols + j];
    let mut t = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            t[j * rows + i] = at(e, i, j);
        }
    }
    let transposed = a.transposed();
    prop_assert_eq!((transposed.rows(), transposed.cols()), (cols, rows));
    prop_assert_eq!(transposed.as_slice(), &t[..]);

    let x = Vector::from(&v[..cols]);
    let mv: Vec<f64> = (0..rows)
        .map(|i| sum((0..cols).map(|j| at(e, i, j) * v[j])))
        .collect();
    prop_assert_eq!(bits(a.mul_vec(&x).as_slice()), bits(&mv));
    // A · Bᵀ, multiplied the way `mul_mat` does: zero entries of A skipped.
    let mut ab = vec![0.0; rows * rows];
    for i in 0..rows {
        for k in 0..cols {
            let p = at(e, i, k);
            if p == 0.0 {
                continue;
            }
            for j in 0..rows {
                ab[i * rows + j] += p * at(f, j, k);
            }
        }
    }
    prop_assert_eq!(bits(a.mul_mat(&b.transposed()).as_slice()), bits(&ab));

    let scaled: Vec<f64> = e.iter().map(|p| p * s).collect();
    prop_assert_eq!(bits(a.scaled(s).as_slice()), bits(&scaled));
    prop_assert_eq!(bits((&a * s).as_slice()), bits(&scaled));
    let mut m = a.clone();
    m.scale(s);
    prop_assert_eq!(bits(m.as_slice()), bits(&scaled));
    let mut m = a.clone();
    m.axpy(s, &b);
    prop_assert_eq!(bits(m.as_slice()), bits(&axpy(e, s, f)));
    prop_assert_eq!(bits((&a + &b).as_slice()), bits(&axpy(e, 1.0, f)));
    prop_assert_eq!(bits((&a - &b).as_slice()), bits(&axpy(e, -1.0, f)));
    let mut m = a.clone();
    m += &b;
    prop_assert_eq!(bits(m.as_slice()), bits(&axpy(e, 1.0, f)));
    let frobenius = sum(e.iter().map(|p| p * p)).sqrt();
    prop_assert_eq!(a.frobenius_norm().to_bits(), frobenius.to_bits());
    prop_assert!(a.is_finite() && a.approx_eq(&a, 0.0));
    prop_assert!(!a.approx_eq(&Matrix::zeros(rows + 1, cols), f64::INFINITY));
    let outer = Matrix::outer(&Vector::from(&v[..rows]), &x);
    let products: Vec<f64> = (0..rows * cols)
        .map(|n| v[n / cols.max(1)] * v[n % cols.max(1)])
        .collect();
    prop_assert_eq!(bits(outer.as_slice()), bits(&products));

    if rows == cols {
        let n = rows;
        let trace = sum((0..n).map(|i| at(e, i, i)));
        prop_assert_eq!(a.trace().to_bits(), trace.to_bits());
        let mut sym = a.clone();
        sym.symmetrize();
        prop_assert!(sym.is_symmetric(0.0));
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = 0.5 * (at(e, i, j) + at(e, j, i));
                prop_assert_eq!(
                    (sym[(i, j)].to_bits(), sym[(j, i)].to_bits()),
                    (avg.to_bits(), avg.to_bits())
                );
            }
        }
        let mut shifted = a.clone();
        shifted.add_diagonal(s);
        let mut identity = vec![0.0; n * n];
        for i in 0..n {
            identity[i * n + i] = 1.0;
        }
        prop_assert_eq!(bits(shifted.as_slice()), bits(&axpy(e, s, &identity)));
        let id = Matrix::identity(n);
        prop_assert_eq!(id.as_slice(), &identity[..]);
        let mut diag = vec![0.0; n * n];
        for i in 0..n {
            diag[i * n + i] = v[i];
        }
        let diagonal = Matrix::diagonal(&v[..n]);
        prop_assert_eq!(diagonal.as_slice(), &diag[..]);
    }

    prop_assert_eq!(&a, &a.clone());
    prop_assert_eq!(a == b, e == f);
    prop_assert!(a != Matrix::zeros(rows, cols + 1) && a != Matrix::zeros(rows + 1, cols));
    if rows * cols > 0 {
        let mut nan = a.clone();
        nan[(rows - 1, cols - 1)] = f64::NAN;
        prop_assert!(nan != nan.clone() && !nan.is_finite());
    }
    let mut copy = Matrix::identity(PAST_INLINE);
    copy.clone_from(&a);
    prop_assert_eq!(&copy, &a);

    let plain = plain::Matrix {
        rows,
        cols,
        data: e.to_vec(),
    };
    prop_assert_eq!(format!("{a:?}"), format!("{plain:?}"));
    prop_assert_eq!(format!("{a:#?}"), format!("{plain:#?}"));
    Ok(())
}

#[test]
fn default_values_are_empty() {
    assert_eq!(Vector::default(), Vector::zeros(0));
    assert_eq!(Vector::default().into_inner(), Vec::<f64>::new());
    assert_eq!(format!("{:?}", Vector::default()), "Vector { data: [] }");
    let m = Matrix::default();
    assert_eq!((m.rows(), m.cols(), m.as_slice()), (0, 0, &[][..]));
    assert_eq!(m, Matrix::zeros(0, 0));
    assert_eq!(format!("{m:?}"), "Matrix { rows: 0, cols: 0, data: [] }");
}

proptest! {
    #[test]
    fn vector_operations_match_plain_arithmetic_at_every_small_dimension(
        x in proptest::collection::vec(-100.0f64..100.0, PAST_INLINE),
        y in proptest::collection::vec(-100.0f64..100.0, PAST_INLINE),
        s in -4.0f64..4.0,
    ) {
        for d in 0..=PAST_INLINE {
            check_vector(&x[..d], &y[..d], s)?;
            // Equal vectors compare equal and format alike too.
            check_vector(&x[..d], &x[..d], s)?;
        }
    }

    #[test]
    fn matrix_operations_match_plain_arithmetic_at_every_small_shape(
        e in proptest::collection::vec(-10.0f64..10.0, PAST_INLINE * PAST_INLINE),
        f in proptest::collection::vec(-10.0f64..10.0, PAST_INLINE * PAST_INLINE),
        v in proptest::collection::vec(-10.0f64..10.0, PAST_INLINE),
        zero_at in 0usize..PAST_INLINE * PAST_INLINE,
        s in -4.0f64..4.0,
    ) {
        // One zero entry, so `mul_mat`'s skip of zero factors is taken.
        let mut e = e;
        e[zero_at] = 0.0;
        for rows in 0..=PAST_INLINE {
            for cols in 0..=PAST_INLINE {
                let n = rows * cols;
                check_matrix(rows, cols, &e[..n], &f[..n], &v, s)?;
            }
        }
    }
}
