//! Expectation-Maximization mixture reduction (§5.2).
//!
//! When a node accumulates more than `k` Gaussian collections it must merge
//! some of them. Maximum-likelihood reduction of an `l`-component mixture
//! to `k` components is NP-hard, so — following the paper — we approximate
//! it with EM. The variant here clusters *weighted Gaussian components*
//! (not raw points): the E-step scores each input component `i` against
//! each model component `j` by the expected log-likelihood
//!
//! ```text
//! E_{x~N(μᵢ,Σᵢ)}[ log N(x; μⱼ, Σⱼ) ] = log N(μᵢ; μⱼ, Σⱼ) − ½ tr(Σⱼ⁻¹ Σᵢ)
//! ```
//!
//! and the M-step moment-matches each model component to its responsibility-
//! weighted inputs. Raw points are the special case `Σᵢ = 0`, which makes
//! [`fit_points`] a standard weighted GMM fit — exactly what the
//! centralized EM baseline uses.

use distclass_linalg::{
    back_substitute, cholesky_factor, forward_substitute, LinalgError, Matrix, Vector,
};

use crate::error::CoreError;
use crate::gaussian::GaussianSummary;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Tunables for EM mixture reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct EmConfig {
    /// Maximum EM iterations per reduction.
    pub max_iters: usize,
    /// Stop when no model mean moves more than this between iterations.
    pub tol: f64,
    /// Diagonal regularization added to model covariances before
    /// factorization (keeps singleton-born zero covariances usable).
    pub reg: f64,
}

impl Default for EmConfig {
    /// `max_iters = 30`, `tol = 1e-6`, `reg = 1e-6`.
    fn default() -> Self {
        EmConfig {
            max_iters: 30,
            tol: 1e-6,
            reg: 1e-6,
        }
    }
}

impl EmConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when a field is out of range.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.max_iters == 0 {
            return Err(CoreError::InvalidParameter {
                name: "max_iters",
                constraint: "max_iters >= 1",
            });
        }
        if self.tol <= 0.0 || self.tol.is_nan() {
            return Err(CoreError::InvalidParameter {
                name: "tol",
                constraint: "tol > 0",
            });
        }
        if self.reg <= 0.0 || self.reg.is_nan() {
            return Err(CoreError::InvalidParameter {
                name: "reg",
                constraint: "reg > 0",
            });
        }
        Ok(())
    }
}

/// The result of an EM reduction.
#[derive(Debug, Clone)]
pub struct EmOutcome {
    /// Hard assignment groups: `groups[g]` holds the indices of input
    /// components assigned to the same model component. Empty groups are
    /// dropped, so `groups.len() <= k`, and every input index appears in
    /// exactly one group.
    pub groups: Vec<Vec<usize>>,
    /// The fitted model as `(summary, mixing weight)` pairs, one per model
    /// component, including those whose group came out empty. A
    /// moment-matched component's weight is its share of the total input
    /// weight; a component reseeded because it starved in the last M-step
    /// carries `1 / max(total weight, 1)` instead, so the weights need not
    /// sum to 1.
    pub model: Vec<(GaussianSummary, f64)>,
    /// EM iterations executed.
    pub iterations: usize,
}

/// Reduces `components` (summary, positive weight) to at most `k` groups.
///
/// Deterministic: seeding picks the heaviest component first, then
/// repeatedly the component maximizing weight × squared distance to the
/// nearest seed (a deterministic k-means++ analogue).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] on an invalid configuration, an
/// empty input or non-positive weights, [`CoreError::InvalidK`] for
/// `k == 0`, and [`CoreError::EmFailed`] if covariance factorization fails
/// irrecoverably.
///
/// # Example
///
/// ```
/// use distclass_core::{em, GaussianSummary};
/// use distclass_linalg::Vector;
///
/// let comps: Vec<(GaussianSummary, f64)> = [0.0, 0.1, 5.0, 5.1]
///     .iter()
///     .map(|&x| (GaussianSummary::from_point(&Vector::from(vec![x])), 1.0))
///     .collect();
/// let out = em::reduce(&comps, 2, &em::EmConfig::default())?;
/// assert_eq!(out.groups.len(), 2);
/// # Ok::<(), distclass_core::CoreError>(())
/// ```
pub fn reduce(
    components: &[(GaussianSummary, f64)],
    k: usize,
    cfg: &EmConfig,
) -> Result<EmOutcome, CoreError> {
    cfg.validate()?;
    if k == 0 {
        return Err(CoreError::InvalidK { k });
    }
    if components.is_empty() {
        return Err(CoreError::InvalidParameter {
            name: "components",
            constraint: "at least one component",
        });
    }
    if components.iter().any(|(_, w)| !(*w > 0.0 && w.is_finite())) {
        return Err(CoreError::InvalidParameter {
            name: "components",
            constraint: "all weights positive and finite",
        });
    }

    let l = components.len();
    let total_weight: f64 = components.iter().map(|(_, w)| w).sum();
    if l <= k {
        return Ok(EmOutcome {
            groups: (0..l).map(|i| vec![i]).collect(),
            model: components
                .iter()
                .map(|(s, w)| (s.clone(), w / total_weight))
                .collect(),
            iterations: 0,
        });
    }

    let mut em = Kernel::new(components, k, total_weight, cfg.reg)?;
    em.seed();
    em.e_step()?;
    let mut iterations = 0;
    for _ in 0..cfg.max_iters {
        iterations += 1;
        let shift = em.m_step();
        em.e_step()?;
        if shift < cfg.tol {
            break;
        }
    }
    Ok(em.outcome(iterations))
}

/// Fits a `k`-component Gaussian Mixture to weighted *points* — classic
/// weighted EM for GMMs, realized as [`reduce`] over zero-covariance
/// components. Used by the centralized baseline.
///
/// # Errors
///
/// Same as [`reduce`].
pub fn fit_points(
    points: &[distclass_linalg::Vector],
    weights: &[f64],
    k: usize,
    cfg: &EmConfig,
) -> Result<EmOutcome, CoreError> {
    if points.len() != weights.len() {
        return Err(CoreError::InvalidParameter {
            name: "weights",
            constraint: "one weight per point",
        });
    }
    let components: Vec<(GaussianSummary, f64)> = points
        .iter()
        .zip(weights.iter())
        .map(|(p, &w)| (GaussianSummary::from_point(p), w))
        .collect();
    reduce(&components, k, cfg)
}

/// Model-covariance factorizations retried with growing jitter.
const JITTER_TRIES: usize = 40;

/// The working state of one [`reduce`] call: the inputs, the current and
/// next model, each model component's factorization and the
/// responsibilities, all in flat row-major `f64` buffers sized once on
/// entry. Seeding, the E-step, the M-step and the hard assignment run in
/// place, so the iterations allocate nothing.
///
/// Every float operation, and the order of operations, is part of the
/// output contract (DESIGN.md §5); `tests/em_golden.rs` pins the outputs
/// bit for bit. Sums start from `-0.0`, as `Iterator::sum` does: it is
/// the additive identity of every `f64`, so a sum's first term is
/// bitwise the term itself.
struct Kernel {
    d: usize,
    l: usize,
    k: usize,
    /// The inputs' total weight and the covariance regularization.
    total_weight: f64,
    reg: f64,
    /// Input means (`l × d`), covariances (`l × d × d`) and weights (`l`).
    means: Vec<f64>,
    covs: Vec<f64>,
    weights: Vec<f64>,
    /// The model; the M-step writes `next`, then the two swap.
    model: Model,
    next: Model,
    /// Per model component, from the E-step: the Cholesky factor and the
    /// inverse of its regularized covariance (`k × d × d`),
    /// `d·ln 2π + log det` and `log πⱼ` (`k`).
    chol: Vec<f64>,
    inv: Vec<f64>,
    norm: Vec<f64>,
    log_pi: Vec<f64>,
    /// Responsibilities `r[i][j]`, `l × k`.
    resp: Vec<f64>,
    /// Work space: a `d × d` matrix and a `d`-vector.
    work: Vec<f64>,
    vec: Vec<f64>,
    /// The seed widening: `0.05 · tr Σ / d` for the moment-matched
    /// covariance `Σ` of all inputs (set by [`Kernel::seed`]).
    iso: f64,
}

impl Kernel {
    /// Copies the inputs in.
    fn new(
        components: &[(GaussianSummary, f64)],
        k: usize,
        total_weight: f64,
        reg: f64,
    ) -> Result<Self, CoreError> {
        let d = components[0].0.dim();
        let l = components.len();
        let (dd, zeros) = (d * d, |n: usize| vec![0.0; n]);
        let mut means = Vec::with_capacity(l * d);
        let mut covs = Vec::with_capacity(l * dd);
        for (s, _) in components {
            if s.mean.dim() != d || s.cov.rows() != d || s.cov.cols() != d {
                return Err(CoreError::InvalidParameter {
                    name: "components",
                    constraint: "all components of one dimension",
                });
            }
            means.extend_from_slice(s.mean.as_slice());
            covs.extend_from_slice(s.cov.as_slice());
        }
        Ok(Kernel {
            d,
            l,
            k,
            total_weight,
            reg,
            means,
            covs,
            weights: components.iter().map(|(_, w)| *w).collect(),
            model: Model::zeros(k, d),
            next: Model::zeros(k, d),
            chol: zeros(k * dd),
            inv: zeros(k * dd),
            norm: zeros(k),
            log_pi: zeros(k),
            resp: zeros(l * k),
            work: zeros(dd),
            vec: zeros(d),
            iso: 0.0,
        })
    }

    /// Seeds the model: the heaviest input first (the last on ties), then
    /// repeatedly the input maximizing weight × squared distance to the
    /// nearest seed (the first on ties).
    ///
    /// Each seed is widened by an isotropic sliver of the overall spread:
    /// degenerate (zero-covariance) seeds must still attract their
    /// neighborhoods, but blending the full overall covariance would import
    /// its correlation structure and can produce a near-singular ridge
    /// metric (observed on diagonally correlated inputs), so only the
    /// average variance is used.
    fn seed(&mut self) {
        let (d, l, k) = (self.d, self.l, self.k);
        let dd = d * d;
        // The diagonal of the moment merge of every input.
        let s = 1.0 / self.total_weight;
        for c in 0..d {
            let (mut mean, mut raw) = (-0.0, -0.0);
            for i in 0..l {
                let (m, w) = (self.means[i * d + c], self.weights[i]);
                mean += w * m;
                raw += w * (self.covs[i * dd + c * d + c] + m * m);
            }
            let mean = mean * s;
            self.vec[c] = raw * s - mean * mean;
        }
        self.iso = 0.05 * self.vec.iter().sum::<f64>() / d as f64;

        let weights = &self.weights;
        let mut seed = (0..l)
            .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .expect("non-empty components");
        let mut dmin = vec![f64::INFINITY; l];
        let mut is_seed = vec![false; l];
        for j in 0..k {
            is_seed[seed] = true;
            let (mean, cov) = (at(&self.means, seed, d), at(&self.covs, seed, dd));
            let widen = self.iso + self.reg;
            self.model.place(j, mean, cov, widen, 1.0 / k as f64);
            if j + 1 == k {
                break;
            }
            let (mut best_i, mut best_score) = (0, -1.0);
            for i in 0..l {
                if is_seed[i] {
                    continue;
                }
                dmin[i] = f64::min(dmin[i], distance(at(&self.means, i, d), mean));
                let score = self.weights[i] * dmin[i] * dmin[i];
                if score > best_score {
                    best_score = score;
                    best_i = i;
                }
            }
            seed = best_i;
        }
    }

    /// Factorizes every model component and scores every input against
    /// it by the expected log-likelihood, normalized per input in log
    /// space.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmFailed`] when a model covariance cannot be
    /// factorized.
    fn e_step(&mut self) -> Result<(), CoreError> {
        let (d, l, k) = (self.d, self.l, self.k);
        let dd = d * d;
        for j in 0..k {
            let chol = at_mut(&mut self.chol, j, dd);
            let cov = at(&self.model.covs, j, dd);
            factor_regularized(cov, self.reg, &mut self.work, chol, d).map_err(|e| {
                CoreError::EmFailed {
                    reason: format!("model covariance factorization failed: {e}"),
                }
            })?;
            let inv = at_mut(&mut self.inv, j, dd);
            for c in 0..d {
                self.vec.fill(0.0);
                self.vec[c] = 1.0;
                forward_substitute(chol, &mut self.vec);
                back_substitute(chol, &mut self.vec);
                for a in 0..d {
                    inv[a * d + c] = self.vec[a];
                }
            }
            let log_det = (0..d).map(|a| chol[a * d + a].ln()).sum::<f64>() * 2.0;
            self.norm[j] = d as f64 * LN_2PI + log_det;
            self.log_pi[j] = self.model.pi[j].max(1e-300).ln();
        }

        for i in 0..l {
            let (mean, cov) = (at(&self.means, i, d), at(&self.covs, i, dd));
            let row = at_mut(&mut self.resp, i, k);
            for (j, score) in row.iter_mut().enumerate() {
                // E[log N(x; μⱼ, Σⱼ)] for x ~ N(μᵢ, Σᵢ): the Mahalanobis
                // term of μᵢ, then tr(Σⱼ⁻¹ Σᵢ).
                for ((v, x), mu) in self
                    .vec
                    .iter_mut()
                    .zip(mean)
                    .zip(at(&self.model.means, j, d))
                {
                    *v = x - mu;
                }
                forward_substitute(at(&self.chol, j, dd), &mut self.vec);
                let maha: f64 = self.vec.iter().map(|y| y * y).sum();
                let inv = at(&self.inv, j, dd);
                let mut trace = 0.0;
                for a in 0..d {
                    for b in 0..d {
                        trace += inv[a * d + b] * cov[b * d + a];
                    }
                }
                *score = self.log_pi[j] - 0.5 * (self.norm[j] + maha + trace);
            }
            // Log-sum-exp normalization; when every score is −∞, uniform.
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if !max.is_finite() {
                row.fill(1.0 / k as f64);
                continue;
            }
            for r in row.iter_mut() {
                *r = (*r - max).exp();
            }
            let sum: f64 = row.iter().sum();
            for r in row.iter_mut() {
                *r /= sum;
            }
        }
        Ok(())
    }

    /// Moment-matches each model component to its responsibility-weighted
    /// inputs; a starved component is reseeded at the input the model
    /// explains worst (the lowest maximum responsibility, the first on
    /// ties). Returns how far the farthest model mean moved.
    fn m_step(&mut self) -> f64 {
        let (d, l, k, total_weight) = (self.d, self.l, self.k, self.total_weight);
        let dd = d * d;
        let resp = &self.resp;
        let mut worst = None;
        for j in 0..k {
            let parts = || (0..l).filter(move |&i| resp[i * k + j] > 1e-12);
            let wj: f64 = parts().map(|i| self.weights[i] * resp[i * k + j]).sum();
            if parts().next().is_none() || wj < 1e-9 * total_weight {
                let worst = *worst.get_or_insert_with(|| {
                    let best = |i| at(resp, i, k).iter().cloned().fold(0.0, f64::max);
                    (0..l)
                        .min_by(|&a, &b| best(a).total_cmp(&best(b)))
                        .expect("non-empty components")
                });
                let (mean, cov) = (at(&self.means, worst, d), at(&self.covs, worst, dd));
                let (widen, pi) = (self.iso + self.reg, 1.0 / total_weight.max(1.0));
                self.next.place(j, mean, cov, widen, pi);
                continue;
            }
            // The moment merge of the parts: running sums of w·μ and
            // w·(Σ + μμᵀ), scaled by 1/w, less μμᵀ, symmetrized.
            let mean = at_mut(&mut self.next.means, j, d);
            let cov = at_mut(&mut self.next.covs, j, dd);
            mean.fill(-0.0);
            cov.fill(-0.0);
            for i in parts() {
                let w = self.weights[i] * resp[i * k + j];
                let (mi, ci) = (at(&self.means, i, d), at(&self.covs, i, dd));
                for a in 0..d {
                    mean[a] += w * mi[a];
                    for b in 0..d {
                        cov[a * d + b] += w * (ci[a * d + b] + mi[a] * mi[b]);
                    }
                }
            }
            let s = 1.0 / wj;
            mean.iter_mut().for_each(|m| *m *= s);
            cov.iter_mut().for_each(|c| *c *= s);
            for a in 0..d {
                for b in 0..d {
                    cov[a * d + b] -= mean[a] * mean[b];
                }
            }
            for a in 0..d {
                for b in (a + 1)..d {
                    let avg = 0.5 * (cov[a * d + b] + cov[b * d + a]);
                    cov[a * d + b] = avg;
                    cov[b * d + a] = avg;
                }
            }
            self.next.pi[j] = wj / total_weight;
        }
        let shift = (0..k)
            .map(|j| distance(at(&self.model.means, j, d), at(&self.next.means, j, d)))
            .fold(0.0, f64::max);
        std::mem::swap(&mut self.model, &mut self.next);
        shift
    }

    /// Hard-assigns each input to its most responsible component (the
    /// first on ties) and hands the model out.
    fn outcome(self, iterations: usize) -> EmOutcome {
        let (d, l, k) = (self.d, self.l, self.k);
        let owner: Vec<usize> = (0..l)
            .map(|i| {
                let row = at(&self.resp, i, k);
                let mut best = 0;
                for (j, &r) in row.iter().enumerate() {
                    if r > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect();
        // Exact capacities: the outcome's allocations depend only on which
        // groups are non-empty.
        let mut groups = Vec::with_capacity(k);
        for j in 0..k {
            let size = owner.iter().filter(|&&o| o == j).count();
            if size > 0 {
                let mut group = Vec::with_capacity(size);
                group.extend((0..l).filter(|&i| owner[i] == j));
                groups.push(group);
            }
        }
        let model = (0..k)
            .map(|j| {
                let mut cov = Matrix::zeros(d, d);
                cov.as_mut_slice()
                    .copy_from_slice(at(&self.model.covs, j, d * d));
                let mean = Vector::from(at(&self.model.means, j, d));
                (GaussianSummary::new(mean, cov), self.model.pi[j])
            })
            .collect();
        EmOutcome {
            groups,
            model,
            iterations,
        }
    }
}

/// Item `i` of a buffer of `n`-wide items.
fn at(buf: &[f64], i: usize, n: usize) -> &[f64] {
    &buf[i * n..(i + 1) * n]
}

/// Item `i` of a buffer of `n`-wide items, mutably.
fn at_mut(buf: &mut [f64], i: usize, n: usize) -> &mut [f64] {
    &mut buf[i * n..(i + 1) * n]
}

/// A model's `k` components: means (`k × d`), covariances (`k × d × d`)
/// and mixing weights (`k`).
struct Model {
    means: Vec<f64>,
    covs: Vec<f64>,
    pi: Vec<f64>,
}

impl Model {
    fn zeros(k: usize, d: usize) -> Self {
        Model {
            means: vec![0.0; k * d],
            covs: vec![0.0; k * d * d],
            pi: vec![0.0; k],
        }
    }

    /// Sets component `j` to `mean` and `cov`, the diagonal widened by
    /// `widen`, with mixing weight `pi`.
    fn place(&mut self, j: usize, mean: &[f64], cov: &[f64], widen: f64, pi: f64) {
        let d = mean.len();
        at_mut(&mut self.means, j, d).copy_from_slice(mean);
        let out = at_mut(&mut self.covs, j, d * d);
        out.copy_from_slice(cov);
        for a in 0..d {
            out[a * d + a] += widen;
        }
        self.pi[j] = pi;
    }
}

/// Factorizes the `d × d` matrix `cov + reg·I` into `l` (`work` holds the
/// matrix factorized).
/// When that fails, retries on `(cov + reg·I) + jitter·I`, the jitter
/// starting at `reg` and growing tenfold, up to [`JITTER_TRIES`] times.
fn factor_regularized(
    cov: &[f64],
    reg: f64,
    work: &mut [f64],
    l: &mut [f64],
    d: usize,
) -> Result<(), LinalgError> {
    let mut attempt = |jitter: Option<f64>| {
        work.copy_from_slice(cov);
        for a in 0..d {
            work[a * d + a] += reg;
            if let Some(j) = jitter {
                work[a * d + a] += j;
            }
        }
        cholesky_factor(work, l, d)
    };
    let mut result = attempt(None);
    let mut jitter = reg;
    for _ in 0..JITTER_TRIES {
        if result.is_ok() {
            break;
        }
        result = attempt(Some(jitter));
        jitter *= 10.0;
    }
    result
}

/// Euclidean distance between two equal-length slices.
fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(x: f64, y: f64) -> (GaussianSummary, f64) {
        (GaussianSummary::from_point(&Vector::from([x, y])), 1.0)
    }

    #[test]
    fn reduce_separates_two_clusters() {
        let comps = vec![
            point(0.0, 0.0),
            point(0.1, 0.1),
            point(-0.1, 0.0),
            point(10.0, 10.0),
            point(10.1, 9.9),
        ];
        let out = reduce(&comps, 2, &EmConfig::default()).unwrap();
        assert_eq!(out.groups.len(), 2);
        let g_of = |i: usize| out.groups.iter().position(|g| g.contains(&i)).unwrap();
        assert_eq!(g_of(0), g_of(1));
        assert_eq!(g_of(0), g_of(2));
        assert_eq!(g_of(3), g_of(4));
        assert_ne!(g_of(0), g_of(3));
        // Mixing weights reflect the 3/2 split.
        let w_big = out.model[g_of_model(&out, 0)].1;
        assert!((w_big - 0.6).abs() < 0.05, "mixing weight {w_big}");
    }

    /// Maps an input component to the model index of its group.
    fn g_of_model(out: &EmOutcome, i: usize) -> usize {
        // Groups correspond positionally to retained model components only
        // when none were dropped; for these tests k is fully used.
        out.groups.iter().position(|g| g.contains(&i)).unwrap()
    }

    #[test]
    fn reduce_identity_when_l_leq_k() {
        let comps = vec![point(0.0, 0.0), point(5.0, 5.0)];
        let out = reduce(&comps, 4, &EmConfig::default()).unwrap();
        assert_eq!(out.groups, vec![vec![0], vec![1]]);
        assert_eq!(out.iterations, 0);
        let total_pi: f64 = out.model.iter().map(|(_, p)| p).sum();
        assert!((total_pi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reduce_respects_weights() {
        // A heavy component pulls the model mean toward itself.
        let comps = vec![
            (GaussianSummary::from_point(&Vector::from([0.0])), 9.0),
            (GaussianSummary::from_point(&Vector::from([1.0])), 1.0),
            (GaussianSummary::from_point(&Vector::from([0.2])), 9.0),
        ];
        let out = reduce(&comps, 1, &EmConfig::default()).unwrap();
        assert_eq!(out.groups.len(), 1);
        let mean = out.model[0].0.mean[0];
        assert!((mean - (9.0 * 0.0 + 1.0 + 9.0 * 0.2) / 19.0).abs() < 1e-6);
    }

    #[test]
    fn reduce_uses_covariance_not_just_means() {
        // Figure 1's moral: a point nearer to A's mean can belong to B if B
        // is much wider.
        let tight = GaussianSummary::new(Vector::from([0.0]), Matrix::diagonal(&[0.01]));
        let wide = GaussianSummary::new(Vector::from([4.0]), Matrix::diagonal(&[9.0]));
        let probe = GaussianSummary::from_point(&Vector::from([1.5]));
        let comps = vec![(tight, 10.0), (wide, 10.0), (probe, 1.0)];
        let out = reduce(&comps, 2, &EmConfig::default()).unwrap();
        let g_of = |i: usize| out.groups.iter().position(|g| g.contains(&i)).unwrap();
        assert_eq!(g_of(2), g_of(1), "probe should join the wide Gaussian");
    }

    #[test]
    fn reduce_rejects_bad_input() {
        assert!(matches!(
            reduce(&[], 2, &EmConfig::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            reduce(&[point(0.0, 0.0)], 0, &EmConfig::default()),
            Err(CoreError::InvalidK { .. })
        ));
        let neg = vec![(GaussianSummary::from_point(&Vector::from([0.0])), -1.0)];
        assert!(matches!(
            reduce(&neg, 1, &EmConfig::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn reduce_rejects_mixed_dimensions() {
        let comps = vec![point(0.0, 0.0), point(1.0, 1.0), point(5.0, 5.0)];
        let mut mixed = comps.clone();
        mixed[1].0 = GaussianSummary::from_point(&Vector::from([1.0]));
        assert!(matches!(
            reduce(&mixed, 2, &EmConfig::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(reduce(&comps, 2, &EmConfig::default()).is_ok());
    }

    #[test]
    fn config_validation() {
        let bad_iters = EmConfig {
            max_iters: 0,
            ..EmConfig::default()
        };
        assert!(bad_iters.validate().is_err());
        let bad_tol = EmConfig {
            tol: 0.0,
            ..EmConfig::default()
        };
        assert!(bad_tol.validate().is_err());
        let bad_reg = EmConfig {
            reg: -1.0,
            ..EmConfig::default()
        };
        assert!(bad_reg.validate().is_err());
        assert!(EmConfig::default().validate().is_ok());
    }

    #[test]
    fn identical_means_do_not_crash() {
        let comps = vec![point(1.0, 1.0); 5];
        let out = reduce(&comps, 2, &EmConfig::default()).unwrap();
        let total: usize = out.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn fit_points_recovers_two_gaussians() {
        // Deterministic grid of points from two well-separated blobs.
        let mut points = Vec::new();
        for i in 0..20 {
            let t = (i as f64 - 9.5) / 10.0;
            points.push(Vector::from([t, 0.0]));
            points.push(Vector::from([t + 20.0, 0.0]));
        }
        let weights = vec![1.0; points.len()];
        let out = fit_points(&points, &weights, 2, &EmConfig::default()).unwrap();
        assert_eq!(out.groups.len(), 2);
        let mut means: Vec<f64> = out.model.iter().map(|(s, _)| s.mean[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 0.2);
        assert!((means[1] - 20.0).abs() < 0.2);
    }

    #[test]
    fn fit_points_validates_weight_length() {
        assert!(matches!(
            fit_points(&[Vector::from([0.0])], &[], 1, &EmConfig::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
    }
}
