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
//!
//! EM stops on the objective it climbs: the expected log-likelihood
//! `L = Σᵢ wᵢ · log Σⱼ πⱼ exp(scoreᵢⱼ)`, which each E-step computes from
//! its log-sum-exp. The first M-step whose gain `L_new − L_old` is at most
//! `tol · W` ([`EmConfig::tol`], `W = Σᵢ wᵢ`) is the last, and
//! [`EmConfig::max_iters`] M-steps cap the run. The bound is a mean gain
//! per unit of input weight, so it does not depend on the values' units,
//! which shift `L` by a constant. The one test ends slow climbs, exact
//! repeats, 2-cycles and the drop a starved component's reseed can cause.

use distclass_linalg::{
    back_substitute, cholesky_factor, forward_substitute, LinalgError, Matrix, Vector,
};

use crate::collection::Collection;
use crate::error::CoreError;
use crate::gaussian::GaussianSummary;

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Tunables for EM mixture reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct EmConfig {
    /// Maximum EM iterations (M-steps) per reduction.
    pub max_iters: usize,
    /// Stop after the first M-step that raises the expected
    /// log-likelihood `L` by at most `tol` per unit of input weight
    /// (`tol · W`, `W` the inputs' total weight); a step that lowers `L`
    /// stops EM too.
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
    /// EM iterations (M-steps) executed.
    pub iterations: usize,
}

/// A weighted Gaussian as [`reduce`] reads it: a summary and its weight.
///
/// Implemented for `(summary, weight)` pairs and for a classification's
/// collections, weighted by their grains, so a caller hands over what it
/// holds and `reduce` copies each input once, straight into its kernel.
pub trait WeightedGaussian {
    /// The Gaussian summary.
    fn summary(&self) -> &GaussianSummary;
    /// The weight.
    fn weight(&self) -> f64;
}

impl WeightedGaussian for (GaussianSummary, f64) {
    fn summary(&self) -> &GaussianSummary {
        &self.0
    }

    fn weight(&self) -> f64 {
        self.1
    }
}

impl WeightedGaussian for Collection<GaussianSummary> {
    fn summary(&self) -> &GaussianSummary {
        &self.summary
    }

    fn weight(&self) -> f64 {
        self.weight.grains() as f64
    }
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
/// empty input, non-positive weights or components of different
/// dimensions, [`CoreError::InvalidK`] for `k == 0`, and
/// [`CoreError::EmFailed`] if covariance factorization fails
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
pub fn reduce<C: WeightedGaussian>(
    components: &[C],
    k: usize,
    cfg: &EmConfig,
) -> Result<EmOutcome, CoreError> {
    fit(components, k, cfg, true)
}

/// The hard-assignment groups of [`reduce`], without building its model:
/// what [`GmInstance::partition`](crate::GmInstance) needs.
///
/// # Errors
///
/// Same as [`reduce`].
pub(crate) fn groups<C: WeightedGaussian>(
    components: &[C],
    k: usize,
    cfg: &EmConfig,
) -> Result<Vec<Vec<usize>>, CoreError> {
    fit(components, k, cfg, false).map(|out| out.groups)
}

/// [`reduce`]; its outcome's `model` is left empty unless `with_model`.
fn fit<C: WeightedGaussian>(
    components: &[C],
    k: usize,
    cfg: &EmConfig,
    with_model: bool,
) -> Result<EmOutcome, CoreError> {
    cfg.validate()?;
    if k == 0 {
        return Err(CoreError::InvalidK { k });
    }
    let Some(first) = components.first() else {
        return Err(CoreError::InvalidParameter {
            name: "components",
            constraint: "at least one component",
        });
    };
    if components
        .iter()
        .any(|c| !(c.weight() > 0.0 && c.weight().is_finite()))
    {
        return Err(CoreError::InvalidParameter {
            name: "components",
            constraint: "all weights positive and finite",
        });
    }
    let d = first.summary().dim();
    if components.iter().any(|c| {
        let s = c.summary();
        s.mean.dim() != d || s.cov.rows() != d || s.cov.cols() != d
    }) {
        return Err(CoreError::InvalidParameter {
            name: "components",
            constraint: "all components of one dimension",
        });
    }

    let l = components.len();
    let total_weight: f64 = components.iter().map(C::weight).sum();
    if l <= k {
        let model = if with_model {
            components
                .iter()
                .map(|c| (c.summary().clone(), c.weight() / total_weight))
                .collect()
        } else {
            Vec::new()
        };
        return Ok(EmOutcome {
            groups: (0..l).map(|i| vec![i]).collect(),
            model,
            iterations: 0,
        });
    }

    // The paper's Fig. 2 readings are planar: there the compiler sees `d`.
    match d {
        2 => Kernel::new(components, Fixed::<2>, k, total_weight, cfg.reg).run(cfg, with_model),
        _ => Kernel::new(components, Dynamic(d), k, total_weight, cfg.reg).run(cfg, with_model),
    }
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

/// The dimension `d` of the value space, as the kernel reads it:
/// [`Fixed`] when the compiler knows it, [`Dynamic`] when only the input
/// does. The kernel is one source over `Dim`. At a fixed dimension the
/// compiler unrolls its `d`-loops, drops their bounds checks and keeps the
/// steps' work space in registers; the float operations and their order
/// are the same at both.
trait Dim: Copy {
    /// Work space for a `d`-vector and a `d × d` matrix: arrays at a fixed
    /// dimension, buffers at a dynamic one. `Default` is what a step
    /// leaves in the kernel while it holds the work space as a local.
    type Vector: AsMut<[f64]> + Default;
    type Matrix: AsMut<[f64]> + Default;

    fn get(self) -> usize;

    /// Zeroed work space of this dimension.
    fn work(self) -> (Self::Vector, Self::Matrix);
}

/// A dimension known at compile time.
#[derive(Clone, Copy)]
struct Fixed<const D: usize>;

impl<const D: usize> Dim for Fixed<D>
where
    [f64; D]: Default,
{
    type Vector = [f64; D];
    type Matrix = Square<D>;

    fn get(self) -> usize {
        D
    }

    fn work(self) -> ([f64; D], Square<D>) {
        Default::default()
    }
}

/// A row-major `D × D` matrix of work space.
struct Square<const D: usize>([[f64; D]; D]);

impl<const D: usize> Default for Square<D> {
    fn default() -> Self {
        Square([[0.0; D]; D])
    }
}

impl<const D: usize> AsMut<[f64]> for Square<D> {
    fn as_mut(&mut self) -> &mut [f64] {
        self.0.as_flattened_mut()
    }
}

/// A dimension known only at run time.
#[derive(Clone, Copy)]
struct Dynamic(usize);

impl Dim for Dynamic {
    type Vector = Vec<f64>;
    type Matrix = Vec<f64>;

    fn get(self) -> usize {
        self.0
    }

    fn work(self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; self.0], vec![0.0; self.0 * self.0])
    }
}

/// The length of a packed model-component record at dimension `d`, in
/// order: the mean (`d`), the Cholesky factor and the inverse of the
/// regularized covariance (`d × d` each), `log πⱼ` and `d·ln 2π + log det`.
fn record_len(d: usize) -> usize {
    2 * d * d + d + 2
}

/// Below this argument `exp` returns exactly `0.0`: it lies under
/// ln 2⁻¹⁰⁷⁵ ≈ −745.1332, where `eᵗ` is less than half the smallest
/// subnormal and rounds to zero.
const EXP_UNDERFLOW: f64 = -746.0;

/// `exp(t)` for a log-sum-exp argument `t = score − max`, bitwise: exactly
/// `1.0` where `t` is zero and exactly `0.0` below [`EXP_UNDERFLOW`], the
/// values `exp` returns there, without calling it. NaN and every other
/// argument go through `exp`.
fn exp_shifted(t: f64) -> f64 {
    if t == 0.0 {
        1.0
    } else if t < EXP_UNDERFLOW {
        0.0
    } else {
        t.exp()
    }
}

/// The working state of one [`reduce`] call: the inputs, the current and
/// next model, each model component's packed record and the
/// responsibilities, all in flat row-major `f64` buffers sized once on
/// entry. Seeding, the E-step, the M-step and the hard assignment run in
/// place, so the iterations allocate nothing.
///
/// Every float operation, and the order of operations, is part of the
/// output contract (DESIGN.md §5); `tests/em_golden.rs` pins the outputs
/// bit for bit. Sums start from `-0.0`, as `Iterator::sum` does: it is
/// the additive identity of every `f64`, so a sum's first term is
/// bitwise the term itself.
struct Kernel<D: Dim> {
    dim: D,
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
    /// Per model component, from the E-step's factorization, the packed
    /// record its scores read (`k ×` [`record_len`]`(d)`).
    records: Vec<f64>,
    /// Responsibilities `r[i][j]`, `l × k`.
    resp: Vec<f64>,
    /// Work space: a `d`-vector and a `d × d` matrix.
    vec: D::Vector,
    mat: D::Matrix,
    /// The seed widening: `0.05 · tr Σ / d` for the moment-matched
    /// covariance `Σ` of all inputs (set by [`Kernel::seed`]).
    iso: f64,
}

impl<D: Dim> Kernel<D> {
    /// Copies the inputs in; [`reduce`] has checked that each has
    /// dimension `dim`.
    fn new<C: WeightedGaussian>(
        components: &[C],
        dim: D,
        k: usize,
        total_weight: f64,
        reg: f64,
    ) -> Self {
        let (d, l) = (dim.get(), components.len());
        let mut means = Vec::with_capacity(l * d);
        let mut covs = Vec::with_capacity(l * d * d);
        for c in components {
            means.extend_from_slice(c.summary().mean.as_slice());
            covs.extend_from_slice(c.summary().cov.as_slice());
        }
        let (vec, mat) = dim.work();
        Kernel {
            dim,
            l,
            k,
            total_weight,
            reg,
            means,
            covs,
            weights: components.iter().map(C::weight).collect(),
            model: Model::zeros(k, d),
            next: Model::zeros(k, d),
            records: vec![0.0; k * record_len(d)],
            resp: vec![0.0; l * k],
            vec,
            mat,
            iso: 0.0,
        }
    }

    /// Seeds, then alternates M- and E-steps, and hard-assigns. It stops
    /// after the first M-step whose gain in the expected log-likelihood,
    /// `L_new − L_old`, is at most `cfg.tol · W` (`W` the inputs' total
    /// weight), or after `cfg.max_iters` M-steps.
    ///
    /// While some input scores −∞ against every component, `L` is −∞: a
    /// step from a finite `L` to −∞ stops EM (its gain is −∞), and one
    /// from −∞ to −∞ does not (its gain is NaN, which no bound meets), so
    /// EM runs on until `L` is finite again or the cap.
    fn run(mut self, cfg: &EmConfig, with_model: bool) -> Result<EmOutcome, CoreError> {
        self.seed();
        let mut ll = self.e_step()?;
        let mut iterations = 0;
        for _ in 0..cfg.max_iters {
            iterations += 1;
            self.m_step();
            let next = self.e_step()?;
            if next - ll <= cfg.tol * self.total_weight {
                break;
            }
            ll = next;
        }
        Ok(self.outcome(iterations, with_model))
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
        let (d, l, k) = (self.dim.get(), self.l, self.k);
        let dd = d * d;
        // The diagonal of the moment merge of every input.
        let diag = self.vec.as_mut();
        let s = 1.0 / self.total_weight;
        for (c, var) in diag.iter_mut().enumerate() {
            let (mut mean, mut raw) = (-0.0, -0.0);
            for i in 0..l {
                let (m, w) = (self.means[i * d + c], self.weights[i]);
                mean += w * m;
                raw += w * (self.covs[i * dd + c * d + c] + m * m);
            }
            let mean = mean * s;
            *var = raw * s - mean * mean;
        }
        self.iso = 0.05 * diag.iter().sum::<f64>() / d as f64;

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

    /// Factorizes every model component into its packed record and scores
    /// every input against it by the expected log-likelihood, normalized
    /// per input in log space. Returns the model's expected log-likelihood
    /// `L = Σᵢ wᵢ·(maxᵢ + ln sumᵢ)`, summed left to right from `-0.0`,
    /// where `maxᵢ` is input `i`'s best score and `sumᵢ` its row's sum of
    /// `exp(score − maxᵢ)`; an input whose best score is not finite adds
    /// `wᵢ·maxᵢ`.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmFailed`] when a model covariance cannot be
    /// factorized.
    fn e_step(&mut self) -> Result<f64, CoreError> {
        let (d, l, k) = (self.dim.get(), self.l, self.k);
        let (dd, len) = (d * d, record_len(d));
        let (col, work) = (self.vec.as_mut(), self.mat.as_mut());
        for (j, rec) in self.records.chunks_exact_mut(len).enumerate() {
            let (mean, rest) = rec.split_at_mut(d);
            let (chol, rest) = rest.split_at_mut(dd);
            let (inv, rest) = rest.split_at_mut(dd);
            mean.copy_from_slice(at(&self.model.means, j, d));
            let cov = at(&self.model.covs, j, dd);
            factor_regularized(cov, self.reg, work, chol, d).map_err(|e| CoreError::EmFailed {
                reason: format!("model covariance factorization failed: {e}"),
            })?;
            for c in 0..d {
                col.fill(0.0);
                col[c] = 1.0;
                forward_substitute(chol, col);
                back_substitute(chol, col);
                for a in 0..d {
                    inv[a * d + c] = col[a];
                }
            }
            let log_det = (0..d).map(|a| chol[a * d + a].ln()).sum::<f64>() * 2.0;
            rest[0] = self.model.pi[j].max(1e-300).ln();
            rest[1] = d as f64 * LN_2PI + log_det;
        }

        // A local while the scores run: at a fixed dimension, registers.
        let mut vec = std::mem::take(&mut self.vec);
        let y = vec.as_mut();
        let mut ll = -0.0;
        for i in 0..l {
            let (x, s) = (at(&self.means, i, d), at(&self.covs, i, dd));
            let row = at_mut(&mut self.resp, i, k);
            let mut max = f64::NEG_INFINITY;
            for (score, rec) in row.iter_mut().zip(self.records.chunks_exact(len)) {
                let (mean, rest) = rec.split_at(d);
                let (chol, rest) = rest.split_at(dd);
                let (inv, rest) = rest.split_at(dd);
                let (log_pi, norm) = (rest[0], rest[1]);
                // E[log N(x; μⱼ, Σⱼ)] for x ~ N(μᵢ, Σᵢ): the Mahalanobis
                // term of μᵢ, ‖y‖² for L y = μᵢ − μⱼ by forward
                // substitution, then tr(Σⱼ⁻¹ Σᵢ).
                let mut maha = -0.0;
                for a in 0..d {
                    let mut sum = x[a] - mean[a];
                    for b in 0..a {
                        sum -= chol[a * d + b] * y[b];
                    }
                    y[a] = sum / chol[a * d + a];
                    maha += y[a] * y[a];
                }
                let mut trace = 0.0;
                for a in 0..d {
                    for b in 0..d {
                        trace += inv[a * d + b] * s[b * d + a];
                    }
                }
                *score = log_pi - 0.5 * (norm + maha + trace);
                max = f64::max(max, *score);
            }
            // Log-sum-exp normalization; when every score is −∞, uniform.
            if !max.is_finite() {
                row.fill(1.0 / k as f64);
                ll += self.weights[i] * max;
                continue;
            }
            let mut sum = -0.0;
            for r in row.iter_mut() {
                *r = exp_shifted(*r - max);
                sum += *r;
            }
            for r in row.iter_mut() {
                *r /= sum;
            }
            ll += self.weights[i] * (max + sum.ln());
        }
        self.vec = vec;
        Ok(ll)
    }

    /// Moment-matches each model component to its responsibility-weighted
    /// inputs; a starved component is reseeded at the input the model
    /// explains worst (the lowest maximum responsibility, the first on
    /// ties).
    fn m_step(&mut self) {
        let (d, l, k, total_weight) = (self.dim.get(), self.l, self.k, self.total_weight);
        let dd = d * d;
        let resp = &self.resp;
        // Locals while the sums run: at a fixed dimension, registers.
        let (mut vec, mut mat) = (std::mem::take(&mut self.vec), std::mem::take(&mut self.mat));
        let (mean_sum, cov_sum) = (vec.as_mut(), mat.as_mut());
        let mut worst = None;
        for j in 0..k {
            // The moment merge of the parts, the inputs with `rᵢⱼ > 1e-12`:
            // running sums of w·μ and w·(Σ + μμᵀ), scaled by 1/w, less
            // μμᵀ, symmetrized.
            mean_sum.fill(-0.0);
            cov_sum.fill(-0.0);
            let (mut wj, mut empty) = (-0.0, true);
            let rows = resp.chunks_exact(k).zip(&self.weights).enumerate();
            for (i, (row, &wi)) in rows.filter(|(_, (row, _))| row[j] > 1e-12) {
                let w = wi * row[j];
                let (mi, ci) = (at(&self.means, i, d), at(&self.covs, i, dd));
                for a in 0..d {
                    mean_sum[a] += w * mi[a];
                    for b in 0..d {
                        cov_sum[a * d + b] += w * (ci[a * d + b] + mi[a] * mi[b]);
                    }
                }
                wj += w;
                empty = false;
            }
            if empty || wj < 1e-9 * total_weight {
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
            let s = 1.0 / wj;
            let mean = at_mut(&mut self.next.means, j, d);
            let cov = at_mut(&mut self.next.covs, j, dd);
            for (m, sum) in mean.iter_mut().zip(&*mean_sum) {
                *m = sum * s;
            }
            for (c, sum) in cov.iter_mut().zip(&*cov_sum) {
                *c = sum * s;
            }
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
        (self.vec, self.mat) = (vec, mat);
        std::mem::swap(&mut self.model, &mut self.next);
    }

    /// Hard-assigns each input to its most responsible component (the
    /// first on ties) and, when `with_model`, hands the model out.
    fn outcome(self, iterations: usize, with_model: bool) -> EmOutcome {
        let (d, l, k) = (self.dim.get(), self.l, self.k);
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
        let model = if with_model {
            (0..k)
                .map(|j| {
                    let mut cov = Matrix::zeros(d, d);
                    cov.as_mut_slice()
                        .copy_from_slice(at(&self.model.covs, j, d * d));
                    let mean = Vector::from(at(&self.model.means, j, d));
                    (GaussianSummary::new(mean, cov), self.model.pi[j])
                })
                .collect()
        } else {
            Vec::new()
        };
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

    /// Three points near the origin and two near (10, 10).
    fn two_clusters() -> Vec<(GaussianSummary, f64)> {
        vec![
            point(0.0, 0.0),
            point(0.1, 0.1),
            point(-0.1, 0.0),
            point(10.0, 10.0),
            point(10.1, 9.9),
        ]
    }

    /// Two heavy points on a line and a light one beside them.
    fn weighted_line() -> Vec<(GaussianSummary, f64)> {
        vec![
            (GaussianSummary::from_point(&Vector::from([0.0])), 9.0),
            (GaussianSummary::from_point(&Vector::from([1.0])), 1.0),
            (GaussianSummary::from_point(&Vector::from([0.2])), 9.0),
        ]
    }

    /// A tight and a wide Gaussian, and a point nearer the tight one.
    fn tight_wide_probe() -> Vec<(GaussianSummary, f64)> {
        let tight = GaussianSummary::new(Vector::from([0.0]), Matrix::diagonal(&[0.01]));
        let wide = GaussianSummary::new(Vector::from([4.0]), Matrix::diagonal(&[9.0]));
        let probe = GaussianSummary::from_point(&Vector::from([1.5]));
        vec![(tight, 10.0), (wide, 10.0), (probe, 1.0)]
    }

    /// A grid of points on two blobs 20 apart.
    fn two_blobs() -> Vec<Vector> {
        let mut points = Vec::new();
        for i in 0..20 {
            let t = (i as f64 - 9.5) / 10.0;
            points.push(Vector::from([t, 0.0]));
            points.push(Vector::from([t + 20.0, 0.0]));
        }
        points
    }

    #[test]
    fn reduce_separates_two_clusters() {
        let comps = two_clusters();
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
        let out = reduce(&weighted_line(), 1, &EmConfig::default()).unwrap();
        assert_eq!(out.groups.len(), 1);
        let mean = out.model[0].0.mean[0];
        assert!((mean - (9.0 * 0.0 + 1.0 + 9.0 * 0.2) / 19.0).abs() < 1e-6);
    }

    #[test]
    fn reduce_uses_covariance_not_just_means() {
        // Figure 1's moral: a point nearer to A's mean can belong to B if B
        // is much wider.
        let out = reduce(&tight_wide_probe(), 2, &EmConfig::default()).unwrap();
        let g_of = |i: usize| out.groups.iter().position(|g| g.contains(&i)).unwrap();
        assert_eq!(g_of(2), g_of(1), "probe should join the wide Gaussian");
    }

    #[test]
    fn reduce_rejects_bad_input() {
        assert!(matches!(
            reduce::<(GaussianSummary, f64)>(&[], 2, &EmConfig::default()),
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
        // Checked before any work: with l > k and with l ≤ k alike.
        for k in [1, 2, 3, 4] {
            assert!(matches!(
                reduce(&mixed, k, &EmConfig::default()),
                Err(CoreError::InvalidParameter {
                    constraint: "all components of one dimension",
                    ..
                })
            ));
            assert!(reduce(&comps, k, &EmConfig::default()).is_ok());
        }
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
        let points = two_blobs();
        let weights = vec![1.0; points.len()];
        let out = fit_points(&points, &weights, 2, &EmConfig::default()).unwrap();
        assert_eq!(out.groups.len(), 2);
        let mut means: Vec<f64> = out.model.iter().map(|(s, _)| s.mean[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 0.2);
        assert!((means[1] - 20.0).abs() < 0.2);
    }

    /// 40 evenly spaced points on [0, 20): EM's gain shrinks a little at
    /// each step, and `L` per unit of weight is about −3, so a bound
    /// relative to `|L|` would stop EM a step sooner than `tol · W`.
    fn even_line() -> Vec<(GaussianSummary, f64)> {
        (0..40)
            .map(|i| Vector::from([i as f64 / 2.0]))
            .map(|v| (GaussianSummary::from_point(&v), 1.0))
            .collect()
    }

    /// Every input of this module that EM iterates on (`l > k`), with its
    /// `k`.
    fn module_inputs() -> Vec<(Vec<(GaussianSummary, f64)>, usize)> {
        let blobs = two_blobs()
            .iter()
            .map(|p| (GaussianSummary::from_point(p), 1.0))
            .collect();
        vec![
            (two_clusters(), 2),
            (two_clusters(), 3),
            (weighted_line(), 1),
            (weighted_line(), 2),
            (tight_wide_probe(), 2),
            (vec![point(0.0, 0.0), point(1.0, 1.0), point(5.0, 5.0)], 2),
            (vec![point(1.0, 1.0); 5], 2),
            (blobs, 2),
            (even_line(), 2),
        ]
    }

    /// The expected log-likelihood `L` after seeding and after each of
    /// `cfg.max_iters` M-steps, from a kernel stepped by hand.
    fn objective(comps: &[(GaussianSummary, f64)], k: usize, cfg: &EmConfig) -> Vec<f64> {
        let total = comps.iter().map(WeightedGaussian::weight).sum();
        let dim = Dynamic(comps[0].0.dim());
        let mut kernel = Kernel::new(comps, dim, k, total, cfg.reg);
        kernel.seed();
        let mut ll = vec![kernel.e_step().expect("factorizes")];
        for _ in 0..cfg.max_iters {
            kernel.m_step();
            ll.push(kernel.e_step().expect("factorizes"));
        }
        ll
    }

    /// `reduce` stops after the first M-step that gains at most `tol · W`,
    /// or after `max_iters` when none does.
    #[test]
    fn reduce_stops_at_the_first_step_that_gains_at_most_tol() {
        let (mut stopped, mut capped) = (0, 0);
        for (tol, max_iters) in [(1e-6, 30), (1e-12, 30), (f64::MIN_POSITIVE, 2)] {
            let cfg = EmConfig {
                max_iters,
                tol,
                ..EmConfig::default()
            };
            for (comps, k) in module_inputs() {
                let ll = objective(&comps, k, &cfg);
                let bound = tol * comps.iter().map(|c| c.1).sum::<f64>();
                let first = (1..=max_iters).find(|&t| ll[t] - ll[t - 1] <= bound);
                let out = reduce(&comps, k, &cfg).expect("valid input");
                assert_eq!(
                    out.iterations,
                    first.unwrap_or(max_iters),
                    "tol {tol:e}, {} inputs, k = {k}: L = {ll:?}",
                    comps.len()
                );
                stopped += usize::from(first.is_some());
                capped += usize::from(first.is_none());
            }
        }
        assert!(
            stopped > 0 && capped > 0,
            "{stopped} stopped, {capped} capped"
        );
    }

    /// A featherweight input so far out that its squared distance to any
    /// component seeded elsewhere overflows: it scores −∞ against every
    /// such component, and while it does `L` is −∞. `reduce` returns
    /// `Ok`, and stops as `Kernel::run` documents.
    #[test]
    fn scores_overflowing_to_minus_infinity_still_reduce() {
        let mut comps: Vec<(GaussianSummary, f64)> = [0.0, 0.1, 5.0, 5.1]
            .iter()
            .map(|&x| (GaussianSummary::from_point(&Vector::from([x])), 1.0))
            .collect();
        comps.push((GaussianSummary::from_point(&Vector::from([1e154])), 1e-308));
        let cfg = EmConfig::default();

        // k = 2: neither component reaches the far input, so `L` stays
        // −∞; each gain is NaN, which no bound meets, and EM runs to the
        // cap.
        let ll = objective(&comps, 2, &cfg);
        assert!(ll.iter().all(|&l| l == f64::NEG_INFINITY), "{ll:?}");
        let out = reduce(&comps, 2, &cfg).expect("reduces");
        assert_eq!(out.iterations, cfg.max_iters);
        assert_eq!(out.groups.iter().map(Vec::len).sum::<usize>(), 5);

        // k = 1: the first M-step widens the one component until the far
        // input scores a finite value. The gain from −∞ is +∞, so EM goes
        // on, and stops on the next step's gain.
        let ll = objective(&comps, 1, &cfg);
        assert_eq!(ll[0], f64::NEG_INFINITY);
        let total: f64 = comps.iter().map(|c| c.1).sum();
        assert!(
            ll[1].is_finite() && ll[2] - ll[1] <= cfg.tol * total,
            "{ll:?}"
        );
        assert_eq!(reduce(&comps, 1, &cfg).expect("reduces").iterations, 2);

        // Farther out, at 1e200, the seeds' moment merge squares the mean
        // and overflows, so the seeds' widening is not finite: no model
        // covariance factorizes, an error rather than a panic.
        comps[4].0 = GaussianSummary::from_point(&Vector::from([1e200]));
        assert!(matches!(
            reduce(&comps, 2, &cfg),
            Err(CoreError::EmFailed { .. })
        ));
    }

    /// The log-sum-exp's two shortcuts return what `exp` does: `1.0` at
    /// zero, and `0.0` below a constant under ln 2⁻¹⁰⁷⁵, where `exp`
    /// rounds to zero.
    #[test]
    fn exp_shortcuts_match_exp_bitwise() {
        const { assert!(EXP_UNDERFLOW < -1075.0 * std::f64::consts::LN_2) };
        assert_eq!(EXP_UNDERFLOW.exp().to_bits(), 0.0_f64.to_bits());
        let args = [
            0.0,
            -0.0,
            -1.0,
            -745.0,
            -745.2,
            EXP_UNDERFLOW.next_up(),
            EXP_UNDERFLOW,
            EXP_UNDERFLOW.next_down(),
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for t in args {
            assert_eq!(exp_shifted(t).to_bits(), t.exp().to_bits(), "t = {t}");
        }
    }

    #[test]
    fn fit_points_validates_weight_length() {
        assert!(matches!(
            fit_points(&[Vector::from([0.0])], &[], 1, &EmConfig::default()),
            Err(CoreError::InvalidParameter { .. })
        ));
    }
}
