//! Golden bit-identity pins for the Gaussian-Mixture hot path.
//!
//! Two digests, recorded before the EM kernel was rewritten for speed,
//! pin its outputs bit for bit:
//!
//! * every `em::reduce` outcome (groups, iteration count, and the f64 bits
//!   of each model mean, covariance and mixing weight) over a seeded
//!   corpus of 2,400 inputs spanning d = 1–4, k = 1–7, l up to 2k + 10,
//!   zero and full covariances, tied weights, duplicated components,
//!   inputs that run to the 30-iteration cap, and inputs whose far,
//!   featherweight component starves and is reseeded;
//! * every node's classification after 30 rounds of a fixed-seed GM
//!   `RoundSim` on Fig. 2 readings (n = 200, k = 7).
//!
//! A change that moves any bit fails here. If a change reorders float
//! operations on purpose, it must say so and re-record both values.

use std::sync::Arc;

use distclass::core::em::{self, EmConfig};
use distclass::core::{GaussianSummary, GmInstance};
use distclass::experiments::data::{figure2_components, sample_mixture};
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::{Matrix, Vector};
use distclass::net::Topology;

const REDUCE_DIGEST: u64 = 0x58a1_369b_352e_6580;
const ROUNDSIM_DIGEST: u64 = 0x546c_96f1_7429_e233;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn summary(&mut self, s: &GaussianSummary) {
        self.f64s(s.mean.as_slice());
        self.f64s(s.cov.as_slice());
    }
}

/// SplitMix64: a self-contained generator, so the corpus never moves
/// with the workspace's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn symmetric(&mut self, scale: f64) -> f64 {
        scale * (2.0 * self.unit() - 1.0)
    }
}

/// A random SPD covariance `s · A Aᵀ + 0.01 · I`.
fn full_cov(rng: &mut Rng, d: usize) -> Matrix {
    let a: Vec<f64> = (0..d * d).map(|_| rng.symmetric(1.0)).collect();
    let s = 0.05 + 2.0 * rng.unit();
    let mut cov = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            let dot: f64 = (0..d).map(|t| a[i * d + t] * a[j * d + t]).sum();
            cov[(i, j)] = s * dot;
        }
    }
    cov.add_diagonal(0.01);
    cov
}

/// One corpus input. `case % 4` picks the family:
///
/// 0. clustered means, mixed zero/full covariances, real weights;
/// 1. clustered points (zero covariances), real weights, some exact
///    duplicates — the `fit_points` shape;
/// 2. full covariances with small integer weights, so the heaviest-seed
///    choice ties;
/// 3. grain-sized weights (~1e10) plus, for k ≥ 2, one featherweight
///    component 1e9 away: it is seeded, then starved, then reseeded.
fn corpus_input(case: usize, rng: &mut Rng) -> (Vec<(GaussianSummary, f64)>, usize) {
    let d = 1 + case % 4;
    let k = 1 + (case / 4) % 7;
    let family = case % 4;
    let l = 1 + rng.below(2 * k + 10);
    let centers: Vec<Vec<f64>> = (0..1 + rng.below(k + 2))
        .map(|_| (0..d).map(|_| rng.symmetric(10.0)).collect())
        .collect();
    let mut comps: Vec<(GaussianSummary, f64)> = Vec::with_capacity(l + 1);
    for _ in 0..l {
        if family == 1 && !comps.is_empty() && rng.below(5) == 0 {
            let dup = comps[rng.below(comps.len())].clone();
            comps.push(dup);
            continue;
        }
        let c = &centers[rng.below(centers.len())];
        let spread = 0.2 + 2.0 * rng.unit();
        let mean: Vector = c.iter().map(|x| x + rng.symmetric(spread)).collect();
        let zero_cov = family == 1 || (family == 0 && rng.below(2) == 0);
        let cov = if zero_cov {
            Matrix::zeros(d, d)
        } else {
            full_cov(rng, d)
        };
        let w = match family {
            2 => (1 + rng.below(4)) as f64,
            3 => 1e10 * (1.0 + rng.unit()),
            _ => 0.5 + 10.0 * rng.unit(),
        };
        comps.push((GaussianSummary::new(mean, cov), w));
    }
    if family == 3 && k >= 2 {
        let far = GaussianSummary::from_point(&Vector::filled(d, 1e9));
        comps.push((far, 1e-3));
    }
    (comps, k)
}

#[test]
fn em_reduce_outputs_match_the_recorded_digest() {
    let cfg = EmConfig::default();
    let mut rng = Rng(0x5eed_0e77);
    let mut digest = Digest::new();
    let (mut capped, mut failed) = (0, 0);
    for case in 0..2_400 {
        let (comps, k) = corpus_input(case, &mut rng);
        match em::reduce(&comps, k, &cfg) {
            Ok(out) => {
                digest.word(out.groups.len() as u64);
                for g in &out.groups {
                    digest.word(g.len() as u64);
                    for &i in g {
                        digest.word(i as u64);
                    }
                }
                digest.word(out.iterations as u64);
                for (s, pi) in &out.model {
                    digest.summary(s);
                    digest.word(pi.to_bits());
                }
                capped += usize::from(out.iterations == cfg.max_iters);
            }
            Err(_) => {
                digest.word(u64::MAX);
                failed += 1;
            }
        }
    }
    assert!(capped > 0, "no corpus input reached the iteration cap");
    assert_eq!(failed, 0, "corpus inputs are all well formed");
    assert_eq!(
        digest.0, REDUCE_DIGEST,
        "em::reduce outputs changed: digest {:#018x}",
        digest.0
    );
}

#[test]
fn gm_roundsim_classifications_match_the_recorded_digest() {
    let n = 200;
    let (values, _labels) = sample_mixture(n, &figure2_components(), 0xF162);
    let inst = Arc::new(GmInstance::new(7).expect("k > 0"));
    let cfg = GossipConfig {
        seed: 12,
        ..GossipConfig::default()
    };
    let mut sim = RoundSim::new(Topology::complete(n), inst, &values, &cfg);
    sim.run_rounds(30);
    let mut digest = Digest::new();
    for node in sim.live_nodes() {
        let c = sim.classification_of(node);
        digest.word(c.len() as u64);
        for col in c.iter() {
            digest.summary(&col.summary);
            digest.word(col.weight.grains());
        }
    }
    assert_eq!(
        digest.0, ROUNDSIM_DIGEST,
        "GM RoundSim classifications changed: digest {:#018x}",
        digest.0
    );
}
