//! Helpers shared by the virtual-time scenario sweeps.

use std::ops::RangeInclusive;
use std::panic::{self, AssertUnwindSafe};

use distclass::linalg::Vector;

/// Exact two-site readings: even peers observe (0, 0), odd peers
/// (10, 10). Merging identical exact values keeps the centroids exactly
/// on-site, so converged classifications agree to the bit.
pub fn two_site_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

/// Runs `check` once per seed: the comma-separated list in the
/// environment variable `var`, else `default`. A failing seed re-panics
/// with its message followed by a one-line repro command, so any failure
/// replays from its seed alone.
pub fn sweep(var: &str, default: RangeInclusive<u64>, test: &str, check: impl Fn(u64)) {
    let seeds: Vec<u64> = match std::env::var(var) {
        Ok(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{var}: bad seed `{s}`"))
            })
            .collect(),
        Err(_) => default.collect(),
    };
    for seed in seeds {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| check(seed))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let bin = env!("CARGO_CRATE_NAME");
            panic!("{msg}\nrepro: {var}={seed} cargo test --release --test {bin} {test}");
        }
    }
}
