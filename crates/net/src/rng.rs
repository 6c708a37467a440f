/// Derives an independent 64-bit seed from a base seed and a stream index
/// using the SplitMix64 finalizer.
///
/// Used to give every node, workload and engine its own deterministic RNG
/// stream from a single experiment seed.
///
/// # Example
///
/// ```
/// use distclass_net::derive_seed;
///
/// let a = derive_seed(42, 0);
/// let b = derive_seed(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, 0)); // deterministic
/// ```
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seeded choice of one candidate out of `n`: the audit
/// target picker. Every auditor derives its pick from `(seed, stream)`
/// alone, so a trace replay (or an adversary reading the code) can predict
/// the schedule for a *known* seed, but targets are unpredictable without
/// it and uniform over candidates across streams.
///
/// Returns `None` when there are no candidates.
///
/// # Example
///
/// ```
/// use distclass_net::seeded_pick;
///
/// assert_eq!(seeded_pick(7, 0, 5), seeded_pick(7, 0, 5)); // deterministic
/// assert!(seeded_pick(7, 1, 5).unwrap() < 5);
/// assert_eq!(seeded_pick(7, 1, 0), None);
/// ```
pub fn seeded_pick(seed: u64, stream: u64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The SplitMix64 output is uniform over u64; the modulo bias at
    // audit-pool sizes (≪ 2^32) is negligible.
    Some((derive_seed(seed, stream) % n as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_spread() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(1, i)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "collision in derived seeds");
    }

    #[test]
    fn different_bases_differ() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
