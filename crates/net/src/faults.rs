use crate::NodeId;

/// Crash-fault injection policy for the round engine.
///
/// The paper's network model (§3.1) has reliable links, and its only
/// faults are fail-stop crashes. Crashed nodes stop ticking and receiving
/// forever; messages in flight to a crashed node are dropped, so the
/// weight they carry leaves the system — exactly the failure mode Figure
/// 4 of the paper examines. Deployment faults (restarts, partitions,
/// loss, delay) belong to the runtime's fault plan, not the simulators.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum CrashModel {
    /// No crashes.
    #[default]
    None,
    /// After every round, each live node crashes independently with
    /// probability `prob` (the paper uses 0.05). The engine never crashes
    /// its last live node so per-round statistics stay well defined.
    PerRound {
        /// Per-node, per-round crash probability in `[0, 1]`.
        prob: f64,
    },
    /// Crash specific nodes at the end of specific rounds:
    /// `(round, node)` pairs.
    Scheduled(Vec<(u64, NodeId)>),
}

impl CrashModel {
    /// A per-round crash probability model.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= prob <= 1.0`.
    pub fn per_round(prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        CrashModel::PerRound { prob }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none() {
        assert_eq!(CrashModel::default(), CrashModel::None);
    }

    #[test]
    fn per_round_validates() {
        assert_eq!(
            CrashModel::per_round(0.05),
            CrashModel::PerRound { prob: 0.05 }
        );
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn per_round_rejects_invalid() {
        let _ = CrashModel::per_round(1.5);
    }
}
