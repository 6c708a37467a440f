//! Degenerate-input property tests for the baselines: empty inputs,
//! identical points (starved/empty clusters), and heavily crashed
//! networks must yield errors or well-defined values — never panics or
//! NaN-poisoned orderings.

use distclass::baselines::{kmeans, newscast, PushSumSim};
use distclass::linalg::Vector;
use distclass::net::{CrashModel, NodeId, Topology};
use proptest::prelude::*;

proptest! {
    /// Identical points starve every cluster but one: Lloyd must converge
    /// to a single centroid at the common point, whatever `k` asks for.
    #[test]
    fn kmeans_identical_points_collapse_to_one_centroid(
        x in -50.0f64..50.0,
        n in 1usize..40,
        k in 1usize..8,
    ) {
        let pts: Vec<Vector> = (0..n).map(|_| Vector::from([x, -x])).collect();
        let r = kmeans::lloyd(&pts, k, 50).expect("valid arguments");
        // Starved centroids must be dropped.
        prop_assert_eq!(r.centroids.len(), 1);
        prop_assert!((r.centroids[0][0] - x).abs() < 1e-12);
        prop_assert!(r.assignments.iter().all(|&a| a == 0));
        prop_assert!(r.inertia.abs() < 1e-18);
    }

    /// The empty point set is an error, not a panic, for every `k`.
    #[test]
    fn kmeans_empty_points_is_an_error(k in 0usize..6) {
        prop_assert!(kmeans::lloyd(&[], k, 10).is_err());
    }

    /// Newscast EM over identical readings: the mixture degenerates to a
    /// point mass, and the NaN-safe anchor selection must not panic when
    /// every candidate distance ties at zero.
    #[test]
    fn newscast_identical_values_yield_finite_point_mass(
        x in -10.0f64..10.0,
        n in 2usize..12,
        k in 1usize..4,
    ) {
        let values: Vec<Vector> = (0..n).map(|_| Vector::from([x])).collect();
        let cfg = newscast::NewscastConfig {
            k,
            em_iters: 2,
            cycles_per_iter: 4,
            ..newscast::NewscastConfig::default()
        };
        let r = newscast::run(&Topology::complete(n), &values, &cfg)
            .expect("valid arguments");
        for node_model in &r.models {
            for (summary, pi) in node_model {
                prop_assert!(pi.is_finite() && *pi >= 0.0);
                prop_assert!((summary.mean[0] - x).abs() < 1e-6);
            }
        }
    }

    /// Crash everything the engine allows (it refuses to kill the last
    /// node): the lone survivor still produces a finite estimate, a
    /// well-defined weight spread of zero, and `None` never leaks a NaN.
    #[test]
    fn push_sum_survives_maximal_crash_schedule(n in 2usize..16, seed in 0u64..64) {
        let values: Vec<Vector> = (0..n).map(|i| Vector::from([i as f64])).collect();
        let plan: Vec<(u64, NodeId)> = (0..n).map(|i| (0, i)).collect();
        let mut sim = PushSumSim::with_crash_model(
            Topology::complete(n),
            &values,
            seed,
            CrashModel::Scheduled(plan),
        );
        sim.run_rounds(3);
        prop_assert_eq!(sim.live_count(), 1);
        let truth = Vector::from([(n as f64 - 1.0) / 2.0]);
        let (mean, max) = sim.error_stats(&truth).expect("one survivor remains");
        prop_assert!(mean.is_finite() && max.is_finite());
        prop_assert_eq!(sim.weight_spread(), 0.0);
    }

    /// Regression: `NetMetrics::in_flight()` must never panic (it used to
    /// be an unchecked `sent - delivered - dropped`). The simulators no
    /// longer revive crashed nodes, so the schedule here is the fail-stop
    /// one: half the network crashes in two waves `gap` rounds apart, and
    /// messages addressed to the victims are dropped.
    #[test]
    fn in_flight_never_panics_under_crash_restart(
        n in 3usize..12,
        seed in 0u64..64,
        crash_round in 1u64..4,
        gap in 1u64..5,
    ) {
        let values: Vec<Vector> = (0..n).map(|i| Vector::from([i as f64])).collect();
        let plan: Vec<(u64, NodeId)> = (0..n / 2)
            .map(|i| (crash_round + (i as u64 % 2) * gap, i))
            .collect();
        let mut sim = PushSumSim::with_crash_model(
            Topology::complete(n),
            &values,
            seed,
            CrashModel::Scheduled(plan),
        );
        for _ in 0..(crash_round + gap + 3) {
            sim.run_round();
            let m = sim.metrics();
            // Saturating arithmetic: whatever the crash bookkeeping did,
            // the derived gauge stays a sane u64.
            prop_assert!(m.in_flight() <= m.messages_sent);
        }
    }
}
