//! Chaos engineering for the gossip cluster: scripted faults, crash
//! recovery, and a grain-conservation audit.
//!
//! Twelve peers gossip 2-D readings while a deterministic [`FaultPlan`]
//! works against them: the network splits in half for 300 ms and heals,
//! two peers crash mid-run and are respawned from their checkpoints, a
//! third crashes permanently, and every frame risks duplication and
//! reordering. Run with:
//!
//! ```text
//! cargo run --release --example chaos_cluster
//! ```
//!
//! The cluster converges anyway, and the post-run audit proves the
//! outcome is not luck: every grain is either in a surviving node's
//! final classification or explicitly declared lost with the permanent
//! crash — `final = initial + gains − losses`, exactly.

use std::sync::Arc;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::runtime::{
    run_cluster_with_faults, ChannelNet, ClusterConfig, FaultPlan, NodeOutcome,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 12;

    let values: Vec<Vector> = (0..N)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect();

    // The full fault menu, all deterministic in the plan seed:
    // - the low half of the cluster is cut off for 300 ms, then healed;
    // - peers 2 and 7 crash and come back 150 ms later from checkpoints;
    // - peer 9 crashes for good at 500 ms (its grains become a declared
    //   loss the audit must account for);
    // - 5% of frames are duplicated, 10% are held back to arrive late.
    let plan = FaultPlan::new(99)
        .partition(
            Duration::from_millis(150),
            Duration::from_millis(450),
            (0..N / 2).collect(),
        )
        .crash_restart(Duration::from_millis(250), 2, Duration::from_millis(150))
        .crash_restart(Duration::from_millis(350), 7, Duration::from_millis(150))
        .crash(Duration::from_millis(500), 9)
        .duplicate(0.05)
        .reorder(0.10);
    println!(
        "fault plan digest {:016x} (same seed => same schedule, byte for byte)",
        plan.digest()
    );

    let inst = Arc::new(CentroidInstance::new(2)?);
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(150),
        max_wall: Duration::from_secs(25),
        seed: 7,
        audit: true,
        ..ClusterConfig::default()
    };

    println!("spawning {N} peers (complete topology) into the storm...");
    let net = ChannelNet::new(N);
    let report =
        run_cluster_with_faults(&Topology::complete(N), inst, &values, net, &plan, &config);

    println!(
        "converged: {} ({:?}); drained: {}; wall: {:?}; dispersion: {:.3e}",
        report.converged,
        report.converged_after.unwrap_or_default(),
        report.drained,
        report.wall,
        report.final_dispersion,
    );
    for node in &report.nodes {
        let outcome = match node.outcome {
            NodeOutcome::Completed => "ok".to_string(),
            NodeOutcome::Dead => "dead".to_string(),
            NodeOutcome::Panicked => "panicked".to_string(),
            NodeOutcome::Retired => "retired".to_string(),
        };
        println!(
            "node {:>2}: {:<8} restarts={} undelivered={} {}",
            node.id, outcome, node.restarts, node.undelivered, node.metrics,
        );
    }

    let audit = report.audit.as_ref().expect("audit was requested");
    println!("\n{audit}");

    // The two respawned peers completed; the permanent casualty did not.
    assert_eq!(report.nodes[2].restarts, 1, "peer 2 should have respawned");
    assert_eq!(report.nodes[7].restarts, 1, "peer 7 should have respawned");
    assert_eq!(report.nodes[9].outcome, NodeOutcome::Dead);
    assert!(report.converged, "cluster failed to converge");
    // And the books balance: finals equal the initial grains plus every
    // declared gain minus every declared loss, to the grain.
    assert!(audit.ok(), "audit failed:\n{audit}");
    println!("\nall {N} peers audited; the books balance.");
    Ok(())
}
