//! A real cluster over UDP loopback.
//!
//! Twelve peers — each an OS thread with its own UDP socket — gossip
//! 2-D sensor readings from two sites until every node holds the same
//! two-collection classification. Run with:
//!
//! ```text
//! cargo run --release --example udp_cluster
//! ```
//!
//! The harness quiesces and drains the network before snapshotting, so the
//! final reports conserve the total weight to the grain, which this
//! example asserts along with cluster-wide agreement.

use std::sync::Arc;
use std::time::Duration;

use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::runtime::{run_cluster_with_faults, ClusterConfig, FaultPlan, UdpNet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: usize = 12;

    // Two sensor sites with exact readings: even nodes at (0,0), odd nodes
    // at (10,10). Exact values keep the converged centroids exactly on the
    // sites, so every node prints the identical classification.
    let values: Vec<Vector> = (0..N)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect();

    let inst = Arc::new(CentroidInstance::new(2)?);
    let config = ClusterConfig {
        tick: Duration::from_millis(2),
        tol: 1e-9,
        stable_window: Duration::from_millis(150),
        max_wall: Duration::from_secs(20),
        seed: 7,
        ..ClusterConfig::default()
    };

    println!("spawning {N} peers on UDP loopback (complete topology)...");
    let net = UdpNet::bind_cluster(N)?;
    let report = run_cluster_with_faults(
        &Topology::complete(N),
        Arc::clone(&inst),
        &values,
        net,
        &FaultPlan::new(config.seed),
        &config,
    );

    println!(
        "converged: {} ({:?}); drained: {}; wall: {:?}; dispersion: {:.3e}",
        report.converged,
        report.converged_after.unwrap_or_default(),
        report.drained,
        report.wall,
        report.final_dispersion,
    );

    let mut rendered: Vec<String> = Vec::with_capacity(N);
    for node in &report.nodes {
        let total = node.classification.total_weight();
        let mut parts: Vec<(String, f64)> = node
            .classification
            .iter()
            .map(|c| {
                (
                    format!("{}", c.summary),
                    c.weight.fraction_of(total) * 100.0,
                )
            })
            .collect();
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        let summaries: Vec<&str> = parts.iter().map(|(s, _)| s.as_str()).collect();
        let weights: Vec<String> = parts.iter().map(|(_, w)| format!("{w:.0}%")).collect();
        println!(
            "node {:>2}: {:<28} weights [{}]  {}",
            node.id,
            summaries.join(" + "),
            weights.join(", "),
            node.metrics,
        );
        rendered.push(summaries.join(" + "));
    }

    // Every node prints the identical classification…
    assert!(
        rendered.windows(2).all(|w| w[0] == w[1]),
        "nodes disagree: {rendered:?}"
    );
    // …the cluster drained (no weight left in flight)…
    assert!(report.drained, "cluster failed to drain");
    // …and the total weight is conserved to the grain.
    let expected = N as u64 * config.quantum.grains_per_unit();
    assert_eq!(report.total_grains(), expected, "grains not conserved");

    let totals = report.total_metrics();
    println!(
        "grain conservation holds: {} grains == {N} x {}",
        report.total_grains(),
        config.quantum.grains_per_unit(),
    );
    println!("cluster totals: {totals}");
    Ok(())
}
