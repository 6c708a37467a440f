//! End-to-end chaos tests for the deployment runtime: scripted
//! partitions, crash–restart recovery, duplication and reordering, with
//! the grain-conservation auditor checking the books after every run.
//!
//! The seed sweeps run on the virtual-time driver (`run_sim_cluster`), so
//! each seed replays exactly; set `DISTCLASS_CHAOS_SEEDS` to a
//! comma-separated list (e.g. `DISTCLASS_CHAOS_SEEDS=3`) to override the
//! default eight seeds. One crash-restart and one partition-heal run, and
//! the panic capture, run on real threads over in-process channels.

mod common;

use std::io;
use std::sync::Arc;
use std::time::Duration;

use common::{sweep, two_site_values};
use distclass::core::CentroidInstance;
use distclass::linalg::Vector;
use distclass::net::{NodeId, Topology};
use distclass::runtime::{
    run_cluster_with_faults, run_sim_cluster, AdversaryPlan, ChannelNet, ClusterConfig,
    ClusterReport, DriftSchedule, FaultPlan, NodeOutcome, PrebuiltNet, Transport,
};

const SEEDS: &str = "DISTCLASS_CHAOS_SEEDS";

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(30),
        drain_wall: Duration::from_secs(15),
        seed,
        audit: true,
        ..ClusterConfig::default()
    }
}

/// Runs an `n`-peer complete-graph cluster under `plan`.
type Runner = fn(usize, &FaultPlan, &ClusterConfig) -> ClusterReport<Vector>;

fn run(n: usize, plan: &FaultPlan, config: &ClusterConfig) -> ClusterReport<Vector> {
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    run_sim_cluster(
        &Topology::complete(n),
        inst,
        &two_site_values(n),
        plan,
        config,
    )
}

fn run_threaded(n: usize, plan: &FaultPlan, config: &ClusterConfig) -> ClusterReport<Vector> {
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let values = two_site_values(n);
    let net = ChannelNet::new(n);
    run_cluster_with_faults(&Topology::complete(n), inst, &values, net, plan, config)
}

fn assert_books_balance(report: &ClusterReport<Vector>, label: &str) {
    let audit = report.audit.as_ref().expect("audit was requested");
    assert!(report.converged, "{label}: did not converge\n{audit}");
    assert!(report.drained, "{label}: did not drain\n{audit}");
    assert!(audit.ok(), "{label}: audit failed\n{audit}");
}

/// Scenario 1: the cluster splits in half, heals, and still converges
/// with every grain where the ledger says it should be. No crashes, so
/// the live total equals the initial total exactly.
#[test]
fn partition_heal_conserves_grains_across_seeds() {
    let name = "partition_heal_conserves_grains_across_seeds";
    sweep(SEEDS, 1..=8, name, |seed| partition_heal(seed, run));
}

/// Scenario 1 once on real threads and channels.
#[test]
fn partition_heal_conserves_grains_over_threaded_channels() {
    partition_heal(1, run_threaded);
}

fn partition_heal(seed: u64, run: Runner) {
    const N: usize = 8;
    let plan = FaultPlan::new(seed).partition(
        Duration::from_millis(100),
        Duration::from_millis(300),
        (0..N / 2).collect(),
    );
    let config = config(seed);
    let report = run(N, &plan, &config);
    assert_books_balance(&report, &format!("partition-heal seed {seed}"));
    assert_eq!(
        report.total_grains(),
        N as u64 * config.quantum.grains_per_unit(),
        "partition-heal seed {seed}: grains lost without any crash"
    );
}

/// Scenario 2: two peers crash mid-run and are respawned from their
/// checkpoints; the audit proves conservation modulo the declared
/// rollback gains/losses of each restart.
#[test]
fn crash_restart_recovers_and_balances_across_seeds() {
    let name = "crash_restart_recovers_and_balances_across_seeds";
    sweep(SEEDS, 1..=8, name, |seed| crash_restart(seed, run));
}

/// Scenario 2 once on real threads and channels.
#[test]
fn crash_restart_recovers_and_balances_over_threaded_channels() {
    crash_restart(1, run_threaded);
}

fn crash_restart(seed: u64, run: Runner) {
    const N: usize = 8;
    // Seed-dependent victims so the sweep exercises different nodes.
    let a = (seed % N as u64) as NodeId;
    let b = ((seed + 3) % N as u64) as NodeId;
    let mut plan = FaultPlan::new(seed).crash_restart(
        Duration::from_millis(150),
        a,
        Duration::from_millis(100),
    );
    if b != a {
        plan = plan.crash_restart(Duration::from_millis(250), b, Duration::from_millis(100));
    }
    let report = run(N, &plan, &config(seed));
    assert_books_balance(&report, &format!("crash-restart seed {seed}"));
    assert_eq!(
        report.nodes[a].restarts, 1,
        "crash-restart seed {seed}: node {a} was not respawned"
    );
    assert!(
        report
            .nodes
            .iter()
            .all(|r| r.outcome == NodeOutcome::Completed),
        "crash-restart seed {seed}: a node did not complete"
    );
}

/// Scenario 3: heavy duplication + reordering + random extra delay. The
/// reliability layer dedups and retries through all of it; nothing is
/// ever lost, so conservation is exact with zero declared events.
#[test]
fn dup_and_reorder_never_lose_or_mint_grains_across_seeds() {
    const N: usize = 8;
    let name = "dup_and_reorder_never_lose_or_mint_grains_across_seeds";
    sweep(SEEDS, 1..=8, name, |seed| {
        let plan = FaultPlan::new(seed).duplicate(0.10).reorder(0.15).delay(
            0.2,
            Duration::from_millis(1),
            Duration::from_millis(3),
        );
        let config = config(seed);
        let report = run(N, &plan, &config);
        assert_books_balance(&report, &format!("dup+reorder seed {seed}"));
        let audit = report.audit.as_ref().expect("audit was requested");
        assert_eq!(
            audit.declared_gains + audit.declared_losses,
            0,
            "dup+reorder seed {seed}: no crash, so nothing may be declared"
        );
        assert_eq!(
            report.total_grains(),
            N as u64 * config.quantum.grains_per_unit(),
            "dup+reorder seed {seed}: duplication minted or lost grains"
        );
        let dups = report.total_metrics().duplicates;
        assert!(dups > 0, "dup+reorder seed {seed}: plan injected nothing");
    });
}

/// The acceptance scenario: a 16-peer cluster survives a scripted
/// partition-heal plus two crash–restart events and converges, with the
/// auditor proving grain conservation, on every seed of the matrix.
#[test]
fn sixteen_peers_survive_partition_and_two_crash_restarts() {
    const N: usize = 16;
    let name = "sixteen_peers_survive_partition_and_two_crash_restarts";
    sweep(SEEDS, 1..=8, name, |seed| {
        let plan = FaultPlan::new(seed)
            .partition(
                Duration::from_millis(150),
                Duration::from_millis(450),
                (0..N / 2).collect(),
            )
            .crash_restart(Duration::from_millis(250), 3, Duration::from_millis(150))
            .crash_restart(Duration::from_millis(350), 11, Duration::from_millis(150));
        let report = run(N, &plan, &config(seed));
        assert_books_balance(&report, &format!("flagship seed {seed}"));
        assert_eq!(report.nodes[3].restarts, 1, "flagship seed {seed}");
        assert_eq!(report.nodes[11].restarts, 1, "flagship seed {seed}");
    });
}

/// A permanent crash takes its grains with it — and the audit *declares*
/// that loss rather than hiding it: `final = initial − losses`, exactly.
#[test]
fn permanent_crash_is_a_declared_nonzero_loss() {
    const N: usize = 8;
    let name = "permanent_crash_is_a_declared_nonzero_loss";
    sweep(SEEDS, 5..=5, name, |seed| {
        let plan = FaultPlan::new(seed).crash(Duration::from_millis(200), 5);
        let report = run(N, &plan, &config(seed));
        let audit = report.audit.as_ref().expect("audit was requested");
        assert_eq!(report.nodes[5].outcome, NodeOutcome::Dead);
        assert!(audit.exact, "death receipts keep the accounting exact");
        assert!(audit.conserved, "audit must balance:\n{audit}");
        assert!(
            audit.declared_losses > 0,
            "a node died holding grains; the loss must be declared:\n{audit}"
        );
        assert_eq!(
            audit.final_grains as i128,
            audit.initial_grains as i128 + audit.declared_gains as i128
                - audit.declared_losses as i128,
            "conservation identity:\n{audit}"
        );
    });
}

/// Determinism: the same spec and seed parse to byte-identical fault
/// schedules (equal plans, equal digests); a different seed diverges.
#[test]
fn fault_schedules_are_byte_identical_in_spec_and_seed() {
    let spec =
        "partition@100ms-300ms:0-3;crash@150ms:2+100ms;dup=0.1;reorder=0.2;delay=0.3:1ms-4ms";
    let a = FaultPlan::parse(spec, 17).expect("spec parses");
    let b = FaultPlan::parse(spec, 17).expect("spec parses");
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    let c = FaultPlan::parse(spec, 18).expect("spec parses");
    assert_ne!(a.digest(), c.digest(), "seed must be part of the schedule");
}

/// A transport that works for a while, then panics its peer thread —
/// a genuine bug, not an injected `Ctrl::Crash`.
struct PanicAfter<T> {
    inner: T,
    sends_left: u32,
}

impl<T: Transport> Transport for PanicAfter<T> {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        assert!(self.sends_left > 0, "injected transport failure");
        self.sends_left -= 1;
        self.inner.send(to, frame)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        self.inner.recv_timeout(timeout)
    }
}

/// A peer thread panic must not take the harness down: the supervisor
/// captures the payload as that node's error and reports the node as
/// `Panicked` while every other node still completes and reports.
#[test]
fn peer_panic_is_captured_as_a_per_node_error() {
    const N: usize = 4;
    let transports: Vec<PanicAfter<_>> = ChannelNet::reliable(N)
        .into_iter()
        .enumerate()
        .map(|(id, inner)| PanicAfter {
            inner,
            sends_left: if id == 2 { 5 } else { u32::MAX },
        })
        .collect();
    let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
    let config = ClusterConfig {
        tick: Duration::from_millis(1),
        tol: 1e-9,
        stable_window: Duration::from_millis(100),
        max_wall: Duration::from_secs(5),
        drain_wall: Duration::from_secs(3),
        seed: 9,
        ..ClusterConfig::default()
    };
    let report = run_cluster_with_faults(
        &Topology::complete(N),
        inst,
        &two_site_values(N),
        PrebuiltNet::new(transports),
        &FaultPlan::new(config.seed),
        &config,
    );
    let victim = &report.nodes[2];
    assert_eq!(victim.outcome, NodeOutcome::Panicked);
    assert!(
        victim
            .error
            .as_deref()
            .is_some_and(|e| e.contains("injected transport failure")),
        "panic payload must be captured, got {:?}",
        victim.error
    );
    for other in report.nodes.iter().filter(|r| r.id != 2) {
        assert_eq!(
            other.outcome,
            NodeOutcome::Completed,
            "node {} should have outlived the panic",
            other.id
        );
    }
}

/// A plan that names node 99 of a 4-node cluster stops the run before
/// any peer starts, with a message that names the plan, the node and the
/// cluster size. A crash used to index past the supervisor's slots, and
/// a partition side, a drift event or an adversary used to do nothing.
#[test]
fn plans_naming_nodes_outside_the_cluster_are_rejected() {
    let at = Duration::from_millis(100);
    let base = config(1);
    let drift = DriftSchedule::parse("step@100ms:99=1.0,1.0", 1).expect("a drift spec");
    let adversaries = AdversaryPlan::parse("cartel@99", 1).expect("an adversary spec");
    let cases = [
        ("faults", FaultPlan::new(1).crash(at, 99), base.clone()),
        (
            "faults",
            FaultPlan::new(1).partition(Duration::ZERO, at, vec![99]),
            base.clone(),
        ),
        (
            "drift",
            FaultPlan::new(1),
            ClusterConfig {
                drift: Some(Arc::new(drift)),
                ..base.clone()
            },
        ),
        (
            "adversaries",
            FaultPlan::new(1),
            ClusterConfig {
                adversaries: Some(Arc::new(adversaries)),
                ..base
            },
        ),
    ];
    for (name, plan, config) in cases {
        let run = std::panic::AssertUnwindSafe(|| run(4, &plan, &config));
        let payload = std::panic::catch_unwind(run).expect_err("the plan is rejected");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert_eq!(
            message,
            format!("{name} names unknown node 99 (the cluster has 4 nodes including joiners)")
        );
    }
}
