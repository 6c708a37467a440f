//! Zero-cost-when-disabled guarantees for the observability handles.
//!
//! The runtime threads `Tracer`, `Live`, and `Profiler` handles through
//! every hot path on the premise that the disabled state costs one
//! branch and allocates nothing. These tests pin that premise down with
//! a counting allocator (per-thread, so the parallel test harness can't
//! pollute the counts), and check the stronger engine-level property:
//! a fixed-seed simulation produces bit-identical results with the
//! profiler on and off — observation never perturbs the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use distclass::core::em::{self, EmConfig};
use distclass::core::{CentroidInstance, GaussianSummary, GmInstance};
use distclass::experiments::data::{figure2_components, sample_mixture};
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{Live, Phase, Profiler, ProfilerCore, TraceEvent, Tracer};

thread_local! {
    /// Allocation count for the current thread. `const`-initialized and
    /// destructor-free, so the allocator may touch it at any point in a
    /// thread's life without re-entrancy.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the count is
// a side effect on a destructor-free thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1)).ok();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

#[test]
fn disabled_tracer_emits_without_allocating_or_building_events() {
    let tracer = Tracer::disabled();
    let n = allocations(|| {
        for round in 0..1_000 {
            tracer.emit(|| {
                // The closure must never run on a disabled tracer; a
                // heap-allocating event here would show in the count.
                TraceEvent::FaultActivated {
                    kind: "never-built".to_string(),
                    node: Some(round),
                    at: round as f64,
                }
            });
        }
    });
    assert_eq!(n, 0, "disabled tracer allocated");
}

#[test]
fn disabled_profiler_spans_allocate_nothing_and_never_read_the_clock() {
    let prof = Profiler::disabled();
    let n = allocations(|| {
        let thread = prof.thread("peer0");
        for _ in 0..1_000 {
            let tick = thread.span(Phase::Tick);
            let merge = thread.span(Phase::Merge);
            drop(merge);
            drop(tick);
            // stop() on an untimed guard reports no measurement.
            assert_eq!(thread.span(Phase::Recv).stop(), None);
        }
        drop(thread);
    });
    assert_eq!(n, 0, "disabled profiler allocated");
    assert!(!prof.enabled());
    assert!(prof.core().is_none(), "no core to snapshot when disabled");
}

#[test]
fn disabled_live_handle_is_inert_and_allocation_free() {
    let n = allocations(|| {
        let live = Live::disabled();
        assert!(!live.enabled());
        assert!(live.aggregator().is_none());
        for _ in 0..1_000 {
            // The clone-per-peer pattern the cluster supervisor uses.
            let peer_handle = live.clone();
            assert!(!peer_handle.enabled());
        }
    });
    assert_eq!(n, 0, "disabled live handle allocated");
}

fn bimodal_values(n: usize) -> Vec<Vector> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            Vector::from(vec![x, x])
        })
        .collect()
}

/// The engine-level guarantee behind the ≤3% overhead budget: profiling
/// is purely observational. A fixed-seed run reaches exactly the same
/// state (dispersion bits, message counts, per-node classifications)
/// with the profiler attached as without.
#[test]
fn fixed_seed_run_is_identical_with_profiler_on_and_off() {
    let run = |profile: bool| {
        let inst = Arc::new(CentroidInstance::new(2).expect("k >= 1"));
        let cfg = GossipConfig {
            seed: 7,
            ..GossipConfig::default()
        };
        let values = bimodal_values(12);
        let mut sim = RoundSim::new(Topology::ring(12), inst, &values, &cfg);
        let core = profile.then(|| Arc::new(ProfilerCore::new()));
        if let Some(core) = &core {
            sim = sim.with_profiler(Profiler::new(Arc::clone(core)).thread("sim"));
        }
        sim.run_rounds(30);
        let summaries: Vec<String> = sim
            .live_classifications()
            .iter()
            .flat_map(|c| {
                c.iter()
                    .map(|col| format!("{:?}/{:?}", col.summary, col.weight))
            })
            .collect();
        (
            sim.dispersion().to_bits(),
            sim.metrics(),
            sim.round(),
            summaries,
        )
    };
    let (off, on) = (run(false), run(true));
    assert_eq!(off.0, on.0, "dispersion must match to the bit");
    assert_eq!(off.1, on.1, "message/round counters must match");
    assert_eq!(off.2, on.2);
    assert_eq!(off.3, on.3, "per-node classifications must match");
}

/// A 14-component Fig. 2 input, as a k = 7 merge hands it to EM: the
/// union of two nodes' classifications a few rounds into a GM run on
/// Fig. 2 readings, each collection weighted by its grains.
fn fig2_fourteen_components() -> Vec<(GaussianSummary, f64)> {
    let n = 60;
    let (values, _labels) = sample_mixture(n, &figure2_components(), 2);
    let inst = Arc::new(GmInstance::new(7).expect("k > 0"));
    let mut sim = RoundSim::new(
        Topology::complete(n),
        inst,
        &values,
        &GossipConfig::default(),
    );
    sim.run_rounds(6);
    sim.live_classifications()
        .into_iter()
        .filter(|c| c.len() == 7)
        .take(2)
        .flat_map(|c| c.iter())
        .map(|col| (col.summary.clone(), col.weight.grains() as f64))
        .collect()
}

/// The EM iteration loop allocates nothing: with a tolerance no shift can
/// meet, one and five iterations make the same number of allocations
/// (the per-call copies in and the outcome out).
#[test]
fn em_reduce_allocations_do_not_grow_with_iterations() {
    let comps = fig2_fourteen_components();
    assert_eq!(comps.len(), 14);
    let run = |max_iters: usize| {
        let cfg = EmConfig {
            max_iters,
            tol: f64::MIN_POSITIVE,
            ..EmConfig::default()
        };
        let mut groups = 0;
        let n = allocations(|| {
            let out = em::reduce(&comps, 7, &cfg).expect("valid input");
            assert_eq!(out.iterations, max_iters, "tol must never be met");
            groups = out.groups.len();
        });
        (n, groups)
    };
    let (one, five) = (run(1), run(5));
    // Each non-empty group is one allocation of the outcome, so the
    // comparison needs the same group count on both sides.
    assert_eq!(one.1, five.1, "group counts differ");
    assert_eq!(one.0, five.0, "allocations grew with iterations");
}
