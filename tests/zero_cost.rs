//! Zero-cost-when-disabled guarantees for the observability handles, and
//! allocation counts for the hot paths that promise to make none.
//!
//! The runtime threads `Tracer` and `Profiler` handles through
//! every hot path on the premise that the disabled state costs one
//! branch and allocates nothing. These tests pin that premise down with
//! a counting allocator, and check the stronger engine-level property:
//! a fixed-seed simulation produces bit-identical results with the
//! profiler on and off — observation never perturbs the run.
//!
//! Calls that start no thread are counted on the calling thread, which
//! the test harness's other threads cannot reach, so a count can be an
//! exact zero. A `RoundSim` may run a heavy round end's upper half on a
//! helper thread, so its allocations are counted process-wide (see
//! [`allocations_in_all_threads`]). Every test holds one lock, so no two
//! tests measure at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use distclass::core::em::{self, EmConfig};
use distclass::core::{
    CentroidInstance, Classification, Collection, GaussianSummary, GmInstance, Instance, Weight,
};
use distclass::experiments::data::{figure2_components, sample_mixture};
use distclass::gossip::{GossipConfig, RoundSim};
use distclass::linalg::Vector;
use distclass::net::Topology;
use distclass::obs::{
    read_jsonl, GrainOp, JsonlSink, Phase, Profiler, ProfilerCore, TraceEvent, TraceSink, Tracer,
};

/// Allocations by counted threads while a process-wide measurement runs.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Whether a process-wide measurement runs.
static MEASURING: AtomicBool = AtomicBool::new(false);
/// Held by every test, so that measurements never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Allocation count for the current thread. `const`-initialized and
    /// destructor-free, like `COUNTED`, so the allocator may touch both
    /// at any point in a thread's life without re-entrancy.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread counts in a process-wide measurement; `None`
    /// until its first allocation, which decides.
    static COUNTED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the calling thread counts in a process-wide measurement: a
/// thread counts if its first allocation falls inside one.
fn counted() -> bool {
    COUNTED
        .try_with(|c| {
            let counted = c.get().unwrap_or_else(|| MEASURING.load(Ordering::SeqCst));
            c.set(Some(counted));
            counted
        })
        .unwrap_or(false)
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the count is
// a side effect on atomics and a destructor-free thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1)).ok();
        // `counted` first: a thread's first allocation decides, in or out
        // of a measurement.
        if counted() && MEASURING.load(Ordering::SeqCst) {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Takes the lock that every test holds, and stops the calling thread
/// from counting in other tests' process-wide measurements.
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    COUNTED.with(|c| c.set(Some(false)));
    guard
}

/// Runs `f` and returns how many heap allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOCS.with(Cell::get);
    f();
    THREAD_ALLOCS.with(Cell::get) - before
}

/// Runs `f` and returns how many heap allocations it made on this thread
/// and on the threads it started; the caller holds [`serial`]. A thread
/// counts if its first allocation falls inside `f`, so the harness's own
/// threads never count, except that a test thread the harness starts
/// meanwhile adds its few start-up allocations before it waits on
/// [`serial`]: fit for a count per message, not for an exact zero.
fn allocations_in_all_threads(f: impl FnOnce()) -> u64 {
    COUNTED.with(|c| c.set(Some(true)));
    let before = ALLOCS.load(Ordering::SeqCst);
    MEASURING.store(true, Ordering::SeqCst);
    f();
    MEASURING.store(false, Ordering::SeqCst);
    COUNTED.with(|c| c.set(Some(false)));
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn disabled_tracer_emits_without_allocating_or_building_events() {
    let _serial = serial();
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

/// Once its line buffer has grown, the JSONL sink records the two most
/// common events of a trace without allocating: the encoder writes each
/// line straight into that buffer.
#[test]
fn jsonl_sink_records_without_allocating() {
    let _serial = serial();
    let path = std::env::temp_dir().join(format!("zero_cost_sink_{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).expect("create the trace file");
    let delta = TraceEvent::GrainDelta {
        node: 12,
        incarnation: 3,
        op: GrainOp::Merge,
        grains: 1 << 40,
        peer: 7,
        lamport: Some(123_456),
        seq: None,
        span_inc: Some(2),
        span_seq: Some(99_999),
        wait_us: Some(1_500),
        transit_us: Some(250),
    };
    let sent = TraceEvent::MessageSent {
        from: 12,
        to: 7,
        bytes: 4_096,
        at: 17.25,
        lamport: Some(123_457),
        seq: Some(100_000),
    };
    sink.record(&delta);
    sink.record(&sent);
    let n = allocations(|| {
        for _ in 0..1_000 {
            sink.record(&delta);
            sink.record(&sent);
        }
    });
    assert_eq!(n, 0, "recording allocated");
    sink.flush().expect("flush");
    drop(sink);
    let text = std::fs::read_to_string(&path).expect("read the trace back");
    std::fs::remove_file(&path).ok();
    assert_eq!(text, format!("{delta}\n{sent}\n").repeat(1_001));
}

/// The trace reader decodes each line where it lies in the reader's
/// buffer: a `&[u8]` trace of the events a simulator writes is read with
/// no allocation at all, and through a `BufReader` the count does not
/// grow with the number of lines.
#[test]
fn read_jsonl_allocates_nothing_per_line() {
    let _serial = serial();
    let lines = [
        r#"{"type":"message_sent","from":12,"to":7,"bytes":29,"at":3,"lamport":41,"seq":5}"#,
        r#"{"type":"message_delivered","from":12,"to":7,"bytes":29,"at":3,"lamport":42,"span_seq":5}"#,
        r#"{"type":"message_dropped","from":3,"to":9,"reason":"crashed"}"#,
        r#"{"type":"round_completed","round":3,"live":2000,"sent":8000,"delivered":7998,"dropped":2}"#,
        r#"{"type":"telemetry","round":4,"live":2000,"classifications_mean":1.6365,"classifications_max":2,"weight_spread":2.5,"mean_error":null,"max_error":null,"dispersion":0.125,"unix_ms":null}"#,
    ];
    let text = format!("{}\n", lines.join("\n")).repeat(200);
    let mut events = 0;
    let n = allocations(|| {
        let unknown = read_jsonl(text.as_bytes(), |_| events += 1).expect("reads");
        assert_eq!(unknown, 0);
    });
    assert_eq!((events, n), (1_000, 0), "events read, allocations");

    let buffered = |copies: usize| {
        let text = format!("{}\n", lines[1]).repeat(copies);
        let mut events = 0;
        let n = allocations(|| {
            read_jsonl(BufReader::new(text.as_bytes()), |_| events += 1).expect("reads");
        });
        assert_eq!(events, copies);
        n
    };
    assert_eq!(buffered(1_000), buffered(10_000), "allocations per line");
}

#[test]
fn disabled_profiler_spans_allocate_nothing_and_never_read_the_clock() {
    let _serial = serial();
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
    let _serial = serial();
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

/// The union of `nodes` nodes' full (k = 7) classifications a few rounds
/// into a GM run on Fig. 2 readings: what a merge hands to
/// `GmInstance::partition`.
fn fig2_union(nodes: usize) -> Classification<GaussianSummary> {
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
        .take(nodes)
        .flat_map(|c| c.iter().cloned())
        .collect()
}

/// The EM iteration loop allocates nothing: with a tolerance that only a
/// step that does not raise the expected log-likelihood can meet, one and
/// five iterations make the same number of allocations (the per-call
/// copies in and the outcome out).
#[test]
fn em_reduce_allocations_do_not_grow_with_iterations() {
    let _serial = serial();
    let comps = fig2_union(2);
    assert_eq!(comps.len(), 14);
    let run = |max_iters: usize| {
        let cfg = EmConfig {
            max_iters,
            tol: f64::MIN_POSITIVE,
            ..EmConfig::default()
        };
        let mut groups = 0;
        let n = allocations(|| {
            let out = em::reduce(comps.collections(), 7, &cfg).expect("valid input");
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

/// `GmInstance::partition` hands its collections to EM in place: its
/// allocations (EM's buffers, sized once, and the groups out) do not grow
/// with the number of collections it reduces.
#[test]
fn gm_partition_allocations_do_not_grow_with_collections() {
    let _serial = serial();
    let inst = GmInstance::new(7).expect("k > 0");
    let run = |big: &Classification<GaussianSummary>| {
        let mut groups = 0;
        let n = allocations(|| groups = inst.partition(big).len());
        (n, groups)
    };
    let (two, three) = (fig2_union(2), fig2_union(3));
    assert_eq!((two.len(), three.len()), (14, 21));
    let (fourteen, twenty_one) = (run(&two), run(&three));
    // Each non-empty group is one allocation, as above.
    assert_eq!(fourteen.1, twenty_one.1, "group counts differ");
    assert_eq!(
        fourteen.0, twenty_one.0,
        "allocations grew with the collections"
    );
}

/// `GmInstance::merge_set` reads its parts by reference: merging 2 parts
/// and 7 parts makes the same allocations, those of the merged summary. A
/// planar summary is held in place, so on Fig. 2's readings that is none;
/// past the inline size the covariance (d = 3), then the mean as well
/// (d = 5), takes a heap block.
#[test]
fn gm_merge_set_allocates_only_the_merged_summary() {
    let _serial = serial();
    let inst = GmInstance::new(7).expect("k > 0");
    let count = |big: &Classification<GaussianSummary>| {
        let parts: Vec<(&GaussianSummary, f64)> = big
            .iter()
            .map(|c| (&c.summary, c.weight.grains() as f64))
            .collect();
        assert_eq!(parts.len(), 7);
        let merge = |m: usize| allocations(|| drop(inst.merge_set(&parts[..m])));
        (merge(2), merge(7))
    };
    assert_eq!(
        count(&fig2_union(1)),
        (0, 0),
        "merge_set allocations, d = 2"
    );
    let spread = |d: usize| -> Classification<GaussianSummary> {
        (0..7)
            .map(|i| {
                let mean: Vector = (0..d).map(|j| (i * d + j) as f64 * 0.5).collect();
                let summary = GaussianSummary::from_point(&mean);
                Collection::new(summary, Weight::from_grains(i as u64 + 1))
            })
            .collect()
    };
    assert_eq!(count(&spread(3)), (1, 1), "merge_set allocations, d = 3");
    assert_eq!(count(&spread(5)), (2, 2), "merge_set allocations, d = 5");
}

/// One gossip exchange allocates per message, not per collection: after
/// warm-up, a k = 2 centroid `RoundSim` on 500 nodes makes at most 7.4
/// allocations per message over rounds 11–20 (7.31; the bound was 8). They
/// are the sent half, the receiver's union (grown once per round, however
/// many messages arrive) and merged result, `partition`'s groups and a few
/// flat index buffers; a planar summary itself needs none. The count
/// includes a helper thread's, where a round end runs on two threads.
#[test]
fn centroid_exchange_allocates_at_most_eight_per_message() {
    let _serial = serial();
    let n = 500;
    let (values, _labels) = sample_mixture(n, &figure2_components(), 3);
    let inst = Arc::new(CentroidInstance::new(2).expect("k > 0"));
    let mut sim = RoundSim::new(
        Topology::complete(n),
        inst,
        &values,
        &GossipConfig::default(),
    );
    sim.run_rounds(10);
    let sent = sim.metrics().messages_sent;
    let allocs = allocations_in_all_threads(|| sim.run_rounds(10));
    let messages = sim.metrics().messages_sent - sent;
    let per_message = allocs as f64 / messages as f64;
    eprintln!("{allocs} allocations for {messages} messages: {per_message:.2} each");
    assert!(
        per_message <= 7.4,
        "{allocs} allocations for {messages} messages: {per_message:.2} each"
    );
}

#[test]
fn complete_graph_costs_no_allocation_at_any_size() {
    let _serial = serial();
    let n = 1_000_000;
    let mut degrees = 0;
    let allocs = allocations(|| {
        let topo = Topology::complete(n);
        for i in [0, 1, n / 2, n - 1] {
            degrees += topo.neighbors(i).len();
        }
    });
    assert_eq!(degrees, 4 * (n - 1));
    assert_eq!(allocs, 0, "Topology::complete allocated");
}
