//! Hierarchical phase profiler: where does a peer's wall time go?
//!
//! The tracer answers *what happened*, the metrics registry answers *how
//! often and how long on average* — this module answers *where the time
//! inside a thread went*, phase by phase, with the same exactness
//! discipline as the grain auditor: every accounting identity below holds
//! by integer arithmetic on the recorded numbers, never by clock luck.
//!
//! # Model
//!
//! A [`Profiler`] is a cheap cloneable handle, disabled by default (the
//! same zero-cost pattern as [`Tracer`](crate::Tracer) and [`Metrics`]).
//! Each instrumented thread registers once via
//! [`Profiler::thread`] and receives a [`ThreadProfiler`]; hot paths open
//! RAII [`SpanGuard`]s keyed by the static [`Phase`] taxonomy. Guards
//! nest, so a thread accumulates an exact self/total time tree:
//!
//! ```text
//! peer3
//! ├── tick            (total = Σ tick spans)
//! │   ├── encode
//! │   └── enqueue
//! ├── recv
//! │   ├── decode
//! │   ├── screen
//! │   └── merge
//! └── idle_wait       (blocking receive)
//! ```
//!
//! # Accounting identities
//!
//! For every finalized thread the snapshot satisfies, exactly:
//!
//! * `self(node) == total(node) − Σ total(children)` — a parent's span
//!   encloses its children on a monotonic clock, so this never underflows;
//! * `busy == Σ self` over every node outside the top-level `idle_wait`
//!   subtree (telescoping sum of the first identity);
//! * `busy + idle_wait == lifetime` — wall time not inside any span is,
//!   by definition, time the loop spent between blocking waits and is
//!   folded into `idle_wait` as the *residual* (reported separately so
//!   nothing hides).
//!
//! [`ProfileReport::anomalies`] re-derives all three from the serialized
//! numbers, so `prof-report` can gate on them after a JSON round trip.
//!
//! # Exports
//!
//! * [`ProfileReport::to_collapsed`] — collapsed-stack text
//!   (`peer3;tick;encode 1234`, one line per stack, values in self-µs),
//!   directly loadable by `inferno` / `flamegraph.pl`;
//! * [`ProfileReport::to_json`] / [`ProfileReport::from_json`] — the
//!   lossless document `run-cluster --profile` writes and `prof-report`
//!   reads;
//! * `distclass_phase_us{thread,phase}` histogram families when the
//!   core is built [`ProfilerCore::with_metrics`] — fed the same µs value
//!   as the profile tree, so registry sums reconcile exactly against
//!   [`PhaseStat::total_us`].

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{field, num, unum, Json};
use crate::metrics::{Histogram, Metrics};

/// The static phase taxonomy. Every span names one of these; the set is
/// closed so collapsed stacks and JSON round-trip without a string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// One gossip tick: choosing a neighbor and pushing half the state.
    Tick,
    /// Handling one received frame (everything after the wait returns).
    Recv,
    /// Wire decode of a summary payload.
    Decode,
    /// Byzantine ingress screening of a decoded half.
    Screen,
    /// Merging a received half into the local classification.
    Merge,
    /// The EM reduction / merge phase of a simulated round.
    EmReduce,
    /// Wire encode of an outgoing summary.
    Encode,
    /// Handing an encoded frame to the transport (send + pending entry).
    Enqueue,
    /// Retransmitting or abandoning unacked frames.
    Retry,
    /// Building and emitting a checkpoint.
    Checkpoint,
    /// Audit probe/reply handling.
    Audit,
    /// Blocked in the transport receive wait.
    IdleWait,
}

/// Number of phases in the taxonomy.
pub const PHASE_COUNT: usize = 12;

impl Phase {
    /// Every phase, in a fixed order (`as_index` indexes into this).
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Tick,
        Phase::Recv,
        Phase::Decode,
        Phase::Screen,
        Phase::Merge,
        Phase::EmReduce,
        Phase::Encode,
        Phase::Enqueue,
        Phase::Retry,
        Phase::Checkpoint,
        Phase::Audit,
        Phase::IdleWait,
    ];

    /// The stable wire name (collapsed stacks, JSON, metric labels).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Tick => "tick",
            Phase::Recv => "recv",
            Phase::Decode => "decode",
            Phase::Screen => "screen",
            Phase::Merge => "merge",
            Phase::EmReduce => "em_reduce",
            Phase::Encode => "encode",
            Phase::Enqueue => "enqueue",
            Phase::Retry => "retry",
            Phase::Checkpoint => "checkpoint",
            Phase::Audit => "audit",
            Phase::IdleWait => "idle_wait",
        }
    }

    /// Parses a wire name back into a phase.
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.as_str() == s)
    }

    /// Dense index into [`Phase::ALL`].
    pub fn as_index(self) -> usize {
        Phase::ALL
            .iter()
            .position(|&p| p == self)
            .expect("phase is in ALL")
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One node of a thread's in-progress span tree.
struct NodeData {
    phase: Phase,
    children: Vec<usize>,
    /// Exact sum of span wall times, ns.
    total_ns: u64,
    /// Sum of the per-span µs values fed to the histograms
    /// (`Σ floor(span_ns / 1000)` — *not* `total_ns / 1000`), so registry
    /// sums reconcile exactly.
    total_us: u64,
    count: u64,
}

impl NodeData {
    fn new(phase: Phase) -> NodeData {
        NodeData {
            phase,
            children: Vec::new(),
            total_ns: 0,
            total_us: 0,
            count: 0,
        }
    }
}

struct SlotState {
    /// Indices into `nodes` of the top-level spans.
    root_children: Vec<usize>,
    nodes: Vec<NodeData>,
    /// Open-span stack (indices into `nodes`); owned thread only.
    stack: Vec<usize>,
    /// Per-phase span-duration distributions, µs (standalone, always on).
    phase_us: Vec<Option<Histogram>>,
    /// Per-phase registry handles (`distclass_phase_us`), lazily minted.
    registry_us: Vec<Option<Histogram>>,
    /// Recorded at finalize; `None` while the thread is live.
    lifetime_ns: Option<u64>,
    /// Spans still open when the thread finalized (0 on a clean exit).
    unclosed: u64,
}

/// One registered thread's shared accumulation slot.
struct ThreadSlot {
    label: String,
    started: Instant,
    state: Mutex<SlotState>,
}

impl ThreadSlot {
    fn new(label: String) -> ThreadSlot {
        ThreadSlot {
            label,
            started: Instant::now(),
            state: Mutex::new(SlotState {
                root_children: Vec::new(),
                nodes: Vec::new(),
                stack: Vec::new(),
                phase_us: vec![None; PHASE_COUNT],
                registry_us: vec![None; PHASE_COUNT],
                lifetime_ns: None,
                unclosed: 0,
            }),
        }
    }
}

/// The shared store behind enabled [`Profiler`] handles.
pub struct ProfilerCore {
    threads: Mutex<Vec<Arc<ThreadSlot>>>,
    metrics: Metrics,
}

impl Default for ProfilerCore {
    fn default() -> Self {
        ProfilerCore::new()
    }
}

impl ProfilerCore {
    /// A core that keeps its data to itself (no registry families).
    pub fn new() -> ProfilerCore {
        ProfilerCore::with_metrics(Metrics::disabled())
    }

    /// A core that additionally feeds `distclass_phase_us{thread,phase}`
    /// histogram families through `metrics`, observing the same µs value
    /// per span as the profile tree accumulates — registry sums therefore
    /// equal the tree's [`PhaseStat::total_us`] exactly.
    pub fn with_metrics(metrics: Metrics) -> ProfilerCore {
        ProfilerCore {
            threads: Mutex::new(Vec::new()),
            metrics,
        }
    }

    /// Registers a thread; labels are made unique (`peer2`, `peer2#1`,
    /// …) so respawned incarnations and registry series stay apart.
    fn register(&self, label: &str) -> Arc<ThreadSlot> {
        let mut threads = self.threads.lock().expect("profiler thread list lock");
        let taken = threads
            .iter()
            .filter(|t| t.label == label || t.label.starts_with(&format!("{label}#")))
            .count();
        let unique = if taken == 0 {
            label.to_string()
        } else {
            format!("{label}#{taken}")
        };
        let slot = Arc::new(ThreadSlot::new(unique));
        threads.push(Arc::clone(&slot));
        slot
    }

    /// A lossless point-in-time copy of every registered thread. Threads
    /// still running report their lifetime-so-far and `finalized: false`.
    pub fn snapshot(&self) -> ProfileReport {
        let threads = self.threads.lock().expect("profiler thread list lock");
        let mut out = Vec::with_capacity(threads.len());
        for slot in threads.iter() {
            let st = slot.state.lock().expect("profiler slot lock");
            let finalized = st.lifetime_ns.is_some();
            let lifetime_ns = st
                .lifetime_ns
                .unwrap_or_else(|| slot.started.elapsed().as_nanos() as u64);

            // Flatten the tree into path-keyed spans (DFS, parent first).
            let mut spans = Vec::new();
            let mut work: Vec<(usize, Vec<Phase>)> = st
                .root_children
                .iter()
                .rev()
                .map(|&i| (i, Vec::new()))
                .collect();
            while let Some((idx, prefix)) = work.pop() {
                let node = &st.nodes[idx];
                let mut path = prefix.clone();
                path.push(node.phase);
                let child_ns: u64 = node.children.iter().map(|&c| st.nodes[c].total_ns).sum();
                let child_us: u64 = node.children.iter().map(|&c| st.nodes[c].total_us).sum();
                spans.push(SpanStat {
                    path: path.clone(),
                    count: node.count,
                    total_ns: node.total_ns,
                    total_us: node.total_us,
                    self_ns: node.total_ns - child_ns,
                    self_us: node.total_us - child_us,
                });
                for &c in node.children.iter().rev() {
                    work.push((c, path.clone()));
                }
            }

            let top_total: u64 = st.root_children.iter().map(|&i| st.nodes[i].total_ns).sum();
            let idle_span_ns: u64 = st
                .root_children
                .iter()
                .filter(|&&i| st.nodes[i].phase == Phase::IdleWait)
                .map(|&i| st.nodes[i].total_ns)
                .sum();
            let residual_ns = lifetime_ns.saturating_sub(top_total);

            let phases = Phase::ALL
                .iter()
                .filter_map(|&p| {
                    let hist = st.phase_us[p.as_index()].as_ref()?;
                    let snap = hist.snapshot();
                    let (count, total_ns, total_us) = spans
                        .iter()
                        .filter(|s| *s.path.last().expect("non-empty path") == p)
                        .fold((0u64, 0u64, 0u64), |(c, n, u), s| {
                            (c + s.count, n + s.total_ns, u + s.total_us)
                        });
                    Some(PhaseStat {
                        phase: p,
                        count,
                        total_ns,
                        total_us,
                        max_us: snap.max,
                        p50_us: snap.p50(),
                        p95_us: snap.p95(),
                        p99_us: snap.p99(),
                    })
                })
                .collect();

            out.push(ThreadProfile {
                label: slot.label.clone(),
                finalized,
                lifetime_ns,
                busy_ns: top_total - idle_span_ns,
                idle_wait_ns: idle_span_ns + residual_ns,
                residual_ns,
                unclosed_spans: st.unclosed + st.stack.len() as u64,
                spans,
                phases,
            });
        }
        ProfileReport { threads: out }
    }
}

impl std::fmt::Debug for ProfilerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let threads = self.threads.lock().expect("profiler thread list lock");
        write!(f, "ProfilerCore({} threads)", threads.len())
    }
}

/// Cloneable handle to an optional [`ProfilerCore`], mirroring
/// [`Tracer`](crate::Tracer) / [`Metrics`]: `Profiler::disabled()` is the
/// default everywhere, and thread handles minted from a disabled profiler
/// never touch the clock.
#[derive(Clone, Default)]
pub struct Profiler {
    core: Option<Arc<ProfilerCore>>,
}

impl Profiler {
    /// A handle that mints no-op thread profilers.
    pub fn disabled() -> Profiler {
        Profiler { core: None }
    }

    /// A handle feeding a shared core.
    pub fn new(core: Arc<ProfilerCore>) -> Profiler {
        Profiler { core: Some(core) }
    }

    /// Whether spans actually land anywhere.
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The underlying core, when enabled.
    pub fn core(&self) -> Option<&Arc<ProfilerCore>> {
        self.core.as_ref()
    }

    /// Registers the calling thread under `label` and returns its span
    /// handle. Call once per thread (per peer incarnation); dropping the
    /// handle finalizes the thread's lifetime accounting.
    pub fn thread(&self, label: &str) -> ThreadProfiler {
        match &self.core {
            None => ThreadProfiler {
                slot: None,
                metrics: Metrics::disabled(),
            },
            Some(core) => ThreadProfiler {
                slot: Some(core.register(label)),
                metrics: core.metrics.clone(),
            },
        }
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() {
            "Profiler(enabled)"
        } else {
            "Profiler(disabled)"
        })
    }
}

/// Two handles are equal when they share a core (or both are disabled) —
/// the semantics config structs need for their `PartialEq`.
impl PartialEq for Profiler {
    fn eq(&self, other: &Self) -> bool {
        match (&self.core, &other.core) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A thread's span handle. Not `Sync` by design: one per thread, spans
/// open and close in stack order within it. Dropping it records the
/// thread's lifetime and closes the books.
pub struct ThreadProfiler {
    slot: Option<Arc<ThreadSlot>>,
    metrics: Metrics,
}

impl ThreadProfiler {
    /// A detached handle whose spans are no-ops — what a disabled
    /// [`Profiler`] mints.
    pub fn disabled() -> ThreadProfiler {
        ThreadProfiler {
            slot: None,
            metrics: Metrics::disabled(),
        }
    }

    /// Whether spans record anywhere.
    pub fn enabled(&self) -> bool {
        self.slot.is_some()
    }

    /// Opens a span; it closes (and records) when the guard drops, or
    /// earlier via [`SpanGuard::stop`]. Disabled handles return an inert
    /// guard without reading the clock.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        self.span_timed(phase, false)
    }

    /// Like [`ThreadProfiler::span`], but reads the clock even when the
    /// profiler is disabled if `time_anyway` is set — for call sites that
    /// feed an existing duration histogram from the same measurement
    /// ([`SpanGuard::stop`] then returns the elapsed ns either way).
    #[inline]
    pub fn span_timed(&self, phase: Phase, time_anyway: bool) -> SpanGuard<'_> {
        let armed = self.slot.is_some();
        if armed {
            self.enter(phase);
        }
        SpanGuard {
            prof: armed.then_some(self),
            start: (armed || time_anyway).then(Instant::now),
            phase,
            done: false,
        }
    }

    fn enter(&self, phase: Phase) {
        let slot = self.slot.as_ref().expect("enter only when armed");
        let mut st = slot.state.lock().expect("profiler slot lock");
        let parent = st.stack.last().copied();
        let siblings = match parent {
            None => &st.root_children,
            Some(p) => &st.nodes[p].children,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&c| st.nodes[c].phase == phase);
        let idx = match found {
            Some(i) => i,
            None => {
                let i = st.nodes.len();
                st.nodes.push(NodeData::new(phase));
                match parent {
                    None => st.root_children.push(i),
                    Some(p) => st.nodes[p].children.push(i),
                }
                i
            }
        };
        st.stack.push(idx);
    }

    fn exit(&self, phase: Phase, ns: u64) {
        let slot = self.slot.as_ref().expect("exit only when armed");
        let mut st = slot.state.lock().expect("profiler slot lock");
        let idx = match st.stack.pop() {
            Some(i) => i,
            // Guards drop in stack order under RAII; a miss means the
            // thread already finalized (shutdown race) — drop the sample.
            None => return,
        };
        debug_assert_eq!(
            st.nodes[idx].phase, phase,
            "span guards closed out of order"
        );
        let us = ns / 1_000;
        let node = &mut st.nodes[idx];
        node.total_ns += ns;
        node.total_us += us;
        node.count += 1;
        let pi = phase.as_index();
        st.phase_us[pi]
            .get_or_insert_with(Histogram::standalone)
            .observe(us);
        if self.metrics.enabled() {
            let (metrics, label) = (&self.metrics, slot.label.as_str());
            st.registry_us[pi]
                .get_or_insert_with(|| {
                    metrics.histogram(
                        "distclass_phase_us",
                        "Span wall time per profiler phase, µs",
                        &[("thread", label), ("phase", phase.as_str())],
                    )
                })
                .observe(us);
        }
    }
}

impl Drop for ThreadProfiler {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            let mut st = slot.state.lock().expect("profiler slot lock");
            if st.lifetime_ns.is_none() {
                st.lifetime_ns = Some(slot.started.elapsed().as_nanos() as u64);
                st.unclosed = st.stack.len() as u64;
                st.stack.clear();
            }
        }
    }
}

impl std::fmt::Debug for ThreadProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.slot {
            Some(slot) => write!(f, "ThreadProfiler({})", slot.label),
            None => f.write_str("ThreadProfiler(disabled)"),
        }
    }
}

/// An open span. Closing happens on drop; [`SpanGuard::stop`] closes
/// early and hands back the measured ns so call sites can feed existing
/// histograms from the *same* measurement.
#[must_use = "a span measures nothing unless it lives across the work"]
pub struct SpanGuard<'a> {
    prof: Option<&'a ThreadProfiler>,
    start: Option<Instant>,
    phase: Phase,
    done: bool,
}

impl SpanGuard<'_> {
    /// Closes the span now; returns the elapsed ns when the guard was
    /// timing (profiler enabled, or `time_anyway` at creation).
    pub fn stop(mut self) -> Option<u64> {
        self.close()
    }

    fn close(&mut self) -> Option<u64> {
        if self.done {
            return None;
        }
        self.done = true;
        let ns = self.start.map(|t| t.elapsed().as_nanos() as u64);
        if let Some(prof) = self.prof {
            prof.exit(self.phase, ns.unwrap_or(0));
        }
        ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// One node of a snapshotted span tree, keyed by its phase path from the
/// thread root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Phase path, outermost first (`[tick, encode]`).
    pub path: Vec<Phase>,
    /// Number of span instances.
    pub count: u64,
    /// Exact total wall time, ns.
    pub total_ns: u64,
    /// Sum of per-span µs values (what the histograms were fed).
    pub total_us: u64,
    /// `total_ns − Σ direct children total_ns`.
    pub self_ns: u64,
    /// `total_us − Σ direct children total_us`.
    pub self_us: u64,
}

/// Per-phase aggregate over a thread (all tree positions of the phase).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Span instances across all tree positions.
    pub count: u64,
    /// Exact total ns across all tree positions.
    pub total_ns: u64,
    /// Total µs as fed to `distclass_phase_us{thread,phase}` — equal to
    /// the registry family's `sum` by construction.
    pub total_us: u64,
    /// Largest single span, µs.
    pub max_us: u64,
    /// Estimated median span duration, µs.
    pub p50_us: f64,
    /// Estimated 95th-percentile span duration, µs.
    pub p95_us: f64,
    /// Estimated 99th-percentile span duration, µs.
    pub p99_us: f64,
}

/// One thread's profile: lifetime accounting plus the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile {
    /// Unique thread label (`peer3`, `peer3#1` after a respawn, …).
    pub label: String,
    /// Whether the thread's [`ThreadProfiler`] was dropped (books closed).
    pub finalized: bool,
    /// Thread wall lifetime, ns (`busy_ns + idle_wait_ns`, exactly).
    pub lifetime_ns: u64,
    /// Σ self over every node outside the top-level `idle_wait` subtree.
    pub busy_ns: u64,
    /// Top-level `idle_wait` total plus the unspanned residual.
    pub idle_wait_ns: u64,
    /// Lifetime not inside any top-level span (loop glue); included in
    /// `idle_wait_ns`, broken out so nothing hides.
    pub residual_ns: u64,
    /// Spans still open at finalize — 0 on a clean exit.
    pub unclosed_spans: u64,
    /// The span tree, flattened parent-first.
    pub spans: Vec<SpanStat>,
    /// Per-phase aggregates with duration quantiles.
    pub phases: Vec<PhaseStat>,
}

/// A lossless profiler snapshot across all registered threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// One entry per registered thread, in registration order.
    pub threads: Vec<ThreadProfile>,
}

/// One parsed collapsed-stack line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapsedStack {
    /// Thread label (first frame).
    pub thread: String,
    /// Phase path below the thread frame.
    pub path: Vec<Phase>,
    /// Self time, µs (the flamegraph sample value).
    pub self_us: u64,
}

impl ProfileReport {
    /// Everything that breaks the accounting contract, human-readable.
    /// Empty on a healthy, finalized profile. All identities are
    /// re-derived from the stored numbers, so a JSON round trip is
    /// checked as strictly as a live snapshot.
    pub fn anomalies(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.threads.is_empty() {
            out.push("profile contains no threads".to_string());
        }
        for t in &self.threads {
            let l = &t.label;
            if !t.finalized {
                out.push(format!("thread {l}: not finalized (books still open)"));
            }
            if t.unclosed_spans != 0 {
                out.push(format!(
                    "thread {l}: {} span(s) unclosed at exit",
                    t.unclosed_spans
                ));
            }
            if t.busy_ns + t.idle_wait_ns != t.lifetime_ns {
                out.push(format!(
                    "thread {l}: busy {} + idle_wait {} != lifetime {}",
                    t.busy_ns, t.idle_wait_ns, t.lifetime_ns
                ));
            }
            // Recompute each node's self time from its children.
            let mut busy_self = 0u64;
            let mut idle_self = 0u64;
            let mut seen: Vec<&[Phase]> = Vec::new();
            for s in &t.spans {
                if s.path.is_empty() {
                    out.push(format!("thread {l}: span with empty path"));
                    continue;
                }
                if seen.contains(&s.path.as_slice()) {
                    out.push(format!("thread {l}: duplicate span path {:?}", s.path));
                }
                seen.push(&s.path);
                let (child_ns, child_us) = t
                    .spans
                    .iter()
                    .filter(|c| c.path.len() == s.path.len() + 1 && c.path.starts_with(&s.path))
                    .fold((0u64, 0u64), |(n, u), c| (n + c.total_ns, u + c.total_us));
                if s.total_ns < child_ns || s.self_ns != s.total_ns - child_ns {
                    out.push(format!(
                        "thread {l}: span {:?} self_ns {} != total {} - children {}",
                        s.path, s.self_ns, s.total_ns, child_ns
                    ));
                }
                if s.total_us < child_us || s.self_us != s.total_us - child_us {
                    out.push(format!(
                        "thread {l}: span {:?} self_us {} != total {} - children {}",
                        s.path, s.self_us, s.total_us, child_us
                    ));
                }
                if s.path[0] == Phase::IdleWait {
                    idle_self += s.self_ns;
                } else {
                    busy_self += s.self_ns;
                }
            }
            if busy_self != t.busy_ns {
                out.push(format!(
                    "thread {l}: busy {} != sum of non-idle self times {}",
                    t.busy_ns, busy_self
                ));
            }
            if idle_self + t.residual_ns != t.idle_wait_ns {
                out.push(format!(
                    "thread {l}: idle_wait {} != idle self {} + residual {}",
                    t.idle_wait_ns, idle_self, t.residual_ns
                ));
            }
            // Per-phase aggregates must match the tree.
            for p in &t.phases {
                let (count, total_ns, total_us) = t
                    .spans
                    .iter()
                    .filter(|s| s.path.last() == Some(&p.phase))
                    .fold((0u64, 0u64, 0u64), |(c, n, u), s| {
                        (c + s.count, n + s.total_ns, u + s.total_us)
                    });
                if (count, total_ns, total_us) != (p.count, p.total_ns, p.total_us) {
                    out.push(format!(
                        "thread {l}: phase {} aggregate ({}, {} ns, {} us) != tree ({count}, \
                         {total_ns} ns, {total_us} us)",
                        p.phase, p.count, p.total_ns, p.total_us
                    ));
                }
            }
        }
        out
    }

    /// `true` when [`ProfileReport::anomalies`] is empty.
    pub fn clean(&self) -> bool {
        self.anomalies().is_empty()
    }

    /// The canonical collapsed stacks: one entry per tree node with
    /// positive self time, values in self-µs. The unspanned residual is
    /// folded into each thread's top-level `idle_wait` stack (creating it
    /// if the thread never blocked), so the lines sum to ≈ lifetime.
    pub fn collapsed_stacks(&self) -> Vec<CollapsedStack> {
        let mut out = Vec::new();
        for t in &self.threads {
            let thread = sanitize_frame(&t.label);
            let residual_us = t.residual_ns / 1_000;
            let mut idle_emitted = false;
            for s in &t.spans {
                let top_idle = s.path.as_slice() == [Phase::IdleWait];
                let extra = if top_idle { residual_us } else { 0 };
                if top_idle {
                    idle_emitted = true;
                }
                if s.self_us + extra > 0 {
                    out.push(CollapsedStack {
                        thread: thread.clone(),
                        path: s.path.clone(),
                        self_us: s.self_us + extra,
                    });
                }
            }
            if !idle_emitted && residual_us > 0 {
                out.push(CollapsedStack {
                    thread,
                    path: vec![Phase::IdleWait],
                    self_us: residual_us,
                });
            }
        }
        out
    }

    /// Collapsed-stack text for `inferno` / `flamegraph.pl`:
    /// `peer3;tick;encode 1234` per line.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for s in self.collapsed_stacks() {
            out.push_str(&s.thread);
            for p in &s.path {
                out.push(';');
                out.push_str(p.as_str());
            }
            out.push(' ');
            out.push_str(&s.self_us.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses collapsed-stack text back into stacks (the round-trip
    /// inverse of [`ProfileReport::to_collapsed`] over
    /// [`ProfileReport::collapsed_stacks`]).
    ///
    /// # Errors
    ///
    /// Names the line on a malformed stack, unknown phase, or bad value.
    pub fn parse_collapsed(text: &str) -> Result<Vec<CollapsedStack>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let lineno = i + 1;
            let (stack, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {lineno}: expected '<stack> <value>'"))?;
            let self_us: u64 = value
                .parse()
                .map_err(|_| format!("line {lineno}: bad value {value:?}"))?;
            let mut frames = stack.split(';');
            let thread = frames
                .next()
                .filter(|t| !t.is_empty())
                .ok_or_else(|| format!("line {lineno}: empty thread frame"))?
                .to_string();
            let path = frames
                .map(|f| {
                    Phase::parse(f).ok_or_else(|| format!("line {lineno}: unknown phase {f:?}"))
                })
                .collect::<Result<Vec<Phase>, String>>()?;
            if path.is_empty() {
                return Err(format!("line {lineno}: stack has no phase frames"));
            }
            out.push(CollapsedStack {
                thread,
                path,
                self_us,
            });
        }
        Ok(out)
    }

    /// The lossless JSON document (`distclass-prof-v1`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            field("schema", Json::Str("distclass-prof-v1".into())),
            field(
                "threads",
                Json::Arr(
                    self.threads
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                field("label", Json::Str(t.label.clone())),
                                field("finalized", Json::Bool(t.finalized)),
                                field("lifetime_ns", unum(t.lifetime_ns)),
                                field("busy_ns", unum(t.busy_ns)),
                                field("idle_wait_ns", unum(t.idle_wait_ns)),
                                field("residual_ns", unum(t.residual_ns)),
                                field("unclosed_spans", unum(t.unclosed_spans)),
                                field(
                                    "spans",
                                    Json::Arr(
                                        t.spans
                                            .iter()
                                            .map(|s| {
                                                Json::Obj(vec![
                                                    field(
                                                        "path",
                                                        Json::Arr(
                                                            s.path
                                                                .iter()
                                                                .map(|p| {
                                                                    Json::Str(p.as_str().into())
                                                                })
                                                                .collect(),
                                                        ),
                                                    ),
                                                    field("count", unum(s.count)),
                                                    field("total_ns", unum(s.total_ns)),
                                                    field("total_us", unum(s.total_us)),
                                                    field("self_ns", unum(s.self_ns)),
                                                    field("self_us", unum(s.self_us)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                field(
                                    "phases",
                                    Json::Arr(
                                        t.phases
                                            .iter()
                                            .map(|p| {
                                                Json::Obj(vec![
                                                    field(
                                                        "phase",
                                                        Json::Str(p.phase.as_str().into()),
                                                    ),
                                                    field("count", unum(p.count)),
                                                    field("total_ns", unum(p.total_ns)),
                                                    field("total_us", unum(p.total_us)),
                                                    field("max_us", unum(p.max_us)),
                                                    field("p50_us", num(p.p50_us)),
                                                    field("p95_us", num(p.p95_us)),
                                                    field("p99_us", num(p.p99_us)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a `distclass-prof-v1` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field or thread on schema
    /// mismatches, unknown phases, or malformed JSON.
    pub fn from_json(text: &str) -> Result<ProfileReport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc.req_str("schema").map_err(|e| e.to_string())?;
        if schema != "distclass-prof-v1" {
            return Err(format!("unsupported profile schema {schema:?}"));
        }
        let threads = doc
            .get("threads")
            .and_then(Json::as_array)
            .ok_or("missing threads array")?;
        let mut out = Vec::with_capacity(threads.len());
        for t in threads {
            let label = t.req_str("label").map_err(|e| e.to_string())?;
            let parse_phase = |s: &str| {
                Phase::parse(s).ok_or_else(|| format!("thread {label}: unknown phase {s:?}"))
            };
            let spans = t
                .get("spans")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("thread {label}: missing spans"))?
                .iter()
                .map(|s| {
                    let path = s
                        .get("path")
                        .and_then(Json::as_array)
                        .ok_or_else(|| format!("thread {label}: span missing path"))?
                        .iter()
                        .map(|p| {
                            p.as_str()
                                .ok_or_else(|| format!("thread {label}: non-string path frame"))
                                .and_then(parse_phase)
                        })
                        .collect::<Result<Vec<Phase>, String>>()?;
                    Ok(SpanStat {
                        path,
                        count: s.req_u64("count").map_err(|e| e.to_string())?,
                        total_ns: s.req_u64("total_ns").map_err(|e| e.to_string())?,
                        total_us: s.req_u64("total_us").map_err(|e| e.to_string())?,
                        self_ns: s.req_u64("self_ns").map_err(|e| e.to_string())?,
                        self_us: s.req_u64("self_us").map_err(|e| e.to_string())?,
                    })
                })
                .collect::<Result<Vec<SpanStat>, String>>()?;
            let phases = t
                .get("phases")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("thread {label}: missing phases"))?
                .iter()
                .map(|p| {
                    Ok(PhaseStat {
                        phase: parse_phase(&p.req_str("phase").map_err(|e| e.to_string())?)?,
                        count: p.req_u64("count").map_err(|e| e.to_string())?,
                        total_ns: p.req_u64("total_ns").map_err(|e| e.to_string())?,
                        total_us: p.req_u64("total_us").map_err(|e| e.to_string())?,
                        max_us: p.req_u64("max_us").map_err(|e| e.to_string())?,
                        p50_us: p.req_f64("p50_us").map_err(|e| e.to_string())?,
                        p95_us: p.req_f64("p95_us").map_err(|e| e.to_string())?,
                        p99_us: p.req_f64("p99_us").map_err(|e| e.to_string())?,
                    })
                })
                .collect::<Result<Vec<PhaseStat>, String>>()?;
            out.push(ThreadProfile {
                finalized: t.req_bool("finalized").map_err(|e| e.to_string())?,
                lifetime_ns: t.req_u64("lifetime_ns").map_err(|e| e.to_string())?,
                busy_ns: t.req_u64("busy_ns").map_err(|e| e.to_string())?,
                idle_wait_ns: t.req_u64("idle_wait_ns").map_err(|e| e.to_string())?,
                residual_ns: t.req_u64("residual_ns").map_err(|e| e.to_string())?,
                unclosed_spans: t.req_u64("unclosed_spans").map_err(|e| e.to_string())?,
                label,
                spans,
                phases,
            });
        }
        Ok(ProfileReport { threads: out })
    }
}

/// Collapsed-stack frames may not contain the separators.
fn sanitize_frame(s: &str) -> String {
    s.chars()
        .map(|c| if c == ';' || c == ' ' { '_' } else { c })
        .collect()
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# profile: {} thread(s)", self.threads.len())?;
        for t in &self.threads {
            let pct = if t.lifetime_ns == 0 {
                0.0
            } else {
                t.busy_ns as f64 / t.lifetime_ns as f64 * 100.0
            };
            writeln!(
                f,
                "\nthread {}: lifetime {:.3} ms, busy {:.3} ms ({pct:.1}%), idle_wait {:.3} ms \
                 (residual {:.3} ms){}",
                t.label,
                t.lifetime_ns as f64 / 1e6,
                t.busy_ns as f64 / 1e6,
                t.idle_wait_ns as f64 / 1e6,
                t.residual_ns as f64 / 1e6,
                if t.finalized { "" } else { " [live]" },
            )?;
            if !t.phases.is_empty() {
                writeln!(
                    f,
                    "  {:<12} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9}",
                    "phase", "count", "total ms", "self-share", "p50 µs", "p95 µs", "p99 µs"
                )?;
            }
            for p in &t.phases {
                let share = if t.lifetime_ns == 0 {
                    0.0
                } else {
                    p.total_ns as f64 / t.lifetime_ns as f64 * 100.0
                };
                writeln!(
                    f,
                    "  {:<12} {:>8} {:>12.3} {:>11.1}% {:>9.1} {:>9.1} {:>9.1}",
                    p.phase.as_str(),
                    p.count,
                    p.total_ns as f64 / 1e6,
                    share,
                    p.p50_us,
                    p.p95_us,
                    p.p99_us,
                )?;
            }
        }
        let anomalies = self.anomalies();
        if anomalies.is_empty() {
            writeln!(
                f,
                "\naccounting: exact (busy + idle_wait == lifetime on every thread)"
            )?;
        } else {
            writeln!(f, "\n## anomalies\n")?;
            for a in &anomalies {
                writeln!(f, "- {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricValue, MetricsRegistry};

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.as_str()), Some(p));
            assert_eq!(Phase::ALL[p.as_index()], p);
        }
        assert_eq!(Phase::parse("nonsense"), None);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        assert!(!prof.enabled());
        let t = prof.thread("peer0");
        assert!(!t.enabled());
        {
            let outer = t.span(Phase::Tick);
            let inner = t.span(Phase::Encode);
            assert_eq!(inner.stop(), None);
            drop(outer);
        }
        assert_eq!(t.span_timed(Phase::Tick, false).stop(), None);
        // time_anyway still measures, for feeding legacy histograms.
        assert!(t.span_timed(Phase::Tick, true).stop().is_some());
    }

    #[test]
    fn nested_spans_build_an_exact_tree() {
        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let t = prof.thread("peer0");
        for _ in 0..3 {
            let _tick = t.span(Phase::Tick);
            let _enc = t.span(Phase::Encode);
        }
        {
            let _idle = t.span(Phase::IdleWait);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(t);

        let report = core.snapshot();
        assert!(report.clean(), "anomalies: {:?}", report.anomalies());
        let th = &report.threads[0];
        assert_eq!(th.label, "peer0");
        assert!(th.finalized);
        assert_eq!(th.lifetime_ns, th.busy_ns + th.idle_wait_ns);

        let span = |path: &[Phase]| {
            th.spans
                .iter()
                .find(|s| s.path == path)
                .unwrap_or_else(|| panic!("span {path:?} missing"))
        };
        let tick = span(&[Phase::Tick]);
        let enc = span(&[Phase::Tick, Phase::Encode]);
        assert_eq!(tick.count, 3);
        assert_eq!(enc.count, 3);
        assert_eq!(tick.self_ns, tick.total_ns - enc.total_ns);
        assert_eq!(th.busy_ns, tick.total_ns);
        let idle = span(&[Phase::IdleWait]);
        assert!(idle.total_ns >= 2_000_000, "slept 2 ms inside idle span");
        assert_eq!(th.idle_wait_ns, idle.total_ns + th.residual_ns);
    }

    #[test]
    fn duplicate_labels_get_unique_suffixes() {
        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let a = prof.thread("peer2");
        let b = prof.thread("peer2");
        let c = prof.thread("peer2");
        drop((a, b, c));
        let labels: Vec<String> = core
            .snapshot()
            .threads
            .iter()
            .map(|t| t.label.clone())
            .collect();
        assert_eq!(labels, ["peer2", "peer2#1", "peer2#2"]);
    }

    #[test]
    fn unclosed_spans_are_an_anomaly() {
        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let t = prof.thread("peer0");
        let guard = t.span(Phase::Merge);
        std::mem::forget(guard); // simulate a span leaked across exit
        drop(t);
        let report = core.snapshot();
        assert!(!report.clean());
        assert!(report.anomalies().iter().any(|a| a.contains("unclosed")));
    }

    #[test]
    fn empty_profile_is_not_clean() {
        assert!(!ProfileReport::default().clean());
    }

    #[test]
    fn collapsed_stacks_round_trip_through_the_parser() {
        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let t = prof.thread("peer 0;x"); // hostile label gets sanitized
        {
            let _tick = t.span(Phase::Tick);
            let _m = t.span(Phase::Merge);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        {
            let _r = t.span(Phase::Retry);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        drop(t);
        let report = core.snapshot();
        let text = report.to_collapsed();
        assert!(!text.is_empty());
        let parsed = ProfileReport::parse_collapsed(&text).expect("parses");
        assert_eq!(parsed, report.collapsed_stacks());
        assert!(parsed.iter().all(|s| s.thread == "peer_0_x"));

        // Malformed inputs are named by line.
        let err = ProfileReport::parse_collapsed("peer0;warp 12").unwrap_err();
        assert!(err.contains("line 1") && err.contains("warp"), "{err}");
        assert!(ProfileReport::parse_collapsed("peer0 nope").is_err());
        assert!(ProfileReport::parse_collapsed("justonestack").is_err());
    }

    #[test]
    fn json_round_trips_and_stays_clean() {
        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let t = prof.thread("peer0");
        for _ in 0..5 {
            let tick = t.span(Phase::Tick);
            {
                let _e = t.span(Phase::Encode);
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            drop(tick);
        }
        drop(t);
        let report = core.snapshot();
        assert!(report.clean(), "anomalies: {:?}", report.anomalies());
        let text = report.to_json().to_string();
        let back = ProfileReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        assert!(back.clean());
        // Corrupting an identity is caught after the round trip.
        let mut broken = back.clone();
        broken.threads[0].busy_ns += 1;
        assert!(!broken.clean());
        // Schema gate.
        assert!(ProfileReport::from_json("{\"schema\":\"v0\"}").is_err());
    }

    #[test]
    fn registry_families_reconcile_with_the_tree() {
        let registry = Arc::new(MetricsRegistry::new());
        let core = Arc::new(ProfilerCore::with_metrics(Metrics::new(Arc::clone(
            &registry,
        ))));
        let prof = Profiler::new(Arc::clone(&core));
        let t = prof.thread("peer0");
        for _ in 0..4 {
            let _tick = t.span(Phase::Tick);
            let _m = t.span(Phase::Merge);
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        drop(t);
        let report = core.snapshot();
        let th = &report.threads[0];

        let snap = registry.snapshot();
        let fam = snap
            .families
            .iter()
            .find(|f| f.name == "distclass_phase_us")
            .expect("family exists");
        for p in &th.phases {
            let series = fam
                .series
                .iter()
                .find(|s| {
                    s.labels
                        .contains(&("phase".into(), p.phase.as_str().into()))
                        && s.labels.contains(&("thread".into(), "peer0".into()))
                })
                .unwrap_or_else(|| panic!("series for {} missing", p.phase));
            let MetricValue::Histogram(h) = &series.value else {
                panic!("not a histogram");
            };
            assert_eq!(h.count, p.count, "{} count", p.phase);
            assert_eq!(h.sum, p.total_us, "{} sum", p.phase);
        }
    }

    #[test]
    fn live_snapshot_reports_running_threads() {
        let core = Arc::new(ProfilerCore::new());
        let prof = Profiler::new(Arc::clone(&core));
        let t = prof.thread("peer0");
        {
            let _tick = t.span(Phase::Tick);
        }
        let report = core.snapshot(); // before drop: thread still live
        assert!(!report.threads[0].finalized);
        assert!(!report.clean(), "live books are open by definition");
        assert_eq!(
            report.threads[0].lifetime_ns,
            report.threads[0].busy_ns + report.threads[0].idle_wait_ns
        );
        drop(t);
        assert!(core.snapshot().clean());
    }
}
