//! Trace sinks and the cheap-to-pass-around [`Tracer`] handle.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// Where trace events go. Implementations must tolerate concurrent
/// `record` calls — the runtime hands one sink to every peer thread.
pub trait TraceSink: Send + Sync {
    /// Consumes one event. Must not panic; sinks that can fail (I/O)
    /// should swallow errors and surface them via [`TraceSink::flush`].
    fn record(&self, event: &TraceEvent);

    /// Flushes buffered output. The default is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the first deferred I/O error, if any.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event. Exists so "tracing disabled" and "tracing
/// enabled with a throwaway sink" can be benchmarked separately.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}
}

/// Keeps the last `capacity` events in memory — the in-process sink for
/// tests and post-hoc inspection without touching the filesystem.
#[derive(Debug)]
pub struct RingSink {
    buf: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` events (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring sink needs room for at least one event");
        RingSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf
            .lock()
            .expect("ring sink lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring sink lock").len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring sink lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Writes one JSON object per line to a file (JSONL). I/O errors after
/// creation are deferred: `record` swallows them, `flush` reports the
/// first one.
///
/// With [`JsonlSink::with_cap`] the file stops growing at the cap:
/// dropping *old* events would silently rewrite history, so instead the
/// sink stops recording, appends one final
/// [`TraceEvent::TraceTruncated`] marker, and ignores everything after.
pub struct JsonlSink {
    inner: Mutex<JsonlInner>,
}

struct JsonlInner {
    out: BufWriter<File>,
    /// The line being written, kept so that its buffer is reused.
    line: String,
    deferred: Option<io::Error>,
    /// Bytes written so far (including the truncation marker).
    written: u64,
    /// Stop recording once `written` would exceed this.
    cap: Option<u64>,
    /// Whether the truncation marker has been written.
    truncated: bool,
}

impl JsonlSink {
    /// Creates (truncating) the trace file, with no size cap.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::new(path, None)
    }

    /// Creates (truncating) the trace file with a maximum size of
    /// `max_bytes`. Once writing the next event would push the file past
    /// the cap, the sink records a single `trace_truncated` event and
    /// drops everything after it — the prefix already on disk is never
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn with_cap(path: impl AsRef<Path>, max_bytes: u64) -> io::Result<Self> {
        Self::new(path, Some(max_bytes))
    }

    fn new(path: impl AsRef<Path>, cap: Option<u64>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            inner: Mutex::new(JsonlInner {
                out: BufWriter::new(file),
                line: String::new(),
                deferred: None,
                written: 0,
                cap,
                truncated: false,
            }),
        })
    }

    /// Whether the size cap fired and the trace is missing its tail.
    pub fn truncated(&self) -> bool {
        self.inner.lock().expect("jsonl sink lock").truncated
    }
}

impl JsonlInner {
    /// Puts `event`'s line, newline included, in the line buffer.
    fn set_line(&mut self, event: &TraceEvent) {
        self.line.clear();
        // Writing into a `String` cannot fail.
        let _ = event.encode(&mut self.line);
        self.line.push('\n');
    }

    fn write_line(&mut self) {
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += self.line.len() as u64,
            Err(e) => self.deferred = Some(e),
        }
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let mut inner = self.inner.lock().expect("jsonl sink lock");
        if inner.deferred.is_some() || inner.truncated {
            return;
        }
        inner.set_line(event);
        if let Some(cap) = inner.cap {
            if inner.written + inner.line.len() as u64 > cap {
                inner.truncated = true;
                let marker = TraceEvent::TraceTruncated {
                    bytes_written: inner.written,
                };
                inner.set_line(&marker);
            }
        }
        inner.write_line();
    }

    fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("jsonl sink lock");
        if let Some(e) = inner.deferred.take() {
            return Err(e);
        }
        inner.out.flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Fans every event out to two sinks — how the live console taps the
/// trace stream without disturbing the JSONL file a run was asked to
/// write.
pub struct TeeSink {
    a: Arc<dyn TraceSink>,
    b: Arc<dyn TraceSink>,
}

impl TeeSink {
    /// A sink recording into both `a` and `b`, in that order.
    pub fn new(a: Arc<dyn TraceSink>, b: Arc<dyn TraceSink>) -> Self {
        TeeSink { a, b }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: &TraceEvent) {
        self.a.record(event);
        self.b.record(event);
    }

    fn flush(&self) -> io::Result<()> {
        let first = self.a.flush();
        let second = self.b.flush();
        first.and(second)
    }
}

/// A shareable handle to an optional sink.
///
/// `Tracer::disabled()` is the default everywhere; in that state
/// [`Tracer::emit`] is a single branch and the event-building closure is
/// never called, so hot paths stay at their untraced cost.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Tracer {
    /// A tracer that drops everything without constructing events.
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer feeding an existing shared sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Wraps a concrete sink (convenience for `Tracer::new(Arc::new(s))`).
    pub fn to_sink(sink: impl TraceSink + 'static) -> Self {
        Tracer {
            sink: Some(Arc::new(sink)),
        }
    }

    /// Whether events will actually be recorded.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A tracer that records into this tracer's sink *and* `extra`. When
    /// this tracer is disabled the result records into `extra` alone —
    /// attaching a live console never silently disables it.
    pub fn tee(&self, extra: Arc<dyn TraceSink>) -> Tracer {
        match &self.sink {
            Some(sink) => Tracer::to_sink(TeeSink::new(Arc::clone(sink), extra)),
            None => Tracer::new(extra),
        }
    }

    /// Records the event built by `build` — which runs only when a sink
    /// is attached.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&build());
        }
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's deferred or flush-time I/O error.
    pub fn flush(&self) -> io::Result<()> {
        match &self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() {
            "Tracer(enabled)"
        } else {
            "Tracer(disabled)"
        })
    }
}

/// Two tracers are equal when they share the same sink (or both are
/// disabled) — the semantics config structs need for their `PartialEq`.
impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        match (&self.sink, &other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(node: usize) -> TraceEvent {
        TraceEvent::TickCompleted {
            node,
            time: node as f64,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::disabled();
        let mut built = false;
        tracer.emit(|| {
            built = true;
            tick(0)
        });
        assert!(!built);
        assert!(!tracer.enabled());
        tracer.flush().expect("no-op flush");
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let sink = Arc::new(RingSink::new(3));
        let tracer = Tracer::new(sink.clone());
        for node in 0..5 {
            tracer.emit(|| tick(node));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], tick(2));
        assert_eq!(events[2], tick(4));
    }

    /// Overflow semantics: far past capacity, exactly the newest
    /// `capacity` events survive, in order.
    #[test]
    fn ring_sink_overflow_keeps_exactly_the_newest() {
        const CAP: usize = 64;
        const TOTAL: usize = 10 * CAP + 17;
        let sink = RingSink::new(CAP);
        for node in 0..TOTAL {
            sink.record(&tick(node));
        }
        assert_eq!(sink.len(), CAP, "capacity respected");
        let events = sink.events();
        let expected: Vec<_> = (TOTAL - CAP..TOTAL).map(tick).collect();
        assert_eq!(events, expected, "oldest dropped, order preserved");
    }

    /// Concurrent `record` calls never exceed capacity, lose nothing to
    /// corruption, and every retained event is one that was recorded.
    #[test]
    fn ring_sink_overflow_under_concurrent_records() {
        const CAP: usize = 128;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let sink = Arc::new(RingSink::new(CAP));
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Distinct ids per thread so retained events are
                        // attributable.
                        sink.record(&tick(t * PER_THREAD + i));
                        if sink.len() > CAP {
                            panic!("capacity exceeded mid-run");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panic");
        }
        let events = sink.events();
        assert_eq!(events.len(), CAP, "full ring after heavy overflow");
        for ev in &events {
            let TraceEvent::TickCompleted { node, .. } = ev else {
                panic!("foreign event in ring");
            };
            assert!(*node < THREADS * PER_THREAD);
        }
        // Per-thread order is preserved among retained events.
        for t in 0..THREADS {
            let ids: Vec<_> = events
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::TickCompleted { node, .. } if node / PER_THREAD == t => Some(*node),
                    _ => None,
                })
                .collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "thread {t} events out of order"
            );
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!("obs_sink_test_{}.jsonl", std::process::id()));
        {
            let tracer = Tracer::to_sink(JsonlSink::create(&path).expect("create"));
            tracer.emit(|| tick(1));
            tracer.emit(|| tick(2));
            tracer.flush().expect("flush");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(TraceEvent::from_json(lines[0]).expect("parses"), tick(1));
        assert_eq!(TraceEvent::from_json(lines[1]).expect("parses"), tick(2));
        std::fs::remove_file(&path).ok();
    }

    /// The size cap stops the file from growing: the prefix survives
    /// intact, a single `trace_truncated` marker closes the file, and
    /// nothing recorded afterwards appears.
    #[test]
    fn jsonl_sink_cap_truncates_with_marker_not_drop_oldest() {
        let path =
            std::env::temp_dir().join(format!("obs_sink_cap_test_{}.jsonl", std::process::id()));
        let one_line = tick(0).to_string().len() as u64 + 1;
        let cap = one_line * 3 + 10; // room for 3 events, not 4
        {
            let sink = JsonlSink::with_cap(&path, cap).expect("create");
            for node in 0..50 {
                sink.record(&tick(node));
            }
            assert!(sink.truncated(), "cap must have fired");
            sink.flush().expect("flush");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.len() as u64 <= cap + 2 * one_line, "file kept growing");
        let events: Vec<_> = text
            .lines()
            .map(|l| TraceEvent::from_json(l).expect("parses"))
            .collect();
        // Oldest events survive, newest are gone (never drop-oldest).
        assert_eq!(events[0], tick(0));
        assert_eq!(events[1], tick(1));
        let last = events.last().expect("nonempty");
        let TraceEvent::TraceTruncated { bytes_written } = last else {
            panic!("file must end with the truncation marker, got {last}");
        };
        assert_eq!(*bytes_written, (events.len() as u64 - 1) * one_line);
        for ev in &events[..events.len() - 1] {
            assert!(matches!(ev, TraceEvent::TickCompleted { .. }));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_without_cap_never_truncates() {
        let path =
            std::env::temp_dir().join(format!("obs_sink_nocap_test_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("create");
            for node in 0..200 {
                sink.record(&tick(node));
            }
            assert!(!sink.truncated());
            sink.flush().expect("flush");
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tee_records_into_both_sinks_and_survives_a_disabled_base() {
        let file_side = Arc::new(RingSink::new(8));
        let live_side = Arc::new(RingSink::new(8));
        let base = Tracer::new(file_side.clone());
        let teed = base.tee(live_side.clone());
        teed.emit(|| tick(1));
        assert_eq!(file_side.events(), vec![tick(1)]);
        assert_eq!(live_side.events(), vec![tick(1)]);

        let live_only = Arc::new(RingSink::new(8));
        let from_disabled = Tracer::disabled().tee(live_only.clone());
        assert!(from_disabled.enabled());
        from_disabled.emit(|| tick(2));
        assert_eq!(live_only.events(), vec![tick(2)]);
        from_disabled.flush().expect("flush tee");
    }

    #[test]
    fn tee_preserves_event_order_in_both_sinks() {
        let file_side = Arc::new(RingSink::new(256));
        let live_side = Arc::new(RingSink::new(256));
        let teed = Tracer::new(file_side.clone()).tee(live_side.clone());
        let expected: Vec<TraceEvent> = (0..100).map(tick).collect();
        for e in &expected {
            let e = e.clone();
            teed.emit(move || e);
        }
        assert_eq!(file_side.events(), expected, "file side in emission order");
        assert_eq!(live_side.events(), expected, "live side in emission order");
    }

    #[test]
    fn tracer_equality_is_sink_identity() {
        let sink: Arc<dyn TraceSink> = Arc::new(NullSink);
        let a = Tracer::new(sink.clone());
        let b = Tracer::new(sink);
        let c = Tracer::to_sink(NullSink);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(Tracer::disabled(), Tracer::default());
    }
}
