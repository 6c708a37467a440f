//! The traced run's instruments: wrappers around each layer's public
//! interface, owned by the benchmark. Each one delegates to the wrapped
//! layer and records call counts and durations on the way through; none
//! of them exists in an end-to-end run.

use std::collections::HashSet;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use distclass_core::{Classification, Instance};
use distclass_net::NodeId;
use distclass_obs::{TraceEvent, TraceSink};
use distclass_runtime::frame::{decode_frame, FrameKind};
use distclass_runtime::{EndpointNet, Transport};

use crate::measure::ns_since;

/// What the `Instance` wrapper saw.
#[derive(Debug, Default, Clone)]
pub struct CoreLog {
    /// Duration of each `partition` call, ns.
    pub partition_ns: Vec<u64>,
    /// Σ collections handed to `partition`.
    pub partition_inputs: u64,
    /// `partition` calls given more than `k` collections (the ones that
    /// must reduce).
    pub reducing: u64,
    /// `merge_set` calls made by the node (not those made inside
    /// `partition`, which the wrapped instance makes on itself).
    pub merge_calls: u64,
    /// Σ `merge_set` duration, ns.
    pub merge_ns: u64,
}

impl CoreLog {
    /// Σ `partition` duration, ns.
    pub fn partition_total_ns(&self) -> u64 {
        self.partition_ns.iter().sum()
    }
}

/// An [`Instance`] that times `partition` and `merge_set` of the instance
/// it wraps and delegates everything else.
#[derive(Debug)]
pub struct TimedInstance<I> {
    inner: I,
    log: Mutex<CoreLog>,
}

impl<I> TimedInstance<I> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: I) -> Self {
        TimedInstance {
            inner,
            log: Mutex::new(CoreLog::default()),
        }
    }

    /// Returns the log gathered so far and starts a fresh one.
    pub fn take_log(&self) -> CoreLog {
        std::mem::take(&mut *self.log.lock().expect("core log poisoned"))
    }
}

impl<I: Instance> Instance for TimedInstance<I> {
    type Value = I::Value;
    type Summary = I::Summary;

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn val_to_summary(&self, val: &I::Value) -> I::Summary {
        self.inner.val_to_summary(val)
    }

    fn merge_set(&self, parts: &[(&I::Summary, f64)]) -> I::Summary {
        let t0 = Instant::now();
        let merged = self.inner.merge_set(parts);
        let ns = ns_since(t0);
        let mut log = self.log.lock().expect("core log poisoned");
        log.merge_calls += 1;
        log.merge_ns += ns;
        merged
    }

    fn partition(&self, big: &Classification<I::Summary>) -> Vec<Vec<usize>> {
        let t0 = Instant::now();
        let groups = self.inner.partition(big);
        let ns = ns_since(t0);
        let mut log = self.log.lock().expect("core log poisoned");
        log.partition_ns.push(ns);
        log.partition_inputs += big.len() as u64;
        log.reducing += u64::from(big.len() > self.inner.k());
        groups
    }

    fn summary_distance(&self, a: &I::Summary, b: &I::Summary) -> f64 {
        self.inner.summary_distance(a, b)
    }

    fn value_from_components(&self, components: &[f64]) -> Option<I::Value> {
        self.inner.value_from_components(components)
    }
}

/// What the transport wrappers of one cluster saw.
#[derive(Debug, Default, Clone)]
pub struct NetLog {
    /// Duration of each `send`, ns.
    pub send_ns: Vec<u64>,
    /// `recv_timeout` calls.
    pub recv_calls: u64,
    /// `recv_timeout` calls that returned a frame.
    pub recv_hits: u64,
    /// Σ time spent inside `recv_timeout`, ns.
    pub recv_wait_ns: u64,
    /// Data frames sent.
    pub data: u64,
    /// Ack frames sent.
    pub ack: u64,
    /// Other frames sent (audit, join, handoff).
    pub other: u64,
    /// Data frames sent again under an identity already sent.
    pub retries: u64,
    /// Data frames received.
    pub data_received: u64,
    /// Data frames received again under an identity already received.
    pub dups: u64,
    sent_ids: HashSet<(u16, u16, u64)>,
    received_ids: HashSet<(NodeId, u16, u16, u64)>,
}

/// An [`EndpointNet`] whose endpoints are [`TimedTransport`]s sharing one
/// [`NetLog`].
#[derive(Debug)]
pub struct TimedNet<N> {
    inner: N,
    log: Arc<Mutex<NetLog>>,
}

impl<N> TimedNet<N> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: N, log: Arc<Mutex<NetLog>>) -> Self {
        TimedNet { inner, log }
    }
}

impl<N: EndpointNet> EndpointNet for TimedNet<N> {
    type T = TimedTransport<N::T>;

    fn endpoint(&mut self, id: NodeId, incarnation: u16) -> io::Result<Self::T> {
        Ok(TimedTransport {
            id,
            inner: self.inner.endpoint(id, incarnation)?,
            log: Arc::clone(&self.log),
        })
    }
}

/// A [`Transport`] that times sends and receive waits and classifies
/// every frame with the public frame decoder.
#[derive(Debug)]
pub struct TimedTransport<T> {
    id: NodeId,
    inner: T,
    log: Arc<Mutex<NetLog>>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let result = self.inner.send(to, frame);
        let ns = ns_since(t0);
        let mut log = self.log.lock().expect("net log poisoned");
        log.send_ns.push(ns);
        match decode_frame(frame) {
            Ok(f) if f.kind == FrameKind::Data => {
                log.data += 1;
                if !log.sent_ids.insert((f.sender, f.incarnation, f.seq)) {
                    log.retries += 1;
                }
            }
            Ok(f) if f.kind == FrameKind::Ack => log.ack += 1,
            _ => log.other += 1,
        }
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        let ns = ns_since(t0);
        let mut log = self.log.lock().expect("net log poisoned");
        log.recv_calls += 1;
        log.recv_wait_ns += ns;
        if let Ok(Some(frame)) = &got {
            log.recv_hits += 1;
            if let Ok(f) = decode_frame(frame) {
                if f.kind == FrameKind::Data {
                    log.data_received += 1;
                    if !log
                        .received_ids
                        .insert((self.id, f.sender, f.incarnation, f.seq))
                    {
                        log.dups += 1;
                    }
                }
            }
        }
        got
    }
}

/// A [`TraceSink`] that times every `record` of the sink it wraps.
pub struct TimedSink<S> {
    inner: S,
    record_ns: Mutex<Vec<u64>>,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            record_ns: Mutex::new(Vec::new()),
        }
    }

    /// Duration of each `record`, ns.
    pub fn record_ns(&self) -> Vec<u64> {
        self.record_ns.lock().expect("sink log poisoned").clone()
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&self, event: &TraceEvent) {
        let t0 = Instant::now();
        self.inner.record(event);
        let ns = ns_since(t0);
        self.record_ns.lock().expect("sink log poisoned").push(ns);
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
}
