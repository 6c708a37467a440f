#![warn(missing_docs)]
//! Structured observability for the distclass stack.
//!
//! The paper's evidence (Figures 2–4) is a set of *trajectories* — error
//! per round, weight distribution, live-node counts under churn — but the
//! engines and runtime historically exposed only end-of-run counter
//! totals. This crate supplies the missing layer, with no dependencies so
//! every other crate can use it without cycles:
//!
//! - [`TraceEvent`]: one typed event model covering rounds/ticks, message
//!   fate, fault activation/healing, peer crash/restart/checkpoint, and
//!   grain movements (split/merge/return) with voiding — enough to replay
//!   the grain-conservation ledger from a trace alone.
//! - [`TraceSink`] with three implementations: [`NullSink`] (benchmark
//!   control), [`RingSink`] (in-memory, tests and tooling), and
//!   [`JsonlSink`] (one JSON object per line, for external tooling).
//! - [`Tracer`]: a cloneable handle holding an optional shared sink.
//!   `Tracer::disabled()` costs one branch per call site and never builds
//!   the event, keeping hot paths at their untraced cost.
//! - [`TelemetrySample`]/[`TelemetrySeries`]: the per-round convergence
//!   measurements (classification sizes, error vs. ground truth, weight
//!   spread, dispersion) the experiments consume.
//! - [`json`]: the minimal JSON reader/writer behind the reports, the
//!   profiler and the console (the workspace has no serde), and the
//!   scanner the trace codec reads lines with.

//! - [`metrics`]: the aggregate side — a [`MetricsRegistry`] of counters,
//!   gauges, and mergeable log-bucketed histograms behind the same
//!   zero-cost-when-disabled handle pattern ([`Metrics`]).
//! - [`prom`]: Prometheus text-format exposition of a registry snapshot,
//!   plus a minimal routed std-only HTTP server ([`prom::HttpServer`])
//!   behind the live console's `/metrics` endpoint.
//! - [`live`]: the live operations console — a [`LiveAggregator`] tees
//!   off the trace stream and [`LiveConsole`] serves the dashboard,
//!   `/snapshot.json` and the `/events` long-poll while the run is
//!   still going.
//! - [`analyze`]: offline trace analysis — replays a JSONL trace into a
//!   [`TraceReport`] with per-link latency, fault windows, per-peer grain
//!   ledgers, convergence detection, and anomaly flags.
//! - [`causal`]: happens-before reconstruction — rebuilds the causal DAG
//!   from Lamport/span stamps into a [`CausalReport`] with the
//!   convergence critical path, exact grain provenance, and the
//!   influence matrix.
//! - [`byz`]: Byzantine-defense analysis — replays a trace into a
//!   [`ByzReport`] with detection/false-positive rates, mean detection
//!   tick, audit bandwidth overhead, and reconciliation against the
//!   grain auditor's minted-weight measurement.
//! - [`prof`]: the hierarchical phase profiler — RAII [`SpanGuard`]s over
//!   a static [`Phase`] taxonomy accumulate exact per-thread self/total
//!   time trees behind a zero-cost [`Profiler`] handle, snapshotted into
//!   a [`ProfileReport`] whose accounting identities (`busy == Σ self`,
//!   `busy + idle_wait == lifetime`) hold exactly; exports collapsed
//!   stacks for flamegraphs, JSON, and `distclass_phase_us` registry
//!   families.

pub mod analyze;
pub mod byz;
pub mod causal;
pub mod dynrep;
pub mod event;
pub mod json;
pub mod live;
pub mod metrics;
pub mod prof;
pub mod prom;
pub mod sink;
pub mod telemetry;

pub use analyze::{AnalyzeOptions, Anomaly, TraceReport};
pub use byz::{ByzAnomaly, ByzReport};
pub use causal::{
    CausalAnomaly, CausalReport, CriticalHop, CriticalPath, InfluenceMatrix, NodeProvenance, SpanId,
};
pub use dynrep::{ChurnRecord, DynAnomaly, DynOptions, DynReport, Staleness};
pub use event::{read_jsonl, DropReason, Fold, GrainOp, TraceEvent};
pub use json::{Json, JsonError};
pub use live::{Health, LiveAggregator, LiveConsole};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricValue, Metrics,
    MetricsRegistry, RegistrySnapshot,
};
pub use prof::{
    CollapsedStack, Phase, PhaseStat, ProfileReport, Profiler, ProfilerCore, SpanGuard, SpanStat,
    ThreadProfile, ThreadProfiler,
};
pub use sink::{JsonlSink, NullSink, RingSink, TeeSink, TraceSink, Tracer};
pub use telemetry::{Episode, TelemetrySample, TelemetrySeries};
