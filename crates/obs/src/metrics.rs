//! Process-wide metrics: counters, gauges, and log-bucketed histograms.
//!
//! The registry mirrors the [`Tracer`](crate::Tracer) philosophy: every
//! instrumented call site goes through a cheap cloneable handle
//! ([`Metrics`]) that is disabled by default. A disabled handle returns
//! detached [`Counter`]/[`Gauge`]/[`Histogram`] handles whose operations
//! are a single branch — hot paths keep their uninstrumented cost unless
//! a registry is attached.
//!
//! Metrics are organized into *families*: a name, a help string, and one
//! series per distinct label set (e.g. `distclass_peer_retries_total`
//! with a `node` label). Handle creation takes the registry lock; the
//! update operations (`inc`/`add`/`set`/`observe`) are lock-free atomic
//! writes, so callers should create handles once (per peer, per link)
//! and update them in the loop.
//!
//! The [`Histogram`] uses logarithmic buckets — four per octave, i.e.
//! boundaries at `2^(i/4)` — so quantile estimates carry a bounded
//! *relative* error of one bucket (a factor of `2^(1/4) ≈ 1.19`)
//! regardless of scale, from nanoseconds to seconds. Count and sum are
//! exact; snapshots merge losslessly, which is what lets per-link
//! latency histograms from independent traces be combined.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets per octave: bucket `i` spans `(2^((i-1)/4), 2^(i/4)]`.
const SUB: usize = 4;
/// Bucket count: enough for any `u64` observation (`log2(u64::MAX) = 64`).
const NUM_BUCKETS: usize = SUB * 64 + 1;

/// What a family measures; fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Arbitrary settable `f64`.
    Gauge,
    /// Log-bucketed distribution of `u64` observations.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` token.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Canonical label set: sorted by key, so `[("a","1"),("b","2")]` and its
/// permutation name the same series.
type LabelSet = Vec<(String, String)>;

fn canonical_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>), // f64 bits
    Histogram(Arc<HistogramCore>),
}

struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<LabelSet, Cell>,
}

/// The shared store behind enabled [`Metrics`] handles.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn cell(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: MetricKind) -> Cell {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?}");
        }
        let mut families = self.families.lock().expect("metrics registry lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} registered twice with different kinds"
        );
        let cell = family
            .series
            .entry(canonical_labels(labels))
            .or_insert_with(|| match kind {
                MetricKind::Counter => Cell::Counter(Arc::new(AtomicU64::new(0))),
                MetricKind::Gauge => Cell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
                MetricKind::Histogram => Cell::Histogram(Arc::new(HistogramCore::new())),
            });
        match cell {
            Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
            Cell::Gauge(g) => Cell::Gauge(Arc::clone(g)),
            Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
        }
    }

    /// A point-in-time copy of every family and series.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self.families.lock().expect("metrics registry lock");
        RegistrySnapshot {
            families: families
                .iter()
                .map(|(name, fam)| FamilySnapshot {
                    name: name.clone(),
                    help: fam.help.clone(),
                    kind: fam.kind,
                    series: fam
                        .series
                        .iter()
                        .map(|(labels, cell)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match cell {
                                Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                                Cell::Gauge(g) => {
                                    MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                                }
                                Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().expect("metrics registry lock");
        write!(f, "MetricsRegistry({} families)", families.len())
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Cloneable handle to an optional [`MetricsRegistry`], mirroring
/// [`Tracer`](crate::Tracer): `Metrics::disabled()` is the default
/// everywhere, and handles minted from a disabled `Metrics` are no-ops.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<MetricsRegistry>>,
}

impl Metrics {
    /// A handle that mints no-op instruments.
    pub fn disabled() -> Self {
        Metrics { registry: None }
    }

    /// A handle feeding a shared registry.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        Metrics {
            registry: Some(registry),
        }
    }

    /// Whether updates actually land anywhere.
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The underlying registry, when enabled.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// A counter series; creates the family/series on first use.
    /// Takes the registry lock — mint once, update in the loop.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.registry {
            None => Counter(None),
            Some(reg) => match reg.cell(name, help, labels, MetricKind::Counter) {
                Cell::Counter(c) => Counter(Some(c)),
                _ => unreachable!("registry returned wrong cell kind"),
            },
        }
    }

    /// A gauge series; creates the family/series on first use.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.registry {
            None => Gauge(None),
            Some(reg) => match reg.cell(name, help, labels, MetricKind::Gauge) {
                Cell::Gauge(g) => Gauge(Some(g)),
                _ => unreachable!("registry returned wrong cell kind"),
            },
        }
    }

    /// A histogram series; creates the family/series on first use.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.registry {
            None => Histogram(None),
            Some(reg) => match reg.cell(name, help, labels, MetricKind::Histogram) {
                Cell::Histogram(h) => Histogram(Some(h)),
                _ => unreachable!("registry returned wrong cell kind"),
            },
        }
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() {
            "Metrics(enabled)"
        } else {
            "Metrics(disabled)"
        })
    }
}

/// Two handles are equal when they share the same registry (or both are
/// disabled) — the semantics config structs need for their `PartialEq`.
impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        match (&self.registry, &other.registry) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A monotonically increasing counter handle. No-op when minted from a
/// disabled [`Metrics`].
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A settable gauge handle. No-op when minted from a disabled [`Metrics`].
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(g) = &self.0 {
            g.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// A log-bucketed histogram handle. No-op when minted from a disabled
/// [`Metrics`].
#[derive(Clone)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// An enabled histogram not attached to any registry — for offline
    /// aggregation (trace analysis) that wants the same bucketing.
    pub fn standalone() -> Self {
        Histogram(Some(Arc::new(HistogramCore::new())))
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.observe(value);
        }
    }

    /// A copy of the current distribution (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |h| h.snapshot())
    }
}

/// Lock-free histogram storage: one atomic counter per log bucket plus
/// exact count/sum and the largest observation.
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: (self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
                .enumerate()
                .filter(|&(_, b)| b > 0)
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Bucket index for a value: 0 for `value <= 1`, else `ceil(SUB·log2 v)`.
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    let idx = ((value as f64).log2() * SUB as f64).ceil() as usize;
    idx.min(NUM_BUCKETS - 1)
}

/// Upper bound of bucket `i`: `2^(i/SUB)`.
pub fn bucket_upper_bound(i: usize) -> f64 {
    2f64.powf(i as f64 / SUB as f64)
}

/// The multiplicative width of one bucket — the bound on a quantile
/// estimate's relative error (`2^(1/4) ≈ 1.19`).
pub fn bucket_ratio() -> f64 {
    2f64.powf(1.0 / SUB as f64)
}

/// A point-in-time copy of a histogram; merges losslessly with others.
///
/// It is also a plain accumulator ([`HistogramSnapshot::observe`]) for
/// offline replays that fold many small distributions, one per link.
/// Only non-empty buckets are stored, so one observation costs one pair,
/// not a dense array of every bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(i, count)` for every non-empty bucket `i`, ascending by `i`
    /// (`bucket_upper_bound(i)` bounds).
    pub buckets: Vec<(usize, u64)>,
    /// Exact number of observations.
    pub count: u64,
    /// Exact (saturating) sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// A snapshot with no observations.
    pub fn empty() -> Self {
        HistogramSnapshot::default()
    }

    /// Records one observation, bucketed as [`Histogram::observe`] does.
    pub fn observe(&mut self, value: u64) {
        self.add(bucket_index(value), 1);
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    fn add(&mut self, i: usize, n: u64) {
        match self.buckets.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => self.buckets.insert(at, (i, n)),
        }
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(i, n) in &other.buckets {
            self.add(i, n);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean observation, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 < q <= 1`): locates the bucket holding
    /// the rank-`ceil(q·count)` observation and interpolates the rank's
    /// position in *log space* between the bucket's bounds (log-bucketed
    /// histograms are uniform in `log2 v`, so geometric interpolation is
    /// the natural estimator). The result is capped at the exact max.
    /// `0.0` when empty. Relative error stays bounded by one bucket width
    /// ([`bucket_ratio`]); interpolation removes the systematic
    /// round-up-to-the-bound bias of the raw bucket estimate.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, b) in &self.buckets {
            if cum + b >= target {
                // Bucket 0 holds v <= 1: nothing to interpolate across.
                if i == 0 {
                    return (self.max as f64).min(1.0);
                }
                let upper = bucket_upper_bound(i);
                let lower = bucket_upper_bound(i - 1);
                let frac = (target - cum) as f64 / b as f64;
                let est = lower * (upper / lower).powf(frac);
                return est.min(self.max as f64).max(0.0);
            }
            cum += b;
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// One labeled series inside a [`FamilySnapshot`].
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Sorted label pairs identifying the series.
    pub labels: Vec<(String, String)>,
    /// The series' value at snapshot time.
    pub value: MetricValue,
}

/// A snapshot value, by family kind.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One metric family: name, help, kind, and all labeled series.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Family name (valid Prometheus metric name).
    pub name: String,
    /// Help string.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// All series, in canonical label order.
    pub series: Vec<SeriesSnapshot>,
}

/// Everything a registry held at snapshot time, ready for exposition.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Families in name order.
    pub families: Vec<FamilySnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_handles_are_noops() {
        let m = Metrics::disabled();
        assert!(!m.enabled());
        let c = m.counter("x_total", "x", &[]);
        let g = m.gauge("g", "g", &[]);
        let h = m.histogram("h", "h", &[]);
        c.inc();
        g.set(4.0);
        h.observe(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn labeled_families_keep_series_apart() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = Metrics::new(Arc::clone(&reg));
        m.counter("msgs_total", "messages", &[("node", "0")]).add(3);
        m.counter("msgs_total", "messages", &[("node", "1")]).add(5);
        // Same series regardless of label order.
        m.counter("dual_total", "d", &[("a", "1"), ("b", "2")])
            .inc();
        m.counter("dual_total", "d", &[("b", "2"), ("a", "1")])
            .inc();

        let snap = reg.snapshot();
        let msgs = snap
            .families
            .iter()
            .find(|f| f.name == "msgs_total")
            .expect("family exists");
        assert_eq!(msgs.series.len(), 2);
        let dual = snap
            .families
            .iter()
            .find(|f| f.name == "dual_total")
            .expect("family exists");
        assert_eq!(dual.series.len(), 1);
        match &dual.series[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 2),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_conflict_panics() {
        let m = Metrics::new(Arc::new(MetricsRegistry::new()));
        m.counter("thing", "t", &[]);
        m.gauge("thing", "t", &[]);
    }

    #[test]
    fn counter_is_accurate_under_concurrency() {
        let reg = Arc::new(MetricsRegistry::new());
        let m = Metrics::new(Arc::clone(&reg));
        let c = m.counter("hits_total", "hits", &[]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panic");
        }
        assert_eq!(c.get(), 80_000);
    }

    /// Acceptance criterion: quantile estimates against the exact
    /// quantiles of a known distribution stay within one bucket's
    /// relative error.
    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact() {
        let h = Histogram::standalone();
        // A known skewed distribution: v = i^2 for i in 1..=2000.
        let mut values: Vec<u64> = (1..=2000u64).map(|i| i * i).collect();
        for &v in &values {
            h.observe(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, 2000);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        assert_eq!(snap.max, 2000 * 2000);

        // One bucket of relative error, plus one bucket of slack for
        // rank rounding at bucket boundaries.
        let tol = bucket_ratio() * bucket_ratio();
        for q in [0.50, 0.90, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let est = snap.quantile(q);
            let ratio = est / exact;
            assert!(
                (1.0 / tol..=tol).contains(&ratio),
                "q={q}: est {est} vs exact {exact} (ratio {ratio}, tol {tol})"
            );
        }
        assert!((snap.mean() - values.iter().sum::<u64>() as f64 / 2000.0).abs() < 1e-9);
    }

    /// Interpolated estimates stay inside the rank's bucket — never
    /// above its upper bound (the old estimator's constant answer) or
    /// below its lower bound — and never exceed the exact max.
    #[test]
    fn quantile_interpolation_stays_within_the_bucket() {
        let h = Histogram::standalone();
        let values: Vec<u64> = (1..=500u64).map(|i| i * 7 + 3).collect();
        for &v in &values {
            h.observe(v);
        }
        let snap = h.snapshot();
        for q in [0.25, 0.50, 0.90, 0.95, 0.99] {
            let est = snap.quantile(q);
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let i = bucket_index(exact);
            assert!(
                est <= bucket_upper_bound(i) + 1e-9,
                "q={q}: est {est} above bucket bound"
            );
            assert!(
                i == 0 || est >= bucket_upper_bound(i - 1) - 1e-9,
                "q={q}: est {est} below bucket floor"
            );
            assert!(est <= snap.max as f64);
        }
        assert!((snap.quantile(1.0) - snap.max as f64).abs() < 1e-9 * snap.max as f64);
        assert!(snap.p95() >= snap.p50());
        // Degenerate shapes.
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0.0);
        let ones = Histogram::standalone();
        ones.observe(0);
        ones.observe(1);
        assert!(ones.snapshot().p50() <= 1.0);
    }

    #[test]
    fn histogram_snapshots_merge_losslessly() {
        let a = Histogram::standalone();
        let b = Histogram::standalone();
        let all = Histogram::standalone();
        for v in 1..=1000u64 {
            if v % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        let mut prev = 0;
        for v in [2u64, 3, 4, 100, 1 << 20, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index must not decrease");
            assert!(i < NUM_BUCKETS);
            assert!(bucket_upper_bound(i) >= v as f64 * 0.999_999);
            prev = i;
        }
    }
}
