//! The lock-sharded metrics registry and its three instrument kinds.
//!
//! Handles are registered by static name + label set and cached by the
//! caller (an `Arc` clone), so the hot path of every instrument is a single
//! relaxed atomic RMW — no lock, no hash lookup, no allocation. The shard
//! locks are only taken at registration and snapshot time.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Number of histogram buckets, including the final `+Inf` overflow bucket.
///
/// Bucket 0 holds the value 0; bucket `i` (for `1 ≤ i < HISTOGRAM_BUCKETS-1`)
/// holds values in `[2^(i-1), 2^i - 1]`; the last bucket holds everything
/// larger. With nanosecond values the largest finite boundary is
/// `2^38 - 1 ns` ≈ 4.6 minutes, ample for per-stage and per-request timings.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-boundary log₂-bucket histogram of `u64` observations.
///
/// Recording is two relaxed `fetch_add`s: one on the bucket selected by the
/// observation's bit length, one on the running sum. The observation count
/// is derived from the buckets, so there is no third atomic to keep in sync.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-repeat seed, never read
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram { buckets: [ZERO; HISTOGRAM_BUCKETS], sum: AtomicU64::new(0) }
    }

    /// The bucket index an observation falls into: its bit length, clamped
    /// to the overflow bucket.
    fn index(value: u64) -> usize {
        let bits = (64 - value.leading_zeros()) as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of observations (sum over all buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) observation counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// The inclusive upper bound of bucket `i`, or `None` for the final
    /// `+Inf` bucket.
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i + 1 < HISTOGRAM_BUCKETS {
            Some((1u64 << i) - 1)
        } else {
            None
        }
    }
}

/// The kind of a registered metric, for exposition (`# TYPE`) and JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricType {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log₂-bucket histogram.
    Histogram,
}

impl MetricType {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> MetricType {
        match self {
            Metric::Counter(_) => MetricType::Counter,
            Metric::Gauge(_) => MetricType::Gauge,
            Metric::Histogram(_) => MetricType::Histogram,
        }
    }
}

/// A point-in-time reading of one metric (one name + label combination).
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Metric name (e.g. `maimon_request_duration_ns`).
    pub name: &'static str,
    /// Label pairs, in registration order.
    pub labels: Vec<(&'static str, String)>,
    /// The metric's kind.
    pub kind: MetricType,
    /// Help text registered for the name (empty if none).
    pub help: &'static str,
    /// The reading itself.
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram reading: per-bucket counts (non-cumulative, last bucket is
    /// `+Inf`), the sum of observations, and the total count.
    Histogram {
        /// Non-cumulative per-bucket counts.
        buckets: Vec<u64>,
        /// Sum of all observed values.
        sum: u64,
        /// Total number of observations.
        count: u64,
    },
}

const SHARDS: usize = 8;

type Shard = Mutex<HashMap<(&'static str, Vec<(&'static str, String)>), Metric>>;

/// A lock-sharded registry of named metrics.
///
/// Metrics are identified by a `'static` name plus an ordered label set.
/// Registering the same identity twice returns the same underlying
/// instrument, so call sites can register eagerly and cache the handle.
pub struct MetricsRegistry {
    shards: [Shard; SHARDS],
    help: Mutex<HashMap<&'static str, &'static str>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            help: Mutex::new(HashMap::new()),
        }
    }

    fn shard(&self, name: &str, labels: &[(&'static str, String)]) -> &Shard {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        labels.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Registers help text for a metric name (first writer wins).
    pub fn describe(&self, name: &'static str, help: &'static str) {
        self.help.lock().unwrap_or_else(PoisonError::into_inner).entry(name).or_insert(help);
    }

    fn register<T>(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        wrap: impl Fn(Arc<T>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
        make: impl Fn() -> T,
    ) -> Arc<T> {
        let labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        // Recover a poisoned shard: the map only changes by whole-entry
        // inserts, so a panic (such as the kind clash below) leaves it sound.
        let mut shard = self.shard(name, &labels).lock().unwrap_or_else(PoisonError::into_inner);
        let metric = shard.entry((name, labels)).or_insert_with(|| wrap(Arc::new(make())));
        unwrap(metric).unwrap_or_else(|| {
            panic!("metric {name:?} registered twice with different kinds");
        })
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            labels,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            labels,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            labels,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// Reads every registered metric, sorted by name then labels, so
    /// renderers produce deterministic output.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let help = self.help.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for ((name, labels), metric) in shard.iter() {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        buckets: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                };
                out.push(MetricSnapshot {
                    name,
                    labels: labels.clone(),
                    kind: metric.kind(),
                    help: help.get(name).copied().unwrap_or(""),
                    value,
                });
            }
        }
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_returns_the_same_instrument() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("hits", &[("op", "mine")]);
        let b = registry.counter("hits", &[("op", "mine")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = registry.counter("hits", &[("op", "ping")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn histogram_buckets_partition_by_bit_length() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), (1u64 + 2 + 3 + 4 + 7 + 8).wrapping_add(u64::MAX));
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 2); // 4, 7
        assert_eq!(buckets[4], 1); // 8
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1); // u64::MAX overflows
    }

    #[test]
    fn bucket_bounds_are_inclusive_powers_of_two_minus_one() {
        assert_eq!(Histogram::bucket_upper_bound(0), Some(0));
        assert_eq!(Histogram::bucket_upper_bound(1), Some(1));
        assert_eq!(Histogram::bucket_upper_bound(3), Some(7));
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn a_kind_clash_panic_leaves_the_registry_usable() {
        let registry = MetricsRegistry::new();
        registry.counter("clash", &[]).inc();
        // Panics while holding the name's shard lock, poisoning it.
        let clash = std::panic::catch_unwind(|| registry.histogram("clash", &[]));
        assert!(clash.is_err());
        registry.counter("clash", &[]).inc();
        let snaps = registry.snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].value, MetricValue::Counter(2));
    }

    #[test]
    fn snapshot_is_sorted_and_carries_help() {
        let registry = MetricsRegistry::new();
        registry.describe("b_metric", "second");
        registry.describe("a_metric", "first");
        registry.counter("b_metric", &[]).inc();
        registry.gauge("a_metric", &[("k", "v")]).set(-4);
        let snaps = registry.snapshot();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].name, "a_metric");
        assert_eq!(snaps[0].help, "first");
        assert_eq!(snaps[0].value, MetricValue::Gauge(-4));
        assert_eq!(snaps[1].name, "b_metric");
        assert_eq!(snaps[1].value, MetricValue::Counter(1));
    }
}
