//! Sharded atomic counters, gauges, and fixed-bucket log-scale
//! histograms.
//!
//! Instrumentation sites declare metrics as `static` items and bump
//! them directly; the first touch registers the metric into a
//! process-wide registry so [`counters_snapshot`], [`gauges_snapshot`]
//! and [`histograms_snapshot`] can enumerate everything that ever
//! counted. Registration is a one-time compare-exchange — the
//! steady-state cost of an increment is one relaxed load (the
//! registered check) plus one relaxed `fetch_add` on a
//! cache-line-padded per-thread shard.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Shards per counter. Power of two; eight covers the thread counts the
/// executor actually uses without inflating the static footprint.
const COUNTER_SHARDS: usize = 8;

/// Buckets per histogram: four linear sub-buckets per power-of-two
/// octave, so the top bucket starts at 2^40 ns (~18 min) while the
/// worst-case relative bucket width stays ≤ 25 % — fine enough to
/// interpolate sub-millisecond request percentiles.
pub const HIST_BUCKETS: usize = 160;

/// log₂(sub-buckets per octave).
const SUB_BITS: u32 = 2;

/// Sub-bucket mask.
const SUB_MASK: u64 = (1 << SUB_BITS) - 1;

/// A cache-line-padded atomic cell, so shards owned by different
/// threads never false-share.
#[repr(align(64))]
struct Shard(AtomicU64);

impl Shard {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }
}

/// What a counter's total means across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Model work performed (cells evaluated, replications run). Totals
    /// are thread-count-invariant by the executor's determinism
    /// contract and safe to golden-compare.
    Work,
    /// Scheduling/caching diagnostics (chunks spawned, cache hits).
    /// Totals legitimately vary with thread count and timing.
    Diag,
}

impl CounterKind {
    /// The kind's ndjson tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CounterKind::Work => "work",
            CounterKind::Diag => "diag",
        }
    }
}

/// A sharded monotonic event counter. Declare as a `static`:
///
/// ```
/// static EVALS: maly_obs::Counter = maly_obs::Counter::work("demo.evals");
/// EVALS.add(3);
/// assert!(EVALS.value() >= 3);
/// ```
pub struct Counter {
    name: &'static str,
    kind: CounterKind,
    registered: AtomicBool,
    shards: [Shard; COUNTER_SHARDS],
}

impl Counter {
    /// A thread-count-invariant work counter (see [`CounterKind::Work`]).
    #[must_use]
    pub const fn work(name: &'static str) -> Self {
        Self::new(name, CounterKind::Work)
    }

    /// A scheduling/caching diagnostic counter (see [`CounterKind::Diag`]).
    #[must_use]
    pub const fn diag(name: &'static str) -> Self {
        Self::new(name, CounterKind::Diag)
    }

    const fn new(name: &'static str, kind: CounterKind) -> Self {
        Self {
            name,
            kind,
            registered: AtomicBool::new(false),
            shards: [const { Shard::new() }; COUNTER_SHARDS],
        }
    }

    /// The counter's registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The counter's kind.
    #[must_use]
    pub fn kind(&self) -> CounterKind {
        self.kind
    }

    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            register_counter(self);
        }
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the calling thread's shard.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The counter's total across all shards. Sharding never splits a
    /// logical increment, so the sum is exact (not a sampled estimate).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes every shard.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A sharded signed level gauge (queue depth, in-flight requests).
/// Deltas land on the calling thread's shard as two's-complement
/// wrapping adds, so `incr` on one thread and `decr` on another never
/// contend; the snapshot value is the wrapping sum across shards, which
/// is exact because every logical `add` hits exactly one shard. Like
/// all timing-coupled metrics, gauge values are diagnostics: they vary
/// with scheduling and are excluded from bit-identity comparisons.
///
/// ```
/// static DEPTH: maly_obs::Gauge = maly_obs::Gauge::new("demo.depth");
/// DEPTH.incr();
/// DEPTH.add(2);
/// DEPTH.decr();
/// assert_eq!(DEPTH.value(), 2);
/// ```
pub struct Gauge {
    name: &'static str,
    registered: AtomicBool,
    shards: [Shard; COUNTER_SHARDS],
}

impl Gauge {
    /// A gauge with the given registry name.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            registered: AtomicBool::new(false),
            shards: [const { Shard::new() }; COUNTER_SHARDS],
        }
    }

    /// The gauge's registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds a signed delta to the calling thread's shard.
    #[inline]
    pub fn add(&'static self, n: i64) {
        if !self.registered.load(Ordering::Relaxed) {
            register_gauge(self);
        }
        // i64 → u64 keeps the two's-complement bit pattern, so the
        // wrapping shard sum in `value` recovers the signed total.
        self.shards[shard_index()]
            .0
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Raises the gauge by one.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Lowers the gauge by one.
    #[inline]
    pub fn decr(&'static self) {
        self.add(-1);
    }

    /// The gauge's current level: the wrapping sum of all shards,
    /// reinterpreted as signed.
    #[must_use]
    pub fn value(&self) -> i64 {
        let total = self
            .shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)));
        {
            total as i64
        }
    }

    /// Zeroes every shard.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A fixed-bucket log-scale duration histogram. Declare as a `static`;
/// recording is gated by the span layer on [`crate::enabled`], so a
/// disabled run never touches the buckets. Each power-of-two octave
/// splits into four linear sub-buckets ([`HIST_BUCKETS`] in all), so
/// the worst-case relative bucket width is 25 %.
pub struct Histogram {
    name: &'static str,
    registered: AtomicBool,
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    /// A histogram with the given registry name.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Bucket index for a duration; out-of-range durations clamp to the
    /// top bucket. Public so external tools (e.g. the load generator)
    /// can bucket self-measured durations into detached
    /// [`HistogramSnapshot`]s with the exact registry semantics.
    #[must_use]
    pub fn index_for(ns: u64) -> usize {
        let idx = if ns < (1 << SUB_BITS) {
            // The first four buckets hold exact values 0..=3.
            ns
        } else {
            // HDR-style: the top bits select the octave, the next
            // SUB_BITS bits the linear sub-bucket.
            let octave = 63 - ns.leading_zeros();
            let sub = (ns >> (octave - SUB_BITS)) & SUB_MASK;
            (u64::from(octave - 1) << SUB_BITS) + sub
        };
        (idx as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive lower and exclusive upper bound (in ns) of a bucket.
    /// The top bucket is clamped at record time, so its nominal upper
    /// bound understates extreme outliers; percentile interpolation
    /// stays finite because of it.
    #[must_use]
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        let sub_buckets = 1usize << SUB_BITS;
        if idx < sub_buckets {
            (idx as u64, idx as u64 + 1)
        } else {
            let octave = (idx >> SUB_BITS) as u32 + 1;
            let sub = (idx & (sub_buckets - 1)) as u64;
            let width = 1u64 << (octave - SUB_BITS);
            let lo = (1u64 << octave) + sub * width;
            (lo, lo + width)
        }
    }

    /// The histogram's registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records a duration in nanoseconds.
    pub fn record_ns(&'static self, ns: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            register_histogram(self);
        }
        let idx = Self::index_for(ns);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded durations in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Zeroes every bucket and the count/total.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }

    fn snapshot(&'static self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            name: self.name,
            count: self.count(),
            total_ns: self.total_ns(),
            buckets,
        }
    }
}

/// One counter's name, kind, and total at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry name (dotted, e.g. `eq1.cells`).
    pub name: &'static str,
    /// Work or diagnostic (see [`CounterKind`]).
    pub kind: CounterKind,
    /// Total across all shards.
    pub value: u64,
}

/// One gauge's name and level at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Registry name (dotted, e.g. `serve.queue_depth`).
    pub name: &'static str,
    /// Signed level summed across all shards.
    pub value: i64,
}

/// The standard latency percentile set, extracted from a
/// [`HistogramSnapshot`] by [`HistogramSnapshot::latency_percentiles`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Median latency in nanoseconds (interpolated).
    pub p50_ns: f64,
    /// 90th-percentile latency in nanoseconds (interpolated).
    pub p90_ns: f64,
    /// 99th-percentile latency in nanoseconds (interpolated).
    pub p99_ns: f64,
    /// 99.9th-percentile latency in nanoseconds (interpolated).
    pub p999_ns: f64,
}

/// One histogram's buckets at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name (dotted, e.g. `par.chunk_ns`).
    pub name: &'static str,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub total_ns: u64,
    /// Per-bucket counts; bounds per bucket come from
    /// [`Histogram::bucket_bounds`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Interpolated percentile in nanoseconds for quantile `q` in
    /// `[0, 1]`. Walks the cumulative bucket counts to the bucket
    /// containing the target rank, then interpolates linearly inside
    /// that bucket's `[lo, hi)` range — the log-bucket analogue of
    /// nearest-rank-with-interpolation. Returns `0.0` for an empty
    /// histogram. Values clamped into the top bucket at record time
    /// interpolate within that bucket's nominal bounds, so the result
    /// is always finite.
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum: u64 = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if next as f64 >= target {
                let (lo, hi) = Histogram::bucket_bounds(idx);
                let frac = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return lo as f64 + frac * (hi - lo) as f64;
            }
            cum = next;
        }
        // Unreachable when count equals the bucket sum; cover torn
        // snapshots (count raced ahead of a bucket) with the top
        // occupied bucket's upper bound.
        let top = self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        Histogram::bucket_bounds(top).1 as f64
    }

    /// The p50/p90/p99/p999 set (see [`Self::percentile_ns`]).
    #[must_use]
    pub fn latency_percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles {
            p50_ns: self.percentile_ns(0.50),
            p90_ns: self.percentile_ns(0.90),
            p99_ns: self.percentile_ns(0.99),
            p999_ns: self.percentile_ns(0.999),
        }
    }

    /// Mean recorded duration in nanoseconds (`0.0` when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        {
            self.total_ns as f64 / self.count as f64
        }
    }
}

struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    histograms: Vec::new(),
});

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    f(&mut REGISTRY.lock().unwrap_or_else(PoisonError::into_inner))
}

fn register_counter(c: &'static Counter) {
    if c.registered
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        with_registry(|r| r.counters.push(c));
    }
}

fn register_gauge(g: &'static Gauge) {
    if g.registered
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        with_registry(|r| r.gauges.push(g));
    }
}

fn register_histogram(h: &'static Histogram) {
    if h.registered
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        with_registry(|r| r.histograms.push(h));
    }
}

/// A stable per-thread shard index. Assigned round-robin on first use;
/// one thread always lands on the same shard, so increments from a
/// steady worker never bounce cache lines.
fn shard_index() -> usize {
    ordinal() as usize % COUNTER_SHARDS
}

/// A small dense per-thread ordinal (0, 1, 2, …) in first-touch order.
/// Also used by the span layer to tag records with the recording
/// thread without formatting `ThreadId`s.
pub(crate) fn ordinal() -> u64 {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed) as u64;
    }
    ORDINAL.with(|o| *o)
}

/// All registered counters, sorted by name. The sort (not registration
/// order, which is racy) makes the exported snapshot reproducible, the
/// metric analogue of the executor's index-ordered collection.
#[must_use]
pub fn counters_snapshot() -> Vec<CounterSnapshot> {
    let mut out: Vec<CounterSnapshot> = with_registry(|r| {
        r.counters
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name,
                kind: c.kind,
                value: c.value(),
            })
            .collect()
    });
    out.sort_by_key(|s| s.name);
    out
}

/// All registered gauges, sorted by name.
#[must_use]
pub fn gauges_snapshot() -> Vec<GaugeSnapshot> {
    let mut out: Vec<GaugeSnapshot> = with_registry(|r| {
        r.gauges
            .iter()
            .map(|g| GaugeSnapshot {
                name: g.name,
                value: g.value(),
            })
            .collect()
    });
    out.sort_by_key(|s| s.name);
    out
}

/// All registered histograms, sorted by name.
#[must_use]
pub fn histograms_snapshot() -> Vec<HistogramSnapshot> {
    let mut out: Vec<HistogramSnapshot> =
        with_registry(|r| r.histograms.iter().map(|h| h.snapshot()).collect());
    out.sort_by_key(|s| s.name);
    out
}

/// Zeroes every registered counter, gauge, and histogram. Metrics stay
/// registered, so a later snapshot still lists them (at zero).
pub fn reset_metrics() {
    with_registry(|r| {
        for c in &r.counters {
            c.reset();
        }
        for g in &r.gauges {
            g.reset();
        }
        for h in &r.histograms {
            h.reset();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::work("test.metrics.counter");
    static TEST_DIAG: Counter = Counter::diag("test.metrics.diag");
    static TEST_HIST: Histogram = Histogram::new("test.metrics.hist");
    static TEST_GAUGE: Gauge = Gauge::new("test.metrics.gauge");

    #[test]
    fn counter_totals_and_registration() {
        let _guard = crate::test_lock::hold();
        TEST_COUNTER.reset();
        TEST_COUNTER.add(5);
        TEST_COUNTER.incr();
        assert_eq!(TEST_COUNTER.value(), 6);
        let snap = counters_snapshot();
        let mine = snap
            .iter()
            .find(|s| s.name == "test.metrics.counter")
            .expect("registered on first add");
        assert_eq!(mine.value, 6);
        assert_eq!(mine.kind, CounterKind::Work);
        // Sorted by name.
        let names: Vec<_> = snap.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn counter_sums_across_threads() {
        let _guard = crate::test_lock::hold();
        TEST_DIAG.reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                // Exercising the sharded counter from distinct
                // OS threads requires real threads.
                scope.spawn(|| {
                    for _ in 0..1000 {
                        TEST_DIAG.incr();
                    }
                });
            }
        });
        assert_eq!(TEST_DIAG.value(), 4000);
        assert_eq!(TEST_DIAG.kind(), CounterKind::Diag);
    }

    #[test]
    fn gauge_tracks_signed_level_across_threads() {
        let _guard = crate::test_lock::hold();
        TEST_GAUGE.reset();
        TEST_GAUGE.add(3);
        std::thread::scope(|scope| {
            // Decrements from other threads land on other shards; the
            // wrapping sum must still recover the signed level.
            scope.spawn(|| {
                for _ in 0..5 {
                    TEST_GAUGE.decr();
                }
            });
        });
        assert_eq!(TEST_GAUGE.value(), -2);
        TEST_GAUGE.incr();
        assert_eq!(TEST_GAUGE.value(), -1);
        let snap = gauges_snapshot();
        let mine = snap
            .iter()
            .find(|s| s.name == "test.metrics.gauge")
            .expect("registered on first add");
        assert_eq!(mine.value, -1);
        let names: Vec<_> = snap.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn buckets_split_octaves_linearly() {
        let _guard = crate::test_lock::hold();
        TEST_HIST.reset();
        // Exact small values.
        TEST_HIST.record_ns(0);
        TEST_HIST.record_ns(3);
        // One octave, four sub-buckets: [8,10) [10,12) [12,14) [14,16).
        TEST_HIST.record_ns(8);
        TEST_HIST.record_ns(9);
        TEST_HIST.record_ns(10);
        TEST_HIST.record_ns(15);
        TEST_HIST.record_ns(u64::MAX); // clamped to the last bucket
        let snap = histograms_snapshot();
        let mine = snap
            .iter()
            .find(|s| s.name == "test.metrics.hist")
            .expect("registered on first record");
        assert_eq!(mine.buckets.len(), HIST_BUCKETS);
        assert_eq!(mine.buckets[0], 1);
        assert_eq!(mine.buckets[3], 1);
        assert_eq!(mine.buckets[8], 2); // 8 and 9 share [8,10)
        assert_eq!(mine.buckets[9], 1); // 10 in [10,12)
        assert_eq!(mine.buckets[11], 1); // 15 in [14,16)
        assert_eq!(mine.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(mine.count, 7);
        // Bounds tile the number line without gaps.
        for idx in 0..HIST_BUCKETS - 1 {
            let (_, hi) = Histogram::bucket_bounds(idx);
            let (next_lo, _) = Histogram::bucket_bounds(idx + 1);
            assert_eq!(hi, next_lo, "gap after bucket {idx}");
        }
    }

    #[test]
    fn reset_metrics_zeroes_but_keeps_registration() {
        let _guard = crate::test_lock::hold();
        TEST_COUNTER.add(1);
        TEST_GAUGE.incr();
        reset_metrics();
        assert_eq!(TEST_COUNTER.value(), 0);
        assert_eq!(TEST_GAUGE.value(), 0);
        assert!(counters_snapshot()
            .iter()
            .any(|s| s.name == "test.metrics.counter"));
        assert!(gauges_snapshot()
            .iter()
            .any(|s| s.name == "test.metrics.gauge"));
    }

    /// Builds a detached snapshot for percentile tests without touching
    /// the global registry.
    fn snap_with(samples: &[u64]) -> HistogramSnapshot {
        let mut buckets = vec![0u64; HIST_BUCKETS];
        let mut total = 0u64;
        for &s in samples {
            buckets[Histogram::index_for(s)] += 1;
            total = total.saturating_add(s);
        }
        HistogramSnapshot {
            name: "test.metrics.percentiles",
            count: samples.len() as u64,
            total_ns: total,
            buckets,
        }
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let snap = snap_with(&[]);
        let p = snap.latency_percentiles();
        assert_eq!(p.p50_ns, 0.0);
        assert_eq!(p.p999_ns, 0.0);
        assert_eq!(snap.mean_ns(), 0.0);
    }

    #[test]
    fn percentiles_of_single_bucket_mass_interpolate_within_it() {
        // 100 samples, all exactly 1000 ns → bucket [896, 1024)
        // (octave [512, 1024), quarter-width 128, fourth sub-bucket).
        let snap = snap_with(&[1000; 100]);
        let (lo, hi) = Histogram::bucket_bounds(Histogram::index_for(1000));
        assert_eq!((lo, hi), (896, 1024));
        let p = snap.latency_percentiles();
        for v in [p.p50_ns, p.p90_ns, p.p99_ns, p.p999_ns] {
            assert!(v >= lo as f64 && v < hi as f64, "{v} outside [{lo},{hi})");
        }
        // Higher quantiles interpolate further into the bucket.
        assert!(p.p50_ns < p.p99_ns);
    }

    #[test]
    fn percentiles_of_saturated_top_bucket_stay_finite() {
        let snap = snap_with(&[u64::MAX; 10]);
        let (lo, hi) = Histogram::bucket_bounds(HIST_BUCKETS - 1);
        let p = snap.latency_percentiles();
        for v in [p.p50_ns, p.p99_ns, p.p999_ns] {
            assert!(v.is_finite());
            assert!(v >= lo as f64 && v <= hi as f64);
        }
    }

    #[test]
    fn percentiles_of_exact_boundary_samples() {
        // 1024 sits exactly on an octave boundary → the octave's first
        // quarter, range [1024, 1280).
        let snap = snap_with(&[1024; 4]);
        let p50 = snap.percentile_ns(0.5);
        assert!((1024.0..1280.0).contains(&p50), "{p50}");
        // q=0 lands on the bucket's lower bound exactly.
        assert_eq!(snap.percentile_ns(0.0), 1024.0);
        // q=1 lands on the bucket's upper bound exactly.
        assert_eq!(snap.percentile_ns(1.0), 1280.0);
    }

    #[test]
    fn percentiles_split_across_buckets() {
        // 90 fast samples at 100 ns, 10 slow at ~1 ms: p50 must sit in
        // the fast bucket, p99 in the slow one.
        let mut samples = vec![100u64; 90];
        samples.extend_from_slice(&[1_000_000; 10]);
        let snap = snap_with(&samples);
        let p = snap.latency_percentiles();
        let (fast_lo, fast_hi) = Histogram::bucket_bounds(Histogram::index_for(100));
        let (slow_lo, slow_hi) = Histogram::bucket_bounds(Histogram::index_for(1_000_000));
        assert!(p.p50_ns >= fast_lo as f64 && p.p50_ns < fast_hi as f64);
        assert!(p.p99_ns >= slow_lo as f64 && p.p99_ns < slow_hi as f64);
        assert!(p.p50_ns < p.p90_ns || p.p90_ns < p.p99_ns);
    }
}
