//! Zero-dependency observability for the personalized-search pipeline.
//!
//! Every stage of the engine's hot path (candidate retrieval, concept
//! extraction, feature building, β computation, re-ranking, click
//! observation) records into a process-global registry of
//! [`StageMetrics`]: an atomic invocation counter, a running total of
//! nanoseconds, and a log₂-bucketed latency histogram from which
//! p50/p95/p99 are estimated. Everything is lock-free on the record
//! path (a mutex guards only stage *registration*), so instrumented
//! code can run unchanged across the parallel evaluation harness.
//!
//! # Recording
//!
//! Stages are interned by name; [`stage`] returns a shared handle that
//! callers cache. The usual pattern is an RAII [`Span`] that records
//! its elapsed wall-clock time on drop:
//!
//! ```
//! let stage = pws_obs::stage("docs.example");
//! {
//!     let _timer = stage.span();
//!     // ... the work being measured ...
//! }
//! assert_eq!(stage.count(), 1);
//! assert!(stage.total_nanos() > 0);
//! ```
//!
//! # Snapshots
//!
//! [`snapshot`] captures every registered stage into a plain-data
//! [`MetricsSnapshot`], serializable to JSON without any external
//! crates:
//!
//! ```
//! pws_obs::stage("docs.demo").record_nanos(1_500);
//! let snap = pws_obs::snapshot();
//! let json = snap.to_json(true);
//! assert!(json.contains("\"docs.demo\""));
//! assert!(json.contains("\"p99_nanos\""));
//! ```
//!
//! # Accuracy
//!
//! Histogram buckets double in width; percentile estimates report the
//! **midpoint** of the bucket containing the requested rank, so the
//! resolution error is at most ±50% of the true value (an upper-bound
//! report would be biased high by up to 2×). The two edge buckets are
//! exact-zero (reported as 0) and the unbounded catch-all for values
//! ≥ 2⁶² (reported as its lower bound). Adequate for spotting
//! stage-level regressions, not for microbenchmarks (use `pws-bench`
//! for those). Counters use relaxed atomics: totals are exact once
//! threads quiesce, but a snapshot taken mid-flight may observe a
//! count and total from slightly different instants.
//!
//! # Tracing and export
//!
//! Aggregates answer "how slow is stage X overall"; the [`event`]
//! module holds the fixed-width per-query [`event::FlightEvent`] the
//! engine writes for every search, and [`trace`] the
//! [`trace::QueryTrace`] — that event plus the decision detail — it
//! fills when a caller asks "why did *this* query rank the way it did". [`prometheus_text`] renders the whole registry in the
//! Prometheus text exposition format for scraping.

pub mod event;
pub mod flight;
pub mod format;
pub mod health;
pub mod prometheus;
pub mod trace;

pub use prometheus::prometheus_text;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ histogram buckets. Bucket 0 holds exact zeros;
/// bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`; the last bucket
/// absorbs everything from `2^62` up to `u64::MAX`.
pub const BUCKETS: usize = 64;

/// Metrics for one named pipeline stage.
///
/// All methods take `&self` and are safe to call from any thread.
pub struct StageMetrics {
    name: String,
    count: AtomicU64,
    total_nanos: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// The histogram bucket a value falls into (see [`BUCKETS`]).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Upper bound of a bucket (inclusive). Used for the Prometheus `le`
/// bucket boundaries, not as the percentile representative.
#[inline]
pub(crate) fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        b if b >= BUCKETS - 1 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// Midpoint of a bucket, used as its representative value when
/// estimating percentiles. Reporting the midpoint instead of the upper
/// bound removes the systematic high bias (up to 2×) the log₂ buckets
/// would otherwise introduce; the residual error is at most ±50% of
/// the true value. Bucket 0 is exactly zero; the unbounded top bucket
/// reports its lower bound `2⁶²` (it has no meaningful midpoint).
#[inline]
fn bucket_mid(index: usize) -> u64 {
    match index {
        0 => 0,
        b if b >= BUCKETS - 1 => 1u64 << 62,
        b => {
            let lower = 1u64 << (b - 1);
            let upper = (1u64 << b) - 1;
            lower + (upper - lower) / 2
        }
    }
}

impl StageMetrics {
    fn new(name: &str) -> Self {
        StageMetrics {
            name: name.to_string(),
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The stage's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one observation of `nanos` elapsed time.
    pub fn record_nanos(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Bump the invocation counter by `n` without timing anything
    /// (pure event counters).
    pub fn incr(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one observation of an arbitrary non-time value (queue
    /// depths, batch sizes, …). Identical storage to [`record_nanos`] —
    /// the histogram and percentiles then read in that value's unit
    /// rather than nanoseconds.
    ///
    /// [`record_nanos`]: Self::record_nanos
    pub fn record_value(&self, value: u64) {
        self.record_nanos(value);
    }

    /// Start an RAII timer that records into this stage when dropped.
    pub fn span(&self) -> Span<'_> {
        Span { stage: self, start: Instant::now() }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total recorded nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    /// Zero all counters and buckets.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_nanos.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Capture this stage into plain data.
    pub fn snapshot(&self) -> StageSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let histogram_count: u64 = buckets.iter().sum();
        let count = self.count();
        let total_nanos = self.total_nanos();
        let mean_nanos =
            if histogram_count == 0 { 0.0 } else { total_nanos as f64 / histogram_count as f64 };
        StageSnapshot {
            name: self.name.clone(),
            count,
            total_nanos,
            mean_nanos,
            p50_nanos: percentile(&buckets, histogram_count, 0.50),
            p95_nanos: percentile(&buckets, histogram_count, 0.95),
            p99_nanos: percentile(&buckets, histogram_count, 0.99),
            buckets,
        }
    }
}

/// Estimate the `q`-quantile from log₂ bucket counts: the midpoint of
/// the bucket containing the `ceil(q·total)`-th observation (see
/// [`bucket_mid`] for the error bound).
pub(crate) fn percentile(buckets: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_mid(i);
        }
    }
    bucket_mid(BUCKETS - 1)
}

/// RAII timer returned by [`StageMetrics::span`]. Records the elapsed
/// wall-clock time into its stage when dropped.
#[must_use = "a Span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    stage: &'a StageMetrics,
    start: Instant,
}

impl Span<'_> {
    /// Record now (exactly as dropping would) and return the elapsed
    /// nanoseconds. Lets a caller feed the same measurement into a
    /// per-query [`event::FlightEvent`] stage slot without timing twice.
    pub fn finish(self) -> u64 {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stage.record_nanos(nanos);
        std::mem::forget(self);
        nanos
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stage.record_nanos(nanos);
    }
}

fn registry() -> &'static Mutex<HashMap<String, Arc<StageMetrics>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<StageMetrics>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Intern `name` in the global registry and return its shared handle.
///
/// Handles are cheap to clone and callers on hot paths should resolve
/// them once (e.g. at engine construction), not per call.
pub fn stage(name: &str) -> Arc<StageMetrics> {
    let mut map = registry().lock().expect("metrics registry poisoned");
    map.entry(name.to_string()).or_insert_with(|| Arc::new(StageMetrics::new(name))).clone()
}

/// Intern one stage per shard: `"{prefix}{i}.{name}"` for `i` in
/// `0..shards` (e.g. `serve.shard0.search`, `serve.shard1.search`, …).
///
/// The returned handles are index-aligned with the caller's shard
/// vector, so a sharded component resolves its whole per-shard metric
/// family in one call at construction and indexes it lock-free on the
/// hot path.
pub fn shard_stages(prefix: &str, shards: usize, name: &str) -> Vec<Arc<StageMetrics>> {
    (0..shards).map(|i| stage(&format!("{prefix}{i}.{name}"))).collect()
}

/// Capture every registered stage, sorted by name.
pub fn snapshot() -> MetricsSnapshot {
    let map = registry().lock().expect("metrics registry poisoned");
    let mut stages: Vec<StageSnapshot> = map.values().map(|s| s.snapshot()).collect();
    stages.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { stages }
}

/// Zero every registered stage (stages stay registered).
pub fn reset() {
    let map = registry().lock().expect("metrics registry poisoned");
    for s in map.values() {
        s.reset();
    }
}

/// Serialize tests that touch the process-global registry.
///
/// The registry is shared by every test in a test binary, so a test
/// that calls [`reset`] (or asserts exact counts on stages other tests
/// also record into) can be perturbed by a concurrently running test.
/// Such tests must hold this guard for their whole body:
///
/// ```
/// let _guard = pws_obs::test_lock();
/// pws_obs::reset();
/// // ... assertions on global stage counts ...
/// ```
///
/// The lock recovers from poisoning (a panicking test must not
/// cascade into every later test that takes the guard).
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Plain-data capture of one stage (see [`StageMetrics::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// Registered stage name.
    pub name: String,
    /// Observations (span/record calls plus [`StageMetrics::incr`]).
    pub count: u64,
    /// Sum of recorded durations.
    pub total_nanos: u64,
    /// Mean recorded duration (0 when nothing was timed).
    pub mean_nanos: f64,
    /// Estimated median duration (bucket midpoint; error ≤ ±50%).
    pub p50_nanos: u64,
    /// Estimated 95th-percentile duration.
    pub p95_nanos: u64,
    /// Estimated 99th-percentile duration.
    pub p99_nanos: u64,
    /// Raw log₂ histogram bucket counts (see [`bucket_index`]). Carried
    /// so snapshots can be merged and exported with full resolution;
    /// omitted from [`MetricsSnapshot::to_json`] to keep the JSON
    /// profile compact.
    pub buckets: Vec<u64>,
}

impl StageSnapshot {
    /// Fold `other` (a snapshot of the same logical stage, e.g. from
    /// another process or run) into this one: counts, totals, and
    /// buckets sum; mean and percentiles are recomputed from the
    /// combined histogram.
    pub fn merge(&mut self, other: &StageSnapshot) {
        // Wrapping, matching the relaxed-atomic accumulation in
        // `StageMetrics` (which also wraps on overflow).
        self.count = self.count.wrapping_add(other.count);
        self.total_nanos = self.total_nanos.wrapping_add(other.total_nanos);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        let histogram_count: u64 = self.buckets.iter().sum();
        self.mean_nanos = if histogram_count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / histogram_count as f64
        };
        self.p50_nanos = percentile(&self.buckets, histogram_count, 0.50);
        self.p95_nanos = percentile(&self.buckets, histogram_count, 0.95);
        self.p99_nanos = percentile(&self.buckets, histogram_count, 0.99);
    }

    /// What happened *since* `earlier` (a previous snapshot of the same
    /// logical stage): counts, totals, and buckets subtract
    /// (saturating, so a reset between snapshots yields zeros rather
    /// than nonsense); mean and percentiles are recomputed from the
    /// interval histogram. The inverse of [`merge`]:
    /// `earlier.merge(later.delta(earlier)) == later` whenever the
    /// counters only grew.
    ///
    /// [`merge`]: Self::merge
    pub fn delta(&self, earlier: &StageSnapshot) -> StageSnapshot {
        let mut buckets = self.buckets.clone();
        for (b, e) in buckets.iter_mut().zip(&earlier.buckets) {
            *b = b.saturating_sub(*e);
        }
        let histogram_count: u64 = buckets.iter().sum();
        let total_nanos = self.total_nanos.saturating_sub(earlier.total_nanos);
        StageSnapshot {
            name: self.name.clone(),
            count: self.count.saturating_sub(earlier.count),
            total_nanos,
            mean_nanos: if histogram_count == 0 {
                0.0
            } else {
                total_nanos as f64 / histogram_count as f64
            },
            p50_nanos: percentile(&buckets, histogram_count, 0.50),
            p95_nanos: percentile(&buckets, histogram_count, 0.95),
            p99_nanos: percentile(&buckets, histogram_count, 0.99),
            buckets,
        }
    }
}

/// Plain-data capture of the whole registry, JSON-serializable without
/// external dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// All registered stages, sorted by name.
    pub stages: Vec<StageSnapshot>,
}

impl MetricsSnapshot {
    /// Union-merge `other` into this snapshot: stages present in both
    /// are combined via [`StageSnapshot::merge`] (summed buckets,
    /// recomputed percentiles); stages only in `other` are adopted.
    /// Use to combine profiles from multiple processes or bench runs.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for s in &other.stages {
            match self.stages.iter_mut().find(|mine| mine.name == s.name) {
                Some(mine) => mine.merge(s),
                None => self.stages.push(s.clone()),
            }
        }
        self.stages.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Per-stage [`StageSnapshot::delta`] against `earlier`: the
    /// activity of the interval between the two snapshots. Stages
    /// absent from `earlier` (registered in between) pass through
    /// whole; stages absent from `self` (impossible without a registry
    /// rebuild) are dropped. This is what the burn-rate monitor and
    /// `pws-top` evaluate — windows of activity, never
    /// since-process-start totals.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let stages = self
            .stages
            .iter()
            .map(|s| match earlier.stages.iter().find(|e| e.name == s.name) {
                Some(e) => s.delta(e),
                None => s.clone(),
            })
            .collect();
        MetricsSnapshot { stages }
    }

    /// Look up a stage by exact name.
    pub fn stage(&self, name: &str) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Serialize to JSON. `pretty` adds two-space indentation.
    pub fn to_json(&self, pretty: bool) -> String {
        let (nl, ind, ind2, sp) = if pretty { ("\n", "  ", "    ", " ") } else { ("", "", "", "") };
        let mut out = String::new();
        out.push_str(&format!("{{{nl}{ind}\"stages\":{sp}["));
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{nl}{ind2}{{\"name\":{sp}\"{}\",{sp}\"count\":{sp}{},{sp}\
                 \"total_nanos\":{sp}{},{sp}\"mean_nanos\":{sp}{:.1},{sp}\
                 \"p50_nanos\":{sp}{},{sp}\"p95_nanos\":{sp}{},{sp}\"p99_nanos\":{sp}{}}}",
                escape(&s.name),
                s.count,
                s.total_nanos,
                s.mean_nanos,
                s.p50_nanos,
                s.p95_nanos,
                s.p99_nanos,
            ));
        }
        out.push_str(&format!("{nl}{ind}]{nl}}}"));
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        // Zero gets its own bucket.
        assert_eq!(bucket_index(0), 0);
        // One is the first nonzero bucket.
        assert_eq!(bucket_index(1), 1);
        // Powers of two open a new bucket; their predecessors close one.
        for k in 1..62u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k as usize, "2^{k} - 1");
        }
        // The top bucket absorbs the giants.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 62), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value's bucket upper bound is >= the value (except the
        // saturating top bucket, where it's u64::MAX by construction).
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 1_000_000, u64::MAX] {
            assert!(bucket_upper(bucket_index(v)) >= v, "value {v}");
        }
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_midpoints_sit_inside_their_bucket() {
        // The percentile representative must lie within [lower, upper]
        // for every bucket, at the boundary values 1, 2^k, 2^k − 1 and
        // the extremes 0 / u64::MAX.
        assert_eq!(bucket_mid(0), 0);
        assert_eq!(bucket_mid(1), 1, "bucket [1, 2) has the single value 1");
        assert_eq!(bucket_mid(2), 2, "bucket [2, 4) midpoint");
        assert_eq!(bucket_mid(10), 767, "bucket [512, 1024) midpoint");
        for k in 1..62u32 {
            for v in [1u64 << k, (1u64 << k) - 1] {
                let b = bucket_index(v);
                let (lower, upper) = (1u64 << (b - 1), bucket_upper(b));
                let mid = bucket_mid(b);
                assert!(
                    (lower..=upper).contains(&mid),
                    "bucket {b} of value {v}: mid {mid} outside [{lower}, {upper}]"
                );
                // Midpoint error bound: within ±50% of any value in the
                // bucket (the reason midpoints replaced upper bounds).
                assert!(mid as f64 >= v as f64 * 0.5 && mid as f64 <= v as f64 * 1.5);
            }
        }
        // The unbounded top bucket reports its lower bound.
        assert_eq!(bucket_mid(bucket_index(u64::MAX)), 1u64 << 62);
        assert_eq!(bucket_mid(bucket_index(1u64 << 63)), 1u64 << 62);
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let m = StageMetrics::new("test.percentiles");
        // 99 fast observations (~1µs) and one slow outlier (~1ms).
        for _ in 0..99 {
            m.record_nanos(1_000);
        }
        m.record_nanos(1_000_000);
        let s = m.snapshot();
        assert_eq!(s.count, 100);
        // 1000 lands in bucket [512, 1024): midpoint 767.
        assert_eq!(s.p50_nanos, 767);
        assert_eq!(s.p95_nanos, 767);
        // The p99 rank is exactly the 99th observation — still fast; the
        // outlier is only visible at p100-ish ranks.
        assert_eq!(s.p99_nanos, 767);
        assert_eq!(s.total_nanos, 99 * 1_000 + 1_000_000);
        // Mean reflects the outlier.
        assert!((s.mean_nanos - 10_990.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_extreme_values() {
        let m = StageMetrics::new("test.extremes");
        m.record_nanos(0);
        m.record_nanos(u64::MAX);
        let s = m.snapshot();
        assert_eq!(s.p50_nanos, 0);
        // The unbounded top bucket reports its lower bound 2^62.
        assert_eq!(s.p95_nanos, 1u64 << 62);
        assert_eq!(s.p99_nanos, 1u64 << 62);
        assert_eq!(s.total_nanos, u64::MAX);
    }

    #[test]
    fn empty_stage_snapshots_as_zeros() {
        let s = StageMetrics::new("test.empty").snapshot();
        assert_eq!(
            (s.count, s.total_nanos, s.p50_nanos, s.p95_nanos, s.p99_nanos),
            (0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean_nanos, 0.0);
    }

    #[test]
    fn span_records_on_drop() {
        let m = StageMetrics::new("test.span");
        {
            let _t = m.span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(m.count(), 1);
        assert!(m.total_nanos() >= 1_000_000, "slept ≥ 1ms");
    }

    #[test]
    fn incr_counts_without_timing() {
        let m = StageMetrics::new("test.incr");
        m.incr(3);
        m.incr(2);
        let s = m.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.total_nanos, 0);
        // Nothing was *timed*, so the histogram (and mean) stay empty.
        assert_eq!(s.mean_nanos, 0.0);
    }

    #[test]
    fn registry_interns_and_resets() {
        let a = stage("test.registry.shared");
        let b = stage("test.registry.shared");
        a.record_nanos(10);
        b.record_nanos(20);
        assert_eq!(a.count(), 2, "same underlying stage");
        a.reset();
        assert_eq!(b.count(), 0);
        assert!(snapshot().stages.iter().any(|s| s.name == "test.registry.shared"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = stage("test.concurrent");
        m.reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        m.record_nanos(100);
                    }
                });
            }
        });
        assert_eq!(m.count(), 40_000);
        assert_eq!(m.total_nanos(), 4_000_000);
    }

    #[test]
    fn shard_stages_interned_index_aligned() {
        let fam = shard_stages("test.shardfam", 3, "search");
        assert_eq!(fam.len(), 3);
        assert_eq!(fam[0].name(), "test.shardfam0.search");
        assert_eq!(fam[2].name(), "test.shardfam2.search");
        // Same family resolved again → same underlying stages.
        let again = shard_stages("test.shardfam", 3, "search");
        fam[1].record_nanos(7);
        assert_eq!(again[1].count(), 1);
    }

    #[test]
    fn record_value_feeds_the_histogram() {
        let m = StageMetrics::new("test.value");
        for depth in [0u64, 2, 2, 9] {
            m.record_value(depth);
        }
        let s = m.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.total_nanos, 13, "total is in the value's unit");
        // Depth 2 lands in bucket [2, 4): midpoint 2.
        assert_eq!(s.p50_nanos, 2);
    }

    /// Deterministic pseudo-random stream for the merge property test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn merged_percentiles_equal_recombined_histogram() {
        // Property: for arbitrary observation sets A and B,
        // merge(snapshot(A), snapshot(B)) reports exactly the
        // percentiles of snapshot(A ∪ B). 64 random splits.
        let mut seed = 42u64;
        for case in 0..64 {
            let n_a = (splitmix(&mut seed) % 50) as usize;
            let n_b = (splitmix(&mut seed) % 50) as usize;
            let a = StageMetrics::new("test.merge");
            let b = StageMetrics::new("test.merge");
            let combined = StageMetrics::new("test.merge");
            for _ in 0..n_a {
                let v = splitmix(&mut seed) >> (splitmix(&mut seed) % 64);
                a.record_nanos(v);
                combined.record_nanos(v);
            }
            for _ in 0..n_b {
                let v = splitmix(&mut seed) >> (splitmix(&mut seed) % 64);
                b.record_nanos(v);
                combined.record_nanos(v);
            }
            let mut merged = a.snapshot();
            merged.merge(&b.snapshot());
            let expect = combined.snapshot();
            assert_eq!(merged.count, expect.count, "case {case}");
            assert_eq!(merged.total_nanos, expect.total_nanos, "case {case}");
            assert_eq!(merged.buckets, expect.buckets, "case {case}");
            assert_eq!(merged.p50_nanos, expect.p50_nanos, "case {case}");
            assert_eq!(merged.p95_nanos, expect.p95_nanos, "case {case}");
            assert_eq!(merged.p99_nanos, expect.p99_nanos, "case {case}");
            assert!((merged.mean_nanos - expect.mean_nanos).abs() < 1e-9, "case {case}");
        }
    }

    #[test]
    fn snapshot_merge_unions_stages() {
        let x = StageMetrics::new("test.union.x");
        x.record_nanos(10);
        let y = StageMetrics::new("test.union.y");
        y.record_nanos(20);
        let shared_a = StageMetrics::new("test.union.shared");
        shared_a.record_nanos(100);
        let shared_b = StageMetrics::new("test.union.shared");
        shared_b.record_nanos(200);

        let mut left = MetricsSnapshot { stages: vec![shared_a.snapshot(), x.snapshot()] };
        let right = MetricsSnapshot { stages: vec![y.snapshot(), shared_b.snapshot()] };
        left.merge(&right);

        let names: Vec<&str> = left.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["test.union.shared", "test.union.x", "test.union.y"]);
        let shared = &left.stages[0];
        assert_eq!(shared.count, 2);
        assert_eq!(shared.total_nanos, 300);
    }

    #[test]
    fn merge_handles_store_tier_counters() {
        // Store-tier stages mix pure `incr` counters (fault_in, evict —
        // count moves, histogram stays empty) with timed stages
        // (store.read). Merge must keep them distinguishable: summed
        // counts, but percentiles only where something was timed.
        let fault_a = StageMetrics::new("serve.store.fault_in");
        fault_a.incr(3);
        let fault_b = StageMetrics::new("serve.store.fault_in");
        fault_b.incr(4);
        let read_a = StageMetrics::new("store.read");
        read_a.record_nanos(1_000);
        read_a.record_nanos(2_000);
        let read_b = StageMetrics::new("store.read");
        read_b.record_nanos(1_000);

        let mut left = MetricsSnapshot { stages: vec![fault_a.snapshot(), read_a.snapshot()] };
        let right = MetricsSnapshot { stages: vec![fault_b.snapshot(), read_b.snapshot()] };
        left.merge(&right);

        let fault = left.stage("serve.store.fault_in").expect("fault_in merged");
        assert_eq!(fault.count, 7);
        assert_eq!(fault.total_nanos, 0);
        assert_eq!(fault.mean_nanos, 0.0, "incr-only stages keep an empty histogram");
        assert_eq!(fault.p99_nanos, 0);
        let read = left.stage("store.read").expect("store.read merged");
        assert_eq!(read.count, 3);
        assert_eq!(read.total_nanos, 4_000);
        assert!(read.p50_nanos > 0);
    }

    #[test]
    fn merge_with_empty_snapshots_is_identity() {
        let m = StageMetrics::new("serve.store.evict");
        m.incr(5);
        let populated = MetricsSnapshot { stages: vec![m.snapshot()] };

        // empty.merge(populated) adopts everything…
        let mut empty = MetricsSnapshot { stages: vec![] };
        empty.merge(&populated);
        assert_eq!(empty, populated);

        // …and populated.merge(empty) changes nothing.
        let mut back = populated.clone();
        back.merge(&MetricsSnapshot { stages: vec![] });
        assert_eq!(back, populated);

        // Two empties stay empty.
        let mut nil = MetricsSnapshot { stages: vec![] };
        nil.merge(&MetricsSnapshot { stages: vec![] });
        assert!(nil.stages.is_empty());
    }

    #[test]
    fn delta_inverts_merge() {
        // Property: for any "earlier" observation set and any extra
        // activity, later.delta(earlier) recovers exactly the extra
        // activity, and earlier.merge(that delta) == later. 64 random
        // splits, same generator as the merge property test.
        // Values are bounded below 2^50 so the running total cannot
        // wrap: delta subtracts saturating (reset protection), which is
        // only the exact inverse of accumulation while sums stay in
        // range — as real nanosecond counters do.
        let mut seed = 7u64;
        for case in 0..64 {
            let earlier_m = StageMetrics::new("test.delta");
            let later_m = StageMetrics::new("test.delta");
            let extra_m = StageMetrics::new("test.delta");
            for _ in 0..(splitmix(&mut seed) % 40) {
                let v = splitmix(&mut seed) >> (14 + splitmix(&mut seed) % 50);
                earlier_m.record_nanos(v);
                later_m.record_nanos(v);
            }
            for _ in 0..(splitmix(&mut seed) % 40) {
                let v = splitmix(&mut seed) >> (14 + splitmix(&mut seed) % 50);
                later_m.record_nanos(v);
                extra_m.record_nanos(v);
            }
            let earlier = earlier_m.snapshot();
            let later = later_m.snapshot();
            let delta = later.delta(&earlier);
            assert_eq!(delta, extra_m.snapshot(), "case {case}: delta is the interval");
            let mut rebuilt = earlier.clone();
            rebuilt.merge(&delta);
            assert_eq!(rebuilt, later, "case {case}: merge inverts delta");
        }
    }

    #[test]
    fn snapshot_delta_passes_new_stages_through() {
        let old_stage = StageMetrics::new("test.sdelta.old");
        old_stage.record_nanos(10);
        let earlier = MetricsSnapshot { stages: vec![old_stage.snapshot()] };
        old_stage.record_nanos(30);
        let new_stage = StageMetrics::new("test.sdelta.new");
        new_stage.incr(2);
        let later = MetricsSnapshot { stages: vec![new_stage.snapshot(), old_stage.snapshot()] };

        let delta = later.delta(&earlier);
        assert_eq!(delta.stage("test.sdelta.old").expect("old").count, 1);
        assert_eq!(delta.stage("test.sdelta.old").expect("old").total_nanos, 30);
        assert_eq!(delta.stage("test.sdelta.new").expect("new").count, 2);
        // A reset between snapshots saturates to zero instead of wrapping.
        let wiped = MetricsSnapshot { stages: vec![] };
        let under = wiped.delta(&earlier);
        assert!(under.stages.is_empty());
        let fresh = StageMetrics::new("test.sdelta.old").snapshot();
        let sat = fresh.delta(&earlier.stages[0]);
        assert_eq!((sat.count, sat.total_nanos), (0, 0));
    }

    #[test]
    fn json_shape_compact_and_pretty() {
        let m = StageMetrics::new("test.json \"quoted\"");
        m.record_nanos(5);
        let snap = MetricsSnapshot { stages: vec![m.snapshot()] };
        let compact = snap.to_json(false);
        assert!(compact.starts_with("{\"stages\": [".replace(' ', "").as_str()));
        assert!(compact.contains("\\\"quoted\\\""));
        assert!(!compact.contains('\n'));
        let pretty = snap.to_json(true);
        assert!(pretty.contains("\n    {\"name\": "));
        assert!(pretty.ends_with("\n  ]\n}"));
    }
}
