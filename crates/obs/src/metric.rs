//! Metric primitives: sharded counters, gauges, and fixed-bucket log2
//! histograms.
//!
//! Everything here is `const`-constructible (so metrics live in plain
//! `static` items with no registration step or lazy init), allocation-free
//! on the record path, and write-only from the instrumented code: nothing
//! in the workspace ever *reads* a metric to make a decision, which is the
//! property that keeps the bit-identity anchors (replay ≡ batch, recovery,
//! replication) trivially intact with metrics enabled.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of shards per [`Counter`]. Each shard sits on its own cache
/// line; threads hash to a shard by a process-wide round-robin slot, so
/// concurrent writers (sampler pool, writer thread, acceptor threads)
/// don't bounce one line.
pub const COUNTER_SHARDS: usize = 8;

#[repr(align(64))]
struct PaddedU64(AtomicU64);

fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SLOT.with(|s| *s)
}

/// A monotonically increasing counter, sharded across cache lines.
///
/// `add`/`inc` are relaxed `fetch_add`s on the calling thread's shard;
/// `get` sums all shards (reads are exposition-path only, so the cost of
/// eight loads is irrelevant).
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Counter {
            shards: [const { PaddedU64(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A last-value / high-water gauge.
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge, usable in `static` position.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Bucket count for [`Histogram`]. Bucket 0 holds exact zeros; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`; the last bucket is the
/// overflow (+Inf) bucket. With 40 buckets the largest bounded bucket
/// tops out at `2^38 - 1` ns ≈ 4.6 minutes — far beyond any latency this
/// system records.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket log2 histogram over `u64` samples (nanoseconds for
/// latencies, plain counts for sizes).
///
/// Recording is three relaxed `fetch_add`s and no allocation. Snapshots
/// are mergeable bucket-wise, so per-thread or per-process histograms can
/// be combined for reporting.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Exemplar: the largest traced sample seen so far, and the flight
    /// trace id that produced it — the bridge from "the slowest bucket"
    /// to a concrete event-lineage timeline. The pair is updated with
    /// two relaxed stores (value CAS, then trace), so a reader racing
    /// the update may briefly pair the new value with the old trace;
    /// exemplars are diagnostics, not accounting, and the next traced
    /// record heals it.
    exemplar_value: AtomicU64,
    exemplar_trace: AtomicU64,
}

/// Index of the bucket holding `v`. Pinned by tests: changing this
/// layout silently changes every exposed percentile.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow
/// bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A zeroed histogram, usable in `static` position.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// [`record`](Self::record), and — when this sample is the largest
    /// traced one so far — stamps it as the histogram's exemplar,
    /// linking the slowest bucket to the flight-recorder trace id that
    /// produced it. `trace == 0` (no trace in flight) records plainly.
    #[inline]
    pub fn record_traced(&self, v: u64, trace: u64) {
        self.record(v);
        if trace == 0 {
            return;
        }
        let mut cur = self.exemplar_value.load(Ordering::Relaxed);
        while v >= cur {
            match self.exemplar_value.compare_exchange_weak(
                cur,
                v,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.exemplar_trace.store(trace, Ordering::Relaxed);
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Records an elapsed [`Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket state. Buckets are read
    /// individually with relaxed loads; a snapshot taken concurrently
    /// with writers is internally consistent enough for reporting (each
    /// bucket is exact, the total may lag a racing record by one).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            counts[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            exemplar_value: self.exemplar_value.load(Ordering::Relaxed),
            exemplar_trace: self.exemplar_trace.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Plain-data copy of a [`Histogram`], mergeable and renderable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`] for the layout).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest traced sample seen (0 when no traced sample recorded).
    pub exemplar_value: u64,
    /// Flight trace id of the exemplar sample (0 when none).
    pub exemplar_trace: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            exemplar_value: 0,
            exemplar_trace: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Adds `other` bucket-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.exemplar_value > self.exemplar_value {
            self.exemplar_value = other.exemplar_value;
            self.exemplar_trace = other.exemplar_trace;
        }
    }

    /// Nearest-rank percentile, reported as the upper bound of the
    /// bucket holding the ranked sample (so a bucketed approximation
    /// that never under-reports). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean sample value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Index of the highest non-empty bucket, if any.
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8_000);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    /// Pins the log2 bucket layout. The exposition format, the JSON dump
    /// and every approximate percentile all key off this mapping.
    #[test]
    fn bucket_layout_is_pinned() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1_000), 10);
        assert_eq!(bucket_index(1_000_000), 20);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(10), 1_023);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every representable value falls in the bucket whose bound
        // brackets it.
        for v in [0u64, 1, 5, 100, 10_000, 1 << 37, 1 << 39, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "v={v} i={i}");
            if i > 0 && i < HISTOGRAM_BUCKETS - 1 {
                assert!(v > bucket_bound(i - 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1_100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 2_006);
        assert_eq!(s.counts[0], 1); // 0
        assert_eq!(s.counts[1], 1); // 1
        assert_eq!(s.counts[2], 2); // 2, 3
        assert_eq!(s.counts[10], 1); // 900
        assert_eq!(s.counts[11], 1); // 1100
        assert_eq!(s.max_bucket(), Some(11));
    }

    #[test]
    fn snapshot_merge_and_percentile() {
        let a = Histogram::new();
        let b = Histogram::new();
        for _ in 0..99 {
            a.record(100); // bucket 7, bound 127
        }
        b.record(1_000_000); // bucket 20
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 100);
        assert_eq!(m.percentile(50.0), 127);
        assert_eq!(m.percentile(99.0), 127);
        assert_eq!(m.percentile(100.0), bucket_bound(20));
        assert!((m.mean() - (99.0 * 100.0 + 1_000_000.0) / 100.0).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::default().percentile(50.0), 0);
    }

    #[test]
    fn exemplar_tracks_largest_traced_sample() {
        let h = Histogram::new();
        h.record_traced(100, 7);
        h.record_traced(50, 8); // smaller: exemplar unchanged
        h.record_traced(0, 9); // ties at 0 lose to the 100 exemplar
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.exemplar_value, 100);
        assert_eq!(s.exemplar_trace, 7);
        h.record_traced(200, 0); // untraced: counted, never an exemplar
        h.record_traced(150, 11);
        let s = h.snapshot();
        assert_eq!(s.exemplar_value, 150);
        assert_eq!(s.exemplar_trace, 11);
        // Merge keeps the larger exemplar.
        let other = Histogram::new();
        other.record_traced(999, 42);
        let mut m = s.clone();
        m.merge(&other.snapshot());
        assert_eq!(m.exemplar_value, 999);
        assert_eq!(m.exemplar_trace, 42);
        let mut n = other.snapshot();
        n.merge(&s);
        assert_eq!(n.exemplar_trace, 42);
    }
}
