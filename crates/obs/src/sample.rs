//! Exact-sample latency store, used by the event-log replay, whose
//! sample populations are small enough to keep verbatim.
//!
//! This is deliberately distinct from the registry's bucketed
//! [`Histogram`](crate::Histogram): bench gates compare exact
//! nearest-rank percentiles across runs, and log2 buckets are far too
//! coarse for that. The registry histogram is for always-on, in-process
//! exposition; this one is for offline reports.

/// Latency sample store for one event kind. Samples are exact (an event
/// stream that fits in memory is tiny next to its RR capital); the
/// percentile views are what reports surface.
#[derive(Clone, Debug, Default)]
pub struct SampleHistogram {
    /// Nanosecond samples in arrival order.
    samples: Vec<u64>,
}

impl SampleHistogram {
    /// Records one latency sample.
    pub fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The raw nanosecond samples, arrival order (merging histograms
    /// across worker threads is the caller's `for`-loop).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Nearest-rank percentile in microseconds (`p` in `[0, 100]`); 0.0
    /// when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, sorted.len()) - 1;
        sorted[idx] as f64 / 1_000.0
    }

    /// Maximum latency in microseconds; 0.0 when empty.
    pub fn max_us(&self) -> f64 {
        self.samples.iter().max().copied().unwrap_or(0) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentiles: the latency fields of the replay
    /// reports are derived from these views and must not move.
    #[test]
    fn percentiles_are_nearest_rank() {
        let mut h = SampleHistogram::default();
        assert_eq!(h.percentile_us(50.0), 0.0);
        for ns in [1_000u64, 2_000, 3_000, 4_000, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile_us(50.0), 3.0);
        assert_eq!(h.percentile_us(99.0), 100.0);
        assert_eq!(h.percentile_us(0.0), 1.0);
        assert_eq!(h.max_us(), 100.0);
    }
}
