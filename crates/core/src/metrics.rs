//! Run-time, memory and allocation diagnostics gathered by the algorithms —
//! the raw material for the paper's Fig. 6 (running time) and Table 4
//! (memory usage) reproductions.

use std::time::Duration;

/// Statistics reported by every allocation algorithm.
#[derive(Clone, Debug, Default)]
pub struct AlgoStats {
    /// Wall-clock time of the allocation phase.
    pub runtime: Duration,
    /// Seeds chosen per ad.
    pub seeds_per_ad: Vec<usize>,
    /// Algorithm-internal estimates of per-ad expected revenue `Π_i(S_i)`
    /// (what the algorithm *believed*, to compare against MC ground truth).
    pub estimated_revenue: Vec<f64>,
    /// Bytes held by the algorithm's dominant data structures (RR-set
    /// collections for TIRM, rank vectors for IRIE, zero for the myopic
    /// baselines) — the Table 4 metric.
    pub memory_bytes: usize,
    /// RR sets sampled per ad (TIRM only; empty otherwise).
    pub rr_sets_per_ad: Vec<usize>,
    /// Spread-oracle / simulation calls performed (scalability diagnostic).
    pub oracle_calls: usize,
    /// Bytes held by the RR indexes' inverted postings (after compaction)
    /// across ads — TIRM only, zero otherwise.
    pub postings_bytes: usize,
    /// Total inverted-posting entries across ads (TIRM only). Dividing
    /// [`Self::postings_bytes`] by this gives bytes-per-posting.
    pub postings_entries: usize,
}

impl AlgoStats {
    /// Total seeds chosen.
    pub fn total_seeds(&self) -> usize {
        self.seeds_per_ad.iter().sum()
    }

    /// Total RR sets sampled across ads (θ in the perf-suite schema;
    /// zero for non-RR algorithms).
    pub fn rr_sets_total(&self) -> usize {
        self.rr_sets_per_ad.iter().sum()
    }

    /// Memory in GB (Table 4 prints GB).
    pub fn memory_gb(&self) -> f64 {
        self.memory_bytes as f64 / 1e9
    }
}

/// Optional resident-set-size probe (`/proc/self/status`, Linux only) used
/// to corroborate the precise accounting in [`AlgoStats::memory_bytes`].
pub fn rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_units() {
        let s = AlgoStats {
            runtime: Duration::from_millis(1500),
            seeds_per_ad: vec![3, 4, 5],
            estimated_revenue: vec![1.0, 2.0, 3.0],
            memory_bytes: 2_500_000_000,
            rr_sets_per_ad: vec![],
            oracle_calls: 42,
            ..AlgoStats::default()
        };
        assert_eq!(s.total_seeds(), 12);
        assert!((s.memory_gb() - 2.5).abs() < 1e-9);
        assert_eq!(s.rr_sets_total(), 0);
    }

    #[test]
    fn rss_probe_runs_on_linux() {
        // Smoke test: on Linux this should return something > 1 MB.
        if let Some(rss) = rss_bytes() {
            assert!(rss > 1 << 20);
        }
    }
}
