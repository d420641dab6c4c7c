//! The versioned, machine-readable benchmark artifact (`BENCH_<sha>.json`).
//!
//! Every experiment in the repo — the scenario-matrix `perf_suite`, the
//! figure/table binaries, the ablations — reports through [`BenchCell`] /
//! [`BenchReport`], so any two artifacts can be joined on cell ids and
//! diffed by `bench_diff`. The vendored `serde` is serialize-only;
//! decoding goes through the vendored `serde_json` parser's [`Value`] tree
//! (see [`BenchReport::from_json_str`]), which keeps the schema honest:
//! a field that doesn't survive the round trip fails the tier-1 tests.

use serde::Serialize;
use serde_json::Value;
use std::path::Path;
use tirm_workloads::ScaleConfig;

/// Version stamp of the artifact layout. Bump on any field change. The
/// decoder reads exactly this version: every field is required, and an
/// artifact of any other version is a [`SchemaError::Version`] (the only
/// committed artifact, `baselines/BENCH_quick.json`, is regenerated
/// with the bump).
pub const SCHEMA_VERSION: u64 = 6;

/// Where an artifact was measured. Wall-clock comparisons are only
/// meaningful between comparable environments (same OS/arch/CPU count);
/// deterministic payloads are comparable everywhere.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct EnvFingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism when the suite ran.
    pub cpus: usize,
    /// True for debug builds (timings from those are never comparable).
    pub debug_assertions: bool,
    /// `TIRM_SCALE` multiplier in effect.
    pub scale: f64,
    /// Monte-Carlo evaluation runs in effect.
    pub eval_runs: usize,
}

impl EnvFingerprint {
    /// Fingerprint of this process under the given scale configuration.
    pub fn current(cfg: &ScaleConfig) -> Self {
        EnvFingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            debug_assertions: cfg!(debug_assertions),
            scale: cfg.scale,
            eval_runs: cfg.eval_runs,
        }
    }

    /// True when wall-clock times from `self` and `other` can be compared
    /// with a relative threshold (same machine class and fidelity).
    pub fn time_comparable(&self, other: &EnvFingerprint) -> bool {
        self.os == other.os
            && self.arch == other.arch
            && self.cpus == other.cpus
            && !self.debug_assertions
            && !other.debug_assertions
            && self.scale == other.scale
            && self.eval_runs == other.eval_runs
    }
}

/// One measured scenario cell. The `id` is the join key between two
/// artifacts; everything below `wall_s` is wall-clock/machine-dependent,
/// everything above is deterministic given the cell's seed.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct BenchCell {
    /// Stable cell identity (`DATASET/model/ALLOC/t1/k1/l0`, or a
    /// bin-specific id like `FIG6/DBLP/wc/TIRM/h5/B50`).
    pub id: String,
    /// Data set name.
    pub dataset: String,
    /// Probability model name (`topic` / `exp` / `wc`).
    pub prob_model: String,
    /// Allocator name (`TIRM` / `GREEDY` / `IRIE`, or an ablation label).
    pub allocator: String,
    /// Worker threads used by the allocator and evaluator.
    pub threads: usize,
    /// Attention bound κ.
    pub kappa: u32,
    /// Penalty λ.
    pub lambda: f64,
    /// RNG seed the cell ran with. Stored as a hex *string* in JSON: the
    /// vendored `serde_json` keeps numbers as `f64`, which cannot carry
    /// full-width hash-derived seeds (> 2^53) losslessly.
    #[serde(serialize_with = "ser_u64_hex")]
    pub seed: u64,
    /// Graph nodes.
    pub nodes: usize,
    /// Graph arcs.
    pub edges: usize,
    /// Advertisers h.
    pub ads: usize,
    /// Total RR sets sampled (θ summed over ads; 0 for non-RR allocators).
    pub theta: usize,
    /// Seeds allocated in total.
    pub total_seeds: usize,
    /// Distinct users targeted (Table 3 metric).
    pub distinct_targeted: usize,
    /// MC-evaluated total regret (Eq. 4); 0 when the cell skips evaluation.
    pub total_regret: f64,
    /// Regret / total budget; 0 when the cell skips evaluation.
    pub relative_regret: f64,
    /// MC-evaluated total revenue; 0 when the cell skips evaluation.
    pub revenue: f64,
    /// Bytes held by the algorithm's dominant structures (Table 4 metric).
    pub memory_bytes: usize,
    /// RR-index bytes per stored posting entry after end-of-run
    /// compaction — `postings_bytes / postings_entries`. Deterministic
    /// (both numerator and denominator are), so cross-machine diffs can
    /// pin the arena layout's footprint. 0 for non-RR cells and cells
    /// that sampled nothing.
    pub bytes_per_posting: f64,
    /// Same ratio costed under the pre-arena `Vec<Vec<u32>>` layout
    /// (per-node header + capacity slack). The `bytes_per_posting /
    /// legacy_bytes_per_posting` quotient is the layout's measured
    /// reduction. 0 for non-RR cells.
    pub legacy_bytes_per_posting: f64,
    /// Allocation wall-clock seconds.
    pub wall_s: f64,
    /// Evaluation wall-clock seconds (0 when evaluation is skipped).
    pub eval_s: f64,
    /// Seconds this cell's dataset cost as a *cache miss*: generation
    /// from scratch, plus snapshot write-back when a `TIRM_SNAPSHOT_DIR`
    /// is in use. 0 when the dataset came from a snapshot or was already
    /// in memory from an earlier cell of the same run.
    pub dataset_cold_s: f64,
    /// Seconds spent *loading* this cell's dataset from a
    /// `TIRM_SNAPSHOT_DIR` snapshot (warm). 0 when generated cold or
    /// reused in memory.
    pub dataset_warm_s: f64,
    /// RR-set sampling throughput, `theta / wall_s` (0 for non-RR cells).
    pub rr_sets_per_s: f64,
    /// Synthetic postings-scan probe: millions of posting entries
    /// traversed per second through the arena index, measured once per
    /// suite run and stamped on its TIRM cells (0 elsewhere). Machine-
    /// dependent — a cache-locality canary, not a gate.
    pub postings_scan_mentries_per_s: f64,
    /// Online cells: median per-event serving latency in microseconds
    /// (0 on batch cells).
    pub latency_p50_us: f64,
    /// Online cells: p95 per-event serving latency in microseconds.
    pub latency_p95_us: f64,
    /// Online cells: p99 per-event serving latency in microseconds.
    pub latency_p99_us: f64,
    /// Online cells: accepted events per wall-clock second.
    pub events_per_s: f64,
    /// Network serving cells: p99 latency of the concurrent readers'
    /// wire queries in microseconds — the snapshot-swapped read path
    /// under a grinding writer (0 elsewhere).
    pub read_p99_us: f64,
    /// Network serving cells: read queries served per wall-clock second
    /// across the reader pool.
    pub reads_per_s: f64,
    /// Network serving cells: mutations shed by admission control /
    /// offered mutations (retries count as offers, so deterministic-
    /// delivery runs report their backpressure here).
    pub shed_rate: f64,
    /// Replicated serving cells: read queries answered by the follower
    /// per wall-clock second — the replication read path's throughput
    /// (0 elsewhere).
    pub follower_reads_per_s: f64,
    /// Replicated serving cells: p99 of the follower's replication lag
    /// in events, sampled at each reader's periodic stats probe.
    pub follower_lag_p99: f64,
    /// Process peak RSS (`VmHWM`) when the cell finished, bytes; 0 if
    /// unavailable. A high-water mark is monotone across a run, so this
    /// is *not* a per-cell quantity: it depends on matrix order and
    /// filtering, and `bench_diff` only gates the run-wide maximum.
    pub peak_rss_bytes: usize,
}

impl BenchCell {
    /// Zeroes every machine-dependent field, leaving the deterministic
    /// metric payload — what the determinism test and cross-machine diffs
    /// compare.
    pub fn strip_timings(&mut self) {
        self.wall_s = 0.0;
        self.eval_s = 0.0;
        self.dataset_cold_s = 0.0;
        self.dataset_warm_s = 0.0;
        self.rr_sets_per_s = 0.0;
        self.postings_scan_mentries_per_s = 0.0;
        self.latency_p50_us = 0.0;
        self.latency_p95_us = 0.0;
        self.latency_p99_us = 0.0;
        self.events_per_s = 0.0;
        self.read_p99_us = 0.0;
        self.reads_per_s = 0.0;
        self.shed_rate = 0.0;
        self.follower_reads_per_s = 0.0;
        self.follower_lag_p99 = 0.0;
        self.peak_rss_bytes = 0;
    }
}

/// A full benchmark artifact: fingerprinted, versioned cells.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Git commit the artifact was measured at (`unknown` outside a repo).
    pub git_sha: String,
    /// Tier or experiment name (`quick`, `full`, `fig6`, `ablation`, …).
    pub tier: String,
    /// Seconds since the Unix epoch when the run started.
    pub created_unix: u64,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Measured cells, in matrix order.
    pub cells: Vec<BenchCell>,
}

/// Decode failure when reading a `BENCH_*.json` artifact.
#[derive(Debug)]
pub enum SchemaError {
    /// The file is not syntactically valid JSON.
    Parse(String),
    /// A required field is absent or has the wrong type.
    Field(String),
    /// The artifact was written by another schema version.
    Version(u64),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Parse(e) => write!(f, "invalid JSON: {e}"),
            SchemaError::Field(which) => write!(f, "missing or mistyped field `{which}`"),
            SchemaError::Version(v) => write!(
                f,
                "artifact has schema_version {v}, this binary reads only {SCHEMA_VERSION}"
            ),
            SchemaError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SchemaError {}

fn ser_u64_hex<S: serde::Serializer>(v: &u64, s: S) -> Result<S::Ok, S::Error> {
    s.serialize_str(&format!("{v:#018x}"))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, SchemaError> {
    v.get(key)
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

fn u64_hex_field(v: &Value, key: &str) -> Result<u64, SchemaError> {
    field(v, key)?
        .as_str()
        .and_then(|s| s.strip_prefix("0x"))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, SchemaError> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, SchemaError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, SchemaError> {
    Ok(u64_field(v, key)? as usize)
}

fn str_field(v: &Value, key: &str) -> Result<String, SchemaError> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, SchemaError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

impl EnvFingerprint {
    fn from_value(v: &Value) -> Result<Self, SchemaError> {
        Ok(EnvFingerprint {
            os: str_field(v, "os")?,
            arch: str_field(v, "arch")?,
            cpus: usize_field(v, "cpus")?,
            debug_assertions: bool_field(v, "debug_assertions")?,
            scale: f64_field(v, "scale")?,
            eval_runs: usize_field(v, "eval_runs")?,
        })
    }
}

impl BenchCell {
    fn from_value(v: &Value) -> Result<Self, SchemaError> {
        Ok(BenchCell {
            id: str_field(v, "id")?,
            dataset: str_field(v, "dataset")?,
            prob_model: str_field(v, "prob_model")?,
            allocator: str_field(v, "allocator")?,
            threads: usize_field(v, "threads")?,
            kappa: u64_field(v, "kappa")? as u32,
            lambda: f64_field(v, "lambda")?,
            seed: u64_hex_field(v, "seed")?,
            nodes: usize_field(v, "nodes")?,
            edges: usize_field(v, "edges")?,
            ads: usize_field(v, "ads")?,
            theta: usize_field(v, "theta")?,
            total_seeds: usize_field(v, "total_seeds")?,
            distinct_targeted: usize_field(v, "distinct_targeted")?,
            total_regret: f64_field(v, "total_regret")?,
            relative_regret: f64_field(v, "relative_regret")?,
            revenue: f64_field(v, "revenue")?,
            memory_bytes: usize_field(v, "memory_bytes")?,
            bytes_per_posting: f64_field(v, "bytes_per_posting")?,
            legacy_bytes_per_posting: f64_field(v, "legacy_bytes_per_posting")?,
            wall_s: f64_field(v, "wall_s")?,
            eval_s: f64_field(v, "eval_s")?,
            dataset_cold_s: f64_field(v, "dataset_cold_s")?,
            dataset_warm_s: f64_field(v, "dataset_warm_s")?,
            rr_sets_per_s: f64_field(v, "rr_sets_per_s")?,
            postings_scan_mentries_per_s: f64_field(v, "postings_scan_mentries_per_s")?,
            latency_p50_us: f64_field(v, "latency_p50_us")?,
            latency_p95_us: f64_field(v, "latency_p95_us")?,
            latency_p99_us: f64_field(v, "latency_p99_us")?,
            events_per_s: f64_field(v, "events_per_s")?,
            read_p99_us: f64_field(v, "read_p99_us")?,
            reads_per_s: f64_field(v, "reads_per_s")?,
            shed_rate: f64_field(v, "shed_rate")?,
            follower_reads_per_s: f64_field(v, "follower_reads_per_s")?,
            follower_lag_p99: f64_field(v, "follower_lag_p99")?,
            peak_rss_bytes: usize_field(v, "peak_rss_bytes")?,
        })
    }
}

impl BenchReport {
    /// Assembles a report around measured cells, stamping the current
    /// time and commit.
    pub fn new(tier: &str, env: EnvFingerprint, cells: Vec<BenchCell>) -> Self {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: git_sha(),
            tier: tier.to_string(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            env,
            cells,
        }
    }

    /// Pretty-printed JSON (what lands on disk).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Decodes an artifact produced by [`Self::to_json_string`].
    pub fn from_json_str(s: &str) -> Result<Self, SchemaError> {
        let v = serde_json::from_str(s).map_err(|e| SchemaError::Parse(e.to_string()))?;
        let schema_version = u64_field(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(SchemaError::Version(schema_version));
        }
        let cells = field(&v, "cells")?
            .as_array()
            .ok_or_else(|| SchemaError::Field("cells".to_string()))?
            .iter()
            .map(BenchCell::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version,
            git_sha: str_field(&v, "git_sha")?,
            tier: str_field(&v, "tier")?,
            created_unix: u64_field(&v, "created_unix")?,
            env: EnvFingerprint::from_value(field(&v, "env")?)?,
            cells,
        })
    }

    /// Reads and decodes an artifact file.
    pub fn load(path: &Path) -> Result<Self, SchemaError> {
        let text = std::fs::read_to_string(path).map_err(SchemaError::Io)?;
        Self::from_json_str(&text)
    }

    /// Writes the artifact, creating parent directories as needed.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }

    /// Looks a cell up by id.
    pub fn cell(&self, id: &str) -> Option<&BenchCell> {
        self.cells.iter().find(|c| c.id == id)
    }
}

/// Current commit: `$GITHUB_SHA` (CI), else `git rev-parse`, else
/// `unknown`. Truncated to 12 hex chars for file names.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().chars().take(12).collect::<String>())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_cell(id: &str) -> BenchCell {
        BenchCell {
            id: id.to_string(),
            dataset: "FLIXSTER".into(),
            prob_model: "topic".into(),
            allocator: "TIRM".into(),
            threads: 1,
            kappa: 1,
            lambda: 0.5,
            // Deliberately > 2^53: seeds must survive via the hex-string
            // encoding, not f64 numbers.
            seed: 0xdead_beef_dead_beef,
            nodes: 480,
            edges: 6400,
            ads: 10,
            theta: 123_456,
            total_seeds: 42,
            distinct_targeted: 40,
            total_regret: 17.25,
            relative_regret: 0.31,
            revenue: 38.5,
            memory_bytes: 1_048_576,
            bytes_per_posting: 5.5,
            legacy_bytes_per_posting: 8.25,
            wall_s: 0.75,
            eval_s: 0.125,
            dataset_cold_s: 3.5,
            dataset_warm_s: 0.25,
            rr_sets_per_s: 164_608.0,
            postings_scan_mentries_per_s: 420.0,
            latency_p50_us: 850.0,
            latency_p95_us: 2_100.0,
            latency_p99_us: 4_200.0,
            events_per_s: 118.5,
            read_p99_us: 310.0,
            reads_per_s: 5_400.0,
            shed_rate: 0.125,
            follower_reads_per_s: 2_700.0,
            follower_lag_p99: 12.0,
            peak_rss_bytes: 52_428_800,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport::new(
            "quick",
            EnvFingerprint::current(&ScaleConfig::default()),
            vec![
                sample_cell("a/b/TIRM/t1/k1/l0.5"),
                sample_cell("c/d/IRIE/t2/k1/l0.5"),
            ],
        );
        let text = report.to_json_string();
        let back = BenchReport::from_json_str(&text).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn rejects_other_versions_and_missing_fields() {
        let mut report = BenchReport::new(
            "quick",
            EnvFingerprint::current(&ScaleConfig::default()),
            vec![],
        );
        // One schema version has readers: a newer artifact and an older
        // one (v5) alike are refused outright, not zero-filled.
        for other in [SCHEMA_VERSION + 1, 5] {
            report.schema_version = other;
            assert!(matches!(
                BenchReport::from_json_str(&report.to_json_string()),
                Err(SchemaError::Version(v)) if v == other
            ));
        }
        assert!(matches!(
            BenchReport::from_json_str("{}"),
            Err(SchemaError::Field(_))
        ));
        assert!(matches!(
            BenchReport::from_json_str("not json"),
            Err(SchemaError::Parse(_))
        ));
        // A cell missing a metric field is rejected, not zero-filled.
        let text = r#"{"schema_version":6,"git_sha":"x","tier":"quick","created_unix":0,
            "env":{"os":"linux","arch":"x86_64","cpus":1,"debug_assertions":false,
                   "scale":1,"eval_runs":10},
            "cells":[{"id":"a"}]}"#;
        assert!(matches!(
            BenchReport::from_json_str(text),
            Err(SchemaError::Field(_))
        ));
    }

    #[test]
    fn strip_timings_zeroes_machine_fields_only() {
        let mut c = sample_cell("x");
        c.strip_timings();
        assert_eq!(c.wall_s, 0.0);
        assert_eq!(c.eval_s, 0.0);
        assert_eq!(c.dataset_cold_s, 0.0);
        assert_eq!(c.dataset_warm_s, 0.0);
        assert_eq!(c.rr_sets_per_s, 0.0);
        assert_eq!(c.postings_scan_mentries_per_s, 0.0);
        assert_eq!(c.latency_p50_us, 0.0);
        assert_eq!(c.latency_p95_us, 0.0);
        assert_eq!(c.latency_p99_us, 0.0);
        assert_eq!(c.events_per_s, 0.0);
        assert_eq!(c.read_p99_us, 0.0);
        assert_eq!(c.reads_per_s, 0.0);
        assert_eq!(c.shed_rate, 0.0);
        assert_eq!(c.peak_rss_bytes, 0);
        assert_eq!(c.theta, 123_456, "deterministic payload untouched");
        assert_eq!(c.total_regret, 17.25);
        assert_eq!(
            c.bytes_per_posting, 5.5,
            "layout ratios are deterministic, not timings"
        );
        assert_eq!(c.legacy_bytes_per_posting, 8.25);
    }

    #[test]
    fn time_comparability_requires_matching_machine_class() {
        let a = EnvFingerprint {
            os: "linux".into(),
            arch: "x86_64".into(),
            cpus: 4,
            debug_assertions: false,
            scale: 0.08,
            eval_runs: 200,
        };
        let mut b = a.clone();
        assert!(a.time_comparable(&b));
        b.cpus = 8;
        assert!(!a.time_comparable(&b));
        b = a.clone();
        b.debug_assertions = true;
        assert!(!a.time_comparable(&b));
        b = a.clone();
        b.scale = 1.0;
        assert!(!a.time_comparable(&b));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("tirm_schema_test");
        let path = dir.join("BENCH_test.json");
        let report = BenchReport::new(
            "quick",
            EnvFingerprint::current(&ScaleConfig::default()),
            vec![sample_cell("roundtrip")],
        );
        report.save(&path).unwrap();
        let back = BenchReport::load(&path).unwrap();
        assert_eq!(report, back);
        assert!(back.cell("roundtrip").is_some());
        assert!(back.cell("absent").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_sha_is_nonempty() {
        assert!(!git_sha().is_empty());
    }
}
