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
pub const SCHEMA_VERSION: u64 = 7;

/// One measured scenario cell. The `id` is the join key between two
/// artifacts. Every field except `wall_s` is deterministic given the
/// cell's seed and the report's `scale` / `eval_runs`, and `bench_diff`
/// compares it exactly; timing under controlled conditions is the repo
/// benchmark's job (`benchmark/`).
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
    /// compaction — `postings_bytes / postings_entries`. 0 for non-RR
    /// cells and cells that sampled nothing.
    pub bytes_per_posting: f64,
    /// Allocation wall-clock seconds (Fig. 6 metric) — the one
    /// machine-dependent field: reported, never compared.
    pub wall_s: f64,
}

/// A full benchmark artifact: versioned cells plus the inputs they share.
/// Two artifacts are comparable when `tier`, `scale` and `eval_runs`
/// agree — the cells' deterministic payload is a function of all three.
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
    /// `TIRM_SCALE` multiplier the cells ran at.
    pub scale: f64,
    /// Monte-Carlo evaluation runs the cells ran with.
    pub eval_runs: usize,
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
            wall_s: f64_field(v, "wall_s")?,
        })
    }
}

impl BenchReport {
    /// Assembles a report around cells measured under `cfg`, stamping the
    /// current time and commit.
    pub fn new(tier: &str, cfg: &ScaleConfig, cells: Vec<BenchCell>) -> Self {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: git_sha(),
            tier: tier.to_string(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            scale: cfg.scale,
            eval_runs: cfg.eval_runs,
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
            scale: f64_field(&v, "scale")?,
            eval_runs: usize_field(&v, "eval_runs")?,
            cells,
        })
    }

    /// Reads and decodes an artifact file.
    pub fn load(path: &Path) -> Result<Self, SchemaError> {
        let text = std::fs::read_to_string(path).map_err(SchemaError::Io)?;
        Self::from_json_str(&text)
    }

    /// Writes the artifact atomically (temp file + rename), creating
    /// parent directories as needed: an interrupted run leaves the
    /// previous file — the committed baseline, say — intact.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        tirm_graph::snapshot::write_atomic(path, self.to_json_string().as_bytes())
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
pub(crate) mod tests {
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
            wall_s: 0.75,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport::new(
            "quick",
            &ScaleConfig::default(),
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
        let mut report = BenchReport::new("quick", &ScaleConfig::default(), vec![]);
        // One schema version has readers: a newer artifact and an older
        // one (v6) alike are refused outright, not zero-filled.
        for other in [SCHEMA_VERSION + 1, 6] {
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
        let text = r#"{"schema_version":7,"git_sha":"x","tier":"quick","created_unix":0,
            "scale":1,"eval_runs":10,"cells":[{"id":"a"}]}"#;
        assert!(matches!(
            BenchReport::from_json_str(text),
            Err(SchemaError::Field(_))
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("tirm_schema_test");
        let path = dir.join("BENCH_test.json");
        let report = BenchReport::new(
            "quick",
            &ScaleConfig::default(),
            vec![sample_cell("roundtrip")],
        );
        report.save(&path).unwrap();
        let back = BenchReport::load(&path).unwrap();
        assert_eq!(report, back);
        assert!(back.cell("roundtrip").is_some());
        assert!(back.cell("absent").is_none());

        // Saving over an existing artifact replaces it by rename and
        // never truncates it in place: a handle on the old file still
        // reads the complete old report.
        let mut held = std::fs::File::open(&path).unwrap();
        let mut next = report.clone();
        next.tier = "full".into();
        next.save(&path).unwrap();
        let mut old_text = String::new();
        std::io::Read::read_to_string(&mut held, &mut old_text).unwrap();
        assert_eq!(BenchReport::from_json_str(&old_text).unwrap(), report);
        assert_eq!(BenchReport::load(&path).unwrap(), next);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn git_sha_is_nonempty() {
        assert!(!git_sha().is_empty());
    }
}
