//! The versioned, machine-readable benchmark artifact (`BENCH_<sha>.json`).
//!
//! Every experiment in the repo — the scenario-matrix `perf_suite`, the
//! figure/table binaries, the ablations — reports through [`BenchCell`] /
//! [`BenchReport`], so any two artifacts can be joined on cell ids and
//! diffed by `bench_diff`. Both directions go through the vendored
//! `serde_json` [`Value`] tree, and one table, `CELL_FIELDS`, gives each
//! cell field's key, encoder and decoder once: encoding, decoding and
//! `bench_diff`'s comparison all walk it, and a field that doesn't survive
//! the round trip fails the tier-1 tests.

use serde_json::{json, Value};
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
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
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

/// How one field type is written to and read back from JSON.
trait Codec<T> {
    fn encode(x: &T) -> Value;
    /// `None` when `v` has the wrong type or does not fit `T`.
    fn decode(v: &Value) -> Option<T>;
}

struct Text;
impl Codec<String> for Text {
    fn encode(x: &String) -> Value {
        Value::String(x.clone())
    }
    fn decode(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// A non-negative integer that fits `T` (`as` would wrap κ = 2^32 + 1
/// to 1).
struct Int;
impl<T: Copy + Into<Value> + TryFrom<u64>> Codec<T> for Int {
    fn encode(x: &T) -> Value {
        (*x).into()
    }
    fn decode(v: &Value) -> Option<T> {
        v.as_u64().and_then(|n| T::try_from(n).ok())
    }
}

struct Real;
impl Codec<f64> for Real {
    fn encode(x: &f64) -> Value {
        Value::Number(*x)
    }
    fn decode(v: &Value) -> Option<f64> {
        v.as_f64()
    }
}

/// `0x`-prefixed, zero-padded hex string (see [`BenchCell::seed`]).
struct Hex;
impl Codec<u64> for Hex {
    fn encode(x: &u64) -> Value {
        Value::String(format!("{x:#018x}"))
    }
    fn decode(v: &Value) -> Option<u64> {
        let digits = v.as_str()?.strip_prefix("0x")?;
        u64::from_str_radix(digits, 16).ok()
    }
}

/// One [`BenchCell`] field: its JSON key, encoder and decoder.
pub(crate) struct CellField {
    /// JSON key, the struct field's name.
    pub(crate) key: &'static str,
    /// The field's value as written to the artifact.
    pub(crate) encode: fn(&BenchCell) -> Value,
    /// Sets the field from its JSON value; `None` if the value is mistyped.
    decode: fn(&mut BenchCell, &Value) -> Option<()>,
}

macro_rules! cell_fields {
    ($($name:ident: $codec:ident),* $(,)?) => {
        &[$(CellField {
            key: stringify!($name),
            encode: |c| $codec::encode(&c.$name),
            decode: |c, v| {
                c.$name = $codec::decode(v)?;
                Some(())
            },
        }),*]
    };
}

/// Every [`BenchCell`] field once, in artifact order.
pub(crate) const CELL_FIELDS: &[CellField] = cell_fields![
    id: Text,
    dataset: Text,
    prob_model: Text,
    allocator: Text,
    threads: Int,
    kappa: Int,
    lambda: Real,
    seed: Hex,
    nodes: Int,
    edges: Int,
    ads: Int,
    theta: Int,
    total_seeds: Int,
    distinct_targeted: Int,
    total_regret: Real,
    relative_regret: Real,
    revenue: Real,
    memory_bytes: Int,
    bytes_per_posting: Real,
    wall_s: Real,
];

/// Field `key` of `v` read by `decode`; absent and mistyped alike are
/// [`SchemaError::Field`].
fn get<'v, T>(
    v: &'v Value,
    key: &str,
    decode: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<T, SchemaError> {
    v.get(key)
        .and_then(decode)
        .ok_or_else(|| SchemaError::Field(key.to_string()))
}

impl BenchCell {
    fn to_value(&self) -> Value {
        let fields = CELL_FIELDS
            .iter()
            .map(|f| (f.key.to_string(), (f.encode)(self)));
        Value::Object(fields.collect())
    }

    fn from_value(v: &Value) -> Result<Self, SchemaError> {
        let mut cell = BenchCell::default();
        for f in CELL_FIELDS {
            get(v, f.key, |x| (f.decode)(&mut cell, x))?;
        }
        Ok(cell)
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
        let report = json!({
            "schema_version": self.schema_version,
            "git_sha": self.git_sha.as_str(),
            "tier": self.tier.as_str(),
            "created_unix": self.created_unix,
            "scale": self.scale,
            "eval_runs": self.eval_runs,
            "cells": Value::Array(self.cells.iter().map(BenchCell::to_value).collect()),
        });
        serde_json::to_string_pretty(&report).expect("report serialization is infallible")
    }

    /// Decodes an artifact produced by [`Self::to_json_string`].
    pub fn from_json_str(s: &str) -> Result<Self, SchemaError> {
        let v = serde_json::from_str(s).map_err(|e| SchemaError::Parse(e.to_string()))?;
        let schema_version = get(&v, "schema_version", Int::decode)?;
        if schema_version != SCHEMA_VERSION {
            return Err(SchemaError::Version(schema_version));
        }
        let cells = get(&v, "cells", Value::as_array)?
            .iter()
            .map(BenchCell::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version,
            git_sha: get(&v, "git_sha", Text::decode)?,
            tier: get(&v, "tier", Text::decode)?,
            created_unix: get(&v, "created_unix", Int::decode)?,
            scale: get(&v, "scale", Real::decode)?,
            eval_runs: get(&v, "eval_runs", Int::decode)?,
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
        // A κ past u32 is refused, not wrapped (2^32 + 1 would read as 1).
        let one = BenchReport::new("quick", &ScaleConfig::default(), vec![sample_cell("a")]);
        let text = one.to_json_string();
        let wide = text.replace("\"kappa\": 1,", "\"kappa\": 4294967297,");
        assert_ne!(text, wide);
        assert!(matches!(
            BenchReport::from_json_str(&wide),
            Err(SchemaError::Field(k)) if k == "kappa"
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
