//! The drift gate's slice of the root test run: the committed quick-tier
//! baseline must be readable by this build, list exactly the quick
//! matrix, and still be what the code computes. Every compared field is
//! deterministic on any machine and in any build profile, so three cells
//! re-run here in a debug build must equal the release-built baseline to
//! the last bit; CI's `bench-regression` job re-runs all of them.

use std::path::Path;
use tirm_bench::diff::diff_cell;
use tirm_bench::schema::{BenchReport, SCHEMA_VERSION};
use tirm_bench::suite::{run_suite, SuiteConfig};
use tirm_workloads::Tier;

fn baseline_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/BENCH_quick.json")
}

fn baseline() -> BenchReport {
    BenchReport::load(&baseline_path())
        .expect("the committed baseline decodes at the current schema")
}

#[test]
fn committed_baseline_re_encodes_to_its_exact_bytes() {
    // The encoder writes what every earlier build wrote: same keys, same
    // order, same number text, same whitespace.
    let text = std::fs::read_to_string(baseline_path()).unwrap();
    let report = BenchReport::from_json_str(&text).unwrap();
    assert_eq!(report.to_json_string(), text);
}

#[test]
fn committed_baseline_lists_the_quick_matrix() {
    let baseline = baseline();
    assert_eq!(baseline.schema_version, SCHEMA_VERSION);
    assert_eq!(baseline.tier, Tier::Quick.name());
    let ids: Vec<&str> = baseline.cells.iter().map(|c| c.id.as_str()).collect();
    let matrix: Vec<String> = Tier::Quick.matrix().iter().map(|s| s.id()).collect();
    assert_eq!(ids, matrix);
}

/// Re-runs the quick-tier cells whose id contains `filter` — spelled
/// out, with no environment overrides: the inputs the baseline was
/// generated from — and checks they are `ids` and equal the baseline.
fn recompute(filter: &str, ids: &[&str]) {
    let baseline = baseline();
    let cfg = SuiteConfig {
        tier: Tier::Quick,
        scale: Tier::Quick.scale_defaults(),
        base_seed: 0x71a6_5eed,
        filter: Some(filter.to_string()),
        snapshot_dir: None,
    };
    let fresh = run_suite(&cfg);
    assert_eq!(
        (fresh.scale, fresh.eval_runs),
        (baseline.scale, baseline.eval_runs)
    );
    let got: Vec<&str> = fresh.cells.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(got, ids);
    for cell in &fresh.cells {
        let committed = baseline.cell(&cell.id).expect("cell is in the baseline");
        assert_eq!(diff_cell(committed, cell), [], "drift in {}", cell.id);
    }
}

#[test]
fn quality_cells_still_compute_the_committed_baseline() {
    recompute(
        "EPINIONS/topic",
        &[
            "EPINIONS/topic/TIRM/t1/k1/l0",
            "EPINIONS/topic/IRIE/t1/k1/l0",
        ],
    );
}

/// The one gated run whose θ grows past θ₀: its postings are merged into
/// a non-empty CSR mid-run (the cell itself asserts the growth).
#[test]
fn growth_cell_still_computes_the_committed_baseline() {
    recompute("GROWTH", &["GROWTH/PA200/t1/k1/l0"]);
}
