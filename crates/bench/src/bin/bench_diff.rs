//! Drift gate: compares two `BENCH_*.json` artifacts field by field and
//! exits non-zero when anything but `wall_s` differs, printing a
//! markdown table of the differences.
//!
//! ```text
//! cargo run -p tirm_bench --bin bench_diff --release -- \
//!     baselines/BENCH_quick.json target/experiments/BENCH_<sha>.json
//! ```
//!
//! Exit codes: `0` no differences, `1` differences found, `2` usage or
//! decode error, or artifacts of different `tier` / `scale` /
//! `eval_runs` (not comparable). The comparison is exact and takes no
//! options: every compared field is deterministic on any machine.

use std::path::Path;
use std::process::ExitCode;
use tirm_bench::diff::diff_reports;
use tirm_bench::schema::BenchReport;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_diff OLD.json NEW.json");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.len() != 2 {
        return usage("expected exactly two artifact paths");
    }
    let load = |p: &str| -> Result<BenchReport, String> {
        BenchReport::load(Path::new(p)).map_err(|e| format!("{p}: {e}"))
    };
    let (old, new) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let d = match diff_reports(&old, &new) {
        Ok(d) => d,
        Err(e) => return usage(&e.to_string()),
    };
    println!(
        "### bench_diff: `{}` → `{}` ({} tier)\n",
        old.git_sha, new.git_sha, new.tier
    );
    println!("{}", d.markdown());

    if d.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
