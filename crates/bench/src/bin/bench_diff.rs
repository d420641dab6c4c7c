//! Baseline regression gate: compares two `BENCH_*.json` artifacts and
//! exits non-zero when the new one regresses, printing a markdown table.
//!
//! ```text
//! cargo run -p tirm_bench --bin bench_diff --release -- \
//!     baselines/BENCH_quick.json target/experiments/BENCH_<sha>.json
//! ```
//!
//! Exit codes: `0` no regressions, `1` regressions found, `2` usage or
//! decode error. Wall-clock metrics are only compared when both artifacts
//! were measured on the same machine class (identical env fingerprints) —
//! pass `--force-time` to compare anyway. Deterministic metrics (θ,
//! seeds, regret, memory accounting) are always compared.
//!
//! Flags: `--time-tol F` (default 0.15), `--min-time-s F` (default 0.05),
//! `--time-slack-s F` (default 0.1), `--mem-tol F` (default 0.25),
//! `--regret-tol F` (default 0.02), `--force-time`.

use std::path::Path;
use std::process::ExitCode;
use tirm_bench::diff::{diff_reports, DiffOptions};
use tirm_bench::schema::BenchReport;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bench_diff OLD.json NEW.json [--time-tol F] [--min-time-s F] \
         [--time-slack-s F] [--mem-tol F] [--regret-tol F] [--force-time]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let float_flag =
            |target: &mut f64, name: &str, raw: Option<String>| -> Result<(), String> {
                match raw.and_then(|s| s.parse::<f64>().ok()) {
                    Some(v) if v >= 0.0 => {
                        *target = v;
                        Ok(())
                    }
                    _ => Err(format!("{name} expects a non-negative float")),
                }
            };
        match arg.as_str() {
            "--time-tol" => {
                if let Err(e) = float_flag(&mut opts.time_rel_tol, "--time-tol", args.next()) {
                    return usage(&e);
                }
            }
            "--min-time-s" => {
                if let Err(e) = float_flag(&mut opts.time_min_s, "--min-time-s", args.next()) {
                    return usage(&e);
                }
            }
            "--time-slack-s" => {
                if let Err(e) =
                    float_flag(&mut opts.time_abs_slack_s, "--time-slack-s", args.next())
                {
                    return usage(&e);
                }
            }
            "--mem-tol" => {
                if let Err(e) = float_flag(&mut opts.mem_rel_tol, "--mem-tol", args.next()) {
                    return usage(&e);
                }
            }
            "--regret-tol" => {
                if let Err(e) = float_flag(&mut opts.regret_rel_tol, "--regret-tol", args.next()) {
                    return usage(&e);
                }
            }
            "--force-time" => opts.force_time = true,
            other if other.starts_with("--") => return usage(&format!("unknown flag {other:?}")),
            path => paths.push(path.to_string()),
        }
    }
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
    println!(
        "### bench_diff: `{}` ({}) → `{}` ({})\n",
        old.git_sha, old.tier, new.git_sha, new.tier
    );
    let d = diff_reports(&old, &new, &opts);
    println!("{}", d.markdown());

    if d.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
