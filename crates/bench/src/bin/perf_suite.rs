//! Scenario-matrix perf suite: runs every cell of a tier's grid with
//! fixed seeds and writes a versioned `BENCH_<git-sha>.json` artifact —
//! per cell the deterministic payload (θ, seeds, regret, revenue, memory)
//! that `bench_diff` compares exactly, plus the allocation's `wall_s`,
//! which is reported and never compared (`benchmark/` is the instrument
//! for time).
//!
//! ```text
//! cargo run -p tirm_bench --bin perf_suite --release -- --tier quick
//! ```
//!
//! Flags:
//! * `--tier quick|full|paper|online|serving` — which grid (default `quick`;
//!   `paper` is the Table-1-scale scalability grid — LIVEJOURNAL at 4.8M
//!   nodes, MC evaluation skipped; `online` is the event-stream serving
//!   grid — cells replay generated campaign streams through the
//!   `tirm_online` engine; `serving` is the network frontend grid — each
//!   cell boots a real `tirm_server` on loopback and drives it with the
//!   load generator; both evaluate the final allocation).
//! * `--out PATH`        — artifact path (default
//!   `target/experiments/BENCH_<sha>.json`, honouring
//!   `TIRM_EXPERIMENTS_DIR`).
//! * `--filter SUBSTR`   — only run cells whose id contains SUBSTR.
//! * `--seed N`          — base seed (default fixed; change to probe
//!   seed-sensitivity of the whole matrix).
//! * `--list`            — print the tier's cell ids and exit.
//!
//! `TIRM_SCALE` / `TIRM_EVAL_RUNS` / `TIRM_THREADS` override the tier's
//! fidelity defaults. `TIRM_SNAPSHOT_DIR` enables the dataset snapshot
//! cache: graphs + probabilities are generated once, then loaded from
//! binary snapshots on later runs (the progress log says which, and how
//! long it took).

use std::path::PathBuf;
use std::process::ExitCode;
use tirm_bench::schema::git_sha;
use tirm_bench::suite::{run_suite, SuiteConfig};
use tirm_bench::{banner, experiments_dir};
use tirm_core::report::{fnum, Table};
use tirm_workloads::Tier;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf_suite [--tier quick|full|paper|online|serving] [--out PATH] [--filter SUBSTR] [--seed N] [--list]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut tier = Tier::Quick;
    let mut out: Option<PathBuf> = None;
    let mut filter: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut list = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tier" => match args.next().as_deref().and_then(Tier::parse) {
                Some(t) => tier = t,
                None => return usage("--tier expects quick|full|paper|online|serving"),
            },
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage("--out expects a path"),
            },
            "--filter" => match args.next() {
                Some(f) => filter = Some(f),
                None => return usage("--filter expects a substring"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage("--seed expects an integer"),
            },
            "--list" => list = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if list {
        for spec in tier.matrix() {
            println!("{}", spec.id());
        }
        return ExitCode::SUCCESS;
    }

    let mut cfg = SuiteConfig::from_env(tier);
    cfg.filter = filter;
    if let Some(s) = seed {
        cfg.base_seed = s;
    }
    banner(&format!("perf_suite tier={}", tier.name()), &cfg.scale);

    let report = run_suite(&cfg);

    let mut t = Table::new(&["cell", "alloc s", "θ", "seeds", "regret", "mem MB"]);
    for c in &report.cells {
        t.row(vec![
            c.id.clone(),
            fnum(c.wall_s),
            c.theta.to_string(),
            c.total_seeds.to_string(),
            fnum(c.total_regret),
            fnum(c.memory_bytes as f64 / 1e6),
        ]);
    }
    println!(
        "\nperf_suite — {} tier, {} cells",
        tier.name(),
        report.cells.len()
    );
    println!("{}", t.render());

    let path = out.unwrap_or_else(|| experiments_dir().join(format!("BENCH_{}.json", git_sha())));
    match report.save(&path) {
        Ok(()) => {
            eprintln!("[json] {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: writing {} failed: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}
