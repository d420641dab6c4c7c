//! Fig. 6(a–d): scalability — running time of TIRM and GREEDY-IRIE on the
//! DBLP-like network (vs number of advertisers h, and vs per-advertiser
//! budget) and of TIRM on the LIVEJOURNAL-like network (same two sweeps).
//!
//! Setup follows §6.2: Weighted-Cascade probabilities, CPE = CTP = 1,
//! λ = 0, κ = 1, ε = 0.2, all ads identical (full competition).
//! GREEDY-IRIE is skipped on LIVEJOURNAL-like inputs exactly as in the
//! paper ("excluded due to its huge running time") unless
//! `TIRM_FIG6_IRIE_LJ=1`.
//!
//! Expected shape: TIRM scales ~linearly in h and stays roughly flat vs
//! budget; GREEDY-IRIE grows super-linearly vs budget and is an order of
//! magnitude slower at moderate h.
//!
//! Cells run through `tirm_bench::suite` and the artifact is a schema
//! [`BenchReport`] (`fig6.json`): the figure itself is the cells' `wall_s`,
//! which `bench_diff` never compares — diffing two `fig6.json` files
//! checks that the sweep's seeds, θ and memory did not drift.

use tirm_bench::schema::{BenchCell, BenchReport};
use tirm_bench::suite::run_scalability_cell;
use tirm_bench::{banner, write_report};
use tirm_core::report::{fnum, Table};
use tirm_workloads::{AllocatorKind, Dataset, DatasetKind, ProbModel, ScaleConfig};

fn run_cell(
    d: &Dataset,
    algo: AllocatorKind,
    sweep: &str,
    h: usize,
    budget: f64,
    cells: &mut Vec<BenchCell>,
) -> f64 {
    // `sweep` disambiguates the h-sweep's h=5 point from the budget
    // sweep's base-budget point (same parameters, measured twice) — cell
    // ids must stay unique join keys within one artifact.
    let id = format!(
        "FIG6/{sweep}/{}/wc/{}/h{}/B{:.0}",
        d.kind.name(),
        algo.name(),
        h,
        budget
    );
    let cell = run_scalability_cell(id, d, algo, h, budget, 0x5ca1e);
    eprintln!(
        "  {} {} h={h} B={budget:.0}: {:.1}s, {} seeds, {:.2} GB, {} RR sets",
        d.kind.name(),
        algo.name(),
        cell.wall_s,
        cell.total_seeds,
        cell.memory_bytes as f64 / 1e9,
        cell.theta
    );
    let secs = cell.wall_s;
    cells.push(cell);
    secs
}

fn main() {
    let cfg = ScaleConfig::from_env();
    let mut cells: Vec<BenchCell> = Vec::new();
    let irie_on_lj = std::env::var("TIRM_FIG6_IRIE_LJ").is_ok_and(|v| v == "1");

    for kind in [DatasetKind::Dblp, DatasetKind::LiveJournal] {
        // Snapshot-cached when TIRM_SNAPSHOT_DIR is set — at full scale
        // the graphs here dominate setup time.
        let (d, _) = Dataset::load_or_generate_env(
            kind,
            ProbModel::canonical(kind),
            &cfg,
            0x5ca1e + kind as u64,
        );
        banner(
            &format!(
                "fig6: {} ({} nodes, {} edges)",
                kind.name(),
                d.graph.num_nodes(),
                d.graph.num_edges()
            ),
            &cfg,
        );
        // Per-advertiser budgets, scaled like the paper's (5K on DBLP,
        // 80K on LIVEJOURNAL, at their original sizes).
        let base_budget = match kind {
            DatasetKind::Dblp => 5_000.0 * d.size_ratio,
            _ => 80_000.0 * d.size_ratio,
        };
        let algos: &[AllocatorKind] = match kind {
            DatasetKind::Dblp => &[AllocatorKind::Tirm, AllocatorKind::GreedyIrie],
            _ if irie_on_lj => &[AllocatorKind::Tirm, AllocatorKind::GreedyIrie],
            _ => &[AllocatorKind::Tirm],
        };

        // (a)/(c): vary h with fixed budget.
        let mut t = Table::new(&["h", "TIRM (s)", "IRIE (s)"]);
        for h in [1usize, 5, 10, 15, 20] {
            let mut row = vec![h.to_string()];
            for algo in [AllocatorKind::Tirm, AllocatorKind::GreedyIrie] {
                if algos.contains(&algo) {
                    let secs = run_cell(&d, algo, "h", h, base_budget, &mut cells);
                    row.push(fnum(secs));
                } else {
                    row.push("-".into());
                }
            }
            t.row(row);
        }
        println!(
            "\nFig. 6 — {}: running time vs number of advertisers (B = {:.0})",
            kind.name(),
            base_budget
        );
        println!("{}", t.render());

        // (b)/(d): vary budget with h = 5.
        let mut t = Table::new(&["budget", "TIRM (s)", "IRIE (s)"]);
        let sweep: Vec<f64> = match kind {
            DatasetKind::Dblp => [2_000.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0]
                .iter()
                .map(|b| b * d.size_ratio)
                .collect(),
            _ => [50_000.0, 100_000.0, 150_000.0, 200_000.0, 250_000.0]
                .iter()
                .map(|b| b * d.size_ratio)
                .collect(),
        };
        for budget in sweep {
            let mut row = vec![fnum(budget)];
            for algo in [AllocatorKind::Tirm, AllocatorKind::GreedyIrie] {
                if algos.contains(&algo) {
                    let secs = run_cell(&d, algo, "B", 5, budget, &mut cells);
                    row.push(fnum(secs));
                } else {
                    row.push("-".into());
                }
            }
            t.row(row);
        }
        println!(
            "\nFig. 6 — {}: running time vs per-advertiser budget (h = 5)",
            kind.name()
        );
        println!("{}", t.render());
    }

    let report = BenchReport::new("fig6", &cfg, cells);
    write_report("fig6", &report);
}
