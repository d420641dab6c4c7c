//! Table 3: number of *distinct* nodes targeted at least once vs attention
//! bound κ, at λ = 0, for all four algorithms on both quality data sets.
//!
//! Expected shape (paper §6.1): MYOPIC targets every node regardless of κ;
//! MYOPIC+ and the virality-aware algorithms need fewer distinct nodes as
//! κ grows (each node becomes "more available"); TIRM/IRIE use orders of
//! magnitude fewer nodes than the myopic baselines.

use tirm_bench::{banner, run_quality_cell, write_json, AlgoKind, QualityWorkload};
use tirm_core::report::Table;
use tirm_workloads::DatasetKind;

fn main() {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Flixster, DatasetKind::Epinions] {
        let w = QualityWorkload::new(kind, 0x7ab3 + kind as u64);
        banner(&format!("table3: {}", kind.name()), &w.cfg);
        let mut t = Table::new(&["algorithm", "k=1", "k=2", "k=3", "k=4", "k=5"]);
        // Row-major: one line per algorithm like the paper's Table 3.
        for algo in [
            AlgoKind::Tirm,
            AlgoKind::GreedyIrie,
            AlgoKind::Myopic,
            AlgoKind::MyopicPlus,
        ] {
            let mut cells = vec![algo.name().to_string()];
            for kappa in 1..=5u32 {
                let row = run_quality_cell(&w, algo, kappa, 0.0, 0x5eed);
                eprintln!(
                    "  {} {} κ={kappa}: {} distinct nodes ({} seeds)",
                    kind.name(),
                    algo.name(),
                    row.distinct_targeted,
                    row.total_seeds
                );
                cells.push(row.distinct_targeted.to_string());
                rows.push(row);
            }
            t.row(cells);
        }
        println!(
            "\nTable 3 — {} (lambda = 0): distinct nodes targeted vs kappa",
            kind.name()
        );
        println!("{}", t.render());
    }
    write_json("table3", &rows.into());
}
