//! Fig. 3(a–d): total regret (log scale in the paper) vs attention bound
//! κ ∈ {1..5}, at λ ∈ {0, 0.5}, on the FLIXSTER- and EPINIONS-like data
//! sets, for all four algorithms.
//!
//! Expected shape (paper §6.1): TIRM < GREEDY-IRIE ≪ MYOPIC ≈ MYOPIC+;
//! TIRM's regret falls as κ grows, the myopic baselines' regret rises
//! (more seeds → more uncontrolled virality → larger overshoot).

use tirm_bench::{banner, run_quality_cell, write_json, AlgoKind, QualityWorkload};
use tirm_core::report::{fnum, Table};
use tirm_workloads::DatasetKind;

fn main() {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Flixster, DatasetKind::Epinions] {
        let w = QualityWorkload::new(kind, 0xf163 + kind as u64);
        banner(&format!("fig3: {}", kind.name()), &w.cfg);
        for lambda in [0.0, 0.5] {
            let mut t = Table::new(&["kappa", "Myopic", "Myopic+", "IRIE", "TIRM"]);
            for kappa in 1..=5u32 {
                let mut cells = vec![kappa.to_string()];
                for algo in AlgoKind::ALL {
                    let row = run_quality_cell(&w, algo, kappa, lambda, 0x5eed);
                    eprintln!(
                        "  {} λ={lambda} κ={kappa} {}: regret={:.1} ({:.1}% of budget) seeds={} in {:.1}s",
                        kind.name(),
                        algo.name(),
                        row.total_regret,
                        100.0 * row.relative_regret,
                        row.total_seeds,
                        row.runtime_s
                    );
                    cells.push(fnum(row.total_regret));
                    rows.push(row);
                }
                t.row(cells);
            }
            println!(
                "\nFig. 3 — {} (lambda = {lambda}): total regret vs attention bound",
                kind.name()
            );
            println!("{}", t.render());
        }
    }
    write_json("fig3", &rows.into());
}
