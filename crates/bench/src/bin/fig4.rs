//! Fig. 4(a–d): total regret vs penalty λ ∈ {0, 0.1, 0.5, 1}, at
//! κ ∈ {1, 5}, on the FLIXSTER- and EPINIONS-like data sets.
//!
//! Expected shape (paper §6.1): regret grows with λ for every algorithm;
//! the algorithm ordering stays TIRM < IRIE ≪ MYOPIC/MYOPIC+, and TIRM
//! remains strong even at λ = 1 (showing Theorem 2's λ-assumption is
//! conservative).

use tirm_bench::{banner, run_quality_cell, write_json, AlgoKind, QualityWorkload};
use tirm_core::report::{fnum, Table};
use tirm_workloads::DatasetKind;

fn main() {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Flixster, DatasetKind::Epinions] {
        let w = QualityWorkload::new(kind, 0xf164 + kind as u64);
        banner(&format!("fig4: {}", kind.name()), &w.cfg);
        for kappa in [1u32, 5] {
            let mut t = Table::new(&["lambda", "Myopic", "Myopic+", "IRIE", "TIRM"]);
            for lambda in [0.0, 0.1, 0.5, 1.0] {
                let mut cells = vec![format!("{lambda}")];
                for algo in AlgoKind::ALL {
                    let row = run_quality_cell(&w, algo, kappa, lambda, 0x5eed);
                    eprintln!(
                        "  {} κ={kappa} λ={lambda} {}: regret={:.1} seeds={} in {:.1}s",
                        kind.name(),
                        algo.name(),
                        row.total_regret,
                        row.total_seeds,
                        row.runtime_s
                    );
                    cells.push(fnum(row.total_regret));
                    rows.push(row);
                }
                t.row(cells);
            }
            println!(
                "\nFig. 4 — {} (kappa = {kappa}): total regret vs lambda",
                kind.name()
            );
            println!("{}", t.render());
        }
    }
    write_json("fig4", &rows.into());
}
