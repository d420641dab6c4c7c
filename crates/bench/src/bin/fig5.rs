//! Fig. 5(a–b): distribution of individual budget-regrets — the signed
//! slack `revenue − budget` per advertisement — for TIRM vs GREEDY-IRIE at
//! λ = 0, κ = 5.
//!
//! Expected shape (paper §6.1): on FLIXSTER both overshoot but TIRM's
//! distribution is much flatter; on EPINIONS GREEDY-IRIE undershoots on
//! most ads (its spread over-estimation terminates Greedy prematurely)
//! while TIRM stays slightly above zero.

use tirm_bench::{banner, run_quality_cell, write_json, AlgoKind, QualityWorkload};
use tirm_core::report::{fnum, Table};
use tirm_workloads::DatasetKind;

fn main() {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Flixster, DatasetKind::Epinions] {
        let w = QualityWorkload::new(kind, 0xf165 + kind as u64);
        banner(&format!("fig5: {}", kind.name()), &w.cfg);
        let mut per_algo = Vec::new();
        for algo in [AlgoKind::GreedyIrie, AlgoKind::Tirm] {
            let row = run_quality_cell(&w, algo, 5, 0.0, 0x5eed);
            per_algo.push(row.clone());
            rows.push(row);
        }
        let mut t = Table::new(&["ad", "IRIE rev-budget", "TIRM rev-budget"]);
        let h = per_algo[0].slack_per_ad.len();
        for i in 0..h {
            t.row(vec![
                i.to_string(),
                fnum(per_algo[0].slack_per_ad[i]),
                fnum(per_algo[1].slack_per_ad[i]),
            ]);
        }
        println!(
            "\nFig. 5 — {} (lambda = 0, kappa = 5): revenue − budget per ad",
            kind.name()
        );
        println!("{}", t.render());
        for r in &per_algo {
            let spread = r
                .slack_per_ad
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            println!(
                "{}: slack range [{:.1}, {:.1}], |range| {:.1}",
                r.algo,
                spread.0,
                spread.1,
                spread.1 - spread.0
            );
        }
    }
    write_json("fig5", &rows.into());
}
