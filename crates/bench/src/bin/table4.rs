//! Table 4: memory usage (GB) of TIRM and GREEDY-IRIE vs number of
//! advertisers h, on the scalability data sets (§6.2 setup).
//!
//! Expected shape: TIRM's RR-set collections dominate and grow steadily
//! with h (the paper reports 2.59 → 60.8 GB on DBLP at full scale);
//! GREEDY-IRIE needs only a few node-length vectors (0.16 → 0.84 GB).
//! Absolute numbers here scale with the generated graph sizes and the
//! configured per-ad θ cap; the TIRM ≫ IRIE gap and the near-linear
//! growth in h are the reproduced claims.
//!
//! Cells run through `tirm_bench::suite` and the artifact is a schema
//! [`BenchReport`] (`table4.json`); its `memory_bytes` are deterministic,
//! so two runs at one scale pass `bench_diff` exactly.

use tirm_bench::schema::{BenchCell, BenchReport};
use tirm_bench::suite::run_scalability_cell;
use tirm_bench::{banner, write_report};
use tirm_core::report::Table;
use tirm_workloads::{AllocatorKind, Dataset, DatasetKind, ProbModel, ScaleConfig};

fn measure(
    d: &Dataset,
    algo: AllocatorKind,
    h: usize,
    budget: f64,
    cells: &mut Vec<BenchCell>,
) -> usize {
    let id = format!("TABLE4/{}/wc/{}/h{}", d.kind.name(), algo.name(), h);
    let cell = run_scalability_cell(id, d, algo, h, budget, 0x7ab4);
    let bytes = cell.memory_bytes;
    cells.push(cell);
    bytes
}

fn main() {
    let cfg = ScaleConfig::from_env();
    let mut cells: Vec<BenchCell> = Vec::new();
    for kind in [DatasetKind::Dblp, DatasetKind::LiveJournal] {
        // Snapshot-cached when TIRM_SNAPSHOT_DIR is set (same cache key
        // family as fig6 — the seed matches deliberately).
        let (d, _) = Dataset::load_or_generate_env(
            kind,
            ProbModel::canonical(kind),
            &cfg,
            0x5ca1e + kind as u64,
        );
        banner(&format!("table4: {}", kind.name()), &cfg);
        let base_budget = match kind {
            DatasetKind::Dblp => 5_000.0 * d.size_ratio,
            _ => 80_000.0 * d.size_ratio,
        };
        let mut t = Table::new(&["h", "TIRM (GB)", "IRIE (GB)"]);
        for h in [1usize, 5, 10, 15, 20] {
            let tirm_b = measure(&d, AllocatorKind::Tirm, h, base_budget, &mut cells);
            // The paper skips GREEDY-IRIE on LIVEJOURNAL (too slow); its
            // memory is the IRIE state alone, which we can still measure
            // on DBLP-like inputs.
            let irie_b = if kind == DatasetKind::Dblp {
                Some(measure(
                    &d,
                    AllocatorKind::GreedyIrie,
                    h,
                    base_budget,
                    &mut cells,
                ))
            } else {
                None
            };
            eprintln!(
                "  {} h={h}: TIRM {:.3} GB{}",
                kind.name(),
                tirm_b as f64 / 1e9,
                irie_b
                    .map(|b| format!(", IRIE {:.4} GB", b as f64 / 1e9))
                    .unwrap_or_default()
            );
            t.row(vec![
                h.to_string(),
                format!("{:.3}", tirm_b as f64 / 1e9),
                irie_b
                    .map(|b| format!("{:.4}", b as f64 / 1e9))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        println!("\nTable 4 — {}: memory usage vs h", kind.name());
        println!("{}", t.render());
    }
    let report = BenchReport::new("table4", &cfg, cells);
    write_report("table4", &report);
}
