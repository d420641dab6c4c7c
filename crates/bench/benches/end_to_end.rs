//! Macro-benchmark: one full quality cell — workload generation,
//! allocation and MC evaluation (what one Fig. 3 data point costs).

use criterion::{criterion_group, criterion_main, Criterion};
use tirm_bench::{run_quality_cell, QualityWorkload};
use tirm_workloads::{AllocatorKind, DatasetKind};

fn bench_end_to_end(c: &mut Criterion) {
    std::env::set_var("TIRM_SCALE", "0.1");
    std::env::set_var("TIRM_EVAL_RUNS", "1000");
    let w = QualityWorkload::new(DatasetKind::Epinions, 0xe2e);
    std::env::remove_var("TIRM_SCALE");
    std::env::remove_var("TIRM_EVAL_RUNS");

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("quality_cell_tirm", |b| {
        b.iter(|| run_quality_cell(&w, AllocatorKind::Tirm, 1, 0.0, 7).total_regret)
    });
    group.bench_function("quality_cell_myopic_plus", |b| {
        b.iter(|| run_quality_cell(&w, AllocatorKind::MyopicPlus, 1, 0.0, 7).total_regret)
    });
    group.finish();

    // Allocation-only (no MC evaluation): TIRM with serial vs parallel
    // RR-set sampling, isolating the sampling engine's contribution.
    let mut group = c.benchmark_group("tirm_allocation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    for threads in [1usize, 4] {
        group.bench_function(format!("epinions_q_{threads}t").as_str(), |b| {
            let problem = w.problem(1, 0.0);
            let mut opts = tirm_workloads::tirm_options(true, 7);
            opts.threads = threads;
            b.iter(|| tirm_core::tirm_allocate(&problem, opts).1.total_seeds())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
