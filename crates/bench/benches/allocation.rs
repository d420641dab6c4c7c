//! Micro-benchmark: end-to-end allocation cost of each algorithm on a
//! small quality workload (the per-cell cost behind Figs. 3–4), and what
//! TIRM costs the online layer per event: a cold run against a warm
//! re-run of the same instance (`-- tirm` shows the three TIRM cases).

use criterion::{criterion_group, criterion_main, Criterion};
use tirm_bench::{allocate, QualityWorkload};
use tirm_core::{tirm_allocate_warm, AdSeeds};
use tirm_topics::CtpTable;
use tirm_workloads::tirm_options;
use tirm_workloads::{AllocatorKind, DatasetKind};

fn bench_allocation(c: &mut Criterion) {
    std::env::set_var("TIRM_SCALE", "0.15");
    let w = QualityWorkload::new(DatasetKind::Flixster, 0xbe9c);
    std::env::remove_var("TIRM_SCALE");

    let mut group = c.benchmark_group("allocation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    for (name, kind) in [
        ("myopic", AllocatorKind::Myopic),
        ("myopic_plus", AllocatorKind::MyopicPlus),
        ("tirm", AllocatorKind::Tirm),
        ("greedy_irie", AllocatorKind::GreedyIrie),
    ] {
        group.bench_function(name, |b| {
            let p = w.problem(1, 0.0);
            let tirm = tirm_options(true, 1);
            b.iter(|| {
                allocate(kind, &p, true, tirm, w.cfg.eval_runs, None)
                    .0
                    .total_seeds()
            })
        });
    }
    group.finish();
}

/// The online layer's unit of work at κ = 1: the full interleaved greedy
/// over the live ads, re-run on the capital the previous run handed back
/// (cached RR sets, width caches, remembered KPT answers). 6 ads on the
/// quick tier's EPINIONS graph; the cold case is the same instance from
/// nothing.
fn bench_warm_rerun(c: &mut Criterion) {
    const ADS: usize = 6;
    std::env::set_var("TIRM_SCALE", "0.08");
    let mut w = QualityWorkload::new(DatasetKind::Epinions, 0xbe9c);
    std::env::remove_var("TIRM_SCALE");
    w.ads.truncate(ADS);
    w.ctp = CtpTable::uniform_random(w.dataset.graph.num_nodes(), ADS, 0.01, 0.03, 0xc7b);
    let p = w.problem(1, 0.0);
    let opts = tirm_options(true, 1);
    let plan: Vec<AdSeeds> = (0..ADS as u64)
        .map(|id| AdSeeds::for_ad_id(opts.seed, id))
        .collect();

    let mut group = c.benchmark_group("allocation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("tirm_cold_run", |b| {
        b.iter(|| {
            let cold = (0..ADS).map(|_| None).collect();
            tirm_allocate_warm(&p, opts, &plan, cold).0.total_seeds()
        })
    });
    group.bench_function("tirm_warm_rerun", |b| {
        let cold = (0..ADS).map(|_| None).collect();
        let mut warm: Vec<_> = tirm_allocate_warm(&p, opts, &plan, cold)
            .2
            .into_iter()
            .map(Some)
            .collect();
        b.iter(|| {
            let (alloc, _, out) = tirm_allocate_warm(&p, opts, &plan, std::mem::take(&mut warm));
            warm = out.into_iter().map(Some).collect();
            alloc.total_seeds()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_allocation, bench_warm_rerun);
criterion_main!(benches);
