//! Micro-benchmark: RR-set sampling throughput (the inner loop of TIRM's
//! sampling phase) on an EPINIONS-shaped graph.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tirm_rrset::{
    ParallelSampler, RrSampler, SampleWorkspace, SamplingConfig, WeightedRrCollection,
};
use tirm_workloads::{Dataset, DatasetKind, ScaleConfig};

fn bench_rr_sampling(c: &mut Criterion) {
    let cfg = ScaleConfig {
        scale: 0.25,
        eval_runs: 100,
        threads: 1,
    };
    let d = Dataset::generate(DatasetKind::Epinions, &cfg, 1);
    let ad = tirm_topics::TopicDist::concentrated(10, 0, 0.91);
    let probs = d.topic_probs.project(&ad);
    let sampler = RrSampler::new(&d.graph, &probs);
    let n = d.graph.num_nodes();

    let mut g = c.benchmark_group("rr_sampling");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(criterion::Throughput::Elements(1000));
    g.bench_function("sample_1000_rr_sets", |b| {
        b.iter_batched(
            || (SampleWorkspace::new(n), SmallRng::seed_from_u64(7)),
            |(mut ws, mut rng)| {
                let mut total = 0usize;
                for _ in 0..1000 {
                    total += sampler.sample(&mut ws, &mut rng).len();
                }
                total
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("sample_1000_rrc_sets", |b| {
        let ctp = vec![0.02f32; n];
        b.iter_batched(
            || (SampleWorkspace::new(n), SmallRng::seed_from_u64(7)),
            |(mut ws, mut rng)| {
                let mut total = 0usize;
                for _ in 0..1000 {
                    total += sampler.sample_rrc(&ctp, &mut ws, &mut rng).len();
                }
                total
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();

    // Parallel engine throughput: the same θ batch drawn at 1 / 4 / all
    // cores through ParallelSampler (arena sharding + ordered merge).
    let theta = 20_000usize;
    let mut g = c.benchmark_group("rr_sampling_parallel");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(criterion::Throughput::Elements(theta as u64));
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let mut counts = vec![1usize, 2, 4, hw];
    counts.sort_unstable();
    counts.dedup();
    for threads in counts {
        g.bench_function(format!("sample_{theta}_rr_sets_{threads}t").as_str(), |b| {
            b.iter_batched(
                || {
                    // Fresh engine + collection: measure the full batch cost.
                    let engine = ParallelSampler::new(SamplingConfig::new(threads, 7), n);
                    (engine, WeightedRrCollection::new(n))
                },
                |(mut engine, mut coll)| {
                    engine.sample_into(&sampler, theta, &mut coll);
                    coll.num_sets()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_rr_sampling);
criterion_main!(benches);
