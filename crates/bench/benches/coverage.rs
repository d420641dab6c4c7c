//! Micro-benchmark: coverage-index maintenance (TIRM's seed-commit path:
//! add_set / decay_node over a realistic RR collection; `δ = 1` is the
//! paper's hard cover).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tirm_rrset::{RrSampler, SampleWorkspace, WeightedRrCollection};
use tirm_workloads::{Dataset, DatasetKind, ScaleConfig};

fn build_collection(d: &Dataset, probs: &[f32], sets: usize) -> WeightedRrCollection {
    let sampler = RrSampler::new(&d.graph, probs);
    let mut ws = SampleWorkspace::new(d.graph.num_nodes());
    let mut rng = SmallRng::seed_from_u64(5);
    let mut coll = WeightedRrCollection::new(d.graph.num_nodes());
    for _ in 0..sets {
        coll.add_set(sampler.sample(&mut ws, &mut rng));
    }
    coll
}

fn bench_coverage(c: &mut Criterion) {
    let cfg = ScaleConfig {
        scale: 0.25,
        eval_runs: 100,
        threads: 1,
    };
    let d = Dataset::generate(DatasetKind::Flixster, &cfg, 2);
    let ad = tirm_topics::TopicDist::concentrated(10, 0, 0.91);
    let probs = d.topic_probs.project(&ad);

    let mut group = c.benchmark_group("coverage");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("add_50k_sets", |b| {
        b.iter(|| build_collection(&d, &probs, 50_000).num_sets())
    });
    group.bench_function("greedy_cover_100_seeds", |b| {
        b.iter_batched(
            || build_collection(&d, &probs, 50_000),
            |mut coll| {
                let mut covered = 0.0;
                for _ in 0..100 {
                    if let Some((v, _)) = coll.argmax_score(|_| true) {
                        covered += coll.decay_node(v, 1.0);
                    }
                }
                covered
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_coverage);
criterion_main!(benches);
