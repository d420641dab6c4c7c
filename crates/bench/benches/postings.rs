//! Micro-benchmarks for the RR hot path's storage/compute layers:
//!
//! * **Forward store** — [`RrIndex::push_set`] of 100 k sets shaped
//!   like the `serve-churn` workload's (1 200 nodes, 1.44 members a set
//!   on average), the same pushes followed by the one
//!   [`RrIndex::compact`] that places their postings (what a cold ad's
//!   θ₀ batch costs before its first decay), and 300 k random
//!   [`RrIndex::set`] reads over them: the read cost the coverage
//!   overlay pays per activated or decayed set.
//! * **Unpark** — [`RrSets::into_index`] over the same 100 k sets: the
//!   postings rebuild a pool reclaim pays for a parked shard.
//! * **Postings scan** — traversing every node's posting list through
//!   the one exact-fit CSR of [`RrIndex`] vs the legacy
//!   one-`Vec`-per-node layout. The coverage overlays spend their time
//!   exactly here, so this is the locality story in isolation.
//! * **Sampler inner loop** — the threshold-batched BFS
//!   ([`RrSampler::sample_with`]) vs the float-coin path
//!   ([`RrSampler::sample`]), with and without the degree-ordered mark
//!   relabeling, all on `SmallRng`. All three variants draw the exact
//!   same RR sets (pinned by the rrset tests); the delta is pure
//!   per-arc cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use tirm_graph::NodeId;
use tirm_rrset::{FastPath, RrIndex, RrSampler, RrSets, SampleWorkspace, SamplingLayout};
use tirm_workloads::{Dataset, DatasetKind, ScaleConfig};

const NODES: usize = 4096;
const SETS: usize = 8192;
const SET_SIZE: usize = 16;

/// The same synthetic membership stream materialised both ways: the
/// compacted index and the legacy per-node `Vec` layout.
fn build_layouts() -> (RrIndex, Vec<Vec<u32>>) {
    let mut idx = RrIndex::new(NODES);
    let mut legacy: Vec<Vec<u32>> = vec![Vec::new(); NODES];
    let mut members = [0u32; SET_SIZE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for sid in 0..SETS as u32 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let base = (x >> 33) as usize;
        let stride = ((x >> 7) as usize & 0x1ff) | 1;
        for (j, m) in members.iter_mut().enumerate() {
            *m = ((base + j * stride) % NODES) as u32;
        }
        idx.push_set(&members);
        for &m in &members {
            legacy[m as usize].push(sid);
        }
    }
    idx.compact();
    (idx, legacy)
}

const STORE_NODES: u32 = 1200;
const STORE_SETS: usize = 100_000;
const STORE_READS: usize = 300_000;

/// 100 k duplicate-free sets over [`STORE_NODES`] nodes with
/// `1 + Geometric(0.3056)` members (mean 1.44), flattened, plus the
/// random set ids the read benchmark visits.
fn store_stream() -> (Vec<u32>, Vec<NodeId>, Vec<u32>) {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut offsets = vec![0u32];
    let mut nodes: Vec<NodeId> = Vec::new();
    for _ in 0..STORE_SETS {
        let start = nodes.len();
        loop {
            let v = (next() % STORE_NODES as u64) as NodeId;
            if !nodes[start..].contains(&v) {
                nodes.push(v);
            }
            // Continue with probability 1 − 1/1.44.
            if next() % 10_000 >= 3056 {
                break;
            }
        }
        offsets.push(nodes.len() as u32);
    }
    let reads = (0..STORE_READS)
        .map(|_| (next() % STORE_SETS as u64) as u32)
        .collect();
    (offsets, nodes, reads)
}

fn bench_forward_store(c: &mut Criterion) {
    let (offsets, nodes, reads) = store_stream();
    let sets: Vec<&[NodeId]> = offsets
        .windows(2)
        .map(|w| &nodes[w[0] as usize..w[1] as usize])
        .collect();

    let mut g = c.benchmark_group("forward_store");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(criterion::Throughput::Elements(STORE_SETS as u64));
    g.bench_function("push_set_100k", |b| {
        b.iter(|| {
            let mut idx = RrIndex::new(STORE_NODES as usize);
            for s in &sets {
                idx.push_set(black_box(s));
            }
            idx
        })
    });
    g.bench_function("push_and_index_100k", |b| {
        b.iter(|| {
            let mut idx = RrIndex::new(STORE_NODES as usize);
            for s in &sets {
                idx.push_set(black_box(s));
            }
            idx.compact();
            idx
        })
    });
    let mut idx = RrIndex::new(STORE_NODES as usize);
    for s in &sets {
        idx.push_set(s);
    }
    g.throughput(criterion::Throughput::Elements(STORE_READS as u64));
    g.bench_function("random_set_reads_300k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &sid in &reads {
                for v in idx.set(black_box(sid)) {
                    acc = acc.wrapping_add(u64::from(v));
                }
            }
            acc
        })
    });
    g.finish();

    // A shard as the pool parks it: postings dropped.
    let parked: RrSets = idx.into_sets();
    let mut g = c.benchmark_group("unpark");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(criterion::Throughput::Elements(STORE_SETS as u64));
    g.bench_function("into_index_100k", |b| {
        b.iter_batched(
            || parked.clone(),
            |sets| sets.into_index(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_postings_scan(c: &mut Criterion) {
    let (idx, legacy) = build_layouts();
    let entries = idx.total_entries() as u64;

    let mut g = c.benchmark_group("postings_scan");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(criterion::Throughput::Elements(entries));
    g.bench_function("csr", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in 0..NODES as u32 {
                for &s in idx.postings(v) {
                    acc = acc.wrapping_add(s as u64);
                }
            }
            acc
        })
    });
    g.bench_function("legacy_vec_per_node", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for list in &legacy {
                for &s in list {
                    acc = acc.wrapping_add(s as u64);
                }
            }
            acc
        })
    });
    g.finish();
}

fn bench_sampler_inner_loop(c: &mut Criterion) {
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

    let mut g = c.benchmark_group("sampler_inner_loop");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(4));
    g.throughput(criterion::Throughput::Elements(1000));
    g.bench_function("float_coins", |b| {
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
    let identity = FastPath::new(Arc::new(SamplingLayout::identity()), &d.graph, &probs);
    g.bench_function("thresholds_identity_layout", |b| {
        b.iter_batched(
            || (SampleWorkspace::new(n), SmallRng::seed_from_u64(7)),
            |(mut ws, mut rng)| {
                let mut total = 0usize;
                for _ in 0..1000 {
                    total += sampler.sample_with(&identity, &mut ws, &mut rng).len();
                }
                total
            },
            BatchSize::SmallInput,
        )
    });
    let relabeled = FastPath::new(
        Arc::new(SamplingLayout::degree_ordered(&d.graph)),
        &d.graph,
        &probs,
    );
    g.bench_function("thresholds_degree_layout", |b| {
        b.iter_batched(
            || (SampleWorkspace::new(n), SmallRng::seed_from_u64(7)),
            |(mut ws, mut rng)| {
                let mut total = 0usize;
                for _ in 0..1000 {
                    total += sampler.sample_with(&relabeled, &mut ws, &mut rng).len();
                }
                total
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_forward_store,
    bench_postings_scan,
    bench_sampler_inner_loop
);
criterion_main!(benches);
