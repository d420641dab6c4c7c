//! Frame decode cost, one case per shape a served run decodes most:
//!
//! * **allocation** — a 16-ad body with 11 520 seeds (~70 kB), the
//!   `allocation` read every `serve-reads` client pays to decode;
//! * **stats** — the flattened 18-field `stats` body behind every poll;
//! * **arrival** — the largest mutation, as the server and the WAL
//!   recovery read it;
//! * **log_line** — the same arrival as one JSONL event-log line, read by
//!   `log_from_jsonl` with the wire's own event reader.
//!
//! `cargo bench -p tirm_bench --bench wire_decode` gives a local number
//! for wire work that needs no benchmark run.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tirm_online::{AdSnapshot, AllocationSnapshot, OnlineEvent};
use tirm_server::protocol::{Request, Response, Role, StatsView};
use tirm_topics::TopicDist;
use tirm_workloads::events::{log_from_jsonl, log_to_jsonl, LogEvent};

const ADS: u32 = 16;
const SEEDS_PER_AD: u32 = 720;

/// The allocation body: float fields with no short decimal form, seeds
/// spread over a 60 k-node graph.
fn allocation_body() -> String {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let ads = (1..=ADS)
        .map(|id| AdSnapshot {
            id: u64::from(id),
            budget: 100.0 + f64::from(id) / 3.0,
            cpe: 2.5 + f64::from(id) / 7.0,
            seeds: (0..SEEDS_PER_AD)
                .map(|_| (next() % 60_000) as u32)
                .collect(),
            revenue_est: 97.0 + f64::from(id) / 11.0,
        })
        .collect();
    let snapshot = AllocationSnapshot {
        epoch: 4_211,
        kappa: 1,
        lambda: 0.1 + 0.2,
        ads,
        regret_estimate: std::f64::consts::PI * 100.0,
        total_rr_sets: 1_600_000,
        engine_memory_bytes: 48 << 20,
        stats: Default::default(),
    };
    Response::Allocation(snapshot).encode()
}

fn stats_body() -> String {
    Response::Stats(StatsView {
        epoch: 4_211,
        wal_seq: 4_211,
        live_ads: 16,
        total_seeds: 11_520,
        total_rr_sets: 1_600_000,
        engine_memory_bytes: 48 << 20,
        queue_depth: 1,
        max_queue_depth: 7,
        accepted: 4_250,
        shed: 2,
        rejected: 1,
        bad_requests: 0,
        connections: 5,
        role: Role::Leader,
        fencing_epoch: 2,
        leader_seq: 4_211,
        shed_total: 2,
        rejected_total: 1,
    })
    .encode()
}

fn arrival() -> OnlineEvent {
    OnlineEvent::AdArrival {
        id: 17,
        budget: 412.817_363_281_25,
        cpe: 4.0 / 3.0,
        topics: TopicDist::concentrated(10, 3, 0.91),
        ctp: 0.021_7,
    }
}

fn bench_wire_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_decode");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_secs(3));

    let allocation = allocation_body();
    g.throughput(Throughput::Bytes(allocation.len() as u64));
    g.bench_function("allocation_16_ads_11520_seeds", |b| {
        b.iter(|| Response::decode(black_box(allocation.as_bytes())).is_ok())
    });
    let stats = stats_body();
    g.throughput(Throughput::Bytes(stats.len() as u64));
    g.bench_function("stats", |b| {
        b.iter(|| Response::decode(black_box(stats.as_bytes())).is_ok())
    });
    let body = Request::Mutate(arrival()).encode();
    g.throughput(Throughput::Bytes(body.len() as u64));
    g.bench_function("arrival", |b| {
        b.iter(|| Request::decode(black_box(body.as_bytes())).is_ok())
    });
    let line = log_to_jsonl(&[LogEvent {
        at: 1_234.567_8,
        event: arrival(),
    }]);
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("log_line", |b| {
        b.iter(|| log_from_jsonl(black_box(&line)).is_ok())
    });
    g.finish();
}

criterion_group!(benches, bench_wire_decode);
criterion_main!(benches);
