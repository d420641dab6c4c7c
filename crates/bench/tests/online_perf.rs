//! Acceptance check for the online serving layer: processing an
//! `AdArrival` on a *warm* index must beat a cold full TIRM
//! re-allocation of the same final ad set by ≥ 10× — the whole point of
//! keeping the inverted RR index alive. Run in release (minutes-scale in
//! debug):
//!
//! ```text
//! cargo test --release -p tirm_bench -- --ignored online_warm_arrival
//! ```

use std::time::Instant;
use tirm_core::{
    tirm_allocate_seeded, AdSeeds, Advertiser, Attention, ProblemInstance, TirmOptions,
};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_topics::{CtpTable, TopicDist};
use tirm_workloads::{Dataset, DatasetKind, ProbModel, ScaleConfig};

fn quality_opts(seed: u64) -> TirmOptions {
    TirmOptions {
        eps: 0.1,
        seed,
        max_theta_per_ad: Some(50_000),
        ..TirmOptions::default()
    }
}

fn ad_params(i: u64, size_ratio: f64) -> (f64, f64, TopicDist, f32) {
    // Table-2-style EPINIONS campaign, scaled to the generated graph.
    let budget = (150.0 + 20.0 * i as f64) * size_ratio;
    let cpe = 3.0;
    let topics = TopicDist::concentrated(10, (i as usize) % 10, 0.91);
    (budget, cpe, topics, 0.02)
}

#[test]
#[ignore = "perf acceptance: run in release, takes ~a minute"]
fn online_warm_arrival_is_10x_faster_than_cold_batch() {
    // κ above the ad count: the attention bound genuinely cannot bind,
    // so no other ad's trajectory can move and the warm run replays
    // every one of them from the record — the scenario this acceptance
    // criterion measures. (Under contention the replay stops earlier;
    // the `online` bench tier's κ = 1 cells track that cost.)
    const KAPPA: u32 = 24;
    const EXISTING: u64 = 16;
    let scale = ScaleConfig {
        scale: 0.08, // the quick tier's dataset fidelity
        eval_runs: 0,
        threads: 1,
    };
    let dataset = Dataset::generate_with_model(
        DatasetKind::Epinions,
        ProbModel::Exponential,
        &scale,
        0x71a6_5eed,
    );
    let opts = quality_opts(0xbeef);
    let mut online = OnlineAllocator::new(
        &dataset.graph,
        &dataset.topic_probs,
        OnlineConfig {
            tirm: opts,
            kappa: KAPPA,
            ..OnlineConfig::default()
        },
    );

    // Warm up: `EXISTING` campaigns arrive and are allocated (each
    // arrival samples its own RR capital once).
    for id in 1..=EXISTING {
        let (budget, cpe, topics, ctp) = ad_params(id, dataset.size_ratio);
        online
            .process(&OnlineEvent::AdArrival {
                id,
                budget,
                cpe,
                topics,
                ctp,
            })
            .unwrap();
    }
    assert!(online.allocation().total_seeds() > 0, "warm-up allocated");

    // The measured event: one more arrival on the warm index.
    let arriving = EXISTING + 1;
    let (budget, cpe, topics, ctp) = ad_params(arriving, dataset.size_ratio);
    let t0 = Instant::now();
    let outcome = online
        .process(&OnlineEvent::AdArrival {
            id: arriving,
            budget,
            cpe,
            topics: topics.clone(),
            ctp,
        })
        .unwrap();
    let warm_s = t0.elapsed().as_secs_f64();
    assert!(
        outcome.fast_path,
        "the measured arrival must leave the allocation contention-free (stats: {:?})",
        online.stats()
    );

    // The yardstick: cold full TIRM on the identical final
    // (EXISTING + 1)-ad problem.
    let n = dataset.graph.num_nodes();
    let ids: Vec<u64> = (1..=arriving).collect();
    let ads: Vec<Advertiser> = ids
        .iter()
        .map(|&id| {
            let (budget, cpe, topics, _) = ad_params(id, dataset.size_ratio);
            Advertiser::new(budget, cpe, topics)
        })
        .collect();
    let probs: Vec<Vec<f32>> = ads
        .iter()
        .map(|a| dataset.topic_probs.project(&a.topics))
        .collect();
    let ctp_table = CtpTable::direct(
        ids.iter()
            .map(|&id| vec![ad_params(id, dataset.size_ratio).3; n])
            .collect(),
    );
    let problem = ProblemInstance::new(
        &dataset.graph,
        ads,
        probs,
        ctp_table,
        Attention::Uniform(KAPPA),
        0.0,
    );
    let plan: Vec<AdSeeds> = ids
        .iter()
        .map(|&id| AdSeeds::for_ad_id(opts.seed, id))
        .collect();
    let t1 = Instant::now();
    let (batch, _) = tirm_allocate_seeded(&problem, opts, &plan);
    let cold_s = t1.elapsed().as_secs_f64();

    // Quality anchor at scale: the warm event landed on the exact batch
    // allocation.
    let online_alloc = online.allocation();
    for i in 0..ids.len() {
        assert_eq!(
            online_alloc.seeds(i),
            batch.seeds(i),
            "warm result must be bit-identical to cold batch (ad {i})"
        );
    }

    let speedup = cold_s / warm_s;
    eprintln!(
        "warm AdArrival {:.4}s vs cold full TIRM {:.2}s: {speedup:.1}x \
         (index: {} sets, {:.1} MB)",
        warm_s,
        cold_s,
        online.total_rr_sets(),
        online.memory_bytes() as f64 / 1e6
    );
    assert!(
        speedup >= 10.0,
        "warm arrival must be ≥10x faster than cold batch: \
         warm {warm_s:.4}s vs cold {cold_s:.4}s ({speedup:.1}x)"
    );
}
