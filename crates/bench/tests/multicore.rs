//! Multicore acceptance tier — the parallel hot path measured on real
//! cores, not simulated ones.
//!
//! Every test here is `#[ignore]`d and additionally self-gates on
//! `available_parallelism() ≥ 4`: the PR CI container is 1-CPU, where a
//! 4-thread speedup assertion is meaningless. The nightly `multicore`
//! job runs them with
//!
//! ```text
//! cargo test --release -p tirm_bench --test multicore -- --ignored --nocapture
//! ```
//!
//! and uploads the `BENCH_multicore.json` artifact the suite-cell test
//! writes under `target/experiments/` (override via
//! `TIRM_EXPERIMENTS_DIR`).
//!
//! Acceptance floors (release builds on ≥4 idle cores):
//! * [`parallel_sampler_scales_on_four_threads`] — the RR sampling
//!   engine must clear **1.6×** at 4 threads over 1 (arena sharding +
//!   ordered merge; the merge and the shared frontier are the only
//!   serial parts).
//! * [`tirm_cells_speed_up_with_threads`] — end-to-end TIRM allocation
//!   cells at t4 vs t1 must clear 1.3× (sampling dominates but
//!   selection is serial).
//! * [`server_keeps_reading_under_a_grinding_writer`] — the serving
//!   cell's reader pool must make progress on every connection while
//!   mutations grind at 4 allocator threads.

use tirm_bench::schema::BenchReport;
use tirm_bench::suite::{run_scenario, run_serving_cell, SuiteConfig};
use tirm_bench::write_report;
use tirm_rrset::{ParallelSampler, RrCollection, RrSampler, SamplingConfig};
use tirm_workloads::{AllocatorKind, Dataset, ScaleConfig, Tier};

/// True when the machine can honestly measure a 4-thread speedup.
fn multicore() -> bool {
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if cpus < 4 {
        eprintln!("skipping: multicore acceptance needs ≥4 CPUs, found {cpus}");
        return false;
    }
    true
}

/// Best-of-`reps` wall time of `f` — the minimum is the least noisy
/// estimator of the true cost on a shared machine.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "multicore acceptance: needs ≥4 CPUs, run via the nightly multicore job"]
fn parallel_sampler_scales_on_four_threads() {
    if !multicore() {
        return;
    }
    let cfg = ScaleConfig {
        scale: 0.25,
        eval_runs: 0,
        threads: 1,
    };
    let d = Dataset::generate(tirm_workloads::DatasetKind::Epinions, &cfg, 1);
    let ad = tirm_topics::TopicDist::concentrated(10, 0, 0.91);
    let probs = d.topic_probs.project(&ad);
    let sampler = RrSampler::new(&d.graph, &probs);
    let n = d.graph.num_nodes();
    let theta = 120_000usize;

    let time_at = |threads: usize| {
        best_of(3, || {
            let mut engine = ParallelSampler::new(SamplingConfig::new(threads, 7), n);
            let mut coll = RrCollection::new(n);
            let drawn = engine.sample_into(&sampler, theta, &mut coll);
            assert_eq!(drawn, theta);
        })
    };
    let t1 = time_at(1);
    let t4 = time_at(4);
    let speedup = t1 / t4;
    eprintln!("parallel sampler: t1={t1:.3}s t4={t4:.3}s speedup={speedup:.2}x");
    assert!(
        speedup >= 1.6,
        "4-thread RR sampling must clear 1.6x over 1 thread, got {speedup:.2}x \
         (t1={t1:.3}s, t4={t4:.3}s)"
    );
}

#[test]
#[ignore = "multicore acceptance: needs ≥4 CPUs, run via the nightly multicore job"]
fn tirm_cells_speed_up_with_threads() {
    if !multicore() {
        return;
    }
    let cfg = SuiteConfig::from_env(Tier::Quick);
    let spec = Tier::Quick
        .matrix()
        .into_iter()
        .find(|s| s.allocator == AllocatorKind::Tirm && !s.online && !s.serving)
        .expect("quick tier has a batch TIRM cell");

    let mut cells = Vec::new();
    let mut wall_at = |threads: usize| {
        let mut spec = spec;
        spec.threads = threads;
        // Warm-up + measured run: the first run pays dataset generation
        // and page faults; the second is the comparable number.
        let _ = run_scenario(&spec, &cfg.scale, cfg.base_seed);
        let cell = run_scenario(&spec, &cfg.scale, cfg.base_seed);
        let wall = cell.wall_s;
        cells.push(cell);
        wall
    };
    let w1 = wall_at(1);
    let w4 = wall_at(4);
    let speedup = w1 / w4;
    eprintln!(
        "tirm cell {}: t1={w1:.3}s t4={w4:.3}s speedup={speedup:.2}x",
        spec.id()
    );

    write_report(
        "BENCH_multicore",
        &BenchReport::new("multicore", &cfg.scale, cells),
    );
    assert!(
        speedup >= 1.3,
        "4-thread TIRM allocation must clear 1.3x over 1 thread, got {speedup:.2}x \
         (t1={w1:.3}s, t4={w4:.3}s)"
    );
}

#[test]
#[ignore = "multicore acceptance: needs ≥4 CPUs, run via the nightly multicore job"]
fn server_keeps_reading_under_a_grinding_writer() {
    if !multicore() {
        return;
    }
    let cfg = SuiteConfig::from_env(Tier::Quick);
    let mut spec = Tier::Quick
        .matrix()
        .into_iter()
        .find(|s| s.serving)
        .expect("quick tier has a serving cell");
    spec.threads = 4;
    let dataset = Dataset::generate_with_model(
        spec.dataset,
        spec.model,
        &cfg.scale,
        spec.problem_seed(cfg.base_seed),
    );
    // `run_serving_cell` itself asserts that every reader connection
    // made progress while the writer ground through the mutation stream;
    // returning at all is the acceptance: the read path stays live at 4
    // threads.
    let cell = run_serving_cell(&dataset, &spec, &cfg.scale, cfg.base_seed);
    eprintln!("serving cell {}: served in {:.2}s", cell.id, cell.wall_s);
}
