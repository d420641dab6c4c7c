//! Integration tests for the perf-suite backbone: artifact round trips,
//! `bench_diff` fixture pairs, and suite determinism.

use tirm_bench::diff::{diff_cell, diff_reports};
use tirm_bench::schema::{BenchReport, SCHEMA_VERSION};
use tirm_bench::suite::{run_scenario, run_suite, SuiteConfig};
use tirm_workloads::scenarios::{AllocatorKind, Mode, ScenarioSpec, Tier};
use tirm_workloads::{DatasetKind, ProbModel, ScaleConfig};

/// Small enough for debug-build test runs, big enough to exercise the
/// real problem construction and allocators.
fn tiny_scale() -> ScaleConfig {
    ScaleConfig {
        scale: 0.02,
        eval_runs: 20,
        threads: 1,
    }
}

fn spec(dataset: DatasetKind, model: ProbModel, allocator: AllocatorKind) -> ScenarioSpec {
    ScenarioSpec {
        dataset,
        model,
        allocator,
        threads: 1,
        kappa: 1,
        lambda: 0.0,
        seed_cap: None,
        mode: Mode::Batch,
    }
}

fn online_spec(dataset: DatasetKind, model: ProbModel, kappa: u32) -> ScenarioSpec {
    ScenarioSpec {
        kappa,
        mode: Mode::Online,
        ..spec(dataset, model, AllocatorKind::Tirm)
    }
}

fn serving_spec(dataset: DatasetKind, model: ProbModel, kappa: u32) -> ScenarioSpec {
    ScenarioSpec {
        kappa,
        mode: Mode::Serving,
        ..spec(dataset, model, AllocatorKind::Tirm)
    }
}

// ---------------------------------------------------------------- schema

#[test]
fn measured_cells_round_trip_through_the_artifact_format() {
    let cell = run_scenario(
        &spec(
            DatasetKind::Epinions,
            ProbModel::Exponential,
            AllocatorKind::GreedyIrie,
        ),
        &tiny_scale(),
        42,
    );
    let report = BenchReport::new("test", &tiny_scale(), vec![cell]);
    let back = BenchReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(report, back, "measured values must survive JSON exactly");
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    let c = &back.cells[0];
    assert_eq!(c.dataset, "EPINIONS");
    assert_eq!(c.prob_model, "exp");
    assert_eq!(c.allocator, "IRIE");
    assert!(c.nodes >= 64 && c.edges > 0 && c.ads == 10);
}

// ------------------------------------------------------------ bench_diff

/// Builds the (baseline, probe) fixture pair on disk, mutates the probe
/// with `mutate`, and returns the decoded diff.
fn fixture_diff(mutate: impl FnOnce(&mut BenchReport)) -> tirm_bench::diff::DiffReport {
    let cell_a = run_scenario(
        &spec(
            DatasetKind::Flixster,
            ProbModel::TopicConcentrated,
            AllocatorKind::GreedyIrie,
        ),
        &tiny_scale(),
        7,
    );
    let cell_b = run_scenario(
        &spec(
            DatasetKind::Epinions,
            ProbModel::Exponential,
            AllocatorKind::GreedyIrie,
        ),
        &tiny_scale(),
        7,
    );
    let baseline = BenchReport::new("test", &tiny_scale(), vec![cell_a, cell_b]);
    let mut probe = baseline.clone();
    mutate(&mut probe);

    // Through the filesystem, like the real gate.
    let dir = std::env::temp_dir().join(format!("tirm_diff_fixture_{}", std::process::id()));
    let old_path = dir.join("BENCH_old.json");
    let new_path = dir.join("BENCH_new.json");
    baseline.save(&old_path).unwrap();
    probe.save(&new_path).unwrap();
    let old = BenchReport::load(&old_path).unwrap();
    let new = BenchReport::load(&new_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    diff_reports(&old, &new).expect("same tier, scale and eval_runs")
}

#[test]
fn fixture_pair_no_drift() {
    // Wall clock is the one field that may move between two artifacts.
    let d = fixture_diff(|probe| {
        for c in &mut probe.cells {
            c.wall_s *= 10.0;
        }
    });
    assert!(
        d.findings.is_empty(),
        "artifacts differing only in wall_s must pass: {:?}",
        d.findings
    );
    assert_eq!(d.cells_joined, 2);
}

#[test]
fn fixture_pair_one_ulp_of_regret_is_flagged() {
    let d = fixture_diff(|probe| {
        let c = &mut probe.cells[1];
        c.total_regret = f64::from_bits(c.total_regret.to_bits() + 1);
    });
    assert_eq!(d.findings.len(), 1, "{:?}", d.findings);
    assert_eq!(d.findings[0].field, "total_regret");
    assert_eq!(d.findings[0].id, "EPINIONS/exp/IRIE/t1/k1/l0");
}

#[test]
fn fixture_pair_missing_cell_is_flagged() {
    let d = fixture_diff(|probe| {
        probe.cells.pop();
    });
    assert_eq!(d.findings.len(), 1, "{:?}", d.findings);
    assert_eq!(d.findings[0].field, "(cell)");
    assert_eq!(d.cells_joined, 1);
}

#[test]
fn bench_diff_exits_0_when_clean_1_on_drift_2_when_refused() {
    let cell = run_scenario(
        &spec(
            DatasetKind::Epinions,
            ProbModel::Exponential,
            AllocatorKind::GreedyIrie,
        ),
        &tiny_scale(),
        7,
    );
    let base = BenchReport::new("test", &tiny_scale(), vec![cell]);
    let mut drifted = base.clone();
    drifted.cells[0].total_seeds += 1;
    let mut rescaled = base.clone();
    rescaled.scale = 0.3;

    let dir = std::env::temp_dir().join(format!("tirm_diff_exit_{}", std::process::id()));
    let old_path = dir.join("BENCH_old.json");
    base.save(&old_path).unwrap();
    let run = |new: &BenchReport| {
        let new_path = dir.join("BENCH_new.json");
        new.save(&new_path).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench_diff"))
            .args([&old_path, &new_path])
            .output()
            .expect("bench_diff runs");
        let text = [out.stdout, out.stderr].concat();
        (
            out.status.code(),
            String::from_utf8_lossy(&text).into_owned(),
        )
    };
    let (code, text) = run(&base);
    assert_eq!(code, Some(0), "{text}");
    let (code, text) = run(&drifted);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("total_seeds"), "{text}");
    let (code, text) = run(&rescaled);
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("scale differs (0.02 vs 0.3)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------- determinism

#[test]
fn same_seed_same_metric_payload() {
    // Two independent runs of the same cells must agree on every
    // deterministic field; only `wall_s` may differ.
    let scale = tiny_scale();
    let specs = [
        spec(
            DatasetKind::Flixster,
            ProbModel::TopicConcentrated,
            AllocatorKind::Tirm,
        ),
        spec(
            DatasetKind::Dblp,
            ProbModel::WeightedCascade,
            AllocatorKind::GreedyIrie,
        ),
    ];
    for s in &specs {
        let a = run_scenario(s, &scale, 0x71a6_5eed);
        let b = run_scenario(s, &scale, 0x71a6_5eed);
        assert_eq!(diff_cell(&a, &b), [], "non-deterministic payload");
    }
}

#[test]
fn different_base_seed_changes_the_payload() {
    // Sanity check that the determinism test above cannot pass vacuously:
    // the seed must actually steer the measured allocation.
    let s = spec(
        DatasetKind::Flixster,
        ProbModel::TopicConcentrated,
        AllocatorKind::Tirm,
    );
    let scale = tiny_scale();
    let a = run_scenario(&s, &scale, 1);
    let b = run_scenario(&s, &scale, 2);
    let moved: Vec<&str> = diff_cell(&a, &b).iter().map(|f| f.field).collect();
    assert!(moved.contains(&"seed"), "{moved:?}");
    assert!(
        moved.len() > 1,
        "different seeds should perturb some metric: {moved:?}"
    );
}

#[test]
fn snapshot_warm_run_has_identical_metric_payload() {
    // The run-twice determinism contract must survive the snapshot cache:
    // run 1 generates cold and writes snapshots, run 2 loads them warm —
    // the artifacts must not differ. (That run 1 was a miss and run 2 a
    // hit is asserted where the cache lives, `workloads::datasets`.)
    let dir = std::env::temp_dir().join(format!("tirm_suite_snapwarm_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = SuiteConfig {
        tier: Tier::Quick,
        scale: tiny_scale(),
        base_seed: 0x71a6_5eed,
        // Two cells sharing one (dataset, model): the second reuses the
        // in-memory instance.
        filter: Some("EPINIONS/exp".to_string()),
        snapshot_dir: Some(dir.clone()),
    };
    let cold = run_suite(&cfg);
    assert!(cold.cells.len() >= 2, "filter matched {}", cold.cells.len());
    assert!(std::fs::read_dir(&dir).unwrap().next().is_some());
    let warm = run_suite(&cfg);
    std::fs::remove_dir_all(&dir).ok();

    let d = diff_reports(&cold, &warm).unwrap();
    assert_eq!(d.cells_joined, cold.cells.len());
    assert_eq!(
        d.findings,
        [],
        "snapshot-warm run must be bit-identical to cold generation"
    );
}

// -------------------------------------------------------------- online

#[test]
fn online_cell_reports_the_serving_layer() {
    let cell = run_scenario(
        &online_spec(DatasetKind::Epinions, ProbModel::Exponential, 2),
        &tiny_scale(),
        0x71a6_5eed,
    );
    assert!(cell.id.starts_with("ONLINE/"));
    assert_eq!(cell.allocator, "ONLINE");
    assert!(cell.theta > 0, "serving layer holds RR capital");
    assert!(cell.memory_bytes > 0);
    assert!(cell.total_seeds > 0 && cell.wall_s > 0.0);
}

#[test]
fn online_cell_payload_is_deterministic() {
    let s = online_spec(DatasetKind::Epinions, ProbModel::Exponential, 2);
    let scale = tiny_scale();
    let a = run_scenario(&s, &scale, 0x71a6_5eed);
    let b = run_scenario(&s, &scale, 0x71a6_5eed);
    assert_eq!(
        diff_cell(&a, &b),
        [],
        "two replays must agree on every compared field"
    );
}

// -------------------------------------------------------------- serving

#[test]
fn serving_cell_reports_the_network_frontend() {
    // The runner itself asserts the behavioural floor: nothing rejected,
    // every one of the ≥ 4 concurrent reader connections made progress
    // while the writer ground, and the metrics / trace exposition held
    // the run. (The latency-instrumented no-reader-blocks assertion
    // lives in tirm_server's `readers_never_block_on_the_writer`.)
    let cell = run_scenario(
        &serving_spec(DatasetKind::Epinions, ProbModel::Exponential, 2),
        &tiny_scale(),
        0x71a6_5eed,
    );
    assert!(cell.id.starts_with("SERVING/"));
    assert_eq!(cell.allocator, "SERVING");
    // The payload is pinned; the capital behind it depends on batch cuts.
    assert!(
        cell.ads > 0 && cell.distinct_targeted > 0,
        "drained snapshot carries an allocation"
    );
    assert_eq!((cell.theta, cell.memory_bytes), (0, 0));
    assert!(cell.total_seeds > 0 && cell.wall_s > 0.0);
}

#[test]
fn serving_cell_payload_is_deterministic() {
    // Deterministic delivery (retry-on-overload) makes the drained
    // snapshot a pure function of the log: two runs through two real
    // servers on two ports must agree on every compared field.
    let s = serving_spec(DatasetKind::Epinions, ProbModel::Exponential, 2);
    let scale = tiny_scale();
    let a = run_scenario(&s, &scale, 0x71a6_5eed);
    let b = run_scenario(&s, &scale, 0x71a6_5eed);
    assert_eq!(
        diff_cell(&a, &b),
        [],
        "two served runs must agree on every compared field"
    );
}

fn replicated_spec(dataset: DatasetKind, model: ProbModel, kappa: u32) -> ScenarioSpec {
    ScenarioSpec {
        kappa,
        mode: Mode::ServingRepl,
        ..spec(dataset, model, AllocatorKind::Tirm)
    }
}

#[test]
fn replicated_cell_converges() {
    // One real leader + one real WAL-shipping follower: the runner
    // itself asserts that the reader pool exercised the follower and
    // that the follower's final snapshot is bit-identical to the
    // leader's drained one, so this test passing *is* the
    // replication-correctness check at tiny scale.
    let cell = run_scenario(
        &replicated_spec(DatasetKind::Epinions, ProbModel::Exponential, 2),
        &tiny_scale(),
        0x71a6_5eed,
    );
    assert!(cell.id.starts_with("SERVING-REPL/"));
    assert_eq!(cell.allocator, "SERVING-REPL");
    // The payload is pinned; the capital behind it depends on batch cuts.
    assert!(
        cell.ads > 0 && cell.distinct_targeted > 0,
        "drained snapshot carries an allocation"
    );
    assert_eq!((cell.theta, cell.memory_bytes), (0, 0));
    assert!(cell.total_seeds > 0 && cell.wall_s > 0.0);
}

#[test]
fn two_replicated_cells_of_one_spec_run_at_once() {
    // Same spec, same base seed, same process, at the same time: each
    // cell's leader and follower need state dirs of their own, or one
    // cell's WAL lands in the other's and the first to finish deletes
    // the other's dirs mid-run. The runner asserts convergence.
    let s = replicated_spec(DatasetKind::Epinions, ProbModel::Exponential, 2);
    let scale = tiny_scale();
    let [a, b] = std::thread::scope(|sc| {
        [(); 2]
            .map(|()| sc.spawn(|| run_scenario(&s, &scale, 0x71a6_5eed)))
            .map(|h| h.join().expect("replicated cell panicked"))
    });
    assert_eq!(diff_cell(&a, &b), [], "both runs serve the same log");
}

#[test]
fn serving_and_online_cells_agree_on_the_engine() {
    // Same grid point, same seeds: the network cell's drained
    // allocation quality must match what the in-process cell computes —
    // the TCP layer is transport, not allocation policy. (Streams are
    // salted differently, so compare regret magnitudes only via both
    // being finite and the allocations being non-trivial.)
    let scale = tiny_scale();
    let serving = run_scenario(
        &serving_spec(DatasetKind::Epinions, ProbModel::Exponential, 2),
        &scale,
        7,
    );
    let online = run_scenario(
        &online_spec(DatasetKind::Epinions, ProbModel::Exponential, 2),
        &scale,
        7,
    );
    assert_eq!(serving.nodes, online.nodes, "shared problem instance");
    assert_eq!(serving.edges, online.edges);
    assert!(serving.total_seeds > 0 && online.total_seeds > 0);
}

#[test]
fn quick_tier_ids_match_runner_expectations() {
    // Every quick-tier spec must be runnable in principle: ids unique,
    // Greedy capped, and the ≥18-cell coverage the CI gate relies on.
    let specs = Tier::Quick.matrix();
    assert!(specs.len() >= 18);
    for s in &specs {
        if s.allocator == AllocatorKind::Greedy {
            assert!(s.seed_cap.is_some());
        }
    }
}
