//! One workload run: prepare the inputs once, play R independent
//! rounds, reduce them with the estimators of the noise protocol, check
//! the outputs, and — when asked — trace one more round and the ladder.

use crate::batch::{self, BatchOut};
use crate::estimators::{
    best_composite, max, median, min, per_position_best, round_spread, tail_percentile,
};
use crate::inputs::{Fnv, Inputs, Sizes, Workload};
use crate::ladder::{self, LadderOut};
use crate::procs::{server_binary, TempDir};
use crate::report::{Metrics, RunRecord, PER_LAYER};
use crate::serve::{self, Env, RoundOut};
use crate::trace::Tracer;
use std::io;
use std::path::PathBuf;
use tirm_core::RegretReport;
use tirm_online::{AllocationSnapshot, EventKind};

/// The `--seconds` the sizes were calibrated for (`run_seconds` of
/// `BENCHMARK.json`).
pub const NOMINAL_SECONDS: u32 = 20;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: scales the number of rounds, never the work of one.
    pub seconds: u32,
    /// `--trace 1`.
    pub traced: bool,
    /// `--smoke`: tiny sizes, two rounds, correctness only.
    pub smoke: bool,
}

impl RunConfig {
    /// Rounds of this run: every round does the same fixed work, so a
    /// longer `--seconds` buys more rounds for the best-of estimators
    /// and leaves every deterministic output as it was. Never below six.
    pub fn rounds(&self) -> usize {
        let nominal = Sizes::of(self.workload, self.smoke).rounds;
        if self.smoke {
            return nominal;
        }
        let scaled = (self.seconds as f64 * nominal as f64 / NOMINAL_SECONDS as f64).round();
        (scaled as usize).clamp(6, 3 * nominal)
    }
}

/// The benchmark's own directory (`benchmark/` of the checkout this
/// executable was built in).
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where every output goes: `benchmark/out/`.
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Fingerprint of a served final state: the allocation payload
/// `same_allocation` compares, bit for bit.
pub fn snapshot_fingerprint(snap: &AllocationSnapshot) -> u64 {
    let mut h = Fnv::default();
    h.word(snap.epoch);
    h.word(snap.kappa as u64);
    h.word(snap.lambda.to_bits());
    h.word(snap.regret_estimate.to_bits());
    for ad in &snap.ads {
        h.word(ad.id);
        h.word(ad.budget.to_bits());
        h.word(ad.cpe.to_bits());
        h.word(ad.revenue_est.to_bits());
        h.word(ad.seeds.len() as u64);
        for &v in &ad.seeds {
            h.bytes(&v.to_le_bytes());
        }
    }
    h.0
}

/// The paper's objective on a served final state.
pub fn snapshot_regret(snap: &AllocationSnapshot) -> f64 {
    RegretReport::new(
        snap.ads
            .iter()
            .map(|a| (a.budget, a.revenue_est, a.seeds.len())),
        snap.lambda,
    )
    .relative_regret()
}

/// One round, whatever the workload, reduced to what the estimators and
/// the checks need.
struct Round {
    out: RoundOut,
    fingerprint: u64,
    /// `batch-tirm`: mean relative regret over the round's allocations.
    /// A served round's regret comes from the run's oracle replay.
    batch_regret: Option<f64>,
    /// Output checks that are per round (attention bound, follower ≡
    /// leader, clean exits).
    valid: bool,
}

fn play_round(
    cfg: &RunConfig,
    inputs: &Inputs,
    env: Option<&Env<'_>>,
    snapshot_dir: &std::path::Path,
    round: usize,
    tr: &mut Tracer,
) -> io::Result<Round> {
    if cfg.workload == Workload::BatchTirm {
        let BatchOut {
            round: out,
            relative_regret,
            fingerprint,
            valid,
            ..
        } = batch::round(snapshot_dir, inputs, cfg.seed, cfg.smoke, tr)?;
        return Ok(Round {
            valid: valid && out.clean_exit,
            out,
            fingerprint,
            batch_regret: Some(relative_regret),
        });
    }
    let env = env.expect("serving workloads run against tirm_server");
    let out = match cfg.workload {
        Workload::ServeReads => serve::reads_round(env, inputs, round, tr)?,
        _ => serve::churn_round(env, inputs, round, tr)?,
    };
    let snap = out
        .final_snapshot
        .as_ref()
        .expect("serving rounds fetch the final allocation");
    Ok(Round {
        fingerprint: snapshot_fingerprint(snap),
        batch_regret: None,
        valid: out.follower_equal && out.clean_exit,
        out,
    })
}

/// The end-to-end estimators (README, N3) over the untraced rounds:
/// every timing is taken position by position from the round that was
/// least disturbed there.
fn end_to_end(rounds: &[Round], relative_regret: f64) -> Metrics {
    let per_round =
        |f: fn(&RoundOut) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(&r.out)).collect() };
    let by_position = |f: fn(&RoundOut) -> Vec<f64>| -> Vec<Vec<f64>> {
        rounds.iter().map(|r| f(&r.out)).collect()
    };
    let first = &rounds[0].out;
    let units: f64 = first.chunks.iter().map(|c| c.units).sum();
    let wall_s = best_composite(&by_position(|o| {
        o.chunks.iter().map(|c| c.wall_s).collect()
    }));
    let cpu_s = best_composite(&by_position(|o| o.op_cpu_s.clone()))
        + best_composite(&by_position(|o| o.chunks.iter().map(|c| c.cpu_s).collect()));
    let mut m = Metrics::default();
    m.set(
        "setup_s",
        best_composite(&by_position(|o| o.setup_phases_s.clone())),
    );
    m.set(
        "latency_ms_p50",
        median(&per_position_best(&by_position(|o| o.latencies_ms.clone()))),
    );
    m.set("throughput_per_s", units / wall_s);
    m.set("cpu_ms_per_op", cpu_s * 1e3 / first.cpu_ops.max(1.0));
    m.set("peak_rss_mb", median(&per_round(|o| o.peak_rss_mb)));
    m.set("relative_regret", relative_regret);
    m
}

fn p50_where<K: PartialEq + Copy>(
    rounds: &[Round],
    pick: fn(&RoundOut) -> &[(K, f64)],
    key: K,
) -> f64 {
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| pick(&r.out).iter())
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .collect();
    median(&pooled)
}

/// Per-layer metrics the served rounds observed from outside.
fn served_layers(rounds: &[Round], traced: &Round, m: &mut Metrics) {
    let per_round =
        |f: fn(&RoundOut) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(&r.out)).collect() };
    let pooled = |f: fn(&RoundOut) -> &[f64]| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| f(&r.out).iter().copied())
            .collect()
    };
    let first = &rounds[0].out.side;
    m.set("server.boot_s", median(&per_round(|o| o.side.boot_s)));
    m.set("server.preload_s", median(&per_round(|o| o.side.preload_s)));
    m.set(
        "server.shutdown_s",
        median(&per_round(|o| o.side.shutdown_s)),
    );
    m.set("server.cpu_s", median(&per_round(|o| o.side.leader_cpu_s)));
    m.set(
        "server.accept_us_p50",
        median(&pooled(|o| &o.side.accept_us)),
    );
    for (kind, name) in [
        (EventKind::Arrival, "server.visible_ms_p50.arrival"),
        (EventKind::TopUp, "server.visible_ms_p50.topup"),
        (EventKind::Departure, "server.visible_ms_p50.departure"),
    ] {
        m.set(name, p50_where(rounds, |o| &o.side.visible_ms, kind));
    }
    for (kind, name) in [
        ("allocation", "server.read_us_p50.allocation"),
        ("ad", "server.read_us_p50.ad"),
        ("regret", "server.read_us_p50.regret"),
        ("stats", "server.read_us_p50.stats"),
    ] {
        m.set(name, p50_where(rounds, |o| &o.side.read_us, kind));
    }
    if let Some(stats) = &first.stats {
        m.set("server.shed", stats.shed as f64);
        m.set("server.rejected", stats.rejected as f64);
    }
    let depth = rounds
        .iter()
        .filter_map(|r| r.out.side.stats.as_ref())
        .map(|s| s.max_queue_depth as f64)
        .collect::<Vec<_>>();
    m.set("server.queue_depth_max", max(&depth));
    let reg = first.registry;
    m.set("server.snapshot_publishes", reg.snapshot_publishes as f64);
    m.set("server.checkpoints", reg.checkpoints as f64);
    if reg.wal_events > 0 && reg.fsyncs > 0 {
        m.set(
            "wal.fsyncs_per_event",
            reg.fsyncs as f64 / reg.wal_events as f64,
        );
        m.set(
            "wal.batch_events_mean",
            reg.wal_events as f64 / reg.fsyncs as f64,
        );
    }
    m.set("replica.frames_shipped", reg.frames_shipped as f64);
    let bootstrap_s = min(&per_round(|o| o.side.bootstrap_s));
    m.set(
        "replica.bootstrap_s",
        median(&per_round(|o| o.side.bootstrap_s)),
    );
    m.set("replica.bootstrap_mb", first.bootstrap_mb);
    if bootstrap_s > 0.0 {
        m.set(
            "replica.bootstrap_mb_per_s",
            first.bootstrap_mb / bootstrap_s,
        );
    }
    m.set("replica.lag_ms_p50", median(&traced.out.side.lag_ms));
    m.set(
        "replica.lag_frames_max",
        max(&per_round(|o| o.side.lag_frames_max as f64)),
    );
    m.set(
        "replica.follower_read_us_p50",
        median(&pooled(|o| &o.side.follower_read_us)),
    );
    m.set(
        "replica.cpu_s",
        median(&per_round(|o| o.side.follower_cpu_s)),
    );
    m.set(
        "obs.metrics_scrape_ms",
        median(&per_round(|o| o.side.metrics_scrape_ms)),
    );
    m.set("obs.metrics_bytes", first.metrics_bytes);
    m.set(
        "bench.poll_granularity_us",
        median(&pooled(|o| &o.side.poll_gap_us)),
    );
}

/// The benchmark's own layer: tails, how noisy the rounds were, what the
/// ladder leaves unexplained, what tracing cost.
fn bench_layers(
    cfg: &RunConfig,
    rounds: &[Round],
    traced: &Round,
    ladder: &LadderOut,
    tracer: &Tracer,
    m: &mut Metrics,
) {
    let per_round =
        |f: fn(&RoundOut) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(&r.out)).collect() };
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.out.latencies_ms.iter().copied())
        .collect();
    m.set("bench.latency_ms_p95", tail_percentile(&pooled, 0.95));
    m.set("bench.latency_ms_p99", tail_percentile(&pooled, 0.99));
    m.set(
        "bench.round_spread.setup_s",
        round_spread(&per_round(|o| o.setup_s()), true),
    );
    let round_p50: Vec<f64> = rounds.iter().map(|r| median(&r.out.latencies_ms)).collect();
    m.set(
        "bench.round_spread.latency_ms_p50",
        round_spread(&round_p50, true),
    );
    m.set(
        "bench.round_spread.throughput_per_s",
        round_spread(&per_round(|o| o.throughput_per_s()), false),
    );
    m.set(
        "bench.round_spread.cpu_ms_per_op",
        round_spread(&per_round(|o| o.cpu_ms_per_op()), true),
    );
    m.set("bench.trace_spans", tracer.spans().len() as f64);
    // One traced round against one typical untraced round.
    let typical_p50 = median(&round_p50);
    if typical_p50 > 0.0 {
        m.set(
            "bench.trace_overhead_share",
            median(&traced.out.latencies_ms) / typical_p50 - 1.0,
        );
    }
    let attempted: u64 = rounds.iter().map(|r| r.out.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.out.failed).sum();
    m.set(
        "bench.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );

    // What the ladder explains of the one-in-flight segment's time to
    // visible, position by position.
    if matches!(cfg.workload, Workload::ServeChurn | Workload::ReplicaFollow) {
        // The ladder is one pass, so it is held against the typical
        // round (per-position median), not the best one.
        let positions = rounds
            .iter()
            .map(|r| r.out.latencies_ms.len())
            .min()
            .unwrap_or(0);
        let typical: Vec<f64> = (0..positions)
            .map(|i| {
                let at: Vec<f64> = rounds.iter().map(|r| r.out.latencies_ms[i]).collect();
                median(&at)
            })
            .collect();
        let visible_ns: f64 = typical.iter().map(|ms| ms * 1e6).sum();
        let take = typical.len();
        let ladder_ns: f64 = ladder.ladder_ns_per_op.iter().take(take).sum::<u64>() as f64;
        let process_ns: f64 = ladder.process_ns_per_op.iter().take(take).sum::<u64>() as f64;
        if visible_ns > 0.0 {
            m.set("bench.unattributed_share", 1.0 - ladder_ns / visible_ns);
            m.set("online.process_share", process_ns / visible_ns);
        }
    }
}

/// Runs one workload and returns its record. `Err` is an I/O failure of
/// the benchmark itself; wrong outputs come back as `correct: false`.
pub fn run_workload(cfg: &RunConfig) -> io::Result<RunRecord> {
    let started = std::time::Instant::now();
    let out = out_dir()?;
    let tmp = TempDir::create(&out, "run")?;
    let snapshot_dir = tmp.path().join("snapshots");
    std::fs::create_dir_all(&snapshot_dir)?;
    let inputs = Inputs::generate(cfg.workload, cfg.seed, cfg.smoke);
    let dataset = inputs.prepare_dataset(&snapshot_dir);
    let input_fingerprint = inputs.fingerprint(&dataset);

    let server_bin = match cfg.workload {
        Workload::BatchTirm => None,
        _ => Some(server_binary()?),
    };
    let env = server_bin.as_deref().map(|bin| Env {
        server_bin: bin,
        snapshot_dir: &snapshot_dir,
        scratch: tmp.path(),
    });

    let prepared_s = started.elapsed().as_secs_f64();
    let mut quiet = Tracer::disabled();
    let mut rounds = Vec::new();
    for r in 0..cfg.rounds() {
        rounds.push(play_round(
            cfg,
            &inputs,
            env.as_ref(),
            &snapshot_dir,
            r,
            &mut quiet,
        )?);
    }

    let played_s = started.elapsed().as_secs_f64();

    // Output checks, in every run. Each failed one is named on stderr.
    let mut correct = true;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("check failed: {}: {what}", cfg.workload.name());
        }
        correct &= ok;
    };
    check(
        rounds.iter().all(|r| r.valid),
        "attention bound, follower ≡ leader, or a child's exit status",
    );
    check(
        rounds
            .iter()
            .all(|r| r.fingerprint == rounds[0].fingerprint),
        "final-state fingerprints differ between rounds",
    );
    // The oracle: the same log replayed inside this process. The served
    // final state has to equal its final state; the regret it passed
    // through on the way is the run's `relative_regret`.
    let relative_regret = if let Some(regret) = rounds[0].batch_regret {
        regret
    } else {
        let (oracle, mean_regret) = ladder::replay(&inputs, &dataset);
        let served = rounds[0].out.final_snapshot.as_ref();
        check(
            served.is_some_and(|s| s.same_allocation(&oracle)),
            "served final state differs from the in-process replay of the same log",
        );
        mean_regret
    };

    let e2e = end_to_end(&rounds, relative_regret);
    check(
        e2e.0.values().all(|(v, _)| v.is_finite() && *v > 0.0),
        "an end-to-end metric is not a positive finite number",
    );
    let mut per_layer = Metrics::default();
    if cfg.traced {
        let mut tracer = Tracer::enabled();
        let traced = play_round(
            cfg,
            &inputs,
            env.as_ref(),
            &snapshot_dir,
            rounds.len(),
            &mut tracer,
        )?;
        check(
            traced.valid && traced.fingerprint == rounds[0].fingerprint,
            "the traced round ended in another state than the untraced ones",
        );
        let ladder = match cfg.workload {
            Workload::BatchTirm => ladder::batch_ladder(&inputs, &dataset, &mut tracer),
            _ => ladder::serve_ladder(&inputs, &dataset, tmp.path(), &mut tracer)?,
        };
        for (name, _, _) in PER_LAYER {
            per_layer.set(name, 0.0);
        }
        per_layer.0.extend(ladder.metrics.0.clone());
        // What every program child pays first: the warm snapshot load.
        let loads: Vec<f64> = (0..3)
            .map(|_| inputs.load_dataset(&snapshot_dir).1.warm_s)
            .collect();
        per_layer.set("graph.snapshot_load_s", median(&loads));
        if cfg.workload != Workload::BatchTirm {
            served_layers(&rounds, &traced, &mut per_layer);
        }
        bench_layers(cfg, &rounds, &traced, &ladder, &tracer, &mut per_layer);
        std::fs::write(
            out.join(format!("trace-{}.json", cfg.workload.name())),
            tracer.to_chrome_json(),
        )?;
    }
    // Where the run's own time went (the driver's hour is 92 of these).
    eprintln!(
        "# {}: inputs {prepared_s:.1} s, {} rounds {:.1} s, checks and trace {:.1} s",
        cfg.workload.name(),
        rounds.len(),
        played_s - prepared_s,
        started.elapsed().as_secs_f64() - played_s,
    );
    Ok(RunRecord {
        workload: cfg.workload.name().to_string(),
        seed: cfg.seed,
        rounds: rounds.len(),
        traced: cfg.traced,
        correct,
        attempted: rounds.iter().map(|r| r.out.attempted).sum(),
        failed: rounds.iter().map(|r| r.out.failed).sum(),
        fingerprint: format!("{:016x}", rounds[0].fingerprint),
        input_fingerprint: format!("{input_fingerprint:016x}"),
        end_to_end: e2e,
        per_layer,
    })
}
