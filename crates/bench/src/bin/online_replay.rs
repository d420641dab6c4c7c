//! Replay an event log through the online allocation engine and report
//! per-event-type latency histograms, throughput, and the final regret.
//!
//! ```text
//! # replay the committed example log against an EPINIONS-like network
//! cargo run -p tirm_bench --bin online_replay --release
//!
//! # generate a fresh 200-event log for DBLP, then replay it
//! cargo run -p tirm_bench --bin online_replay --release -- \
//!     --dataset DBLP --gen 200 --out /tmp/dblp.jsonl
//! cargo run -p tirm_bench --bin online_replay --release -- \
//!     --dataset DBLP --log /tmp/dblp.jsonl
//! ```
//!
//! Flags:
//! * `--log PATH`     — event log to replay (default
//!   `examples/event_logs/quick.jsonl`).
//! * `--dataset NAME` — FLIXSTER | EPINIONS | DBLP | LIVEJOURNAL
//!   (default EPINIONS).
//! * `--model NAME`   — topic | exp | wc (default: the dataset's
//!   canonical model).
//! * `--kappa N` / `--lambda F` / `--seed N` — serving parameters
//!   (defaults 2 / 0 / fixed).
//! * `--gen N --out PATH` — generate an N-event stream for the dataset
//!   and write it instead of replaying. Each needs the other.
//! * `--raw-budgets`  — replay log budgets verbatim. By default budgets
//!   are treated as *paper-scale* and multiplied by the generated
//!   graph's size ratio, so one committed log serves every `TIRM_SCALE`.
//! * `--dump-final PATH` — also write the final [`AllocationSnapshot`]
//!   as JSON (atomic temp+rename write; an interrupted run never leaves
//!   a truncated file). The same payload a `tirm_server` allocation
//!   query returns — diff two dumps to compare a wire replay against an
//!   in-process one. A replay-only flag: usage error with `--gen`.
//!
//! Each event is applied as a batch of one and reconciled at once; a
//! `reallocate` line in the log is a no-op batch cut.
//!
//! [`AllocationSnapshot`]: tirm_online::AllocationSnapshot
//!
//! `TIRM_SCALE` / `TIRM_THREADS` scale the run; `TIRM_SNAPSHOT_DIR`
//! warm-starts the dataset from the binary snapshot cache.

use serde_json::json;
use std::path::PathBuf;
use std::process::ExitCode;
use tirm_bench::{banner, tirm_options, write_json};
use tirm_core::report::{fnum, Table};
use tirm_online::{OnlineAllocator, OnlineConfig};
use tirm_workloads::events::{read_log, scale_budgets, write_log};
use tirm_workloads::replay::replay;
use tirm_workloads::{Dataset, DatasetKind, EventStreamSpec, ProbModel, ScaleConfig};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: online_replay [--log PATH] [--dataset NAME] [--model topic|exp|wc] \
         [--kappa N] [--lambda F] [--seed N] [--gen N --out PATH] [--raw-budgets] \
         [--dump-final PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut log_path = PathBuf::from("examples/event_logs/quick.jsonl");
    let mut dataset_kind = DatasetKind::Epinions;
    let mut model: Option<ProbModel> = None;
    let mut kappa = 2u32;
    let mut lambda = 0.0f64;
    let mut seed = 0x0e5e_17f1u64;
    let mut gen: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut raw_budgets = false;
    let mut dump_final: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log" => match args.next() {
                Some(p) => log_path = PathBuf::from(p),
                None => return usage("--log expects a path"),
            },
            "--dataset" => match args.next().as_deref().and_then(DatasetKind::parse) {
                Some(d) => dataset_kind = d,
                None => return usage("--dataset expects FLIXSTER|EPINIONS|DBLP|LIVEJOURNAL"),
            },
            "--model" => match args.next().as_deref().and_then(ProbModel::parse) {
                Some(m) => model = Some(m),
                None => return usage("--model expects topic|exp|wc"),
            },
            "--kappa" => match args.next().and_then(|s| s.parse().ok()) {
                Some(k) if k >= 1 => kappa = k,
                _ => return usage("--kappa expects a positive integer"),
            },
            "--lambda" => match args.next().and_then(|s| s.parse().ok()) {
                Some(l) if l >= 0.0 && f64::is_finite(l) => lambda = l,
                _ => return usage("--lambda expects a non-negative float"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--gen" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => gen = Some(n),
                _ => return usage("--gen expects a positive event count"),
            },
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage("--out expects a path"),
            },
            "--raw-budgets" => raw_budgets = true,
            "--dump-final" => match args.next() {
                Some(p) => dump_final = Some(PathBuf::from(p)),
                None => return usage("--dump-final expects a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    match (gen, &out) {
        (Some(_), None) => return usage("--gen needs --out PATH"),
        (None, Some(_)) => return usage("--out needs --gen N"),
        (Some(_), Some(_)) if dump_final.is_some() => {
            return usage("--dump-final replays a log; it does not combine with --gen")
        }
        _ => {}
    }
    let model = model.unwrap_or_else(|| ProbModel::canonical(dataset_kind));
    let cfg = ScaleConfig::from_env();

    if let (Some(n), Some(out)) = (gen, out) {
        // Logs carry paper-scale budgets; replay scales them onto the
        // generated graph, so the log is TIRM_SCALE-independent.
        let log = EventStreamSpec::for_dataset(dataset_kind, n, seed).generate(1.0);
        return match write_log(&out, &log) {
            Ok(()) => {
                eprintln!("[log] {} ({n} events, paper-scale budgets)", out.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: writing {} failed: {e}", out.display());
                ExitCode::FAILURE
            }
        };
    }

    banner(
        &format!(
            "online_replay {} / {} κ={kappa} λ={lambda}",
            dataset_kind.name(),
            model.name()
        ),
        &cfg,
    );
    let mut log = match read_log(&log_path) {
        Ok(l) => l,
        Err(e) => return usage(&format!("{}: {e}", log_path.display())),
    };
    if log.is_empty() {
        return usage("event log is empty");
    }

    let (dataset, timing) = Dataset::load_or_generate_env(dataset_kind, model, &cfg, seed);
    if timing.warm_s > 0.0 {
        eprintln!("dataset warm-loaded from snapshot in {:.3}s", timing.warm_s);
    } else {
        eprintln!("dataset generated in {:.3}s", timing.cold_s);
    }
    if !raw_budgets {
        scale_budgets(&mut log, dataset.size_ratio);
        eprintln!(
            "budgets scaled by size ratio {:.4} (pass --raw-budgets to disable)",
            dataset.size_ratio
        );
    }

    let mut opts = tirm_options(
        matches!(dataset_kind, DatasetKind::Flixster | DatasetKind::Epinions),
        seed,
    );
    opts.threads = cfg.threads;
    // Scale the per-ad θ cap with the graph scale (the perf suite's
    // convention) so sub-scale replays stay laptop-sized.
    opts.scale_theta_cap(cfg.scale);
    let mut allocator = OnlineAllocator::new(
        &dataset.graph,
        &dataset.topic_probs,
        OnlineConfig {
            tirm: opts,
            kappa,
            lambda,
            ..OnlineConfig::default()
        },
    );
    // Resumed runs are full runs to `OnlineStats`; the registry tells
    // them apart.
    let resumed_before = tirm_obs::registry::RESUMED_RECONCILIATIONS.get();
    let report = replay(&mut allocator, &log);
    let resumed = tirm_obs::registry::RESUMED_RECONCILIATIONS.get() - resumed_before;

    let mut t = Table::new(&["event", "count", "p50 µs", "p95 µs", "p99 µs", "max µs"]);
    let mut rows = Vec::new();
    for (kind, h) in &report.per_kind {
        if h.count() == 0 {
            continue;
        }
        t.row(vec![
            kind.name().to_string(),
            h.count().to_string(),
            fnum(h.percentile_us(50.0)),
            fnum(h.percentile_us(95.0)),
            fnum(h.percentile_us(99.0)),
            fnum(h.max_us()),
        ]);
        rows.push(json!({
            "kind": kind.name(),
            "count": h.count(),
            "p50_us": h.percentile_us(50.0),
            "p95_us": h.percentile_us(95.0),
            "p99_us": h.percentile_us(99.0),
            "max_us": h.max_us(),
        }));
    }
    let stats = report.stats;
    println!(
        "\nonline_replay — {} events on {}/{} ({} rejected)",
        report.events,
        dataset_kind.name(),
        model.name(),
        report.rejected
    );
    println!("{}", t.render());
    println!(
        "throughput {:.1} events/s | reallocations {} full ({} resumed) / {} delta | {} fresh RR sets ({} cached) | {} shard reclaims",
        report.events_per_s,
        stats.full_reallocations,
        resumed,
        stats.delta_reallocations,
        stats.fresh_rr_sets,
        allocator.total_rr_sets(),
        stats.shard_reclaims,
    );
    let shares: Vec<String> = report
        .replayed_commits
        .iter()
        .filter(|r| r.2 > 0)
        .map(|(kind, replayed, commits)| format!("{} {replayed}/{commits}", kind.name()))
        .collect();
    println!("commits replayed from the record: {}", shares.join(" | "));
    println!(
        "final: {} live ads, {} seeds, regret estimate {:.3}, engine memory {:.1} MB",
        allocator.num_live(),
        allocator.allocation().total_seeds(),
        report.final_regret_estimate,
        allocator.memory_bytes() as f64 / 1e6
    );

    if let Some(path) = &dump_final {
        let snap = allocator.snapshot();
        match tirm_graph::snapshot::write_atomic(path, snap.to_json().as_bytes()) {
            Ok(()) => eprintln!(
                "[snapshot] {} (epoch {}, {} ads)",
                path.display(),
                snap.epoch,
                snap.num_ads()
            ),
            Err(e) => {
                eprintln!("error: writing {} failed: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    write_json(
        "online_replay",
        &json!({
            "dataset": dataset_kind.name(),
            "model": model.name(),
            "kappa": kappa,
            "lambda": lambda,
            "events": report.events,
            "events_per_s": report.events_per_s,
            "wall_s": report.wall_s,
            "fresh_rr_sets": stats.fresh_rr_sets,
            "total_rr_sets": allocator.total_rr_sets(),
            "full_reallocations": stats.full_reallocations,
            "resumed_reallocations": resumed,
            "delta_reallocations": stats.delta_reallocations,
            "replayed_commits": report
                .replayed_commits
                .iter()
                .map(|&(kind, replayed, commits)| json!({
                    "kind": kind.name(),
                    "replayed": replayed,
                    "commits": commits,
                }))
                .collect::<Vec<_>>(),
            "shard_reclaims": stats.shard_reclaims,
            "final_live_ads": allocator.num_live(),
            "final_total_seeds": allocator.allocation().total_seeds(),
            "final_regret_estimate": report.final_regret_estimate,
            "memory_bytes": allocator.memory_bytes(),
            "latencies": rows,
        }),
    );
    ExitCode::SUCCESS
}
