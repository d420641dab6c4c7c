//! Open-loop load generator for a running `tirm_server`.
//!
//! ```text
//! # terminal 1
//! cargo run -p tirm_server --bin tirm_server --release -- \
//!     --dataset EPINIONS --bind 127.0.0.1:7401
//!
//! # terminal 2 — 200 events at 50 ev/s open-loop, 4 concurrent
//! # readers, graceful server shutdown at the end
//! cargo run -p tirm_bench --bin loadgen --release -- \
//!     --addr 127.0.0.1:7401 --events 200 --rate 50 --readers 4 --shutdown
//! ```
//!
//! Traffic comes from a generated [`EventStreamSpec`] stream
//! (`--events N`, seeded, Poisson clock + truncated-Pareto budgets) or
//! a JSONL log (`--log PATH`). Budgets in both are *paper scale*; the
//! generator multiplies them by the size ratio of `--dataset` at the
//! current `TIRM_SCALE` — the same convention the server and
//! `online_replay` use — so one log drives any scale
//! (`--raw-budgets` disables).
//!
//! Flags:
//! * `--addr HOST:PORT` — server address (required).
//! * `--dataset NAME`   — stream preset + budget scaling (default
//!   EPINIONS; must match the server's dataset).
//! * `--events N`       — generate an N-event stream (default 200).
//! * `--log PATH`       — replay a JSONL log instead of generating.
//! * `--rate R`         — open-loop Poisson rate in events/s (default:
//!   closed-loop, as fast as responses return).
//! * `--readers N`      — concurrent read connections (default 4).
//! * `--read-pause-us U` — pause between each reader's queries
//!   (default 0 = fully closed-loop; the bench cells use a small pause
//!   so the reader pool doesn't starve a 1-CPU writer).
//! * `--no-retry`       — drop `overloaded` mutations instead of
//!   retrying (overload probing; default retries = deterministic
//!   delivery).
//! * `--seed N`         — stream + pacing seed.
//! * `--reconnect N`    — survive up to N connection losses per
//!   reconnect (capped exponential backoff), resuming the log at the
//!   server's durable `wal_seq` — the kill/restart bench mode against
//!   a `--state-dir` server. Default 0 = a reset is fatal.
//! * `--follower HOST:PORT` — add a follower replica to the read pool
//!   (repeatable). Readers are spread round-robin across the leader
//!   plus the follower pool with lag-aware routing: a follower more
//!   than `--max-lag` events behind (or unreachable) loses its readers
//!   to the leader until it catches up.
//! * `--max-lag N`      — replication-lag budget (events) before a
//!   follower's readers fall back to the leader (default 64).
//! * `--shutdown`       — send a graceful-shutdown request at the end.
//! * `--raw-budgets`    — send log budgets verbatim.
//!
//! Per-request-kind wire latency histograms, reader throughput and the
//! shed rate print as a table and land in
//! `target/experiments/loadgen.json` (schema-v4 field names).

use serde_json::json;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use tirm_bench::loadgen::{drive, LoadgenConfig};
use tirm_bench::write_json;
use tirm_core::report::{fnum, Table};
use tirm_server::Client;
use tirm_server::ClientOptions;
use tirm_workloads::events::{read_log, scale_budgets};
use tirm_workloads::{DatasetKind, EventStreamSpec, LatencyHistogram, ScaleConfig};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--dataset NAME] [--events N | --log PATH] \
         [--rate R] [--readers N] [--read-pause-us U] [--no-retry] [--seed N] \
         [--reconnect N] [--follower HOST:PORT]... [--max-lag N] [--shutdown] \
         [--raw-budgets]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut dataset = DatasetKind::Epinions;
    let mut events = 200usize;
    let mut log_path: Option<PathBuf> = None;
    let mut rate: Option<f64> = None;
    let mut readers = 4usize;
    let mut read_pause_us = 0u64;
    let mut retry = true;
    let mut seed = 0x10adu64;
    let mut reconnect_attempts = 0u32;
    let mut followers: Vec<String> = Vec::new();
    let mut max_lag = 64u64;
    let mut shutdown = false;
    let mut raw_budgets = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = Some(a),
                None => return usage("--addr expects HOST:PORT"),
            },
            "--dataset" => match args.next().as_deref().and_then(DatasetKind::parse) {
                Some(d) => dataset = d,
                None => return usage("--dataset expects FLIXSTER|EPINIONS|DBLP|LIVEJOURNAL"),
            },
            "--events" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => events = n,
                _ => return usage("--events expects a positive count"),
            },
            "--log" => match args.next() {
                Some(p) => log_path = Some(PathBuf::from(p)),
                None => return usage("--log expects a path"),
            },
            "--rate" => match args.next().and_then(|s| s.parse().ok()) {
                Some(r) if r > 0.0 => rate = Some(r),
                _ => return usage("--rate expects a positive events/s"),
            },
            "--readers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => readers = n,
                None => return usage("--readers expects a count"),
            },
            "--read-pause-us" => match args.next().and_then(|s| s.parse().ok()) {
                Some(u) => read_pause_us = u,
                None => return usage("--read-pause-us expects microseconds"),
            },
            "--no-retry" => retry = false,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--reconnect" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => reconnect_attempts = n,
                None => return usage("--reconnect expects an attempt budget"),
            },
            "--follower" => match args.next() {
                Some(a) => followers.push(a),
                None => return usage("--follower expects HOST:PORT"),
            },
            "--max-lag" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => max_lag = n,
                None => return usage("--max-lag expects an event count"),
            },
            "--shutdown" => shutdown = true,
            "--raw-budgets" => raw_budgets = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = addr else {
        return usage("--addr is required");
    };
    let sock: SocketAddr = match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(s) => s,
        None => return usage(&format!("cannot resolve {addr:?}")),
    };
    let mut follower_addrs = Vec::with_capacity(followers.len());
    for f in &followers {
        match f.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(s) => follower_addrs.push(s),
            None => return usage(&format!("cannot resolve follower {f:?}")),
        }
    }

    let mut log = match &log_path {
        Some(path) => match read_log(path) {
            Ok(l) => l,
            Err(e) => return usage(&format!("{}: {e}", path.display())),
        },
        None => EventStreamSpec::for_dataset(dataset, events, seed).generate(1.0),
    };
    if log.is_empty() {
        return usage("event stream is empty");
    }
    if !raw_budgets {
        let cfg = ScaleConfig::from_env();
        let ratio = dataset.size_ratio_at(&cfg);
        scale_budgets(&mut log, ratio);
        eprintln!(
            "budgets scaled by {}'s size ratio {ratio:.4} at TIRM_SCALE={} \
             (pass --raw-budgets to disable)",
            dataset.name(),
            cfg.scale
        );
    }

    eprintln!(
        "driving {} events at {} against {sock} ({readers} readers, {})",
        log.len(),
        rate.map(|r| format!("{r:.1} ev/s open-loop"))
            .unwrap_or_else(|| "closed-loop".to_string()),
        if retry {
            "retry-on-overload"
        } else {
            "shed-and-drop"
        },
    );
    let report = match drive(
        sock,
        &log,
        &LoadgenConfig {
            readers,
            rate,
            retry,
            seed,
            drain: true,
            read_pause: std::time::Duration::from_micros(read_pause_us),
            reconnect: if reconnect_attempts > 0 {
                ClientOptions::reconnecting(reconnect_attempts)
            } else {
                ClientOptions::default()
            },
            follower_addrs,
            max_lag,
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut t = Table::new(&["request", "count", "p50 µs", "p95 µs", "p99 µs", "max µs"]);
    let mut rows = Vec::new();
    let mut push = |name: &str, h: &LatencyHistogram| {
        if h.count() == 0 {
            return;
        }
        t.row(vec![
            name.to_string(),
            h.count().to_string(),
            fnum(h.percentile_us(50.0)),
            fnum(h.percentile_us(95.0)),
            fnum(h.percentile_us(99.0)),
            fnum(h.max_us()),
        ]);
        rows.push(json!({
            "kind": name,
            "count": h.count(),
            "p50_us": h.percentile_us(50.0),
            "p95_us": h.percentile_us(95.0),
            "p99_us": h.percentile_us(99.0),
            "max_us": h.max_us(),
        }));
    };
    for (kind, h) in &report.per_kind {
        push(kind.name(), h);
    }
    push("reads(pool)", &report.read_latency);

    println!(
        "\nloadgen — {} offered ({} accepted, {} shed = {:.1}%), {} reads",
        report.offered,
        report.accepted,
        report.shed,
        report.shed_rate() * 100.0,
        report.reads
    );
    println!("{}", t.render());
    println!(
        "throughput {:.1} accepted ev/s | reader pool {:.1} reads/s over {} connections {:?} | \
         server max queue {} | final epoch {}",
        report.events_per_s,
        report.reads_per_s,
        readers,
        report.reads_per_reader,
        report.final_stats.max_queue_depth,
        report.final_stats.epoch,
    );
    if !report.leader_queue_depth.is_empty() {
        println!(
            "leader pressure — queue depth p99 {} over {} observations, \
             {} mutations shed process-lifetime",
            report.leader_queue_p99(),
            report.leader_queue_depth.len(),
            report.leader_shed_total,
        );
    }
    if !followers.is_empty() {
        println!(
            "follower pool — {} follower reads, {} leader fallbacks, lag p99 {} events",
            report.follower_reads,
            report.leader_fallback_reads,
            report.follower_lag_p99(),
        );
    }

    write_json(
        "loadgen",
        &json!({
            "addr": addr,
            "dataset": dataset.name(),
            "events": log.len(),
            "readers": readers,
            "rate": rate,
            "retry": retry,
            "wall_s": report.wall_s,
            "offered": report.offered,
            "accepted": report.accepted,
            "shed": report.shed,
            "shed_rate": report.shed_rate(),
            "events_per_s": report.events_per_s,
            "reads": report.reads,
            "reads_per_s": report.reads_per_s,
            "read_p50_us": report.read_latency.percentile_us(50.0),
            "read_p99_us": report.read_latency.percentile_us(99.0),
            "reads_per_reader": report.reads_per_reader.clone(),
            "follower_reads": report.follower_reads,
            "leader_fallback_reads": report.leader_fallback_reads,
            "follower_lag_p99": report.follower_lag_p99(),
            "leader_queue_p99": report.leader_queue_p99(),
            "leader_shed_total": report.leader_shed_total,
            "latency_p50_us": report.mutation_latency.percentile_us(50.0),
            "latency_p95_us": report.mutation_latency.percentile_us(95.0),
            "latency_p99_us": report.mutation_latency.percentile_us(99.0),
            "server_max_queue_depth": report.final_stats.max_queue_depth,
            "server_epoch": report.final_stats.epoch,
            "latencies": rows,
        }),
    );

    if shutdown {
        match Client::connect(sock).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => eprintln!("server shutdown requested"),
            Err(e) => eprintln!("warn: shutdown request failed: {e}"),
        }
    }
    ExitCode::SUCCESS
}
