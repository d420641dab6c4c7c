//! Stand-alone serving frontend: generate (or snapshot-load) a dataset,
//! bind a TCP port, and serve the wire protocol until a client sends a
//! `shutdown` request.
//!
//! ```text
//! # serve an EPINIONS-like network on port 7401
//! cargo run -p tirm_server --bin tirm_server --release -- \
//!     --dataset EPINIONS --bind 127.0.0.1:7401 --state-dir /tmp/tirm-leader
//! ```
//!
//! Any wire client (`tirm_server::Client`) can then drive it. The
//! `soak` bin in tirm_bench spawns this binary itself, drives an event
//! log through it and SIGKILLs it mid-stream (`--followers N` adds
//! replicas).
//!
//! Flags:
//! * `--dataset NAME`   — FLIXSTER | EPINIONS | DBLP | LIVEJOURNAL
//!   (default EPINIONS).
//! * `--model NAME`     — topic | exp | wc (default: canonical).
//! * `--bind ADDR`      — listen address (default `127.0.0.1:7401`;
//!   port 0 picks an ephemeral port, printed on stderr).
//! * `--kappa N` / `--lambda F` / `--seed N` — serving parameters.
//! * `--queue-depth N`  — write-queue bound (admission control; default
//!   64).
//! * `--max-connections N` — connection admission bound (default 64).
//! * `--state-dir DIR`  — **required**: recover from DIR on boot, then
//!   WAL every admitted mutation (group-commit fsync) and checkpoint on
//!   a cadence. Without it the bin exits 2 before loading anything.
//! * `--checkpoint-interval N` — applied events between checkpoints
//!   (default 256).
//! * `--segment-events N` — WAL frames per segment file (default 1024).
//! * `--follow ADDR` — run as a **follower** of the leader at ADDR:
//!   tail its WAL over the wire into its own state dir, serve
//!   snapshot-swapped reads at `--bind`, answer mutations with a typed
//!   `not_leader` redirect. A wire `promote` request turns this process
//!   into the leader in place: fencing epoch bumped, same allocator,
//!   same open log, same listener.
//! * `--peer ADDR` — (repeatable, needs `--follow`) other replicas to
//!   try when the leader stops answering — how a follower finds the
//!   new leader after a hand-off.
//! * `--metrics-addr ADDR` — serve the observability registry over
//!   HTTP: `GET /metrics` (Prometheus text) and `GET /metrics.json`
//!   (structured dump). Out-of-band — reads the registry, never the
//!   serving state. Works in leader and follower modes; port 0 picks
//!   an ephemeral port, printed on stderr.
//! * `--metrics-json PATH` — on clean shutdown, write the final
//!   registry snapshot to PATH as JSON (atomic temp+rename).
//! * `--trace-json PATH` — flight-recorder dump: on clean shutdown,
//!   on a run a failed writer ended (exit 1) *or on panic*, write the
//!   event-lineage timeline to PATH as Chrome
//!   trace-event JSON (atomic temp+rename; load in `about:tracing`).
//!   A SIGKILL leaves no dump — scrape HTTP `/trace.json` for
//!   last-breath timelines instead.
//!
//! `TIRM_SCALE` / `TIRM_THREADS` scale the run; `TIRM_SNAPSHOT_DIR`
//! warm-starts the dataset from the binary snapshot cache.

use std::process::ExitCode;
use tirm_server::{serve, FollowConfig, ServerConfig};
use tirm_workloads::{Dataset, DatasetKind, ProbModel, ScaleConfig};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tirm_server --state-dir DIR [--dataset NAME] [--model topic|exp|wc] \
         [--bind ADDR] [--kappa N] [--lambda F] [--seed N] [--queue-depth N] \
         [--max-connections N] [--checkpoint-interval N] [--segment-events N] \
         [--follow LEADER_ADDR [--peer ADDR]...] [--metrics-addr ADDR] [--metrics-json PATH] \
         [--trace-json PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut dataset_kind = DatasetKind::Epinions;
    let mut model: Option<ProbModel> = None;
    let mut bind = "127.0.0.1:7401".to_string();
    let mut kappa = 2u32;
    let mut lambda = 0.0f64;
    let mut seed = 0x0e5e_17f1u64;
    let mut queue_depth = 64usize;
    let mut max_connections = 64usize;
    let mut state_dir: Option<String> = None;
    let mut checkpoint_interval: Option<u64> = None;
    let mut segment_events: Option<u64> = None;
    let mut follow: Option<String> = None;
    let mut peers: Vec<String> = Vec::new();
    let mut metrics_addr: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut trace_json: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dataset" => match args.next().as_deref().and_then(DatasetKind::parse) {
                Some(d) => dataset_kind = d,
                None => return usage("--dataset expects FLIXSTER|EPINIONS|DBLP|LIVEJOURNAL"),
            },
            "--model" => match args.next().as_deref().and_then(ProbModel::parse) {
                Some(m) => model = Some(m),
                None => return usage("--model expects topic|exp|wc"),
            },
            "--bind" => match args.next() {
                Some(a) => bind = a,
                None => return usage("--bind expects an address"),
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
            "--queue-depth" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => queue_depth = n,
                _ => return usage("--queue-depth expects a positive integer"),
            },
            "--max-connections" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => max_connections = n,
                _ => return usage("--max-connections expects a positive integer"),
            },
            "--state-dir" => match args.next() {
                Some(d) if !d.is_empty() => state_dir = Some(d),
                _ => return usage("--state-dir expects a directory path"),
            },
            "--checkpoint-interval" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => checkpoint_interval = Some(n),
                _ => return usage("--checkpoint-interval expects a positive integer"),
            },
            "--segment-events" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => segment_events = Some(n),
                _ => return usage("--segment-events expects a positive integer"),
            },
            "--follow" => match args.next() {
                Some(a) if !a.is_empty() => follow = Some(a),
                _ => return usage("--follow expects the leader's address"),
            },
            "--peer" => match args.next() {
                Some(a) if !a.is_empty() => peers.push(a),
                _ => return usage("--peer expects a replica address"),
            },
            "--metrics-addr" => match args.next() {
                Some(a) if !a.is_empty() => metrics_addr = Some(a),
                _ => return usage("--metrics-addr expects an address"),
            },
            "--metrics-json" => match args.next() {
                Some(p) if !p.is_empty() => metrics_json = Some(p),
                _ => return usage("--metrics-json expects a file path"),
            },
            "--trace-json" => match args.next() {
                Some(p) if !p.is_empty() => trace_json = Some(p),
                _ => return usage("--trace-json expects a file path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(state_dir) = state_dir else {
        return usage("--state-dir DIR is required (every admitted mutation is logged there)");
    };
    if !peers.is_empty() && follow.is_none() {
        return usage("--peer needs --follow LEADER_ADDR (only a follower re-homes to a peer)");
    }
    let model = model.unwrap_or_else(|| ProbModel::canonical(dataset_kind));
    let cfg = ScaleConfig::from_env();
    eprintln!(
        "== tirm_server {} / {} κ={kappa} λ={lambda} | scale={} threads={} ==",
        dataset_kind.name(),
        model.name(),
        cfg.scale,
        cfg.threads
    );
    let (dataset, timing) = Dataset::load_or_generate_env(dataset_kind, model, &cfg, seed);
    if timing.warm_s > 0.0 {
        eprintln!("dataset warm-loaded from snapshot in {:.3}s", timing.warm_s);
    } else {
        eprintln!("dataset generated in {:.3}s", timing.cold_s);
    }

    // The perf suite's θ-cap scaling convention, so a served instance
    // measures under the same cap as the suite's cells at this scale;
    // shared with out-of-process oracles via the library.
    let online = tirm_server::serving_online_config(dataset_kind, &cfg, kappa, lambda, seed);

    // One HTTP server for the whole process (the registry is
    // process-global).
    let _metrics_server = match &metrics_addr {
        Some(addr) => match tirm_obs::http::serve(addr) {
            Ok(srv) => {
                eprintln!("metrics on http://{}/metrics", srv.addr());
                Some(srv)
            }
            Err(e) => {
                eprintln!("error: metrics endpoint bind failed on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Crash flight recorder: a panic anywhere in the process dumps the
    // lineage timeline before unwinding continues, so the last thing
    // the server did is reconstructable post-mortem. (A SIGKILL leaves
    // no dump — the soaks scrape /trace.json right before each kill.)
    if let Some(path) = trace_json.clone() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let dump = tirm_obs::flight::dump_chrome_json();
            match tirm_graph::snapshot::write_atomic(std::path::Path::new(&path), dump.as_bytes()) {
                Ok(()) => eprintln!("panic — flight-recorder dump written to {path}"),
                Err(e) => eprintln!("panic — flight-recorder dump to {path} failed: {e}"),
            }
            previous(info);
        }));
    }

    // Final registry snapshot on clean shutdown — same atomic
    // temp+rename discipline as checkpoints, so a scraper never reads a
    // torn dump.
    let dump_metrics_json = |path: &Option<String>| -> ExitCode {
        if let Some(path) = path {
            let dump = tirm_obs::dump_json();
            if let Err(e) =
                tirm_graph::snapshot::write_atomic(std::path::Path::new(path), dump.as_bytes())
            {
                eprintln!("error: metrics dump to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("metrics dump written to {path}");
        }
        ExitCode::SUCCESS
    };

    // Twin of the panic hook above, for a run that ends without one.
    let dump_trace_json = |path: &Option<String>| -> ExitCode {
        if let Some(path) = path {
            let dump = tirm_obs::flight::dump_chrome_json();
            if let Err(e) =
                tirm_graph::snapshot::write_atomic(std::path::Path::new(path), dump.as_bytes())
            {
                eprintln!("error: flight-recorder dump to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("flight-recorder dump written to {path}");
        }
        ExitCode::SUCCESS
    };

    let defaults = ServerConfig::new(state_dir);
    let server_cfg = ServerConfig {
        online,
        bind,
        queue_depth,
        max_connections,
        checkpoint_interval: checkpoint_interval.unwrap_or(defaults.checkpoint_interval),
        segment_events: segment_events.unwrap_or(defaults.segment_events),
        follow: follow.map(|leader_addr| FollowConfig {
            peer_addrs: peers,
            ..FollowConfig::new(leader_addr)
        }),
        ..defaults
    };
    let served = serve(
        &dataset.graph,
        &dataset.topic_probs,
        server_cfg.clone(),
        |handle| {
            let dir = server_cfg.state_dir.display();
            match &server_cfg.follow {
                Some(f) => eprintln!(
                    "following {} — serving reads on {} (state dir [{dir}], wal_seq {}, \
                     fencing epoch {}); send {{\"type\":\"promote\"}} to take over, \
                     {{\"type\":\"shutdown\"}} to stop",
                    f.leader_addr,
                    handle.addr(),
                    handle.wal_seq(),
                    handle.fencing_epoch(),
                ),
                None => eprintln!(
                    "listening on {} (queue depth {queue_depth}, ≤ {max_connections} connections, \
                     durability on [{dir}], wal_seq {}, fencing epoch {}); \
                     send {{\"type\":\"shutdown\"}} to stop",
                    handle.addr(),
                    handle.wal_seq(),
                    handle.fencing_epoch(),
                ),
            }
            let rec = handle.recovery();
            eprintln!(
                "recovery: checkpoint {:?}, {} replayed ({} re-rejected), resumed at wal_seq {}",
                rec.checkpoint_seq, rec.replayed, rec.rejected_on_replay, rec.wal_seq
            );
            for w in &rec.warnings {
                eprintln!("recovery warning: {w}");
            }
            if handle.wait_shutdown() {
                eprintln!("shutdown requested — draining the write queue");
            }
        },
    );
    match served {
        Ok(((), report)) => {
            if server_cfg.follow.is_some() {
                eprintln!(
                    "followed: {} replicated, {} bootstrap(s), {} fenced reject(s); ended as {} \
                     at seq {} (lag {})",
                    report.replicated,
                    report.bootstraps,
                    report.fenced_rejects,
                    report.role.name(),
                    report.wal_seq,
                    report.leader_seq.saturating_sub(report.wal_seq),
                );
            }
            eprintln!(
                "drained. epoch {} | {} accepted / {} shed ({:.1}% shed) / {} rejected / {} bad \
                 frames | max queue {} | {} connections ({} refused) | {} live ads, {} seeds, \
                 regret {:.3}",
                report.final_snapshot.epoch,
                report.accepted,
                report.shed,
                report.shed_rate() * 100.0,
                report.rejected,
                report.bad_requests,
                report.max_queue_depth,
                report.connections,
                report.connections_refused,
                report.final_snapshot.num_ads(),
                report.final_snapshot.total_seeds(),
                report.final_snapshot.regret_estimate,
            );
            let trace_rc = dump_trace_json(&trace_json);
            let metrics_rc = dump_metrics_json(&metrics_json);
            if metrics_rc != ExitCode::SUCCESS {
                metrics_rc
            } else {
                trace_rc
            }
        }
        Err(e) => {
            // A writer that failed (a log I/O error, a refused bootstrap
            // checkpoint) ends the run here: its lineage is dumped as a
            // panic's would be.
            eprintln!("error: {e}");
            dump_trace_json(&trace_json);
            ExitCode::FAILURE
        }
    }
}
