//! Crash soak for the durable serving stack: SIGKILL a real
//! `tirm_server` child mid-stream — repeatedly — restart it over the
//! same state dir, finish the log through the reconnecting load
//! generator, and require the final allocation to be **bit-identical**
//! (assignments *and* revenue-estimate bits) to an uninterrupted
//! in-process replay of the same log.
//!
//! ```text
//! cargo build --release -p tirm_server -p tirm_bench
//! cargo run --release -p tirm_bench --bin crash_soak -- \
//!     --dataset EPINIONS --events 240 --kills 2
//! ```
//!
//! The soak also measures the two recovery regimes through the same
//! [`tirm_server::wal::recover`] scan the server boots with:
//!
//! * **warm** — the soak's final state dir: newest checkpoint + WAL
//!   tail (≤ `--checkpoint-interval` events to replay);
//! * **cold** — a synthetic state dir holding the full log as WAL
//!   frames and no checkpoint (replay everything from seq 0).
//!
//! Acceptance floor: warm recovery is ≥ `--min-speedup` (default 5×)
//! faster than the cold replay. Everything — per-restart
//! time-to-serving, driver counters, recovery timings — lands in
//! `target/experiments/crash_soak.json`.
//!
//! Flags: `--dataset NAME` (default EPINIONS), `--events N` (default
//! 240), `--kills K` (default 2), `--seed N`, `--readers N` (default
//! 2), `--queue-depth N` (default 32), `--checkpoint-interval N`
//! (default 16), `--segment-events N` (default 64), `--min-speedup X`
//! (0 disables the floor), `--ready-timeout-s S` (default 240),
//! `--keep-state`.
//!
//! `TIRM_SCALE` / `TIRM_THREADS` size the run as usual. If
//! `TIRM_SNAPSHOT_DIR` is unset, a scratch snapshot cache is used so
//! the child's restarts warm-load the dataset instead of regenerating
//! it — time-to-serving then measures recovery, not generation.

use serde_json::json;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tirm_bench::loadgen::{drive, LoadgenConfig};
use tirm_bench::{scrape_metrics, write_json};
use tirm_online::{AllocationSnapshot, OnlineAllocator};
use tirm_server::wal::{recover, Wal};
use tirm_server::{Client, ClientOptions};
use tirm_workloads::events::{scale_budgets, LogEvent};
use tirm_workloads::{Dataset, DatasetKind, EventStreamSpec, ProbModel, ScaleConfig};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: crash_soak [--dataset NAME] [--events N] [--kills K] [--seed N] \
         [--readers N] [--queue-depth N] [--checkpoint-interval N] \
         [--segment-events N] [--min-speedup X] [--ready-timeout-s S] [--keep-state]"
    );
    ExitCode::from(2)
}

/// Polls until the server at `addr` answers a `hello`, or `deadline`.
fn wait_ready(addr: SocketAddr, deadline: Duration) -> io::Result<Client> {
    let t0 = Instant::now();
    loop {
        match Client::connect_with(addr, &ClientOptions::default()) {
            Ok(client) => return Ok(client),
            Err(e) if t0.elapsed() >= deadline => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("server not ready after {:.0?}: {e}", deadline),
                ))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The uninterrupted oracle: the log replayed in-process (reads are
/// served off-writer by the server, so only mutations touch the
/// allocator).
fn replay_oracle(
    dataset: &Dataset,
    cfg: tirm_online::OnlineConfig,
    log: &[LogEvent],
) -> std::sync::Arc<AllocationSnapshot> {
    let mut allocator = OnlineAllocator::new(&dataset.graph, &dataset.topic_probs, cfg);
    for e in log {
        if e.event.is_mutation() {
            let _ = allocator.process(&e.event);
        }
    }
    allocator.snapshot()
}

struct ServerSpawner {
    bin: PathBuf,
    args: Vec<String>,
}

impl ServerSpawner {
    fn spawn(&self) -> io::Result<ServerLife> {
        Command::new(&self.bin)
            .args(&self.args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map(ServerLife)
    }
}

/// One life of the server. Dropping it SIGKILLs and reaps the process —
/// how the soak ends a life on purpose, and why no `fail(..)` exit leaves
/// an orphan behind holding the soak's stderr open.
struct ServerLife(Child);

impl Drop for ServerLife {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut dataset = DatasetKind::Epinions;
    let mut events = 240usize;
    let mut kills = 2usize;
    let mut seed = 0xc4a5_0c4au64;
    let mut readers = 2usize;
    let mut queue_depth = 32usize;
    let mut checkpoint_interval = 16u64;
    let mut segment_events = 64u64;
    let mut min_speedup = 5.0f64;
    let mut ready_timeout = Duration::from_secs(240);
    let mut keep_state = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dataset" => match args.next().as_deref().and_then(DatasetKind::parse) {
                Some(d) => dataset = d,
                None => return usage("--dataset expects FLIXSTER|EPINIONS|DBLP|LIVEJOURNAL"),
            },
            "--events" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => events = n,
                _ => return usage("--events expects a positive count"),
            },
            "--kills" => match args.next().and_then(|s| s.parse().ok()) {
                Some(k) => kills = k,
                None => return usage("--kills expects a count"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--readers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => readers = n,
                None => return usage("--readers expects a count"),
            },
            "--queue-depth" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => queue_depth = n,
                _ => return usage("--queue-depth expects a positive integer"),
            },
            "--checkpoint-interval" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => checkpoint_interval = n,
                _ => return usage("--checkpoint-interval expects a positive integer"),
            },
            "--segment-events" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => segment_events = n,
                _ => return usage("--segment-events expects a positive integer"),
            },
            "--min-speedup" => match args.next().and_then(|s| s.parse().ok()) {
                Some(x) if x >= 0.0 => min_speedup = x,
                _ => return usage("--min-speedup expects a non-negative float"),
            },
            "--ready-timeout-s" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => ready_timeout = Duration::from_secs(s),
                None => return usage("--ready-timeout-s expects seconds"),
            },
            "--keep-state" => keep_state = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let base = std::env::temp_dir().join(format!("tirm_crash_soak_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let state_dir = base.join("state");
    if std::env::var_os("TIRM_SNAPSHOT_DIR").is_none() {
        // Restarts then warm-load the dataset instead of regenerating:
        // time-to-serving measures recovery, not generation.
        std::env::set_var("TIRM_SNAPSHOT_DIR", base.join("snapshots"));
    }

    let server_bin = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("tirm_server")))
        .filter(|p| p.is_file());
    let Some(server_bin) = server_bin else {
        return fail(
            "tirm_server binary not found next to crash_soak — \
             build it first: cargo build --release -p tirm_server --bin tirm_server",
        );
    };

    let cfg = ScaleConfig::from_env();
    let model = ProbModel::canonical(dataset);
    eprintln!(
        "== crash_soak {} / {} | {} events, {} kill(s), ckpt every {} | \
         scale={} threads={} ==",
        dataset.name(),
        model.name(),
        events,
        kills,
        checkpoint_interval,
        cfg.scale,
        cfg.threads
    );

    let mut log = EventStreamSpec::for_dataset(dataset, events, seed).generate(1.0);
    scale_budgets(&mut log, dataset.size_ratio_at(&cfg));
    let mutations = log.iter().filter(|e| e.event.is_mutation()).count() as u64;

    // Generate (and snapshot-cache) the dataset before the child boots,
    // so every server life warm-loads it.
    let (dataset_data, timing) = Dataset::load_or_generate_env(dataset, model, &cfg, seed);
    eprintln!(
        "dataset ready in {:.3}s ({} nodes); in-process oracle replaying {} mutations",
        timing.warm_s + timing.cold_s,
        dataset_data.graph.num_nodes(),
        mutations
    );
    let online_cfg = tirm_server::serving_online_config(dataset, &cfg, 2, 0.0, seed);
    let want = replay_oracle(&dataset_data, online_cfg.clone(), &log);

    // A concrete port the child can bind and every reconnect can reuse.
    let port = match TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()) {
        Ok(a) => a.port(),
        Err(e) => return fail(&format!("no free port: {e}")),
    };
    let addr: SocketAddr = ([127, 0, 0, 1], port).into();
    // A second fixed port for the child's metrics endpoint, so every
    // life of the server exposes its registry at the same address and
    // the soak can scrape right before each SIGKILL.
    let metrics_port = match TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()) {
        Ok(a) => a.port(),
        Err(e) => return fail(&format!("no free metrics port: {e}")),
    };
    let metrics_addr: SocketAddr = ([127, 0, 0, 1], metrics_port).into();

    let spawner = ServerSpawner {
        bin: server_bin,
        args: vec![
            "--dataset".into(),
            dataset.name().into(),
            "--seed".into(),
            seed.to_string(),
            "--bind".into(),
            addr.to_string(),
            "--queue-depth".into(),
            queue_depth.to_string(),
            "--state-dir".into(),
            state_dir.display().to_string(),
            "--checkpoint-interval".into(),
            checkpoint_interval.to_string(),
            "--segment-events".into(),
            segment_events.to_string(),
            "--metrics-addr".into(),
            metrics_addr.to_string(),
        ],
    };

    // First life.
    let t0 = Instant::now();
    let mut child = match spawner.spawn() {
        Ok(c) => c,
        Err(e) => return fail(&format!("spawning tirm_server: {e}")),
    };
    let mut monitor = match wait_ready(addr, ready_timeout) {
        Ok(c) => c,
        Err(e) => return fail(&format!("first life: {e}")),
    };
    let first_ready_s = t0.elapsed().as_secs_f64();
    if let Some(h) = monitor.hello() {
        if h.wal_seq != 0 {
            return fail(&format!("fresh state dir but hello wal_seq {}", h.wal_seq));
        }
    }
    eprintln!("serving on {addr} after {first_ready_s:.3}s — driving the log");

    // The driver: deterministic delivery with a reconnect budget that
    // rides out every restart.
    let driver = {
        let log = log.clone();
        std::thread::spawn(move || {
            drive(
                addr,
                &log,
                &LoadgenConfig {
                    readers,
                    rate: None,
                    retry: true,
                    seed,
                    drain: true,
                    read_pause: Duration::from_micros(200),
                    reconnect: ClientOptions::reconnecting(240),
                    ..LoadgenConfig::default()
                },
            )
        })
    };

    // Kill schedule: evenly spaced durable-frontier thresholds, so the
    // kills land mid-stream wherever the throughput ends up.
    let mut restarts = Vec::new();
    for k in 0..kills {
        let target = (k + 1) as u64 * mutations / (kills as u64 + 1);
        let killed_at = loop {
            match monitor.stats() {
                Ok(s) if s.wal_seq >= target => break s.wal_seq,
                Ok(_) => std::thread::sleep(Duration::from_millis(2)),
                // The monitor connection can be a casualty of a prior
                // kill racing shutdown-vs-accept; just re-dial.
                Err(_) => match wait_ready(addr, ready_timeout) {
                    Ok(c) => monitor = c,
                    Err(e) => return fail(&format!("monitor lost the server: {e}")),
                },
            }
        };
        // Last-breath scrapes: the registry and the flight-recorder
        // timeline the crash is about to erase, preserved as CI
        // artifacts (the WAL protects state, not telemetry — these
        // dumps are the only record of this life). The kill-window
        // check: the lineage scraped moments before a SIGKILL must
        // still reconstruct complete durable lifecycles for the
        // mutations that ran up to the kill.
        scrape_metrics(metrics_addr, &format!("crash_soak_kill{k}"));
        if let Some(trace) = tirm_bench::scrape_trace(metrics_addr, &format!("crash_soak_kill{k}"))
        {
            let complete = tirm_bench::traces_covering_stages(
                &trace,
                &["admit", "queue", "wal_append", "fsync", "apply", "publish"],
            );
            if complete == 0 {
                return fail(&format!(
                    "kill {k}: pre-kill /trace.json holds no complete durable lifecycle"
                ));
            }
            eprintln!("kill {k}: {complete} complete lifecycles in the kill window");
        }
        // SIGKILL: no drain, no checkpoint, no fsync of anything
        // in-flight — the hard crash the WAL exists for.
        drop(child);
        let t = Instant::now();
        child = match spawner.spawn() {
            Ok(c) => c,
            Err(e) => return fail(&format!("respawning tirm_server: {e}")),
        };
        monitor = match wait_ready(addr, ready_timeout) {
            Ok(c) => c,
            Err(e) => return fail(&format!("restart {k}: {e}")),
        };
        let ready_s = t.elapsed().as_secs_f64();
        let recovered = monitor.hello().map(|h| h.wal_seq).unwrap_or(0);
        eprintln!(
            "kill {k}: SIGKILL at wal_seq {killed_at} → serving again in {ready_s:.3}s \
             (recovered to {recovered})"
        );
        // What the WAL promises: a frontier seen durable survives the
        // kill. The load generator kept writing through the scrapes
        // between that reading and the SIGKILL, so the recovered frontier
        // may be ahead of it — by no more than the log holds.
        if !(killed_at..=mutations).contains(&recovered) {
            return fail(&format!(
                "kill {k}: recovered frontier {recovered} is outside [{killed_at}, \
                 {mutations}]: the durable frontier observed before the kill, and the \
                 mutations there are to send"
            ));
        }
        restarts.push(json!({
            // Durable frontier last observed before the SIGKILL was sent.
            "killed_at_wal_seq": killed_at,
            // Wall seconds from respawn to the first successful `hello`.
            "ready_s": ready_s,
            // The frontier the restarted server recovered to (its `hello`).
            "recovered_wal_seq": recovered,
        }));
    }

    let report = match driver.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return fail(&format!("load driver failed: {e}")),
        Err(_) => return fail("load driver panicked"),
    };

    // Everything admitted must become durable: ride the frontier home.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match monitor.stats() {
            Ok(s) if s.wal_seq >= mutations => break,
            Ok(s) if Instant::now() >= deadline => {
                return fail(&format!("wal_seq stuck at {} of {mutations}", s.wal_seq))
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return fail(&format!("polling the durable frontier: {e}")),
        }
    }

    let served = match monitor.allocation() {
        Ok(s) => s,
        Err(e) => return fail(&format!("fetching the final allocation: {e}")),
    };
    scrape_metrics(metrics_addr, "crash_soak_final");
    tirm_bench::scrape_trace(metrics_addr, "crash_soak_final");
    monitor.shutdown_server().ok();
    child.0.wait().ok();

    let bit_identical = served.same_allocation(&want);
    if !bit_identical {
        eprintln!(
            "MISMATCH: served epoch {} ({} ads, {} seeds, regret {:.6}) vs oracle epoch {} \
             ({} ads, {} seeds, regret {:.6})",
            served.epoch,
            served.num_ads(),
            served.total_seeds(),
            served.regret_estimate,
            want.epoch,
            want.num_ads(),
            want.total_seeds(),
            want.regret_estimate,
        );
    }

    // Recovery regimes, through the exact scan the server boots with.
    let t_warm = Instant::now();
    let warm = recover(
        &state_dir,
        &dataset_data.graph,
        &dataset_data.topic_probs,
        &online_cfg,
    );
    let warm_s = t_warm.elapsed().as_secs_f64();
    let warm_ok = match warm {
        Ok((a, rep)) => rep.wal_seq == mutations && a.snapshot().same_allocation(&want),
        Err(_) => false,
    };
    if !warm_ok {
        return fail("warm recovery of the final state dir diverged from the oracle");
    }

    let cold_dir = base.join("cold_wal");
    {
        let mut wal = match Wal::open(&cold_dir, 0, mutations.max(1)) {
            Ok(w) => w,
            Err(e) => return fail(&format!("building the cold-replay WAL: {e}")),
        };
        for e in &log {
            if e.event.is_mutation() {
                if let Err(e) = wal.append(&e.event) {
                    return fail(&format!("building the cold-replay WAL: {e}"));
                }
            }
        }
        if let Err(e) = wal.sync() {
            return fail(&format!("building the cold-replay WAL: {e}"));
        }
    }
    let t_cold = Instant::now();
    let cold = recover(
        &cold_dir,
        &dataset_data.graph,
        &dataset_data.topic_probs,
        &online_cfg,
    );
    let cold_s = t_cold.elapsed().as_secs_f64();
    let cold_ok = match cold {
        Ok((a, rep)) => rep.wal_seq == mutations && a.snapshot().same_allocation(&want),
        Err(_) => false,
    };
    if !cold_ok {
        return fail("cold full-log replay diverged from the oracle");
    }
    let speedup = cold_s / warm_s.max(1e-9);

    println!(
        "crash_soak: {} kills over {} mutations — bit_identical={} | warm recovery {:.3}s vs \
         cold replay {:.3}s = {:.1}× | restarts to serving {:?}",
        kills,
        mutations,
        bit_identical,
        warm_s,
        cold_s,
        speedup,
        restarts
            .iter()
            .filter_map(|r| r.get("ready_s")?.as_f64())
            .collect::<Vec<_>>(),
    );

    write_json(
        "crash_soak",
        &json!({
            "dataset": dataset.name(),
            "scale": cfg.scale,
            "events": log.len(),
            "mutations": mutations,
            "kills": kills,
            "checkpoint_interval": checkpoint_interval,
            "segment_events": segment_events,
            "first_ready_s": first_ready_s,
            "restarts": restarts,
            "offered": report.offered,
            "accepted": report.accepted,
            "shed": report.shed,
            "drive_wall_s": report.wall_s,
            "final_epoch": report.final_stats.epoch,
            "bit_identical": bit_identical,
            "warm_recover_s": warm_s,
            "cold_replay_s": cold_s,
            "recovery_speedup": speedup,
            "min_speedup": min_speedup,
        }),
    );

    if !keep_state {
        std::fs::remove_dir_all(&base).ok();
    } else {
        eprintln!("state kept under {}", base.display());
    }

    if !bit_identical {
        return fail("kill/restart run diverged from the uninterrupted replay");
    }
    if min_speedup > 0.0 && speedup < min_speedup {
        return fail(&format!(
            "warm-checkpoint recovery is only {speedup:.1}× faster than cold replay \
             (floor {min_speedup:.1}×)"
        ));
    }
    ExitCode::SUCCESS
}
