//! Replication soak for the serving stack: one leader plus N follower
//! `tirm_server` processes shipping WAL frames over TCP, a random
//! replica SIGKILLed repeatedly mid-stream, leader deaths healed by
//! promoting the most-caught-up follower — and at the end every
//! survivor's allocation must be **bit-identical** to an uninterrupted
//! in-process replay of the same log.
//!
//! ```text
//! cargo build --release -p tirm_server -p tirm_bench
//! cargo run --release -p tirm_bench --bin replica_soak -- \
//!     --dataset EPINIONS --events 1200 --kills 4
//! ```
//!
//! Topology and healing rules:
//!
//! * every replica keeps its own state dir; followers run `--follow`
//!   with the other replicas as `--peer` candidates;
//! * a killed **follower** is restarted following the current leader;
//! * a killed **leader** triggers an election: the live follower with
//!   the highest durable frontier is promoted (fencing epoch bump),
//!   and the deposed leader restarts as a *follower* of the winner —
//!   its unreplicated WAL tail, if any, is fenced off and re-anchored,
//!   while the reconnecting load generator resends exactly the events
//!   the hand-off lost;
//! * one mid-run kill always targets the leader so every soak
//!   exercises promotion (the rest are drawn from the seeded RNG).
//!
//! The load generator drives mutations at the leader (chasing
//! `not_leader` referrals across hand-offs) and spreads readers over
//! the leader + follower pool with lag-aware routing, so the artifact
//! also carries follower read counts and the observed lag p99.
//!
//! Flags: `--dataset NAME` (default EPINIONS), `--events N` (default
//! 1200), `--kills K` (default 4), `--followers N` (default 2),
//! `--seed N`, `--readers N` (default 3), `--queue-depth N` (default
//! 32), `--checkpoint-interval N` (default 16), `--segment-events N`
//! (default 64), `--max-lag N` (reader fallback threshold, default
//! 64), `--max-lag-p99 N` (0 disables the lag acceptance bound),
//! `--ready-timeout-s S` (default 240), `--keep-state`.
//!
//! Everything lands in `target/experiments/replica_soak.json`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tirm_bench::loadgen::{drive, percentile_u64, LoadgenConfig};
use tirm_bench::{scrape_metrics, write_json};
use tirm_online::{AllocationSnapshot, OnlineAllocator};
use tirm_server::{Client, ClientOptions, Role};
use tirm_workloads::events::{scale_budgets, LogEvent};
use tirm_workloads::{Dataset, DatasetKind, EventStreamSpec, ProbModel, ScaleConfig};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: replica_soak [--dataset NAME] [--events N] [--kills K] [--followers N] \
         [--seed N] [--readers N] [--queue-depth N] [--checkpoint-interval N] \
         [--segment-events N] [--max-lag N] [--max-lag-p99 N] [--ready-timeout-s S] \
         [--keep-state]"
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

/// Polls until the replica at `addr` serves as [`Role::Leader`].
fn wait_leader(addr: SocketAddr, deadline: Duration) -> io::Result<Client> {
    let t0 = Instant::now();
    loop {
        let client = wait_ready(addr, deadline.saturating_sub(t0.elapsed()))?;
        match client.hello().map(|h| h.role) {
            Some(Role::Leader) => return Ok(client),
            _ if t0.elapsed() >= deadline => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{addr} still not serving as leader after {deadline:.0?}"),
                ))
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

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

/// One replica process slot: a fixed address + state dir, and whatever
/// child currently serves there.
struct Replica {
    addr: SocketAddr,
    /// Fixed per-slot `--metrics-addr`, stable across restarts so the
    /// soak can scrape a victim's registry right before the SIGKILL.
    metrics_addr: SocketAddr,
    state_dir: PathBuf,
    child: Child,
}

struct Fleet {
    bin: PathBuf,
    common: Vec<String>,
}

impl Fleet {
    /// Spawns a process for the slot: a leader when `follow` is `None`,
    /// otherwise a follower of `follow` with every other replica
    /// address offered as a peer candidate.
    fn spawn(
        &self,
        addr: SocketAddr,
        metrics_addr: SocketAddr,
        state_dir: &Path,
        follow: Option<SocketAddr>,
        peers: &[SocketAddr],
    ) -> io::Result<Child> {
        let mut args = self.common.clone();
        args.extend(["--bind".into(), addr.to_string()]);
        args.extend(["--metrics-addr".into(), metrics_addr.to_string()]);
        args.extend(["--state-dir".into(), state_dir.display().to_string()]);
        if let Some(leader) = follow {
            args.extend(["--follow".into(), leader.to_string()]);
            for p in peers {
                if *p != addr && *p != leader {
                    args.extend(["--peer".into(), p.to_string()]);
                }
            }
        }
        Command::new(&self.bin)
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut dataset = DatasetKind::Epinions;
    let mut events = 1200usize;
    let mut kills = 4usize;
    let mut followers = 2usize;
    let mut seed = 0x5e11_ca50u64;
    let mut readers = 3usize;
    let mut queue_depth = 32usize;
    let mut checkpoint_interval = 16u64;
    let mut segment_events = 64u64;
    let mut max_lag = 64u64;
    let mut max_lag_p99 = 0u64;
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
            "--followers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => followers = n,
                _ => return usage("--followers expects a positive count"),
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
            "--max-lag" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => max_lag = n,
                None => return usage("--max-lag expects an event count"),
            },
            "--max-lag-p99" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => max_lag_p99 = n,
                None => return usage("--max-lag-p99 expects an event count (0 disables)"),
            },
            "--ready-timeout-s" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => ready_timeout = Duration::from_secs(s),
                None => return usage("--ready-timeout-s expects seconds"),
            },
            "--keep-state" => keep_state = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let base = std::env::temp_dir().join(format!("tirm_replica_soak_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    if std::env::var_os("TIRM_SNAPSHOT_DIR").is_none() {
        // All replica lives warm-load one cached dataset; ready times
        // then measure recovery + replication, not graph generation.
        std::env::set_var("TIRM_SNAPSHOT_DIR", base.join("snapshots"));
    }

    let server_bin = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("tirm_server")))
        .filter(|p| p.is_file());
    let Some(server_bin) = server_bin else {
        return fail(
            "tirm_server binary not found next to replica_soak — \
             build it first: cargo build --release -p tirm_server --bin tirm_server",
        );
    };

    let cfg = ScaleConfig::from_env();
    let model = ProbModel::canonical(dataset);
    let replicas_total = followers + 1;
    eprintln!(
        "== replica_soak {} / {} | {} events, {} kill(s), 1 leader + {} follower(s), \
         ckpt every {} | scale={} threads={} ==",
        dataset.name(),
        model.name(),
        events,
        kills,
        followers,
        checkpoint_interval,
        cfg.scale,
        cfg.threads
    );

    let mut log = EventStreamSpec::for_dataset(dataset, events, seed).generate(1.0);
    scale_budgets(&mut log, dataset.size_ratio_at(&cfg));
    let mutations = log.iter().filter(|e| e.event.is_mutation()).count() as u64;

    let (dataset_data, timing) = Dataset::load_or_generate_env(dataset, model, &cfg, seed);
    eprintln!(
        "dataset ready in {:.3}s ({} nodes); in-process oracle replaying {} mutations",
        timing.warm_s + timing.cold_s,
        dataset_data.graph.num_nodes(),
        mutations
    );
    let online_cfg = tirm_server::serving_online_config(dataset, &cfg, 2, 0.0, seed);
    let want = replay_oracle(&dataset_data, online_cfg, &log);

    // Fixed ports for every replica slot, so restarts and referrals
    // always land on the same address.
    let mut addrs = Vec::with_capacity(replicas_total);
    let mut metrics_addrs = Vec::with_capacity(replicas_total);
    for _ in 0..replicas_total {
        match TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()) {
            Ok(a) => addrs.push(SocketAddr::from(([127, 0, 0, 1], a.port()))),
            Err(e) => return fail(&format!("no free port: {e}")),
        }
        match TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()) {
            Ok(a) => metrics_addrs.push(SocketAddr::from(([127, 0, 0, 1], a.port()))),
            Err(e) => return fail(&format!("no free metrics port: {e}")),
        }
    }
    let all_addrs = addrs.clone();

    let fleet = Fleet {
        bin: server_bin,
        common: vec![
            "--dataset".into(),
            dataset.name().into(),
            "--seed".into(),
            seed.to_string(),
            "--queue-depth".into(),
            queue_depth.to_string(),
            "--checkpoint-interval".into(),
            checkpoint_interval.to_string(),
            "--segment-events".into(),
            segment_events.to_string(),
        ],
    };

    // Boot the fleet: slot 0 leads, the rest follow.
    let t0 = Instant::now();
    let mut leader_idx = 0usize;
    let mut replicas: Vec<Replica> = Vec::with_capacity(replicas_total);
    for (i, addr) in addrs.iter().enumerate() {
        let state_dir = base.join(format!("replica{i}"));
        let follow = (i != leader_idx).then_some(addrs[leader_idx]);
        let child = match fleet.spawn(*addr, metrics_addrs[i], &state_dir, follow, &all_addrs) {
            Ok(c) => c,
            Err(e) => return fail(&format!("spawning replica {i}: {e}")),
        };
        replicas.push(Replica {
            addr: *addr,
            metrics_addr: metrics_addrs[i],
            state_dir,
            child,
        });
    }
    let mut monitor = match wait_leader(addrs[leader_idx], ready_timeout) {
        Ok(c) => c,
        Err(e) => return fail(&format!("leader never came up: {e}")),
    };
    for (i, r) in replicas.iter().enumerate() {
        if i != leader_idx {
            if let Err(e) = wait_ready(r.addr, ready_timeout) {
                return fail(&format!("follower {i} never came up: {e}"));
            }
        }
    }
    let first_ready_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "fleet serving after {first_ready_s:.3}s — leader {} | followers {:?} — driving the log",
        addrs[leader_idx],
        addrs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != leader_idx)
            .map(|(_, a)| a.to_string())
            .collect::<Vec<_>>()
    );

    // The driver: deterministic delivery at the leader (not_leader
    // referrals chase hand-offs), readers spread over the whole fleet.
    let driver = {
        let log = log.clone();
        let leader = addrs[leader_idx];
        let follower_addrs: Vec<SocketAddr> = addrs
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| *i != leader_idx)
            .map(|(_, a)| a)
            .collect();
        std::thread::spawn(move || {
            drive(
                leader,
                &log,
                &LoadgenConfig {
                    readers,
                    rate: None,
                    retry: true,
                    seed,
                    drain: true,
                    read_pause: Duration::from_micros(200),
                    reconnect: ClientOptions::reconnecting(240),
                    follower_addrs,
                    max_lag,
                },
            )
        })
    };

    // Kill schedule: evenly spaced durable-frontier thresholds. The
    // victim is drawn from the seeded RNG, except one mid-run kill
    // that always takes the leader so promotion is exercised every
    // soak.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead_beef);
    let forced_leader_kill = kills / 2;
    let mut kill_rows = Vec::new();
    let mut leader_handoffs = 0usize;
    for k in 0..kills {
        let target_seq = (k + 1) as u64 * mutations / (kills as u64 + 1);
        let killed_at = loop {
            match monitor.stats() {
                Ok(s) if s.wal_seq >= target_seq => break s.wal_seq,
                Ok(_) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => match wait_leader(replicas[leader_idx].addr, ready_timeout) {
                    Ok(c) => monitor = c,
                    Err(e) => return fail(&format!("monitor lost the leader: {e}")),
                },
            }
        };
        let target = if k == forced_leader_kill {
            leader_idx
        } else {
            rng.gen_range(0..replicas_total)
        };
        let was_leader = target == leader_idx;
        // Preserve the victim's registry and lineage timeline as
        // artifacts before the SIGKILL erases them (telemetry is
        // in-memory only — no WAL). Kill-window check: the victim's
        // last-breath /trace.json must reconstruct complete lifecycles
        // for its role — the leader's full durable pipeline, or the
        // follower's append→apply→publish extension of the leader's
        // trace ids.
        scrape_metrics(
            replicas[target].metrics_addr,
            &format!("replica_soak_kill{k}_r{target}"),
        );
        if let Some(trace) = tirm_bench::scrape_trace(
            replicas[target].metrics_addr,
            &format!("replica_soak_kill{k}_r{target}"),
        ) {
            let lifecycle: &[&str] = if was_leader {
                &["admit", "queue", "wal_append", "fsync", "apply", "publish"]
            } else {
                &["follower_append", "follower_apply", "publish"]
            };
            let complete = tirm_bench::traces_covering_stages(&trace, lifecycle);
            if complete == 0 {
                return fail(&format!(
                    "kill {k}: replica {target}'s pre-kill /trace.json holds no complete \
                     {} lifecycle",
                    if was_leader { "leader" } else { "follower" },
                ));
            }
            eprintln!("kill {k}: {complete} complete lifecycles in replica {target}'s kill window");
        }
        replicas[target].child.kill().ok();
        replicas[target].child.wait().ok();

        let mut promote_s = None;
        let mut promoted = None;
        if was_leader {
            // Election: promote the live follower with the highest
            // durable frontier.
            let mut best: Option<(usize, u64)> = None;
            for (i, r) in replicas.iter().enumerate() {
                if i == target {
                    continue;
                }
                let seq = Client::connect(r.addr)
                    .and_then(|mut c| c.stats())
                    .map(|s| s.wal_seq)
                    .unwrap_or(0);
                if best.map(|(_, b)| seq >= b).unwrap_or(true) {
                    best = Some((i, seq));
                }
            }
            let Some((winner, frontier)) = best else {
                return fail(&format!("kill {k}: no live follower to promote"));
            };
            let tp = Instant::now();
            match Client::connect(replicas[winner].addr).and_then(|mut c| c.promote()) {
                Ok(epoch) => eprintln!(
                    "kill {k}: leader {target} down at wal_seq {killed_at}; promoting \
                     replica {winner} (frontier {frontier}) to epoch {epoch}"
                ),
                Err(e) => return fail(&format!("kill {k}: promote request failed: {e}")),
            }
            monitor = match wait_leader(replicas[winner].addr, ready_timeout) {
                Ok(c) => c,
                Err(e) => return fail(&format!("kill {k}: promotion never completed: {e}")),
            };
            promote_s = Some(tp.elapsed().as_secs_f64());
            promoted = Some(winner);
            leader_idx = winner;
            leader_handoffs += 1;
        }

        // Restart the victim as a follower of the current leader (the
        // deposed leader's unreplicated tail gets fenced + re-anchored).
        let tr = Instant::now();
        let (addr, state_dir) = (replicas[target].addr, replicas[target].state_dir.clone());
        replicas[target].child = match fleet.spawn(
            addr,
            replicas[target].metrics_addr,
            &state_dir,
            Some(replicas[leader_idx].addr),
            &all_addrs,
        ) {
            Ok(c) => c,
            Err(e) => return fail(&format!("respawning replica {target}: {e}")),
        };
        if let Err(e) = wait_ready(addr, ready_timeout) {
            return fail(&format!("restart {k}: {e}"));
        }
        let ready_s = tr.elapsed().as_secs_f64();
        eprintln!(
            "kill {k}: replica {target} ({}) back as follower in {ready_s:.3}s",
            if was_leader { "was leader" } else { "follower" }
        );
        kill_rows.push(json!({
            // Replica index that took the SIGKILL, and its role then.
            "target": target,
            "role": if was_leader { "leader" } else { "follower" },
            // The leader's durable frontier observed when the kill was sent.
            "killed_at_wal_seq": killed_at,
            // Leader kills only: seconds from the promote request until
            // the winner answered a `hello` as leader, and its index.
            "promote_s": promote_s,
            "promoted": promoted,
            // Seconds from respawning the killed replica until it
            // answered a `hello` (as a follower of the current leader).
            "ready_s": ready_s,
        }));
    }

    let report = match driver.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return fail(&format!("load driver failed: {e}")),
        Err(_) => return fail("load driver panicked"),
    };

    // Every admitted mutation durable at the leader...
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_stats = loop {
        match monitor.stats() {
            Ok(s) if s.wal_seq >= mutations && s.epoch >= mutations && s.queue_depth == 0 => {
                break s
            }
            Ok(s) if Instant::now() >= deadline => {
                return fail(&format!(
                    "leader frontier stuck at {} of {mutations}",
                    s.wal_seq
                ))
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return fail(&format!("polling the leader frontier: {e}")),
        }
    };
    // ...and every follower catches up to it (bounded lag, driven to 0).
    for (i, r) in replicas.iter().enumerate() {
        if i == leader_idx {
            continue;
        }
        loop {
            // `wal_seq` is the durable frontier and runs ahead of the
            // applied state by up to one page (frames are fsynced
            // before they are applied); `epoch` is the published
            // snapshot — the thing the bit-identity probe reads.
            match Client::connect(r.addr).and_then(|mut c| c.stats()) {
                Ok(s) if s.wal_seq >= mutations && s.epoch >= mutations => break,
                _ if Instant::now() >= deadline => {
                    return fail(&format!("follower {i} never caught up to {mutations}"))
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    // Bit-identity on every survivor, leader first.
    let mut bit_identical = Vec::with_capacity(replicas_total);
    let mut order: Vec<usize> = (0..replicas_total).collect();
    order.sort_by_key(|i| *i != leader_idx);
    for i in order {
        let served = match Client::connect(replicas[i].addr).and_then(|mut c| c.allocation()) {
            Ok(s) => s,
            Err(e) => return fail(&format!("fetching replica {i}'s allocation: {e}")),
        };
        let same = served.same_allocation(&want);
        if !same {
            eprintln!(
                "MISMATCH on replica {i}: epoch {} ({} ads, {} seeds, regret {:.6}) vs \
                 oracle epoch {} ({} ads, {} seeds, regret {:.6})",
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
        bit_identical.push(same);
    }

    scrape_metrics(replicas[leader_idx].metrics_addr, "replica_soak_final");
    tirm_bench::scrape_trace(replicas[leader_idx].metrics_addr, "replica_soak_final");
    for r in replicas.iter_mut() {
        Client::connect(r.addr)
            .and_then(|mut c| c.shutdown_server())
            .ok();
    }
    for r in replicas.iter_mut() {
        r.child.wait().ok();
    }

    let lag_p99 = percentile_u64(&report.follower_lag, 0.99);
    println!(
        "replica_soak: {} kills ({} hand-offs) over {} mutations on 1+{} replicas — \
         bit_identical={:?} | follower reads {} (fallback {}), lag p99 {} events | \
         promotions to serving {:?}",
        kills,
        leader_handoffs,
        mutations,
        followers,
        bit_identical,
        report.follower_reads,
        report.leader_fallback_reads,
        lag_p99,
        kill_rows
            .iter()
            .filter_map(|r| r.get("promote_s")?.as_f64())
            .collect::<Vec<_>>(),
    );

    write_json(
        "replica_soak",
        &json!({
            "dataset": dataset.name(),
            "scale": cfg.scale,
            "events": log.len(),
            "mutations": mutations,
            "kills": kills,
            "followers": followers,
            "checkpoint_interval": checkpoint_interval,
            "segment_events": segment_events,
            "first_ready_s": first_ready_s,
            "kill_rows": kill_rows,
            "leader_handoffs": leader_handoffs,
            "offered": report.offered,
            "accepted": report.accepted,
            "shed": report.shed,
            "drive_wall_s": report.wall_s,
            "follower_reads": report.follower_reads,
            "leader_fallback_reads": report.leader_fallback_reads,
            "follower_lag_p99": lag_p99,
            "max_lag_p99": max_lag_p99,
            "final_epoch": final_stats.epoch,
            "final_fencing_epoch": final_stats.fencing_epoch,
            // Per-replica bit-identity vs the uninterrupted oracle,
            // leader first.
            "bit_identical": bit_identical.clone(),
        }),
    );

    if !keep_state {
        std::fs::remove_dir_all(&base).ok();
    } else {
        eprintln!("state kept under {}", base.display());
    }

    if bit_identical.iter().any(|b| !b) {
        return fail("a surviving replica diverged from the uninterrupted replay");
    }
    if max_lag_p99 > 0 && lag_p99 > max_lag_p99 {
        return fail(&format!(
            "follower lag p99 {lag_p99} events exceeds the bound {max_lag_p99}"
        ));
    }
    ExitCode::SUCCESS
}
