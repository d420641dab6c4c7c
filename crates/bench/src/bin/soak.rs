//! Kill/restart soak for the durable serving stack: a leader plus
//! `--followers N` real `tirm_server` processes, one replica SIGKILLed
//! repeatedly mid-stream, and at the end every replica's allocation
//! must be **bit-identical** (assignments *and* revenue-estimate bits)
//! to an uninterrupted in-process replay of the same log.
//!
//! ```text
//! cargo build --release -p tirm_server --bin tirm_server -p tirm_bench --bin soak
//! target/release/soak --events 240 --kills 2                  # crash soak
//! target/release/soak --followers 2 --events 1200 --kills 4   # fleet soak
//! ```
//!
//! With **no followers** (the default) every kill takes the leader,
//! which restarts in place over its own state dir. Each restart must
//! recover to a frontier in `[killed_at, mutations]`: at least the
//! durable frontier last seen before the kill, at most what the log
//! holds. The soak then times the two recovery regimes through the
//! [`tirm_server::wal::recover`] scan the server boots with — **warm**
//! (the final state dir: newest checkpoint + WAL tail) against **cold**
//! (the full log as WAL frames, no checkpoint) — and fails unless warm
//! is at least `--min-speedup` times faster.
//!
//! With **followers**, followers run `--follow` with the other replicas
//! as `--peer` candidates and the victim is drawn from a seeded RNG,
//! except that the middle kill always takes the leader. A killed
//! follower restarts following the current leader; a killed leader
//! triggers an election — the live follower with the highest durable
//! frontier is promoted (fencing epoch bump) and the deposed leader
//! restarts as its follower, its unreplicated WAL tail fenced off. The
//! readers spread over the whole fleet with lag-aware routing, and
//! `--max-lag-p99` bounds the follower lag they observe.
//!
//! In both, the load generator ([`tirm_bench::loadgen::drive`]) rides
//! out every kill — reconnecting, resuming at the durable frontier,
//! chasing `not_leader` referrals — and each victim's `/metrics` and
//! `/trace.json` are scraped right before its SIGKILL: the trace must
//! still hold a complete lifecycle for the victim's role. Everything
//! lands in `target/experiments/soak.json`, the scrapes beside it.
//!
//! Flags: `--dataset NAME` (default EPINIONS), `--followers N` (default
//! 0), `--events N`, `--kills K`, `--seed N`, `--readers N` (defaults
//! 240 / 2 / 0xc4a50c4a / 2 without followers, 1200 / 4 / 0x5e11ca50 /
//! 3 with), `--queue-depth N` (default 32), `--checkpoint-interval N`
//! (default 16), `--segment-events N` (default 64), `--min-speedup X`
//! (default 5, 0 disables), `--max-lag N` (reader fallback threshold,
//! default 64), `--max-lag-p99 N` (default 0 = off),
//! `--ready-timeout-s S` (default 240), `--keep-state`.
//!
//! `TIRM_SCALE` / `TIRM_THREADS` size the run as usual. If
//! `TIRM_SNAPSHOT_DIR` is unset, a scratch snapshot cache is used so
//! every restart warm-loads the dataset instead of regenerating it —
//! time-to-serving then measures recovery, not generation.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::str::FromStr;
use std::time::{Duration, Instant};
use tirm_bench::loadgen::{drive, LoadgenConfig};
use tirm_bench::{scrape_metrics, scrape_trace, traces_covering_stages, write_json};
use tirm_online::OnlineAllocator;
use tirm_server::wal::{recover, Wal};
use tirm_server::{Client, ClientOptions, Role};
use tirm_workloads::events::scale_budgets;
use tirm_workloads::replay::replay;
use tirm_workloads::{Dataset, DatasetKind, EventStreamSpec, ProbModel, ScaleConfig};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: soak [--dataset NAME] [--followers N] [--events N] [--kills K] [--seed N] \
         [--readers N] [--queue-depth N] [--checkpoint-interval N] [--segment-events N] \
         [--min-speedup X] [--max-lag N] [--max-lag-p99 N] [--ready-timeout-s S] \
         [--keep-state]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
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
                    format!("server not ready after {deadline:.0?}: {e}"),
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

/// A loopback address on a port that was free a moment ago, so every
/// life of a replica (and every referral to it) lands on one address.
fn reserve_port() -> io::Result<SocketAddr> {
    let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
    Ok(SocketAddr::from(([127, 0, 0, 1], port)))
}

/// One replica slot: fixed serving and `--metrics-addr` addresses and a
/// state dir, stable across restarts, and whatever child currently
/// serves there. Dropping it SIGKILLs and reaps that child, so no early
/// exit leaves an orphan behind holding the soak's stderr open.
struct Replica {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    state_dir: PathBuf,
    child: Child,
}

impl Replica {
    /// SIGKILL: no drain, no checkpoint, no fsync of anything in
    /// flight — the hard crash the WAL exists for.
    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.kill();
    }
}

struct Fleet {
    bin: PathBuf,
    common: Vec<String>,
    peers: Vec<SocketAddr>,
}

impl Fleet {
    /// Spawns a process for a slot: a leader when `follow` is `None`,
    /// otherwise a follower of `follow` with every other replica
    /// address offered as a peer candidate.
    fn spawn(
        &self,
        addr: SocketAddr,
        metrics_addr: SocketAddr,
        state_dir: &Path,
        follow: Option<SocketAddr>,
    ) -> io::Result<Child> {
        let mut args = self.common.clone();
        args.extend(["--bind".into(), addr.to_string()]);
        args.extend(["--metrics-addr".into(), metrics_addr.to_string()]);
        args.extend(["--state-dir".into(), state_dir.display().to_string()]);
        if let Some(leader) = follow {
            args.extend(["--follow".into(), leader.to_string()]);
            for p in &self.peers {
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

/// The flags, resolved. Events, kills, seed and readers default per
/// configuration: a crash soak without followers, a fleet soak with.
struct Flags {
    dataset: DatasetKind,
    followers: usize,
    events: usize,
    kills: usize,
    seed: u64,
    readers: usize,
    queue_depth: usize,
    checkpoint_interval: u64,
    segment_events: u64,
    min_speedup: f64,
    max_lag: u64,
    max_lag_p99: u64,
    ready_timeout: Duration,
    keep_state: bool,
}

fn parse_flags() -> Result<Flags, String> {
    fn value<T: FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        args.next()
            .and_then(|s| s.parse().ok())
            .filter(ok)
            .ok_or_else(|| format!("{flag} expects {what}"))
    }
    let mut dataset = DatasetKind::Epinions;
    let mut followers = 0usize;
    let (mut events, mut kills, mut seed, mut readers) = (None, None, None, None);
    let (mut queue_depth, mut checkpoint_interval, mut segment_events) = (32, 16, 64);
    let (mut min_speedup, mut max_lag, mut max_lag_p99) = (5.0, 64, 0);
    let mut ready_timeout_s = 240;
    let mut keep_state = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let a = &mut args;
        match flag.as_str() {
            "--dataset" => {
                dataset = a
                    .next()
                    .as_deref()
                    .and_then(DatasetKind::parse)
                    .ok_or("--dataset expects FLIXSTER|EPINIONS|DBLP|LIVEJOURNAL")?
            }
            "--followers" => followers = value(a, &flag, "a count", |_| true)?,
            "--events" => events = Some(value(a, &flag, "a positive count", |n| *n > 0)?),
            "--kills" => kills = Some(value(a, &flag, "a count", |_| true)?),
            "--seed" => seed = Some(value(a, &flag, "an integer", |_| true)?),
            "--readers" => readers = Some(value(a, &flag, "a count", |_| true)?),
            "--queue-depth" => queue_depth = value(a, &flag, "a positive integer", |n| *n > 0)?,
            "--checkpoint-interval" => {
                checkpoint_interval = value(a, &flag, "a positive integer", |n| *n > 0)?
            }
            "--segment-events" => {
                segment_events = value(a, &flag, "a positive integer", |n| *n > 0)?
            }
            "--min-speedup" => {
                min_speedup = value(a, &flag, "a non-negative float", |x| *x >= 0.0)?
            }
            "--max-lag" => max_lag = value(a, &flag, "an event count", |_| true)?,
            "--max-lag-p99" => {
                max_lag_p99 = value(a, &flag, "an event count (0 disables)", |_| true)?
            }
            "--ready-timeout-s" => ready_timeout_s = value(a, &flag, "seconds", |_| true)?,
            "--keep-state" => keep_state = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let fleet = followers > 0;
    Ok(Flags {
        dataset,
        followers,
        events: events.unwrap_or(if fleet { 1200 } else { 240 }),
        kills: kills.unwrap_or(if fleet { 4 } else { 2 }),
        seed: seed.unwrap_or(if fleet { 0x5e11_ca50 } else { 0xc4a5_0c4a }),
        readers: readers.unwrap_or(if fleet { 3 } else { 2 }),
        queue_depth,
        checkpoint_interval,
        segment_events,
        min_speedup,
        max_lag,
        max_lag_p99,
        ready_timeout: Duration::from_secs(ready_timeout_s),
        keep_state,
    })
}

fn main() -> ExitCode {
    let f = match parse_flags() {
        Ok(f) => f,
        Err(msg) => return usage(&msg),
    };
    let (dataset, followers, kills, seed) = (f.dataset, f.followers, f.kills, f.seed);
    let replicas_total = followers + 1;

    let base = std::env::temp_dir().join(format!("tirm_soak_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    if std::env::var_os("TIRM_SNAPSHOT_DIR").is_none() {
        std::env::set_var("TIRM_SNAPSHOT_DIR", base.join("snapshots"));
    }

    let server_bin = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("tirm_server")))
        .filter(|p| p.is_file());
    let Some(server_bin) = server_bin else {
        return fail(
            "tirm_server binary not found next to soak — \
             build it first: cargo build --release -p tirm_server --bin tirm_server",
        );
    };

    let cfg = ScaleConfig::from_env();
    let model = ProbModel::canonical(dataset);
    eprintln!(
        "== soak {} / {} | {} events, {kills} kill(s), 1 leader + {followers} follower(s), \
         ckpt every {} | scale={} threads={} ==",
        dataset.name(),
        model.name(),
        f.events,
        f.checkpoint_interval,
        cfg.scale,
        cfg.threads
    );

    let mut log = EventStreamSpec::for_dataset(dataset, f.events, seed).generate(1.0);
    scale_budgets(&mut log, dataset.size_ratio_at(&cfg));
    let mutations = log.iter().filter(|e| e.event.is_mutation()).count() as u64;

    // Generate (and snapshot-cache) the dataset before the first child
    // boots, so every server life warm-loads it.
    let (data, timing) = Dataset::load_or_generate_env(dataset, model, &cfg, seed);
    eprintln!(
        "dataset ready in {:.3}s ({} nodes); in-process oracle replaying {mutations} mutations",
        timing.warm_s + timing.cold_s,
        data.graph.num_nodes(),
    );
    let online_cfg = tirm_server::serving_online_config(dataset, &cfg, 2, 0.0, seed);
    let mut oracle = OnlineAllocator::new(&data.graph, &data.topic_probs, online_cfg.clone());
    replay(&mut oracle, &log);
    let want = oracle.snapshot();
    drop(oracle);

    let mut slots = Vec::with_capacity(replicas_total);
    for _ in 0..replicas_total {
        match reserve_port().and_then(|a| Ok((a, reserve_port()?))) {
            Ok(pair) => slots.push(pair),
            Err(e) => return fail(&format!("no free port: {e}")),
        }
    }
    let fleet = Fleet {
        bin: server_bin,
        common: vec![
            "--dataset".into(),
            dataset.name().into(),
            "--seed".into(),
            seed.to_string(),
            "--queue-depth".into(),
            f.queue_depth.to_string(),
            "--checkpoint-interval".into(),
            f.checkpoint_interval.to_string(),
            "--segment-events".into(),
            f.segment_events.to_string(),
        ],
        peers: slots.iter().map(|(addr, _)| *addr).collect(),
    };

    // Boot: slot 0 leads, the rest follow.
    let t0 = Instant::now();
    let mut leader_idx = 0usize;
    let mut replicas: Vec<Replica> = Vec::with_capacity(replicas_total);
    for (i, &(addr, metrics_addr)) in slots.iter().enumerate() {
        let state_dir = base.join(format!("replica{i}"));
        let follow = (i != leader_idx).then_some(slots[leader_idx].0);
        match fleet.spawn(addr, metrics_addr, &state_dir, follow) {
            Ok(child) => replicas.push(Replica {
                addr,
                metrics_addr,
                state_dir,
                child,
            }),
            Err(e) => return fail(&format!("spawning replica {i}: {e}")),
        }
    }
    let mut monitor = match wait_leader(replicas[leader_idx].addr, f.ready_timeout) {
        Ok(c) => c,
        Err(e) => return fail(&format!("leader never came up: {e}")),
    };
    if let Some(h) = monitor.hello().filter(|h| h.wal_seq != 0) {
        return fail(&format!("fresh state dir but hello wal_seq {}", h.wal_seq));
    }
    for r in &replicas[1..] {
        if let Err(e) = wait_ready(r.addr, f.ready_timeout) {
            return fail(&format!("follower {} never came up: {e}", r.addr));
        }
    }
    let first_ready_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "serving after {first_ready_s:.3}s — leader {} | followers {:?} — driving the log",
        replicas[leader_idx].addr,
        &fleet.peers[1..]
    );

    // The load generator: deterministic delivery at the leader with a reconnect
    // budget that rides out every restart and hand-off, readers spread
    // over the whole fleet.
    let generator = {
        let log = log.clone();
        let leader = replicas[leader_idx].addr;
        let load = LoadgenConfig {
            readers: f.readers,
            seed,
            read_pause: Duration::from_micros(200),
            reconnect: ClientOptions::reconnecting(240),
            follower_addrs: fleet.peers[1..].to_vec(),
            max_lag: f.max_lag,
        };
        std::thread::spawn(move || drive(leader, &log, &load))
    };

    // Kill schedule: evenly spaced durable-frontier thresholds, so the
    // kills land mid-stream wherever the throughput ends up.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead_beef);
    let mut kill_rows = Vec::new();
    let mut leader_handoffs = 0usize;
    for k in 0..kills {
        let target_seq = (k + 1) as u64 * mutations / (kills as u64 + 1);
        let killed_at = loop {
            match monitor.stats() {
                Ok(s) if s.wal_seq >= target_seq => break s.wal_seq,
                Ok(_) => std::thread::sleep(Duration::from_millis(2)),
                // The monitor connection can be a casualty of a prior
                // kill racing shutdown-vs-accept; just re-dial.
                Err(_) => match wait_leader(replicas[leader_idx].addr, f.ready_timeout) {
                    Ok(c) => monitor = c,
                    Err(e) => return fail(&format!("monitor lost the leader: {e}")),
                },
            }
        };
        let target = if k == kills / 2 {
            leader_idx
        } else {
            rng.gen_range(0..replicas_total)
        };
        let was_leader = target == leader_idx;
        let role = if was_leader { "leader" } else { "follower" };
        // Last-breath scrapes: the registry and the flight-recorder
        // timeline the SIGKILL is about to erase (telemetry is in-memory
        // only — no WAL), kept as artifacts. The kill-window check: the
        // victim's last trace must still reconstruct a complete
        // lifecycle for its role — the leader's durable pipeline, or the
        // follower's extension of the leader's trace ids.
        let name = format!("soak_kill{k}_r{target}");
        scrape_metrics(replicas[target].metrics_addr, &name);
        if let Some(trace) = scrape_trace(replicas[target].metrics_addr, &name) {
            let lifecycle: &[&str] = if was_leader {
                &["admit", "queue", "wal_append", "fsync", "apply", "publish"]
            } else {
                &["follower_append", "follower_apply", "publish"]
            };
            let complete = traces_covering_stages(&trace, lifecycle);
            if complete == 0 {
                return fail(&format!(
                    "kill {k}: replica {target}'s pre-kill /trace.json holds no complete \
                     {role} lifecycle"
                ));
            }
            eprintln!("kill {k}: {complete} complete lifecycles in replica {target}'s kill window");
        }
        replicas[target].kill();

        let (mut promote_s, mut promoted) = (None, None);
        if was_leader && followers > 0 {
            // Election: promote the live follower with the highest
            // durable frontier.
            let mut best: Option<(usize, u64)> = None;
            for (i, r) in replicas.iter().enumerate().filter(|(i, _)| *i != target) {
                let seq = Client::connect(r.addr)
                    .and_then(|mut c| c.stats())
                    .map_or(0, |s| s.wal_seq);
                if best.is_none_or(|(_, b)| seq >= b) {
                    best = Some((i, seq));
                }
            }
            let (winner, frontier) = best.expect("a fleet with followers has a survivor");
            let tp = Instant::now();
            match Client::connect(replicas[winner].addr).and_then(|mut c| c.promote()) {
                Ok(epoch) => eprintln!(
                    "kill {k}: leader {target} down at wal_seq {killed_at}; promoting \
                     replica {winner} (frontier {frontier}) to epoch {epoch}"
                ),
                Err(e) => return fail(&format!("kill {k}: promote request failed: {e}")),
            }
            monitor = match wait_leader(replicas[winner].addr, f.ready_timeout) {
                Ok(c) => c,
                Err(e) => return fail(&format!("kill {k}: promotion never completed: {e}")),
            };
            promote_s = Some(tp.elapsed().as_secs_f64());
            promoted = Some(winner);
            leader_idx = winner;
            leader_handoffs += 1;
        }

        // Restart the victim: in place when it still leads (no follower
        // took over), else as a follower of the current leader (a
        // deposed leader's unreplicated tail gets fenced + re-anchored).
        let tr = Instant::now();
        let r = &mut replicas[target];
        let follow = (target != leader_idx).then_some(slots[leader_idx].0);
        r.child = match fleet.spawn(r.addr, r.metrics_addr, &r.state_dir, follow) {
            Ok(c) => c,
            Err(e) => return fail(&format!("respawning replica {target}: {e}")),
        };
        let restarted = if follow.is_none() {
            wait_leader(r.addr, f.ready_timeout)
        } else {
            wait_ready(r.addr, f.ready_timeout)
        };
        let recovered = match restarted {
            Ok(c) => {
                let recovered = c.hello().map_or(0, |h| h.wal_seq);
                if follow.is_none() {
                    monitor = c;
                }
                recovered
            }
            Err(e) => return fail(&format!("restart {k}: {e}")),
        };
        let ready_s = tr.elapsed().as_secs_f64();
        eprintln!(
            "kill {k}: SIGKILL of replica {target} ({role}) at wal_seq {killed_at} → \
             serving again in {ready_s:.3}s (recovered to {recovered})"
        );
        // What the WAL promises a leader restarted in place: a frontier
        // seen durable survives the kill. The load generator kept writing through
        // the scrapes between that reading and the SIGKILL, so the
        // recovered frontier may be ahead of it — by no more than the
        // log holds.
        if followers == 0 && !(killed_at..=mutations).contains(&recovered) {
            return fail(&format!(
                "kill {k}: recovered frontier {recovered} is outside [{killed_at}, \
                 {mutations}]: the durable frontier observed before the kill, and the \
                 mutations there are to send"
            ));
        }
        kill_rows.push(json!({
            // Replica index that took the SIGKILL, and its role then.
            "target": target,
            "role": role,
            // The leader's durable frontier observed when the kill was sent.
            "killed_at_wal_seq": killed_at,
            // Leader kills with followers only: seconds from the promote
            // request until the winner answered a `hello` as leader, and
            // its index.
            "promote_s": promote_s,
            "promoted": promoted,
            // Seconds from respawning the victim until it answered a
            // `hello`, and the durable frontier that `hello` reported.
            "ready_s": ready_s,
            "recovered_wal_seq": recovered,
        }));
    }

    let report = match generator.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return fail(&format!("load generator failed: {e}")),
        Err(_) => return fail("load generator panicked"),
    };

    // Every admitted mutation durable and applied at the leader...
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
    // ...and every follower caught up to it. `wal_seq` is the durable
    // frontier and runs ahead of the applied state by up to one page
    // (frames are fsynced before they are applied); `epoch` is the
    // published snapshot — what the bit-identity probe reads.
    for (i, r) in replicas
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != leader_idx)
    {
        loop {
            match Client::connect(r.addr).and_then(|mut c| c.stats()) {
                Ok(s) if s.wal_seq >= mutations && s.epoch >= mutations => break,
                _ if Instant::now() >= deadline => {
                    return fail(&format!("follower {i} never caught up to {mutations}"))
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    // Bit-identity on every replica, leader first.
    let mut order: Vec<usize> = (0..replicas_total).collect();
    order.sort_by_key(|i| *i != leader_idx);
    let mut bit_identical = Vec::with_capacity(replicas_total);
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

    scrape_metrics(replicas[leader_idx].metrics_addr, "soak_final");
    scrape_trace(replicas[leader_idx].metrics_addr, "soak_final");
    for r in &replicas {
        Client::connect(r.addr)
            .and_then(|mut c| c.shutdown_server())
            .ok();
    }
    for r in &mut replicas {
        r.child.wait().ok();
    }

    // Without followers: the two recovery regimes, through the exact
    // scan the server boots with, both held to the oracle.
    let recovery = if followers == 0 {
        let timed = |dir: &Path| {
            let t = Instant::now();
            let (a, rep) = recover(dir, &data.graph, &data.topic_probs, &online_cfg).ok()?;
            let s = t.elapsed().as_secs_f64();
            (rep.wal_seq == mutations && a.snapshot().same_allocation(&want)).then_some(s)
        };
        let Some(warm_s) = timed(&replicas[0].state_dir) else {
            return fail("warm recovery of the final state dir diverged from the oracle");
        };
        let cold_dir = base.join("cold_wal");
        let built = Wal::open(&cold_dir, 0, mutations.max(1)).and_then(|mut wal| {
            for e in log.iter().filter(|e| e.event.is_mutation()) {
                wal.append(&e.event)?;
            }
            wal.sync()
        });
        if let Err(e) = built {
            return fail(&format!("building the cold-replay WAL: {e}"));
        }
        let Some(cold_s) = timed(&cold_dir) else {
            return fail("cold full-log replay diverged from the oracle");
        };
        Some((warm_s, cold_s, cold_s / warm_s.max(1e-9)))
    } else {
        None
    };

    let lag_p99 = report.follower_lag_p99();
    let detail = match recovery {
        Some((warm_s, cold_s, speedup)) => {
            format!("warm recovery {warm_s:.3}s vs cold replay {cold_s:.3}s = {speedup:.1}×")
        }
        None => format!(
            "follower reads {} (fallback {}), lag p99 {lag_p99} events | promotions to \
             serving {:?}",
            report.follower_reads,
            report.leader_fallback_reads,
            kill_rows
                .iter()
                .filter_map(|r| r.get("promote_s")?.as_f64())
                .collect::<Vec<_>>(),
        ),
    };
    println!(
        "soak: {kills} kills ({leader_handoffs} hand-offs) over {mutations} mutations on \
         1+{followers} replicas — bit_identical={bit_identical:?} | {detail} | restarts to \
         serving {:?}",
        kill_rows
            .iter()
            .filter_map(|r| r.get("ready_s")?.as_f64())
            .collect::<Vec<_>>(),
    );

    write_json(
        "soak",
        &json!({
            "dataset": dataset.name(),
            "scale": cfg.scale,
            "events": log.len(),
            "mutations": mutations,
            "kills": kills,
            "followers": followers,
            "checkpoint_interval": f.checkpoint_interval,
            "segment_events": f.segment_events,
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
            "max_lag_p99": f.max_lag_p99,
            "final_epoch": final_stats.epoch,
            "final_fencing_epoch": final_stats.fencing_epoch,
            // Per-replica bit-identity vs the uninterrupted oracle,
            // leader first.
            "bit_identical": bit_identical.clone(),
            // Without followers only (null otherwise).
            "warm_recover_s": recovery.map(|r| r.0),
            "cold_replay_s": recovery.map(|r| r.1),
            "recovery_speedup": recovery.map(|r| r.2),
            "min_speedup": f.min_speedup,
        }),
    );

    if !f.keep_state {
        std::fs::remove_dir_all(&base).ok();
    } else {
        eprintln!("state kept under {}", base.display());
    }

    if bit_identical.iter().any(|b| !b) {
        return fail("a replica diverged from the uninterrupted replay");
    }
    if let Some((_, _, speedup)) = recovery.filter(|r| f.min_speedup > 0.0 && r.2 < f.min_speedup) {
        return fail(&format!(
            "warm-checkpoint recovery is only {speedup:.1}× faster than cold replay \
             (floor {:.1}×)",
            f.min_speedup
        ));
    }
    if f.max_lag_p99 > 0 && lag_p99 > f.max_lag_p99 {
        return fail(&format!(
            "follower lag p99 {lag_p99} events exceeds the bound {}",
            f.max_lag_p99
        ));
    }
    ExitCode::SUCCESS
}
