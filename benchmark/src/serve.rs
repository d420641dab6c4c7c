//! One round of a serving workload: fresh `tirm_server` children on a
//! fresh state dir, set-up, the measured segments, tear-down. All load
//! is closed loop, from this one process, over at most two connections
//! that are busy at the same time (README, N4).

use crate::client::{Conn, POLL_SLEEP, VISIBLE_DEADLINE};
use crate::inputs::{Inputs, Workload, PROGRAM_THREADS, READS_PER_TOPUP};
use crate::procs::{cpu_seconds, peak_rss_mb, ServerProc};
use crate::trace::Tracer;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tirm_online::{AllocationSnapshot, EventKind, OnlineEvent};
use tirm_server::wal;
use tirm_wire::{Request, Response, StatsView};

/// Mutations the pipelined segment keeps unapplied at most: below the
/// server's queue depth of 64, so nothing is shed.
pub const WINDOW: u64 = 32;
/// How long a follower may take to bootstrap.
const BOOTSTRAP_DEADLINE: Duration = Duration::from_secs(60);

/// Where a round finds the program and puts its state.
pub struct Env<'a> {
    /// The `tirm_server` binary.
    pub server_bin: &'a Path,
    /// `TIRM_SNAPSHOT_DIR`: holds the prepared graph snapshot.
    pub snapshot_dir: &'a Path,
    /// Parent of the round's state dirs (a real filesystem, README N7).
    pub scratch: &'a Path,
}

/// One stretch of a round between two fixed op positions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Interval {
    /// Work units completed in it.
    pub units: f64,
    /// Wall seconds it took.
    pub wall_s: f64,
    /// CPU seconds all children used in it.
    pub cpu_s: f64,
}

/// What one round measured. Every timing is kept per fixed position
/// (set-up phase, op, chunk of the throughput segment), so the run can
/// take each position from the round that was least disturbed there.
#[derive(Default)]
pub struct RoundOut {
    /// Round start (spawn) → first measured op issued, cut into its
    /// consecutive phases.
    pub setup_phases_s: Vec<f64>,
    /// The primary op's latency per op position.
    pub latencies_ms: Vec<f64>,
    /// CPU seconds of all children per op of the one-in-flight segment
    /// (empty where the throughput segment is the only measured one).
    pub op_cpu_s: Vec<f64>,
    /// The throughput segment, cut at fixed op positions.
    pub chunks: Vec<Interval>,
    /// Ops the CPU of the measured segments is divided by.
    pub cpu_ops: f64,
    /// Sum of the children's peak resident sets.
    pub peak_rss_mb: f64,
    /// Ops sent, set-up included.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The leader's final standing allocation.
    pub final_snapshot: Option<AllocationSnapshot>,
    /// Follower's final allocation bit-equal to the leader's (true when
    /// there is no follower).
    pub follower_equal: bool,
    /// Every child exited with status 0 after `shutdown`.
    pub clean_exit: bool,
    /// Per-layer observations.
    pub side: Side,
}

impl RoundOut {
    /// Round start (spawn) → first measured op issued.
    pub fn setup_s(&self) -> f64 {
        self.setup_phases_s.iter().sum()
    }

    /// Work units per second over the whole throughput segment.
    pub fn throughput_per_s(&self) -> f64 {
        let units: f64 = self.chunks.iter().map(|c| c.units).sum();
        let wall: f64 = self.chunks.iter().map(|c| c.wall_s).sum();
        if wall > 0.0 {
            units / wall
        } else {
            0.0
        }
    }

    /// CPU of all children across the measured segments ÷ ops.
    pub fn cpu_ms_per_op(&self) -> f64 {
        let cpu: f64 =
            self.op_cpu_s.iter().sum::<f64>() + self.chunks.iter().map(|c| c.cpu_s).sum::<f64>();
        cpu * 1e3 / self.cpu_ops.max(1.0)
    }
}

/// Per-layer observations of a round; reported by traced runs only.
#[derive(Default)]
pub struct Side {
    /// Leader spawn → listening.
    pub boot_s: f64,
    /// Preload first send → last visible.
    pub preload_s: f64,
    /// Leader `shutdown` sent → process gone.
    pub shutdown_s: f64,
    /// Leader CPU over the whole round.
    pub leader_cpu_s: f64,
    /// Follower CPU over the whole round.
    pub follower_cpu_s: f64,
    /// Send → `accepted`, pipelined segment.
    pub accept_us: Vec<f64>,
    /// Time to visible by event kind, one-in-flight segment.
    pub visible_ms: Vec<(EventKind, f64)>,
    /// Read latency by request kind.
    pub read_us: Vec<(&'static str, f64)>,
    /// Time between two polls of one wait.
    pub poll_gap_us: Vec<f64>,
    /// Round trip of a `stats` read served by the follower.
    pub follower_read_us: Vec<f64>,
    /// Follower-visible minus leader-visible (traced round only).
    pub lag_ms: Vec<f64>,
    /// Largest `leader_seq − wal_seq` a follower poll reported.
    pub lag_frames_max: u64,
    /// Follower spawn → caught up with the preload.
    pub bootstrap_s: f64,
    /// Size of the checkpoint the follower downloaded.
    pub bootstrap_mb: f64,
    /// The leader's final `stats`.
    pub stats: Option<StatsView>,
    /// One wire `metrics` request.
    pub metrics_scrape_ms: f64,
    /// Size of the registry dump.
    pub metrics_bytes: f64,
    /// Counters read from the leader's registry dump.
    pub registry: Registry,
}

/// The counters the benchmark reads from the program's registry dump.
#[derive(Default, Clone, Copy)]
pub struct Registry {
    /// `tirm_server_snapshot_publishes_total`.
    pub snapshot_publishes: u64,
    /// Periodic checkpoints written (`tirm_server_checkpoint_wall_ns` count).
    pub checkpoints: u64,
    /// Group commits (`tirm_server_wal_fsync_latency_ns` count).
    pub fsyncs: u64,
    /// Events those commits covered (`tirm_server_wal_batch_events` sum).
    pub wal_events: u64,
    /// `tirm_repl_frames_shipped_total`.
    pub frames_shipped: u64,
}

impl Registry {
    fn parse(json: &str) -> Registry {
        let Ok(v) = serde_json::from_str(json) else {
            return Registry::default();
        };
        let counter = |name: &str| {
            v.get("counters")
                .and_then(|c| c.get(name))
                .and_then(|x| x.as_u64())
                .unwrap_or(0)
        };
        let hist = |name: &str, field: &str| {
            v.get("histograms")
                .and_then(|h| h.get(name))
                .and_then(|h| h.get(field))
                .and_then(|x| x.as_u64())
                .unwrap_or(0)
        };
        Registry {
            snapshot_publishes: counter("tirm_server_snapshot_publishes_total"),
            checkpoints: hist("tirm_server_checkpoint_wall_ns", "count"),
            fsyncs: hist("tirm_server_wal_fsync_latency_ns", "count"),
            wal_events: hist("tirm_server_wal_batch_events", "sum"),
            frames_shipped: counter("tirm_repl_frames_shipped_total"),
        }
    }
}

/// Spawns one server child of this round.
fn spawn_server(
    env: &Env<'_>,
    inputs: &Inputs,
    state_dir: &Path,
    follow: Option<&str>,
) -> io::Result<ServerProc> {
    let mut args: Vec<String> = [
        "--dataset",
        inputs.kind.name(),
        "--model",
        inputs.model.name(),
        "--bind",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut flag = |name: &str, value: String| {
        args.push(name.to_string());
        args.push(value);
    };
    flag("--kappa", inputs.kappa.to_string());
    flag("--lambda", inputs.lambda.to_string());
    flag("--seed", inputs.dataset_seed.to_string());
    flag("--state-dir", state_dir.display().to_string());
    flag(
        "--checkpoint-interval",
        inputs.checkpoint_interval.to_string(),
    );
    flag("--segment-events", inputs.segment_events.to_string());
    if let Some(leader) = follow {
        flag("--follow", leader.to_string());
    }
    let envs = [
        ("TIRM_SCALE", inputs.sizes.scale.to_string()),
        ("TIRM_THREADS", PROGRAM_THREADS.to_string()),
        ("TIRM_SNAPSHOT_DIR", env.snapshot_dir.display().to_string()),
    ];
    ServerProc::spawn(env.server_bin, args.as_slice(), &envs)
}

fn requests(events: &[OnlineEvent]) -> Vec<Request> {
    events.iter().cloned().map(Request::Mutate).collect()
}

/// Records poll gaps and follower observations of one wait.
struct PollLog<'a> {
    side: &'a mut Side,
    last: Option<Instant>,
    from_follower: bool,
}

impl PollLog<'_> {
    fn on_poll(&mut self, stats: &StatsView, rtt: Duration) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.side.poll_gap_us.push((now - last).as_secs_f64() * 1e6);
        }
        self.last = Some(now);
        if self.from_follower {
            self.side.follower_read_us.push(rtt.as_secs_f64() * 1e6);
            self.side.lag_frames_max = self.side.lag_frames_max.max(stats.lag());
        }
    }
}

/// One-in-flight segment: send a mutation, wait until `watch` (the
/// follower, or the sending connection when `None`) publishes it, then
/// send the next. Returns the time to visible per op position.
fn one_in_flight(
    events: &[OnlineEvent],
    base_epoch: u64,
    pids: &[u32],
    send: &mut Conn,
    mut watch: Option<&mut Conn>,
    tr: &mut Tracer,
    out: &mut RoundOut,
) -> io::Result<()> {
    let reqs = requests(events);
    let mut applied = base_epoch;
    let mut cpu_before = total_cpu(pids);
    for (i, req) in reqs.iter().enumerate() {
        let op = i as u64;
        out.attempted += 1;
        let h_op = tr.begin("op", op);
        let t_send = Instant::now();
        let resp = send.request(req, tr, op)?;
        if !matches!(resp, Response::Accepted { .. }) {
            out.failed += 1;
            out.latencies_ms.push(VISIBLE_DEADLINE.as_secs_f64() * 1e3);
            out.op_cpu_s.push(0.0);
            tr.end(h_op);
            continue;
        }
        let target = applied + 1;
        let h_wait = tr.begin("client.wait_visible", op);
        let mut leader_seen = None;
        // The traced round also learns when the leader published it.
        if tr.is_enabled() && watch.is_some() {
            let mut log = PollLog {
                side: &mut out.side,
                last: None,
                from_follower: false,
            };
            leader_seen = send
                .wait_epoch(target, |s, rtt| log.on_poll(s, rtt))?
                .map(|(t, _)| t);
        }
        let from_follower = watch.is_some();
        let conn = watch.as_deref_mut().unwrap_or(send);
        let mut log = PollLog {
            side: &mut out.side,
            last: None,
            from_follower,
        };
        let seen = conn.wait_epoch(target, |s, rtt| log.on_poll(s, rtt))?;
        tr.end(h_wait);
        tr.end(h_op);
        match seen {
            Some((t_visible, _)) => {
                applied = target;
                let ms = (t_visible - t_send).as_secs_f64() * 1e3;
                out.latencies_ms.push(ms);
                out.side.visible_ms.push((events[i].kind(), ms));
                if let Some(t_leader) = leader_seen {
                    out.side
                        .lag_ms
                        .push(t_visible.saturating_duration_since(t_leader).as_secs_f64() * 1e3);
                }
            }
            None => {
                out.failed += 1;
                out.latencies_ms.push(VISIBLE_DEADLINE.as_secs_f64() * 1e3);
            }
        }
        let cpu_after = total_cpu(pids);
        out.op_cpu_s.push(cpu_after - cpu_before);
        cpu_before = cpu_after;
    }
    Ok(())
}

/// Cuts a pipelined segment at every `every`th applied mutation.
struct Chunker<'a> {
    pids: &'a [u32],
    every: u64,
    /// Applied count at which the open chunk began.
    open_from: u64,
    /// Ops of the segment: the last chunk ends there.
    last: u64,
    t_open: Instant,
    cpu_open: f64,
    into: Vec<Interval>,
}

impl<'a> Chunker<'a> {
    fn new(pids: &'a [u32], every: u64, ops: u64, t0: Instant) -> Self {
        Chunker {
            pids,
            every: every.max(1),
            open_from: 0,
            last: ops,
            t_open: t0,
            cpu_open: total_cpu(pids),
            into: Vec::new(),
        }
    }

    /// `applied` mutations were seen applied at `now`.
    fn observe(&mut self, applied: u64, now: Instant) {
        // One poll may see several chunks end (a follower applies what
        // one replication poll shipped): they share the interval evenly.
        let mut ended = Vec::new();
        while self.open_from < self.last {
            let open_to = (self.open_from + self.every).min(self.last);
            if applied < open_to {
                break;
            }
            ended.push((open_to - self.open_from) as f64);
            self.open_from = open_to;
        }
        if ended.is_empty() {
            return;
        }
        let cpu = total_cpu(self.pids);
        let share = 1.0 / ended.len() as f64;
        for units in ended {
            self.into.push(Interval {
                units,
                wall_s: (now - self.t_open).as_secs_f64() * share,
                cpu_s: (cpu - self.cpu_open) * share,
            });
        }
        self.t_open = now;
        self.cpu_open = cpu;
    }
}

/// Pipelined segment: keep at most [`WINDOW`] mutations unapplied at
/// `watch` (the follower, or the leader itself when `None`), until the
/// last one is visible there. Returns how many mutations were applied
/// and the segment cut at every `every`th applied mutation, with the CPU
/// `pids` used in each chunk. A measured segment (`pids` not empty) also
/// records how long every `accepted` took.
fn pipelined(
    events: &[OnlineEvent],
    base_epoch: u64,
    send: &mut Conn,
    mut watch: Option<&mut Conn>,
    (pids, every): (&[u32], usize),
    out: &mut RoundOut,
) -> io::Result<(u64, Vec<Interval>)> {
    let reqs = requests(events);
    let t0 = Instant::now();
    let mut chunker = Chunker::new(pids, every as u64, reqs.len() as u64, t0);
    let mut admitted = 0u64;
    let mut applied = 0u64;
    for req in &reqs {
        out.attempted += 1;
        let stalled = Instant::now();
        while admitted - applied >= WINDOW {
            let from_follower = watch.is_some();
            let conn = watch.as_deref_mut().unwrap_or(send);
            let sent = Instant::now();
            let stats = conn.stats()?;
            let now = Instant::now();
            if from_follower {
                out.side
                    .follower_read_us
                    .push((now - sent).as_secs_f64() * 1e6);
                out.side.lag_frames_max = out.side.lag_frames_max.max(stats.lag());
            }
            applied = stats.epoch.saturating_sub(base_epoch);
            chunker.observe(applied, now);
            if admitted - applied < WINDOW {
                break;
            }
            if stalled.elapsed() > VISIBLE_DEADLINE {
                // Nothing moves: everything still unsent has failed.
                out.failed += 1;
                return Ok((applied, chunker.into));
            }
            std::thread::sleep(POLL_SLEEP);
        }
        let sent = Instant::now();
        let resp = send.request(req, &mut Tracer::disabled(), 0)?;
        if !pids.is_empty() {
            out.side.accept_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        match resp {
            Response::Accepted { epoch, .. } => {
                admitted += 1;
                if watch.is_none() {
                    applied = applied.max(epoch.saturating_sub(base_epoch));
                    chunker.observe(applied, Instant::now());
                }
            }
            _ => out.failed += 1,
        }
    }
    let from_follower = watch.is_some();
    let conn = watch.unwrap_or(send);
    let side = &mut out.side;
    let seen = conn.wait_epoch(base_epoch + admitted, |stats, rtt| {
        if from_follower {
            side.follower_read_us.push(rtt.as_secs_f64() * 1e6);
            side.lag_frames_max = side.lag_frames_max.max(stats.lag());
        }
        chunker.observe(stats.epoch.saturating_sub(base_epoch), Instant::now());
    })?;
    if seen.is_none() {
        out.failed += 1;
    }
    Ok((admitted, chunker.into))
}

/// The preload, pipelined and cut into quarters: phases of set-up.
fn preload(inputs: &Inputs, conn: &mut Conn, out: &mut RoundOut) -> io::Result<u64> {
    let quarter = inputs.preload.len().div_ceil(4);
    let (loaded, quarters) = pipelined(&inputs.preload, 0, conn, None, (&[], quarter), out)?;
    out.side.preload_s = quarters.iter().map(|q| q.wall_s).sum();
    out.setup_phases_s.extend(quarters.iter().map(|q| q.wall_s));
    Ok(loaded)
}

/// Sum over the children that are still running.
fn total_cpu(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|&p| cpu_seconds(p)).sum()
}

/// Stops one child and reports how long that took and whether it went
/// cleanly.
fn stop(mut conn: Conn, proc_: ServerProc) -> (f64, bool) {
    let t0 = Instant::now();
    let asked = conn.shutdown().is_ok();
    drop(conn);
    let clean = proc_.wait_exit() && asked;
    (t0.elapsed().as_secs_f64(), clean)
}

fn state_dir(env: &Env<'_>, round: usize, role: &str) -> io::Result<PathBuf> {
    let dir = env.scratch.join(format!("round{round}-{role}"));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Ends the set-up phase that began at `from`; the next begins now.
fn phase_ends(out: &mut RoundOut, from: &mut Instant) {
    let now = Instant::now();
    out.setup_phases_s.push((now - *from).as_secs_f64());
    *from = now;
}

/// One round of `serve-churn` or `replica-follow`.
pub fn churn_round(
    env: &Env<'_>,
    inputs: &Inputs,
    round: usize,
    tr: &mut Tracer,
) -> io::Result<RoundOut> {
    let with_follower = inputs.workload == Workload::ReplicaFollow;
    let mut out = RoundOut {
        follower_equal: true,
        ..RoundOut::default()
    };
    // Set-up, phase by phase: each phase ends where the next begins.
    let mut phase_from = Instant::now();
    let leader_dir = state_dir(env, round, "leader")?;
    let leader = spawn_server(env, inputs, &leader_dir, None)?;
    out.side.boot_s = leader.boot_s;
    let mut conn = Conn::connect(&leader.addr)?;
    phase_ends(&mut out, &mut phase_from);

    let loaded = preload(inputs, &mut conn, &mut out)?;
    phase_from = Instant::now();

    let mut follower = None;
    if with_follower {
        // The checkpoint at the end of the preload is written after its
        // last event became visible. Only once it has pruned the log's
        // first segment does a fresh follower have to bootstrap from it.
        let t_prune = Instant::now();
        while wal::list_segments(&leader_dir)?
            .first()
            .is_none_or(|&(start, _)| start == 0)
        {
            if t_prune.elapsed() > BOOTSTRAP_DEADLINE {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("leader never pruned its log\n{}", leader.log_tail()),
                ));
            }
            std::thread::sleep(POLL_SLEEP);
        }
        phase_ends(&mut out, &mut phase_from);
        let t_boot = Instant::now();
        let dir = state_dir(env, round, "follower")?;
        let proc_ = spawn_server(env, inputs, &dir, Some(&leader.addr))?;
        let mut fconn = Conn::connect(&proc_.addr)?;
        loop {
            if fconn.stats()?.epoch >= loaded {
                break;
            }
            if t_boot.elapsed() > BOOTSTRAP_DEADLINE {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("follower never caught up\n{}", proc_.log_tail()),
                ));
            }
            std::thread::sleep(POLL_SLEEP);
        }
        out.side.bootstrap_s = t_boot.elapsed().as_secs_f64();
        out.side.bootstrap_mb = wal::newest_checkpoint(&leader_dir)?
            .and_then(|(_, path)| std::fs::metadata(path).ok())
            .map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
        follower = Some((proc_, fconn, dir));
        phase_ends(&mut out, &mut phase_from);
    }

    let mut pids = vec![leader.pid()];
    pids.extend(follower.as_ref().map(|(p, _, _)| p.pid()));

    let mut watch = follower.as_mut().map(|(_, c, _)| c);
    one_in_flight(
        &inputs.segment_a,
        loaded,
        &pids,
        &mut conn,
        watch.as_deref_mut(),
        tr,
        &mut out,
    )?;
    // Segment A advances the epoch by one per op that became visible.
    let after_a = loaded + out.side.visible_ms.len() as u64;
    let (b_applied, chunks) = pipelined(
        &inputs.segment_b,
        after_a,
        &mut conn,
        watch,
        (&pids, inputs.sizes.chunk),
        &mut out,
    )?;
    out.chunks = chunks;
    out.cpu_ops = (inputs.segment_a.len() + inputs.segment_b.len()) as f64;

    // Outside the measured window: final state, counters, memory. A
    // follower applies a frame as soon as it is durable on the leader,
    // which can be before the leader itself has applied it — so the
    // leader is waited for too before its final state is read.
    if conn.wait_epoch(after_a + b_applied, |_, _| {})?.is_none() {
        out.failed += 1;
    }
    out.final_snapshot = Some(conn.allocation()?);
    if let (Some((_, fconn, _)), Some(lead)) = (follower.as_mut(), out.final_snapshot.as_ref()) {
        out.follower_equal = fconn.allocation()?.same_allocation(lead);
    }
    out.side.stats = Some(conn.stats()?);
    let t_scrape = Instant::now();
    let dump = conn.metrics()?;
    out.side.metrics_scrape_ms = t_scrape.elapsed().as_secs_f64() * 1e3;
    out.side.metrics_bytes = dump.len() as f64;
    out.side.registry = Registry::parse(&dump);
    out.peak_rss_mb = pids.iter().filter_map(|&p| peak_rss_mb(p)).sum();
    out.side.leader_cpu_s = cpu_seconds(leader.pid()).unwrap_or(0.0);

    out.clean_exit = true;
    if let Some((proc_, fconn, dir)) = follower {
        out.side.follower_cpu_s = cpu_seconds(proc_.pid()).unwrap_or(0.0);
        out.clean_exit &= stop(fconn, proc_).1;
        std::fs::remove_dir_all(dir)?;
    }
    let (shutdown_s, clean) = stop(conn, leader);
    out.side.shutdown_s = shutdown_s;
    out.clean_exit &= clean;
    std::fs::remove_dir_all(leader_dir)?;
    Ok(out)
}

/// The read kinds connection 1 cycles through.
const SIDE_READS: [&str; 3] = ["ad", "regret", "stats"];

/// One round of `serve-reads`: connection 0 reads the full allocation,
/// one in flight, every [`READS_PER_TOPUP`]th read preceded by a top-up
/// waited to visible; connection 1 concurrently cycles the small reads.
pub fn reads_round(
    env: &Env<'_>,
    inputs: &Inputs,
    round: usize,
    tr: &mut Tracer,
) -> io::Result<RoundOut> {
    let mut out = RoundOut {
        follower_equal: true,
        ..RoundOut::default()
    };
    let t0 = Instant::now();
    let dir = state_dir(env, round, "leader")?;
    let server = spawn_server(env, inputs, &dir, None)?;
    out.side.boot_s = server.boot_s;
    let mut conn0 = Conn::connect(&server.addr)?;
    let mut conn1 = Conn::connect(&server.addr)?;
    out.setup_phases_s.push(t0.elapsed().as_secs_f64());
    let loaded = preload(inputs, &mut conn0, &mut out)?;
    let ad_ids: Vec<u64> = inputs
        .preload
        .iter()
        .filter_map(|e| match e {
            OnlineEvent::AdArrival { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let t_start = Instant::now();

    let pid = server.pid();
    let pids = [pid];
    let reads = inputs.sizes.segment_a;
    let topups = requests(&inputs.segment_a);

    // (latencies of the primary reads, the segment cut at every top-up,
    // failures, end) and (latencies by kind, failures, end).
    type Primary = io::Result<(Vec<f64>, Vec<Interval>, u64, (Instant, f64))>;
    type Secondary = io::Result<(Vec<(&'static str, f64)>, u64, Instant)>;
    let (primary, secondary): (Primary, Secondary) = std::thread::scope(|s| {
        let primary = s.spawn(|| {
            let mut lat = Vec::with_capacity(reads);
            let mut chunks = Vec::new();
            let mut failed = 0u64;
            let mut epoch = loaded;
            let mut open = (t_start, total_cpu(&pids));
            let mut close = |units: usize, chunks: &mut Vec<Interval>| {
                let now = (Instant::now(), total_cpu(&pids));
                chunks.push(Interval {
                    units: units as f64,
                    wall_s: (now.0 - open.0).as_secs_f64(),
                    cpu_s: now.1 - open.1,
                });
                open = now;
            };
            for i in 0..reads {
                let op = i as u64;
                if i % READS_PER_TOPUP == 0 {
                    if i > 0 {
                        close(READS_PER_TOPUP, &mut chunks);
                    }
                    let resp = conn0.request(&topups[i / READS_PER_TOPUP], tr, op)?;
                    let visible = matches!(resp, Response::Accepted { .. })
                        && conn0.wait_epoch(epoch + 1, |_, _| {})?.is_some();
                    if visible {
                        epoch += 1;
                    } else {
                        failed += 1;
                    }
                }
                let h = tr.begin("op", op);
                let sent = Instant::now();
                let resp = conn0.request(&Request::AllocationQuery, tr, op)?;
                lat.push(sent.elapsed().as_secs_f64() * 1e3);
                tr.end(h);
                if !matches!(resp, Response::Allocation(_)) {
                    failed += 1;
                }
            }
            close(reads - chunks.len() * READS_PER_TOPUP, &mut chunks);
            Ok((lat, chunks, failed, open))
        });
        let secondary = s.spawn(|| {
            let mut lat = Vec::with_capacity(reads);
            let mut failed = 0u64;
            let mut quiet = Tracer::disabled();
            for i in 0..reads {
                let kind = SIDE_READS[i % SIDE_READS.len()];
                let req = match kind {
                    "ad" => Request::AdQuery {
                        id: ad_ids[(i / SIDE_READS.len()) % ad_ids.len()],
                    },
                    "regret" => Request::RegretQuery,
                    _ => Request::Stats,
                };
                let sent = Instant::now();
                let resp = conn1.request(&req, &mut quiet, 0)?;
                lat.push((kind, sent.elapsed().as_secs_f64() * 1e6));
                let ok = matches!(
                    resp,
                    Response::Ad { .. } | Response::Regret { .. } | Response::Stats(_)
                );
                if !ok {
                    failed += 1;
                }
            }
            Ok((lat, failed, Instant::now()))
        });
        (
            primary.join().expect("primary reader panicked"),
            secondary.join().expect("secondary reader panicked"),
        )
    });
    let (lat, chunks, failed0, (end0, cpu_end0)) = primary?;
    let (side_lat, failed1, end1) = secondary?;
    // The small reads of connection 1 are over long before connection 0
    // is done; should they ever outlast it, the rest is one more chunk.
    out.chunks = chunks;
    out.chunks.push(Interval {
        units: reads as f64,
        wall_s: end1.saturating_duration_since(end0).as_secs_f64(),
        cpu_s: total_cpu(&pids) - cpu_end0,
    });
    out.cpu_ops = (2 * reads) as f64;
    out.side
        .read_us
        .extend(lat.iter().map(|ms| ("allocation", ms * 1e3)));
    out.side.read_us.extend(side_lat);
    out.latencies_ms = lat;
    out.attempted += (2 * reads + topups.len()) as u64;
    out.failed += failed0 + failed1;

    out.final_snapshot = Some(conn0.allocation()?);
    out.side.stats = Some(conn0.stats()?);
    let t_scrape = Instant::now();
    let dump = conn0.metrics()?;
    out.side.metrics_scrape_ms = t_scrape.elapsed().as_secs_f64() * 1e3;
    out.side.metrics_bytes = dump.len() as f64;
    out.side.registry = Registry::parse(&dump);
    out.peak_rss_mb = peak_rss_mb(pid).unwrap_or(0.0);
    out.side.leader_cpu_s = cpu_seconds(pid).unwrap_or(0.0);
    drop(conn1);
    let (shutdown_s, clean) = stop(conn0, server);
    out.side.shutdown_s = shutdown_s;
    out.clean_exit = clean;
    std::fs::remove_dir_all(dir)?;
    Ok(out)
}
