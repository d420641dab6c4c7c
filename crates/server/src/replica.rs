//! Follower mode: a process that tails a leader's write-ahead log over
//! the wire and serves the same snapshot-swapped reads the leader
//! does — continuous recovery, published as it happens.
//!
//! # Apply loop
//!
//! A follower is [`crate::wal::recover`] run forever: it bootstraps
//! from its local state dir (checkpoint + WAL tail, exactly like a
//! leader restart), then polls the leader with `replicate_poll` from
//! its own durable frontier. A caught-up poll is held at the leader
//! until a new frame is durable there (or `poll_interval` runs out), so
//! the loop never sleeps between polls: a frame arrives when it exists,
//! not at the next timer tick. Each page of frames goes through the same
//! durable commit the leader's writer uses — appended to the *local*
//! WAL, fsynced once, applied, and published through the same
//! [`crate::SnapshotSwap`] the connection handlers read — so a
//! follower's reads carry the identical bit-for-bit snapshots the
//! leader would serve at that frontier.
//! An anchor that falls inside a segment the leader has pruned comes
//! back as a typed `ReplicateBootstrap`, and the follower downloads
//! the leader's newest checkpoint instead of demanding history that no
//! longer exists.
//!
//! # Fencing
//!
//! The follower tracks the highest fencing epoch it has ever observed
//! (persisted in its state dir). Responses announcing an *older* epoch
//! come from a deposed leader still flushing its disk — they are
//! dropped and the connection abandoned. Responses announcing a
//! *newer* epoch mean a promotion happened; if this follower's local
//! log has run ahead of the new leader's durable frontier, the excess
//! tail came from the deposed leader and can never be reconciled, so
//! the follower clears its durable state and re-bootstraps.
//!
//! # Promotion
//!
//! A wire `promote` request makes [`serve_follower`] wind down and
//! report `promoted = true`; the host process then bumps the fencing
//! epoch ([`crate::wal::bump_fencing_epoch`]) and runs [`crate::serve`]
//! over the same state dir — recovery replays the follower's durable
//! frontier, and the new epoch fences the old leader off.

use crate::durable::DurableState;
use crate::protocol::{ClientOptions, Response, Role};
use crate::server::{run_server, DurabilityConfig, ReplicaCtx, ServerConfig, ServerHandle, Shared};
use crate::wal::{self, RecoveryReport};
use crate::Client;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tirm_graph::DiGraph;
use tirm_online::{
    AllocationSnapshot, OnlineConfig, OnlineEvent, OnlineStats, ReplicationFrontier,
};
use tirm_topics::TopicEdgeProbs;

/// Configuration of a [`serve_follower`] run.
#[derive(Clone, Debug)]
pub struct FollowerConfig {
    /// Allocator configuration — must equal the leader's for the
    /// bit-identical read guarantee (checkpoints embed enough to catch
    /// gross mismatches on restore).
    pub online: OnlineConfig,
    /// Address to bind for read traffic (`127.0.0.1:0` ⇒ ephemeral).
    pub bind: String,
    /// The leader to tail.
    pub leader_addr: String,
    /// Other replicas to try when the leader stops answering — how a
    /// follower finds the new leader after a hand-off (a polled peer
    /// that is itself a follower answers `NotLeader` naming its
    /// leader).
    pub peer_addrs: Vec<String>,
    /// The follower's own durable state dir (its WAL + checkpoints —
    /// never shared with the leader's dir).
    pub state_dir: PathBuf,
    /// Applied mutations between local checkpoints.
    pub checkpoint_interval: u64,
    /// Frames per local WAL segment.
    pub segment_events: u64,
    /// Connection admission bound for read traffic.
    pub max_connections: usize,
    /// Handler read-poll interval (shutdown latency on idle sockets).
    pub read_poll: Duration,
    /// How long the leader may hold a caught-up replication poll before
    /// answering it empty (sent as the poll's `wait_ms`, rounded up to
    /// a whole millisecond; a frame that becomes durable ends the hold
    /// at once). So it bounds how long the apply loop goes without
    /// checking for shutdown or promotion, and is the idle poll period;
    /// it is not a floor on replication lag. Also the pause before
    /// retrying an endpoint that failed.
    pub poll_interval: Duration,
    /// Frames requested per poll (the leader clamps its own cap on
    /// top).
    pub max_frames_per_poll: u64,
    /// Reconnect policy toward the leader (attempts, backoff, jitter).
    pub leader_client: ClientOptions,
}

impl FollowerConfig {
    /// A follower of `leader_addr` with durable state under
    /// `state_dir` and default cadence/limits.
    pub fn new(leader_addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> FollowerConfig {
        FollowerConfig {
            online: OnlineConfig::default(),
            bind: "127.0.0.1:0".to_string(),
            leader_addr: leader_addr.into(),
            peer_addrs: Vec::new(),
            state_dir: state_dir.into(),
            checkpoint_interval: 256,
            segment_events: 1024,
            max_connections: 64,
            read_poll: Duration::from_millis(25),
            poll_interval: Duration::from_millis(10),
            max_frames_per_poll: 512,
            leader_client: ClientOptions::reconnecting_jittered(4, 0x7e11_0f01),
        }
    }
}

/// What a completed [`serve_follower`] run did.
#[derive(Clone, Debug)]
pub struct FollowerReport {
    /// The snapshot after the last applied frame — bit-identical to
    /// the leader's snapshot at the same frontier.
    pub final_snapshot: Arc<AllocationSnapshot>,
    /// Allocator lifetime counters.
    pub stats: OnlineStats,
    /// What local startup recovery found (before any streaming).
    pub recovery: RecoveryReport,
    /// Frames applied from the stream this run.
    pub applied: u64,
    /// Streamed frames the allocator rejected (logged and
    /// deterministically re-rejected, exactly as on the leader).
    pub rejected_on_apply: u64,
    /// Checkpoint bootstraps performed (pruned anchor or fencing
    /// wipe).
    pub bootstraps: u64,
    /// Responses dropped because they announced a stale fencing epoch
    /// (a deposed leader's frames).
    pub fenced_rejects: u64,
    /// Connections handled over the run.
    pub connections: u64,
    /// Where the replica stood at exit.
    pub frontier: ReplicationFrontier,
    /// `true` ⇒ the run ended because a wire `promote` arrived: bump
    /// the fencing epoch and re-serve this state dir as leader.
    pub promoted: bool,
}

/// What the apply loop counted over its run.
#[derive(Default)]
struct Tail {
    applied: u64,
    bootstraps: u64,
    fenced_rejects: u64,
}

/// Runs a follower over `graph`/`topic_probs`: recovers the local
/// state dir, serves reads exactly like [`crate::serve`] (mutations
/// answered with a typed `NotLeader` redirect), and tails
/// `cfg.leader_addr`'s WAL until `f` returns, shutdown is requested,
/// or a `promote` request arrives.
pub fn serve_follower<R>(
    graph: &DiGraph,
    topic_probs: &TopicEdgeProbs,
    cfg: FollowerConfig,
    f: impl FnOnce(&ServerHandle) -> R,
) -> io::Result<(R, FollowerReport)> {
    // Nothing paces the apply loop but the leader's answers: a poll
    // that asks for no frames is answered at once, forever.
    if cfg.max_frames_per_poll < 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "max_frames_per_poll must be >= 1 (a poll must ask for a frame)",
        ));
    }
    // A follower is a durable single-writer server fed from the
    // leader's log instead of an admission queue. Local start-up
    // recovery is the leader's: a follower restart resumes from its own
    // durable frontier and only the missing suffix is re-streamed.
    let server_cfg = ServerConfig {
        online: cfg.online.clone(),
        bind: cfg.bind.clone(),
        // Handlers hold a queue sender for their signature, but a
        // follower's `Mutate` arm answers `NotLeader` before ever
        // admitting — the queue stays empty by construction.
        queue_depth: 1,
        max_connections: cfg.max_connections,
        read_poll: cfg.read_poll,
        durability: Some(DurabilityConfig {
            state_dir: cfg.state_dir.clone(),
            checkpoint_interval: cfg.checkpoint_interval,
            segment_events: cfg.segment_events,
        }),
    };
    let run = run_server(
        graph,
        topic_probs,
        server_cfg,
        Role::Follower,
        cfg.leader_addr.clone(),
        |state, _queue, ctx| apply_loop(&cfg, state, ctx),
        f,
    )?;

    let shared = &run.shared;
    let report = FollowerReport {
        final_snapshot: run.final_snapshot,
        stats: run.stats,
        recovery: run.recovery.expect("a follower is always durable"),
        applied: run.fed.applied,
        // This run's `Shared` counts nothing but apply-time rejections:
        // a follower admits no mutation of its own.
        rejected_on_apply: shared.rejected.load(Ordering::Relaxed),
        bootstraps: run.fed.bootstraps,
        fenced_rejects: run.fed.fenced_rejects,
        connections: shared.connections_total.load(Ordering::Relaxed),
        frontier: ReplicationFrontier {
            applied_seq: shared.wal_seq.load(Ordering::Acquire),
            durable_seq: shared.wal_seq.load(Ordering::Acquire),
            leader_seq: shared.leader_seq.load(Ordering::Acquire),
            fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
        },
        promoted: shared.promote_requested.load(Ordering::Acquire),
    };
    Ok((run.result, report))
}

/// The follower's feeder: connect → fence → poll → decode, committing
/// each page of frames through the same [`DurableState::commit`] the
/// leader's writer uses, with pruned-anchor bootstrap and leader
/// re-targeting around it. Owns the state for the whole run (the
/// handlers only ever read published snapshots).
fn apply_loop(
    cfg: &FollowerConfig,
    state: &mut DurableState<'_>,
    ctx: &ReplicaCtx,
) -> io::Result<Tail> {
    let dir = &cfg.state_dir;
    let shared = Arc::clone(&state.shared);
    let mut out = Tail::default();
    // Endpoints to try, current first; rotated on failure so a dead
    // leader doesn't starve the peers that know the new one.
    let mut endpoints: Vec<String> = std::iter::once(cfg.leader_addr.clone())
        .chain(cfg.peer_addrs.iter().cloned())
        .collect();
    // Whole milliseconds, rounded up: a sub-millisecond interval must
    // not become `wait_ms = 0`, which the leader answers at once.
    let wait_ms = u64::try_from(cfg.poll_interval.as_nanos().div_ceil(1_000_000))
        .unwrap_or(u64::MAX)
        .max(1);

    'reconnect: while !stopping(&shared) {
        let target = endpoints[0].clone();
        let mut client = match Client::connect_with(target.as_str(), &cfg.leader_client) {
            Ok(c) => c,
            Err(_) => {
                endpoints.rotate_left(1);
                sleep_checked(&shared, cfg.poll_interval);
                continue 'reconnect;
            }
        };
        if let Some(h) = client.hello() {
            let local_epoch = shared.fencing_epoch.load(Ordering::Acquire);
            if h.role == Role::Leader && h.fencing_epoch < local_epoch {
                // A deposed leader still answering: refuse to regress.
                out.fenced_rejects += 1;
                tirm_obs::registry::REPL_FENCED_REJECTS.inc();
                endpoints.rotate_left(1);
                sleep_checked(&shared, cfg.poll_interval);
                continue 'reconnect;
            }
            if h.fencing_epoch > local_epoch {
                advance_epoch(h.fencing_epoch, h.wal_seq, dir, state, &mut out)?;
            }
        }

        loop {
            if stopping(&shared) {
                break 'reconnect;
            }
            match client.replicate_poll(state.seq(), cfg.max_frames_per_poll, wait_ms) {
                Ok(Response::ReplicateFrames {
                    fencing_epoch,
                    durable_seq,
                    trace_base,
                    frames,
                    ..
                }) => {
                    let local_epoch = shared.fencing_epoch.load(Ordering::Acquire);
                    if fencing_epoch < local_epoch {
                        // The satellite case: a deposed leader's stale
                        // segments. Drop the page unapplied.
                        out.fenced_rejects += 1;
                        tirm_obs::registry::REPL_FENCED_REJECTS.inc();
                        endpoints.rotate_left(1);
                        continue 'reconnect;
                    }
                    if fencing_epoch > local_epoch {
                        advance_epoch(fencing_epoch, durable_seq, dir, state, &mut out)?;
                        // The anchor may have moved (wipe): re-poll.
                        continue;
                    }
                    shared.leader_seq.store(durable_seq, Ordering::Release);
                    tirm_obs::registry::REPL_FOLLOWER_LAG
                        .set(durable_seq.saturating_sub(state.seq()));
                    if frames.is_empty() {
                        // The leader held the poll for `wait_ms` and
                        // nothing became durable: ask again.
                        continue;
                    }
                    let events: Vec<OnlineEvent> = match frames
                        .iter()
                        .map(|b| wal::decode_frame(b.as_bytes()))
                        .collect::<Result<_, _>>()
                    {
                        Ok(evs) => evs,
                        // A leader streaming undecodable frames is a
                        // broken peer, not local corruption: drop the
                        // connection and re-poll (possibly elsewhere).
                        Err(_) => {
                            endpoints.rotate_left(1);
                            continue 'reconnect;
                        }
                    };
                    // Replication preserves positional numbering, so
                    // `trace_base + i` is the *same* trace id the
                    // leader recorded its stages under — the follower's
                    // stages extend that timeline across the process
                    // boundary.
                    state.commit(&events, trace_base, Role::Follower)?;
                    out.applied += events.len() as u64;
                }
                Ok(Response::ReplicateBootstrap {
                    fencing_epoch,
                    checkpoint_seq,
                    ..
                }) => {
                    let local_epoch = shared.fencing_epoch.load(Ordering::Acquire);
                    if fencing_epoch < local_epoch {
                        out.fenced_rejects += 1;
                        tirm_obs::registry::REPL_FENCED_REJECTS.inc();
                        endpoints.rotate_left(1);
                        continue 'reconnect;
                    }
                    if fencing_epoch > local_epoch {
                        persist_epoch(dir, &shared, fencing_epoch)?;
                    }
                    match bootstrap(&mut client, checkpoint_seq, dir, state) {
                        Ok(()) => out.bootstraps += 1,
                        // A download cut short (leader died or was
                        // deposed mid-stream, chunk decode failure) is
                        // a stream error like any other: the local
                        // state is still a consistent prefix, so keep
                        // serving reads and retry — possibly elsewhere.
                        Err(e) => {
                            eprintln!("bootstrap from {target} failed (will retry): {e}");
                            tirm_obs::registry::REPL_BOOTSTRAP_RETRIES.inc();
                            endpoints.rotate_left(1);
                            sleep_checked(&shared, cfg.poll_interval);
                            continue 'reconnect;
                        }
                    }
                }
                Ok(Response::NotLeader { leader }) => {
                    // A peer that knows better: follow its referral.
                    if !leader.is_empty() && leader != endpoints[0] {
                        endpoints.insert(0, leader.clone());
                        endpoints.dedup();
                        *ctx.leader_addr.lock().expect("leader addr poisoned") = leader;
                    } else {
                        endpoints.rotate_left(1);
                        sleep_checked(&shared, cfg.poll_interval);
                    }
                    continue 'reconnect;
                }
                // A typed refusal (e.g. a memory-only server), an
                // unexpected response, a dead leader or a broken
                // stream: keep serving reads at the current frontier
                // and try the next endpoint.
                Ok(_) | Err(_) => {
                    endpoints.rotate_left(1);
                    sleep_checked(&shared, cfg.poll_interval);
                    continue 'reconnect;
                }
            }
            // Streaming from this endpoint: record it as the leader
            // handlers should redirect mutations to.
            let mut known = ctx.leader_addr.lock().expect("leader addr poisoned");
            if *known != endpoints[0] {
                known.clone_from(&endpoints[0]);
            }
        }
    }
    Ok(out)
}

/// Whether the run should wind down (stop flag or promotion).
fn stopping(shared: &Shared) -> bool {
    shared.stop.load(Ordering::Acquire) || shared.promote_requested.load(Ordering::Acquire)
}

/// Sleeps up to `total`, returning early when the run winds down.
fn sleep_checked(shared: &Shared, total: Duration) {
    let t0 = Instant::now();
    let tick = Duration::from_millis(5).min(total);
    while t0.elapsed() < total && !stopping(shared) {
        std::thread::sleep(tick);
    }
}

/// Records a newly observed fencing epoch durably and in the shared
/// stats.
fn persist_epoch(dir: &Path, shared: &Shared, epoch: u64) -> io::Result<()> {
    wal::write_fencing_epoch(dir, epoch)?;
    shared.fencing_epoch.store(epoch, Ordering::Release);
    Ok(())
}

/// Handles an epoch advance observed in a handshake or poll response:
/// persist the new epoch, and — when this follower's local log has run
/// ahead of the new leader's durable frontier — clear the local
/// durable state so the unreconcilable tail (frames only the deposed
/// leader ever had) is dropped and the next poll re-anchors from
/// scratch.
fn advance_epoch(
    new_epoch: u64,
    leader_frontier: u64,
    dir: &Path,
    state: &mut DurableState<'_>,
    out: &mut Tail,
) -> io::Result<()> {
    persist_epoch(dir, &state.shared, new_epoch)?;
    if state.seq() > leader_frontier {
        clear_durable_state(dir)?;
        state.reopen()?;
        out.bootstraps += 1;
    }
    Ok(())
}

/// Downloads the leader's newest checkpoint into the local state dir
/// (replacing all local segments and checkpoints — they predate the
/// leader's retained history) and restarts the allocator from it. The
/// next poll resumes at the checkpoint's cover point.
fn bootstrap(
    client: &mut Client,
    announced_seq: u64,
    dir: &Path,
    state: &mut DurableState<'_>,
) -> io::Result<()> {
    const CHUNK: u64 = 1 << 20;
    const MAX_RESTARTS: u32 = 5;
    let mut restarts = 0;
    let mut ident = announced_seq;
    let (seq, bytes) = 'download: loop {
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let chunk = client.replicate_checkpoint(buf.len() as u64, CHUNK)?;
            if chunk.checkpoint_seq != ident {
                // The leader rotated checkpoints mid-download; start
                // over on the new one.
                restarts += 1;
                if restarts > MAX_RESTARTS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "checkpoint rotated faster than it could be downloaded",
                    ));
                }
                ident = chunk.checkpoint_seq;
                continue 'download;
            }
            if chunk.offset != buf.len() as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint chunk at unexpected offset",
                ));
            }
            buf.extend_from_slice(&chunk.data);
            if chunk.data.is_empty() || buf.len() as u64 >= chunk.total_bytes {
                break 'download (ident, buf);
            }
        }
    };

    // Local history predates everything the leader retains — replace,
    // don't merge.
    clear_durable_state(dir)?;
    wal::install_checkpoint(dir, seq, &bytes)?;
    state.reopen()
}

/// Deletes every WAL segment and checkpoint in `dir` (the fencing
/// epoch file survives — it is the one thing that must *not* reset).
fn clear_durable_state(dir: &Path) -> io::Result<()> {
    for (_, path) in wal::list_segments(dir)? {
        std::fs::remove_file(path)?;
    }
    for (_, path) in wal::list_checkpoints(dir)? {
        std::fs::remove_file(path)?;
    }
    Ok(())
}
