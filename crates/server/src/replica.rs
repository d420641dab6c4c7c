//! Follower mode: a [`crate::serve`] run with a [`FollowConfig`] tails
//! a leader's write-ahead log over the wire and serves the same
//! snapshot-swapped reads the leader does — continuous recovery,
//! published as it happens.
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
//! A wire `promote` makes the apply loop return, and the run takes
//! over as leader in place: it bumps and persists the fencing epoch,
//! sets the leader frontier to its own, and flips the role the
//! connection handlers read. The same writer thread then drains the
//! admission queue like any leader's writer — with the same allocator,
//! the same open WAL segment and the same listener, so a promotion
//! writes no checkpoint, runs no recovery and binds nothing. A
//! `promote` that arrives while the run is stopping does not promote.

use crate::durable::DurableState;
use crate::protocol::{ClientOptions, Response, Role};
use crate::server::{ReplicaCtx, Shared};
use crate::wal;
use crate::Client;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tirm_online::OnlineEvent;

/// Frames asked for per poll (the leader clamps its own cap on top).
const MAX_FRAMES_PER_POLL: u64 = 512;

/// What makes a [`crate::serve`] run a follower
/// ([`crate::ServerConfig::follow`]). A follower needs durability: it
/// keeps its own WAL and checkpoints, never shared with the leader's.
/// Its `online` config must equal the leader's for the bit-identical
/// read guarantee (checkpoints embed enough to catch gross mismatches
/// on restore).
#[derive(Clone, Debug)]
pub struct FollowConfig {
    /// The leader to tail.
    pub leader_addr: String,
    /// Other replicas to try when the leader stops answering — how a
    /// follower finds the new leader after a hand-off (a polled peer
    /// that is itself a follower answers `NotLeader` naming its
    /// leader).
    pub peer_addrs: Vec<String>,
    /// How long the leader may hold a caught-up replication poll before
    /// answering it empty (sent as the poll's `wait_ms`, rounded up to
    /// a whole millisecond; a frame that becomes durable ends the hold
    /// at once). So it bounds how long the apply loop goes without
    /// checking for shutdown or promotion, and is the idle poll period;
    /// it is not a floor on replication lag. Also the pause before
    /// retrying an endpoint that failed.
    pub poll_interval: Duration,
}

impl FollowConfig {
    /// A follower of `leader_addr` with no peers and the default
    /// 10 ms poll interval.
    pub fn new(leader_addr: impl Into<String>) -> FollowConfig {
        FollowConfig {
            leader_addr: leader_addr.into(),
            peer_addrs: Vec::new(),
            poll_interval: Duration::from_millis(10),
        }
    }
}

/// What the apply loop counted over its run (reported as
/// [`crate::ServeReport`]'s `replicated`, `bootstraps` and
/// `fenced_rejects`).
#[derive(Default)]
pub(crate) struct Tail {
    pub(crate) applied: u64,
    pub(crate) bootstraps: u64,
    pub(crate) fenced_rejects: u64,
}

/// The follower's part of a run's writer: tails the leader until the
/// run stops or a `promote` arrives, and on a promotion that is not a
/// stop takes over as leader in place (see the module docs). `dir` is
/// the run's state dir.
pub(crate) fn follow(
    cfg: &FollowConfig,
    dir: &Path,
    state: &mut DurableState<'_>,
    ctx: &ReplicaCtx,
) -> io::Result<Tail> {
    let tail = apply_loop(cfg, dir, state, ctx)?;
    let shared = &state.shared;
    if shared.promote_requested.load(Ordering::Acquire) && !shared.stop.load(Ordering::Acquire) {
        // The new epoch is on disk before the role flips: no write is
        // admitted, and no frame shipped, under the old one.
        let epoch = wal::bump_fencing_epoch(dir)?;
        shared.fencing_epoch.store(epoch, Ordering::Release);
        shared.leader_seq.store(state.seq(), Ordering::Release);
        shared.leading.store(true, Ordering::Release);
        eprintln!("promoted — taking over as leader under fencing epoch {epoch}");
    }
    Ok(tail)
}

/// The apply loop: connect → fence → poll → decode, committing
/// each page of frames through the same [`DurableState::commit`] the
/// leader's writer uses, with pruned-anchor bootstrap and leader
/// re-targeting around it. Owns the state until it returns (the
/// handlers only ever read published snapshots).
fn apply_loop(
    cfg: &FollowConfig,
    dir: &Path,
    state: &mut DurableState<'_>,
    ctx: &ReplicaCtx,
) -> io::Result<Tail> {
    let leader_client = ClientOptions::reconnecting_jittered(4, 0x7e11_0f01);
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
        let mut client = match Client::connect_with(target.as_str(), &leader_client) {
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
            match client.replicate_poll(state.seq(), MAX_FRAMES_PER_POLL, wait_ms) {
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

/// Whether the apply loop should return (stop flag or promotion).
fn stopping(shared: &Shared) -> bool {
    shared.stop.load(Ordering::Acquire) || shared.promote_requested.load(Ordering::Acquire)
}

/// Sleeps up to `total`, returning early when the apply loop should
/// return.
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
