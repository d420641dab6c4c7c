//! The closed-loop load generator for the `tirm_server` protocol, shared by
//! the `SERVING/…` suite cells and the `soak` bin.
//!
//! One **mutation connection** sends an event log in order, as fast as
//! responses return, retrying every `Overloaded` response until the
//! event is admitted: the server's final state is then a pure function
//! of the log (what the bench cells and the soak's oracle need), while
//! the shed attempts still count as backpressure. A pool of **reader
//! connections** runs a `regret` / `stats` / `ad` query mix against the
//! snapshot-swapped read path for the whole run. Once the log is sent,
//! [`drive`] waits until the writer has drained its queue (epoch
//! stable) before it stops the readers, so the caller can read final
//! state.
//!
//! With a reconnect budget ([`LoadgenConfig::reconnect`]) a lost
//! connection is not fatal: [`drive`] reconnects with capped
//! exponential backoff and **resumes the log at the server's durable
//! frontier** — the `hello` handshake's `wal_seq` counts admitted
//! mutations, so the resume index is the position after the first
//! `wal_seq` mutating events of the log. Against a durable server this
//! gives exactly-once delivery across kill/restart; it assumes this
//! log is the only mutation source.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tirm_server::{Client, ClientOptions, Request, Response};
use tirm_workloads::events::LogEvent;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How `drive` offers the log to the server.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent reader connections (each closed-loop).
    pub readers: usize,
    /// Seed of the readers' query mix and the backoff jitter.
    pub seed: u64,
    /// Pause between a reader's queries. `ZERO` = fully closed-loop
    /// (maximum read pressure); the bench cells use a small pause so
    /// that on a 1-CPU container the reader pool doesn't starve the
    /// writer.
    pub read_pause: Duration,
    /// Connection behavior. `reconnect_attempts == 0` (the default)
    /// keeps a lost connection fatal; a positive budget turns resets
    /// into bounded reconnect-with-backoff plus resume-from-`wal_seq`
    /// (the `hello` handshake's anchor). Each concurrent
    /// client derives its own deterministic backoff jitter from its
    /// seed (unless the caller pinned one here), so a fleet that lost
    /// the same server re-dials spread out instead of in lockstep.
    pub reconnect: ClientOptions,
    /// Follower read pool: reader connections are spread across these
    /// endpoints round-robin (the mutation stream always targets
    /// `addr`, the leader). Empty ⇒ all reads hit the leader.
    pub follower_addrs: Vec<SocketAddr>,
    /// Lag-aware routing threshold, in events: a reader that observes
    /// its follower lagging more than this behind the leader re-routes
    /// reads to the leader until the follower catches back up.
    pub max_lag: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            readers: 4,
            seed: 0x10ad,
            read_pause: Duration::ZERO,
            reconnect: ClientOptions::default(),
            follower_addrs: Vec::new(),
            max_lag: 64,
        }
    }
}

/// What a `drive` run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Wall-clock seconds from the first request to the drain.
    pub wall_s: f64,
    /// Mutation attempts sent (retries count).
    pub offered: u64,
    /// Mutations admitted (`Accepted`).
    pub accepted: u64,
    /// Mutations shed (`Overloaded`), including attempts later retried.
    pub shed: u64,
    /// Reads served per reader connection (scaling evidence: every
    /// reader makes progress while the writer grinds).
    pub reads_per_reader: Vec<u64>,
    /// Reads served by follower endpoints (0 without a follower pool).
    pub follower_reads: u64,
    /// Reads a follower-assigned reader routed to the leader instead —
    /// lag over [`LoadgenConfig::max_lag`] or an unreachable follower.
    pub leader_fallback_reads: u64,
    /// Follower replication lag observed in the readers' `stats`
    /// responses (events behind the leader), in observation order.
    pub follower_lag: Vec<u64>,
}

impl LoadReport {
    /// Nearest-rank p99 of the observed follower lag, in events (0 with
    /// no observations — e.g. no follower pool).
    pub fn follower_lag_p99(&self) -> u64 {
        let mut sorted = self.follower_lag.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() as f64 * 0.99).ceil() as usize;
        sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
    }
}

/// Drives `log` against the server at `addr`. Returns when the log is
/// sent and applied and the readers have stopped.
pub fn drive(addr: SocketAddr, log: &[LogEvent], cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let ((offered, accepted, shed), sides) = std::thread::scope(|s| -> io::Result<_> {
        let readers: Vec<_> = (0..cfg.readers)
            .map(|r| {
                let stop = &stop;
                let seed = cfg.seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                // Per-client jitter keyed by the reader's own seed: a
                // fleet that lost the same server must not re-dial in
                // lockstep on identical backoff schedules.
                let opts = jittered(&cfg.reconnect, seed);
                // Round-robin over the follower pool; the leader joins
                // the rotation so it keeps serving a share of reads.
                let follower = match r % (cfg.follower_addrs.len() + 1) {
                    0 => None,
                    k => Some(cfg.follower_addrs[k - 1]),
                };
                s.spawn(move || reader_loop(addr, follower, stop, seed, cfg, opts))
            })
            .collect();

        let mutation_side = mutation_loop(addr, log, cfg);
        stop.store(true, Ordering::Release);
        let sides = readers
            .into_iter()
            .map(|handle| handle.join().expect("reader panicked"))
            .collect::<io::Result<Vec<ReaderSide>>>()?;
        Ok((mutation_side?, sides))
    })?;
    Ok(LoadReport {
        wall_s: t0.elapsed().as_secs_f64(),
        offered,
        accepted,
        shed,
        reads_per_reader: sides.iter().map(|s| s.count).collect(),
        follower_reads: sides.iter().map(|s| s.follower_reads).sum(),
        leader_fallback_reads: sides.iter().map(|s| s.fallback_reads).sum(),
        follower_lag: sides.into_iter().flat_map(|s| s.lag_samples).collect(),
    })
}

/// `opts` with deterministic backoff jitter keyed by `seed`, unless
/// the caller already pinned a jitter seed.
fn jittered(opts: &ClientOptions, seed: u64) -> ClientOptions {
    let mut opts = opts.clone();
    opts.jitter = opts.jitter.or(Some(seed));
    opts
}

/// Index of the first log event still to send when the server's
/// durable frontier is `wal_seq`: skip exactly `wal_seq` mutating
/// events (`RegretQuery` entries are reads — never logged, never
/// counted).
fn resume_index(log: &[LogEvent], wal_seq: u64) -> usize {
    let mut mutations = 0u64;
    for (i, e) in log.iter().enumerate() {
        if mutations == wal_seq {
            return i;
        }
        if e.event.is_mutation() {
            mutations += 1;
        }
    }
    log.len()
}

/// Connects, or reconnects after a lost connection (bounded attempts
/// with capped exponential backoff inside [`Client::connect_with`]),
/// and returns the resume index the server's `hello` dictates.
fn reconnect(
    addr: SocketAddr,
    log: &[LogEvent],
    opts: &ClientOptions,
) -> io::Result<(Client, usize)> {
    let client = Client::connect_with(addr, opts)?;
    let hello = client.hello().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "reconnected without a hello; no resume anchor",
        )
    })?;
    let at = resume_index(log, hello.wal_seq);
    Ok((client, at))
}

/// Sends the log, covers the durable frontier, drains. Returns
/// (offered, accepted, shed).
fn mutation_loop(
    mut addr: SocketAddr,
    log: &[LogEvent],
    cfg: &LoadgenConfig,
) -> io::Result<(u64, u64, u64)> {
    let opts = &jittered(&cfg.reconnect, cfg.seed);
    let resumable = opts.reconnect_attempts > 0;
    let (mut client, resume_at) = reconnect(addr, log, opts)?;
    // The server may already hold a durable prefix of this log (a
    // previous partial run); don't send it twice.
    let mut i = if resumable { resume_at } else { 0 };
    let (mut offered, mut accepted, mut shed) = (0u64, 0u64, 0u64);
    let total_mutations = log.iter().filter(|e| e.event.is_mutation()).count() as u64;
    let mut resend_passes = 0u32;
    'passes: loop {
        'events: while i < log.len() {
            let e = &log[i];
            loop {
                let resp = match client.send_event(&e.event) {
                    Ok(resp) => resp,
                    // A reset mid-flight (the server was killed): with a
                    // reconnect budget, come back and resume at the durable
                    // frontier — an event admitted-and-fsynced but un-acked
                    // is *not* resent (wal_seq already counts it), an event
                    // lost from the queue is.
                    Err(_) if resumable => {
                        let (c, at) = reconnect(addr, log, opts)?;
                        client = c;
                        i = at;
                        continue 'events;
                    }
                    Err(e) => return Err(e),
                };
                match resp {
                    Response::Accepted { .. } => {
                        offered += 1;
                        accepted += 1;
                        break;
                    }
                    Response::Overloaded { .. } => {
                        offered += 1;
                        shed += 1;
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    // Stream-embedded reads and allocator-level rejections
                    // are answered, not retried.
                    Response::Regret { .. } | Response::Rejected { .. } => break,
                    // We dialed a follower (or a leader that has since
                    // been deposed): chase the referral when it names a
                    // leader, then resume at *that* process's durable
                    // frontier.
                    Response::NotLeader { leader } if resumable => {
                        if let Ok(next) = leader.parse::<SocketAddr>() {
                            addr = next;
                        }
                        let (c, at) = reconnect(addr, log, opts)?;
                        client = c;
                        i = at;
                        continue 'events;
                    }
                    // The server draining mid-log means the rest of the log
                    // cannot be delivered — loud failure, never a silent
                    // partial replay (callers treat the final state as a
                    // pure function of the *full* log).
                    Response::ShuttingDown => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            format!(
                                "server began shutdown after {accepted} of {} events",
                                log.len()
                            ),
                        ))
                    }
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected response to mutation: {other:?}"),
                        ))
                    }
                }
            }
            i += 1;
        }

        if !resumable {
            break 'passes;
        }
        // `Accepted` is admission, not durability: a SIGKILL can eat the
        // queued-but-unlogged tail *after* the last ack, and only the
        // durable frontier knows. So the send loop stays open until
        // `wal_seq` covers every mutation in the log (this log is the
        // only mutation source), resending whatever a crash lost. The
        // resume anchor keeps the resend exactly-once: a crash severs
        // this connection, so a stats failure is the crash signal, and
        // the replacement `hello` says where the durable prefix ends — a
        // live, merely slow server never triggers a resend.
        let mut last_seq = 0u64;
        let mut last_advance = Instant::now();
        let covered = loop {
            match client.stats() {
                Ok(s) if s.wal_seq >= total_mutations => break true,
                Ok(s) => {
                    if s.wal_seq > last_seq {
                        last_seq = s.wal_seq;
                        last_advance = Instant::now();
                    } else if last_advance.elapsed() > Duration::from_secs(60) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "durable frontier stalled at {last_seq} of \
                                 {total_mutations} mutations on a live server"
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break false,
            }
        };
        if covered {
            break 'passes;
        }
        resend_passes += 1;
        if resend_passes > opts.reconnect_attempts {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "reconnect budget exhausted with the durable frontier at \
                     {last_seq} of {total_mutations} mutations"
                ),
            ));
        }
        let (c, at) = reconnect(addr, log, opts)?;
        client = c;
        i = at;
    }
    // Drain: wait until the writer applied everything it admitted.
    let mut poll_stats = || match client.stats() {
        Err(_) if resumable => {
            client = Client::connect_with(addr, opts)?;
            client.stats()
        }
        polled => polled,
    };
    let mut stats = poll_stats()?;
    loop {
        if stats.queue_depth == 0 {
            let again = poll_stats()?;
            if again.epoch == stats.epoch {
                break;
            }
            stats = again;
        } else {
            std::thread::sleep(Duration::from_millis(1));
            stats = poll_stats()?;
        }
    }
    Ok((offered, accepted, shed))
}

/// What one reader thread measured.
struct ReaderSide {
    count: u64,
    follower_reads: u64,
    fallback_reads: u64,
    lag_samples: Vec<u64>,
}

/// While demoted to the leader, re-probe the assigned follower after
/// this many queries.
const FOLLOWER_PROBE_EVERY: u64 = 64;

/// One reader connection: closed-loop mix of `regret` / `stats` / `ad`
/// queries until stopped.
///
/// With a `follower` assigned the reader prefers that replica and
/// watches its replication lag through the `stats` responses already in
/// the query mix: more than `max_lag` events behind (or unreachable)
/// demotes the reader to the leader, and a periodic probe promotes it
/// back once the follower has caught up — at once when the leader's
/// stats show it shedding writes.
fn reader_loop(
    leader: SocketAddr,
    follower: Option<SocketAddr>,
    stop: &AtomicBool,
    seed: u64,
    cfg: &LoadgenConfig,
    opts: ClientOptions,
) -> io::Result<ReaderSide> {
    let resumable = opts.reconnect_attempts > 0;
    let mut on_follower = follower.is_some();
    let mut addr = follower.unwrap_or(leader);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        // Follower not accepting yet (still bootstrapping): start on
        // the leader and let the probe bring us over later.
        Err(_) if on_follower && resumable => {
            on_follower = false;
            addr = leader;
            Client::connect_with(addr, &opts)?
        }
        Err(e) => return Err(e),
    };
    let mut side = ReaderSide {
        count: 0,
        follower_reads: 0,
        fallback_reads: 0,
        lag_samples: Vec::new(),
    };
    // Highest registry-backed process-lifetime shed counter seen on the
    // leader: a rise means it is shedding writes.
    let mut leader_shed_total = 0u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut since_probe = 0u64;
    while !stop.load(Ordering::Acquire) {
        if !cfg.read_pause.is_zero() {
            std::thread::sleep(cfg.read_pause);
        }
        if let Some(f) = follower {
            if !on_follower {
                since_probe += 1;
                if since_probe >= FOLLOWER_PROBE_EVERY {
                    since_probe = 0;
                    if let Ok(mut probe) = Client::connect(f) {
                        if let Ok(s) = probe.stats() {
                            side.lag_samples.push(s.lag());
                            if s.lag() <= cfg.max_lag {
                                client = probe;
                                addr = f;
                                on_follower = true;
                            }
                        }
                    }
                }
            }
        }
        let req = match rng.gen_range(0..6u32) {
            0..=2 => Request::RegretQuery,
            3 | 4 => Request::Stats,
            _ => Request::AdQuery {
                id: rng.gen_range(1..12u32) as u64,
            },
        };
        let resp = match client.request(&req) {
            Ok(resp) => resp,
            // Readers are stateless: across a kill/restart just get a
            // fresh connection and keep reading. A dead *follower*
            // additionally demotes to the leader right away instead of
            // burning the reconnect budget on a corpse.
            Err(_) if resumable => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if on_follower {
                    on_follower = false;
                    addr = leader;
                    since_probe = 0;
                }
                client = Client::connect_with(addr, &opts)?;
                continue;
            }
            Err(e) => return Err(e),
        };
        let routed = |side: &mut ReaderSide| {
            side.count += 1;
            if on_follower {
                side.follower_reads += 1;
            } else if follower.is_some() {
                side.fallback_reads += 1;
            }
        };
        match resp {
            Response::Regret { .. } | Response::Ad { .. } => routed(&mut side),
            Response::Stats(s) => {
                routed(&mut side);
                if on_follower {
                    side.lag_samples.push(s.lag());
                    if s.lag() > cfg.max_lag {
                        // Too stale to serve fresh-enough reads: demote.
                        on_follower = false;
                        addr = leader;
                        since_probe = 0;
                        client = Client::connect_with(addr, &opts)?;
                    }
                } else {
                    // Routed to the leader: these stats are the leader's
                    // own, so the registry-backed shed counter is the
                    // pressure signal lag-aware routing was blind to.
                    let shedding = s.shed_total > leader_shed_total;
                    leader_shed_total = leader_shed_total.max(s.shed_total);
                    if shedding && follower.is_some() {
                        // The leader is shedding writes while we add
                        // read load to it — re-probe the follower at
                        // the next iteration instead of waiting out
                        // the full probe interval.
                        since_probe = FOLLOWER_PROBE_EVERY;
                    }
                }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected read response: {other:?}"),
                ))
            }
        }
    }
    Ok(side)
}
