//! The serving loop: one writer thread owning the allocator, N
//! connection handler threads serving reads lock-free from the latest
//! snapshot, and explicit admission control on the write path.
//!
//! # Topology
//!
//! ```text
//!              TcpListener (acceptor thread)
//!                   │ one handler thread per connection
//!        ┌──────────┼──────────┐
//!   handler     handler     handler          reads: answered from the
//!        │          │          │              handler's cached snapshot
//!        └── try_send ─┬───────┘              (SnapshotReader, lock-free)
//!                      ▼
//!         bounded sync_channel (queue_depth)   ← admission control:
//!                      │                          full ⇒ typed Overloaded,
//!                      ▼                          never a blocked accept
//!             writer thread (owns the DurableState)
//!                      │ commit everything queued: log → fsync →
//!                      ▼ apply, then once per batch
//!             SnapshotSwap::publish(Arc<AllocationSnapshot>)
//! ```
//!
//! # Shutdown (drain-then-close)
//!
//! [`serve`] stops in a fixed order that makes the drain guarantee
//! structural: (1) the stop flag flips and the acceptor is woken — no
//! new connections; (2) handler threads finish their in-flight request
//! (the stop wakes a `replicate_poll` parked on the durable frontier)
//! and exit, dropping their queue senders; (3) with all senders gone
//! the writer drains every admitted mutation from the channel,
//! processes it, publishes, and only then returns the final snapshot.
//! An admitted (`Accepted`) mutation is therefore *always* processed
//! before exit — applied if valid, counted into `rejected` if the
//! allocator refuses it (exactly as an in-process replay would); a
//! shed (`Overloaded`) one never was admitted in the first place.
//!
//! # Roles
//!
//! A run whose config has [`ServerConfig::follow`] starts as a
//! follower: the writer thread tails the leader's log instead of the
//! queue (see [`crate::replica`]) and handlers answer mutations with a
//! `NotLeader` redirect. A wire `promote` flips the role in place: the
//! writer persists the next fencing epoch, the handlers start
//! admitting, and the writer drains the queue from then on.

use crate::durable::{DurableState, Origin};
use crate::protocol::{
    hex_encode, read_frame_polling, write_frame, Request, Response, Role, StatsView,
    PROTOCOL_VERSION,
};
use crate::replica::{self, FollowConfig, Tail};
use crate::swap::{SnapshotReader, SnapshotSwap};
use crate::wal::{self, RecoveryReport, ReplicaBatch};
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tirm_graph::DiGraph;
use tirm_obs::flight::{self, Stage};
use tirm_online::{AllocationSnapshot, OnlineConfig, OnlineEvent, OnlineStats};
use tirm_topics::TopicEdgeProbs;

/// Durability knobs: where the write-ahead log and checkpoints live and
/// how often state is checkpointed: [`ServerConfig::durability`]. A
/// server without one serves from memory only.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and checkpoint files. Created on
    /// startup if missing; recovery scans it first.
    pub state_dir: PathBuf,
    /// Applied mutations between checkpoints. Each checkpoint bounds
    /// the replay a restart pays to at most this many events (plus the
    /// in-flight batch) and lets the covered WAL segments be deleted.
    pub checkpoint_interval: u64,
    /// Frames per WAL segment before rotating to a new file. Smaller
    /// segments reclaim disk sooner; larger ones make fewer files.
    pub segment_events: u64,
}

impl DurabilityConfig {
    /// Durability under `state_dir` with the default cadence
    /// (checkpoint every 256 events, 1024-frame segments).
    pub fn new(state_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            state_dir: state_dir.into(),
            checkpoint_interval: 256,
            segment_events: 1024,
        }
    }
}

/// Configuration of a [`serve`] run: a struct literal over
/// [`Default`], checked by [`ServerConfig::validate`] when [`serve`]
/// starts.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Allocator configuration (TIRM options, κ, λ, pool budget).
    pub online: OnlineConfig,
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Write-queue bound: a mutation that would put more than
    /// `queue_depth + 1` queued or in the writer's batch is shed with
    /// [`Response::Overloaded`]. Must be ≥ 1.
    pub queue_depth: usize,
    /// Connection admission bound: connections beyond this many open at
    /// once are answered with one `Overloaded` frame and closed.
    pub max_connections: usize,
    /// Handler read-poll interval — the granularity at which idle
    /// connections notice shutdown. Also bounds how long an exiting
    /// handler can block on an idle socket.
    pub read_poll: Duration,
    /// Durability: `Some` ⇒ every admitted mutation is WAL-logged
    /// (group-commit fsync) before it is applied, state is checkpointed
    /// on the configured cadence, and startup recovers checkpoint +
    /// log tail. `None` ⇒ memory-only.
    pub durability: Option<DurabilityConfig>,
    /// `Some` ⇒ the run starts as a follower of another server and
    /// serves as leader once promoted. Needs `durability`.
    pub follow: Option<FollowConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            online: OnlineConfig::default(),
            bind: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            max_connections: 64,
            read_poll: Duration::from_millis(25),
            durability: None,
            follow: None,
        }
    }
}

impl ServerConfig {
    /// Checks every value a server run relies on; `Err` names the first
    /// bad field. [`serve`] calls it before binding.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_depth < 1 {
            return Err("queue_depth must be >= 1 (the queue must admit something)".into());
        }
        if self.max_connections < 1 {
            return Err("max_connections must be >= 1".into());
        }
        if self.read_poll.is_zero() {
            return Err("read_poll must be non-zero (it paces shutdown checks)".into());
        }
        let online = &self.online;
        if online.kappa < 1 {
            return Err("online.kappa must be >= 1 (every user admits one ad)".into());
        }
        if !(online.lambda.is_finite() && online.lambda >= 0.0) {
            return Err("online.lambda must be finite and >= 0".into());
        }
        if !(online.tirm.eps > 0.0 && online.tirm.eps < 1.0) {
            return Err("online.tirm.eps must lie in (0, 1)".into());
        }
        if let Some(d) = &self.durability {
            if d.state_dir.as_os_str().is_empty() {
                return Err("durability needs a non-empty state_dir".into());
            }
            if d.checkpoint_interval < 1 {
                return Err("checkpoint_interval must be >= 1 event".into());
            }
            if d.segment_events < 1 {
                return Err("segment_events must be >= 1 frame".into());
            }
        }
        if self.follow.is_some() && self.durability.is_none() {
            return Err("follow needs durability (a follower keeps its own WAL)".into());
        }
        Ok(())
    }
}

/// Counters and flags shared by every thread of a server.
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    /// Mutations queued or in flight at the writer.
    pub(crate) queue_len: AtomicUsize,
    pub(crate) max_queue_len: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) connections_open: AtomicUsize,
    pub(crate) connections_total: AtomicU64,
    pub(crate) connections_refused: AtomicU64,
    /// Durable frontier: mutations logged *and* fsynced (equal to the
    /// count applied when durability is off). The `hello` response
    /// carries it as the resume anchor for reconnecting clients.
    pub(crate) wal_seq: AtomicU64,
    /// The fencing epoch this process serves under (see
    /// [`wal::read_fencing_epoch`]). Bumped only by promotion; carried
    /// in every handshake and replication response so a follower can
    /// reject a deposed leader's stale frames.
    pub(crate) fencing_epoch: AtomicU64,
    /// The *leader's* durable frontier as last observed — equal to
    /// `wal_seq` on a leader, updated by the apply loop on a follower.
    /// `leader_seq - wal_seq` is the follower's replication lag.
    pub(crate) leader_seq: AtomicU64,
    /// Whether this process serves as the leader. Flipped once, by a
    /// promotion, after the new fencing epoch is stored (Release; every
    /// reader loads it with Acquire and so sees that epoch).
    pub(crate) leading: AtomicBool,
    /// Set by a wire `promote` request on a follower: the apply loop
    /// returns and the writer takes over as leader in place, unless the
    /// run is stopping.
    pub(crate) promote_requested: AtomicBool,
    /// Set by a wire `shutdown` request (or [`ServerHandle::request_shutdown`]);
    /// [`ServerHandle::wait_shutdown`] blocks on it.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Raised whenever `wal_seq` advances or the run starts to stop:
    /// what a caught-up `replicate_poll` parks on
    /// ([`await_frontier_past`](Self::await_frontier_past)). The mutex
    /// guards no data — `wal_seq` and `stop` are atomics — it only
    /// orders a waiter's re-check against the notifier.
    frontier_lock: Mutex<()>,
    frontier_cv: Condvar,
}

impl Shared {
    pub(crate) fn new() -> Arc<Shared> {
        Arc::new(Shared {
            stop: AtomicBool::new(false),
            queue_len: AtomicUsize::new(0),
            max_queue_len: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            connections_open: AtomicUsize::new(0),
            connections_total: AtomicU64::new(0),
            connections_refused: AtomicU64::new(0),
            wal_seq: AtomicU64::new(0),
            fencing_epoch: AtomicU64::new(0),
            leader_seq: AtomicU64::new(0),
            leading: AtomicBool::new(true),
            promote_requested: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            frontier_lock: Mutex::new(()),
            frontier_cv: Condvar::new(),
        })
    }

    pub(crate) fn role(&self) -> Role {
        if self.leading.load(Ordering::Acquire) {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    pub(crate) fn request_shutdown(&self) {
        let mut requested = self
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        *requested = true;
        self.shutdown_cv.notify_all();
    }

    /// Wakes every parked `replicate_poll`. Call *after* storing the
    /// new `wal_seq` (or `stop`): taking the lock orders the store
    /// before any waiter's next re-check, so a wake-up is never lost.
    pub(crate) fn notify_frontier(&self) {
        let _ordered = self.frontier_lock.lock().expect("frontier lock poisoned");
        self.frontier_cv.notify_all();
    }

    /// Parks until the durable frontier passes `seq`, the run stops, or
    /// `wait` elapses — whichever is first — and returns the frontier
    /// then. Returns at once when the frontier is already past `seq`.
    fn await_frontier_past(&self, seq: u64, wait: Duration) -> u64 {
        let guard = self.frontier_lock.lock().expect("frontier lock poisoned");
        // The condition is re-read under the lock: a store made before
        // we took it is seen here, one made after notifies us.
        let _released = self
            .frontier_cv
            .wait_timeout_while(guard, wait, |_| {
                self.wal_seq.load(Ordering::Acquire) <= seq && !self.stop.load(Ordering::Acquire)
            })
            .expect("frontier lock poisoned");
        self.wal_seq.load(Ordering::Acquire)
    }
}

/// The caller's view of a running server (passed to [`serve`]'s
/// closure).
pub struct ServerHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) swap: Arc<SnapshotSwap>,
    pub(crate) shared: Arc<Shared>,
    recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The address the server is listening on (the ephemeral port when
    /// the config bound port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What start-up recovery found (`None` when durability is off) —
    /// known before the first request is served, and the same report
    /// [`ServeReport::recovery`] carries at the end.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// An in-process reader over the same snapshot cell the connection
    /// handlers use.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(self.swap.clone())
    }

    /// Mutations currently queued or in flight at the writer.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_len.load(Ordering::Relaxed)
    }

    /// High-water mark of the write queue.
    pub fn max_queue_depth(&self) -> usize {
        self.shared.max_queue_len.load(Ordering::Relaxed)
    }

    /// Mutations shed with `Overloaded` so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// The durable frontier: mutations WAL-logged and fsynced so far
    /// (count of mutations applied when durability is off).
    pub fn wal_seq(&self) -> u64 {
        self.shared.wal_seq.load(Ordering::Acquire)
    }

    /// The fencing epoch this process serves under (0 until a
    /// promotion ever happened in this state dir's lineage).
    pub fn fencing_epoch(&self) -> u64 {
        self.shared.fencing_epoch.load(Ordering::Acquire)
    }

    /// The leader's durable frontier as last observed — equal to
    /// [`wal_seq`](Self::wal_seq) on a leader; on a follower,
    /// `leader_seq() - wal_seq()` is the current replication lag.
    pub fn leader_seq(&self) -> u64 {
        self.shared.leader_seq.load(Ordering::Acquire)
    }

    /// Flags the server for shutdown (same as a wire `shutdown`
    /// request): [`wait_shutdown`](Self::wait_shutdown) unblocks, and
    /// [`serve`] begins the drain-then-close sequence when its closure
    /// returns.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until some client sends a `shutdown` request (or
    /// [`request_shutdown`](Self::request_shutdown) is called) — how the
    /// `tirm_server` binary's main thread parks itself.
    pub fn wait_shutdown(&self) {
        let mut requested = self
            .shared
            .shutdown_requested
            .lock()
            .expect("shutdown flag poisoned");
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .expect("shutdown flag poisoned");
        }
    }
}

/// What a completed [`serve`] run did.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The snapshot after the last drained mutation — bit-identical to
    /// an in-process replay of the admitted events.
    pub final_snapshot: Arc<AllocationSnapshot>,
    /// Allocator lifetime counters.
    pub stats: OnlineStats,
    /// Mutations admitted to the write queue (all of them were applied).
    pub accepted: u64,
    /// Mutations shed with `Overloaded`.
    pub shed: u64,
    /// Mutations the allocator rejected at apply (unknown ids etc.),
    /// whether admitted here or replicated from a leader.
    pub rejected: u64,
    /// Frames that failed to decode.
    pub bad_requests: u64,
    /// Write-queue high-water mark.
    pub max_queue_depth: usize,
    /// Connections handled over the run.
    pub connections: u64,
    /// Connections refused by the admission bound.
    pub connections_refused: u64,
    /// What startup recovery found (`None` when durability is off).
    pub recovery: Option<RecoveryReport>,
    /// Final durable frontier — the WAL sequence number after the last
    /// drained mutation.
    pub wal_seq: u64,
    /// The fencing epoch the run served under (0 when no promotion ever
    /// happened in this state dir's lineage, or durability is off).
    pub fencing_epoch: u64,
    /// The role the run ended in: a follower that was promoted ends as
    /// the leader.
    pub role: Role,
    /// The leader's durable frontier as last observed (`wal_seq` on a
    /// leader).
    pub leader_seq: u64,
    /// Frames applied from a leader's log while following.
    pub replicated: u64,
    /// Checkpoint bootstraps performed while following (pruned anchor
    /// or fencing wipe).
    pub bootstraps: u64,
    /// Replication responses dropped because they announced a stale
    /// fencing epoch (a deposed leader's frames).
    pub fenced_rejects: u64,
}

impl ServeReport {
    /// Offered mutation load (admitted + shed).
    pub fn offered(&self) -> u64 {
        self.accepted + self.shed
    }

    /// Fraction of offered mutations shed (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered() == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered() as f64
        }
    }
}

/// Runs a server over `graph`/`topic_probs`, calls `f` with its
/// [`ServerHandle`] once the listener is live, and performs the
/// drain-then-close shutdown when `f` returns. Returns `f`'s result and
/// the [`ServeReport`] with the final (fully drained) snapshot.
///
/// Three kinds of thread run inside one scope: the writer (the only
/// thread that ever touches the allocator: it owns the durable state,
/// following a leader first when `cfg.follow` says so, then draining
/// the queue), the acceptor (one handler thread per
/// admitted connection) and the caller's closure `f`. The allocator
/// borrows the graph, so no `'static` bounds and no graph cloning; the
/// caller keeps ownership of the multi-GB dataset.
pub fn serve<R>(
    graph: &DiGraph,
    topic_probs: &TopicEdgeProbs,
    cfg: ServerConfig,
    f: impl FnOnce(&ServerHandle) -> R,
) -> std::io::Result<(R, ServeReport)> {
    cfg.validate()
        .map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))?;
    let listener = TcpListener::bind(&cfg.bind)?;
    let addr = listener.local_addr()?;
    // Surface this binary's identity and start the flight clock before
    // the first mutation can be admitted.
    tirm_obs::registry::BUILD_PROTOCOL_VERSION.set(PROTOCOL_VERSION as u64);
    tirm_obs::registry::BUILD_SCHEMA_VERSION.set(wal::WAL_VERSION as u64);
    flight::now_ns();

    let ctx = ReplicaCtx {
        state_dir: cfg.durability.as_ref().map(|d| d.state_dir.clone()),
        leader_addr: Mutex::new(
            cfg.follow
                .as_ref()
                .map_or_else(String::new, |f| f.leader_addr.clone()),
        ),
    };
    // `validate` refused `follow` without durability.
    let follow = cfg.follow.zip(ctx.state_dir.clone());
    let (mut state, recovery) = DurableState::open(Origin {
        graph,
        topic_probs,
        online: cfg.online,
        durability: cfg.durability,
    })?;
    let (swap, shared) = (state.swap.clone(), state.shared.clone());
    shared.leading.store(follow.is_none(), Ordering::Release);
    let (tx, rx) = std::sync::mpsc::sync_channel::<Admitted>(cfg.queue_depth);
    let (read_poll, queue_depth) = (cfg.read_poll, cfg.queue_depth);
    let handle = ServerHandle {
        addr,
        swap: swap.clone(),
        shared: shared.clone(),
        recovery,
    };

    let (result, fed) = std::thread::scope(|s| {
        let (ctx, shared) = (&ctx, &*shared);
        let writer = s.spawn(move || -> std::io::Result<_> {
            let tail = match &follow {
                Some((follow, dir)) => replica::follow(follow, dir, &mut state, ctx)?,
                None => Tail::default(),
            };
            feed_from_queue(&mut state, &rx);
            // The queue disconnected ⇒ every sender is gone and
            // everything admitted was applied (the drain guarantee).
            let (final_snapshot, stats) = state.finish()?;
            Ok((tail, final_snapshot, stats))
        });

        // The acceptor owns the queue's original sender and hands each
        // connection a clone, so the queue disconnects exactly when the
        // acceptor and every handler have exited.
        let acceptor = s.spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if shared.connections_open.load(Ordering::Relaxed) >= cfg.max_connections {
                    shared.connections_refused.fetch_add(1, Ordering::Relaxed);
                    refuse_connection(stream);
                    continue;
                }
                shared.connections_open.fetch_add(1, Ordering::Relaxed);
                shared.connections_total.fetch_add(1, Ordering::Relaxed);
                let (tx, swap) = (tx.clone(), swap.clone());
                s.spawn(move || {
                    handle_connection(stream, tx, swap, shared, ctx, read_poll, queue_depth);
                    shared.connections_open.fetch_sub(1, Ordering::Relaxed);
                });
            }
        });

        let result = {
            let _stop = StopGuard { shared, addr };
            f(&handle)
        };

        // Drain-then-close (the guard above already flipped stop and
        // woke the acceptor). Handlers exit via their read-poll stop
        // checks, dropping their queue senders; the writer then takes
        // in whatever is left, winds the state down and returns the
        // final snapshot. The explicit join order just makes the
        // sequence readable — the scope would join everything anyway.
        acceptor.join().expect("acceptor panicked");
        (result, writer.join().expect("writer panicked"))
    });
    let (tail, final_snapshot, stats) = fed?;
    let report = ServeReport {
        final_snapshot,
        stats,
        accepted: shared.accepted.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        bad_requests: shared.bad_requests.load(Ordering::Relaxed),
        max_queue_depth: shared.max_queue_len.load(Ordering::Relaxed),
        connections: shared.connections_total.load(Ordering::Relaxed),
        connections_refused: shared.connections_refused.load(Ordering::Relaxed),
        recovery: handle.recovery,
        wal_seq: shared.wal_seq.load(Ordering::Acquire),
        fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
        role: shared.role(),
        leader_seq: shared.leader_seq.load(Ordering::Acquire),
        replicated: tail.applied,
        bootstraps: tail.bootstraps,
        fenced_rejects: tail.fenced_rejects,
    };
    Ok((result, report))
}

/// What a connection handler needs to know about the process's place
/// in a replica group besides its role ([`Shared::role`]): where WAL
/// segments live for replication reads, and where a follower redirects
/// mutations.
pub(crate) struct ReplicaCtx {
    /// The state dir replication reads stream segments from (`None` ⇒
    /// memory-only, replication refused with a typed error).
    pub(crate) state_dir: Option<PathBuf>,
    /// Where a follower redirects mutations (the leader it is
    /// tailing); updated by the apply loop when the leader moves.
    pub(crate) leader_addr: Mutex<String>,
}

/// Flips the stop flag and unparks the acceptor on BOTH exits from the
/// caller's closure: a clean return and an unwind. A panicking closure
/// (a failed harness expectation) would otherwise leave the acceptor
/// parked in `accept()` forever — the scope joins all threads before
/// re-raising, so the panic would hang instead of propagating.
struct StopGuard<'a> {
    shared: &'a Shared,
    addr: SocketAddr,
}

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // No handler outlives the stop by a hold: wake the parked polls.
        self.shared.notify_frontier();
        self.shared.request_shutdown();
        // Wake the blocked accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A mutation travelling from admission to the writer, carrying the
/// flight-clock stamps the writer needs to reconstruct the mutation's
/// `admit` and `queue` lifecycle stages retroactively. The trace id is
/// *not* carried: it is the WAL position + 1, and admissions race for
/// their place in the queue — only the writer knows the order.
pub(crate) struct Admitted {
    pub(crate) ev: OnlineEvent,
    /// Flight clock at admission entry (decode done, about to enqueue).
    pub(crate) admit_ns: u64,
    /// Flight clock just before the queue send succeeded.
    pub(crate) enqueue_ns: u64,
}

/// The leader's writer: blocks for the next admitted mutation, takes
/// everything else already queued behind it, and commits the lot as
/// one batch — one fsync, one reconciliation, one publish — until every
/// sender has hung up and the queue is empty. A lone mutation is a
/// batch of one; a backlog is drained in as many commits as it takes
/// the writer to catch up, instead of one per event.
///
/// A commit failure is fatal by design: continuing would hand out
/// `Accepted` responses for mutations that can never be recovered. The
/// panic propagates through the scope join, tearing the server down
/// loudly instead of serving silently non-durable writes.
fn feed_from_queue(state: &mut DurableState<'_>, rx: &Receiver<Admitted>) {
    while let Ok(first) = rx.recv() {
        let admitted: Vec<Admitted> = std::iter::once(first).chain(rx.try_iter()).collect();
        let dequeue_ns = flight::now_ns();
        // The batch lands at log positions `seq..`, which name its
        // traces: record the admission-side stages now that they are
        // known.
        let first_trace = state.seq() + 1;
        let events: Vec<OnlineEvent> = (first_trace..)
            .zip(admitted)
            .map(|(trace, a)| {
                flight::record(trace, Stage::Admit, a.admit_ns, a.enqueue_ns);
                flight::record(trace, Stage::Queue, a.enqueue_ns, dequeue_ns);
                a.ev
            })
            .collect();
        state
            .commit(&events, first_trace, Role::Leader)
            .expect("durable commit failed");
    }
}

/// How long a response write may block on a peer that isn't reading
/// before the connection is dropped (handlers must stay joinable for
/// the drain-then-close shutdown).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Answers one over-admission connection with `Overloaded` and closes
/// it.
fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let resp = Response::Overloaded { queue_depth: 0 }.encode();
    let _ = write_frame(&mut stream, resp.as_bytes());
    let _ = stream.flush();
}

/// What a handler writes back for one request: a typed response encoded
/// for it, or a body its epoch rendered once for every connection
/// (`allocation`, `ad`).
enum Reply<'a> {
    Typed(Response),
    Rendered(&'a [u8]),
}

impl From<Response> for Reply<'_> {
    fn from(response: Response) -> Self {
        Reply::Typed(response)
    }
}

/// One connection's request loop. Reads answer from the handler's
/// cached epoch (no lock unless the writer published); mutations are
/// `try_send` admission — full queue ⇒ `Overloaded`, never a block.
pub(crate) fn handle_connection(
    mut stream: TcpStream,
    tx: SyncSender<Admitted>,
    swap: Arc<SnapshotSwap>,
    shared: &Shared,
    ctx: &ReplicaCtx,
    read_poll: Duration,
    queue_depth: usize,
) {
    // The write timeout bounds a peer that stops *reading*: without it,
    // a full kernel send buffer would block the handler in `write_all`
    // forever — unjoinable at shutdown. A timed-out write corrupts that
    // connection's framing, so the handler drops the connection.
    if stream.set_read_timeout(Some(read_poll)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = SnapshotReader::new(swap);
    loop {
        let frame = match read_frame_polling(&mut stream, || shared.stop.load(Ordering::Acquire)) {
            Ok(Some(frame)) => frame,
            // Clean EOF, stop while idle, or a broken peer: close.
            Ok(None) | Err(_) => return,
        };
        let reply: Reply = match Request::decode(&frame) {
            Err(why) => {
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                Response::Rejected { why }.into()
            }
            Ok(Request::Hello { version: _ }) => {
                // Echo our version and the recovery anchors; version
                // skew is the *client's* typed error (it knows what it
                // can speak), the server answers any hello it decodes.
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    epoch: reader.latest().snapshot.epoch,
                    wal_seq: shared.wal_seq.load(Ordering::Acquire),
                    role: shared.role(),
                    fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
                }
                .into()
            }
            Ok(Request::Mutate(ev)) => match shared.role() {
                Role::Leader => admit(&ev, &tx, &mut reader, shared, queue_depth),
                // A follower never admits writes — the typed redirect
                // names the leader so a client can fail over in one
                // hop instead of probing the pool.
                Role::Follower => not_leader(ctx),
            }
            .into(),
            Ok(Request::RegretQuery) => {
                let snap = &reader.latest().snapshot;
                Response::Regret {
                    epoch: snap.epoch,
                    live_ads: snap.num_ads(),
                    regret_estimate: snap.regret_estimate,
                }
                .into()
            }
            Ok(Request::AllocationQuery) => Reply::Rendered(reader.latest().allocation_body()),
            Ok(Request::AdQuery { id }) => Reply::Rendered(reader.latest().ad_body(id)),
            Ok(Request::Stats) => {
                let snap = &reader.latest().snapshot;
                let wal_seq = shared.wal_seq.load(Ordering::Acquire);
                let role = shared.role();
                Response::Stats(StatsView {
                    epoch: snap.epoch,
                    wal_seq,
                    role,
                    fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
                    // A leader *is* the frontier; a follower reports
                    // where it last saw the leader, so `lag()` is
                    // leader_seq - wal_seq.
                    leader_seq: match role {
                        Role::Leader => wal_seq,
                        Role::Follower => shared.leader_seq.load(Ordering::Acquire),
                    },
                    live_ads: snap.num_ads(),
                    total_seeds: snap.total_seeds(),
                    total_rr_sets: snap.total_rr_sets,
                    engine_memory_bytes: snap.engine_memory_bytes,
                    queue_depth: shared.queue_len.load(Ordering::Relaxed),
                    max_queue_depth: shared.max_queue_len.load(Ordering::Relaxed),
                    accepted: shared.accepted.load(Ordering::Relaxed),
                    shed: shared.shed.load(Ordering::Relaxed),
                    rejected: shared.rejected.load(Ordering::Relaxed),
                    bad_requests: shared.bad_requests.load(Ordering::Relaxed),
                    connections: shared.connections_open.load(Ordering::Relaxed),
                    // Registry-backed process-lifetime totals: these
                    // span every `serve` run in the process, unlike the
                    // per-run `Shared` counters above.
                    shed_total: tirm_obs::registry::SERVER_SHED.get(),
                    rejected_total: tirm_obs::registry::SERVER_REJECTED.get(),
                })
                .into()
            }
            Ok(Request::Metrics) => Response::Metrics {
                json: tirm_obs::dump_json(),
            }
            .into(),
            Ok(Request::TraceDump) => Response::TraceDump {
                json: flight::dump_chrome_json(),
            }
            .into(),
            Ok(Request::ReplicatePoll {
                from_seq,
                max_frames,
                wait_ms,
            }) => replicate_poll(ctx, shared, from_seq, max_frames, wait_ms).into(),
            Ok(Request::ReplicateCheckpoint { offset, max_bytes }) => {
                replicate_checkpoint_chunk(ctx, shared, offset, max_bytes).into()
            }
            Ok(Request::Promote) => match shared.role() {
                Role::Leader => Response::Rejected {
                    why: "already the leader".to_string(),
                },
                // A stopping run does not promote.
                Role::Follower if shared.stop.load(Ordering::Acquire) => Response::ShuttingDown,
                Role::Follower => {
                    // Acknowledge with the epoch the writer will bump
                    // to once its apply loop sees the request; the run
                    // goes on, as leader.
                    shared.promote_requested.store(true, Ordering::Release);
                    Response::Promoting {
                        fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire) + 1,
                    }
                }
            }
            .into(),
            Ok(Request::Shutdown) => {
                shared.request_shutdown();
                Response::ShuttingDown.into()
            }
        };
        let written = match reply {
            Reply::Typed(response) => write_frame(&mut stream, response.encode().as_bytes()),
            Reply::Rendered(body) => write_frame(&mut stream, body),
        };
        if written.is_err() {
            return;
        }
        // Drain-then-close: the in-flight request got its answer; once
        // shutdown is underway the connection closes rather than serving
        // a busy peer forever (a closed-loop reader re-requests fast
        // enough that the idle-poll stop check above never fires, which
        // would wedge the scope join on this handler).
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Admission control for one mutation: count it into the queue depth
/// first (so the writer's decrement can never race below zero), then
/// try to enqueue; a count past `queue_depth + 1` or a full queue rolls
/// the count back and sheds. The count is the bound that matters: the
/// writer holds its drained batch outside the channel until applied,
/// so the channel alone would let another `queue_depth` in behind it.
fn admit(
    ev: &OnlineEvent,
    tx: &SyncSender<Admitted>,
    reader: &mut SnapshotReader,
    shared: &Shared,
    queue_depth: usize,
) -> Response {
    // Stamp the flight clock on entry; the writer records the admit and
    // queue stages retroactively once the WAL append assigns this
    // mutation's position (= its trace id).
    let admit_ns = flight::now_ns();
    let depth = shared.queue_len.fetch_add(1, Ordering::Relaxed) + 1;
    if depth > queue_depth + 1 {
        return shed(shared, depth);
    }
    let enqueue_ns = flight::now_ns();
    match tx.try_send(Admitted {
        ev: ev.clone(),
        admit_ns,
        enqueue_ns,
    }) {
        Ok(()) => {
            shared.max_queue_len.fetch_max(depth, Ordering::Relaxed);
            shared.accepted.fetch_add(1, Ordering::Relaxed);
            tirm_obs::registry::SERVER_ACCEPTED.inc();
            tirm_obs::registry::SERVER_QUEUE_HIGH_WATER.set_max(depth as u64);
            Response::Accepted {
                epoch: reader.latest().snapshot.epoch,
                queue_depth: depth,
            }
        }
        Err(TrySendError::Full(_)) => shed(shared, depth),
        Err(TrySendError::Disconnected(_)) => {
            shared.queue_len.fetch_sub(1, Ordering::Relaxed);
            Response::ShuttingDown
        }
    }
}

/// Refuses a mutation [`admit`] had counted in at `depth`.
fn shed(shared: &Shared, depth: usize) -> Response {
    shared.queue_len.fetch_sub(1, Ordering::Relaxed);
    shared.shed.fetch_add(1, Ordering::Relaxed);
    tirm_obs::registry::SERVER_SHED.inc();
    Response::Overloaded {
        queue_depth: depth - 1,
    }
}

/// Frames per replication poll page — bounds one response frame no
/// matter what the follower asks for.
const MAX_REPLICATION_FRAMES: u64 = 4096;
/// Cumulative event-body bytes per poll page (well under the wire
/// frame cap; a follower just polls again from its new anchor).
const MAX_REPLICATION_BYTES: usize = 4 << 20;
/// Longest a caught-up poll is held, whatever `wait_ms` the peer asks
/// for: bounds how long a handler thread sits on a peer that went away
/// without closing its socket.
const MAX_REPLICATION_WAIT: Duration = Duration::from_secs(5);
/// Checkpoint bytes per bootstrap chunk (hex doubles it on the wire).
const MAX_CHECKPOINT_CHUNK: u64 = 1 << 20;

/// The follower's typed redirect to whatever leader this process knows.
fn not_leader(ctx: &ReplicaCtx) -> Response {
    Response::NotLeader {
        leader: ctx
            .leader_addr
            .lock()
            .expect("leader addr poisoned")
            .clone(),
    }
}

/// Answers one `replicate_poll`: a page of WAL frames starting at the
/// follower's anchor, clamped to the durable frontier — or the typed
/// bootstrap pivot when the anchor falls inside a pruned segment. A
/// caught-up poll is held first, until the frontier passes the anchor,
/// the server stops or `wait_ms` (clamped to [`MAX_REPLICATION_WAIT`])
/// runs out, so a new frame reaches the follower when it is durable
/// instead of at the follower's next timer tick.
fn replicate_poll(
    ctx: &ReplicaCtx,
    shared: &Shared,
    from_seq: u64,
    max_frames: u64,
    wait_ms: u64,
) -> Response {
    if shared.role() == Role::Follower {
        return not_leader(ctx);
    }
    let Some(dir) = &ctx.state_dir else {
        return Response::Rejected {
            why: "replication requires durability (this server has no state dir)".to_string(),
        };
    };
    tirm_obs::registry::REPL_POLLS.inc();
    // Only frames at or below the durable frontier are streamed: they
    // are fsynced (the WAL-before-apply invariant), so a disk read
    // here can never observe a torn or unsynced tail.
    let mut frontier = shared.wal_seq.load(Ordering::Acquire);
    if from_seq >= frontier && wait_ms > 0 {
        let parked = Instant::now();
        let wait = Duration::from_millis(wait_ms).min(MAX_REPLICATION_WAIT);
        frontier = shared.await_frontier_past(from_seq, wait);
        tirm_obs::registry::REPL_POLL_PARKED_NS.record_duration(parked.elapsed());
    }
    let fencing_epoch = shared.fencing_epoch.load(Ordering::Acquire);
    let max = max_frames.min(MAX_REPLICATION_FRAMES) as usize;
    match wal::read_frames(dir, from_seq, max, frontier) {
        Ok(ReplicaBatch::Frames { mut bodies }) => {
            let mut total = 0usize;
            let mut keep = bodies.len();
            for (i, body) in bodies.iter().enumerate() {
                total += body.len();
                if total > MAX_REPLICATION_BYTES {
                    // Keep at least one frame so the stream always
                    // makes progress.
                    keep = i.max(1);
                    break;
                }
            }
            bodies.truncate(keep);
            tirm_obs::registry::REPL_FRAMES_SHIPPED.add(bodies.len() as u64);
            // Each shipped frame's lineage: one replicate_ship span per
            // frame, under the same trace id the follower will extend.
            // A peer may send any `from_seq`, `u64::MAX` included.
            let trace_base = from_seq.saturating_add(1);
            let ship_ns = flight::now_ns();
            for i in 0..bodies.len() as u64 {
                flight::record_since(trace_base.saturating_add(i), Stage::ReplicateShip, ship_ns);
            }
            Response::ReplicateFrames {
                fencing_epoch,
                start_seq: from_seq,
                durable_seq: frontier,
                trace_base,
                frames: bodies,
            }
        }
        Ok(ReplicaBatch::Pruned { .. }) => match wal::newest_checkpoint(dir) {
            // The anchor predates the oldest retained segment: the
            // follower must bootstrap from a checkpoint instead.
            // Pruning only ever happens after a covering checkpoint,
            // so one exists whenever this branch is reachable.
            Ok(Some((checkpoint_seq, path))) => Response::ReplicateBootstrap {
                fencing_epoch,
                checkpoint_seq,
                total_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
            },
            Ok(None) => Response::Rejected {
                why: "replication anchor pruned but no checkpoint exists".to_string(),
            },
            Err(e) => Response::Rejected {
                why: format!("checkpoint scan failed: {e}"),
            },
        },
        Err(e) => Response::Rejected {
            why: format!("replication read failed: {e}"),
        },
    }
}

/// Answers one `replicate_checkpoint`: a byte range of the newest
/// checkpoint file, hex-encoded. The chunk carries the checkpoint's
/// `wal_seq` identity so a follower detects a checkpoint that rotated
/// mid-download (mismatched seq ⇒ restart the bootstrap).
fn replicate_checkpoint_chunk(
    ctx: &ReplicaCtx,
    shared: &Shared,
    offset: u64,
    max_bytes: u64,
) -> Response {
    if shared.role() == Role::Follower {
        return not_leader(ctx);
    }
    let Some(dir) = &ctx.state_dir else {
        return Response::Rejected {
            why: "replication requires durability (this server has no state dir)".to_string(),
        };
    };
    match wal::newest_checkpoint(dir) {
        Ok(Some((checkpoint_seq, path))) => {
            match read_file_range(&path, offset, max_bytes.clamp(1, MAX_CHECKPOINT_CHUNK)) {
                Ok((total_bytes, data)) => Response::ReplicateCheckpointChunk {
                    checkpoint_seq,
                    offset,
                    total_bytes,
                    data_hex: hex_encode(&data),
                },
                Err(e) => Response::Rejected {
                    why: format!("checkpoint read failed: {e}"),
                },
            }
        }
        Ok(None) => Response::Rejected {
            why: "no checkpoint to bootstrap from".to_string(),
        },
        Err(e) => Response::Rejected {
            why: format!("checkpoint scan failed: {e}"),
        },
    }
}

/// Reads up to `max` bytes of `path` starting at `offset`, returning
/// the file's total length alongside (an offset past the end yields an
/// empty chunk, not an error — the downloader's loop terminator).
fn read_file_range(
    path: &std::path::Path,
    offset: u64,
    max: u64,
) -> std::io::Result<(u64, Vec<u8>)> {
    let mut f = File::open(path)?;
    let total = f.metadata()?.len();
    let mut data = Vec::new();
    if offset < total {
        f.seek(SeekFrom::Start(offset))?;
        f.take(max).read_to_end(&mut data)?;
    }
    Ok((total, data))
}
