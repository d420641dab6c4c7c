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
//! structural: (1) the stop flag flips, the acceptor is woken — no new
//! connections — and the read half of every open connection is shut,
//! which wakes each handler blocked reading its next request; (2)
//! handler threads finish their in-flight request (the stop wakes a
//! `replicate_poll` parked on the durable frontier) and exit, dropping
//! their queue senders; a frame that had not fully arrived is cut,
//! never admitted; (3) with all senders gone
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
    hex_encode, read_frame, write_frame, Request, Response, Role, StatsView, PROTOCOL_VERSION,
};
use crate::replica::{self, FollowConfig, Tail};
use crate::swap::{SnapshotReader, SnapshotSwap};
use crate::wal::{self, RecoveryReport, ReplicaBatch};
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};
use tirm_graph::DiGraph;
use tirm_obs::flight::{self, Stage};
use tirm_online::{AllocationSnapshot, OnlineConfig, OnlineEvent, OnlineStats};
use tirm_topics::TopicEdgeProbs;

/// Configuration of a [`serve`] run: a struct literal over
/// [`ServerConfig::new`], checked by [`ServerConfig::validate`] when
/// [`serve`] starts.
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
    /// Directory holding WAL segments and checkpoint files. Created on
    /// startup if missing; recovery scans it first. Every admitted
    /// mutation is logged here (group-commit fsync) before it is
    /// applied.
    pub state_dir: PathBuf,
    /// Applied mutations between checkpoints. Each checkpoint bounds
    /// the replay a restart pays to at most this many events (plus the
    /// in-flight batch) and lets the covered WAL segments be deleted.
    pub checkpoint_interval: u64,
    /// Frames per WAL segment before rotating to a new file. Smaller
    /// segments reclaim disk sooner; larger ones make fewer files.
    pub segment_events: u64,
    /// `Some` ⇒ the run starts as a follower of another server and
    /// serves as leader once promoted.
    pub follow: Option<FollowConfig>,
}

impl ServerConfig {
    /// A leader on an ephemeral loopback port keeping its state under
    /// `state_dir`: checkpoint every 256 events, 1024-frame segments,
    /// queue and connection bounds of 64.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            online: OnlineConfig::default(),
            bind: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            max_connections: 64,
            state_dir: state_dir.into(),
            checkpoint_interval: 256,
            segment_events: 1024,
            follow: None,
        }
    }

    /// Checks every value a server run relies on; `Err` names the first
    /// bad field. [`serve`] calls it before binding.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_depth < 1 {
            return Err("queue_depth must be >= 1 (the queue must admit something)".into());
        }
        if self.max_connections < 1 {
            return Err("max_connections must be >= 1".into());
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
        if self.state_dir.as_os_str().is_empty() {
            return Err("state_dir must be a non-empty path".into());
        }
        if self.checkpoint_interval < 1 {
            return Err("checkpoint_interval must be >= 1 event".into());
        }
        if self.segment_events < 1 {
            return Err("segment_events must be >= 1 frame".into());
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
    /// Durable frontier: mutations logged *and* fsynced. The `hello`
    /// response carries it as the resume anchor for reconnecting
    /// clients.
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
    /// Set by a wire `promote` request on a follower
    /// ([`request_promotion`](Self::request_promotion)): the apply loop
    /// returns and the writer takes over as leader in place, unless the
    /// run is stopping.
    pub(crate) promote_requested: AtomicBool,
    /// Why the run stops, once something stops it — the first cause
    /// set wins; [`ServerHandle::wait_shutdown`] blocks until there is
    /// one.
    stop_cause: Mutex<Option<StopCause>>,
    /// Raised when a stop cause is set, when the stop flag flips and on
    /// a promotion request: what `wait_shutdown` and a follower's retry
    /// pause ([`pause_follower`](Self::pause_follower)) wait on.
    shutdown_cv: Condvar,
    /// Raised whenever `wal_seq` advances or the run starts to stop:
    /// what a caught-up `replicate_poll` parks on
    /// ([`await_frontier_past`](Self::await_frontier_past)). The mutex
    /// guards no data — `wal_seq` and `stop` are atomics — it only
    /// orders a waiter's re-check against the notifier.
    frontier_lock: Mutex<()>,
    frontier_cv: Condvar,
    /// The writer's [`WriterStep`] in the low 3 bits, the seq it holds
    /// above them. Write-only, like every obs record: no decision reads
    /// it, [`ServerHandle::writer_step`] shows it.
    writer_step: AtomicU64,
}

/// Where the writer is: waiting for a batch, or which step of
/// committing one it has reached ([`ServerHandle::writer_step`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriterStep {
    /// Between batches, holding the last seq it committed.
    Waiting,
    /// A leader's batch came off the admission queue.
    Dequeued,
    /// Appending the batch to the log.
    Appending,
    /// Fsyncing the log.
    Syncing,
    /// Applying the batch to the allocator.
    Applying,
    /// Publishing the new snapshot to the readers.
    Publishing,
    /// Writing a checkpoint and pruning the log.
    Checkpointing,
}

const WRITER_STEPS: [WriterStep; 7] = [
    WriterStep::Waiting,
    WriterStep::Dequeued,
    WriterStep::Appending,
    WriterStep::Syncing,
    WriterStep::Applying,
    WriterStep::Publishing,
    WriterStep::Checkpointing,
];

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
            stop_cause: Mutex::new(None),
            shutdown_cv: Condvar::new(),
            frontier_lock: Mutex::new(()),
            frontier_cv: Condvar::new(),
            writer_step: AtomicU64::new(0),
        })
    }

    /// Records that the writer reached `step`, holding `seq`: the last
    /// seq it committed while waiting, the batch's last seq from
    /// dequeuing it on.
    pub(crate) fn set_writer_step(&self, step: WriterStep, seq: u64) {
        self.writer_step
            .store(seq << 3 | step as u64, Ordering::Relaxed);
    }

    pub(crate) fn role(&self) -> Role {
        if self.leading.load(Ordering::Acquire) {
            Role::Leader
        } else {
            Role::Follower
        }
    }

    pub(crate) fn request_shutdown(&self, cause: StopCause) {
        let mut stop = self.stop_cause.lock().expect("stop cause poisoned");
        stop.get_or_insert(cause);
        self.shutdown_cv.notify_all();
    }

    /// Records a wire `promote` and wakes a follower pausing between
    /// retries, so the apply loop returns at once.
    pub(crate) fn request_promotion(&self) {
        self.promote_requested.store(true, Ordering::Release);
        // Taking the lock orders the store before the pausing
        // follower's next re-check, so the wake-up is never lost. The
        // lock guards one `Option` set in a single store: a poisoned
        // one is whole.
        let _ordered = self
            .stop_cause
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.shutdown_cv.notify_all();
    }

    /// Whether a follower's apply loop should return: the run is
    /// stopping or a promotion was requested.
    pub(crate) fn stop_or_promotion(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.promote_requested.load(Ordering::Acquire)
    }

    /// Parks up to `wait`, returning early once
    /// [`stop_or_promotion`](Self::stop_or_promotion) holds: a
    /// follower's pause before retrying an endpoint that failed.
    pub(crate) fn pause_follower(&self, wait: Duration) {
        let guard = self
            .stop_cause
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        drop(
            self.shutdown_cv
                .wait_timeout_while(guard, wait, |_| !self.stop_or_promotion()),
        );
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
    recovery: RecoveryReport,
}

impl ServerHandle {
    /// The address the server is listening on (the ephemeral port when
    /// the config bound port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What start-up recovery found — known before the first request
    /// is served, and the same report [`ServeReport::recovery`] carries
    /// at the end.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
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

    /// The durable frontier: mutations WAL-logged and fsynced so far.
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

    /// The writer's step and the seq it holds: what a write that never
    /// shows was stuck behind. Read without ordering — a diagnostic.
    pub fn writer_step(&self) -> (WriterStep, u64) {
        let word = self.shared.writer_step.load(Ordering::Relaxed);
        (WRITER_STEPS[(word & 7) as usize], word >> 3)
    }

    /// Blocks until some client sends a `shutdown` request or the
    /// writer ends the run — how the `tirm_server` binary's main thread
    /// parks itself. Returns `true` for a requested shutdown and `false`
    /// when the writer ended first: it failed (a refused bootstrap
    /// checkpoint, a log I/O error) or panicked, and `serve` returns why.
    pub fn wait_shutdown(&self) -> bool {
        let stop = self.shared.stop_cause.lock().expect("stop cause poisoned");
        let stop = self
            .shared
            .shutdown_cv
            .wait_while(stop, |cause| cause.is_none())
            .expect("stop cause poisoned");
        *stop == Some(StopCause::Requested)
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
    /// What startup recovery found.
    pub recovery: RecoveryReport,
    /// Final durable frontier — the WAL sequence number after the last
    /// drained mutation.
    pub wal_seq: u64,
    /// The fencing epoch the run served under (0 when no promotion ever
    /// happened in this state dir's lineage).
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
        state_dir: cfg.state_dir.clone(),
        leader_addr: Mutex::new(
            cfg.follow
                .as_ref()
                .map_or_else(String::new, |f| f.leader_addr.clone()),
        ),
    };
    let follow = cfg.follow;
    let (mut state, recovery) = DurableState::open(Origin {
        graph,
        topic_probs,
        online: cfg.online,
        state_dir: cfg.state_dir,
        checkpoint_interval: cfg.checkpoint_interval,
        segment_events: cfg.segment_events,
    })?;
    let (swap, shared) = (state.swap.clone(), state.shared.clone());
    shared.leading.store(follow.is_none(), Ordering::Release);
    let (tx, rx) = std::sync::mpsc::sync_channel::<Admitted>(cfg.queue_depth);
    let conns = Connections(Mutex::new(Some(Vec::new())));
    let handle = ServerHandle {
        addr,
        swap: swap.clone(),
        shared: shared.clone(),
        recovery,
    };

    let (result, fed) = std::thread::scope(|s| {
        let (ctx, shared, conns) = (&ctx, &*shared, &conns);
        let writer = s.spawn(move || -> std::io::Result<_> {
            // A writer that fails (a refused bootstrap checkpoint, a log
            // I/O error) or panics ends the run instead of leaving it
            // serving a frozen snapshot. A drained writer only returns
            // once the run is stopping anyway.
            let _ended = ShutdownOnDrop(shared);
            let tail = match &follow {
                Some(follow) => replica::follow(follow, &mut state, ctx)?,
                None => Tail::default(),
            };
            feed_from_queue(&mut state, &rx)?;
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
                let stream = Arc::new(stream);
                if !conns.register(&stream) {
                    // Accepted just before the stop swept: closed.
                    continue;
                }
                shared.connections_open.fetch_add(1, Ordering::Relaxed);
                shared.connections_total.fetch_add(1, Ordering::Relaxed);
                let (tx, swap) = (tx.clone(), swap.clone());
                s.spawn(move || {
                    handle_connection(&stream, tx, swap, shared, ctx, cfg.queue_depth);
                    shared.connections_open.fetch_sub(1, Ordering::Relaxed);
                });
            }
        });

        let result = {
            let _stop = StopGuard {
                shared,
                conns,
                addr,
            };
            f(&handle)
        };

        // Drain-then-close (the guard above already flipped stop, woke
        // the acceptor and shut every open connection's read half).
        // Handlers answer their in-flight request, read EOF and exit,
        // dropping their queue senders; the writer then takes
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
    /// The state dir replication reads stream segments from.
    pub(crate) state_dir: PathBuf,
    /// Where a follower redirects mutations (the leader it is
    /// tailing); updated by the apply loop when the leader moves.
    pub(crate) leader_addr: Mutex<String>,
}

/// The sockets of the open connections, so the stop can wake every
/// handler blocked reading one; `None` once the stop has swept them.
/// Held weakly: a handler's socket closes when the handler exits, and
/// its dead entry is dropped at the next registration.
struct Connections(Mutex<Option<Vec<Weak<TcpStream>>>>);

impl Connections {
    /// Registers a new connection's socket before its handler starts;
    /// `false` once the stop has swept, and the connection is refused.
    fn register(&self, stream: &Arc<TcpStream>) -> bool {
        // Nothing panics holding the lock; a poisoned list is whole.
        let mut open = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(open) = open.as_mut() else {
            return false;
        };
        open.retain(|s| s.strong_count() > 0);
        open.push(Arc::downgrade(stream));
        true
    }

    /// Shuts the read half of every open connection — a handler blocked
    /// reading its next request reads EOF — and closes the list, so a
    /// connection accepted after the sweep is refused, not left blocked.
    fn sweep(&self) {
        let open = self.0.lock().unwrap_or_else(PoisonError::into_inner).take();
        for stream in open.iter().flatten().filter_map(Weak::upgrade) {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// Flips the stop flag and wakes every blocked server thread on BOTH
/// exits from the caller's closure: a clean return and an unwind. A
/// panicking closure (a failed harness expectation) would otherwise
/// leave the acceptor parked in `accept()` forever — the scope joins
/// all threads before re-raising, so the panic would hang instead of
/// propagating.
struct StopGuard<'a> {
    shared: &'a Shared,
    conns: &'a Connections,
    addr: SocketAddr,
}

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // No handler outlives the stop by a hold: wake the parked polls.
        self.shared.notify_frontier();
        // Also wakes a follower pausing between retries.
        self.shared.request_shutdown(StopCause::Requested);
        // Wake the handlers blocked reading an idle connection.
        self.conns.sweep();
        // Wake the blocked accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// What ended a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopCause {
    /// A client's `shutdown` request, or the run's own caller returning.
    Requested,
    /// The writer thread returned or panicked before anything asked it
    /// to stop.
    WriterEnded,
}

/// Wakes [`ServerHandle::wait_shutdown`] when the writer thread ends,
/// on every exit path.
struct ShutdownOnDrop<'a>(&'a Shared);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown(StopCause::WriterEnded);
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
/// A commit failure ends the run: continuing would hand out `Accepted`
/// responses for mutations that can never be recovered. The writer
/// returns the error, which stops the run and is what `serve` returns.
fn feed_from_queue(state: &mut DurableState<'_>, rx: &Receiver<Admitted>) -> std::io::Result<()> {
    state
        .shared
        .set_writer_step(WriterStep::Waiting, state.seq());
    while let Ok(first) = rx.recv() {
        let admitted: Vec<Admitted> = std::iter::once(first).chain(rx.try_iter()).collect();
        let dequeue_ns = flight::now_ns();
        // The batch lands at log positions `seq..`, which name its
        // traces: record the admission-side stages now that they are
        // known.
        let first_trace = state.seq() + 1;
        let last = state.seq() + admitted.len() as u64;
        state.shared.set_writer_step(WriterStep::Dequeued, last);
        let events: Vec<OnlineEvent> = (first_trace..)
            .zip(admitted)
            .map(|(trace, a)| {
                flight::record(trace, Stage::Admit, a.admit_ns, a.enqueue_ns);
                flight::record(trace, Stage::Queue, a.enqueue_ns, dequeue_ns);
                a.ev
            })
            .collect();
        state.commit(&events, first_trace, Role::Leader)?;
    }
    Ok(())
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
fn handle_connection(
    mut stream: &TcpStream,
    tx: SyncSender<Admitted>,
    swap: Arc<SnapshotSwap>,
    shared: &Shared,
    ctx: &ReplicaCtx,
    queue_depth: usize,
) {
    // The write timeout bounds a peer that stops *reading*: without it,
    // a full kernel send buffer would block the handler in `write_all`
    // forever — unjoinable at shutdown. A timed-out write corrupts that
    // connection's framing, so the handler drops the connection.
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = SnapshotReader::new(swap);
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF (the peer's, or the stop's sweep), a frame the
            // sweep cut short, or a broken peer: close.
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
                    rejected: shared.rejected.load(Ordering::Acquire),
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
                    shared.request_promotion();
                    Response::Promoting {
                        fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire) + 1,
                    }
                }
            }
            .into(),
            Ok(Request::Shutdown) => {
                shared.request_shutdown(StopCause::Requested);
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
        // a busy peer forever (a request that reached the socket before
        // the sweep still reads as a frame, so a closed-loop reader
        // would otherwise wedge the scope join on this handler).
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
    let dir = &ctx.state_dir;
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
    let dir = &ctx.state_dir;
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
