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
//!                      │ commit: log → fsync → apply, and after
//!                      ▼ each applied event
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

use crate::durable::{DurableState, Origin};
use crate::protocol::{
    hex_encode, read_frame_polling, write_frame, Request, Response, Role, StatsView,
    PROTOCOL_VERSION,
};
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
/// how often state is checkpointed. Attached to a [`ServerConfig`] via
/// [`ServerConfigBuilder::state_dir`]; a server without one serves from
/// memory only (the pre-durability behavior).
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

/// Configuration of a [`serve`] run. Construct via
/// [`ServerConfig::builder`] (validated), struct literal update syntax
/// off [`Default`], or field-by-field.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Allocator configuration (TIRM options, κ, λ, pool budget).
    pub online: OnlineConfig,
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Write-queue bound: mutations beyond this many queued + in-flight
    /// are shed with [`Response::Overloaded`]. Must be ≥ 1.
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
        }
    }
}

impl ServerConfig {
    /// A validated, fluent way to assemble a config — the mirror of the
    /// client-side [`crate::protocol::ClientOptions`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }

    /// Checks every value a server run relies on; `Err` names the first
    /// bad field. [`ServerConfigBuilder::build`] and [`serve`] both call
    /// it, so a struct-literal config is held to the same rules.
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
                return Err(
                    "durability needs a state_dir (checkpoint_interval/segment_events \
                     were set without one)"
                        .into(),
                );
            }
            if d.checkpoint_interval < 1 {
                return Err("checkpoint_interval must be >= 1 event".into());
            }
            if d.segment_events < 1 {
                return Err("segment_events must be >= 1 frame".into());
            }
        }
        Ok(())
    }
}

/// Fluent constructor for [`ServerConfig`]; [`build`](Self::build)
/// rejects nonsensical values ([`ServerConfig::validate`]) before a
/// server is started with them.
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Allocator configuration (TIRM options, κ, λ, pool budget).
    pub fn online(mut self, online: OnlineConfig) -> Self {
        self.cfg.online = online;
        self
    }

    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub fn bind(mut self, bind: impl Into<String>) -> Self {
        self.cfg.bind = bind.into();
        self
    }

    /// Write-queue admission bound (mutations beyond it shed).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Connection admission bound.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Handler read-poll interval (shutdown latency on idle sockets).
    pub fn read_poll(mut self, interval: Duration) -> Self {
        self.cfg.read_poll = interval;
        self
    }

    /// Enables durability: WAL + checkpoints under `dir` with the
    /// default cadence (tune with
    /// [`checkpoint_interval`](Self::checkpoint_interval) /
    /// [`segment_events`](Self::segment_events) after this).
    pub fn state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let interval = self.cfg.durability.as_ref().map(|d| d.checkpoint_interval);
        let segment = self.cfg.durability.as_ref().map(|d| d.segment_events);
        let mut d = DurabilityConfig::new(dir);
        if let Some(i) = interval {
            d.checkpoint_interval = i;
        }
        if let Some(s) = segment {
            d.segment_events = s;
        }
        self.cfg.durability = Some(d);
        self
    }

    /// Applied mutations between checkpoints (requires
    /// [`state_dir`](Self::state_dir), in either order).
    pub fn checkpoint_interval(mut self, events: u64) -> Self {
        match &mut self.cfg.durability {
            Some(d) => d.checkpoint_interval = events,
            None => {
                let mut d = DurabilityConfig::new("");
                d.checkpoint_interval = events;
                self.cfg.durability = Some(d);
            }
        }
        self
    }

    /// Frames per WAL segment (requires [`state_dir`](Self::state_dir),
    /// in either order).
    pub fn segment_events(mut self, frames: u64) -> Self {
        match &mut self.cfg.durability {
            Some(d) => d.segment_events = frames,
            None => {
                let mut d = DurabilityConfig::new("");
                d.segment_events = frames;
                self.cfg.durability = Some(d);
            }
        }
        self
    }

    /// Validates and returns the config. `Err` names the first bad
    /// field.
    pub fn build(self) -> Result<ServerConfig, String> {
        self.cfg.validate()?;
        Ok(self.cfg)
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
    /// Set by a wire `promote` request on a follower: the apply loop
    /// winds down and [`crate::replica::serve_follower`] reports
    /// `promoted = true` so the host process can take over as leader.
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
            promote_requested: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            frontier_lock: Mutex::new(()),
            frontier_cv: Condvar::new(),
        })
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
}

impl ServerHandle {
    /// The address the server is listening on (the ephemeral port when
    /// the config bound port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
    /// Admitted mutations the allocator rejected (unknown ids etc.).
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
/// The allocator borrows the graph, so the whole server runs inside a
/// `std::thread::scope` — no `'static` bounds, no graph cloning; the
/// caller keeps ownership of the multi-GB dataset.
pub fn serve<R>(
    graph: &DiGraph,
    topic_probs: &TopicEdgeProbs,
    cfg: ServerConfig,
    f: impl FnOnce(&ServerHandle) -> R,
) -> std::io::Result<(R, ServeReport)> {
    let feeder = |state: &mut DurableState<'_>, rx: Receiver<Admitted>, _: &ReplicaCtx| {
        feed_from_queue(state, &rx);
        Ok(())
    };
    let run = run_server(
        graph,
        topic_probs,
        cfg,
        Role::Leader,
        String::new(),
        feeder,
        f,
    )?;
    let shared = &run.shared;
    let report = ServeReport {
        final_snapshot: run.final_snapshot,
        stats: run.stats,
        accepted: shared.accepted.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        bad_requests: shared.bad_requests.load(Ordering::Relaxed),
        max_queue_depth: shared.max_queue_len.load(Ordering::Relaxed),
        connections: shared.connections_total.load(Ordering::Relaxed),
        connections_refused: shared.connections_refused.load(Ordering::Relaxed),
        recovery: run.recovery,
        wal_seq: shared.wal_seq.load(Ordering::Acquire),
        fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
    };
    Ok((run.result, report))
}

/// What a connection handler needs to know about the process's role in
/// a replica group: whether it is the leader (mutations admitted,
/// replication served) or a follower (mutations redirected), and where
/// WAL segments live for replication reads.
pub(crate) struct ReplicaCtx {
    /// This process's role — fixed for the lifetime of one
    /// [`serve`]/[`crate::replica::serve_follower`] run (promotion
    /// starts a new run).
    pub(crate) role: Role,
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

/// What one [`run_server`] run leaves behind.
pub(crate) struct Run<R, T> {
    /// What the caller's closure returned.
    pub(crate) result: R,
    /// What the feeder returned.
    pub(crate) fed: T,
    pub(crate) final_snapshot: Arc<AllocationSnapshot>,
    pub(crate) stats: OnlineStats,
    pub(crate) recovery: Option<RecoveryReport>,
    pub(crate) shared: Arc<Shared>,
}

/// The scaffold a leader and a follower share: bind, open the durable
/// state, then run three kinds of thread inside one scope — the
/// `feeder` (the only thread that ever touches the allocator: it owns
/// the [`DurableState`] and decides what to commit next), the acceptor
/// (one handler thread per admitted connection; the read path is
/// identical on both roles) and the caller's closure `f` — and stop
/// them in the drain-then-close order. `cfg` is the leader's shape; a
/// follower maps its own config onto it.
pub(crate) fn run_server<'g, R, T: Send>(
    graph: &'g DiGraph,
    topic_probs: &'g TopicEdgeProbs,
    cfg: ServerConfig,
    role: Role,
    leader_addr: String,
    feeder: impl FnOnce(&mut DurableState<'g>, Receiver<Admitted>, &ReplicaCtx) -> std::io::Result<T>
        + Send,
    f: impl FnOnce(&ServerHandle) -> R,
) -> std::io::Result<Run<R, T>> {
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
        role,
        state_dir: cfg.durability.as_ref().map(|d| d.state_dir.clone()),
        leader_addr: Mutex::new(leader_addr),
    };
    let (mut state, recovery) = DurableState::open(Origin {
        graph,
        topic_probs,
        online: cfg.online,
        durability: cfg.durability,
    })?;
    let (swap, shared) = (state.swap.clone(), state.shared.clone());
    let (tx, rx) = std::sync::mpsc::sync_channel::<Admitted>(cfg.queue_depth);
    let handle = ServerHandle {
        addr,
        swap: swap.clone(),
        shared: shared.clone(),
    };

    let (result, fed) = std::thread::scope(|s| {
        let (ctx, shared) = (&ctx, &*shared);
        let feeder = s.spawn(move || -> std::io::Result<_> {
            let fed = feeder(&mut state, rx, ctx)?;
            // The feeder returned ⇒ everything it took in was applied
            // (on a leader: all senders dropped and the queue drained —
            // the drain guarantee).
            let (final_snapshot, stats) = state.finish()?;
            Ok((fed, final_snapshot, stats))
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
                    handle_connection(stream, tx, swap, shared, ctx, cfg.read_poll);
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
        // checks, dropping their queue senders; the feeder then takes
        // in whatever is left, winds the state down and returns the
        // final snapshot. The explicit join order just makes the
        // sequence readable — the scope would join everything anyway.
        acceptor.join().expect("acceptor panicked");
        (result, feeder.join().expect("feeder panicked"))
    });
    let (fed, final_snapshot, stats) = fed?;
    Ok(Run {
        result,
        fed,
        final_snapshot,
        stats,
        recovery,
        shared,
    })
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

/// The leader's feeder: takes admitted mutations off the queue and
/// commits them one at a time, until every sender has hung up and the
/// queue is empty.
///
/// A commit failure is fatal by design: continuing would hand out
/// `Accepted` responses for mutations that can never be recovered. The
/// panic propagates through the scope join, tearing the server down
/// loudly instead of serving silently non-durable writes.
fn feed_from_queue(state: &mut DurableState<'_>, rx: &Receiver<Admitted>) {
    while let Ok(a) = rx.recv() {
        let dequeue_ns = flight::now_ns();
        // The event lands at log position `seq`, which names its trace:
        // record the admission-side stages now that it is known.
        let trace = state.seq() + 1;
        flight::record(trace, Stage::Admit, a.admit_ns, a.enqueue_ns);
        flight::record(trace, Stage::Queue, a.enqueue_ns, dequeue_ns);
        state
            .commit(&[a.ev], trace, Role::Leader)
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
                    role: ctx.role,
                    fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
                }
                .into()
            }
            Ok(Request::Mutate(ev)) => match ctx.role {
                Role::Leader => admit(&ev, &tx, &mut reader, shared),
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
                Response::Stats(StatsView {
                    epoch: snap.epoch,
                    wal_seq,
                    role: ctx.role,
                    fencing_epoch: shared.fencing_epoch.load(Ordering::Acquire),
                    // A leader *is* the frontier; a follower reports
                    // where it last saw the leader, so `lag()` is
                    // leader_seq - wal_seq.
                    leader_seq: match ctx.role {
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
                    // survive follower→leader promotion within the
                    // process, unlike the per-serve-run `Shared`
                    // counters above.
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
                replicate_checkpoint_chunk(ctx, offset, max_bytes).into()
            }
            Ok(Request::Promote) => match ctx.role {
                Role::Leader => Response::Rejected {
                    why: "already the leader".to_string(),
                },
                Role::Follower => {
                    // Acknowledge with the epoch the promoted process
                    // will serve under, then wind the follower down;
                    // the host process bumps the fencing epoch and
                    // re-serves the same state dir as leader.
                    shared.promote_requested.store(true, Ordering::Release);
                    shared.request_shutdown();
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
/// try to enqueue; a full queue rolls the count back and sheds.
fn admit(
    ev: &OnlineEvent,
    tx: &SyncSender<Admitted>,
    reader: &mut SnapshotReader,
    shared: &Shared,
) -> Response {
    // Stamp the flight clock on entry; the writer records the admit and
    // queue stages retroactively once the WAL append assigns this
    // mutation's position (= its trace id).
    let admit_ns = flight::now_ns();
    let depth = shared.queue_len.fetch_add(1, Ordering::Relaxed) + 1;
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
        Err(TrySendError::Full(_)) => {
            shared.queue_len.fetch_sub(1, Ordering::Relaxed);
            shared.shed.fetch_add(1, Ordering::Relaxed);
            tirm_obs::registry::SERVER_SHED.inc();
            Response::Overloaded {
                queue_depth: depth - 1,
            }
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.queue_len.fetch_sub(1, Ordering::Relaxed);
            Response::ShuttingDown
        }
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
    if ctx.role == Role::Follower {
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
            let ship_ns = flight::now_ns();
            for i in 0..bodies.len() as u64 {
                flight::record_since(from_seq + i + 1, Stage::ReplicateShip, ship_ns);
            }
            Response::ReplicateFrames {
                fencing_epoch,
                start_seq: from_seq,
                durable_seq: frontier,
                trace_base: from_seq + 1,
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
fn replicate_checkpoint_chunk(ctx: &ReplicaCtx, offset: u64, max_bytes: u64) -> Response {
    if ctx.role == Role::Follower {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_default_and_validate() {
        let built = ServerConfig::builder().build().unwrap();
        let default = ServerConfig::default();
        assert_eq!(built.bind, default.bind);
        assert_eq!(built.queue_depth, default.queue_depth);
        assert_eq!(built.max_connections, default.max_connections);
        assert_eq!(built.read_poll, default.read_poll);
        assert!(built.durability.is_none());
    }

    #[test]
    fn builder_assembles_durability_in_any_field_order() {
        let cfg = ServerConfig::builder()
            .checkpoint_interval(16)
            .segment_events(64)
            .state_dir("/tmp/tirm-state")
            .queue_depth(8)
            .build()
            .unwrap();
        let d = cfg.durability.unwrap();
        assert_eq!(d.state_dir, PathBuf::from("/tmp/tirm-state"));
        assert_eq!(d.checkpoint_interval, 16);
        assert_eq!(d.segment_events, 64);
        assert_eq!(cfg.queue_depth, 8);
    }

    #[test]
    fn builder_rejects_nonsense_with_the_offending_field_named() {
        let err = ServerConfig::builder().queue_depth(0).build().unwrap_err();
        assert!(err.contains("queue_depth"), "{err}");
        let err = ServerConfig::builder()
            .checkpoint_interval(8)
            .build()
            .unwrap_err();
        assert!(err.contains("state_dir"), "{err}");
        let err = ServerConfig::builder()
            .state_dir("/tmp/x")
            .checkpoint_interval(0)
            .build()
            .unwrap_err();
        assert!(err.contains("checkpoint_interval"), "{err}");
        let err = ServerConfig::builder()
            .state_dir("/tmp/x")
            .segment_events(0)
            .build()
            .unwrap_err();
        assert!(err.contains("segment_events"), "{err}");
        let err = ServerConfig::builder()
            .read_poll(Duration::ZERO)
            .build()
            .unwrap_err();
        assert!(err.contains("read_poll"), "{err}");
    }
}
