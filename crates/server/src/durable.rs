//! The durable-apply path: the one owner of a process's replicated
//! state — allocator, write-ahead log, published snapshot, checkpoint
//! cadence — and the one sequence that moves it forward.
//!
//! ```text
//! open:    recover (checkpoint + log tail) → Wal::open at the frontier
//!          → announce epoch and frontiers
//! commit:  append × n → fsync (once) → advance the frontier and wake
//!          the parked replication polls → apply (one reconciliation)
//!          → publish (once) → checkpoint + prune
//! finish:  wind-down checkpoint
//! ```
//!
//! A leader's writer thread feeds [`DurableState::commit`] with
//! everything its admission queue holds, a follower's apply loop feeds
//! it the pages it polls from the leader, and a restart is `open` over
//! what either left on disk, replaying the tail one segment per batch.
//! A promotion hands the same state, open log segment included, from
//! the apply loop to the queue on the same thread: it is a fencing
//! epoch bump, not a rebuild.
//! The feeders differ in where a batch comes from and how large it is;
//! what happens to a batch does not, so one argument covers leader ≡
//! follower ≡ recovered: every copy applies the same frames in the same
//! order to the same starting image, the allocation after any prefix of
//! them is a pure function of that prefix, and nothing a copy applies
//! is ever ahead of its own log. Copies cut different batches, so they
//! publish different *subsets* of the epochs, but every epoch any copy
//! publishes carries the same bits on all of them.

use crate::protocol::Role;
use crate::server::{DurabilityConfig, Shared};
use crate::swap::SnapshotSwap;
use crate::wal::{self, RecoveryReport, Wal};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tirm_graph::DiGraph;
use tirm_obs::flight::{self, Stage};
use tirm_online::{AllocationSnapshot, OnlineAllocator, OnlineConfig, OnlineEvent, OnlineStats};
use tirm_topics::TopicEdgeProbs;

/// What it takes to (re)build the allocator: the borrowed dataset, the
/// allocator configuration and, when durable, where and how to log.
pub(crate) struct Origin<'g> {
    pub(crate) graph: &'g DiGraph,
    pub(crate) topic_probs: &'g TopicEdgeProbs,
    pub(crate) online: OnlineConfig,
    /// `None` ⇒ memory-only: the same path minus the disk.
    pub(crate) durability: Option<DurabilityConfig>,
}

pub(crate) struct DurableState<'g> {
    origin: Origin<'g>,
    allocator: OnlineAllocator<'g>,
    log: Option<Wal>,
    /// Events committed since the last checkpoint.
    since_checkpoint: u64,
    pub(crate) swap: Arc<SnapshotSwap>,
    pub(crate) shared: Arc<Shared>,
}

impl<'g> DurableState<'g> {
    /// Rebuilds the state from `origin`'s state dir and starts a fresh
    /// run's [`Shared`] counters and snapshot cell around it. Also
    /// returns what recovery found (`None` when memory-only).
    pub(crate) fn open(origin: Origin<'g>) -> io::Result<(Self, Option<RecoveryReport>)> {
        let (allocator, log, recovery) = Self::load(&origin)?;
        let state = DurableState {
            swap: SnapshotSwap::new(allocator.snapshot()),
            shared: Shared::new(),
            origin,
            allocator,
            log,
            since_checkpoint: 0,
        };
        state.announce()?;
        Ok((state, recovery))
    }

    /// Loads the state dir again after a follower replaced its contents
    /// (fencing wipe, installed checkpoint) and publishes the result to
    /// the readers.
    pub(crate) fn reopen(&mut self) -> io::Result<()> {
        let (allocator, log, _) = Self::load(&self.origin)?;
        self.allocator = allocator;
        self.log = log;
        self.since_checkpoint = 0;
        self.announce()?;
        self.swap.publish(self.allocator.snapshot());
        Ok(())
    }

    /// Newest usable checkpoint + log tail, then a fresh segment at the
    /// recovered frontier. Memory-only start-up is the recovery of an
    /// empty state dir, minus the disk.
    fn load(
        origin: &Origin<'g>,
    ) -> io::Result<(OnlineAllocator<'g>, Option<Wal>, Option<RecoveryReport>)> {
        let (graph, topic_probs) = (origin.graph, origin.topic_probs);
        let Some(d) = &origin.durability else {
            let cold = OnlineAllocator::new(graph, topic_probs, origin.online.clone());
            return Ok((cold, None, None));
        };
        let (allocator, report) = wal::recover(&d.state_dir, graph, topic_probs, &origin.online)?;
        let log = Wal::open(&d.state_dir, report.wal_seq, d.segment_events)?;
        Ok((allocator, Some(log), Some(report)))
    }

    /// Stores what the readers announce about the loaded state: the
    /// persisted fencing epoch and both frontiers.
    fn announce(&self) -> io::Result<()> {
        if let Some(dir) = self.dir() {
            // The fencing epoch survives in the state dir: a leader that
            // was ever promoted keeps announcing its earned epoch across
            // plain restarts.
            let epoch = wal::read_fencing_epoch(dir)?;
            self.shared.fencing_epoch.store(epoch, Ordering::Release);
        }
        let frontier = self.seq();
        self.shared.wal_seq.store(frontier, Ordering::Release);
        // The leader's frontier is at least our own; what a follower
        // has already observed of it stays.
        self.shared.leader_seq.fetch_max(frontier, Ordering::AcqRel);
        Ok(())
    }

    /// The state dir (`None` ⇒ memory-only).
    fn dir(&self) -> Option<&Path> {
        self.origin
            .durability
            .as_ref()
            .map(|d| d.state_dir.as_path())
    }

    /// The durable frontier: the position the next committed event
    /// lands at. Its flight trace id is this `+ 1` (0 is the no-trace
    /// sentinel); memory-only state keeps the same positional numbering
    /// so lineage works without a log.
    pub(crate) fn seq(&self) -> u64 {
        match &self.log {
            Some(log) => log.seq(),
            None => self.shared.wal_seq.load(Ordering::Acquire),
        }
    }

    /// Makes `batch` durable, then applies it: log every frame, fsync
    /// **once**, advance the frontier, and only then let the allocator
    /// see it — the WAL-before-apply invariant that makes a kill at any
    /// instant recoverable to a prefix. `first_trace` is the flight
    /// trace id of `batch[0]`; a follower passes the leader's, so its
    /// stages extend the leader's timeline for the same mutation.
    ///
    /// The batch is applied with **one** [`OnlineAllocator::apply`] —
    /// every event validated and counted on its own, one reconciliation
    /// for all of them — and published as **one** snapshot, at the
    /// batch's last epoch. The allocation is a pure function of the
    /// events applied, so whatever batches a copy of the state cut, the
    /// snapshot it publishes at an epoch is the same bits as every other
    /// copy's at that epoch. Each event's timeline gets the shared
    /// apply and publish spans, as each frame gets the shared fsync. A
    /// rejected event changed nothing (and didn't bump the epoch); a
    /// batch that applied nothing publishes nothing. Rejection is
    /// deterministic, so every copy of the state counts the same ones.
    ///
    /// An `Err` is a log or checkpoint I/O failure: the state on disk is
    /// still a consistent prefix, but this process can no longer vouch
    /// for what it acknowledges.
    pub(crate) fn commit(
        &mut self,
        batch: &[OnlineEvent],
        first_trace: u64,
        role: Role,
    ) -> io::Result<()> {
        let n = batch.len() as u64;
        // Trace ids are labels a leader sent, so they wrap rather than
        // overflow.
        let traces = (0..n).map(|i| first_trace.wrapping_add(i));
        let append_start = flight::now_ns();
        let frontier = match &mut self.log {
            Some(log) => {
                for ev in batch {
                    log.append(ev)?;
                }
                log.sync()?;
                log.seq()
            }
            None => self.shared.wal_seq.load(Ordering::Acquire) + n,
        };
        self.shared.wal_seq.store(frontier, Ordering::Release);
        // Release the parked replication polls now, before the apply:
        // the batch is fsynced, which is all shipping a frame requires,
        // so a follower's append + fsync + apply overlaps ours.
        self.shared.notify_frontier();
        let apply_stage = match role {
            Role::Leader => {
                self.shared.leader_seq.store(frontier, Ordering::Release);
                Stage::Apply
            }
            Role::Follower => {
                let append_end = flight::now_ns();
                for trace in traces.clone() {
                    flight::record(trace, Stage::FollowerAppend, append_start, append_end);
                }
                let leader_seq = self.shared.leader_seq.load(Ordering::Acquire);
                tirm_obs::registry::REPL_FOLLOWER_LAG.set(leader_seq.saturating_sub(frontier));
                Stage::FollowerApply
            }
        };

        // Work done on behalf of the whole batch (the allocator's
        // exemplars) is pinned to its newest trace, like the fsync's.
        flight::set_current_trace(first_trace.wrapping_add(n.saturating_sub(1)));
        let epoch = self.allocator.epoch();
        let apply_start = flight::now_ns();
        let outcomes = self.allocator.apply(batch);
        let apply_end = flight::now_ns();
        let published = self.allocator.epoch() != epoch;
        if published {
            self.swap.publish(self.allocator.snapshot());
        }
        let publish_end = flight::now_ns();
        flight::set_current_trace(0);
        for (trace, outcome) in traces.zip(&outcomes) {
            flight::record(trace, apply_stage, apply_start, apply_end);
            match outcome {
                Ok(_) if published => {
                    flight::record(trace, Stage::Publish, apply_end, publish_end);
                }
                Ok(_) => {}
                Err(_) => self.count_rejected(),
            }
        }
        if role == Role::Leader {
            // The batch came off the admission queue: it is no longer
            // in flight once applied, whatever the checkpoint below
            // takes.
            self.shared
                .queue_len
                .fetch_sub(batch.len(), Ordering::Relaxed);
        }

        // Each checkpoint bounds the replay a restart pays and lets the
        // covered segments go.
        self.since_checkpoint += n;
        match &self.origin.durability {
            Some(d) if self.since_checkpoint >= d.checkpoint_interval => self.checkpoint(),
            _ => Ok(()),
        }
    }

    /// An applied event the allocator refused, in both ledgers: this
    /// run's [`Shared`] and the process-lifetime registry.
    fn count_rejected(&self) {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        tirm_obs::registry::SERVER_REJECTED.inc();
    }

    fn checkpoint(&mut self) -> io::Result<()> {
        if let (Some(log), Some(d)) = (&mut self.log, &self.origin.durability) {
            wal::write_checkpoint(&d.state_dir, &mut self.allocator, log.seq())?;
            log.prune(log.seq())?;
        }
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Winds the state down: a clean stop checkpoints
    /// whatever the cadence has not covered yet, so the next `open`
    /// warm-loads it instead of replaying the tail — only a crash
    /// leaves replay work behind. Returns the final snapshot and the
    /// allocator's lifetime counters.
    pub(crate) fn finish(mut self) -> io::Result<(Arc<AllocationSnapshot>, OnlineStats)> {
        if self.since_checkpoint > 0 {
            self.checkpoint()?;
        }
        Ok((self.allocator.snapshot(), self.allocator.stats()))
    }
}
