//! The snapshot-swap cell: one writer publishes immutable
//! [`AllocationSnapshot`]s, any number of readers serve from the latest
//! one without ever blocking on the writer's allocator work.
//!
//! # Soundness / non-blocking argument
//!
//! The cell is an atomic **version counter** plus a slot holding the
//! current `Arc<AllocationSnapshot>` and, once a reader asked for it,
//! its [`Published`] epoch. The contract that keeps readers off the
//! writer's critical path:
//!
//! * All allocator work (sampling, greedy re-runs — the milliseconds)
//!   happens *before* [`SnapshotSwap::publish`]; the slot lock is held
//!   only for an `Arc` pointer store or clone — a few nanoseconds, with
//!   no allocator state behind it. The first reader of an epoch also
//!   allocates its (empty) [`Published`] there.
//! * Each reader holds its own cached `Arc` ([`SnapshotReader`]) and
//!   serves every query from it lock-free; it touches the slot only
//!   when the version counter says a newer snapshot exists. The worst
//!   case a reader can ever wait is another thread's pointer-sized
//!   critical section or one small allocation — never an event
//!   application.
//! * Snapshots are immutable owned data, so a reader that grabbed an
//!   `Arc` keeps a consistent view for as long as it likes while the
//!   writer publishes past it; memory is reclaimed when the last reader
//!   of an old snapshot drops its `Arc`.
//!
//! (A fully wait-free `AtomicPtr` swap would need deferred reclamation
//! — hazard pointers or epochs — to make the load-then-clone race
//! sound; std-only, the version-gated slot gives the same observable
//! behaviour: queries never wait on the allocator.)
//!
//! # Rendered read bodies
//!
//! A published epoch also carries the `allocation` and `ad` response
//! bodies rendered from its snapshot, each filled by the first read
//! that asks for it and then handed, as the same bytes, to every
//! connection reading that epoch. Nothing renders at publish, and
//! nothing is allocated there either: the cell is made by the epoch's
//! first reader, so the write path pays for no read that nobody makes,
//! and the writer's heap — where every re-run's transient buffers come
//! and go — holds no more long-lived chunks than the snapshot itself (a
//! cell made at publish raised the benchmark's `serve-reads` peak RSS
//! from 77 to 80 MB, glibc malloc on a 2-CPU x86-64 host). A
//! body belongs to the cell of its epoch, so a reader that moved to a
//! newer epoch can never be handed an older body.

use crate::protocol::{allocation_body, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tirm_online::{AdId, AllocationSnapshot};

/// One published epoch: its snapshot plus the read bodies rendered from
/// it, each at most once (a second reader arriving mid-render waits on
/// the `OnceLock` instead of rendering again).
pub struct Published {
    /// The snapshot every read of this epoch answers from.
    pub snapshot: Arc<AllocationSnapshot>,
    /// The `allocation` response body.
    allocation: OnceLock<String>,
    /// The `ad` response bodies, parallel to `snapshot.ads`.
    ads: Box<[OnceLock<String>]>,
    /// The `ad` response body for an id that is not live: `"ad":null`,
    /// the same bytes whatever the id.
    ad_miss: OnceLock<String>,
}

impl Published {
    fn new(snapshot: Arc<AllocationSnapshot>) -> Published {
        Published {
            allocation: OnceLock::new(),
            ads: snapshot.ads.iter().map(|_| OnceLock::new()).collect(),
            ad_miss: OnceLock::new(),
            snapshot,
        }
    }

    /// The frame body answering `allocation` at this epoch.
    pub fn allocation_body(&self) -> &[u8] {
        self.allocation
            .get_or_init(|| {
                tirm_obs::registry::SERVER_ALLOCATION_RENDERS.inc();
                allocation_body(&self.snapshot)
            })
            .as_bytes()
    }

    /// The frame body answering `ad` for `id` at this epoch.
    pub fn ad_body(&self, id: AdId) -> &[u8] {
        let ads = &self.snapshot.ads;
        let (body, ad) = match ads.iter().position(|a| a.id == id) {
            Some(i) => (&self.ads[i], Some(&ads[i])),
            None => (&self.ad_miss, None),
        };
        body.get_or_init(|| {
            Response::Ad {
                epoch: self.snapshot.epoch,
                ad: ad.cloned(),
            }
            .encode()
        })
        .as_bytes()
    }
}

/// The writer-side publication point.
pub struct SnapshotSwap {
    /// Publications so far; readers poll this to detect staleness.
    version: AtomicU64,
    /// The latest snapshot, and its epoch cell once a reader made it.
    /// Locked only for pointer-sized operations and that one allocation.
    slot: Mutex<(Arc<AllocationSnapshot>, Option<Arc<Published>>)>,
}

impl SnapshotSwap {
    /// A cell holding `initial` at version 0.
    pub fn new(initial: Arc<AllocationSnapshot>) -> Arc<SnapshotSwap> {
        Arc::new(SnapshotSwap {
            version: AtomicU64::new(0),
            slot: Mutex::new((initial, None)),
        })
    }

    /// Publishes a new snapshot; its epoch cell is left to the first
    /// reader. The slot lock is held for one pointer store; the version
    /// bump afterwards is what readers observe (`Release` pairs with the
    /// reader's `Acquire` — a reader that sees version `v` and then
    /// loads the slot gets a snapshot at least as new as `v`).
    pub fn publish(&self, snapshot: Arc<AllocationSnapshot>) {
        *self.slot.lock().expect("snapshot slot poisoned") = (snapshot, None);
        self.version.fetch_add(1, Ordering::Release);
        tirm_obs::registry::SNAPSHOT_PUBLISHES.inc();
    }

    /// Publications so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current epoch out of the slot, making its cell if this
    /// is the epoch's first reader.
    pub fn load(&self) -> Arc<Published> {
        let mut slot = self.slot.lock().expect("snapshot slot poisoned");
        let (snapshot, published) = &mut *slot;
        published
            .get_or_insert_with(|| Arc::new(Published::new(snapshot.clone())))
            .clone()
    }
}

/// A reader's cached view of the cell. Queries are answered from the
/// cached `Arc` without any lock; [`SnapshotReader::latest`] refreshes
/// it only when the version counter moved.
pub struct SnapshotReader {
    swap: Arc<SnapshotSwap>,
    cached: Arc<Published>,
    version: u64,
    /// Slot refreshes this reader performed (telemetry: proves the read
    /// path mostly runs lock-free).
    refreshes: u64,
}

impl SnapshotReader {
    /// A reader starting from the cell's current snapshot.
    pub fn new(swap: Arc<SnapshotSwap>) -> SnapshotReader {
        // Version first, then load: the cached snapshot is at least as
        // new as the recorded version, never older.
        let version = swap.version();
        let cached = swap.load();
        SnapshotReader {
            swap,
            cached,
            version,
            refreshes: 0,
        }
    }

    /// The latest published epoch (refreshing the cache only if the
    /// writer published since the last call).
    pub fn latest(&mut self) -> &Published {
        let v = self.swap.version();
        if v != self.version {
            self.version = v;
            self.cached = self.swap.load();
            self.refreshes += 1;
        }
        &self.cached
    }

    /// Slot refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_online::AdSnapshot;

    fn snap(epoch: u64) -> Arc<AllocationSnapshot> {
        let mut s = (*AllocationSnapshot::empty(1, 0.0)).clone();
        s.epoch = epoch;
        Arc::new(s)
    }

    #[test]
    fn publish_and_read() {
        let cell = SnapshotSwap::new(snap(0));
        let mut r = SnapshotReader::new(cell.clone());
        assert_eq!(r.latest().snapshot.epoch, 0);
        assert_eq!(r.refreshes(), 0, "no publication, no slot touch");
        cell.publish(snap(1));
        assert_eq!(r.latest().snapshot.epoch, 1);
        assert_eq!(r.latest().snapshot.epoch, 1);
        assert_eq!(r.refreshes(), 1, "one publication, one refresh");
    }

    #[test]
    fn old_snapshots_stay_consistent_for_holders() {
        let cell = SnapshotSwap::new(snap(0));
        let mut r = SnapshotReader::new(cell.clone());
        let held = r.latest().snapshot.clone();
        cell.publish(snap(7));
        assert_eq!(held.epoch, 0, "held view unaffected by publication");
        assert_eq!(r.latest().snapshot.epoch, 7);
    }

    #[test]
    fn concurrent_readers_see_monotone_epochs() {
        let cell = SnapshotSwap::new(snap(0));
        const PUBLISHES: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = cell.clone();
                s.spawn(move || {
                    let mut r = SnapshotReader::new(cell);
                    let mut last = 0u64;
                    loop {
                        let e = r.latest().snapshot.epoch;
                        assert!(e >= last, "epoch went backwards: {last} -> {e}");
                        last = e;
                        if e == PUBLISHES {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                });
            }
            for e in 1..=PUBLISHES {
                cell.publish(snap(e));
            }
        });
    }

    #[test]
    fn bodies_are_the_responses_encoding_rendered_once_per_epoch() {
        let mut s = (*snap(4)).clone();
        s.ads.push(AdSnapshot {
            id: 9,
            budget: 2.5,
            cpe: 1.0,
            seeds: vec![3, 1],
            revenue_est: 2.25,
        });
        let cell = SnapshotSwap::new(snap(0));
        let (mut first, mut second) = (
            SnapshotReader::new(cell.clone()),
            SnapshotReader::new(cell.clone()),
        );
        cell.publish(Arc::new(s.clone()));
        let allocation = first.latest().allocation_body();
        assert_eq!(
            allocation,
            Response::Allocation(s.clone()).encode().as_bytes()
        );
        assert!(
            std::ptr::eq(allocation, second.latest().allocation_body()),
            "a second reader of the epoch rendered it again"
        );
        let epoch = second.latest();
        let hit = Response::Ad {
            epoch: 4,
            ad: Some(s.ads[0].clone()),
        };
        assert_eq!(epoch.ad_body(9), hit.encode().as_bytes());
        let miss = Response::Ad { epoch: 4, ad: None }.encode();
        assert!(miss.ends_with("\"ad\":null}"), "{miss}");
        assert_eq!(epoch.ad_body(8), miss.as_bytes());
        assert!(std::ptr::eq(epoch.ad_body(8), epoch.ad_body(77)));
    }
}
