//! Hostile WAL segments: a segment file holding arbitrary bytes — after
//! a valid header, as the header itself, or as a valid segment cut
//! short, bit-flipped or with a frame length rewritten — is read by
//! `wal::recover` and `wal::read_frames` into `Ok` (with a typed
//! `TornFrame` / `CorruptFrame` warning where the log ends early) or a
//! typed `InvalidData` error. Neither panics, and neither holds more
//! heap at once than one frame at the 16 MiB cap, plus fixed slack.
//!
//! One test in its own binary, with a counting allocator that keeps
//! each thread's live bytes and high-water mark apart: `recover` and
//! `read_frames` run wholly on the calling thread (the fixture's TIRM
//! runs one sampling thread, which draws inline), so nothing the test
//! harness's other threads allocate lands in a measured peak.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::OnceLock;
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_online::{OnlineConfig, OnlineEvent};
use tirm_server::wal::{self, RecoveryWarning, ReplicaBatch, Wal};
use tirm_topics::{genprob, TopicDist, TopicEdgeProbs};

/// The system allocator, counting each thread's live bytes and their
/// high-water mark.
struct Counting;

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed. Signed: a
    /// block allocated on another thread and freed here takes it below
    /// zero instead of underflowing.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` reached since [`peak_of`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to this thread's count. `try_with`: a thread
/// being torn down has lost its counters, and its last frees go
/// uncounted rather than panicking inside the allocator.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call goes to `System` unchanged, so `System` keeps the
// `GlobalAlloc` contract; the counters are `const`-initialised
// thread-locals without destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` are passed on as given.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` in `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The frame cap of the segment format.
const FRAME_CAP: usize = 16 << 20;

/// Beyond one capped frame: the scan's 64 KiB read buffer, the
/// directory listing, and a cold allocator over the fixture's graph
/// replaying the fixture's three events (about 0.3 MB).
const SLACK: usize = 1 << 20;

/// Runs `f`, returning its result and the most heap the calling thread
/// held at once beyond what it held before.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let got = f();
    (got, (PEAK.with(Cell::get) - base) as usize)
}

struct Fixture {
    dir: PathBuf,
    graph: DiGraph,
    probs: TopicEdgeProbs,
    cfg: OnlineConfig,
    /// A segment starting at seq 0 with three whole frames.
    valid: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::preferential_attachment(200, 3, 0.3, 7);
        let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 7);
        let cfg = OnlineConfig {
            tirm: TirmOptions {
                eps: 0.45,
                seed: 7,
                max_theta_per_ad: Some(600),
                ..TirmOptions::default()
            },
            ..OnlineConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("tirm_hostile_wal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut log = Wal::open(&dir, 0, 1_000).unwrap();
        for ev in [
            OnlineEvent::AdArrival {
                id: 1,
                budget: 5.0,
                cpe: 1.0,
                topics: TopicDist::single(2, 0),
                ctp: 0.5,
            },
            OnlineEvent::BudgetTopUp { id: 1, amount: 2.0 },
            OnlineEvent::AdDeparture { id: 1 },
        ] {
            log.append(&ev).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
        let valid = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        Fixture {
            dir,
            graph,
            probs,
            cfg,
            valid,
        }
    })
}

/// Frame lengths a forger would try: empty, one byte, the cap and one
/// past it, the largest `u32`, and whatever `value` is.
fn length_word(choice: u8, value: u32) -> u32 {
    match choice % 6 {
        0 => 0,
        1 => 1,
        2 => FRAME_CAP as u32,
        3 => FRAME_CAP as u32 + 1,
        4 => u32::MAX,
        _ => value,
    }
}

/// A segment file with one hostile edit. `what` picks the edit, `at`
/// where, `tail` the arbitrary bytes and `choice` / `value` a frame
/// length.
fn hostile(valid: &[u8], what: u8, at: usize, tail: &[u8], choice: u8, value: u32) -> Vec<u8> {
    const HEADER: usize = 20;
    match what {
        // Arbitrary bytes after a valid header.
        0 => [&valid[..HEADER], tail].concat(),
        // Arbitrary bytes as the header itself.
        1 => tail.to_vec(),
        // The valid segment cut short.
        2 => valid[..at % (valid.len() + 1)].to_vec(),
        // One bit flipped.
        3 => {
            let mut bytes = valid.to_vec();
            bytes[at % valid.len()] ^= 1 << (value % 8);
            bytes
        }
        // One frame's length prefix rewritten, then arbitrary bytes.
        _ => {
            let mut prefixes = vec![HEADER];
            while let Some(&pos) = prefixes.last().filter(|&&p| p < valid.len()) {
                let len = u32::from_le_bytes(valid[pos..pos + 4].try_into().unwrap());
                prefixes.push(pos + 4 + len as usize);
            }
            prefixes.pop();
            let pos = prefixes[at % prefixes.len()];
            let mut bytes = valid.to_vec();
            bytes[pos..pos + 4].copy_from_slice(&length_word(choice, value).to_le_bytes());
            bytes.extend_from_slice(tail);
            bytes
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_segments_read_as_typed_outcomes_in_bounded_memory(
        what in 0u8..5,
        at in 0usize..1 << 16,
        tail in proptest::collection::vec(0u8..=255, 0..300),
        choice in 0u8..6,
        value in 0u32..=u32::MAX,
    ) {
        let fx = fixture();
        let bytes = hostile(&fx.valid, what, at, &tail, choice, value);
        let path = fx.dir.join(format!("wal-{:020}.seg", 0));
        std::fs::write(&path, &bytes).unwrap();

        let (recovered, peak) = peak_of(|| {
            wal::recover(&fx.dir, &fx.graph, &fx.probs, &fx.cfg).map(|(_, report)| report)
        });
        match recovered {
            Ok(report) => {
                prop_assert!(report.replayed <= 3, "{} frames replayed", report.replayed);
                for w in &report.warnings {
                    prop_assert!(
                        matches!(w, RecoveryWarning::TornFrame { .. } | RecoveryWarning::CorruptFrame { .. }),
                        "edit {what} at {at}: {w}"
                    );
                }
            }
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData, "edit {} at {}: {}", what, at, e),
        }
        prop_assert!(peak <= FRAME_CAP + SLACK, "recover held {peak} bytes (edit {what} at {at})");

        let (read, peak) = peak_of(|| wal::read_frames(&fx.dir, 0, 512, u64::MAX));
        match read {
            Ok(ReplicaBatch::Frames { bodies }) => {
                prop_assert!(bodies.len() <= bytes.len() / 5, "{} frames", bodies.len());
            }
            Ok(ReplicaBatch::Pruned { .. }) => panic!("edit {what} at {at}: seq 0 is on disk"),
            Err(e) => prop_assert_eq!(e.kind(), ErrorKind::InvalidData, "edit {} at {}: {}", what, at, e),
        }
        prop_assert!(peak <= FRAME_CAP + SLACK, "read_frames held {peak} bytes (edit {what} at {at})");
        std::fs::remove_file(&path).unwrap();
    }
}
