//! Hostile graph snapshots (ROADMAP 6a, the snapshot slice): a valid
//! snapshot cut short, with one bit flipped, or with its version, K, n
//! or m header field rewritten loads as a typed [`SnapshotError`] or as
//! the original graph. It never panics, and while it loads it never
//! holds more heap than the file is long, plus the reader's fixed chunk
//! buffer, whatever the header claims.
//!
//! One test in its own binary: the allocation high-water mark is
//! process-wide.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;
use tirm_graph::generators;
use tirm_graph::snapshot::{read_snapshot, write_snapshot, Snapshot, SnapshotError};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes to `System` unchanged, so `System` keeps the
// `GlobalAlloc` contract; the counters are statistics that only read the
// layout's size (hence `Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` are passed on as given.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            PEAK.fetch_max(
                LIVE.fetch_add(layout.size(), Relaxed) + layout.size(),
                Relaxed,
            );
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` in `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The loader's one scratch buffer (`4 · CHUNK_ELEMS` bytes), plus room
/// for the path and the file handle.
const SCRATCH: usize = (1 << 18) + 4096;

/// Loads `path`, returning the result and the most heap it held at once
/// beyond what was live before.
fn load(path: &Path) -> (Result<Snapshot, SnapshotError>, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let got = read_snapshot(path);
    (got, PEAK.load(Relaxed) - base)
}

/// Header fields as (offset, width): version, K, n, m.
const FIELDS: [(usize, usize); 4] = [(8, 4), (12, 4), (16, 8), (24, 8)];

/// A valid snapshot with one hostile edit. `what` picks the edit, `at`
/// where, `value` the bits a header field is given.
fn hostile(valid: &[u8], what: u8, at: usize, value: u64) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    match what {
        0 => bytes.truncate(at % (valid.len() + 1)),
        1 => bytes[at % valid.len()] ^= 1 << (value % 8),
        _ => {
            let (offset, width) = FIELDS[at % FIELDS.len()];
            let mut old = [0u8; 8];
            old[..width].copy_from_slice(&valid[offset..offset + width]);
            let old = u64::from_le_bytes(old);
            let value = match value % 10 {
                0 => 0,
                1 => old - 1,
                2 => old,
                3 => old + 1,
                4 => 1 << 30,
                5 => u64::from(u32::MAX - 1),
                6 => u64::from(u32::MAX),
                7 => u64::MAX,
                8 => value >> 32,
                _ => value,
            };
            bytes[offset..offset + width].copy_from_slice(&value.to_le_bytes()[..width]);
        }
    }
    bytes
}

/// Where each case writes its file, a valid snapshot's bytes, and what
/// they load as.
struct Fixture {
    path: PathBuf,
    valid: Vec<u8>,
    original: Snapshot,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let graph = generators::preferential_attachment(300, 4, 0.25, 5);
        let k = 2;
        let probs: Vec<f32> = (0..graph.num_edges() * k)
            .map(|i| (i % 97) as f32 / 97.0)
            .collect();
        let name = format!("tirm_hostile_snapshot_{}.tirmsnap", std::process::id());
        let path = std::env::temp_dir().join(name);
        write_snapshot(&path, &graph, k, &probs).unwrap();
        let valid = std::fs::read(&path).unwrap();
        let original = read_snapshot(&path).expect("a valid snapshot loads");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(original.graph, graph);
        Fixture {
            path,
            valid,
            original,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn hostile_snapshots_load_as_typed_errors_in_bounded_memory(
        what in 0u8..3,
        at in 0usize..1 << 20,
        value in 0u64..u64::MAX,
    ) {
        let fx = fixture();
        let bytes = hostile(&fx.valid, what, at, value);
        std::fs::write(&fx.path, &bytes).unwrap();
        let (got, peak) = load(&fx.path);
        std::fs::remove_file(&fx.path).unwrap();
        match got {
            Ok(snap) => prop_assert!(snap == fx.original, "edit {what} at {at} loaded another graph"),
            Err(SnapshotError::Io(e)) => panic!("edit {what} at {at}: the file is there, yet {e}"),
            Err(_) => {}
        }
        prop_assert!(
            peak <= bytes.len() + SCRATCH,
            "held {peak} bytes loading a {}-byte file (edit {what} at {at})",
            bytes.len()
        );
    }
}
