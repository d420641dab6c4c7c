//! Hostile graph snapshots (ROADMAP 6a, the snapshot slice): a valid
//! snapshot cut short, with one bit flipped, or with its version, K, n
//! or m header field rewritten loads as a typed [`SnapshotError`] or as
//! the original graph. It never panics, and while it loads it never
//! holds more heap than the file is long, plus the reader's fixed chunk
//! buffer, whatever the header claims. A forged file whose checksum was
//! recomputed after an id was put out of range is `Malformed`.
//!
//! Its own binary, with a counting allocator that keeps each thread's
//! live bytes and high-water mark apart: `read_snapshot` runs wholly on
//! the calling thread, so what another test's thread allocates meanwhile
//! never lands in a load's peak, and the tests need not take turns.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use tirm_graph::generators;
use tirm_graph::snapshot::{read_snapshot, write_snapshot, Snapshot, SnapshotError};

/// The system allocator, counting each thread's live bytes and their
/// high-water mark.
struct Counting;

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed. Signed: a
    /// block allocated on another thread and freed here takes it below
    /// zero instead of underflowing.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` reached since [`load`] last reset it.
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

/// The loader's one scratch buffer (`4 · CHUNK_ELEMS` bytes), plus room
/// for the path and the file handle.
const SCRATCH: usize = (1 << 18) + 4096;

/// Loads `path`, returning the result and the most heap the calling
/// thread held at once beyond what it held before.
fn load(path: &Path) -> (Result<Snapshot, SnapshotError>, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let got = read_snapshot(path);
    (got, (PEAK.with(Cell::get) - base) as usize)
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

/// The snapshot trailer computed the plain way: word `i` of everything
/// before it feeds FNV-1a-64 lane `i mod 4`, and one more FNV-1a pass
/// folds the four lanes' bytes.
fn checksum(body: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [OFFSET; 4];
    for (i, w) in body.chunks_exact(4).enumerate() {
        let w = u32::from_le_bytes(w.try_into().unwrap());
        lanes[i % 4] = (lanes[i % 4] ^ u64::from(w)).wrapping_mul(PRIME);
    }
    let mut h = OFFSET;
    for b in lanes.iter().flat_map(|l| l.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The checksum proves the bytes are what the writer wrote, not that
/// the writer was honest: an `in_sources` id one past the last node,
/// with the trailer recomputed to match, is refused as `Malformed`.
#[test]
fn a_forged_out_of_range_id_with_a_recomputed_checksum_is_malformed() {
    let fx = fixture();
    let mut bytes = fx.valid.clone();
    let body = bytes.len() - 8;
    assert_eq!(
        checksum(&bytes[..body]).to_le_bytes(),
        bytes[body..],
        "the plain checksum reproduces the writer's"
    );
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (n, m) = (word(16), word(24));
    // Header, out_offsets, out_targets, in_offsets: then in_sources.
    let in_sources = 32 + 4 * (n + 1) + 4 * m + 4 * (n + 1);
    bytes[in_sources..in_sources + 4].copy_from_slice(&(n as u32).to_le_bytes());
    let forged = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&forged.to_le_bytes());

    let path = fx.path.with_extension("forged");
    std::fs::write(&path, &bytes).unwrap();
    let got = read_snapshot(&path);
    std::fs::remove_file(&path).unwrap();
    match got {
        Err(SnapshotError::Malformed(why)) => assert!(why.contains("out of range"), "{why}"),
        Err(e) => panic!("a forged id must be Malformed, got {e}"),
        Ok(_) => panic!("a snapshot with an out-of-range in_sources id loaded"),
    }
}
