//! Versioned binary graph snapshots: a finished [`DiGraph`] (both CSR
//! directions) plus an optional per-topic arc-probability matrix, written
//! once and loaded back in milliseconds without re-sorting or rebuilding
//! reverse adjacency.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! offset  size          field
//! 0       8             magic  b"TIRMSNAP"
//! 8       4             u32    format version (= FORMAT_VERSION)
//! 12      4             u32    K — topics in the probability matrix (≥ 1)
//! 16      8             u64    n — nodes
//! 24      8             u64    m — arcs
//! 32      4·(n+1)       u32[]  out_offsets
//! …       4·m           u32[]  out_targets
//! …       4·(n+1)       u32[]  in_offsets
//! …       4·m           u32[]  in_sources
//! …       4·m           u32[]  in_edge_ids
//! …       4·m·K         f32[]  edge probabilities, edge-major (bit-exact)
//! end−8   8             u64    4-lane word FNV-1a of every preceding word
//! ```
//!
//! The loader rejects wrong magic, unknown versions, truncated files
//! (length is pre-checked against the header before anything is
//! allocated), checksum mismatches and arrays that do not form a graph
//! (an id out of range, an unsorted adjacency run — what a forged file
//! with a recomputed checksum holds) with a typed [`SnapshotError`] —
//! never a panic — so callers can fall back to regeneration when a cache
//! file is stale or damaged. Floats travel as raw bits, so a loaded
//! snapshot is bit-identical to what was saved.

use crate::csr::DiGraph;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// First eight bytes of every snapshot file.
const MAGIC: [u8; 8] = *b"TIRMSNAP";

/// Version stamp of the file layout. Bump on any layout change; the
/// loader refuses other versions (CI cache keys embed this constant so a
/// bump invalidates stale caches instead of tripping over them).
pub const FORMAT_VERSION: u32 = 1;

/// Header + trailing checksum bytes around the payload.
const HEADER_BYTES: u64 = 32;
const CHECKSUM_BYTES: u64 = 8;

/// Upper bound on K — snapshots are not a general tensor store, and the
/// bound keeps a corrupt header from requesting an absurd allocation
/// before the length check.
const MAX_TOPICS: u32 = 4096;

/// A decoded snapshot: the graph plus its probability matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The deserialized graph (no rebuild — arrays load verbatim).
    pub graph: DiGraph,
    /// Topics `K` in the probability matrix.
    pub num_topics: usize,
    /// Edge-major `m × K` probabilities, bit-identical to what was saved.
    pub edge_probs: Vec<f32>,
}

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with `TIRMSNAP` — not a snapshot at all.
    BadMagic,
    /// The file was written by a different [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file is shorter (or longer) than its header promises.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// Payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the bytes read.
        computed: u64,
    },
    /// Header or arrays are structurally inconsistent (id out of range,
    /// non-monotone offsets, absurd K, …).
    Malformed(String),
    /// A sound payload written under another configuration than the
    /// reader's (an allocator checkpoint's echoed `kappa`, say): loading
    /// it would diverge from the log it anchors, and an older file
    /// would not fix that.
    ConfigMismatch {
        /// The echoed field that differs.
        field: &'static str,
        /// Its value in the file.
        theirs: String,
        /// The reader's value.
        ours: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "snapshot format version {v}, this build reads {FORMAT_VERSION}"
            ),
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "truncated snapshot: {actual} bytes, expected {expected}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::ConfigMismatch {
                field,
                theirs,
                ours,
            } => write!(
                f,
                "written under a different configuration: {field} is {theirs}, this process runs {ours}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The file checksum: FNV-1a-64 over the little-endian u32 *word* stream
/// (8 header words + every array element, in file order), run as four
/// interleaved lanes — word `i` feeds lane `i mod 4` — combined at the
/// end by byte-serial FNV over the lane values. Word granularity and the
/// four independent xor-multiply chains make hashing a gigabyte-class
/// payload a memory-bandwidth problem instead of a latency-chain one
/// (byte-serial FNV alone costs seconds at LIVEJOURNAL scale, which
/// would eat the warm-load speedup the cache exists for).
struct WordHasher {
    lanes: [u64; 4],
    count: usize,
}

impl WordHasher {
    fn new() -> Self {
        WordHasher {
            lanes: [FNV_OFFSET; 4],
            count: 0,
        }
    }

    #[inline]
    fn step(&mut self, w: u32) {
        let lane = &mut self.lanes[self.count & 3];
        *lane = (*lane ^ w as u64).wrapping_mul(FNV_PRIME);
        self.count += 1;
    }

    fn update(&mut self, words: &[u32]) {
        let mut words = words;
        // Re-align to lane 0 so the unrolled loop's lane order is fixed.
        while self.count & 3 != 0 && !words.is_empty() {
            self.step(words[0]);
            words = &words[1..];
        }
        let mut quads = words.chunks_exact(4);
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        for q in quads.by_ref() {
            l0 = (l0 ^ q[0] as u64).wrapping_mul(FNV_PRIME);
            l1 = (l1 ^ q[1] as u64).wrapping_mul(FNV_PRIME);
            l2 = (l2 ^ q[2] as u64).wrapping_mul(FNV_PRIME);
            l3 = (l3 ^ q[3] as u64).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [l0, l1, l2, l3];
        self.count += words.len() - quads.remainder().len();
        for &w in quads.remainder() {
            self.step(w);
        }
    }

    fn update_f32(&mut self, vals: &[f32]) {
        let mut tmp = [0u32; 1024];
        for chunk in vals.chunks(tmp.len()) {
            for (dst, v) in tmp.iter_mut().zip(chunk) {
                *dst = v.to_bits();
            }
            self.update(&tmp[..chunk.len()]);
        }
    }

    fn finalize(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for lane in self.lanes {
            for b in lane.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

/// Serialization chunk: 256 KiB of u32s per syscall keeps IO at
/// page-cache bandwidth without large resident scratch buffers.
const CHUNK_ELEMS: usize = 1 << 16;

fn write_words<W: Write>(w: &mut W, buf: &mut [u8], words: &[u32]) -> io::Result<()> {
    for chunk in words.chunks(CHUNK_ELEMS) {
        for (dst, v) in buf.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf[..chunk.len() * 4])?;
    }
    Ok(())
}

fn read_words<R: Read>(
    r: &mut R,
    hasher: &mut WordHasher,
    buf: &mut [u8],
    count: usize,
) -> Result<Vec<u32>, SnapshotError> {
    let mut out = vec![0u32; count];
    let mut filled = 0;
    while filled < count {
        let take = (count - filled).min(CHUNK_ELEMS);
        let bytes = &mut buf[..take * 4];
        r.read_exact(bytes)?;
        // Slice-to-slice zip with `from_le_bytes` compiles to a straight
        // copy on little-endian targets (a pre-sized fill, unlike
        // iterator `extend`, reliably vectorizes).
        let dst = &mut out[filled..filled + take];
        for (dst, src) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *dst = u32::from_le_bytes(src.try_into().unwrap());
        }
        // Hash while the chunk is still cache-hot — a separate hashing
        // pass would re-stream the whole gigabyte payload from DRAM.
        hasher.update(dst);
        filled += take;
    }
    Ok(out)
}

/// The 32 header bytes as the 8 u32 words the checksum consumes.
fn header_words(header: &[u8; HEADER_BYTES as usize]) -> [u32; 8] {
    let mut words = [0u32; 8];
    for (w, b) in words.iter_mut().zip(header.chunks_exact(4)) {
        *w = u32::from_le_bytes(b.try_into().unwrap());
    }
    words
}

/// Total file length implied by `(n, m, k)`.
fn expected_len(n: u64, m: u64, k: u64) -> u64 {
    HEADER_BYTES + 4 * (2 * (n + 1) + 3 * m + m * k) + CHECKSUM_BYTES
}

/// Writes `contents` to `path` **atomically** and durably: bytes go to
/// a sibling process-unique temp file, which is fsynced and renamed into
/// place, and the rename is made durable by fsyncing the directory — so
/// a crashed or interrupted writer (SIGKILL, SIGINT mid-write,
/// disk-full, power loss) can never leave a half-written file under the
/// final name: the path either holds the previous content or the
/// complete new content. Parent directories are created. This is the
/// workspace-wide durable-output primitive: binary dataset snapshots,
/// JSONL event logs, experiment artifacts and the server's checkpoints
/// and fencing epoch all commit through it.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |w| w.write_all(contents))
}

/// Streaming variant of [`write_atomic`]: `fill` produces the bytes into
/// a buffered writer backed by the temp file; the fsync and rename
/// happen only after `fill` succeeds and the buffer is flushed. On any
/// error the temp file is removed and the final path is left untouched.
/// The temp file is named `path` with its extension replaced by
/// `tmp.<pid>`. The buffer has the default size: the snapshot and
/// checkpoint writers hand it 256 KiB chunks, which go straight to the
/// file, and a small file (the fencing epoch) needs no more.
pub fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| -> io::Result<()> {
        let mut w = BufWriter::new(File::create(&tmp)?);
        fill(&mut w)?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    // Directory fsync fails on filesystems that do not support it; those
    // do not need it either.
    let _ = File::open(dir)?.sync_all();
    Ok(())
}

/// Header bytes of the generic word-payload container: caller magic (8),
/// format version (4), payload word count (8).
const WORDS_HEADER_BYTES: usize = 20;

/// Writes a generic checksummed word payload to `w`: the caller's magic
/// and version, a word count, the payload words little-endian, and the
/// same 4-lane word-FNV trailer the graph snapshot uses. This is the
/// workspace's durable-state container for subsystems beyond the graph
/// cache — allocator checkpoints serialize through it — so every durable
/// artifact shares one integrity story: typed [`SnapshotError`]s on
/// foreign files, version skew, truncation and bit rot, never a panic.
pub fn write_words_stream(
    w: &mut impl Write,
    magic: &[u8; 8],
    version: u32,
    payload: &[u32],
) -> io::Result<()> {
    let mut hasher = WordHasher::new();
    let mut header = [0u8; WORDS_HEADER_BYTES];
    header[0..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut hwords = [0u32; WORDS_HEADER_BYTES / 4];
    for (hw, b) in hwords.iter_mut().zip(header.chunks_exact(4)) {
        *hw = u32::from_le_bytes(b.try_into().unwrap());
    }
    hasher.update(&hwords);
    w.write_all(&header)?;
    hasher.update(payload);
    let mut buf = vec![0u8; 4 * CHUNK_ELEMS];
    write_words(w, &mut buf, payload)?;
    w.write_all(&hasher.finalize().to_le_bytes())?;
    w.flush()
}

/// Reads a payload written by [`write_words_stream`], verifying magic,
/// version and checksum. The payload is read chunkwise, so a header lying
/// about its length fails at EOF (as [`SnapshotError::Truncated`]) before
/// absurd memory is committed.
pub fn read_words_stream(
    r: &mut impl Read,
    magic: &[u8; 8],
    version: u32,
) -> Result<Vec<u32>, SnapshotError> {
    let mut header = [0u8; WORDS_HEADER_BYTES];
    let mut consumed = 0u64;
    read_exact_counted(r, &mut header, &mut consumed)?;
    if &header[0..8] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let v = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if v != version {
        return Err(SnapshotError::UnsupportedVersion(v));
    }
    let count = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if count > (u32::MAX as u64) * 64 {
        return Err(SnapshotError::Malformed(format!(
            "payload of {count} words is out of any plausible range"
        )));
    }
    let count = count as usize;
    let mut hasher = WordHasher::new();
    let mut hwords = [0u32; WORDS_HEADER_BYTES / 4];
    for (hw, b) in hwords.iter_mut().zip(header.chunks_exact(4)) {
        *hw = u32::from_le_bytes(b.try_into().unwrap());
    }
    hasher.update(&hwords);

    let mut out = vec![0u32; 0];
    let mut buf = vec![0u8; 4 * CHUNK_ELEMS];
    let mut filled = 0usize;
    while filled < count {
        let take = (count - filled).min(CHUNK_ELEMS);
        let bytes = &mut buf[..take * 4];
        read_exact_counted(r, bytes, &mut consumed).map_err(|e| truncation_of(e, count))?;
        out.reserve(take);
        for src in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes(src.try_into().unwrap()));
        }
        hasher.update(&out[filled..filled + take]);
        filled += take;
    }
    let mut tail = [0u8; 8];
    read_exact_counted(r, &mut tail, &mut consumed).map_err(|e| truncation_of(e, count))?;
    let stored = u64::from_le_bytes(tail);
    let computed = hasher.finalize();
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok(out)
}

/// `read_exact` that tracks bytes consumed, so truncation errors can
/// report a position even on unseekable streams.
fn read_exact_counted(
    r: &mut impl Read,
    buf: &mut [u8],
    consumed: &mut u64,
) -> Result<(), SnapshotError> {
    match r.read_exact(buf) {
        Ok(()) => {
            *consumed += buf.len() as u64;
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(SnapshotError::Truncated {
            expected: 0, // refined by `truncation_of` once the header is known
            actual: *consumed,
        }),
        Err(e) => Err(SnapshotError::Io(e)),
    }
}

/// Fills in the expected length of a truncation error once the header's
/// word count is known.
fn truncation_of(e: SnapshotError, count: usize) -> SnapshotError {
    match e {
        SnapshotError::Truncated { actual, .. } => SnapshotError::Truncated {
            expected: WORDS_HEADER_BYTES as u64 + 4 * count as u64 + CHECKSUM_BYTES,
            actual,
        },
        other => other,
    }
}

/// Writes `graph` and its `num_topics × m` edge-major probability matrix
/// to `path` through a buffered writer. The file appears atomically via
/// [`write_atomic_with`], so a crashed writer can never leave a
/// half-written cache entry under the final name.
pub fn write_snapshot(
    path: &Path,
    graph: &DiGraph,
    num_topics: usize,
    edge_probs: &[f32],
) -> io::Result<()> {
    assert!(num_topics >= 1, "need at least one topic");
    assert!(num_topics as u32 <= MAX_TOPICS, "too many topics");
    assert_eq!(
        edge_probs.len(),
        graph.num_edges() * num_topics,
        "probability matrix shape must be m × K"
    );
    write_atomic_with(path, |w| {
        let mut hasher = WordHasher::new();
        let mut buf = vec![0u8; 4 * CHUNK_ELEMS];
        let (out_offsets, out_targets, in_offsets, in_sources, in_edge_ids) = graph.csr_parts();

        let mut header = [0u8; HEADER_BYTES as usize];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(num_topics as u32).to_le_bytes());
        header[16..24].copy_from_slice(&(graph.num_nodes() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(graph.num_edges() as u64).to_le_bytes());
        hasher.update(&header_words(&header));
        w.write_all(&header)?;

        for words in [
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
        ] {
            hasher.update(words);
            write_words(w, &mut buf, words)?;
        }
        // f32s travel as raw bits — the round trip is bit-exact.
        hasher.update_f32(edge_probs);
        for chunk in edge_probs.chunks(CHUNK_ELEMS) {
            for (dst, v) in buf.chunks_exact_mut(4).zip(chunk) {
                dst.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            w.write_all(&buf[..chunk.len() * 4])?;
        }

        w.write_all(&hasher.finalize().to_le_bytes())
    })
}

/// Loads a snapshot written by [`write_snapshot`]. All failure modes —
/// foreign files, version skew, truncation, bit rot — surface as typed
/// [`SnapshotError`]s so cache layers can fall back to regeneration.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let mut r = File::open(path)?;
    let actual_len = r.metadata()?.len();
    let mut hasher = WordHasher::new();

    let mut header = [0u8; HEADER_BYTES as usize];
    if actual_len < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(SnapshotError::Truncated {
            expected: HEADER_BYTES + CHECKSUM_BYTES,
            actual: actual_len,
        });
    }
    r.read_exact(&mut header)?;
    if header[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let k = u32::from_le_bytes(header[12..16].try_into().unwrap());
    let n = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let m = u64::from_le_bytes(header[24..32].try_into().unwrap());
    if k == 0 || k > MAX_TOPICS {
        return Err(SnapshotError::Malformed(format!("topic count {k}")));
    }
    if n >= u32::MAX as u64 || m > u32::MAX as u64 {
        return Err(SnapshotError::Malformed(format!(
            "graph shape out of u32 id space: n={n} m={m}"
        )));
    }
    // Length check before any payload allocation: a truncated or padded
    // file is rejected here, so `read_exact` below cannot hit EOF and the
    // big allocations are always backed by real bytes.
    let expected = expected_len(n, m, k as u64);
    if actual_len != expected {
        return Err(SnapshotError::Truncated {
            expected,
            actual: actual_len,
        });
    }
    hasher.update(&header_words(&header));

    let (n, m, k) = (n as usize, m as usize, k as usize);
    let mut buf = vec![0u8; 4 * CHUNK_ELEMS];
    let out_offsets = read_words(&mut r, &mut hasher, &mut buf, n + 1)?;
    let out_targets = read_words(&mut r, &mut hasher, &mut buf, m)?;
    let in_offsets = read_words(&mut r, &mut hasher, &mut buf, n + 1)?;
    let in_sources = read_words(&mut r, &mut hasher, &mut buf, m)?;
    let in_edge_ids = read_words(&mut r, &mut hasher, &mut buf, m)?;
    let prob_words = read_words(&mut r, &mut hasher, &mut buf, m * k)?;
    drop(buf);
    // Same size and alignment — this `collect` reuses the allocation.
    let edge_probs: Vec<f32> = prob_words.into_iter().map(f32::from_bits).collect();

    let mut tail = [0u8; CHECKSUM_BYTES as usize];
    r.read_exact(&mut tail)?;
    let stored = u64::from_le_bytes(tail);
    let computed = hasher.finalize();
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    // The checksum proves the arrays are what the writer wrote, not that
    // they form a graph: every id is range-checked before anything can
    // index with it.
    let graph = DiGraph::from_csr_parts(
        out_offsets,
        out_targets,
        in_offsets,
        in_sources,
        in_edge_ids,
    )
    .map_err(SnapshotError::Malformed)?;
    Ok(Snapshot {
        graph,
        num_topics: k,
        edge_probs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tirm_snapshot_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> (DiGraph, usize, Vec<f32>) {
        let g = generators::preferential_attachment(200, 4, 0.25, 9);
        let k = 3;
        let probs: Vec<f32> = (0..g.num_edges() * k)
            .map(|i| (i as f32 * 0.37).sin().abs().min(1.0))
            .collect();
        (g, k, probs)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (g, k, probs) = sample();
        let path = tmp_path("roundtrip.tirmsnap");
        write_snapshot(&path, &g, k, &probs).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.graph, g);
        assert_eq!(snap.num_topics, k);
        assert_eq!(
            snap.edge_probs
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>(),
            probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "floats must survive as raw bits"
        );
        snap.graph.validate().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_is_rejected_not_panicked() {
        let path = tmp_path("foreign.tirmsnap");
        std::fs::write(&path, b"definitely not a snapshot, but long enough to read").unwrap();
        assert!(matches!(read_snapshot(&path), Err(SnapshotError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected_not_panicked() {
        let (g, k, probs) = sample();
        let path = tmp_path("truncated.tirmsnap");
        write_snapshot(&path, &g, k, &probs).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0usize, 7, 31, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            match read_snapshot(&path) {
                Err(SnapshotError::Truncated { expected, actual }) => {
                    assert_eq!(actual, keep as u64);
                    assert!(expected > actual);
                }
                other => panic!("{keep}-byte prefix: expected Truncated, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_bit_fails_the_checksum() {
        let (g, k, probs) = sample();
        let path = tmp_path("bitrot.tirmsnap");
        write_snapshot(&path, &g, k, &probs).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_rejected() {
        let (g, k, probs) = sample();
        let path = tmp_path("version.tirmsnap");
        write_snapshot(&path, &g, k, &probs).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path) {
            Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, FORMAT_VERSION + 1),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absurd_header_shape_is_malformed() {
        let (g, k, probs) = sample();
        let path = tmp_path("shape.tirmsnap");
        write_snapshot(&path, &g, k, &probs).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12..16].copy_from_slice(&0u32.to_le_bytes()); // K = 0
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp_path("never_written.tirmsnap");
        assert!(matches!(read_snapshot(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn write_is_atomic_no_tmp_left_behind() {
        let (g, k, probs) = sample();
        let path = tmp_path("atomic.tirmsnap");
        write_snapshot(&path, &g, k, &probs).unwrap();
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("atomic.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file left behind: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomic_commits_or_leaves_previous_content() {
        let path = tmp_path("atomic_bytes.txt");
        // Creates parent dirs and commits.
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Overwrite is all-or-nothing: success replaces…
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // …a failing fill leaves the previous content and no temp file.
        let err = write_atomic_with(&path, |w| {
            w.write_all(b"half-written")?;
            Err(io::Error::other("simulated SIGINT"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("atomic_bytes.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file left behind: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_display_useful_messages() {
        let e = SnapshotError::Truncated {
            expected: 100,
            actual: 7,
        };
        assert!(e.to_string().contains("100"));
        let e = SnapshotError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("mismatch"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    }
}
