//! The durability layer: a segmented write-ahead log of admitted
//! mutations plus allocator checkpoints, and the recovery scan that
//! rebuilds a server from "newest usable checkpoint + log tail".
//!
//! # Log format
//!
//! The log lives in one directory (the server's `state_dir`) holding
//! two kinds of files:
//!
//! * **Segments** `wal-{start_seq:020}.seg` — a 20-byte header (magic
//!   `TIRMWAL0`, format version, the sequence number of the segment's
//!   first frame) followed by frames: a 4-byte little-endian length
//!   prefix and that many bytes of event JSON — exactly the object
//!   [`tirm_workloads::events::event_json_fields`] produces, i.e. the
//!   same codec as wire mutations and event-log lines. Frame *n* of a
//!   segment starting at `s` has sequence number `s + n`; sequence
//!   numbers are positional, never stored per frame.
//! * **Checkpoints** `ckpt-{wal_seq:020}.ck` — a full
//!   [`OnlineAllocator`] image through the checksummed word container
//!   ([`tirm_online::CHECKPOINT_MAGIC`]), covering every mutation with
//!   sequence number `< wal_seq`.
//!
//! The **WAL sequence number** counts *admitted* mutations — everything
//! the writer dequeues, in admission order, including mutations the
//! allocator will reject (`DuplicateAd` etc.): rejection is
//! deterministic, so logging before applying keeps replay exact without
//! the writer having to know the outcome first. Read requests are never
//! logged.
//!
//! # Write path (group commit)
//!
//! The writer appends a batch of frames with [`Wal::append`], calls
//! [`Wal::sync`] **once** (flush + `fdatasync`), and only then applies
//! the batch to the allocator. A crash can therefore lose un-acked
//! tail work but never applied work: anything the allocator saw is on
//! disk first. Segments rotate after `segment_events` frames; sealed
//! segments are immutable and become deletable once a checkpoint
//! covers them ([`Wal::prune`]).
//!
//! # Recovery
//!
//! [`recover`] picks the newest checkpoint that passes its checksum
//! (falling back to the previous one — two are retained — with a typed
//! [`RecoveryWarning::BadCheckpoint`], and to a cold allocator when
//! none is usable), then replays every frame with sequence number at
//! or past the checkpoint's cover point. A torn final frame — the
//! signature of a crash mid-append — ends the log with a
//! [`RecoveryWarning::TornFrame`], never a panic; the restarted server
//! opens a fresh segment at the recovered sequence number, so the torn
//! bytes are shadowed by construction (the next segment's start equals
//! the recovery cursor and the scan continues through it).
//!
//! # Replication reads and fencing
//!
//! [`read_frames`] is the leader-side read path of WAL shipping: it
//! serves frame bodies at or past a follower's subscription anchor
//! straight from the segment files, clamped to the caller-supplied
//! durable frontier (the write path fsyncs before the frontier
//! advances, so everything below it is stable on disk even in the open
//! segment). An anchor inside a pruned segment is the typed
//! [`ReplicaBatch::Pruned`] outcome — the follower bootstraps from the
//! newest checkpoint instead; it is **not** the gap error, which stays
//! reserved for a segment missing from the middle of the retained
//! range. The **fencing epoch** ([`read_fencing_epoch`] /
//! [`bump_fencing_epoch`]) is a monotonic counter stored next to the
//! log; promotion bumps it, every replication response carries it, and
//! followers drop frames from any epoch older than the newest they
//! have seen — a deposed leader's stale segments can never be applied.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use tirm_graph::DiGraph;
use tirm_obs::flight::{self, Stage};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_topics::TopicEdgeProbs;
use tirm_wire::Request;
use tirm_workloads::events::event_json_fields;

/// First 8 bytes of every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"TIRMWAL0";
/// Segment format version (bumped on any layout change).
pub const WAL_VERSION: u32 = 1;
/// Segment header: magic (8) + version (4) + start sequence number (8).
const WAL_HEADER_BYTES: usize = 20;
/// Hard cap on one frame's body — a length prefix beyond this is
/// corruption, not an allocation request (mirrors the wire cap).
const MAX_WAL_FRAME_BYTES: u32 = 16 << 20;
/// Checkpoints retained on disk: the newest plus one fallback, so a
/// checkpoint that fails its checksum on restart costs a longer replay,
/// not the state.
pub const KEEP_CHECKPOINTS: usize = 2;

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.seg"))
}

fn checkpoint_name(wal_seq: u64) -> String {
    format!("ckpt-{wal_seq:020}.ck")
}

/// Parses `name` as one of our durable files; `prefix`/`suffix` select
/// the kind. The zero-padded fixed-width numbers make lexicographic
/// directory order equal numeric order, but we parse and sort
/// explicitly anyway.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse::<u64>()
        .ok()
}

/// All files of one kind in `dir`, sorted ascending by sequence number.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(seq) = entry
            .file_name()
            .to_str()
            .and_then(|n| parse_numbered(n, prefix, suffix))
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(out)
}

/// Segments in `dir`, ascending by start sequence.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "wal-", ".seg")
}

/// Checkpoints in `dir`, ascending by covered sequence.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "ckpt-", ".ck")
}

/// Makes `dir`'s entry list durable — called after creating or renaming
/// files whose *existence* recovery depends on. Directory fsync is a
/// no-op error on filesystems that don't support it; that's fine, those
/// also don't need it.
fn sync_dir(dir: &Path) -> io::Result<()> {
    let _ = File::open(dir)?.sync_all();
    Ok(())
}

/// Replaces `dir/name` atomically: the content goes to a temp file,
/// is fsynced, renamed into place, and the rename made durable — a
/// crash at any point leaves either the old file or the new one, never
/// a half-written file under a valid name.
fn write_atomically(
    dir: &Path,
    name: &str,
    content: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        content(&mut f)?;
        f.sync_all()?;
        fs::rename(&tmp, &path)?;
        sync_dir(dir)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result.map(|()| path)
}

/// The append side of the write-ahead log: owned by the writer thread,
/// one open segment at a time.
pub struct Wal {
    dir: PathBuf,
    segment_events: u64,
    file: BufWriter<File>,
    /// Next sequence number to assign.
    seq: u64,
    /// First sequence number of the open segment.
    segment_start: u64,
    /// Frames appended since the last [`sync`](Self::sync).
    unsynced: u64,
}

impl Wal {
    /// Opens the log for appending at `start_seq` — always a **new**
    /// segment, never an append to an old one (recovery may have
    /// dropped a torn tail; reopening the old segment could interleave
    /// fresh frames with garbage). If a segment file with this exact
    /// start exists it contributed zero frames to recovery (empty or
    /// fully torn) and is truncated.
    pub fn open(dir: impl Into<PathBuf>, start_seq: u64, segment_events: u64) -> io::Result<Wal> {
        assert!(segment_events >= 1, "segments must hold at least a frame");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let file = Self::create_segment(&dir, start_seq)?;
        Ok(Wal {
            dir,
            segment_events,
            file,
            seq: start_seq,
            segment_start: start_seq,
            unsynced: 0,
        })
    }

    fn create_segment(dir: &Path, start_seq: u64) -> io::Result<BufWriter<File>> {
        let mut file =
            BufWriter::with_capacity(1 << 16, File::create(segment_path(dir, start_seq))?);
        file.write_all(WAL_MAGIC)?;
        file.write_all(&WAL_VERSION.to_le_bytes())?;
        file.write_all(&start_seq.to_le_bytes())?;
        // The header (and the dirent) must be durable before any frame
        // in this segment is acked, and before the predecessor segment
        // becomes prunable.
        file.flush()?;
        file.get_ref().sync_all()?;
        sync_dir(dir)?;
        Ok(file)
    }

    /// Next sequence number to be assigned (equivalently: frames logged
    /// so far over the log's whole life).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Appends one mutation frame, rotating to a new segment when the
    /// open one is full. Returns the frame's sequence number. The frame
    /// is buffered — it is *not* durable until [`sync`](Self::sync).
    pub fn append(&mut self, ev: &OnlineEvent) -> io::Result<u64> {
        let t0 = std::time::Instant::now();
        let start_ns = flight::now_ns();
        if self.seq - self.segment_start >= self.segment_events {
            self.rotate()?;
        }
        let body = format!("{{{}}}", event_json_fields(ev));
        debug_assert!(body.len() <= MAX_WAL_FRAME_BYTES as usize);
        self.file.write_all(&(body.len() as u32).to_le_bytes())?;
        self.file.write_all(body.as_bytes())?;
        let assigned = self.seq;
        self.seq += 1;
        self.unsynced += 1;
        // The append names the frame's position, so the trace id
        // (position + 1) is known here without any plumbing.
        let trace = assigned + 1;
        flight::record_since(trace, Stage::WalAppend, start_ns);
        tirm_obs::registry::WAL_APPEND_LATENCY_NS
            .record_traced(t0.elapsed().as_nanos() as u64, trace);
        Ok(assigned)
    }

    /// Group commit: one flush + `fdatasync` covering every frame
    /// appended since the last call. The writer calls this once per
    /// drained batch, *before* applying the batch to the allocator.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let batch = self.unsynced;
        let t0 = std::time::Instant::now();
        let start_ns = flight::now_ns();
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.unsynced = 0;
        let elapsed = t0.elapsed();
        let end_ns = flight::now_ns();
        // One group commit covers frames at positions
        // [seq - batch, seq): each of their timelines gets the shared
        // fsync span. The exemplar is pinned to the newest frame.
        for trace in (self.seq - batch + 1)..=self.seq {
            flight::record(trace, Stage::Fsync, start_ns, end_ns);
        }
        tirm_obs::registry::WAL_FSYNC_LATENCY_NS.record_traced(elapsed.as_nanos() as u64, self.seq);
        tirm_obs::registry::WAL_BATCH_EVENTS.record(batch);
        Ok(())
    }

    /// Seals the open segment (making its tail durable) and starts the
    /// next one at the current sequence number.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.file = Self::create_segment(&self.dir, self.seq)?;
        self.segment_start = self.seq;
        Ok(())
    }

    /// Deletes sealed segments every frame of which is covered by a
    /// checkpoint at `covered_seq` (i.e. the *next* segment starts at
    /// or below it). The open segment is never deleted. Returns how
    /// many segments were removed.
    pub fn prune(&mut self, covered_seq: u64) -> io::Result<usize> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for window in segments.windows(2) {
            let (start, ref path) = window[0];
            let (next_start, _) = window[1];
            if start < self.segment_start && next_start <= covered_seq {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

/// File holding the fencing epoch (ASCII decimal). Lives next to the
/// segments so promotion and the log travel together.
const FENCING_EPOCH_FILE: &str = "fencing.epoch";

/// Reads the fencing epoch persisted in `dir` (0 when none was ever
/// written — a log that has never seen a hand-off).
pub fn read_fencing_epoch(dir: &Path) -> io::Result<u64> {
    match fs::read_to_string(dir.join(FENCING_EPOCH_FILE)) {
        Ok(text) => text.trim().parse::<u64>().map_err(|_| {
            io::Error::new(
                ErrorKind::InvalidData,
                format!("corrupt fencing epoch file in {}", dir.display()),
            )
        }),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

/// Persists `epoch` as the fencing epoch of `dir` (atomically, like
/// checkpoints — a crash mid-write leaves the old epoch).
pub fn write_fencing_epoch(dir: &Path, epoch: u64) -> io::Result<()> {
    write_atomically(dir, FENCING_EPOCH_FILE, |f| writeln!(f, "{epoch}")).map(drop)
}

/// Atomically advances the fencing epoch in `dir` by one and returns
/// the new value — the promotion step that fences out a deposed
/// leader: its replication responses now carry an older epoch and
/// followers refuse them.
pub fn bump_fencing_epoch(dir: &Path) -> io::Result<u64> {
    let next = read_fencing_epoch(dir)? + 1;
    write_fencing_epoch(dir, next)?;
    Ok(next)
}

/// The newest checkpoint on disk, if any — what a pruned-anchor
/// bootstrap serves (its cover point always falls inside the retained
/// segment range, because prune only deletes what a checkpoint
/// covers).
pub fn newest_checkpoint(dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    Ok(list_checkpoints(dir)?.pop())
}

/// Installs a checkpoint downloaded from a leader under the canonical
/// `ckpt-{wal_seq}.ck` name, as atomically as [`write_checkpoint`]
/// writes its own. The payload is validated by [`recover`]'s
/// checksummed restore, not here.
pub fn install_checkpoint(dir: &Path, wal_seq: u64, bytes: &[u8]) -> io::Result<()> {
    write_atomically(dir, &checkpoint_name(wal_seq), |f| f.write_all(bytes)).map(drop)
}

/// One answer from the leader-side replication read path.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicaBatch {
    /// Frame bodies for sequence numbers `from_seq ..
    /// from_seq + bodies.len()`, in order. Empty ⇒ the follower is
    /// caught up to the frontier.
    Frames {
        /// Raw event-JSON bodies (the wire/WAL codec).
        bodies: Vec<String>,
    },
    /// The anchor precedes the oldest retained segment: those frames
    /// were pruned after a checkpoint, so the caller must bootstrap
    /// from a checkpoint instead. Not a gap error — pruning is the
    /// log working as designed.
    Pruned {
        /// Start sequence of the oldest segment still on disk.
        oldest_start: u64,
    },
}

/// Reads up to `max_frames` frame bodies with sequence numbers in
/// `[from_seq, frontier)` from the segments in `dir` — the leader-side
/// replication read. Safe concurrently with the writer appending:
/// every frame below the durable `frontier` was fsynced before the
/// frontier advanced, sealed segments are immutable, and the open
/// segment is append-only; a torn or unsynced tail simply ends the
/// scan early (those frames are past the frontier by the write-path
/// invariant, and the next poll re-reads them once durable).
pub fn read_frames(
    dir: &Path,
    from_seq: u64,
    max_frames: usize,
    frontier: u64,
) -> io::Result<ReplicaBatch> {
    // A caught-up read — every idle replication poll — has nothing to
    // look up: answer it before listing the directory.
    if from_seq >= frontier || max_frames == 0 {
        return Ok(ReplicaBatch::Frames { bodies: Vec::new() });
    }
    let segments = list_segments(dir)?;
    // The segment holding `from_seq`: greatest start at or below it.
    let Some(first) = segments.iter().rposition(|&(start, _)| start <= from_seq) else {
        // Every retained segment starts past the anchor (or there are
        // none while the frontier says frames exist): pruned.
        let oldest_start = segments.first().map_or(frontier, |&(s, _)| s);
        return Ok(ReplicaBatch::Pruned { oldest_start });
    };

    let mut bodies = Vec::new();
    let mut cursor = from_seq;
    for (i, (start, path)) in segments.iter().enumerate().skip(first) {
        if *start > cursor {
            return Err(invalid_data(
                path,
                format_args!(
                    "gap in the write-ahead log: this segment starts at seq {start} \
                     but the replication scan reached only seq {cursor}"
                ),
            ));
        }
        // A sealed predecessor of a live successor may end in a torn
        // tail (crash artifact): its missing frames were re-logged at
        // the successor's start, which recovery guarantees equals the
        // cursor — so only take this segment's frames up to where the
        // next segment takes over.
        let takeover = segments.get(i + 1).map(|&(s, _)| s);
        let mut scan = SegmentScan::open(path, *start)?;
        while bodies.len() < max_frames && cursor < frontier {
            match scan.next_frame()? {
                // The successor segment owns it from here.
                Scan::Frame { seq, .. } if takeover.is_some_and(|t| seq >= t) => break,
                Scan::Frame { seq, body } if seq >= cursor => {
                    debug_assert_eq!(seq, cursor, "frames are positionally dense");
                    bodies.push(String::from_utf8(body).map_err(|_| {
                        invalid_data(path, "non-UTF-8 frame below the durable frontier")
                    })?);
                    cursor = seq + 1;
                }
                Scan::Frame { .. } => {}
                // Clean end or a torn/corrupt tail: replication only
                // serves durable frames, and below the frontier those
                // artifacts cannot exist — nothing durable lies past it.
                Scan::End(_) => break,
            }
        }
        if bodies.len() >= max_frames || cursor >= frontier {
            break;
        }
    }
    Ok(ReplicaBatch::Frames { bodies })
}

/// Writes a checkpoint covering sequence numbers `< wal_seq` and
/// retires all but the newest [`KEEP_CHECKPOINTS`] checkpoint files.
/// The image is written to a temp file, fsynced, and renamed into
/// place — a crash mid-checkpoint leaves the previous one intact.
pub fn write_checkpoint(
    dir: &Path,
    allocator: &mut OnlineAllocator<'_>,
    wal_seq: u64,
) -> io::Result<PathBuf> {
    let t0 = std::time::Instant::now();
    let mut bytes = 0;
    let path = write_atomically(dir, &checkpoint_name(wal_seq), |f| {
        let mut w = BufWriter::with_capacity(1 << 20, f);
        allocator.checkpoint(wal_seq, &mut w)?;
        w.flush()?;
        bytes = w.get_ref().metadata()?.len();
        Ok(())
    })?;
    let checkpoints = list_checkpoints(dir)?;
    if checkpoints.len() > KEEP_CHECKPOINTS {
        for (_, old) in &checkpoints[..checkpoints.len() - KEEP_CHECKPOINTS] {
            fs::remove_file(old)?;
        }
        sync_dir(dir)?;
    }
    tirm_obs::registry::CHECKPOINT_WALL_NS.record_duration(t0.elapsed());
    tirm_obs::registry::CHECKPOINT_BYTES.set(bytes);
    Ok(path)
}

/// A non-fatal condition recovery handled by design: each variant names
/// what was found and what recovery did about it.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryWarning {
    /// The final frame of `segment` was cut short — a crash during an
    /// unsynced append. The frame was never acked as durable; recovery
    /// ends the log there.
    TornFrame {
        segment: PathBuf,
        /// Byte offset of the torn frame's length prefix.
        offset: u64,
    },
    /// A frame was present in full but didn't decode as an event — bit
    /// rot or a foreign file. Replay stops at the frame before it.
    CorruptFrame {
        segment: PathBuf,
        seq: u64,
        why: String,
    },
    /// A checkpoint failed to load (checksum mismatch, truncation,
    /// config skew); recovery fell back to an older checkpoint or a
    /// cold start, at the cost of a longer replay.
    BadCheckpoint { path: PathBuf, why: String },
    /// No checkpoint and no segments: a first boot, served cold.
    NothingToRecover,
}

impl fmt::Display for RecoveryWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryWarning::TornFrame { segment, offset } => write!(
                f,
                "torn final frame in {} at byte {offset} (crash mid-append); log ends there",
                segment.display()
            ),
            RecoveryWarning::CorruptFrame { segment, seq, why } => write!(
                f,
                "corrupt frame (seq {seq}) in {}: {why}; replay stops before it",
                segment.display()
            ),
            RecoveryWarning::BadCheckpoint { path, why } => write!(
                f,
                "unusable checkpoint {}: {why}; falling back (longer replay)",
                path.display()
            ),
            RecoveryWarning::NothingToRecover => {
                write!(f, "no checkpoint and no WAL segments; cold start")
            }
        }
    }
}

/// What [`recover`] found and rebuilt.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The recovered sequence number — the restarted WAL opens here.
    pub wal_seq: u64,
    /// Cover point of the checkpoint used (`None` ⇒ cold start).
    pub checkpoint_seq: Option<u64>,
    /// Frames replayed through the allocator (past the checkpoint).
    pub replayed: u64,
    /// Replayed frames the allocator rejected — mutations that were
    /// logged and deterministically re-rejected, exactly as live.
    pub rejected_on_replay: u64,
    /// Everything non-fatal the scan encountered, in order.
    pub warnings: Vec<RecoveryWarning>,
}

/// How far a read got before the file ended.
enum Fill {
    /// The whole buffer was read.
    Whole,
    /// Clean EOF: the file ended before the first byte.
    Empty,
    /// The file ended mid-buffer — the shape of a torn write.
    Partial,
}

/// Reads `buf.len()` bytes unless the file ends first; `Err` is a real
/// I/O failure, never an EOF.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(Fill::Empty),
            Ok(0) => return Ok(Fill::Partial),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Whole)
}

fn invalid_data(path: &Path, why: impl fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("{}: {why}", path.display()))
}

/// One step of a [`SegmentScan`].
enum Scan {
    /// The next whole frame and its (positional) sequence number.
    Frame { seq: u64, body: Vec<u8> },
    /// The segment holds no further frame: `None` at a clean frame
    /// boundary, otherwise the torn or corrupt tail, typed as the
    /// warning recovery reports for it.
    End(Option<RecoveryWarning>),
}

/// The one reader of the segment format: validates the header on open,
/// then yields whole frames in sequence order until a typed end.
/// [`recover`] replays what it yields; [`read_frames`] ships it.
struct SegmentScan<'a> {
    path: &'a Path,
    r: BufReader<File>,
    /// Sequence number of the next frame.
    seq: u64,
    /// Byte offset of the next frame's length prefix; 0 when the file
    /// ends inside its header.
    offset: u64,
}

impl<'a> SegmentScan<'a> {
    /// Opens the segment the directory listing names `start`. A foreign
    /// file, another format version or a header that disagrees with the
    /// file name is `InvalidData`; a file shorter than its header is not
    /// an error — a crash between segment creation and its first sync
    /// leaves one — and scans as a tail torn at byte 0.
    fn open(path: &'a Path, start: u64) -> io::Result<SegmentScan<'a>> {
        let mut r = BufReader::with_capacity(1 << 16, File::open(path)?);
        let mut header = [0u8; WAL_HEADER_BYTES];
        let mut offset = 0;
        if let Fill::Whole = fill(&mut r, &mut header)? {
            if &header[..8] != WAL_MAGIC {
                return Err(invalid_data(path, "not a WAL segment (bad magic)"));
            }
            let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
            if version != WAL_VERSION {
                return Err(invalid_data(
                    path,
                    format_args!(
                        "unsupported WAL version {version} (this build reads {WAL_VERSION})"
                    ),
                ));
            }
            let header_start = u64::from_le_bytes(header[12..20].try_into().unwrap());
            if header_start != start {
                return Err(invalid_data(
                    path,
                    format_args!("header says start seq {header_start}, file name says {start}"),
                ));
            }
            offset = WAL_HEADER_BYTES as u64;
        }
        Ok(SegmentScan {
            path,
            r,
            seq: start,
            offset,
        })
    }

    fn torn(&self) -> Scan {
        Scan::End(Some(RecoveryWarning::TornFrame {
            segment: self.path.to_path_buf(),
            offset: self.offset,
        }))
    }

    fn next_frame(&mut self) -> io::Result<Scan> {
        if self.offset == 0 {
            return Ok(self.torn());
        }
        let mut len_buf = [0u8; 4];
        match fill(&mut self.r, &mut len_buf)? {
            Fill::Whole => {}
            Fill::Empty => return Ok(Scan::End(None)),
            Fill::Partial => return Ok(self.torn()),
        }
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_WAL_FRAME_BYTES {
            return Ok(Scan::End(Some(RecoveryWarning::CorruptFrame {
                segment: self.path.to_path_buf(),
                seq: self.seq,
                why: format!("frame length {len} out of range"),
            })));
        }
        let mut body = vec![0u8; len as usize];
        let Fill::Whole = fill(&mut self.r, &mut body)? else {
            return Ok(self.torn());
        };
        let seq = self.seq;
        self.seq += 1;
        self.offset += 4 + len as u64;
        Ok(Scan::Frame { seq, body })
    }
}

/// Rebuilds an allocator from the durable state in `dir`: newest usable
/// checkpoint, then a replay of every frame with sequence number at or
/// past its cover point. Infallible against the crash artifacts the
/// write path can produce (torn tails, a half-written checkpoint) —
/// those become [`RecoveryWarning`]s; an `Err` means the directory
/// itself is unreadable or the log has a *gap* (a segment missing from
/// the middle), which no replay can paper over.
pub fn recover<'g>(
    dir: &Path,
    graph: &'g DiGraph,
    topic_probs: &'g TopicEdgeProbs,
    cfg: &OnlineConfig,
) -> io::Result<(OnlineAllocator<'g>, RecoveryReport)> {
    let mut report = RecoveryReport::default();

    // Newest checkpoint that loads; older ones are the fallback.
    let mut allocator = None;
    for (seq, path) in list_checkpoints(dir)?.into_iter().rev() {
        let mut r = BufReader::with_capacity(1 << 20, File::open(&path)?);
        match OnlineAllocator::restore(graph, topic_probs, cfg.clone(), &mut r) {
            Ok((a, ckpt_seq)) => {
                debug_assert_eq!(ckpt_seq, seq, "checkpoint file name vs payload");
                report.checkpoint_seq = Some(ckpt_seq);
                allocator = Some(a);
                break;
            }
            Err(e) => report.warnings.push(RecoveryWarning::BadCheckpoint {
                path,
                why: e.to_string(),
            }),
        }
    }
    let mut allocator =
        allocator.unwrap_or_else(|| OnlineAllocator::new(graph, topic_probs, cfg.clone()));
    let mut cursor = report.checkpoint_seq.unwrap_or(0);

    let segments = list_segments(dir)?;
    if report.checkpoint_seq.is_none() && segments.is_empty() {
        report.warnings.push(RecoveryWarning::NothingToRecover);
    }
    for (start, path) in &segments {
        // Segments wholly covered by the checkpoint: skip without
        // opening (prune may simply not have run yet).
        let next_start = segments
            .iter()
            .map(|&(s, _)| s)
            .filter(|&s| s > *start)
            .min();
        if next_start.is_some_and(|s| s <= cursor) {
            continue;
        }
        if *start > cursor {
            return Err(invalid_data(
                path,
                format_args!(
                    "gap in the write-ahead log: this segment starts at seq {start} \
                     but recovery reached only seq {cursor}"
                ),
            ));
        }
        // A torn or corrupt tail ends this segment; a successor is only
        // consistent if it starts exactly at the cursor (the
        // restart-after-crash shape) — the gap check above enforces that
        // on the next iteration. The frames before the end are applied as
        // one batch, as the writer applies what it drains.
        let mut scan = SegmentScan::open(path, *start)?;
        let mut batch = Vec::new();
        loop {
            match scan.next_frame()? {
                Scan::Frame { seq, body } if seq >= cursor => match decode_frame(&body) {
                    Ok(ev) => {
                        batch.push(ev);
                        cursor = seq + 1;
                    }
                    Err(why) => {
                        report.warnings.push(RecoveryWarning::CorruptFrame {
                            segment: path.clone(),
                            seq,
                            why,
                        });
                        break;
                    }
                },
                // Covered by the checkpoint.
                Scan::Frame { .. } => {}
                Scan::End(warning) => {
                    report.warnings.extend(warning);
                    break;
                }
            }
        }
        let outcomes = allocator.apply(&batch);
        report.rejected_on_replay += outcomes.iter().filter(|o| o.is_err()).count() as u64;
        report.replayed += batch.len() as u64;
    }

    report.wal_seq = cursor;
    Ok((allocator, report))
}

/// A logged or shipped frame body is a mutation request; anything else
/// the wire codec can read is not an event.
pub(crate) fn decode_frame(body: &[u8]) -> Result<OnlineEvent, String> {
    match Request::decode(body)? {
        Request::Mutate(ev) => Ok(ev),
        other => Err(format!("not an event: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use tirm_core::TirmOptions;
    use tirm_graph::generators;
    use tirm_topics::{genprob, TopicDist};

    fn setup(nodes: usize, seed: u64) -> (DiGraph, TopicEdgeProbs) {
        let graph = generators::preferential_attachment(nodes, 3, 0.3, seed);
        let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
        (graph, probs)
    }

    fn config(seed: u64) -> OnlineConfig {
        OnlineConfig {
            tirm: TirmOptions {
                eps: 0.45,
                seed,
                max_theta_per_ad: Some(600),
                ..TirmOptions::default()
            },
            kappa: 2,
            ..OnlineConfig::default()
        }
    }

    fn arrival(id: u64, budget: f64, topic: usize) -> OnlineEvent {
        OnlineEvent::AdArrival {
            id,
            budget,
            cpe: 1.0,
            topics: TopicDist::single(2, topic),
            ctp: 0.5,
        }
    }

    fn events() -> Vec<OnlineEvent> {
        vec![
            arrival(1, 5.0, 0),
            arrival(2, 4.0, 1),
            OnlineEvent::BudgetTopUp { id: 1, amount: 2.0 },
            arrival(2, 9.0, 0), // duplicate: rejected, still logged
            arrival(3, 6.0, 1),
            OnlineEvent::AdDeparture { id: 2 },
        ]
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tirm_wal_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Oracle: the allocator an uninterrupted run would hold.
    fn oracle<'g>(
        graph: &'g DiGraph,
        probs: &'g TopicEdgeProbs,
        cfg: &OnlineConfig,
        events: &[OnlineEvent],
    ) -> OnlineAllocator<'g> {
        let mut a = OnlineAllocator::new(graph, probs, cfg.clone());
        for ev in events {
            let _ = a.process(ev);
        }
        a
    }

    #[test]
    fn log_then_recover_replays_everything_including_rejections() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("basic");
        let evs = events();

        // Tiny segments force rotation mid-stream.
        let mut wal = Wal::open(&dir, 0, 2).unwrap();
        for ev in &evs {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.seq(), evs.len() as u64);
        assert!(list_segments(&dir).unwrap().len() >= 3);
        drop(wal);

        let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
        assert_eq!(report.wal_seq, evs.len() as u64);
        assert_eq!(report.replayed, evs.len() as u64);
        assert_eq!(report.rejected_on_replay, 1);
        assert_eq!(report.checkpoint_seq, None);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);

        let want = oracle(&graph, &probs, &cfg, &evs);
        assert!(recovered.snapshot().same_allocation(&want.snapshot()));
    }

    #[test]
    fn an_admitted_frame_is_readable_once_logged() {
        // `append` writes the event's own encoding, not the peer's bytes,
        // and that turns a point-mass `weights` vector into the compact
        // form. The largest vector a peer gets past the decoder has to
        // survive that, or one frame ends replay for all that follow it.
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("rewritten");
        let frame = |k: usize| {
            format!(
                "{{\"type\":\"arrival\",\"id\":9,\"budget\":1,\"cpe\":1,\
                 \"weights\":[1{}],\"ctp\":1}}",
                ",0".repeat(k - 1)
            )
        };
        assert!(decode_frame(frame((1 << 16) + 1).as_bytes()).is_err());
        let evs = [
            decode_frame(frame(1 << 16).as_bytes()).unwrap(), // wrong k: rejected on apply
            arrival(1, 5.0, 0),
        ];

        let mut wal = Wal::open(&dir, 0, 1_000).unwrap();
        for ev in &evs {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert_eq!((report.wal_seq, report.rejected_on_replay), (2, 1));
        let want = oracle(&graph, &probs, &cfg, &evs);
        assert!(recovered.snapshot().same_allocation(&want.snapshot()));
    }

    #[test]
    fn torn_final_frame_is_a_typed_warning_not_a_panic() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("torn");
        let evs = events();

        let mut wal = Wal::open(&dir, 0, 1_000).unwrap();
        for ev in &evs {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Simulate a crash mid-append: a length prefix promising more
        // bytes than the file holds.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&1234u32.to_le_bytes()).unwrap();
        f.write_all(b"{\"type\":\"ad_arr").unwrap();
        drop(f);

        let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
        assert_eq!(report.replayed, evs.len() as u64);
        assert_eq!(report.wal_seq, evs.len() as u64);
        assert_eq!(
            report.warnings.len(),
            1,
            "exactly the torn-frame warning: {:?}",
            report.warnings
        );
        assert!(matches!(
            report.warnings[0],
            RecoveryWarning::TornFrame { .. }
        ));

        let want = oracle(&graph, &probs, &cfg, &evs);
        assert!(recovered.snapshot().same_allocation(&want.snapshot()));

        // The restarted WAL opens a fresh segment at the recovered seq;
        // appending there and recovering again walks straight through
        // the torn bytes (the successor segment starts at the cursor).
        let mut wal = Wal::open(&dir, report.wal_seq, 1_000).unwrap();
        let extra = arrival(9, 3.0, 0);
        wal.append(&extra).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (recovered2, report2) = recover(&dir, &graph, &probs, &cfg).unwrap();
        assert_eq!(report2.wal_seq, evs.len() as u64 + 1);
        let mut evs2 = evs.clone();
        evs2.push(extra);
        let want2 = oracle(&graph, &probs, &cfg, &evs2);
        assert!(recovered2.snapshot().same_allocation(&want2.snapshot()));
    }

    #[test]
    fn bad_checkpoint_checksum_falls_back_to_the_previous_one() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("ckptfall");
        let evs = events();

        let mut wal = Wal::open(&dir, 0, 1_000).unwrap();
        let mut live = OnlineAllocator::new(&graph, &probs, cfg.clone());
        for (i, ev) in evs.iter().enumerate() {
            wal.append(ev).unwrap();
            wal.sync().unwrap();
            let _ = live.process(ev);
            // Checkpoint after events 3 and 5 — two files on disk.
            if i == 2 || i == 4 {
                write_checkpoint(&dir, &mut live, (i + 1) as u64).unwrap();
            }
        }
        drop(wal);
        assert_eq!(list_checkpoints(&dir).unwrap().len(), 2);

        // Flip a payload byte in the NEWEST checkpoint.
        let (_, newest) = list_checkpoints(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();

        let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
        // Fell back: older checkpoint covers 3 events, so 3 replayed
        // instead of 1.
        assert_eq!(report.checkpoint_seq, Some(3));
        assert_eq!(report.replayed, 3);
        assert_eq!(report.wal_seq, evs.len() as u64);
        assert!(
            matches!(&report.warnings[..], [RecoveryWarning::BadCheckpoint { path, .. }] if *path == newest),
            "{:?}",
            report.warnings
        );
        let want = oracle(&graph, &probs, &cfg, &evs);
        assert!(recovered.snapshot().same_allocation(&want.snapshot()));
    }

    #[test]
    fn both_checkpoints_bad_recovers_cold_from_the_full_log() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("ckptcold");
        let evs = events();

        let mut wal = Wal::open(&dir, 0, 1_000).unwrap();
        let mut live = OnlineAllocator::new(&graph, &probs, cfg.clone());
        for (i, ev) in evs.iter().enumerate() {
            wal.append(ev).unwrap();
            wal.sync().unwrap();
            let _ = live.process(ev);
            if i == 2 || i == 4 {
                write_checkpoint(&dir, &mut live, (i + 1) as u64).unwrap();
            }
        }
        drop(wal);
        for (_, path) in list_checkpoints(&dir).unwrap() {
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
        }

        let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.replayed, evs.len() as u64);
        assert_eq!(report.warnings.len(), 2);
        let want = oracle(&graph, &probs, &cfg, &evs);
        assert!(recovered.snapshot().same_allocation(&want.snapshot()));
    }

    #[test]
    fn empty_and_missing_state_dirs_recover_cold_with_a_typed_warning() {
        let (graph, probs) = setup(120, 5);
        let cfg = config(3);
        for dir in [fresh_dir("emptymissing"), {
            let d = fresh_dir("emptypresent");
            fs::create_dir_all(&d).unwrap();
            d
        }] {
            let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
            assert_eq!(report.wal_seq, 0);
            assert_eq!(report.replayed, 0);
            assert_eq!(report.warnings, vec![RecoveryWarning::NothingToRecover]);
            assert_eq!(recovered.snapshot().epoch, 0);
        }
    }

    #[test]
    fn checkpoint_plus_tail_equals_full_replay_and_prunes_covered_segments() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("tail");
        let evs = events();

        let mut wal = Wal::open(&dir, 0, 2).unwrap();
        let mut live = OnlineAllocator::new(&graph, &probs, cfg.clone());
        for (i, ev) in evs.iter().enumerate() {
            wal.append(ev).unwrap();
            wal.sync().unwrap();
            let _ = live.process(ev);
            if i == 3 {
                write_checkpoint(&dir, &mut live, (i + 1) as u64).unwrap();
                let removed = wal.prune((i + 1) as u64).unwrap();
                // Segment [0,2) is sealed and covered; [2,4) is also
                // covered but still the *open* segment (rotation is
                // lazy, at the next append), so it stays.
                assert_eq!(removed, 1);
            }
        }
        wal.sync().unwrap();
        drop(wal);

        let (recovered, report) = recover(&dir, &graph, &probs, &cfg).unwrap();
        assert_eq!(report.checkpoint_seq, Some(4));
        assert_eq!(report.replayed, 2);
        assert_eq!(report.wal_seq, evs.len() as u64);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        let want = oracle(&graph, &probs, &cfg, &evs);
        assert!(recovered.snapshot().same_allocation(&want.snapshot()));
        assert!(recovered.snapshot().same_allocation(&live.snapshot()));
    }

    /// Decodes a replication frame body back into an event.
    fn body_event(body: &str) -> OnlineEvent {
        decode_frame(body.as_bytes()).unwrap()
    }

    #[test]
    fn read_frames_serves_the_durable_range_and_respects_the_frontier() {
        let dir = fresh_dir("repl_read");
        let evs = events();

        // Tiny segments: the stream spans sealed segments and the open
        // one.
        let mut wal = Wal::open(&dir, 0, 2).unwrap();
        for ev in &evs {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();

        // Full range from seq 0.
        let batch = read_frames(&dir, 0, 100, wal.seq()).unwrap();
        let ReplicaBatch::Frames { bodies } = batch else {
            panic!("expected frames, got {batch:?}");
        };
        assert_eq!(bodies.len(), evs.len());
        for (body, want) in bodies.iter().zip(&evs) {
            assert_eq!(&body_event(body), want);
        }

        // Mid-log anchor.
        let ReplicaBatch::Frames { bodies } = read_frames(&dir, 3, 100, wal.seq()).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!(bodies.len(), evs.len() - 3);
        assert_eq!(&body_event(&bodies[0]), &evs[3]);

        // max_frames clamps the page.
        let ReplicaBatch::Frames { bodies } = read_frames(&dir, 1, 2, wal.seq()).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!(bodies.len(), 2);
        assert_eq!(&body_event(&bodies[0]), &evs[1]);

        // The frontier clamps what is served even though more frames
        // sit on disk (they are not yet acked durable to anyone).
        let ReplicaBatch::Frames { bodies } = read_frames(&dir, 0, 100, 4).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!(bodies.len(), 4);

        // Caught up: empty page, not an error.
        let ReplicaBatch::Frames { bodies } = read_frames(&dir, wal.seq(), 100, wal.seq()).unwrap()
        else {
            panic!("expected frames");
        };
        assert!(bodies.is_empty());
    }

    #[test]
    fn a_caught_up_read_does_not_touch_the_directory() {
        // `dir` names a regular file: listing it fails (`NotADirectory`),
        // so the empty page proves the read never got that far.
        let dir = fresh_dir("repl_caught_up");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("not-a-dir");
        fs::write(&file, b"").unwrap();
        assert!(
            list_segments(&file).is_err(),
            "the probe must be able to fail"
        );
        for (from_seq, max_frames, frontier) in [(7, 100, 7), (9, 100, 7), (0, 0, 7)] {
            let batch = read_frames(&file, from_seq, max_frames, frontier).unwrap();
            assert_eq!(batch, ReplicaBatch::Frames { bodies: Vec::new() });
        }
        // Below the frontier there is something to look up.
        assert!(read_frames(&file, 6, 100, 7).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_frames_anchor_inside_a_pruned_segment_is_typed_not_a_gap_error() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("repl_pruned");
        let evs = events();

        let mut wal = Wal::open(&dir, 0, 2).unwrap();
        let mut live = OnlineAllocator::new(&graph, &probs, cfg.clone());
        for (i, ev) in evs.iter().enumerate() {
            wal.append(ev).unwrap();
            wal.sync().unwrap();
            let _ = live.process(ev);
            if i == 3 {
                write_checkpoint(&dir, &mut live, (i + 1) as u64).unwrap();
                assert_eq!(wal.prune((i + 1) as u64).unwrap(), 1);
            }
        }
        wal.sync().unwrap();

        // Anchor 0 now falls before the oldest retained segment: the
        // typed bootstrap outcome, with the newest checkpoint covering
        // the re-subscription point.
        match read_frames(&dir, 0, 100, wal.seq()).unwrap() {
            ReplicaBatch::Pruned { oldest_start } => {
                assert_eq!(oldest_start, 2);
                let (ckpt_seq, _) = newest_checkpoint(&dir).unwrap().unwrap();
                assert!(
                    ckpt_seq >= oldest_start,
                    "checkpoint covers the pruned range"
                );
                // Re-subscribing at the checkpoint's cover point works.
                let ReplicaBatch::Frames { bodies } =
                    read_frames(&dir, ckpt_seq, 100, wal.seq()).unwrap()
                else {
                    panic!("resubscription failed");
                };
                assert_eq!(bodies.len(), evs.len() - ckpt_seq as usize);
            }
            other => panic!("expected the pruned outcome, got {other:?}"),
        }
    }

    #[test]
    fn read_frames_stops_cleanly_at_a_torn_open_segment_tail() {
        let dir = fresh_dir("repl_torn");
        let evs = events();

        let mut wal = Wal::open(&dir, 0, 1_000).unwrap();
        for ev in &evs {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();
        let frontier = wal.seq();
        drop(wal);

        // A torn append mid-stream: length prefix promising more bytes
        // than the file holds (the crash-mid-append artifact), beyond
        // the durable frontier.
        let (_, seg) = list_segments(&dir).unwrap().pop().unwrap();
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&9999u32.to_le_bytes()).unwrap();
        f.write_all(b"{\"type\":\"arr").unwrap();
        drop(f);

        // Every durable frame is served; the torn tail neither errors
        // nor leaks partial bytes.
        let ReplicaBatch::Frames { bodies } = read_frames(&dir, 0, 100, frontier).unwrap() else {
            panic!("expected frames");
        };
        assert_eq!(bodies.len(), evs.len());
        for (body, want) in bodies.iter().zip(&evs) {
            assert_eq!(&body_event(body), want);
        }
        // Even with an (incorrectly) advanced frontier the torn frame
        // is not served — the scan ends at the last whole frame.
        let ReplicaBatch::Frames { bodies } = read_frames(&dir, 0, 100, frontier + 1).unwrap()
        else {
            panic!("expected frames");
        };
        assert_eq!(bodies.len(), evs.len());
    }

    #[test]
    fn read_frames_gap_in_retained_range_is_still_a_hard_error() {
        let dir = fresh_dir("repl_gap");
        let mut wal = Wal::open(&dir, 0, 2).unwrap();
        for ev in &events() {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();
        let frontier = wal.seq();
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        fs::remove_file(&segments[1].1).unwrap();
        let err = read_frames(&dir, 0, 100, frontier).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains("gap"), "{err}");
    }

    /// Overwrites bytes at offset `at` of the first segment in `dir`.
    fn patch_header(dir: &Path, at: usize, bytes: &[u8]) {
        let (_, seg) = list_segments(dir).unwrap().remove(0);
        let mut raw = fs::read(&seg).unwrap();
        raw[at..at + bytes.len()].copy_from_slice(bytes);
        fs::write(&seg, raw).unwrap();
    }

    #[test]
    fn a_foreign_segment_header_is_invalid_data_for_recovery_and_replication_alike() {
        let (graph, probs) = setup(120, 5);
        let cfg = config(3);
        let patches: [(&str, usize, &[u8]); 3] = [
            ("bad magic", 0, b"NOTAWAL0"),
            (
                "unsupported WAL version",
                8,
                &(WAL_VERSION + 1).to_le_bytes(),
            ),
            ("header says start seq 7", 12, &7u64.to_le_bytes()),
        ];
        for (i, (why, at, bytes)) in patches.into_iter().enumerate() {
            let dir = fresh_dir(&format!("header_{i}"));
            let mut wal = Wal::open(&dir, 0, 1_000).unwrap();
            for ev in &events() {
                wal.append(ev).unwrap();
            }
            wal.sync().unwrap();
            let frontier = wal.seq();
            drop(wal);
            patch_header(&dir, at, bytes);

            let err = read_frames(&dir, 0, 100, frontier).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{why}");
            assert!(err.to_string().contains(why), "{err}");
            let Err(err) = recover(&dir, &graph, &probs, &cfg) else {
                panic!("{why}: recovery must refuse the segment");
            };
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{why}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }

    #[test]
    fn fencing_epoch_reads_zero_then_bumps_monotonically() {
        let dir = fresh_dir("fencing");
        assert_eq!(read_fencing_epoch(&dir).unwrap(), 0, "missing dir ⇒ 0");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_fencing_epoch(&dir).unwrap(), 0, "missing file ⇒ 0");
        assert_eq!(bump_fencing_epoch(&dir).unwrap(), 1);
        assert_eq!(bump_fencing_epoch(&dir).unwrap(), 2);
        assert_eq!(read_fencing_epoch(&dir).unwrap(), 2);
        write_fencing_epoch(&dir, 40).unwrap();
        assert_eq!(bump_fencing_epoch(&dir).unwrap(), 41);
        // Corruption is a typed error, not a silent epoch reset (a
        // reset would un-fence a deposed leader).
        fs::write(dir.join("fencing.epoch"), b"not a number").unwrap();
        assert!(read_fencing_epoch(&dir).is_err());
    }

    #[test]
    fn a_missing_middle_segment_is_a_hard_error_not_silent_data_loss() {
        let (graph, probs) = setup(300, 11);
        let cfg = config(3);
        let dir = fresh_dir("gap");

        let mut wal = Wal::open(&dir, 0, 2).unwrap();
        for ev in &events() {
            wal.append(ev).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Delete a middle segment without a covering checkpoint.
        let segments = list_segments(&dir).unwrap();
        fs::remove_file(&segments[1].1).unwrap();

        match recover(&dir, &graph, &probs, &cfg) {
            Err(err) => {
                assert_eq!(err.kind(), ErrorKind::InvalidData);
                assert!(err.to_string().contains("gap"), "{err}");
            }
            Ok(_) => panic!("a log with a missing middle segment must not recover"),
        }
    }
}
