//! The event-lineage flight recorder: always-on, zero-perturbation
//! per-mutation lifecycle timelines.
//!
//! Every admitted mutation gets a **trace id** derived from its WAL
//! sequence number (`trace = wal position + 1`; 0 is the "no trace"
//! sentinel). As the mutation flows admit → queue → wal_append → fsync
//! → apply → publish (and, across the wire, replicate_ship →
//! follower_append → follower_apply), each stage writes one fixed-size
//! record into a per-thread lock-free ring buffer. Because replication
//! preserves WAL positions, a follower's stage records carry the *same*
//! trace ids as the leader's — dumping both processes and merging on
//! trace id reconstructs the full cross-process timeline.
//!
//! # Zero perturbation
//!
//! The hot path only ever *writes*: one thread-local lookup, one
//! relaxed `fetch_add`, five relaxed/release stores. No allocation, no
//! locks, no branches on recorder state that could steer the allocator
//! — the same out-of-band invariant the metrics registry holds, proven
//! by the same run-twice bit-identity anchor.
//!
//! # Loss is counted, never silent
//!
//! The rings are bounded. A ring that wraps overwrites its oldest
//! records (a flight recorder keeps the *recent* past) and counts each
//! overwrite into [`crate::registry::FLIGHT_OVERWRITTEN`]; a thread
//! that finds every slot taken drops its records and counts them into
//! [`crate::registry::FLIGHT_DROPPED`]. Both counters ride the normal
//! registry exposition, so a truncated timeline is always visible as a
//! non-zero loss counter next to it.
//!
//! # Torn reads
//!
//! A dump may race a writer mid-record. Each record carries a tag that
//! is odd while the write is in flight and bumped to a fresh even value
//! once the fields are stored (release); the reader re-checks the tag
//! (acquire) after reading the fields and skips records whose tag moved
//! or is odd. A skipped record is a record still being written — it is
//! not loss, and the writer's next dump will see it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Lifecycle stages, in causal order. The numeric order is the
/// within-trace sort key of a dumped timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Admission control decided to accept the mutation.
    Admit = 0,
    /// The mutation waited in the bounded write queue.
    Queue = 1,
    /// The frame was appended (buffered) to the WAL.
    WalAppend = 2,
    /// The group-commit fsync that made the frame durable.
    Fsync = 3,
    /// The allocator applied the mutation.
    Apply = 4,
    /// The post-apply snapshot was published to the reader swap.
    Publish = 5,
    /// The leader shipped the frame to a follower (`replicate_poll`).
    ReplicateShip = 6,
    /// A follower appended + fsynced the frame into its local WAL.
    FollowerAppend = 7,
    /// A follower's allocator applied the frame.
    FollowerApply = 8,
}

impl Stage {
    /// Every stage, in causal order.
    pub const ALL: [Stage; 9] = [
        Stage::Admit,
        Stage::Queue,
        Stage::WalAppend,
        Stage::Fsync,
        Stage::Apply,
        Stage::Publish,
        Stage::ReplicateShip,
        Stage::FollowerAppend,
        Stage::FollowerApply,
    ];

    /// The stages every mutation passes through on any server —
    /// durable or memory-only, leader or not. A trace covering all of
    /// these is a *complete lifecycle* (WAL and replication stages are
    /// topology-dependent extras).
    pub const CORE_LIFECYCLE: [Stage; 4] =
        [Stage::Admit, Stage::Queue, Stage::Apply, Stage::Publish];

    /// Stable wire/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Queue => "queue",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Apply => "apply",
            Stage::Publish => "publish",
            Stage::ReplicateShip => "replicate_ship",
            Stage::FollowerAppend => "follower_append",
            Stage::FollowerApply => "follower_apply",
        }
    }

    fn from_index(i: u64) -> Option<Stage> {
        Stage::ALL.get(i as usize).copied()
    }
}

/// Records per per-thread ring. A ring that wraps keeps the most
/// recent `RING_RECORDS` stage records of its thread.
pub const RING_RECORDS: usize = 1024;
/// Maximum threads that can ever register a ring over the process
/// lifetime (slots are never reclaimed — server thread counts are
/// bounded and stable; records from a thread past the cap are dropped
/// and counted).
pub const RING_SLOTS: usize = 64;

/// One fixed-size stage record. All fields are plain atomics so the
/// dump thread can read them without stopping the writer; `tag` is the
/// seqlock-style validity word (0 = never written, odd = in flight,
/// even = stable).
struct Record {
    tag: AtomicU64,
    trace: AtomicU64,
    stage: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl Record {
    const fn new() -> Record {
        Record {
            tag: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            stage: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }
}

/// One thread's ring: a monotone write head and a fixed record slab.
struct Ring {
    head: AtomicU64,
    records: [Record; RING_RECORDS],
}

impl Ring {
    const fn new() -> Ring {
        Ring {
            head: AtomicU64::new(0),
            records: [const { Record::new() }; RING_RECORDS],
        }
    }
}

static RINGS: [Ring; RING_SLOTS] = [const { Ring::new() }; RING_SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// Slot sentinel: this thread asked for a ring and none was left.
const SLOT_EXHAUSTED: usize = usize::MAX - 1;

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The process's flight clock epoch — every timestamp in the recorder
/// is nanoseconds since this instant. Initialized on first use; the
/// serving entry points touch it at startup so "since epoch" is
/// effectively "since the process began serving".
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's flight epoch. The recorder's only
/// clock — monotone within a process, *not* comparable across
/// processes (cross-process timelines join on trace id, not on time).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Sets this thread's current trace id — the id downstream write-side
/// code that doesn't carry one explicitly (the allocator's exemplar
/// hooks) attributes its work to.
/// 0 clears it.
pub fn set_current_trace(trace: u64) {
    CURRENT_TRACE.with(|c| c.set(trace));
}

/// This thread's current trace id (0 when none is set).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// Records one completed stage span for `trace`. `trace == 0` is the
/// explicit no-op (no trace in flight — e.g. an allocator used outside
/// a server). Write-only and allocation-free; see the module docs for
/// the loss accounting.
pub fn record(trace: u64, stage: Stage, start_ns: u64, end_ns: u64) {
    if trace == 0 {
        return;
    }
    let slot = SLOT.with(|s| {
        let cur = s.get();
        if cur != usize::MAX {
            return cur;
        }
        let claimed = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
        let resolved = if claimed < RING_SLOTS {
            claimed
        } else {
            SLOT_EXHAUSTED
        };
        s.set(resolved);
        resolved
    });
    if slot == SLOT_EXHAUSTED {
        crate::registry::FLIGHT_DROPPED.inc();
        return;
    }
    let ring = &RINGS[slot];
    let w = ring.head.fetch_add(1, Ordering::Relaxed);
    if w >= RING_RECORDS as u64 {
        crate::registry::FLIGHT_OVERWRITTEN.inc();
    }
    let rec = &ring.records[(w % RING_RECORDS as u64) as usize];
    // Seqlock-style publish: odd while in flight, fresh even when done.
    rec.tag.store(2 * w + 1, Ordering::Relaxed);
    rec.trace.store(trace, Ordering::Relaxed);
    rec.stage.store(stage as u64, Ordering::Relaxed);
    rec.start_ns.store(start_ns, Ordering::Relaxed);
    rec.end_ns.store(end_ns, Ordering::Relaxed);
    rec.tag.store(2 * w + 2, Ordering::Release);
    crate::registry::FLIGHT_RECORDS.inc();
}

/// [`record`] with the span's end stamped now — for call sites that
/// captured only the start.
pub fn record_since(trace: u64, stage: Stage, start_ns: u64) {
    record(trace, stage, start_ns, now_ns());
}

/// One dumped stage record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Trace id (WAL position + 1; joins stages across threads and,
    /// via replication, across processes).
    pub trace: u64,
    /// Which lifecycle stage this span is.
    pub stage: Stage,
    /// Span start, nanoseconds since the process flight epoch.
    pub start_ns: u64,
    /// Span end, nanoseconds since the process flight epoch.
    pub end_ns: u64,
    /// The ring slot (≈ writer thread) the record came from.
    pub slot: usize,
}

/// Reads every stable record out of every registered ring, sorted by
/// `(trace, stage order, start)` so each trace's timeline is contiguous
/// and causally ordered. Torn (in-flight) records are skipped — the
/// writer finishing them will surface them in the next dump.
pub fn dump_events() -> Vec<FlightEvent> {
    let slots = NEXT_SLOT.load(Ordering::Acquire).min(RING_SLOTS);
    let mut out = Vec::new();
    for (slot, ring) in RINGS.iter().enumerate().take(slots) {
        for rec in &ring.records {
            let t1 = rec.tag.load(Ordering::Acquire);
            if t1 == 0 || t1 % 2 == 1 {
                continue;
            }
            let trace = rec.trace.load(Ordering::Relaxed);
            let stage = rec.stage.load(Ordering::Relaxed);
            let start_ns = rec.start_ns.load(Ordering::Relaxed);
            let end_ns = rec.end_ns.load(Ordering::Relaxed);
            if rec.tag.load(Ordering::Acquire) != t1 {
                continue; // overwritten mid-read
            }
            let Some(stage) = Stage::from_index(stage) else {
                continue;
            };
            out.push(FlightEvent {
                trace,
                stage,
                start_ns,
                end_ns,
                slot,
            });
        }
    }
    out.sort_by_key(|e| (e.trace, e.stage as u8, e.start_ns));
    out
}

/// Counts the distinct traces in `events` that cover every stage in
/// `required` — e.g. [`Stage::CORE_LIFECYCLE`] for "at least one
/// mutation's full admit→publish timeline made it into the dump".
pub fn traces_covering(events: &[FlightEvent], required: &[Stage]) -> usize {
    let mut count = 0;
    let mut i = 0;
    while i < events.len() {
        let trace = events[i].trace;
        let mut mask = 0u16;
        while i < events.len() && events[i].trace == trace {
            mask |= 1 << (events[i].stage as u8);
            i += 1;
        }
        if required.iter().all(|s| mask & (1 << (*s as u8)) != 0) {
            count += 1;
        }
    }
    count
}

/// Total records ever lost: ring overwrites plus drops from threads
/// past the slot cap. The "counted, never silent" companion to every
/// dump.
pub fn lost_records() -> u64 {
    crate::registry::FLIGHT_OVERWRITTEN.get() + crate::registry::FLIGHT_DROPPED.get()
}

/// Renders the recorder's current contents in Chrome trace-event JSON
/// (load it at `chrome://tracing` / `about:tracing`, or merge several
/// processes' dumps by concatenating their `traceEvents`). Each stage
/// span is a complete (`"ph":"X"`) event; `pid` is the real process id
/// so merged leader+follower dumps stay distinguishable, `tid` is the
/// ring slot, and `args.trace` carries the lineage id the viewer can
/// filter on. Loss counters ride along in `otherData`.
pub fn dump_chrome_json() -> String {
    let events = dump_events();
    let pid = std::process::id();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur = e.end_ns.saturating_sub(e.start_ns);
        // Chrome wants microseconds; keep nanosecond precision as the
        // fractional part.
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"lineage\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"pid\":{},\"tid\":{},\"args\":{{\"trace\":{}}}}}",
            e.stage.name(),
            e.start_ns / 1_000,
            e.start_ns % 1_000,
            dur / 1_000,
            dur % 1_000,
            pid,
            e.slot,
            e.trace,
        ));
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"pid\":{},\"records\":{},\
         \"overwritten\":{},\"dropped\":{}}}}}",
        pid,
        crate::registry::FLIGHT_RECORDS.get(),
        crate::registry::FLIGHT_OVERWRITTEN.get(),
        crate::registry::FLIGHT_DROPPED.get(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_indices_round_trip() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as u8 as usize, i);
            assert_eq!(Stage::from_index(i as u64), Some(*s));
        }
        assert_eq!(Stage::from_index(Stage::ALL.len() as u64), None);
    }

    #[test]
    fn zero_trace_is_a_noop() {
        let before = crate::registry::FLIGHT_RECORDS.get();
        record(0, Stage::Apply, 1, 2);
        assert_eq!(crate::registry::FLIGHT_RECORDS.get(), before);
    }

    #[test]
    fn current_trace_is_thread_local() {
        set_current_trace(42);
        assert_eq!(current_trace(), 42);
        std::thread::spawn(|| assert_eq!(current_trace(), 0))
            .join()
            .unwrap();
        set_current_trace(0);
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn recorded_spans_come_back_in_causal_order() {
        // Unit tests share the process rings; use a trace range no other
        // test touches and filter the dump down to it.
        let base = 9_000_000;
        for (i, stage) in Stage::CORE_LIFECYCLE.iter().enumerate() {
            record(
                base,
                *stage,
                (i as u64 + 1) * 100,
                (i as u64 + 1) * 100 + 50,
            );
        }
        let events: Vec<FlightEvent> = dump_events()
            .into_iter()
            .filter(|e| e.trace == base)
            .collect();
        assert_eq!(events.len(), Stage::CORE_LIFECYCLE.len());
        for w in events.windows(2) {
            assert!(w[0].stage < w[1].stage);
            assert!(w[0].start_ns <= w[1].start_ns);
        }
        assert_eq!(traces_covering(&events, &Stage::CORE_LIFECYCLE), 1);
        assert_eq!(traces_covering(&events, &Stage::ALL), 0);
    }

    #[test]
    fn chrome_dump_is_valid_json_with_lineage_args() {
        record(9_100_000, Stage::Fsync, 1_234_567, 2_345_678);
        let json = dump_chrome_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("chrome dump parses");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("fsync")
                && e.get("args")
                    .and_then(|a| a.get("trace"))
                    .and_then(|t| t.as_u64())
                    == Some(9_100_000)
        }));
        let other = v.get("otherData").expect("loss counters present");
        assert!(other.get("records").and_then(|r| r.as_u64()).unwrap() >= 1);
        assert!(other.get("overwritten").is_some());
        assert!(other.get("dropped").is_some());
    }
}
