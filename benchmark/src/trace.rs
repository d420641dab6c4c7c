//! Spans around the calls the benchmark makes into each layer. Spans
//! are kept in memory and written out as Chrome trace events when the
//! traced run ends; untraced rounds run with a disabled tracer whose
//! `begin`/`end` do nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer entry point (`OnlineAllocator::process`) or client phase
    /// (`client.roundtrip`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The op's position in the event log — the id every span of one
    /// request shares.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Track (Chrome `tid`): 0 the served round's client, 1 the ladder.
    pub track: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanHandle(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    track: u32,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            track: 0,
        }
    }

    /// A tracer that records nothing (untraced rounds).
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on go to `track`.
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanHandle {
        if !self.enabled {
            return SpanHandle(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            op,
            parent: self.open.last().copied(),
            track: self.track,
        });
        self.open.push(idx);
        SpanHandle(Some(idx))
    }

    /// Closes a span opened by [`Self::begin`]. Spans close innermost
    /// first.
    pub fn end(&mut self, handle: SpanHandle) {
        let Some(idx) = handle.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (a span's duration minus the part its direct children
    /// cover) on `track`, summed per op position, in nanoseconds, leaving
    /// out spans named `skip` (the `op` wrapper spans, whose
    /// self time is the benchmark's own bookkeeping).
    pub fn self_time_by_op_ns(&self, track: u32, skip: &str) -> BTreeMap<u64, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.track == track && s.name != skip {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered[i]);
                *out.entry(s.op).or_insert(0) += own;
            }
        }
        out
    }

    /// Chrome trace-event JSON (`about:tracing` / Perfetto): one complete
    /// (`"ph":"X"`) event per span with the op position and the parent
    /// span's index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                i,
                parent
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}
