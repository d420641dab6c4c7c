//! # tirm-wire
//!
//! The typed wire protocol shared by the serving frontend
//! (`tirm_server`) and its clients (`tirm_bench`'s load generator, the
//! crash-soak driver): length-prefixed JSON frames carrying versioned
//! [`Request`]/[`Response`] shapes. One crate owns the encode/decode of
//! every frame on the wire, so the server and each client cannot drift.
//!
//! Inside the crate the single source is the **declaration**: one
//! `wire!` table each for [`Request`], [`Response`] and [`StatsView`],
//! whose rows (`field: Type => "key"`, in wire order, under the
//! message's `"tag"`) produce the type, its `encode` and its `decode`
//! together, so the two directions cannot drift either. A field is one
//! row, a wire type one private `Field` codec (`put` writes it, `read`
//! reads it); only `Request::Mutate`, `Response::Allocation` and
//! `Response::Stats` keep hand-written arms, next to their table.
//!
//! Decoding builds no JSON tree: the strict pull reader of the vendored
//! `serde_json` ([`serde_json::Reader`]) finds the `type` tag, then
//! walks the frame's object once, and each row's codec reads its value
//! in place. Keys may come in any order, the first occurrence wins, and
//! a row that is absent or mistyped is ``missing `key` ``.
//! Integers are exact up to `u64::MAX` (`5.0` is not one); `Object` rows
//! come back as the text that was sent.
//!
//! Every message is one **frame**: a 4-byte little-endian length prefix
//! followed by exactly that many bytes of UTF-8 JSON. Frames are capped
//! at [`MAX_FRAME_BYTES`] — a peer announcing a larger frame is a
//! protocol error, not an allocation request.
//!
//! Connections may open with a `hello` exchange: the client announces
//! [`PROTOCOL_VERSION`], the server echoes its own plus the current
//! snapshot epoch and WAL sequence number — the anchor a reconnecting
//! client resumes its event log from (see [`Response::Hello`]). The
//! handshake is optional for backward compatibility: any other request
//! is served without one.
//!
//! Requests reuse the event-log vocabulary verbatim: a mutation request
//! is exactly the JSON object [`tirm_workloads::events::event_json_fields`]
//! produces for the same event, so any log line (minus its `at` pacing
//! field) is a valid request body. The log reader reads a line with the
//! same function ([`read_event`]), so a line is admitted exactly when its
//! body is. Read requests use `type` tags outside the event vocabulary
//! (`allocation`, `ad`, `stats`, `shutdown`, `hello`).
//!
//! Responses are typed: the admission-control outcomes (`accepted` /
//! `overloaded` / `shutting_down`), the read-path payloads (`regret` /
//! `allocation` / `ad` / `stats` / `hello`) and `rejected` for malformed
//! requests. Allocation payloads embed [`AllocationSnapshot::to_json`]
//! and decode bit-exactly (shortest round-trip float printing), so a
//! client can verify the server's allocation against an in-process
//! replay down to revenue-estimate bits.
//!
//! # Replication vocabulary (protocol v2)
//!
//! Followers tail a leader's write-ahead log through the same framing:
//! [`Request::ReplicatePoll`] asks for frames at or past a `wal_seq`
//! subscription anchor; a caught-up poll is held at the leader until the
//! durable frontier passes the anchor, the leader stops, or the poll's
//! `wait_ms` (clamped by the leader) runs out. It is answered with
//! [`Response::ReplicateFrames`] (raw event-JSON bodies, clamped to the
//! leader's durable frontier) or [`Response::ReplicateBootstrap`] when
//! the anchor falls inside a pruned segment — the follower then pages
//! the named checkpoint down with [`Request::ReplicateCheckpoint`] /
//! [`Response::ReplicateCheckpointChunk`] and re-subscribes at its
//! cover point. Every replication response carries the leader's
//! **fencing epoch**; a follower ignores frames from an epoch older
//! than the newest it has seen, so a deposed leader's stale segments
//! are rejected. Mutations sent to a follower get the typed
//! [`Response::NotLeader`] redirect, and [`Request::Promote`] asks a
//! follower to stop tailing, bump the fencing epoch, and take over
//! writes ([`Response::Promoting`]).

use serde_json::Reader;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;
use tirm_online::{AdId, AdSnapshot, AllocationSnapshot, OnlineEvent};
use tirm_workloads::events::{event_json_fields, read_event};

/// Version of the request/response vocabulary. Bumped on any change a
/// peer cannot ignore; the `hello` exchange surfaces skew as a typed
/// error instead of a mid-stream decode failure. v2 added the
/// replication vocabulary (`Replicate*`, `NotLeader`, `Promote`) and
/// the role / fencing-epoch fields on `hello` and `stats`. v3 added the
/// `metrics` observability request and the registry-backed
/// `shed_total` / `rejected_total` fields on `stats`. v4 added the
/// event-lineage vocabulary: the `trace_dump` request and the
/// `trace_base` field on `replicate_frames`. v5 added `wait_ms` to
/// `replicate_poll` (a caught-up poll is held at the leader). A decoder
/// reads exactly this version: every field is required.
pub const PROTOCOL_VERSION: u32 = 5;

/// Hard cap on one frame's body. Requests are small (an arrival with a
/// full topic-weight vector is hundreds of bytes); responses embed at
/// most one allocation snapshot. 16 MiB leaves three orders of
/// magnitude of headroom while bounding what a hostile peer can make
/// the server buffer.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Which side of the replication stream a process is serving: the
/// single writer (leader) or a read replica tailing its WAL
/// (follower). Carried in `hello` and `stats` so clients can route
/// mutations and reason about lag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations; streams its WAL to followers.
    #[default]
    Leader,
    /// Serves snapshot reads; redirects mutations with
    /// [`Response::NotLeader`].
    Follower,
}

impl Role {
    /// Wire name of the role.
    pub fn name(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }

    /// Parses a wire role name.
    pub fn parse(s: &str) -> Option<Role> {
        [Role::Leader, Role::Follower]
            .into_iter()
            .find(|role| role.name() == s)
    }
}

/// How one wire type is written into and read out of a frame body.
/// Each type that occurs on the wire implements it once; `As` tells
/// apart the encodings of a Rust type that has several (a `String` is
/// an escaped JSON string unless its row says [`Hex`] or [`Object`]).
trait Field<As = ()>: Sized {
    /// Appends the value as JSON text.
    fn put(&self, out: &mut String);
    /// Reads the next value. `None`: it is well formed but not this
    /// type (and has been skipped).
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String>;
}

/// Row marker: a string of hex digits, written between quotes as it is
/// (nothing in it needs escaping, and a checkpoint page is megabytes).
enum Hex {}

/// Row marker: JSON objects carried as their own text (the metrics and
/// trace dumps, WAL frame bodies) — embedded verbatim and read back as
/// the text that was sent.
enum Object {}

/// A non-negative integer that fits `T`: the one narrowing on the
/// decode side (`as` would wrap seed `4294967301` to `5`).
#[inline(always)]
fn narrow<T: TryFrom<u64>>(r: &mut Reader<'_>) -> Result<Option<T>, String> {
    Ok(r.u64()?.and_then(|n| T::try_from(n).ok()))
}

/// Numbers print by `Display`: integers as digits, floats in shortest
/// round-trip notation (what makes allocation payloads bit-exact).
macro_rules! number_fields {
    ($($ty:ty => $read:expr),*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String is infallible");
            }
            #[inline(always)]
            fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
                $read(r)
            }
        }
    )*};
}
number_fields!(u32 => narrow, u64 => narrow, usize => narrow, f64 => Reader::f64);

impl Field for String {
    fn put(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if c < ' ' => {
                    write!(out, "\\u{:04x}", c as u32).expect("writing to a String is infallible")
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        Ok(r.str()?.map(Cow::into_owned))
    }
}

impl Field<Hex> for String {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        <String as Field>::read(r)
    }
}

impl Field<Object> for String {
    fn put(&self, out: &mut String) {
        out.push_str(self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        Ok(r.object_text()?.map(str::to_string))
    }
}

/// An array; one item of another type makes the whole of it mistyped.
impl<T: Field<As>, As> Field<As> for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.put(out);
        }
        out.push(']');
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        let (mut items, mut mistyped) = (Vec::new(), false);
        let array = r.array(|r| {
            match T::read(r)? {
                Some(item) => items.push(item),
                None => mistyped = true,
            }
            Ok(())
        })?;
        Ok((array && !mistyped).then_some(items))
    }
}

/// `null`, or the value.
impl<T: Field<As>, As> Field<As> for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(value) => value.put(out),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        if r.peek() == Some(b'n') {
            return r.skip().map(|()| Some(None));
        }
        Ok(T::read(r)?.map(Some))
    }
}

impl Field for Role {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(self.name());
        out.push('"');
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        match r.str()? {
            None => Ok(None),
            Some(name) => Role::parse(&name)
                .map(Some)
                .ok_or_else(|| format!("unknown role {name:?}")),
        }
    }
}

/// Reads the object at `$r` into `$build`, an expression over its rows'
/// fields. Each key goes to the row that names it, whose codec reads the
/// value: the first occurrence of a key wins, and later ones and keys no
/// row names are skipped. A row left absent or mistyped is
/// ``missing `key` ``. `None` if the value is not an object.
macro_rules! read_object {
    (
        $r:expr,
        { $($field:ident: $ty:ty => $key:literal $(: $as:ty)?),* $(,)? } => $build:expr
    ) => {{
        $(let mut $field: Option<$ty> = None;)*
        let object = $r.object(|r, key| match &*key {
            $($key if $field.is_none() => {
                let value = <$ty as Field<$($as)?>>::read(r)?;
                $field = Some(value.ok_or(concat!("missing `", $key, "`"))?);
                Ok(())
            })*
            _ => r.skip(),
        })?;
        if object {
            $(let $field = $field.ok_or(concat!("missing `", $key, "`"))?;)*
            Some($build)
        } else {
            None
        }
    }};
}

/// The declaration every wire shape is produced from. A row
/// `field: Type => "key"` (`: Hex` / `: Object` after the key picks a
/// non-default [`Field`] encoding) is the only place the field, its wire
/// key and its codec are written; rows are in wire order.
///
/// * `pub enum`: one `"tag" => Variant { rows }` per message. Produces
///   the enum, `encode` (`{"type":"tag","key":value,…}`) and `decode`,
///   which reads the frame's `type` tag and then its object, row by row.
///   Messages that do not fit a row are listed under `irregular`, and
///   their hand-written `encode` / `decode` arms are spliced into the
///   same two `match`es; a decode arm yields `Option<Self>` (`None`: the
///   frame is not an object) and may use the reader and the tag.
/// * `pub struct`: a flattened field list. Produces the struct,
///   `put_fields` (`,"key":value` per row) and `read_fields`.
macro_rules! wire {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty => $key:literal $(: $as:ty)?
                    ),+ $(,)?
                })?,
            )+
        }
        irregular { $($irregular:tt)* }
        $(#[$emeta:meta])*
        encode($out:ident) { $($earms:tt)* }
        $(#[$dmeta:meta])*
        decode($tag_in:ident, $r:ident) { $($darms:tt)* }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty ),+ })?,
            )+
            $($irregular)*
        }

        impl $name {
            $(#[$emeta])*
            pub fn encode(&self) -> String {
                let mut $out = String::new();
                match self {
                    $(
                        Self::$variant $({ $($field),+ })? => {
                            $out.push_str(concat!("{\"type\":\"", $tag, "\""));
                            $($(
                                $out.push_str(concat!(",\"", $key, "\":"));
                                <$ty as Field<$($as)?>>::put($field, &mut $out);
                            )+)?
                            $out.push('}');
                        }
                    )+
                    $($earms)*
                }
                $out
            }

            $(#[$dmeta])*
            pub fn decode(bytes: &[u8]) -> Result<Self, String> {
                let mut reader = Reader::new(bytes)?;
                let $r = &mut reader;
                let $tag_in = $r.peek_type()?;
                let decoded = match &*$tag_in {
                    $(
                        $tag => read_object!($r, {
                            $($( $field: $ty => $key $(: $as)? ),+)?
                        } => Self::$variant $({ $($field),+ })?),
                    )+
                    $($darms)*
                };
                reader.end()?;
                decoded.ok_or_else(|| "frame is not an object".to_string())
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty => $key:literal $(: $as:ty)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty ),+
        }

        impl $name {
            /// Appends every field as `,"key":value`, in wire order.
            fn put_fields(&self, out: &mut String) {
                $(
                    out.push_str(concat!(",\"", $key, "\":"));
                    <$ty as Field<$($as)?>>::put(&self.$field, out);
                )+
            }

            /// Reads every field out of the object at `r`.
            fn read_fields(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
                Ok(read_object!(r, { $($field: $ty => $key $(: $as)?),+ } => $name { $($field),+ }))
            }
        }
    };
}

wire! {
    /// One decoded request.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request {
        /// Protocol handshake (`{"type":"hello","version":N}`): announce the
        /// client's protocol version, learn the server's version, snapshot
        /// epoch and WAL sequence number.
        "hello" => Hello {
            /// The client's [`PROTOCOL_VERSION`].
            version: u32 => "version",
        },
        /// Current regret estimate, served from the snapshot
        /// (`regret_query` — the event vocabulary's only read is a wire
        /// read too).
        "regret_query" => RegretQuery,
        /// The full standing allocation (`{"type":"allocation"}`).
        "allocation" => AllocationQuery,
        /// One ad's slice of the allocation (`{"type":"ad","id":N}`).
        "ad" => AdQuery {
            /// Advertiser id to look up.
            id: AdId => "id",
        },
        /// Serving statistics (`{"type":"stats"}`).
        "stats" => Stats,
        /// The process-wide observability registry dump
        /// (`{"type":"metrics"}`): every counter, gauge and latency
        /// histogram, as one JSON object.
        "metrics" => Metrics,
        /// The event-lineage flight-recorder dump
        /// (`{"type":"trace_dump"}`): the process's per-mutation lifecycle
        /// timelines in Chrome trace-event JSON, same payload as the
        /// `/trace.json` exposition route.
        "trace_dump" => TraceDump,
        /// Ask the server to begin graceful shutdown
        /// (`{"type":"shutdown"}`).
        "shutdown" => Shutdown,
        /// Follower → leader: stream WAL frames starting at the `from_seq`
        /// subscription anchor
        /// (`{"type":"replicate_poll","from_seq":N,"max_frames":N,"wait_ms":N}`).
        "replicate_poll" => ReplicatePoll {
            /// First sequence number the follower still needs.
            from_seq: u64 => "from_seq",
            /// Cap on frames in one response (bounds the frame size).
            max_frames: u64 => "max_frames",
            /// How long the leader may hold a caught-up poll before
            /// answering with an empty page (the leader clamps it; the
            /// durable frontier passing `from_seq`, or the leader
            /// stopping, ends the hold early). 0 ⇒ answer at once.
            wait_ms: u64 => "wait_ms",
        },
        /// Follower → leader: page down the bootstrap checkpoint named by a
        /// [`Response::ReplicateBootstrap`]
        /// (`{"type":"replicate_checkpoint","offset":N,"max_bytes":N}`).
        "replicate_checkpoint" => ReplicateCheckpoint {
            /// Byte offset into the checkpoint image.
            offset: u64 => "offset",
            /// Cap on payload bytes in one chunk.
            max_bytes: u64 => "max_bytes",
        },
        /// Ask a follower to take over as leader: stop tailing, bump the
        /// fencing epoch, accept writes (`{"type":"promote"}`).
        "promote" => Promote,
    }
    irregular {
        /// A mutating event for the writer queue (`arrival` / `topup` /
        /// `departure` / `reallocate` in event-log notation).
        Mutate(OnlineEvent),
    }
    /// Encodes the request as a JSON object (frame body).
    encode(out) {
        Request::Mutate(ev) => {
            out.push('{');
            out.push_str(&event_json_fields(ev));
            out.push('}');
        }
    }
    /// Decodes a frame body. Mutating events are read by [`read_event`],
    /// the event log's reader too; `RegretQuery` — an event kind that
    /// mutates nothing — is routed to the read path.
    decode(tag, r) {
        _ => Some(match read_event(r, &tag)? {
            OnlineEvent::RegretQuery => Request::RegretQuery,
            ev => Request::Mutate(ev),
        }),
    }
}

wire! {
    /// Serving statistics as reported over the wire.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct StatsView {
        /// Mutating events applied (the published snapshot's epoch).
        epoch: u64 => "epoch",
        /// Admitted mutations durably logged (the WAL sequence number); 0 on
        /// a server running without a WAL.
        wal_seq: u64 => "wal_seq",
        /// Live campaigns.
        live_ads: usize => "live_ads",
        /// Seeds allocated in total.
        total_seeds: usize => "total_seeds",
        /// RR sets held across live shards.
        total_rr_sets: usize => "total_rr_sets",
        /// Allocator index + capital bytes.
        engine_memory_bytes: usize => "engine_memory_bytes",
        /// Mutations currently queued or in flight at the writer.
        queue_depth: usize => "queue_depth",
        /// High-water mark of `queue_depth` over the server's lifetime.
        max_queue_depth: usize => "max_queue_depth",
        /// Mutations admitted to the queue.
        accepted: u64 => "accepted",
        /// Mutations shed with `overloaded` (queue full).
        shed: u64 => "shed",
        /// Admitted mutations the allocator rejected (unknown ids, malformed
        /// payload domains).
        rejected: u64 => "rejected",
        /// Frames that failed to decode as requests.
        bad_requests: u64 => "bad_requests",
        /// Currently open connections.
        connections: usize => "connections",
        /// This process's replication role.
        role: Role => "role",
        /// Fencing epoch the process serves at (0 before any hand-off).
        fencing_epoch: u64 => "fencing_epoch",
        /// The leader's durable frontier as last observed: equal to
        /// `wal_seq` on a leader; on a follower, the `durable_seq` of the
        /// newest replication response it applied.
        leader_seq: u64 => "leader_seq",
        /// Mutations shed over the *process* lifetime (registry-backed):
        /// unlike `shed`, which counts one `serve` run, this spans every
        /// run in the process.
        shed_total: u64 => "shed_total",
        /// Allocator rejections over the process lifetime
        /// (registry-backed).
        rejected_total: u64 => "rejected_total",
    }
}

impl StatsView {
    /// Replication lag in events: how far the local durable frontier
    /// trails the leader's (0 on a leader, and on a caught-up
    /// follower).
    pub fn lag(&self) -> u64 {
        self.leader_seq.saturating_sub(self.wal_seq)
    }
}

wire! {
    /// One decoded response.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response {
        /// Handshake reply: the server's protocol version and the two
        /// resume anchors a reconnecting client needs — the snapshot epoch
        /// and the WAL sequence number (count of admitted mutations durably
        /// logged; a client replaying an event log resumes right after its
        /// `wal_seq`-th non-query event).
        "hello" => Hello {
            /// The server's [`PROTOCOL_VERSION`].
            version: u32 => "version",
            /// Snapshot epoch at handshake time.
            epoch: u64 => "epoch",
            /// WAL sequence number at handshake time (0 without a WAL).
            wal_seq: u64 => "wal_seq",
            /// The process's replication role.
            role: Role => "role",
            /// Fencing epoch the process serves at. A follower tracks the
            /// max it has seen and rejects replication frames from
            /// anything older.
            fencing_epoch: u64 => "fencing_epoch",
        },
        /// The mutation was admitted to the writer queue: it will be
        /// **processed** before the server exits (the drain guarantee).
        /// Admission is a delivery promise, not a validity one — the
        /// allocator may still reject the event when it is applied
        /// (duplicate arrival id, unknown top-up target); such rejections
        /// count into `stats.rejected`, and a client that needs
        /// confirmation queries the ad (or watches the epoch) afterwards.
        /// Exactly the same events are rejected by an in-process replay, so
        /// the bit-identity anchor is unaffected. `epoch` is the snapshot
        /// epoch visible at admission, not the one the event will produce.
        "accepted" => Accepted {
            /// Snapshot epoch at admission time.
            epoch: u64 => "epoch",
            /// Queue depth right after admission.
            queue_depth: usize => "queue_depth",
        },
        /// The write queue is full: the mutation was **shed**, not queued.
        /// The client may retry; the server never blocks its accept loop on
        /// a slow writer.
        "overloaded" => Overloaded {
            /// Queue depth observed when the mutation was shed.
            queue_depth: usize => "queue_depth",
        },
        /// The server is draining and no longer admits mutations.
        "shutting_down" => ShuttingDown,
        /// The request was malformed (decode failure); nothing was admitted.
        "rejected" => Rejected {
            /// Human-readable decode failure.
            why: String => "why",
        },
        /// Regret estimate from the latest snapshot.
        "regret" => Regret {
            /// Snapshot epoch.
            epoch: u64 => "epoch",
            /// Live campaigns.
            live_ads: usize => "live_ads",
            /// Engine regret estimate.
            regret_estimate: f64 => "regret_estimate",
        },
        /// One ad's slice of the latest snapshot (`None`: not live).
        "ad" => Ad {
            /// Snapshot epoch.
            epoch: u64 => "epoch",
            /// The ad's slice, if live.
            ad: Option<AdSnapshot> => "ad",
        },
        /// The observability registry dump: one JSON object (`counters`,
        /// `gauges`, `histograms`, `build`) embedded verbatim. All
        /// values are integers and object order is preserved by the codec,
        /// so the dump round-trips byte-exactly.
        "metrics" => Metrics {
            /// The registry dump as rendered by `tirm_obs::dump_json`.
            json: String => "metrics": Object,
        },
        /// The flight-recorder lineage dump: Chrome trace-event JSON
        /// embedded verbatim (one object, all-integer `args`), exactly the
        /// `/trace.json` exposition payload.
        "trace_dump" => TraceDump {
            /// The dump as rendered by `tirm_obs::flight::dump_chrome_json`.
            json: String => "trace": Object,
        },
        /// Replication stream payload: `frames[i]` is the event-JSON body
        /// of WAL frame `start_seq + i`. Frames are clamped to the leader's
        /// durable frontier, so everything here is fsynced on the leader's
        /// disk. An empty `frames` means the poll's hold ran out with the
        /// follower still caught up: poll again.
        "replicate_frames" => ReplicateFrames {
            /// The leader's fencing epoch — stale-epoch frames are the
            /// deposed-leader signature and must be dropped by followers.
            fencing_epoch: u64 => "fencing_epoch",
            /// Sequence number of `frames[0]`.
            start_seq: u64 => "start_seq",
            /// The leader's durable frontier at response time (lag =
            /// `durable_seq - (start_seq + frames.len())`).
            durable_seq: u64 => "durable_seq",
            /// Flight trace id of `frames[0]`: the follower records its
            /// `follower_append` / `follower_apply` stages under
            /// `trace_base + i`, joining the leader's timeline for the same
            /// mutation. Under positional trace numbering this is
            /// `start_seq + 1`.
            trace_base: u64 => "trace_base",
            /// Raw event-JSON frame bodies, in sequence order.
            frames: Vec<String> => "frames": Object,
        },
        /// The poll's `from_seq` precedes the oldest retained WAL segment
        /// (pruned after a checkpoint): the follower must bootstrap from
        /// the named checkpoint instead — **not** a gap error.
        "replicate_bootstrap" => ReplicateBootstrap {
            /// The leader's fencing epoch.
            fencing_epoch: u64 => "fencing_epoch",
            /// Cover point of the checkpoint to fetch; re-subscribe here.
            checkpoint_seq: u64 => "checkpoint_seq",
            /// Size of the checkpoint image in bytes.
            total_bytes: u64 => "total_bytes",
        },
        /// One page of the bootstrap checkpoint image.
        "replicate_checkpoint_chunk" => ReplicateCheckpointChunk {
            /// Cover point of the checkpoint being paged.
            checkpoint_seq: u64 => "checkpoint_seq",
            /// Byte offset of this chunk.
            offset: u64 => "offset",
            /// Total size of the image (chunking ends at it).
            total_bytes: u64 => "total_bytes",
            /// Hex-encoded payload bytes (`2·max_bytes` chars ≤ frame cap).
            data_hex: String => "data_hex": Hex,
        },
        /// Typed redirect: this process is a follower; mutations (and
        /// shutdown) belong at the leader.
        "not_leader" => NotLeader {
            /// Address of the leader this follower tails (best effort —
            /// may itself be stale during a hand-off).
            leader: String => "leader",
        },
        /// A follower acknowledging [`Request::Promote`]: it leaves its
        /// tail loop and takes over as leader in place, on the same
        /// address.
        "promoting" => Promoting {
            /// The fencing epoch the promoted leader will serve at.
            fencing_epoch: u64 => "fencing_epoch",
        },
    }
    irregular {
        /// The full standing allocation from the latest snapshot.
        Allocation(AllocationSnapshot),
        /// Serving statistics.
        Stats(StatsView),
    }
    /// Encodes the response as a JSON object (frame body).
    encode(out) {
        // A tuple variant under the key `snapshot`.
        Response::Allocation(snapshot) => out = allocation_body(snapshot),
        // A tuple variant whose fields sit flattened next to `type`.
        Response::Stats(stats) => {
            out.push_str("{\"type\":\"stats\"");
            stats.put_fields(&mut out);
            out.push('}');
        }
    }
    /// Decodes a frame body.
    decode(tag, r) {
        "allocation" => read_object!(r, {
            snapshot: AllocationSnapshot => "snapshot",
        } => Response::Allocation(snapshot)),
        "stats" => StatsView::read_fields(r)?.map(Response::Stats),
        other => return Err(format!("unknown response type {other:?}")),
    }
}

/// The frame body of `Response::Allocation(snapshot)`, rendered from a
/// borrowed snapshot: the arm `encode` runs for that variant, so a
/// server can answer from a shared snapshot without cloning it.
pub fn allocation_body(snapshot: &AllocationSnapshot) -> String {
    let mut out = String::from("{\"type\":\"allocation\",\"snapshot\":");
    snapshot.write_json(&mut out);
    out.push('}');
    out
}

/// Client-side connection policy, mirrored against the server's
/// `ServerConfig`: handshake behavior and the bounded
/// reconnect-with-backoff schedule a client applies when the server
/// restarts underneath it (the crash-recovery bench mode).
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Disable Nagle's algorithm (request/response pipelining).
    pub nodelay: bool,
    /// Open each connection with a `hello` exchange and fail fast on
    /// protocol-version skew.
    pub handshake: bool,
    /// Bounded reconnect attempts after a lost connection. `0` fails
    /// fast (the pre-recovery behavior); kill/restart bench modes use a
    /// budget that covers the server's recovery time.
    pub reconnect_attempts: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Cap on the per-attempt backoff.
    pub backoff_max: Duration,
    /// Deterministic backoff jitter, keyed by a per-client seed:
    /// `Some(seed)` scales each attempt's backoff by a factor in
    /// `[0.5, 1.0)` derived from `(seed, attempt)`, so a fleet of
    /// clients that lost the same server re-dials spread out instead of
    /// in lockstep — while any single client's schedule stays exactly
    /// reproducible. `None` keeps the unjittered schedule (tests that
    /// pin exact sleeps).
    pub jitter: Option<u64>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            nodelay: true,
            handshake: true,
            reconnect_attempts: 0,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter: None,
        }
    }
}

impl ClientOptions {
    /// Options with a reconnect budget of `attempts` (exponential
    /// backoff, default base/cap).
    pub fn reconnecting(attempts: u32) -> Self {
        ClientOptions {
            reconnect_attempts: attempts,
            ..ClientOptions::default()
        }
    }

    /// [`reconnecting`](Self::reconnecting) with per-client backoff
    /// jitter derived from `seed` — what concurrent load-generator
    /// clients use so a restart doesn't see them re-dial in lockstep.
    pub fn reconnecting_jittered(attempts: u32, seed: u64) -> Self {
        ClientOptions {
            reconnect_attempts: attempts,
            jitter: Some(seed),
            ..ClientOptions::default()
        }
    }

    /// Backoff before reconnect attempt `attempt` (0-based):
    /// `base · 2^attempt`, saturating at the cap, then scaled by the
    /// deterministic per-`(seed, attempt)` jitter factor when
    /// [`jitter`](Self::jitter) is set.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        let full = self
            .backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max);
        match self.jitter {
            None => full,
            Some(seed) => {
                // splitmix64 over (seed, attempt): top 53 bits → a
                // uniform factor in [0.5, 1.0).
                let mut z = seed ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                full.mul_f64(0.5 + unit / 2.0)
            }
        }
    }
}

/// Hex-encodes bytes (checkpoint pages on the wire — the frame body is
/// JSON, so binary payloads travel as hex strings).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

/// Decodes a [`hex_encode`] string.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err("odd-length hex string".to_string());
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[1] as char))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// One ad object of an allocation payload ([`AdSnapshot::write_json`]).
impl Field for AdSnapshot {
    fn put(&self, out: &mut String) {
        self.write_json(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        Ok(read_object!(r, {
            id: AdId => "id",
            budget: f64 => "budget",
            cpe: f64 => "cpe",
            revenue_est: f64 => "revenue_est",
            seeds: Vec<u32> => "seeds",
        } => AdSnapshot { id, budget, cpe, seeds, revenue_est }))
    }
}

/// An [`AllocationSnapshot::write_json`] payload. Lifetime counters are
/// not on the wire ([`AllocationSnapshot::same_allocation`] ignores
/// them), so `stats` decodes to zeros; `total_seeds` is skipped.
impl Field for AllocationSnapshot {
    fn put(&self, out: &mut String) {
        self.write_json(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Option<Self>, String> {
        Ok(read_object!(r, {
            epoch: u64 => "epoch",
            kappa: u32 => "kappa",
            lambda: f64 => "lambda",
            regret_estimate: f64 => "regret_estimate",
            total_rr_sets: usize => "total_rr_sets",
            engine_memory_bytes: usize => "engine_memory_bytes",
            ads: Vec<AdSnapshot> => "ads",
        } => AllocationSnapshot {
            epoch, kappa, lambda, ads, regret_estimate, total_rr_sets, engine_memory_bytes,
            stats: Default::default(),
        }))
    }
}

/// Writes one frame (length prefix + body).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    assert!(body.len() <= MAX_FRAME_BYTES, "frame too large to send");
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame, blocking. `Ok(None)` on clean EOF before the first
/// header byte; errors on truncation mid-frame or an oversized length
/// prefix.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    read_frame_polling(r, || false)
}

/// [`read_frame`] with a cancellation probe for sockets carrying a read
/// timeout: on `WouldBlock`/`TimedOut` with **no bytes buffered yet**,
/// `should_stop()` decides between waiting for the next request
/// (`false`) and a clean `Ok(None)` exit (`true`). A *partial* frame is
/// never abandoned at the first timeout — the peer gets a grace period
/// of further polls to finish it (so a slow writer isn't corrupted by
/// shutdown racing its frame), after which truncation is an error.
pub fn read_frame_polling(
    r: &mut impl Read,
    should_stop: impl Fn() -> bool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match read_exact_polling(r, &mut header, &should_stop, true)? {
        ReadOutcome::CleanExit => return Ok(None),
        ReadOutcome::Done => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    match read_exact_polling(r, &mut body, &should_stop, false)? {
        ReadOutcome::CleanExit => unreachable!("mid-frame reads never exit cleanly"),
        ReadOutcome::Done => Ok(Some(body)),
    }
}

enum ReadOutcome {
    Done,
    CleanExit,
}

/// Number of timeout polls a peer gets to finish a frame it started
/// after shutdown was requested. With the default 25 ms poll interval
/// this is a ~2 s grace period.
const PARTIAL_FRAME_GRACE_POLLS: u32 = 80;

fn read_exact_polling(
    r: &mut impl Read,
    buf: &mut [u8],
    should_stop: &impl Fn() -> bool,
    eof_is_clean: bool,
) -> std::io::Result<ReadOutcome> {
    let mut filled = 0usize;
    let mut stopped_polls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if eof_is_clean && filled == 0 {
                    Ok(ReadOutcome::CleanExit)
                } else {
                    Err(ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if should_stop() {
                    if filled == 0 && eof_is_clean {
                        return Ok(ReadOutcome::CleanExit);
                    }
                    stopped_polls += 1;
                    if stopped_polls > PARTIAL_FRAME_GRACE_POLLS {
                        return Err(ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_topics::TopicDist;

    fn arrival() -> OnlineEvent {
        OnlineEvent::AdArrival {
            id: 7,
            budget: 12.5,
            cpe: 1.25,
            topics: TopicDist::concentrated(4, 1, 0.91),
            ctp: 0.03,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Mutate(arrival()),
            Request::Mutate(OnlineEvent::BudgetTopUp { id: 3, amount: 2.5 }),
            Request::Mutate(OnlineEvent::AdDeparture { id: 3 }),
            Request::Mutate(OnlineEvent::Reallocate),
            Request::RegretQuery,
            Request::AllocationQuery,
            Request::AdQuery { id: 9 },
            Request::Stats,
            Request::Metrics,
            Request::TraceDump,
            Request::Shutdown,
            Request::ReplicatePoll {
                from_seq: 42,
                max_frames: 256,
                wait_ms: 10,
            },
            Request::ReplicateCheckpoint {
                offset: 1 << 20,
                max_bytes: 65536,
            },
            Request::Promote,
        ];
        for req in reqs {
            let text = req.encode();
            let back = Request::decode(text.as_bytes()).unwrap();
            assert_eq!(back, req, "{text}");
        }
    }

    #[test]
    fn mutation_requests_are_event_log_lines() {
        // The wire vocabulary IS the log vocabulary: a log line without
        // its `at` field decodes as the same request.
        let ev = arrival();
        let log_line = format!("{{{}}}", event_json_fields(&ev));
        assert_eq!(
            Request::decode(log_line.as_bytes()).unwrap(),
            Request::Mutate(ev)
        );
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(Request::decode(b"not json").is_err());
        assert!(Request::decode(b"{\"type\":\"martian\"}").is_err());
        assert!(Request::decode(b"{\"budget\":5}").is_err());
        assert!(
            Request::decode(b"{\"type\":\"ad\"}").is_err(),
            "ad needs id"
        );
        assert!(
            Request::decode(b"{\"type\":\"hello\"}").is_err(),
            "hello needs version"
        );
        assert!(Request::decode(&[0xff, 0xfe]).is_err(), "not UTF-8");
    }

    #[test]
    fn responses_round_trip() {
        let snap = AllocationSnapshot {
            epoch: 5,
            kappa: 2,
            lambda: 0.5,
            ads: vec![AdSnapshot {
                id: 7,
                budget: 12.5,
                cpe: 1.25,
                seeds: vec![3, 1, 4],
                revenue_est: 11.0625,
            }],
            regret_estimate: 1.4375,
            total_rr_sets: 1000,
            engine_memory_bytes: 4096,
            stats: Default::default(),
        };
        let resps = [
            Response::Hello {
                version: PROTOCOL_VERSION,
                epoch: 12,
                wal_seq: 9,
                role: Role::Follower,
                fencing_epoch: 3,
            },
            Response::Accepted {
                epoch: 4,
                queue_depth: 2,
            },
            Response::Overloaded { queue_depth: 64 },
            Response::ShuttingDown,
            Response::Rejected {
                why: "bad \"quote\" and\nnewline".to_string(),
            },
            Response::Regret {
                epoch: 5,
                live_ads: 1,
                regret_estimate: 1.4375,
            },
            Response::Allocation(snap.clone()),
            Response::Ad {
                epoch: 5,
                ad: Some(snap.ads[0].clone()),
            },
            Response::Ad { epoch: 5, ad: None },
            Response::Stats(StatsView {
                epoch: 5,
                wal_seq: 4,
                live_ads: 1,
                total_seeds: 3,
                total_rr_sets: 1000,
                engine_memory_bytes: 4096,
                queue_depth: 1,
                max_queue_depth: 7,
                accepted: 40,
                shed: 2,
                rejected: 1,
                bad_requests: 3,
                connections: 5,
                role: Role::Follower,
                fencing_epoch: 2,
                leader_seq: 11,
                shed_total: 6,
                rejected_total: 2,
            }),
            Response::Metrics {
                json: "{\"counters\":{\"tirm_server_shed_total\":2},\"gauges\":{},\
                       \"histograms\":{}}"
                    .to_string(),
            },
            Response::TraceDump {
                json: "{\"traceEvents\":[{\"name\":\"apply\",\"cat\":\"lineage\",\
                       \"ph\":\"X\",\"ts\":1.5,\"dur\":2.25,\"pid\":1,\"tid\":0,\
                       \"args\":{\"trace\":41}}],\"displayTimeUnit\":\"ns\"}"
                    .to_string(),
            },
            Response::ReplicateFrames {
                fencing_epoch: 1,
                start_seq: 40,
                durable_seq: 44,
                trace_base: 41,
                frames: vec![
                    "{\"type\":\"topup\",\"id\":3,\"amount\":2.5}".to_string(),
                    "{\"type\":\"departure\",\"id\":3}".to_string(),
                ],
            },
            Response::ReplicateFrames {
                fencing_epoch: 0,
                start_seq: 44,
                durable_seq: 44,
                trace_base: 45,
                frames: vec![],
            },
            Response::ReplicateBootstrap {
                fencing_epoch: 2,
                checkpoint_seq: 128,
                total_bytes: 9000,
            },
            Response::ReplicateCheckpointChunk {
                checkpoint_seq: 128,
                offset: 4096,
                total_bytes: 9000,
                data_hex: hex_encode(&[0xde, 0xad, 0xbe, 0xef]),
            },
            Response::NotLeader {
                leader: "127.0.0.1:7401".to_string(),
            },
            Response::Promoting { fencing_epoch: 4 },
        ];
        for resp in resps {
            let text = resp.encode();
            let back = Response::decode(text.as_bytes()).unwrap();
            assert_eq!(back, resp, "{text}");
        }
    }

    #[test]
    fn metrics_response_embeds_the_dump_verbatim() {
        // The registry dump rides the frame as a JSON object, not an
        // escaped string: decode must hand back the same bytes.
        let json = "{\"counters\":{\"a\":1,\"b\":2},\"gauges\":{\"g\":7}}".to_string();
        let text = Response::Metrics { json: json.clone() }.encode();
        assert!(
            text.contains("\"metrics\":{\"counters\""),
            "dump must be embedded as an object: {text}"
        );
        match Response::decode(text.as_bytes()).unwrap() {
            Response::Metrics { json: back } => assert_eq!(back, json),
            other => panic!("wrong response: {other:?}"),
        }
        // A metrics payload that is not an object is a protocol error.
        assert!(Response::decode(b"{\"type\":\"metrics\",\"metrics\":3}").is_err());
        assert!(Response::decode(b"{\"type\":\"metrics\"}").is_err());
    }

    #[test]
    fn trace_dump_embeds_the_chrome_json_verbatim() {
        let json = "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\",\
                    \"otherData\":{\"pid\":7,\"records\":0,\"overwritten\":0,\"dropped\":0}}"
            .to_string();
        let text = Response::TraceDump { json: json.clone() }.encode();
        assert!(
            text.contains("\"trace\":{\"traceEvents\""),
            "dump must be embedded as an object: {text}"
        );
        match Response::decode(text.as_bytes()).unwrap() {
            Response::TraceDump { json: back } => assert_eq!(back, json),
            other => panic!("wrong response: {other:?}"),
        }
        assert!(Response::decode(b"{\"type\":\"trace_dump\",\"trace\":[]}").is_err());
        assert!(Response::decode(b"{\"type\":\"trace_dump\"}").is_err());
    }

    #[test]
    fn allocation_payload_is_bit_exact() {
        // The equivalence contract extends over the wire: floats decode
        // to the same bits they were encoded from.
        let snap = AllocationSnapshot {
            epoch: 1,
            kappa: 1,
            lambda: 0.1 + 0.2, // a value with no short decimal form
            ads: vec![AdSnapshot {
                id: 1,
                budget: 1.0 / 3.0,
                cpe: 2.0 / 7.0,
                seeds: vec![42],
                revenue_est: 0.123_456_789_012_345_67,
            }],
            regret_estimate: std::f64::consts::PI,
            total_rr_sets: 0,
            engine_memory_bytes: 0,
            stats: Default::default(),
        };
        let text = Response::Allocation(snap.clone()).encode();
        match Response::decode(text.as_bytes()).unwrap() {
            Response::Allocation(back) => {
                assert!(back.same_allocation(&snap), "wire round trip drifted");
                assert_eq!(back.lambda.to_bits(), snap.lambda.to_bits());
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn a_seed_past_u32_is_rejected_not_wrapped() {
        // 4294967301 = 2^32 + 5: narrowing with `as` read it as seed 5.
        let ad = |seeds: &str| {
            format!(
                "{{\"type\":\"ad\",\"epoch\":1,\"ad\":{{\"id\":1,\"budget\":1,\"cpe\":1,\
                 \"revenue_est\":0,\"seeds\":[{seeds}]}}}}"
            )
        };
        assert!(Response::decode(ad("4294967295").as_bytes()).is_ok());
        // One item that is not a `u32` makes the whole array mistyped.
        assert_eq!(
            Response::decode(ad("7,4294967301").as_bytes()).unwrap_err(),
            "missing `seeds`"
        );
    }

    #[test]
    fn a_kappa_past_u32_is_rejected_not_wrapped() {
        let snap = AllocationSnapshot {
            epoch: 1,
            kappa: u32::MAX,
            lambda: 0.0,
            ads: vec![],
            regret_estimate: 0.0,
            total_rr_sets: 0,
            engine_memory_bytes: 0,
            stats: Default::default(),
        };
        let text = Response::Allocation(snap).encode();
        assert!(Response::decode(text.as_bytes()).is_ok());
        let wrapped = text.replace("\"kappa\":4294967295", "\"kappa\":4294967301");
        assert_ne!(wrapped, text, "the fixture must change kappa");
        assert_eq!(
            Response::decode(wrapped.as_bytes()).unwrap_err(),
            "missing `kappa`"
        );
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // Oversized announced length is refused before allocation.
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());

        // Truncation mid-frame is an error, not silence.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"hello").unwrap();
        truncated.truncate(6);
        let mut r = &truncated[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let opts = ClientOptions::reconnecting(8);
        assert_eq!(opts.backoff(0), Duration::from_millis(50));
        assert_eq!(opts.backoff(1), Duration::from_millis(100));
        assert_eq!(opts.backoff(2), Duration::from_millis(200));
        assert_eq!(opts.backoff(10), opts.backoff_max, "capped");
        assert_eq!(opts.backoff(40), opts.backoff_max, "no shift overflow");
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_declusters() {
        let a = ClientOptions::reconnecting_jittered(8, 0xa11ce);
        let b = ClientOptions::reconnecting_jittered(8, 0xb0b);
        let plain = ClientOptions::reconnecting(8);
        for attempt in 0..12 {
            let full = plain.backoff(attempt);
            for opts in [&a, &b] {
                let j = opts.backoff(attempt);
                assert!(j <= full, "jitter never lengthens the backoff");
                assert!(
                    j >= full.mul_f64(0.5),
                    "jitter keeps at least half the backoff"
                );
                // Derived from (seed, attempt) only: same inputs, same
                // schedule.
                assert_eq!(j, opts.backoff(attempt));
            }
        }
        // Distinct client seeds de-cluster: the schedules must differ
        // somewhere (lockstep re-dials are the bug this fixes).
        assert!(
            (0..12).any(|i| a.backoff(i) != b.backoff(i)),
            "two seeds produced identical schedules"
        );
    }

    #[test]
    fn a_stats_body_without_role_is_rejected() {
        let full = Response::Stats(StatsView::default()).encode();
        assert!(Response::decode(full.as_bytes()).is_ok());
        let without_role = full.replace("\"role\":\"leader\",", "");
        assert_ne!(without_role, full, "the fixture must drop the field");
        assert_eq!(
            Response::decode(without_role.as_bytes()).unwrap_err(),
            "missing `role`"
        );
        // An unknown role is a decode error too, not a silent default.
        let observer = full.replace("\"role\":\"leader\"", "\"role\":\"observer\"");
        assert!(Response::decode(observer.as_bytes()).is_err());
    }

    #[test]
    fn follower_lag_is_leader_minus_local_frontier() {
        let s = StatsView {
            wal_seq: 90,
            leader_seq: 100,
            role: Role::Follower,
            ..StatsView::default()
        };
        assert_eq!(s.lag(), 10);
        let caught_up = StatsView {
            wal_seq: 100,
            leader_seq: 90, // stale leader observation
            ..StatsView::default()
        };
        assert_eq!(caught_up.lag(), 0, "saturates, never underflows");
    }

    #[test]
    fn replicate_frames_bodies_decode_as_events() {
        // The stream payload is the event vocabulary verbatim: each
        // frame body decodes through the shared codec.
        let resp = Response::ReplicateFrames {
            fencing_epoch: 1,
            start_seq: 5,
            durable_seq: 7,
            trace_base: 6,
            frames: vec![
                format!("{{{}}}", event_json_fields(&arrival())),
                "{\"type\":\"departure\",\"id\":7}".to_string(),
            ],
        };
        let text = resp.encode();
        match Response::decode(text.as_bytes()).unwrap() {
            Response::ReplicateFrames { frames, .. } => {
                assert_eq!(frames.len(), 2);
                let ev = Request::decode(frames[0].as_bytes()).unwrap();
                assert_eq!(ev, Request::Mutate(arrival()));
                let ev = Request::decode(frames[1].as_bytes()).unwrap();
                assert_eq!(ev, Request::Mutate(OnlineEvent::AdDeparture { id: 7 }));
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let hex = hex_encode(&bytes);
        assert_eq!(hex.len(), 512);
        assert_eq!(hex_decode(&hex).unwrap(), bytes);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "bad digit");
    }

    #[test]
    fn roles_round_trip_names() {
        for role in [Role::Leader, Role::Follower] {
            assert_eq!(Role::parse(role.name()), Some(role));
        }
        assert_eq!(Role::parse("observer"), None);
        assert_eq!(Role::default(), Role::Leader);
    }
}
