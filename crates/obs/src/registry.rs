//! The process-wide metric inventory.
//!
//! Metrics are plain `static` items — no registration, no lazy init, no
//! allocation — and the inventory below is the single source of truth
//! for both exposition surfaces (Prometheus text and the JSON dump
//! carried by the `metrics` wire request). Adding a metric means adding
//! a static and one inventory row; the renderers, the wire surface, and
//! the soak scrapes pick it up automatically.
//!
//! Naming follows Prometheus conventions: `tirm_<layer>_<what>[_total]`,
//! nanosecond histograms suffixed `_ns`.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

// ---------------------------------------------------------------------
// Sampler (tirm_rrset / tirm_core).
// ---------------------------------------------------------------------

/// RR sets materialized by the parallel sampler (both RR and RRC modes).
pub static RR_SETS_SAMPLED: Counter = Counter::new();
/// High-water mark of one RR index's bytes (its packed sets and its
/// postings CSR), taken at each `memory_bytes` read. The series keeps
/// its `arena` name.
pub static RR_ARENA_BYTES: Gauge = Gauge::new();
/// Per-run relabel decisions that chose scale-aware mark relabeling.
pub static RELABEL_SCALE_AWARE: Counter = Counter::new();
/// Per-run relabel decisions that kept the identity layout.
pub static RELABEL_IDENTITY: Counter = Counter::new();
/// `KptEstimator::estimate` calls answered from the per-ad answer table.
pub static KPT_ESTIMATE_HITS: Counter = Counter::new();
/// `KptEstimator::estimate` calls that summed the width cache.
pub static KPT_ESTIMATE_MISSES: Counter = Counter::new();
/// `FastPath` threshold tables gathered (by the first draw through each).
pub static FASTPATH_BUILDS: Counter = Counter::new();
/// Wall time of one `tirm_run` split by phase, one record per phase per
/// run, in [`CORE_PHASES`] order. The phases partition the run: they sum
/// to its wall time.
pub static CORE_PHASE_NS: [Histogram; CORE_PHASES.len()] =
    [const { Histogram::new() }; CORE_PHASES.len()];
/// The `phase` labels of [`CORE_PHASE_NS`], in index order.
pub const CORE_PHASES: [&str; 8] = [
    "kpt_estimate",
    "table_build",
    "theta_sample",
    "heap_build",
    "select",
    "commit",
    "grow",
    "other",
];

// ---------------------------------------------------------------------
// Online allocator (tirm_online).
// ---------------------------------------------------------------------

/// `process()` latency for `AdArrival` events.
static APPLY_LATENCY_ARRIVAL: Histogram = Histogram::new();
/// `process()` latency for `BudgetTopUp` events.
static APPLY_LATENCY_TOPUP: Histogram = Histogram::new();
/// `process()` latency for `AdDeparture` events.
static APPLY_LATENCY_DEPARTURE: Histogram = Histogram::new();
/// `process()` latency for `Reallocate` events.
static APPLY_LATENCY_REALLOCATE: Histogram = Histogram::new();
/// `process()` latency for `RegretQuery` events.
static APPLY_LATENCY_REGRET_QUERY: Histogram = Histogram::new();
/// Reconciliations whose allocation leaves every user below κ (see
/// `OnlineStats::delta_reallocations`).
pub static DELTA_RECONCILIATIONS: Counter = Counter::new();
/// Reconciliations whose allocation leaves some user at κ.
pub static FULL_RECONCILIATIONS: Counter = Counter::new();
/// Reconciliations whose run replayed some ad from the previous run's
/// record.
pub static RESUMED_RECONCILIATIONS: Counter = Counter::new();
/// Commits each reconciliation took from the record instead of
/// re-running them.
pub static RESUME_SKIPPED_STEPS: Histogram = Histogram::new();
/// Departed-ad shards evicted from the retained pool.
pub static POOL_EVICTIONS: Counter = Counter::new();
/// Departed-ad shards reclaimed warm on re-arrival.
pub static POOL_RECLAIMS: Counter = Counter::new();
/// Bytes the retained pool holds, parked, as of the last publish.
pub static POOL_BYTES: Gauge = Gauge::new();
/// Shards the retained pool holds as of the last publish.
pub static POOLED_SHARDS: Gauge = Gauge::new();
/// Wall time one checkpoint restore spent re-running its shards' streams.
pub static RESTORE_REGENERATE_NS: Histogram = Histogram::new();
/// RR sets and KPT samples redrawn by checkpoint restores.
pub static RESTORE_SETS_REGENERATED: Counter = Counter::new();

// ---------------------------------------------------------------------
// Serving (tirm_server).
// ---------------------------------------------------------------------

/// Mutations admitted into the writer queue.
pub static SERVER_ACCEPTED: Counter = Counter::new();
/// Mutations shed at admission (queue full).
pub static SERVER_SHED: Counter = Counter::new();
/// Events rejected by the allocator (invalid ids/payloads).
pub static SERVER_REJECTED: Counter = Counter::new();
/// High-water mark of the writer queue depth.
pub static SERVER_QUEUE_HIGH_WATER: Gauge = Gauge::new();
/// Allocation snapshots published to the lock-free reader swap.
pub static SNAPSHOT_PUBLISHES: Counter = Counter::new();
/// `allocation` response bodies rendered (at most one per published
/// epoch, by its first `allocation` read).
pub static SERVER_ALLOCATION_RENDERS: Counter = Counter::new();
/// Per-frame WAL append (buffered write) latency.
pub static WAL_APPEND_LATENCY_NS: Histogram = Histogram::new();
/// WAL group-commit fsync latency.
pub static WAL_FSYNC_LATENCY_NS: Histogram = Histogram::new();
/// Frames per WAL group commit.
pub static WAL_BATCH_EVENTS: Histogram = Histogram::new();
/// Checkpoint write wall time.
pub static CHECKPOINT_WALL_NS: Histogram = Histogram::new();
/// Size of the newest checkpoint file written.
pub static CHECKPOINT_BYTES: Gauge = Gauge::new();

// ---------------------------------------------------------------------
// Replication.
// ---------------------------------------------------------------------

/// Durable frames shipped to followers via `replicate_poll`.
pub static REPL_FRAMES_SHIPPED: Counter = Counter::new();
/// `replicate_poll` requests a durable leader took up (answered with
/// frames, an empty page or a bootstrap pivot); counted before any
/// hold, so the idle poll rate reads off it.
pub static REPL_POLLS: Counter = Counter::new();
/// How long the leader held each caught-up `replicate_poll` before its
/// durable frontier advanced, it stopped, or the poll's wait ran out.
pub static REPL_POLL_PARKED_NS: Histogram = Histogram::new();
/// Replication requests rejected by fencing-epoch checks.
pub static REPL_FENCED_REJECTS: Counter = Counter::new();
/// Follower bootstrap attempts that failed and were retried.
pub static REPL_BOOTSTRAP_RETRIES: Counter = Counter::new();
/// Follower's current lag behind the leader, in frames.
pub static REPL_FOLLOWER_LAG: Gauge = Gauge::new();

// ---------------------------------------------------------------------
// Flight recorder (tirm_obs::flight).
// ---------------------------------------------------------------------

/// Lifecycle stage records written into the flight rings.
pub static FLIGHT_RECORDS: Counter = Counter::new();
/// Stage records that overwrote an older ring entry (ring wrapped).
pub static FLIGHT_OVERWRITTEN: Counter = Counter::new();
/// Stage records dropped because every ring slot was claimed.
pub static FLIGHT_DROPPED: Counter = Counter::new();

// ---------------------------------------------------------------------
// Process identity.
// ---------------------------------------------------------------------

/// Seconds since the flight-recorder epoch (first instrumented event or
/// explicit [`crate::flight::now_ns`] touch); refreshed at snapshot time.
static PROCESS_UPTIME_SECONDS: Gauge = Gauge::new();
/// Wire protocol version label of `tirm_build_info`; set by the serving
/// layer at startup (the obs crate cannot depend on `tirm_wire`).
pub static BUILD_PROTOCOL_VERSION: Gauge = Gauge::new();
/// Durable schema (WAL) version label of `tirm_build_info`; set by the
/// serving layer at startup.
pub static BUILD_SCHEMA_VERSION: Gauge = Gauge::new();

/// Git commit this binary was built from (captured by the obs build
/// script; `"unknown"` outside a git checkout).
const GIT_SHA: &str = env!("TIRM_GIT_SHA");

/// Counter inventory: `(family, label `(key, value)` or None, help,
/// counter)`. Rows sharing a family must be contiguous, as for
/// [`HISTOGRAMS`].
#[allow(clippy::type_complexity)]
static COUNTERS: &[(&str, Option<(&str, &str)>, &str, &Counter)] = &[
    (
        "tirm_rrset_rr_sets_sampled_total",
        None,
        "RR sets materialized by the parallel sampler",
        &RR_SETS_SAMPLED,
    ),
    (
        "tirm_rrset_relabel_scale_aware_total",
        None,
        "Sampler runs that chose scale-aware mark relabeling",
        &RELABEL_SCALE_AWARE,
    ),
    (
        "tirm_rrset_relabel_identity_total",
        None,
        "Sampler runs that kept the identity vertex layout",
        &RELABEL_IDENTITY,
    ),
    (
        "tirm_kpt_estimates_total",
        Some(("result", "hit")),
        "KptEstimator::estimate calls, by whether the per-ad answer table had the answer",
        &KPT_ESTIMATE_HITS,
    ),
    (
        "tirm_kpt_estimates_total",
        Some(("result", "miss")),
        "KptEstimator::estimate calls, by whether the per-ad answer table had the answer",
        &KPT_ESTIMATE_MISSES,
    ),
    (
        "tirm_fastpath_builds_total",
        None,
        "FastPath threshold tables gathered by a first draw",
        &FASTPATH_BUILDS,
    ),
    (
        "tirm_online_delta_reconciliations_total",
        None,
        "Reconciliations leaving every user below the attention bound",
        &DELTA_RECONCILIATIONS,
    ),
    (
        "tirm_online_full_reconciliations_total",
        None,
        "Reconciliations leaving some user at the attention bound",
        &FULL_RECONCILIATIONS,
    ),
    (
        "tirm_online_resumed_reconciliations_total",
        None,
        "Reconciliations that replayed some ad from the previous run's record",
        &RESUMED_RECONCILIATIONS,
    ),
    (
        "tirm_online_pool_evictions_total",
        None,
        "Departed-ad shards evicted from the retained pool",
        &POOL_EVICTIONS,
    ),
    (
        "tirm_online_pool_reclaims_total",
        None,
        "Departed-ad shards reclaimed warm on re-arrival",
        &POOL_RECLAIMS,
    ),
    (
        "tirm_online_restore_sets_regenerated_total",
        None,
        "RR sets and KPT samples redrawn by checkpoint restores",
        &RESTORE_SETS_REGENERATED,
    ),
    (
        "tirm_server_accepted_total",
        None,
        "Mutations admitted into the writer queue",
        &SERVER_ACCEPTED,
    ),
    (
        "tirm_server_shed_total",
        None,
        "Mutations shed at admission because the queue was full",
        &SERVER_SHED,
    ),
    (
        "tirm_server_rejected_total",
        None,
        "Events rejected by the allocator",
        &SERVER_REJECTED,
    ),
    (
        "tirm_server_snapshot_publishes_total",
        None,
        "Allocation snapshots published to the reader swap",
        &SNAPSHOT_PUBLISHES,
    ),
    (
        "tirm_server_allocation_renders_total",
        None,
        "Bodies rendered for allocation reads, at most one per published epoch",
        &SERVER_ALLOCATION_RENDERS,
    ),
    (
        "tirm_repl_frames_shipped_total",
        None,
        "Durable WAL frames shipped to followers",
        &REPL_FRAMES_SHIPPED,
    ),
    (
        "tirm_repl_polls_total",
        None,
        "replicate_poll requests taken up by this leader",
        &REPL_POLLS,
    ),
    (
        "tirm_repl_fenced_rejects_total",
        None,
        "Replication requests rejected by fencing-epoch checks",
        &REPL_FENCED_REJECTS,
    ),
    (
        "tirm_repl_bootstrap_retries_total",
        None,
        "Follower bootstrap attempts that failed and were retried",
        &REPL_BOOTSTRAP_RETRIES,
    ),
    (
        "tirm_flight_records_total",
        None,
        "Lifecycle stage records written into the flight rings",
        &FLIGHT_RECORDS,
    ),
    (
        "tirm_flight_records_overwritten_total",
        None,
        "Flight records that overwrote an older ring entry",
        &FLIGHT_OVERWRITTEN,
    ),
    (
        "tirm_flight_records_dropped_total",
        None,
        "Flight records dropped because every ring slot was claimed",
        &FLIGHT_DROPPED,
    ),
];

/// Gauge inventory: `(name, help, gauge)`.
static GAUGES: &[(&str, &str, &Gauge)] = &[
    (
        "tirm_rrset_arena_bytes_high_water",
        "High-water mark of one RR index's bytes: packed sets plus postings CSR",
        &RR_ARENA_BYTES,
    ),
    (
        "tirm_online_pool_bytes",
        "Bytes the retained pool holds, parked, as of the last publish",
        &POOL_BYTES,
    ),
    (
        "tirm_online_pooled_shards",
        "Shards the retained pool holds as of the last publish",
        &POOLED_SHARDS,
    ),
    (
        "tirm_server_queue_depth_high_water",
        "High-water mark of the writer queue depth",
        &SERVER_QUEUE_HIGH_WATER,
    ),
    (
        "tirm_server_checkpoint_bytes",
        "Size of the newest checkpoint file written (bytes)",
        &CHECKPOINT_BYTES,
    ),
    (
        "tirm_repl_follower_lag_frames",
        "Follower lag behind the leader, in frames",
        &REPL_FOLLOWER_LAG,
    ),
    (
        "tirm_process_uptime_seconds",
        "Seconds since the process flight epoch",
        &PROCESS_UPTIME_SECONDS,
    ),
];

/// The [`HISTOGRAMS`] row of phase `i` of [`CORE_PHASES`].
macro_rules! phase_row {
    ($i:expr) => {
        (
            "tirm_core_phase_ns",
            Some(("phase", CORE_PHASES[$i])),
            "tirm_run wall time by phase, one record per run (ns)",
            &CORE_PHASE_NS[$i],
        )
    };
}

/// Histogram inventory: `(family, label `(key, value)` or None, help,
/// histogram)`. Rows sharing a family must be contiguous — the
/// Prometheus renderer emits one HELP/TYPE header per family run.
#[allow(clippy::type_complexity)]
static HISTOGRAMS: &[(&str, Option<(&str, &str)>, &str, &Histogram)] = &[
    phase_row!(0),
    phase_row!(1),
    phase_row!(2),
    phase_row!(3),
    phase_row!(4),
    phase_row!(5),
    phase_row!(6),
    phase_row!(7),
    (
        "tirm_online_apply_latency_ns",
        Some(("kind", "arrival")),
        "Allocator process() latency by event kind (ns)",
        &APPLY_LATENCY_ARRIVAL,
    ),
    (
        "tirm_online_apply_latency_ns",
        Some(("kind", "topup")),
        "Allocator process() latency by event kind (ns)",
        &APPLY_LATENCY_TOPUP,
    ),
    (
        "tirm_online_apply_latency_ns",
        Some(("kind", "departure")),
        "Allocator process() latency by event kind (ns)",
        &APPLY_LATENCY_DEPARTURE,
    ),
    (
        "tirm_online_apply_latency_ns",
        Some(("kind", "reallocate")),
        "Allocator process() latency by event kind (ns)",
        &APPLY_LATENCY_REALLOCATE,
    ),
    (
        "tirm_online_apply_latency_ns",
        Some(("kind", "regret_query")),
        "Allocator process() latency by event kind (ns)",
        &APPLY_LATENCY_REGRET_QUERY,
    ),
    (
        "tirm_online_resume_skipped_steps",
        None,
        "Commits a reconciliation took from the previous run's record",
        &RESUME_SKIPPED_STEPS,
    ),
    (
        "tirm_online_restore_regenerate_ns",
        None,
        "Time a checkpoint restore spent re-running its shards' streams (ns)",
        &RESTORE_REGENERATE_NS,
    ),
    (
        "tirm_server_wal_append_latency_ns",
        None,
        "Per-frame WAL append latency (ns)",
        &WAL_APPEND_LATENCY_NS,
    ),
    (
        "tirm_server_wal_fsync_latency_ns",
        None,
        "WAL group-commit fsync latency (ns)",
        &WAL_FSYNC_LATENCY_NS,
    ),
    (
        "tirm_server_wal_batch_events",
        None,
        "Frames per WAL group commit",
        &WAL_BATCH_EVENTS,
    ),
    (
        "tirm_server_checkpoint_wall_ns",
        None,
        "Checkpoint write wall time (ns)",
        &CHECKPOINT_WALL_NS,
    ),
    (
        "tirm_repl_poll_parked_ns",
        None,
        "Time a caught-up replicate_poll was held at the leader (ns)",
        &REPL_POLL_PARKED_NS,
    ),
];

/// The apply-latency histogram for an event-kind name (as produced by
/// `tirm_online::EventKind::name()`), if known.
pub fn apply_latency_for(kind_name: &str) -> Option<&'static Histogram> {
    match kind_name {
        "arrival" => Some(&APPLY_LATENCY_ARRIVAL),
        "topup" => Some(&APPLY_LATENCY_TOPUP),
        "departure" => Some(&APPLY_LATENCY_DEPARTURE),
        "reallocate" => Some(&APPLY_LATENCY_REALLOCATE),
        "regret_query" => Some(&APPLY_LATENCY_REGRET_QUERY),
        _ => None,
    }
}

/// Build identity carried by a [`RegistrySnapshot`], rendered as the
/// `tirm_build_info` gauge family (value constant 1, identity in the
/// labels — the standard Prometheus *_info idiom).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildInfo {
    /// Git commit sha (or `"unknown"`).
    pub git_sha: &'static str,
    /// Wire protocol version (0 until the serving layer sets it).
    pub protocol_version: u64,
    /// Durable schema (WAL) version (0 until the serving layer sets it).
    pub schema_version: u64,
}

/// Point-in-time copy of every registry metric, in inventory order.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// `(family, label, help, value)` per counter.
    #[allow(clippy::type_complexity)]
    pub counters: Vec<(
        &'static str,
        Option<(&'static str, &'static str)>,
        &'static str,
        u64,
    )>,
    /// `(name, help, value)` per gauge.
    pub gauges: Vec<(&'static str, &'static str, u64)>,
    /// `(family, label, help, snapshot)` per histogram.
    #[allow(clippy::type_complexity)]
    pub histograms: Vec<(
        &'static str,
        Option<(&'static str, &'static str)>,
        &'static str,
        HistogramSnapshot,
    )>,
    /// Build identity (`tirm_build_info` labels).
    pub build: BuildInfo,
}

/// Snapshots the whole registry.
pub fn snapshot() -> RegistrySnapshot {
    // Uptime is refreshed on the exposition path only — instrumented
    // code never reads it, preserving the write-only invariant.
    PROCESS_UPTIME_SECONDS.set(crate::flight::now_ns() / 1_000_000_000);
    RegistrySnapshot {
        counters: COUNTERS
            .iter()
            .map(|(f, l, h, c)| (*f, *l, *h, c.get()))
            .collect(),
        gauges: GAUGES.iter().map(|(n, h, g)| (*n, *h, g.get())).collect(),
        histograms: HISTOGRAMS
            .iter()
            .map(|(f, l, h, hist)| (*f, *l, *h, hist.snapshot()))
            .collect(),
        build: BuildInfo {
            git_sha: GIT_SHA,
            protocol_version: BUILD_PROTOCOL_VERSION.get(),
            schema_version: BUILD_SCHEMA_VERSION.get(),
        },
    }
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Display name of one counter or histogram row: the family, plus the
/// label in Prometheus selector form when present
/// (`tirm_online_apply_latency_ns{kind="arrival"}`).
fn series_display_name(family: &str, label: Option<(&str, &str)>) -> String {
    match label {
        Some((k, v)) => format!("{family}{{{k}=\"{v}\"}}"),
        None => family.to_string(),
    }
}

impl RegistrySnapshot {
    /// Renders the snapshot as a single deterministic JSON object.
    ///
    /// All values are integers, and consumers that parse-and-re-emit
    /// through the vendored order-preserving `serde_json` reproduce
    /// these bytes exactly (the `metrics` wire response carries the
    /// text itself, as it was sent). Histogram buckets are sparse
    /// `[bucket_index, count]` pairs (see
    /// [`crate::metric::bucket_index`] for the layout).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"counters\":{");
        for (i, (family, label, _, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(&series_display_name(family, *label), &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, _, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(name, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (family, label, _, snap)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(&series_display_name(family, *label), &mut out);
            out.push_str(&format!(
                "\":{{\"count\":{},\"sum\":{},\"exemplar\":[{},{}],\"buckets\":[",
                snap.count, snap.sum, snap.exemplar_value, snap.exemplar_trace
            ));
            let mut first = true;
            for (b, c) in snap.counts.iter().enumerate() {
                if *c > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!("[{b},{c}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("},\"build\":{\"git_sha\":\"");
        json_escape(self.build.git_sha, &mut out);
        out.push_str(&format!(
            "\",\"protocol_version\":{},\"schema_version\":{}}}}}",
            self.build.protocol_version, self.build.schema_version
        ));
        out
    }
}

/// Snapshots the registry and renders it as JSON (the payload of the
/// `metrics` wire response and the `--metrics-json` shutdown dump).
pub fn dump_json() -> String {
    snapshot().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = COUNTERS
            .iter()
            .map(|(f, l, _, _)| series_display_name(f, *l))
            .chain(GAUGES.iter().map(|(n, _, _)| n.to_string()))
            .chain(
                HISTOGRAMS
                    .iter()
                    .map(|(f, l, _, _)| series_display_name(f, *l)),
            )
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric names in inventory");
        for (n, _, _, _) in COUNTERS {
            assert!(n.starts_with("tirm_"), "{n}");
            assert!(n.ends_with("_total"), "counter {n} must end in _total");
        }
        for (n, _, _) in GAUGES {
            assert!(n.starts_with("tirm_"), "{n}");
        }
        let phase_rows = HISTOGRAMS
            .iter()
            .filter(|(f, _, _, _)| *f == "tirm_core_phase_ns")
            .count();
        assert_eq!(phase_rows, CORE_PHASES.len(), "one row per phase");
        // Family runs must be contiguous for the Prometheus renderer.
        let counter_families = COUNTERS.iter().map(|(f, _, _, _)| *f);
        let histogram_families = HISTOGRAMS.iter().map(|(f, _, _, _)| *f);
        let mut seen: Vec<&str> = Vec::new();
        for f in counter_families.chain(histogram_families) {
            if seen.last() != Some(&f) {
                assert!(!seen.contains(&f), "family {f} split across inventory");
                seen.push(f);
            }
        }
    }

    #[test]
    fn apply_latency_lookup_covers_all_kinds() {
        for k in [
            "arrival",
            "topup",
            "departure",
            "reallocate",
            "regret_query",
        ] {
            assert!(apply_latency_for(k).is_some(), "{k}");
        }
        assert!(apply_latency_for("bogus").is_none());
    }

    #[test]
    fn json_dump_parses_and_reserializes_identically() {
        // Touch a few metrics so the dump is non-trivial; the registry is
        // process-global so other tests' traffic is fine too.
        RR_SETS_SAMPLED.add(3);
        RR_ARENA_BYTES.set_max(1 << 20);
        WAL_FSYNC_LATENCY_NS.record(12_345);
        let dump = dump_json();
        let v: serde_json::Value = serde_json::from_str(&dump).expect("dump is valid JSON");
        // The vendored serde_json preserves object insertion order and the
        // dump is all-integer, so re-serialization is byte-identical. The
        // `metrics` wire response depends on this.
        assert_eq!(serde_json::to_string(&v).unwrap(), dump);
        let counters = v.get("counters").and_then(|c| c.as_object()).unwrap();
        assert!(counters
            .iter()
            .any(|(k, _)| k.as_str() == "tirm_rrset_rr_sets_sampled_total"));
        let hists = v.get("histograms").and_then(|h| h.as_object()).unwrap();
        assert!(hists
            .iter()
            .any(|(k, _)| k.as_str() == "tirm_server_wal_fsync_latency_ns"));
        let build = v.get("build").and_then(|b| b.as_object()).unwrap();
        assert!(build.iter().any(|(k, _)| k.as_str() == "git_sha"));
        let fsync = hists
            .iter()
            .find(|(k, _)| k.as_str() == "tirm_server_wal_fsync_latency_ns")
            .map(|(_, v)| v)
            .unwrap();
        let ex = fsync.get("exemplar").and_then(|e| e.as_array()).unwrap();
        assert_eq!(ex.len(), 2, "exemplar is a [value, trace] pair");
    }

    #[test]
    fn build_info_and_uptime_are_exposed() {
        assert!(!GIT_SHA.is_empty(), "build script must always set a sha");
        BUILD_PROTOCOL_VERSION.set(4);
        BUILD_SCHEMA_VERSION.set(1);
        let snap = snapshot();
        assert_eq!(snap.build.git_sha, GIT_SHA);
        assert_eq!(snap.build.protocol_version, 4);
        assert_eq!(snap.build.schema_version, 1);
        assert!(snap
            .gauges
            .iter()
            .any(|(n, _, _)| *n == "tirm_process_uptime_seconds"));
    }
}
