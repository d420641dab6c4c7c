//! `tirm_obs`: zero-perturbation observability for the tirm stack.
//!
//! A process-wide metrics registry (sharded atomic [`Counter`]s,
//! [`Gauge`]s, fixed-bucket log2 [`Histogram`]s) and two exposition
//! renderers (Prometheus text in [`prom`], a deterministic JSON dump in
//! [`registry`]) served over std TCP by [`http`].
//!
//! # Out-of-band by construction
//!
//! The serving stack's correctness anchors are bit-identity properties:
//! wire replay ≡ in-process replay, recovery replay ≡ the pre-crash
//! state, follower state ≡ leader state. Instrumentation therefore obeys
//! one rule: **metrics are write-only from instrumented code**. Nothing
//! reads a counter to pick a code path, size a buffer, or time out a
//! loop; exposition happens on dedicated threads that only read. With
//! that discipline, enabling metrics cannot change any allocation
//! decision — enforced by run-twice tests at the server layer.
//!
//! Hot-path cost is bounded the same way: recording is a handful of
//! relaxed atomic adds on pre-allocated statics (no locks, no
//! allocation), and per-item instrumentation lives at batch granularity
//! (per sampler call, per WAL group commit, per event apply) rather than
//! inside inner loops.
//!
//! The [`flight`] module extends the same discipline from aggregates to
//! *lineage*: per-mutation lifecycle stage records (admit → queue →
//! wal_append → fsync → apply → publish → replication) written into
//! fixed-size per-thread ring buffers, keyed by a trace id derived from
//! the mutation's WAL position so timelines join up across processes.

pub mod flight;
pub mod http;
pub mod metric;
pub mod prom;
pub mod registry;
pub mod sample;

pub use flight::{FlightEvent, Stage};
pub use metric::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, COUNTER_SHARDS,
    HISTOGRAM_BUCKETS,
};
pub use registry::{dump_json, snapshot, RegistrySnapshot};
pub use sample::SampleHistogram;
