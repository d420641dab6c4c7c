//! # tirm-server
//!
//! The **network serving frontend** over the online allocation engine:
//! the paper frames TIRM as the allocation core of a social-ad serving
//! platform, and this crate is the request/response boundary that makes
//! the reproduction one — a std-only multithreaded TCP server fronting
//! [`tirm_online::OnlineAllocator`] with a length-prefixed JSON wire
//! protocol.
//!
//! * [`protocol`] — the wire vocabulary, re-exported from the shared
//!   [`tirm_wire`] crate (one codec for the server and every client):
//!   mutation requests *are* event log lines (shared codec with
//!   `tirm_workloads::events`), reads are `allocation` / `ad` /
//!   `regret_query` / `stats`, a versioned `hello` handshake carries
//!   the recovery anchors, responses are typed (`accepted` /
//!   `overloaded` / `shutting_down` / payloads).
//! * [`wal`] — the durability layer: a segmented write-ahead log of
//!   admitted mutations (group-commit fsync), allocator checkpoints
//!   through the checksummed snapshot container, and the recovery
//!   scan that rebuilds a server from checkpoint + log tail.
//! * `durable` (private) — the one owner of a process's replicated
//!   state and the one open → append → fsync → apply → publish →
//!   checkpoint sequence that a leader's writer, a follower's apply
//!   loop and a restart all go through.
//! * [`swap`] — the snapshot-swap cell: the writer publishes an
//!   immutable [`tirm_online::AllocationSnapshot`] after every applied
//!   batch; readers serve queries from a cached `Arc` without ever
//!   blocking on allocator work.
//! * [`server`] — [`serve`]: one writer thread owns the allocator and
//!   drains a **bounded** MPSC queue; admission control sheds mutations
//!   with a typed `Overloaded` response when the queue is full (the
//!   accept path never blocks on the writer), and the drain-then-close
//!   shutdown applies every admitted mutation before exit.
//! * [`client`] — a blocking client ([`Client`]) for load generators
//!   and harnesses, including the retry-on-overload deterministic
//!   delivery mode.
//!
//! **Correctness anchor:** replaying an event log through the server
//! (mutations over the wire, in order) lands on a final
//! `AllocationSnapshot` bit-identical — allocations *and* revenue
//! estimates — to `tirm_online` replaying the same log in-process.
//! Property-tested in `tests/wire_equivalence.rs`.

pub mod client;
mod durable;
pub mod replica;
pub mod server;
pub mod swap;
pub mod wal;

use tirm_online::OnlineConfig;
use tirm_workloads::{tirm_options, DatasetKind, ScaleConfig};

/// The serving stack's canonical allocator configuration for a dataset
/// at a scale — the exact derivation the `tirm_server` binary uses
/// (quality-tier ε and θ-cap, `ScaleConfig` thread count, the perf
/// suite's θ-cap scaling). Out-of-process harnesses (the crash soak,
/// replay oracles) build the same config so their in-process replays
/// are bit-comparable to a served instance.
pub fn serving_online_config(
    dataset: DatasetKind,
    scale: &ScaleConfig,
    kappa: u32,
    lambda: f64,
    seed: u64,
) -> OnlineConfig {
    let mut tirm = tirm_options(dataset.is_quality(), seed);
    tirm.threads = scale.threads;
    tirm.scale_theta_cap(scale.scale);
    OnlineConfig {
        tirm,
        kappa,
        lambda,
        ..OnlineConfig::default()
    }
}

/// The wire vocabulary lives in the shared [`tirm_wire`] crate; this
/// alias keeps the crate-local `protocol` paths working.
pub use tirm_wire as protocol;

pub use client::{CheckpointChunk, Client, HelloInfo};
pub use protocol::{
    ClientOptions, Request, Response, Role, StatsView, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
pub use replica::FollowConfig;
pub use server::{serve, ServeReport, ServerConfig, ServerHandle, WriterStep};
pub use swap::{SnapshotReader, SnapshotSwap};
pub use wal::{RecoveryReport, RecoveryWarning, ReplicaBatch, Wal};
