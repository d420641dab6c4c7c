//! # tirm-online
//!
//! The **online allocation engine**: a long-lived serving layer that
//! keeps the paper's key asset — the per-ad RR-set index — alive across
//! campaign churn. The paper's batch experiments rebuild everything per
//! run; a host serving real traffic sees ads *arrive* with fresh budgets,
//! get *topped up*, and *depart*, while the reverse-reachability capital
//! (§5) stays reusable. This crate makes that explicit:
//!
//! * [`events`] — the deterministic event vocabulary
//!   ([`OnlineEvent`]: `AdArrival`, `BudgetTopUp`, `AdDeparture`,
//!   `Reallocate`, `RegretQuery`) and outcomes.
//! * [`allocator`] — [`OnlineAllocator`], owning a **sharded inverted RR
//!   index** (one [`tirm_rrset::RrIndex`] shard per ad: node → RR-set
//!   postings). Each reconciliation is one warm TIRM run over every live
//!   ad: it reuses the ads' postings, and each ad replays its greedy
//!   trajectory from the last run up to the first step that another
//!   ad's change or its own budget can alter.
//! * [`pool`] — the [`RetainedPool`] departed shards are released into
//!   (bounded bytes, oldest-first eviction, topic-fingerprint
//!   invalidation).
//! * [`snapshot`] — [`AllocationSnapshot`], the immutable read-model a
//!   serving frontend publishes after every applied batch
//!   ([`OnlineAllocator::snapshot`] extracts one in O(live ads + seeds));
//!   readers answer queries from it without ever touching the allocator.
//!
//! **Correctness anchor:** replaying any event log produces allocations
//! bit-identical to batch [`tirm_core::tirm_allocate_seeded`] on the
//! live ad set — the online path changes *where RR sets come from*
//! (cached postings vs fresh graph walks), never what is computed.
//! Property-tested in `tests/replay_equivalence.rs`.

pub mod allocator;
pub mod events;
pub mod pool;
pub mod snapshot;

pub use allocator::checkpoint::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use allocator::{OnlineAllocator, OnlineConfig, OnlineStats};
pub use events::{AdId, EventKind, EventOutcome, OnlineError, OnlineEvent};
pub use pool::RetainedPool;
pub use snapshot::{AdSnapshot, AllocationSnapshot};
