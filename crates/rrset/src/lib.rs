//! # tirm-rrset
//!
//! Reverse-reachable (RR) set machinery (§5 of the paper):
//!
//! * [`sampler`] — random RR-set generation by reverse BFS with per-arc
//!   coin flips, plus the CTP-aware **RRC** variant of §5.2 (node-level
//!   acceptance coins; blocked nodes still propagate).
//! * [`index`] — [`RrIndex`], the flat RR-set storage + inverted
//!   node→set-id postings shared by every coverage overlay, with exact
//!   memory accounting. Persistent: the online serving layer keeps one
//!   per ad alive across re-allocations.
//! * [`collection`] — growing collection of RR sets over an [`RrIndex`]
//!   with marginal coverage counts and `cover` operations (the Max-Cover
//!   primitive TIM and TIRM both use).
//! * [`parallel`] — the deterministic multi-threaded sampling engine
//!   ([`ParallelSampler`]): θ samples sharded over persistent per-thread
//!   RNG/workspace pairs, merged contention-free in shard order. Same
//!   `(seed, threads)` ⇒ identical collections; `threads = 1` is
//!   bit-identical to the serial path.
//! * [`heap`] — lazy max-heaps for CELF-style best-node selection.
//! * [`tim`] — the TIM sample-size machinery: KPT estimation,
//!   `λ(s, ε)` / `L(s, ε)` bounds (Eq. 5) and a complete TIM influence
//!   maximizer used for validation and as a substrate baseline.
//! * [`special`] — `ln Γ`, `ln C(n, s)` helpers the bounds need.

pub mod collection;
pub mod fastpath;
pub mod heap;
pub mod index;
pub mod parallel;
pub mod sampler;
pub mod special;
pub mod tim;
pub mod weighted;

pub use collection::RrCollection;
pub use fastpath::{coin_threshold, FastPath, SamplingLayout};
pub use heap::LazyMaxHeap;
pub use index::{Postings, RrIndex};
pub use parallel::{ParallelSampler, RrArena, RrSink, SamplingConfig};
pub use sampler::{RrSampler, SampleWorkspace};
pub use tim::{tim_select, tim_select_with, KptEstimator, KptState, SampleBound, TimResult};
pub use weighted::{score_key, WeightedRrCollection};
