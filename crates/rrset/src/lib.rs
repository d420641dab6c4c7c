//! # tirm-rrset
//!
//! Reverse-reachable (RR) set machinery (§5 of the paper):
//!
//! * [`sampler`] — random RR-set generation by reverse BFS with per-arc
//!   coin flips, plus the CTP-aware **RRC** variant of §5.2 (node-level
//!   acceptance coins; blocked nodes still propagate).
//! * [`index`] — [`RrIndex`], the RR-set storage (member ids and set
//!   offsets bit-packed at the widths `n` and the entry count need) +
//!   inverted node→set-id postings under the coverage overlay, with
//!   exact memory accounting. Persistent: the online serving layer
//!   keeps one per ad alive across re-allocations.
//! * [`weighted`] — [`WeightedRrCollection`], the one coverage overlay:
//!   per-set survival weights and per-node scores over an [`RrIndex`]
//!   prefix. Decaying a seed by its CTP is TIRM's weighted rule; decaying
//!   it by `δ = 1` is the paper's hard cover (Algorithm 2, line 12), with
//!   scores that stay integer counts of uncovered sets.
//! * [`parallel`] — the deterministic multi-threaded sampling engine
//!   ([`ParallelSampler`]): θ samples sharded over persistent per-shard
//!   RNG streams, drawn through workspaces lent to the drawing thread —
//!   on the calling thread when the process has one CPU — and merged in
//!   draw order. Same `(seed, threads)` ⇒ identical collections on any
//!   host; `threads = 1` is bit-identical to the serial path.
//! * [`heap`] — lazy max-heaps for CELF-style best-node selection.
//! * [`tim`] — the TIM sample-size machinery TIRM keeps: KPT estimation
//!   and the `λ(s, ε)` / `L(s, ε)` bounds (Eq. 5).
//! * [`special`] — `ln Γ`, `ln C(n, s)` helpers the bounds need.

pub mod fastpath;
pub mod heap;
pub mod index;
mod packed;
pub mod parallel;
pub mod sampler;
pub mod special;
pub mod tim;
pub mod weighted;

pub use fastpath::{coin_threshold, FastPath, SamplingLayout};
pub use heap::LazyMaxHeap;
pub use index::{Postings, RrIndex};
pub use parallel::{ParallelSampler, RrSink, SamplingConfig};
pub use sampler::{RrSampler, SampleWorkspace};
pub use tim::{KptEstimator, KptState, SampleBound};
pub use weighted::{score_key, WeightedRrCollection};
