//! # tirm-diffusion
//!
//! Diffusion engines for the TIC-CTP propagation model (§3 of the paper):
//!
//! * [`cascade`] — a single forward independent-cascade run with optional
//!   seed click-through probabilities (the IC-CTP / TIC-CTP semantics:
//!   a seed `u` accepts, i.e. clicks, with probability `δ(u,i)`; every
//!   influence attempt across arc `(u,v)` succeeds with `p^i_{u,v}`).
//! * [`montecarlo`] — buffered Monte-Carlo spread estimation
//!   `σ_i(S) ≈ mean(#activations)`, sequential and parallel over `std::thread::scope`.
//! * [`exact`] — exact spread by possible-world enumeration for small
//!   graphs (used to validate estimators, Lemma 1, and Fig. 1 numbers).
//! * [`oracle`] — the `SpreadOracle` abstraction that lets the greedy
//!   allocator (Algorithm 1) run on MC, exact, IRIE or RR-based spread
//!   estimation interchangeably.

pub mod cascade;
pub mod exact;
pub mod montecarlo;
pub mod oracle;

pub use cascade::{simulate_once, simulate_once_collect, CascadeWorkspace};
pub use exact::{exact_activation_probs, exact_spread};
pub use montecarlo::{mc_activation_probs, mc_spread, mc_spread_parallel};
pub use oracle::{ExactOracle, McOracle, SpreadOracle};
