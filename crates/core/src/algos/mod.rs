//! The paper's allocation algorithms.
//!
//! | Algorithm | Paper | Module |
//! |---|---|---|
//! | MYOPIC | §6 baseline: top-κ ads per user by `δ(u,i)·cpe(i)` | [`myopic`] |
//! | MYOPIC+ | §6 baseline: CTP-ranked seeding until budgets exhaust | [`myopic_plus`] |
//! | GREEDY | Algorithm 1 (oracle-generic; MC = the paper's Greedy) | [`greedy`] |
//! | GREEDY-IRIE | Algorithm 1 with IRIE spread estimation | [`greedy_irie`] |
//! | TIRM | Algorithm 2–4: Two-phase Iterative Regret Minimization | [`tirm`] |

pub mod greedy;
pub mod greedy_irie;
pub mod myopic;
pub mod myopic_plus;
pub mod tirm;

pub use greedy::{greedy_allocate, GreedyOptions};
pub use greedy_irie::{greedy_irie_allocate, GreedyIrieOptions};
pub use myopic::myopic_allocate;
pub use myopic_plus::myopic_plus_allocate;
pub use tirm::{
    tirm_allocate, tirm_allocate_resumable, tirm_allocate_seeded, tirm_allocate_warm, AdSeeds,
    AdWarmState, ParkedWarmState, RelabelMode, ResumableRun, RunRecord, TirmOptions, WarmCounts,
};

/// Numerical tolerance for "strictly decreasing regret" tests: guards
/// against floating-point churn keeping the greedy loops alive forever.
pub(crate) const DROP_TOL: f64 = 1e-9;
