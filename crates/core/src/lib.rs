//! # tirm-core
//!
//! The paper's primary contribution: the REGRET-MINIMIZATION problem
//! (Problem 1) and its allocation algorithms.
//!
//! * [`problem`] — advertisers (budget `B_i`, `cpe(i)`, topic distribution
//!   `γ_i`), attention bounds `κ_u`, penalty `λ`, budget boost `β`.
//! * [`allocation`] — valid seed-set allocations `S = (S_1,…,S_h)`.
//! * [`regret`] — Eq. 3–4 arithmetic and per-ad regret reports.
//! * [`algos`] — MYOPIC, MYOPIC+, GREEDY (Algorithm 1, oracle-generic),
//!   GREEDY-IRIE, and **TIRM** (Algorithms 2–4).
//! * [`eval`] — Monte-Carlo ground-truth evaluation (the paper's 10K-run
//!   protocol).
//! * [`metrics`] / [`report`] — runtime & memory accounting, text tables.

pub mod algos;
pub mod allocation;
pub mod eval;
pub mod metrics;
pub mod problem;
pub mod regret;
pub mod report;

pub use algos::{
    greedy_allocate, greedy_irie_allocate, myopic_allocate, myopic_plus_allocate, tirm_allocate,
    tirm_allocate_resumable, tirm_allocate_seeded, tirm_allocate_warm, AdSeeds, AdWarmState,
    GreedyIrieOptions, GreedyOptions, RelabelMode, ResumableRun, RunRecord, TirmOptions,
    WarmCounts,
};
pub use allocation::Allocation;
pub use eval::{default_threads, evaluate, evaluate_rr, Evaluation, DEFAULT_EVAL_RUNS};
pub use metrics::AlgoStats;
pub use problem::{Advertiser, Attention, ProblemInstance};
pub use regret::{ad_regret, budget_regret, AdRegret, RegretReport};
pub use tirm_rrset::SamplingConfig;

/// Glob-import convenience: `use tirm_core::prelude::*;`.
pub mod prelude {
    pub use crate::algos::{
        greedy_allocate, greedy_irie_allocate, myopic_allocate, myopic_plus_allocate,
        tirm_allocate, GreedyIrieOptions, GreedyOptions, TirmOptions,
    };
    pub use crate::allocation::Allocation;
    pub use crate::eval::{evaluate, Evaluation};
    pub use crate::metrics::AlgoStats;
    pub use crate::problem::{Advertiser, Attention, ProblemInstance};
    pub use crate::regret::{AdRegret, RegretReport};
}
