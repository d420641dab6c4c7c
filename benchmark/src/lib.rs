//! The repo benchmark: four fixed-work workloads against the real
//! `tirm_server` binary, timed from outside with best-of-rounds
//! estimators, plus an in-process cost ladder through each crate's
//! public entry points. See `README.md` next to this crate.

pub mod batch;
pub mod client;
pub mod compare;
pub mod estimators;
pub mod inputs;
pub mod ladder;
pub mod procs;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;
