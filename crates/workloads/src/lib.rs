//! # tirm-workloads
//!
//! Synthetic workloads shaped like the paper's evaluation setup (§6):
//!
//! * [`datasets`] — generators for FLIXSTER-, EPINIONS-, DBLP- and
//!   LIVEJOURNAL-like networks with matching degree structure and the
//!   §6 probability models (topic-concentrated, exponential, weighted
//!   cascade). Real data sets are proprietary/remote; ARCHITECTURE.md
//!   "Synthetic data sets" documents why these stand-ins preserve the
//!   experiments' behaviour.
//! * [`campaigns`] — advertiser generators matching Table 2 (budgets,
//!   CPEs) and the §6 topic-skew (`γ_i` = 0.91 own topic, 0.01 others).
//! * [`toy`] — the Fig. 1 gadget as a ready-made problem instance,
//!   including the paper's hand-built allocations A and B.
//! * [`scale`] — environment-driven scaling (`TIRM_SCALE`,
//!   `TIRM_EVAL_RUNS`, `TIRM_THREADS`) so the same harness runs on a
//!   laptop or a large server.
//! * [`scenarios`] — the declarative scenario matrix (dataset ×
//!   probability model × allocator × threads) behind the perf suite's
//!   `quick` / `full` / `paper` / `online` tiers.
//! * [`events`] — seeded, replayable event streams for the online
//!   serving layer (Poisson arrivals, truncated-Pareto budgets,
//!   top-ups/departures/queries) plus the JSON-lines log format.
//! * [`replay`] — the replay driver: feeds a log through a
//!   `tirm_online::OnlineAllocator`, recording per-event-type latency
//!   histograms and events/s throughput.

pub mod campaigns;
pub mod datasets;
pub mod events;
pub mod replay;
pub mod scale;
pub mod scenarios;
pub mod toy;

pub use campaigns::{campaign, CampaignSpec};
pub use datasets::{
    snapshot_dir, Dataset, DatasetKind, DatasetTiming, ProbModel, GENERATOR_VERSION,
};
pub use events::{final_population, EventStreamSpec, FinalAd, LogEvent};
// (`replay::replay` itself is not re-exported at the root: a function
// and a module sharing the name `replay` breaks rustdoc.)
pub use replay::{LatencyHistogram, ReplayReport};
pub use scale::ScaleConfig;
pub use scenarios::{AllocatorKind, Mode, ScenarioSpec, Tier};
