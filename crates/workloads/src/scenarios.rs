//! Declarative scenario matrix for the perf suite.
//!
//! The paper's evaluation (§6, Tables 2–4, Fig. 6) is a grid — data sets ×
//! probability models × allocators × parameters. [`ScenarioSpec`] names one
//! cell of that grid declaratively; [`Tier`] enumerates the grids we run:
//! `quick` is small enough for a CI regression gate (< 5 min on one CPU),
//! `full` approaches the paper's scales for real measurement. The runner
//! lives in `tirm_bench::suite`; this module owns only the *what*, so new
//! scenarios are added by editing a list, not a harness.

use crate::datasets::{DatasetKind, ProbModel};
use crate::scale::{default_threads, ScaleConfig};

/// Which allocation algorithm a cell runs: the scenario grid's three
/// and the §6 figures' two myopic baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// TIRM (Algorithm 2) — the paper's scalable RR-set allocator.
    Tirm,
    /// Algorithm 1 with Monte-Carlo spread estimates ("Greedy"). Accurate
    /// but so slow the suite caps its total seeds (`ScenarioSpec::seed_cap`).
    Greedy,
    /// GREEDY-IRIE — Algorithm 1 with the IRIE heuristic oracle.
    GreedyIrie,
    /// MYOPIC baseline.
    Myopic,
    /// MYOPIC+ baseline.
    MyopicPlus,
}

impl AllocatorKind {
    /// The four algorithms §6 compares, in the paper's legend order.
    pub const LEGEND: [AllocatorKind; 4] = [
        AllocatorKind::Myopic,
        AllocatorKind::MyopicPlus,
        AllocatorKind::GreedyIrie,
        AllocatorKind::Tirm,
    ];

    /// Name used in scenario ids and figure legends.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Tirm => "TIRM",
            AllocatorKind::Greedy => "GREEDY",
            AllocatorKind::GreedyIrie => "IRIE",
            AllocatorKind::Myopic => "Myopic",
            AllocatorKind::MyopicPlus => "Myopic+",
        }
    }
}

/// How a cell runs its allocator: one batch allocation, or a generated
/// event stream served by the `tirm_online` engine — in process, behind
/// a real `tirm_server`, or behind a durable leader plus a WAL-shipping
/// follower. A served cell's allocator is TIRM (the engine *is* TIRM
/// under the hood), and its id lives in the mode's own namespace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// One batch allocation of the cell's instance.
    Batch,
    /// The stream replayed through an in-process `OnlineAllocator`;
    /// latency percentiles and events/s.
    Online,
    /// The stream driven through a real `tirm_server` on a loopback port
    /// by the load generator, with a concurrent reader pool; wire
    /// latencies, read-path percentiles and the shed rate.
    Serving,
    /// Like `Serving`, with a durable leader plus a WAL-shipping follower
    /// taking part of the reader pool; follower reads and replication
    /// lag too.
    ServingRepl,
}

impl Mode {
    /// The id namespace of a served cell (and its allocator label).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Batch => "BATCH",
            Mode::Online => "ONLINE",
            Mode::Serving => "SERVING",
            Mode::ServingRepl => "SERVING-REPL",
        }
    }
}

/// One cell of the scenario grid. Everything that affects the *problem* is
/// here; everything that affects fidelity (graph scale, MC evaluation
/// runs) comes from the tier's [`ScaleConfig`], so the same spec list
/// serves both tiers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Network shape.
    pub dataset: DatasetKind,
    /// Arc-probability model (canonical or crossed).
    pub model: ProbModel,
    /// Algorithm under test.
    pub allocator: AllocatorKind,
    /// Worker threads for the allocator and evaluation. Part of the cell
    /// identity: parallel MC evaluation partitions RNG streams by thread,
    /// so metric payloads are only comparable at equal thread counts.
    pub threads: usize,
    /// Attention bound κ.
    pub kappa: u32,
    /// Penalty λ.
    pub lambda: f64,
    /// Total-seed cap for the Greedy-MC allocator (`None` elsewhere): the
    /// paper calls Greedy "prohibitively slow"; the cap keeps its cells
    /// bounded while still measuring per-seed cost and early quality.
    pub seed_cap: Option<usize>,
    /// Batch allocation or one of the three served layers.
    pub mode: Mode,
}

impl ScenarioSpec {
    /// A canonical-model TIRM cell; the matrix builders tweak from here.
    fn base(dataset: DatasetKind) -> ScenarioSpec {
        ScenarioSpec {
            dataset,
            model: ProbModel::canonical(dataset),
            allocator: AllocatorKind::Tirm,
            threads: 1,
            kappa: 1,
            lambda: 0.0,
            seed_cap: None,
            mode: Mode::Batch,
        }
    }

    /// A served cell (`mode` is not `Batch`) over the dataset's
    /// canonical model.
    fn served(mode: Mode, dataset: DatasetKind, kappa: u32) -> ScenarioSpec {
        ScenarioSpec {
            kappa,
            mode,
            ..ScenarioSpec::base(dataset)
        }
    }

    /// Stable cell identity, the join key between two baseline files:
    /// `DATASET/model/ALLOCATOR/t<threads>/k<kappa>/l<lambda>`,
    /// `ONLINE/DATASET/model/t…/k…/l…` for in-process serving cells,
    /// `SERVING/DATASET/model/t…/k…/l…` for network serving cells, or
    /// `SERVING-REPL/DATASET/model/t…/k…/l…` for replicated ones.
    pub fn id(&self) -> String {
        let (dataset, model) = (self.dataset.name(), self.model.name());
        let (t, k, l) = (self.threads, self.kappa, self.lambda);
        match self.mode {
            Mode::Batch => format!("{dataset}/{model}/{}/t{t}/k{k}/l{l}", self.allocator.name()),
            mode => format!("{}/{dataset}/{model}/t{t}/k{k}/l{l}", mode.name()),
        }
    }

    /// Deterministic per-cell RNG seed: a stable FNV-1a hash of the id
    /// mixed with the suite's base seed, so adding or reordering scenarios
    /// never changes any other cell's stream.
    pub fn seed(&self, base_seed: u64) -> u64 {
        fnv(&self.id()) ^ base_seed
    }

    /// Seed for *problem generation* (graph, probabilities, campaign,
    /// CTPs): hashes only the `(dataset, model)` pair, so every allocator
    /// and thread count in the matrix is measured on the identical
    /// instance and their quality metrics are directly comparable.
    pub fn problem_seed(&self, base_seed: u64) -> u64 {
        fnv(&format!("{}/{}", self.dataset.name(), self.model.name())) ^ base_seed
    }

    /// True for the §6.1-style quality setup (Table 2 campaigns, sampled
    /// CTPs); false for the §6.2 scalability setup (uniform competition,
    /// CPE = CTP = 1).
    pub fn is_quality(&self) -> bool {
        matches!(self.dataset, DatasetKind::Flixster | DatasetKind::Epinions)
    }
}

/// Stable FNV-1a hash (not `DefaultHasher`, whose output may change
/// across std releases — these seeds are baked into committed baselines).
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Named scenario grids with fidelity presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized: every axis represented, minutes on one CPU.
    Quick,
    /// Default-scale grid (`TIRM_SCALE = 1`, 10 000 evaluation runs).
    Full,
    /// Table-1-scale scalability grid (§6.2): LIVEJOURNAL at the paper's
    /// 4.8M nodes / ~69M arcs via the streaming build, snapshot-cached.
    /// MC evaluation is skipped (`eval_runs = 0`) — these cells measure
    /// ingestion, allocation time and memory, like the paper's Fig. 6 /
    /// Table 4, not regret.
    Paper,
    /// The online serving grid: event-stream replay cells across
    /// datasets, attention bounds and thread counts, quick-tier fidelity
    /// (CI-runnable; raise `TIRM_SCALE` for real measurement). The quick
    /// and full tiers each embed a subset of these cells so the PR gate
    /// and the nightly watch the serving layer by default.
    Online,
    /// The network serving grid: each cell boots a real `tirm_server`
    /// on a loopback port and drives it with the load generator
    /// (deterministic-delivery mutations + a concurrent reader pool),
    /// stamping wire latency percentiles, read-path p99 and the shed
    /// rate. Quick-tier fidelity; the quick tier embeds one of these
    /// cells so the PR gate watches the network frontend.
    Serving,
}

impl Tier {
    /// Tier name as used on the `perf_suite --tier` flag and in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Full => "full",
            Tier::Paper => "paper",
            Tier::Online => "online",
            Tier::Serving => "serving",
        }
    }

    /// Parses a `--tier` argument.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "quick" => Some(Tier::Quick),
            "full" => Some(Tier::Full),
            "paper" => Some(Tier::Paper),
            "online" => Some(Tier::Online),
            "serving" => Some(Tier::Serving),
            _ => None,
        }
    }

    /// Fidelity defaults for the tier. Environment variables (`TIRM_SCALE`
    /// etc.) still override these — see [`ScaleConfig::with_env_overrides`].
    pub fn scale_defaults(self) -> ScaleConfig {
        match self {
            // Threads here is the *default* per-cell thread count; specs
            // with an explicit threads axis ignore it. 1 keeps quick-tier
            // metric payloads machine-independent.
            Tier::Quick => ScaleConfig {
                scale: 0.08,
                eval_runs: 200,
                threads: 1,
            },
            Tier::Full => ScaleConfig {
                scale: 1.0,
                eval_runs: 10_000,
                threads: default_threads(),
            },
            // ×40 lifts LIVEJOURNAL's 120k default to the paper's 4.8M
            // (DBLP lands at 1.6M, a superset of its 317k). eval_runs = 0
            // disables MC evaluation — only tier defaults can express 0;
            // the TIRM_EVAL_RUNS override floors at 10.
            Tier::Paper => ScaleConfig {
                scale: 40.0,
                eval_runs: 0,
                threads: default_threads(),
            },
            // Serving cells replay dozens of events, each a
            // re-allocation — quick-tier fidelity keeps the whole grid
            // CI-sized; TIRM_SCALE raises it for real measurement.
            Tier::Online | Tier::Serving => ScaleConfig {
                scale: 0.08,
                eval_runs: 200,
                threads: 1,
            },
        }
    }

    /// Seed cap for Greedy-MC cells at this tier (the paper grid has no
    /// Greedy-MC cells — the paper itself calls it prohibitively slow).
    fn greedy_cap(self) -> usize {
        match self {
            Tier::Quick | Tier::Online | Tier::Serving => 20,
            Tier::Full | Tier::Paper => 60,
        }
    }

    /// The dedicated online-serving grid: quality datasets at κ where the
    /// delta path gets room (κ ≥ 2, distinct topics) plus the §6.2
    /// full-competition setups at κ = 1 (every event a warm full re-run)
    /// and a threads axis.
    fn online_matrix() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::served(Mode::Online, DatasetKind::Flixster, 2),
            ScenarioSpec::served(Mode::Online, DatasetKind::Epinions, 2),
            ScenarioSpec::served(Mode::Online, DatasetKind::Epinions, 1),
            ScenarioSpec {
                threads: 2,
                ..ScenarioSpec::served(Mode::Online, DatasetKind::Epinions, 2)
            },
            ScenarioSpec::served(Mode::Online, DatasetKind::Dblp, 1),
        ]
    }

    /// The dedicated network-serving grid: the quality serving pair
    /// (delta-path room at κ = 2) plus a fully-contended EPINIONS cell
    /// and the §6.2 full-competition DBLP setup — each cell a real
    /// server + load generator on loopback.
    fn serving_matrix() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::served(Mode::Serving, DatasetKind::Epinions, 2),
            ScenarioSpec::served(Mode::Serving, DatasetKind::Flixster, 2),
            ScenarioSpec::served(Mode::Serving, DatasetKind::Epinions, 1),
            ScenarioSpec::served(Mode::Serving, DatasetKind::Dblp, 1),
            ScenarioSpec::served(Mode::ServingRepl, DatasetKind::Epinions, 2),
            ScenarioSpec::served(Mode::ServingRepl, DatasetKind::Dblp, 1),
        ]
    }

    /// Enumerates the tier's scenario grid, in a stable order.
    pub fn matrix(self) -> Vec<ScenarioSpec> {
        let mut specs = Vec::new();
        if self == Tier::Online {
            return Self::online_matrix();
        }
        if self == Tier::Serving {
            return Self::serving_matrix();
        }
        if self == Tier::Paper {
            // §6.2 scalability block at Table-1 scale, Weighted-Cascade,
            // full competition. GREEDY-IRIE only on the DBLP-like network
            // — the paper excludes it on LIVEJOURNAL for running time.
            specs.push(ScenarioSpec::base(DatasetKind::Dblp));
            specs.push(ScenarioSpec {
                allocator: AllocatorKind::GreedyIrie,
                ..ScenarioSpec::base(DatasetKind::Dblp)
            });
            specs.push(ScenarioSpec::base(DatasetKind::LiveJournal));
            specs.push(ScenarioSpec {
                threads: 2,
                ..ScenarioSpec::base(DatasetKind::LiveJournal)
            });
            return specs;
        }
        let quality = [DatasetKind::Flixster, DatasetKind::Epinions];
        let models = [
            ProbModel::TopicConcentrated,
            ProbModel::Exponential,
            ProbModel::WeightedCascade,
        ];

        // Quality block: both quality networks crossed with all three
        // probability models, TIRM vs GREEDY-IRIE.
        for dataset in quality {
            for model in models {
                for allocator in [AllocatorKind::Tirm, AllocatorKind::GreedyIrie] {
                    specs.push(ScenarioSpec {
                        model,
                        allocator,
                        ..ScenarioSpec::base(dataset)
                    });
                }
            }
        }

        // Greedy-MC reference cells. Only the §6.2 full-competition setup
        // (CPE = CTP = 1) is feasible for Algorithm 1 with MC estimates:
        // on the quality setups the 1–3% CTPs push per-seed marginals far
        // below what CI-sized MC run counts can resolve — which is also
        // why the paper's §6.1 figures exclude Greedy. κ is the second
        // axis so the attention bound is exercised beyond 1.
        for kappa in [1u32, 2] {
            specs.push(ScenarioSpec {
                allocator: AllocatorKind::Greedy,
                seed_cap: Some(self.greedy_cap()),
                kappa,
                ..ScenarioSpec::base(DatasetKind::Dblp)
            });
        }

        // Scalability block (§6.2): Weighted-Cascade, full competition.
        // GREEDY-IRIE is skipped on LIVEJOURNAL exactly as in the paper.
        let scal_threads: &[usize] = match self {
            Tier::Quick => &[1, 2],
            // Paper, Online and Serving early-returned above; the arm
            // only satisfies match exhaustiveness.
            Tier::Full | Tier::Paper | Tier::Online | Tier::Serving => &[1, 2, 4],
        };
        for dataset in [DatasetKind::Dblp, DatasetKind::LiveJournal] {
            for &threads in scal_threads {
                specs.push(ScenarioSpec {
                    threads,
                    ..ScenarioSpec::base(dataset)
                });
            }
        }
        specs.push(ScenarioSpec {
            allocator: AllocatorKind::GreedyIrie,
            ..ScenarioSpec::base(DatasetKind::Dblp)
        });

        if self == Tier::Full {
            // Parameter sweep: attention bound and penalty on FLIXSTER
            // (Fig. 3/4 territory), TIRM only.
            for kappa in [2u32, 4] {
                specs.push(ScenarioSpec {
                    kappa,
                    ..ScenarioSpec::base(DatasetKind::Flixster)
                });
            }
            for lambda in [0.5, 1.0] {
                specs.push(ScenarioSpec {
                    lambda,
                    ..ScenarioSpec::base(DatasetKind::Flixster)
                });
            }
            // Thread scaling on the quality side too.
            for dataset in quality {
                specs.push(ScenarioSpec {
                    threads: 2,
                    ..ScenarioSpec::base(dataset)
                });
            }
        }

        // Serving cells ride along in the gated tiers so the PR gate
        // (quick) and the nightly (full) watch both serving layers by
        // default; the dedicated `online` / `serving` tiers hold the
        // full grids. The network cell shares (dataset, model) with
        // batch cells, so the suite reuses the materialised instance.
        match self {
            Tier::Quick => {
                specs.push(ScenarioSpec::served(Mode::Online, DatasetKind::Epinions, 2));
                specs.push(ScenarioSpec::served(
                    Mode::Serving,
                    DatasetKind::Epinions,
                    2,
                ));
                specs.push(ScenarioSpec::served(
                    Mode::ServingRepl,
                    DatasetKind::Epinions,
                    2,
                ));
            }
            Tier::Full => {
                specs.push(ScenarioSpec::served(Mode::Online, DatasetKind::Epinions, 2));
                specs.push(ScenarioSpec::served(Mode::Online, DatasetKind::Dblp, 1));
                specs.push(ScenarioSpec::served(
                    Mode::Serving,
                    DatasetKind::Epinions,
                    2,
                ));
                specs.push(ScenarioSpec::served(
                    Mode::ServingRepl,
                    DatasetKind::Epinions,
                    2,
                ));
            }
            Tier::Paper | Tier::Online | Tier::Serving => {}
        }

        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn quick_matrix_covers_every_axis() {
        let specs = Tier::Quick.matrix();
        assert!(specs.len() >= 18, "quick grid too small: {}", specs.len());
        let datasets: HashSet<_> = specs.iter().map(|s| s.dataset).collect();
        assert_eq!(datasets.len(), 4, "all four networks present");
        let models: HashSet<_> = specs.iter().map(|s| s.model).collect();
        assert_eq!(models.len(), 3, "all three probability models present");
        let allocators: HashSet<_> = specs.iter().map(|s| s.allocator).collect();
        assert_eq!(allocators.len(), 3, "all three allocators present");
        assert!(specs.iter().any(|s| s.threads > 1), "a threads>1 cell");
    }

    #[test]
    fn paper_tier_is_a_scalability_grid() {
        let specs = Tier::Paper.matrix();
        assert!(!specs.is_empty());
        for s in &specs {
            assert_eq!(s.model, ProbModel::WeightedCascade, "§6.2 is WC-only");
            assert!(!s.is_quality());
            assert_ne!(s.allocator, AllocatorKind::Greedy);
        }
        assert!(
            specs.iter().any(
                |s| s.dataset == DatasetKind::LiveJournal && s.allocator == AllocatorKind::Tirm
            ),
            "the tier exists to exercise LIVEJOURNAL at paper scale"
        );
        assert!(
            !specs.iter().any(|s| s.dataset == DatasetKind::LiveJournal
                && s.allocator == AllocatorKind::GreedyIrie),
            "paper excludes IRIE on LIVEJOURNAL"
        );
        let cfg = Tier::Paper.scale_defaults();
        assert!(
            cfg.nodes(DatasetKind::LiveJournal.default_nodes()) >= 4_000_000,
            "paper tier must reach Table-1 LIVEJOURNAL size"
        );
        assert_eq!(cfg.eval_runs, 0, "scalability cells skip MC evaluation");
    }

    #[test]
    fn online_grid_shape() {
        let specs = Tier::Online.matrix();
        assert!(specs.len() >= 4);
        assert!(
            specs.iter().all(|s| s.mode == Mode::Online),
            "a pure serving grid"
        );
        assert!(
            specs.iter().all(|s| s.id().starts_with("ONLINE/")),
            "serving cells live in their own id namespace"
        );
        assert!(
            specs.iter().any(|s| s.kappa >= 2),
            "a cell where the delta path has room"
        );
        assert!(
            specs.iter().any(|s| s.kappa == 1),
            "a fully-contended cell (warm full re-runs)"
        );
        assert!(specs.iter().any(|s| s.threads > 1), "a threads axis");
        let cfg = Tier::Online.scale_defaults();
        assert!(cfg.scale <= 0.2 && cfg.eval_runs <= 1000, "CI-sized");
    }

    #[test]
    fn gated_tiers_embed_online_and_serving_cells() {
        for tier in [Tier::Quick, Tier::Full] {
            let specs = tier.matrix();
            assert!(
                specs.iter().any(|s| s.mode == Mode::Online),
                "{tier:?} must watch the serving layer"
            );
            assert!(
                specs.iter().any(|s| s.mode == Mode::Serving),
                "{tier:?} must watch the network frontend"
            );
            // Serving cells share (dataset, model) with batch cells, so
            // the suite reuses the materialised dataset.
            for s in specs.iter().filter(|s| s.mode != Mode::Batch) {
                assert!(specs.iter().any(|b| b.mode == Mode::Batch
                    && b.dataset == s.dataset
                    && b.model == s.model));
            }
        }
        assert!(Tier::Paper.matrix().iter().all(|s| s.mode == Mode::Batch));
    }

    #[test]
    fn serving_grid_shape() {
        let specs = Tier::Serving.matrix();
        assert!(specs.len() >= 4);
        assert!(specs
            .iter()
            .all(|s| matches!(s.mode, Mode::Serving | Mode::ServingRepl)));
        assert!(specs
            .iter()
            .all(|s| s.id().starts_with("SERVING/") || s.id().starts_with("SERVING-REPL/")));
        assert!(
            specs.iter().any(|s| s.mode == Mode::ServingRepl),
            "the serving tier must watch replication"
        );
        assert!(
            specs.iter().any(|s| s.kappa >= 2) && specs.iter().any(|s| s.kappa == 1),
            "both delta-path room and full contention"
        );
        let cfg = Tier::Serving.scale_defaults();
        assert!(cfg.scale <= 0.2 && cfg.eval_runs <= 1000, "CI-sized");
        // The namespaces never collide even at equal parameters.
        let online = ScenarioSpec::served(Mode::Online, DatasetKind::Epinions, 2);
        let serving = ScenarioSpec::served(Mode::Serving, DatasetKind::Epinions, 2);
        assert_ne!(online.id(), serving.id());
        assert_ne!(online.seed(7), serving.seed(7));
    }

    #[test]
    fn ids_are_unique_join_keys() {
        for tier in [
            Tier::Quick,
            Tier::Full,
            Tier::Paper,
            Tier::Online,
            Tier::Serving,
        ] {
            let specs = tier.matrix();
            let ids: HashSet<_> = specs.iter().map(|s| s.id()).collect();
            assert_eq!(ids.len(), specs.len(), "duplicate id in {tier:?}");
        }
    }

    #[test]
    fn id_shape_and_seed_stability() {
        let spec = ScenarioSpec::base(DatasetKind::Epinions);
        assert_eq!(spec.id(), "EPINIONS/exp/TIRM/t1/k1/l0");
        assert_eq!(spec.seed(7), spec.seed(7));
        assert_ne!(spec.seed(7), spec.seed(8));
        let other = ScenarioSpec { threads: 2, ..spec };
        assert_ne!(spec.seed(7), other.seed(7), "id feeds the seed");
    }

    #[test]
    fn problem_seed_shared_across_allocators() {
        let tirm = ScenarioSpec::base(DatasetKind::Flixster);
        let irie = ScenarioSpec {
            allocator: AllocatorKind::GreedyIrie,
            threads: 2,
            ..tirm
        };
        assert_eq!(
            tirm.problem_seed(7),
            irie.problem_seed(7),
            "same (dataset, model) ⇒ same instance"
        );
        let exp = ScenarioSpec {
            model: ProbModel::Exponential,
            ..tirm
        };
        assert_ne!(tirm.problem_seed(7), exp.problem_seed(7));
    }

    #[test]
    fn greedy_cells_are_capped() {
        for tier in [
            Tier::Quick,
            Tier::Full,
            Tier::Paper,
            Tier::Online,
            Tier::Serving,
        ] {
            for s in tier.matrix() {
                if s.allocator == AllocatorKind::Greedy {
                    assert!(s.seed_cap.is_some(), "uncapped Greedy-MC cell");
                } else {
                    assert!(s.seed_cap.is_none());
                }
            }
        }
    }

    #[test]
    fn tier_parse_round_trips() {
        for tier in [
            Tier::Quick,
            Tier::Full,
            Tier::Paper,
            Tier::Online,
            Tier::Serving,
        ] {
            assert_eq!(Tier::parse(tier.name()), Some(tier));
        }
        assert_eq!(Tier::parse("nightly"), None);
    }

    #[test]
    fn quick_defaults_are_ci_sized() {
        let cfg = Tier::Quick.scale_defaults();
        assert!(cfg.scale < 0.2);
        assert!(cfg.eval_runs <= 1000);
        assert_eq!(cfg.threads, 1);
    }
}
