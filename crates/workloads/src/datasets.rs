//! Dataset-shaped synthetic networks.
//!
//! | Paper data set | Shape reproduced | Probability model (§6) |
//! |---|---|---|
//! | FLIXSTER (30K/425K, directed) | heavy-tail follower graph, reciprocity ~0.3 | topic-concentrated (stand-in for MLE-learned TIC, K=10) |
//! | EPINIONS (76K/509K, directed) | heavy-tail trust graph, low reciprocity | per-topic `Exp(rate 30)` clamped to \[0,1\] |
//! | DBLP (317K/1.05M, undirected → both directions) | clustered co-authorship, fully reciprocal | Weighted-Cascade `1/indeg(v)` |
//! | LIVEJOURNAL (4.8M/69M, directed) | power-law in *and* out degree | Weighted-Cascade |
//!
//! Default scales keep the harness laptop-friendly; see [`crate::scale`].

use crate::scale::ScaleConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tirm_graph::{generators, snapshot, DiGraph, GraphStats};
use tirm_topics::{genprob, TopicEdgeProbs};

/// Version stamp of the *generators' output*: bump whenever any dataset
/// generator or probability model changes what it produces for a given
/// `(kind, model, scale, seed)`, so cached snapshots from older code are
/// keyed away instead of silently served. CI cache keys embed this
/// constant together with [`snapshot::FORMAT_VERSION`].
pub const GENERATOR_VERSION: u32 = 1;

/// Which of the four paper data sets a workload mimics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// FLIXSTER-like: quality experiments, learned-TIC stand-in.
    Flixster,
    /// EPINIONS-like: quality experiments, exponential probabilities.
    Epinions,
    /// DBLP-like: scalability experiments, weighted cascade.
    Dblp,
    /// LIVEJOURNAL-like: scalability experiments, weighted cascade.
    LiveJournal,
}

impl DatasetKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Flixster => "FLIXSTER",
            DatasetKind::Epinions => "EPINIONS",
            DatasetKind::Dblp => "DBLP",
            DatasetKind::LiveJournal => "LIVEJOURNAL",
        }
    }

    /// True for the §6.1 quality networks (FLIXSTER, EPINIONS: Table 2
    /// campaigns, sampled CTPs, ε = 0.1); false for the §6.2
    /// scalability networks (DBLP, LIVEJOURNAL: full competition,
    /// CPE = CTP = 1, ε = 0.2).
    pub fn is_quality(self) -> bool {
        matches!(self, DatasetKind::Flixster | DatasetKind::Epinions)
    }

    /// Node count of the real data set (Table 1).
    fn paper_nodes(self) -> usize {
        match self {
            DatasetKind::Flixster => 30_000,
            DatasetKind::Epinions => 76_000,
            DatasetKind::Dblp => 317_000,
            DatasetKind::LiveJournal => 4_800_000,
        }
    }

    /// Default node count at `TIRM_SCALE = 1` (chosen for minute-scale
    /// sweeps on a laptop; raise `TIRM_SCALE` to approach paper sizes).
    pub fn default_nodes(self) -> usize {
        match self {
            DatasetKind::Flixster => 6_000,
            DatasetKind::Epinions => 12_000,
            DatasetKind::Dblp => 40_000,
            DatasetKind::LiveJournal => 120_000,
        }
    }

    /// Number of latent topics `K` (10 in all quality experiments).
    pub fn topics(self) -> usize {
        match self {
            DatasetKind::Flixster | DatasetKind::Epinions => 10,
            _ => 1,
        }
    }

    /// Parses a CLI dataset name (case-insensitive) — the shared
    /// vocabulary of every `--dataset` flag in the workspace.
    pub fn parse(s: &str) -> Option<DatasetKind> {
        match s.to_ascii_uppercase().as_str() {
            "FLIXSTER" => Some(DatasetKind::Flixster),
            "EPINIONS" => Some(DatasetKind::Epinions),
            "DBLP" => Some(DatasetKind::Dblp),
            "LIVEJOURNAL" => Some(DatasetKind::LiveJournal),
            _ => None,
        }
    }

    /// The `size_ratio` a dataset generated under `cfg` will carry,
    /// *without* generating it — pure arithmetic on the node counts.
    /// This is what wire clients (the load generator) use to map a
    /// paper-scale event log onto whatever scale the server was booted
    /// at, matching [`Dataset::generate`]'s own ratio exactly.
    pub fn size_ratio_at(self, cfg: &ScaleConfig) -> f64 {
        cfg.nodes(self.default_nodes()) as f64 / self.paper_nodes() as f64
    }
}

/// Which §6 probability model decorates a network's arcs. Every paper
/// data set has a *canonical* model (the table above); the perf suite also
/// crosses data sets with the other models to widen the scenario matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbModel {
    /// Topic-concentrated TIC stand-in (K = 10): each arc strong in 2
    /// topics, background elsewhere. Canonical for FLIXSTER.
    TopicConcentrated,
    /// Per-topic `Exp(rate 30)` clamped to [0, 1] (K = 10). Canonical for
    /// EPINIONS.
    Exponential,
    /// Weighted-Cascade `1/indeg(v)` (K = 1). Canonical for DBLP and
    /// LIVEJOURNAL.
    WeightedCascade,
}

impl ProbModel {
    /// Short machine-readable name used in scenario ids and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProbModel::TopicConcentrated => "topic",
            ProbModel::Exponential => "exp",
            ProbModel::WeightedCascade => "wc",
        }
    }

    /// Parses a CLI model name (`topic` / `exp` / `wc`) — the shared
    /// vocabulary of every `--model` flag in the workspace.
    pub fn parse(s: &str) -> Option<ProbModel> {
        match s {
            "topic" => Some(ProbModel::TopicConcentrated),
            "exp" => Some(ProbModel::Exponential),
            "wc" => Some(ProbModel::WeightedCascade),
            _ => None,
        }
    }

    /// The model §6 pairs with each data set.
    pub fn canonical(kind: DatasetKind) -> ProbModel {
        match kind {
            DatasetKind::Flixster => ProbModel::TopicConcentrated,
            DatasetKind::Epinions => ProbModel::Exponential,
            DatasetKind::Dblp | DatasetKind::LiveJournal => ProbModel::WeightedCascade,
        }
    }

    /// Number of latent topics the model produces (WC is single-topic).
    pub fn topics(self) -> usize {
        match self {
            ProbModel::WeightedCascade => 1,
            _ => 10,
        }
    }
}

/// A generated network plus its per-topic arc probabilities.
pub struct Dataset {
    /// Which paper data set this mimics.
    pub kind: DatasetKind,
    /// The graph.
    pub graph: DiGraph,
    /// Per-topic arc probabilities (K = 1 for the scalability data sets).
    pub topic_probs: TopicEdgeProbs,
    /// Ratio `generated nodes / paper nodes` — budgets are scaled by this
    /// so seeds-per-node ratios match the paper's regime.
    pub size_ratio: f64,
}

impl Dataset {
    /// Generates the dataset at the configured scale with its canonical §6
    /// probability model, deterministically.
    pub fn generate(kind: DatasetKind, cfg: &ScaleConfig, seed: u64) -> Dataset {
        Self::generate_with_model(kind, ProbModel::canonical(kind), cfg, seed)
    }

    /// Generates the dataset with an explicit probability model — the
    /// scenario matrix crosses network shapes with non-canonical models.
    /// Canonical calls produce bit-identical output to pre-matrix
    /// `generate` (same per-model seed derivations).
    pub fn generate_with_model(
        kind: DatasetKind,
        model: ProbModel,
        cfg: &ScaleConfig,
        seed: u64,
    ) -> Dataset {
        let n = cfg.nodes(kind.default_nodes());
        let graph = match kind {
            // FLIXSTER: avg degree ~14, noticeable reciprocity.
            DatasetKind::Flixster => generators::preferential_attachment(n, 10, 0.3, seed),
            // EPINIONS: avg degree ~6.7, mostly one-way trust.
            DatasetKind::Epinions => generators::preferential_attachment(n, 6, 0.1, seed),
            // DBLP: undirected co-authorship → fully reciprocal, deg ~6.6.
            DatasetKind::Dblp => generators::preferential_attachment(n, 3, 1.0, seed),
            // LIVEJOURNAL: power-law both ways, avg degree ~14.
            DatasetKind::LiveJournal => generators::copying_model(n, 14, 0.35, seed),
        };
        let m = graph.num_edges();
        let k = model.topics();
        let topic_probs = match model {
            ProbModel::TopicConcentrated => {
                // Stand-in for MLE-learned TIC probabilities: each arc
                // strong in 2 of 10 topics (Exp mean ≈ 0.33), background
                // elsewhere (Exp mean ≈ 0.002). The strong mean is chosen
                // so an own-topic ad sees near-critical branching
                // (≈ deg·0.2·0.91·0.33 ≈ 0.85 plus hub effects), matching
                // the paper's regime where one 2%-CTP seed yields ~0.8
                // expected clicks (Table 3: 868 seeds cover 680 clicks).
                genprob::topic_concentrated_probs(
                    m,
                    k,
                    2,
                    flixster_strong_rate(),
                    500.0,
                    seed ^ 0xf11c,
                )
            }
            ProbModel::Exponential => {
                // §6: "sampled from an exponential distribution with
                // [rate] 30, via the inverse transform technique".
                genprob::exponential_topic_probs(m, k, 30.0, seed ^ 0xe919)
            }
            ProbModel::WeightedCascade => {
                // §6.2: Weighted-Cascade for all ads.
                let wc = genprob::weighted_cascade(&graph);
                TopicEdgeProbs::single_topic(wc)
            }
        };
        Dataset {
            kind,
            graph,
            topic_probs,
            size_ratio: n as f64 / kind.paper_nodes() as f64,
        }
    }

    /// Graph statistics (Table 1 analogue).
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(&self.graph)
    }

    /// Stable cache key for a generated dataset: FNV-1a over everything
    /// that determines the generator's output — kind, probability model,
    /// resolved node count, seed, [`GENERATOR_VERSION`] and (for the
    /// topic-concentrated model only) the `TIRM_FLIX_RATE` override.
    fn snapshot_key(kind: DatasetKind, model: ProbModel, cfg: &ScaleConfig, seed: u64) -> u64 {
        let mut id = format!(
            "{}/{}/n{}/s{:016x}/g{}",
            kind.name(),
            model.name(),
            cfg.nodes(kind.default_nodes()),
            seed,
            GENERATOR_VERSION
        );
        if model == ProbModel::TopicConcentrated {
            id.push_str(&format!("/r{}", flixster_strong_rate()));
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Cache file path for a dataset under `dir`.
    fn snapshot_path(
        dir: &Path,
        kind: DatasetKind,
        model: ProbModel,
        cfg: &ScaleConfig,
        seed: u64,
    ) -> PathBuf {
        dir.join(format!(
            "{}_{}_{:016x}.tirmsnap",
            kind.name(),
            model.name(),
            Self::snapshot_key(kind, model, cfg, seed)
        ))
    }

    /// [`Self::generate_with_model`] behind a snapshot cache: when `dir`
    /// is set and holds a valid snapshot for this exact
    /// `(kind, model, scale, seed, generator version)`, the dataset is
    /// loaded from it (bit-identical to regeneration — enforced by
    /// property tests); otherwise it is generated and the snapshot written
    /// back best-effort. Damaged or version-skewed cache files are warned
    /// about and regenerated, never trusted and never fatal.
    pub fn load_or_generate(
        kind: DatasetKind,
        model: ProbModel,
        cfg: &ScaleConfig,
        seed: u64,
        dir: Option<&Path>,
    ) -> (Dataset, DatasetTiming) {
        if let Some(dir) = dir {
            let path = Self::snapshot_path(dir, kind, model, cfg, seed);
            if path.exists() {
                let t0 = Instant::now();
                match snapshot::read_snapshot(&path) {
                    Ok(snap) => {
                        let warm_s = t0.elapsed().as_secs_f64();
                        let graph = snap.graph;
                        let topic_probs =
                            TopicEdgeProbs::from_flat(snap.num_topics, snap.edge_probs);
                        let dataset = Dataset {
                            kind,
                            size_ratio: graph.num_nodes() as f64 / kind.paper_nodes() as f64,
                            graph,
                            topic_probs,
                        };
                        return (
                            dataset,
                            DatasetTiming {
                                cold_s: 0.0,
                                warm_s,
                            },
                        );
                    }
                    Err(e) => {
                        eprintln!(
                            "warn: snapshot {} unusable ({e}); regenerating",
                            path.display()
                        );
                    }
                }
            }
            // cold_s is the full cache-miss cost: generation plus the
            // snapshot write-back this run performed. That is what the
            // warm path saves a later run, so cold/warm is the speedup
            // the cache actually delivers.
            let t0 = Instant::now();
            let dataset = Self::generate_with_model(kind, model, cfg, seed);
            if let Err(e) = snapshot::write_snapshot(
                &path,
                &dataset.graph,
                dataset.topic_probs.k(),
                dataset.topic_probs.flat(),
            ) {
                eprintln!("warn: writing snapshot {} failed: {e}", path.display());
            }
            let cold_s = t0.elapsed().as_secs_f64();
            return (
                dataset,
                DatasetTiming {
                    cold_s,
                    warm_s: 0.0,
                },
            );
        }
        let t0 = Instant::now();
        let dataset = Self::generate_with_model(kind, model, cfg, seed);
        let cold_s = t0.elapsed().as_secs_f64();
        (
            dataset,
            DatasetTiming {
                cold_s,
                warm_s: 0.0,
            },
        )
    }

    /// [`Self::load_or_generate`] with the cache directory taken from the
    /// `TIRM_SNAPSHOT_DIR` environment variable (unset ⇒ no caching) —
    /// what the experiment binaries call.
    pub fn load_or_generate_env(
        kind: DatasetKind,
        model: ProbModel,
        cfg: &ScaleConfig,
        seed: u64,
    ) -> (Dataset, DatasetTiming) {
        Self::load_or_generate(kind, model, cfg, seed, snapshot_dir().as_deref())
    }
}

/// How a dataset was materialised: exactly one of the fields is non-zero.
/// `cold_s` is the cache-miss cost (generation, plus snapshot write-back
/// when a cache directory is in use); `warm_s` is the cache-hit cost
/// (snapshot load). These feed the `dataset_cold_s` / `dataset_warm_s`
/// artifact fields.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DatasetTiming {
    /// Seconds the cache miss cost (0 when loaded warm).
    pub cold_s: f64,
    /// Seconds the snapshot load cost (0 when generated cold).
    pub warm_s: f64,
}

/// The snapshot cache directory from `TIRM_SNAPSHOT_DIR` (unset or empty
/// ⇒ `None`, caching disabled).
pub fn snapshot_dir() -> Option<PathBuf> {
    std::env::var_os("TIRM_SNAPSHOT_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Exponential rate of the "strong" topic probabilities in the
/// FLIXSTER-like generator (mean strength = 1/rate). Default 10.0 keeps
/// own-topic cascades sizeable but subcritical, so the §4.1 working
/// assumption `p_i < 1` holds at harness scale; override with
/// `TIRM_FLIX_RATE` for sensitivity studies.
fn flixster_strong_rate() -> f64 {
    std::env::var("TIRM_FLIX_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ScaleConfig {
        ScaleConfig {
            scale: 0.05,
            eval_runs: 100,
            threads: 1,
        }
    }

    #[test]
    fn all_kinds_generate_and_validate() {
        for kind in [
            DatasetKind::Flixster,
            DatasetKind::Epinions,
            DatasetKind::Dblp,
            DatasetKind::LiveJournal,
        ] {
            let d = Dataset::generate(kind, &tiny_cfg(), 7);
            d.graph.validate().unwrap();
            assert_eq!(d.topic_probs.num_edges(), d.graph.num_edges());
            assert_eq!(d.topic_probs.k(), kind.topics());
            assert!(d.size_ratio > 0.0 && d.size_ratio < 1.0);
        }
    }

    #[test]
    fn dblp_is_reciprocal_like_an_undirected_graph() {
        let d = Dataset::generate(DatasetKind::Dblp, &tiny_cfg(), 3);
        let st = d.stats();
        assert!(
            st.reciprocity > 0.95,
            "DBLP must look undirected, reciprocity {}",
            st.reciprocity
        );
    }

    #[test]
    fn quality_sets_have_heavy_tails() {
        let d = Dataset::generate(DatasetKind::Flixster, &tiny_cfg(), 5);
        let st = d.stats();
        assert!(st.in_degree_gini > 0.3, "gini {}", st.in_degree_gini);
    }

    #[test]
    fn wc_probabilities_sum_to_one() {
        let d = Dataset::generate(DatasetKind::LiveJournal, &tiny_cfg(), 9);
        // Spot-check one node with in-degree > 0.
        let g = &d.graph;
        for v in 0..g.num_nodes() as u32 {
            let deg = g.in_degree(v);
            if deg > 0 {
                let sum: f32 = g.in_edges(v).map(|(e, _)| d.topic_probs.get(e, 0)).sum();
                assert!((sum - 1.0).abs() < 1e-3, "node {v}: {sum}");
                break;
            }
        }
    }

    fn tmp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tirm_dataset_cache_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn datasets_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.topic_probs.k(), b.topic_probs.k());
        let pa: Vec<u32> = a.topic_probs.flat().iter().map(|p| p.to_bits()).collect();
        let pb: Vec<u32> = b.topic_probs.flat().iter().map(|p| p.to_bits()).collect();
        assert_eq!(pa, pb);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.size_ratio, b.size_ratio);
    }

    #[test]
    fn cache_cold_then_warm_is_bit_identical() {
        let dir = tmp_cache_dir("coldwarm");
        let cfg = tiny_cfg();
        let (cold, t_cold) = Dataset::load_or_generate(
            DatasetKind::Epinions,
            ProbModel::Exponential,
            &cfg,
            21,
            Some(&dir),
        );
        assert!(t_cold.cold_s > 0.0 && t_cold.warm_s == 0.0);
        let path = Dataset::snapshot_path(
            &dir,
            DatasetKind::Epinions,
            ProbModel::Exponential,
            &cfg,
            21,
        );
        assert!(path.exists(), "cold miss must write the snapshot");

        let (warm, t_warm) = Dataset::load_or_generate(
            DatasetKind::Epinions,
            ProbModel::Exponential,
            &cfg,
            21,
            Some(&dir),
        );
        assert!(t_warm.warm_s > 0.0 && t_warm.cold_s == 0.0);
        datasets_identical(&cold, &warm);

        let plain =
            Dataset::generate_with_model(DatasetKind::Epinions, ProbModel::Exponential, &cfg, 21);
        datasets_identical(&warm, &plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_falls_back_to_regeneration() {
        let dir = tmp_cache_dir("corrupt");
        let cfg = tiny_cfg();
        let path =
            Dataset::snapshot_path(&dir, DatasetKind::Dblp, ProbModel::WeightedCascade, &cfg, 5);
        std::fs::write(&path, b"garbage that is definitely not a snapshot").unwrap();
        let (d, t) = Dataset::load_or_generate(
            DatasetKind::Dblp,
            ProbModel::WeightedCascade,
            &cfg,
            5,
            Some(&dir),
        );
        assert!(t.cold_s > 0.0, "corrupt cache must regenerate, not die");
        let plain =
            Dataset::generate_with_model(DatasetKind::Dblp, ProbModel::WeightedCascade, &cfg, 5);
        datasets_identical(&d, &plain);
        // The bad file was replaced by a loadable one.
        let (again, t2) = Dataset::load_or_generate(
            DatasetKind::Dblp,
            ProbModel::WeightedCascade,
            &cfg,
            5,
            Some(&dir),
        );
        assert!(t2.warm_s > 0.0, "rewritten snapshot must load warm");
        datasets_identical(&again, &plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_key_separates_every_axis() {
        let cfg = tiny_cfg();
        let base = Dataset::snapshot_key(DatasetKind::Flixster, ProbModel::Exponential, &cfg, 1);
        assert_eq!(
            base,
            Dataset::snapshot_key(DatasetKind::Flixster, ProbModel::Exponential, &cfg, 1)
        );
        assert_ne!(
            base,
            Dataset::snapshot_key(DatasetKind::Epinions, ProbModel::Exponential, &cfg, 1)
        );
        assert_ne!(
            base,
            Dataset::snapshot_key(DatasetKind::Flixster, ProbModel::WeightedCascade, &cfg, 1)
        );
        assert_ne!(
            base,
            Dataset::snapshot_key(DatasetKind::Flixster, ProbModel::Exponential, &cfg, 2)
        );
        let bigger = ScaleConfig {
            scale: cfg.scale * 4.0,
            ..cfg
        };
        assert_ne!(
            base,
            Dataset::snapshot_key(DatasetKind::Flixster, ProbModel::Exponential, &bigger, 1)
        );
    }

    #[test]
    fn no_cache_dir_means_plain_generation() {
        let (d, t) = Dataset::load_or_generate(
            DatasetKind::Flixster,
            ProbModel::WeightedCascade,
            &tiny_cfg(),
            3,
            None,
        );
        assert!(t.cold_s > 0.0 && t.warm_s == 0.0);
        assert_eq!(d.kind, DatasetKind::Flixster);
    }

    /// The paper-scale config shared by the acceptance test and its warm
    /// probe: ×40 lifts LIVEJOURNAL's 120k default to the paper's 4.8M.
    fn paper_cfg() -> ScaleConfig {
        ScaleConfig {
            scale: 40.0,
            eval_runs: 10,
            threads: 1,
        }
    }

    /// Content fingerprint of a dataset (graph arrays + probability bits)
    /// for cross-process bit-identity checks.
    fn content_hash(d: &Dataset) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u32| {
            h ^= w as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let (oo, ot, io, is_, ie) = d.graph.csr_parts();
        for arr in [oo, ot, io, is_, ie] {
            for &w in arr {
                eat(w);
            }
        }
        eat(d.topic_probs.k() as u32);
        for p in d.topic_probs.flat() {
            eat(p.to_bits());
        }
        h
    }

    /// Subprocess half of the paper-scale check: warm-loads the snapshot
    /// the parent test wrote, in a *fresh* process — the pattern every
    /// real consumer has (perf_suite, CI, the experiment bins all start
    /// cold-process/warm-cache). In-process re-loading would instead
    /// measure this container's late-footprint page-fault pathology on
    /// top of the IO. No-op unless the parent set the probe env var.
    #[test]
    #[ignore = "helper for paper_scale_livejournal_streaming_build_and_snapshot"]
    fn paper_scale_warm_probe() {
        let Some(dir) = std::env::var_os("TIRM_PAPER_PROBE_DIR") else {
            return;
        };
        let (warm, t) = Dataset::load_or_generate(
            DatasetKind::LiveJournal,
            ProbModel::WeightedCascade,
            &paper_cfg(),
            0x71a6_5eed,
            Some(Path::new(&dir)),
        );
        assert!(
            t.warm_s > 0.0,
            "probe must hit the snapshot, not regenerate"
        );
        println!("WARM_S={}", t.warm_s);
        println!("CONTENT_HASH={:016x}", content_hash(&warm));
    }

    /// Paper-scale acceptance check (§6.2, Table 1): LIVEJOURNAL at its
    /// real size builds through the streaming path, snapshots round-trip
    /// bit-identically across processes, and a fresh process warm-loads
    /// ≥ 10× faster than regeneration. Run by the nightly CI job (and
    /// locally) as
    /// `cargo test --release -p tirm_workloads -- --ignored paper_scale`.
    /// Needs ~4 GB RAM and a few minutes; ignored in ordinary test runs.
    #[test]
    #[ignore = "paper-scale: minutes of runtime, ~4 GB RAM, ~1 GB disk"]
    fn paper_scale_livejournal_streaming_build_and_snapshot() {
        let cfg = paper_cfg();
        let dir = tmp_cache_dir("paper_scale");
        let t0 = std::time::Instant::now();
        let (cold, t_cold) = Dataset::load_or_generate(
            DatasetKind::LiveJournal,
            ProbModel::WeightedCascade,
            &cfg,
            0x71a6_5eed,
            Some(&dir),
        );
        eprintln!(
            "cold: {:.1}s gen (+write: {:.1}s total), {} nodes, {} edges, {:.2} GB CSR",
            t_cold.cold_s,
            t0.elapsed().as_secs_f64(),
            cold.graph.num_nodes(),
            cold.graph.num_edges(),
            cold.graph.memory_bytes() as f64 / 1e9
        );
        assert!(
            cold.graph.num_nodes() >= 4_000_000,
            "paper-scale node count"
        );
        assert!(
            cold.graph.num_edges() >= 60_000_000,
            "paper-scale arc count"
        );

        // Drain the 1.1 GB of dirty snapshot pages before timing reads —
        // an in-flight writeback storm is measurement noise, not load
        // cost (best-effort; `sync` exists on every CI image).
        std::process::Command::new("sync").status().ok();

        // Warm load in fresh processes (see `paper_scale_warm_probe`);
        // best of three, standard practice for a warm measurement (the
        // first run often still rides the write-back of the 1.1 GB
        // snapshot it is loading).
        let mut best_warm = f64::INFINITY;
        let mut hash_line = String::new();
        for _ in 0..3 {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--ignored", "--exact", "--nocapture"])
                .arg("datasets::tests::paper_scale_warm_probe")
                .env("TIRM_PAPER_PROBE_DIR", &dir)
                .output()
                .expect("spawning the warm probe");
            let stdout = String::from_utf8_lossy(&out.stdout).to_string();
            assert!(
                out.status.success(),
                "warm probe failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            // `split_once`, not `strip_prefix`: with --nocapture the
            // harness's "test … ... " header shares the line.
            let grab = |key: &str| {
                stdout
                    .lines()
                    .find_map(|l| l.split_once(key).map(|(_, v)| v.trim().to_string()))
                    .unwrap_or_else(|| panic!("probe output missing {key}:\n{stdout}"))
            };
            let warm_s: f64 = grab("WARM_S=").parse().unwrap();
            eprintln!("warm probe (fresh process): {warm_s:.2}s load");
            best_warm = best_warm.min(warm_s);
            hash_line = grab("CONTENT_HASH=");
        }
        eprintln!(
            "cache miss {:.2}s vs cache hit {:.2}s: {:.1}× speedup",
            t_cold.cold_s,
            best_warm,
            t_cold.cold_s / best_warm
        );
        assert!(
            t_cold.cold_s >= 10.0 * best_warm,
            "warm load must be ≥10× faster than regeneration: \
             miss {:.2}s vs hit {:.2}s",
            t_cold.cold_s,
            best_warm
        );
        assert_eq!(
            hash_line,
            format!("{:016x}", content_hash(&cold)),
            "loaded dataset must be bit-identical to the generated one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_generation() {
        let a = Dataset::generate(DatasetKind::Epinions, &tiny_cfg(), 11);
        let b = Dataset::generate(DatasetKind::Epinions, &tiny_cfg(), 11);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.topic_probs.get(0, 0), b.topic_probs.get(0, 0));
    }

    #[test]
    fn canonical_model_matches_plain_generate() {
        let a = Dataset::generate(DatasetKind::Flixster, &tiny_cfg(), 13);
        let b = Dataset::generate_with_model(
            DatasetKind::Flixster,
            ProbModel::TopicConcentrated,
            &tiny_cfg(),
            13,
        );
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.topic_probs.get(1, 3), b.topic_probs.get(1, 3));
    }

    #[test]
    fn model_override_controls_topic_count() {
        let d = Dataset::generate_with_model(
            DatasetKind::Flixster,
            ProbModel::WeightedCascade,
            &tiny_cfg(),
            13,
        );
        assert_eq!(d.topic_probs.k(), 1);
        let d = Dataset::generate_with_model(
            DatasetKind::Dblp,
            ProbModel::Exponential,
            &tiny_cfg(),
            13,
        );
        assert_eq!(d.topic_probs.k(), 10);
        assert_eq!(
            ProbModel::canonical(DatasetKind::Dblp),
            ProbModel::WeightedCascade
        );
        assert_eq!(ProbModel::canonical(DatasetKind::Epinions).name(), "exp");
    }
}
