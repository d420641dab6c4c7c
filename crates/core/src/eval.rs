//! Ground-truth evaluation of allocations by Monte-Carlo simulation.
//!
//! §6 of the paper: "For all algorithms, we evaluate the final regret of
//! their output seed sets using Monte Carlo simulations (10K runs) for
//! neutral, fair, and accurate comparisons." Ads propagate independently,
//! so evaluation runs each ad's TIC-CTP cascade separately and in parallel.
//!
//! [`evaluate_rr`] offers a second estimator built on the RR-set sampling
//! engine: by Lemma 2 / Theorem 5, `σ_ctp(S) = n/θ · Σ_R (1 − Π_{v∈S∩R}
//! (1 − δ(v)))`, which is exactly [`WeightedRrCollection::deficit`] after
//! decaying every chosen seed by its CTP. It shares the
//! [`ParallelSampler`] hot path with TIM/TIRM, so evaluation scales with
//! cores too.

use crate::allocation::Allocation;
use crate::problem::ProblemInstance;
use crate::regret::RegretReport;
use tirm_diffusion::mc_spread_parallel;
use tirm_rrset::{ParallelSampler, RrSampler, SamplingConfig, WeightedRrCollection};

/// Result of evaluating an allocation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// MC-estimated expected clicks `σ_i(S_i)` per ad.
    pub spreads: Vec<f64>,
    /// MC-estimated expected revenue `Π_i(S_i) = cpe(i)·σ_i(S_i)`.
    pub revenues: Vec<f64>,
    /// Regret decomposition at the instance's λ and boosted budgets.
    pub regret: RegretReport,
}

/// Default number of evaluation cascades (the paper's 10K).
pub const DEFAULT_EVAL_RUNS: usize = 10_000;

/// Evaluates `alloc` with `runs` Monte-Carlo cascades per ad.
///
/// Deterministic for fixed inputs; cascades for ad `i` use stream
/// `seed + i`. Set `threads` to 1 for strictly sequential evaluation.
pub fn evaluate(
    problem: &ProblemInstance<'_>,
    alloc: &Allocation,
    runs: usize,
    seed: u64,
    threads: usize,
) -> Evaluation {
    assert_eq!(alloc.num_ads(), problem.num_ads());
    let h = problem.num_ads();
    let mut spreads = Vec::with_capacity(h);
    for i in 0..h {
        let seeds = alloc.seeds(i);
        let spread = if seeds.is_empty() {
            0.0
        } else {
            mc_spread_parallel(
                problem.graph,
                &problem.edge_probs[i],
                seeds,
                Some(problem.ctp.ad(i)),
                runs,
                seed.wrapping_add(i as u64),
                threads,
            )
        };
        spreads.push(spread);
    }
    assemble(problem, alloc, spreads)
}

/// Turns per-ad spread estimates into the full [`Evaluation`] (revenues,
/// regret decomposition) — shared by every spread estimator so the
/// accounting cannot drift between them.
fn assemble(problem: &ProblemInstance<'_>, alloc: &Allocation, spreads: Vec<f64>) -> Evaluation {
    let h = problem.num_ads();
    let revenues: Vec<f64> = spreads
        .iter()
        .enumerate()
        .map(|(i, s)| s * problem.ads[i].cpe)
        .collect();
    let regret = RegretReport::new(
        (0..h).map(|i| (problem.target_budget(i), revenues[i], alloc.seeds(i).len())),
        problem.lambda,
    );
    Evaluation {
        spreads,
        revenues,
        regret,
    }
}

/// Evaluates `alloc` through the RR-set sampling engine: `theta` RR sets
/// per non-empty ad, drawn by a [`ParallelSampler`] under `config`
/// (`config.seed + ad_index` per ad), with per-seed CTP decay providing
/// the unbiased `σ_ctp` estimate. Typically far cheaper than Monte-Carlo
/// forward simulation at equal accuracy on large graphs, and deterministic
/// for a fixed `(seed, threads)` configuration.
pub fn evaluate_rr(
    problem: &ProblemInstance<'_>,
    alloc: &Allocation,
    theta: usize,
    config: SamplingConfig,
) -> Evaluation {
    assert_eq!(alloc.num_ads(), problem.num_ads());
    assert!(theta > 0);
    let h = problem.num_ads();
    let n = problem.num_nodes();
    let mut spreads = Vec::with_capacity(h);
    for i in 0..h {
        let seeds = alloc.seeds(i);
        if seeds.is_empty() {
            spreads.push(0.0);
            continue;
        }
        let sampler = RrSampler::new(problem.graph, &problem.edge_probs[i]);
        // Domain-separate evaluation streams from TIRM's per-ad training
        // engines (which use seed + i): reusing the allocation run's seed
        // here must yield an *independent* estimate, not a replay of the
        // very RR sets the greedy optimized over.
        const EVAL_SEED_SALT: u64 = 0xE7A1_5EED;
        let mut engine = ParallelSampler::new(
            SamplingConfig {
                seed: (config.seed ^ EVAL_SEED_SALT).wrapping_add(i as u64),
                ..config
            },
            n,
        );
        let mut coll = WeightedRrCollection::new(n);
        engine.sample_into(&sampler, theta, &mut coll);
        for &v in seeds {
            coll.decay_node(v, problem.ctp.get(v, i) as f64);
        }
        spreads.push(n as f64 * coll.deficit() / theta as f64);
    }
    assemble(problem, alloc, spreads)
}

/// Number of worker threads to use for evaluation: respects the
/// `TIRM_THREADS` environment variable, defaulting to the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("TIRM_THREADS") {
        if let Ok(t) = v.parse::<usize>() {
            return t.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Advertiser, Attention};
    use tirm_graph::generators;
    use tirm_topics::{CtpTable, TopicDist};

    #[test]
    fn evaluation_matches_closed_form_star() {
        // Star hub, p = 0.5, δ = 1, cpe = 2: Π({hub}) = 2·(1 + 10·0.5) = 12.
        let g = generators::star(11);
        let ads = vec![Advertiser::new(10.0, 2.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.5f32; g.num_edges()]];
        let ctp = CtpTable::constant(11, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let mut a = Allocation::empty(1, 11);
        a.assign(0, 0);
        let ev = evaluate(&p, &a, 40_000, 7, 2);
        assert!((ev.revenues[0] - 12.0).abs() < 0.2, "{}", ev.revenues[0]);
        assert!((ev.regret.total() - 2.0).abs() < 0.25);
    }

    #[test]
    fn empty_allocation_regret_is_total_budget() {
        let g = generators::path(5);
        let ads = vec![
            Advertiser::new(3.0, 1.0, TopicDist::single(1, 0)),
            Advertiser::new(4.0, 1.0, TopicDist::single(1, 0)),
        ];
        let probs = vec![vec![0.1f32; g.num_edges()]; 2];
        let ctp = CtpTable::constant(5, 2, 0.5);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let a = Allocation::empty(2, 5);
        let ev = evaluate(&p, &a, 100, 1, 1);
        assert_eq!(ev.regret.total(), 7.0);
        assert_eq!(ev.spreads, vec![0.0, 0.0]);
    }

    #[test]
    fn rr_evaluation_agrees_with_mc_and_closed_form() {
        // Same star as above: Π({hub}) = 2·(1 + 10·0.5) = 12, at every
        // thread count, deterministically per (seed, threads).
        let g = generators::star(11);
        let ads = vec![Advertiser::new(10.0, 2.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.5f32; g.num_edges()]];
        let ctp = CtpTable::constant(11, 1, 1.0);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let mut a = Allocation::empty(1, 11);
        a.assign(0, 0);
        for threads in [1usize, 4] {
            let cfg = SamplingConfig::new(threads, 7);
            let ev = evaluate_rr(&p, &a, 60_000, cfg);
            assert!(
                (ev.revenues[0] - 12.0).abs() < 0.3,
                "threads={threads}: {}",
                ev.revenues[0]
            );
            let again = evaluate_rr(&p, &a, 60_000, cfg);
            assert_eq!(ev.revenues[0], again.revenues[0], "deterministic");
        }
    }

    #[test]
    fn rr_evaluation_scales_by_seed_ctp() {
        // Hub CTP 0.5 halves the hub's click contribution (Lemma 2):
        // σ_ctp = 0.5·(1 + 20·0.3) = 3.5 on the 21-node star.
        let g = generators::star(21);
        let ads = vec![Advertiser::new(10.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.3f32; g.num_edges()]];
        let mut hub_ctp = vec![1.0f32; 21];
        hub_ctp[0] = 0.5;
        let ctp = CtpTable::direct(vec![hub_ctp]);
        let p = ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0);
        let mut a = Allocation::empty(1, 21);
        a.assign(0, 0);
        let ev = evaluate_rr(&p, &a, 60_000, SamplingConfig::new(2, 3));
        assert!((ev.spreads[0] - 3.5).abs() < 0.15, "{}", ev.spreads[0]);
    }

    #[test]
    fn beta_moves_the_target() {
        let g = generators::path(3);
        let ads = vec![Advertiser::new(10.0, 1.0, TopicDist::single(1, 0))];
        let probs = vec![vec![0.0f32; g.num_edges()]];
        let ctp = CtpTable::constant(3, 1, 1.0);
        let p =
            ProblemInstance::new(&g, ads, probs, ctp, Attention::Uniform(1), 0.0).with_beta(0.5);
        let mut a = Allocation::empty(1, 3);
        a.assign(0, 0);
        let ev = evaluate(&p, &a, 100, 1, 1);
        // Revenue = 1 (seed always clicks), target = 15 → regret 14.
        assert!((ev.regret.total() - 14.0).abs() < 1e-9);
    }
}
