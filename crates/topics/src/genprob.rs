//! Influence-probability generators from §6 of the paper.
//!
//! * **Weighted-Cascade** — `p_{u,v} = 1 / indeg(v)` (Chen et al. \[7\]),
//!   used by the scalability experiments for all ads.
//! * **Exponential inverse-transform** — the EPINIONS setup: per-topic
//!   probabilities drawn from an exponential distribution via the inverse
//!   transform applied to `U(0,1)` samples. Arc probabilities must lie in
//!   `[0,1]`, so we interpret the paper's "mean 30" as rate 30 (mean 1/30 ≈
//!   0.033, matching realistic influence strengths) and clamp the tail.
//! * **Trivalency** — probabilities picked uniformly from
//!   `{0.1, 0.01, 0.001}` (a standard IC benchmark; used in ablations).
//! * **Topic-concentrated** — the FLIXSTER stand-in: each arc is "active"
//!   in a small random subset of topics with exponential magnitudes and
//!   near-zero elsewhere, mimicking probabilities learned by MLE for TIC.

use crate::edge_probs::TopicEdgeProbs;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tirm_graph::{DiGraph, NodeId};

/// Weighted-Cascade probabilities: `p_{u,v} = 1/indeg(v)` for every arc.
pub fn weighted_cascade(g: &DiGraph) -> Vec<f32> {
    let mut out = vec![0.0f32; g.num_edges()];
    for v in 0..g.num_nodes() as NodeId {
        let d = g.in_degree(v);
        if d == 0 {
            continue;
        }
        let p = 1.0 / d as f32;
        for (e, _) in g.in_edges(v) {
            out[e as usize] = p;
        }
    }
    out
}

/// Single draw from `Exp(rate)` by inverse transform, clamped to `[0, 1]`.
#[inline]
pub fn exp_inverse_transform(uniform: f64, rate: f64) -> f32 {
    debug_assert!((0.0..1.0).contains(&uniform));
    ((-(1.0 - uniform).ln()) / rate).min(1.0) as f32
}

/// Exponential probabilities for `m` arcs (single topic).
pub fn exponential_probs(m: usize, rate: f64, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..m)
        .map(|_| exp_inverse_transform(rng.gen::<f64>(), rate))
        .collect()
}

/// Per-topic exponential probabilities (the EPINIONS setup, §6.1):
/// every `(arc, topic)` entry drawn i.i.d. `Exp(rate)` clamped to `[0,1]`.
pub fn exponential_topic_probs(m: usize, k: usize, rate: f64, seed: u64) -> TopicEdgeProbs {
    let mut rng = SmallRng::seed_from_u64(seed);
    TopicEdgeProbs::from_fn(m, k, |_, _| exp_inverse_transform(rng.gen::<f64>(), rate))
}

/// Trivalency probabilities: uniform choice from `{0.1, 0.01, 0.001}`.
pub fn trivalency_probs(m: usize, seed: u64) -> Vec<f32> {
    const LEVELS: [f32; 3] = [0.1, 0.01, 0.001];
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..m).map(|_| LEVELS[rng.gen_range(0..3)]).collect()
}

/// Topic-concentrated probabilities (the FLIXSTER stand-in, see
/// ARCHITECTURE.md "Synthetic data sets"):
/// each arc gets `active_topics` randomly chosen "strong" topics with
/// `Exp(strong_rate)` magnitudes; the remaining topics receive a small
/// background probability `Exp(weak_rate)` (weak_rate ≫ strong_rate).
pub fn topic_concentrated_probs(
    m: usize,
    k: usize,
    active_topics: usize,
    strong_rate: f64,
    weak_rate: f64,
    seed: u64,
) -> TopicEdgeProbs {
    assert!(active_topics >= 1 && active_topics <= k);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = TopicEdgeProbs::new(m, k);
    let mut actives: Vec<usize> = Vec::with_capacity(active_topics);
    for e in 0..m {
        actives.clear();
        while actives.len() < active_topics {
            let z = rng.gen_range(0..k);
            if !actives.contains(&z) {
                actives.push(z);
            }
        }
        for z in 0..k {
            let rate = if actives.contains(&z) {
                strong_rate
            } else {
                weak_rate
            };
            t.set(e as u32, z, exp_inverse_transform(rng.gen::<f64>(), rate));
        }
    }
    t
}

/// Replicates a flat per-arc probability vector across `k` topics — all ads
/// see the same probabilities, which is exactly the scalability setup
/// ("`p^i_{u,v} = 1/|N_in(v)|` for all ads i", §6.2).
pub fn replicate_across_topics(flat: &[f32], k: usize) -> TopicEdgeProbs {
    TopicEdgeProbs::from_fn(flat.len(), k, |e, _| flat[e as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tirm_graph::generators;

    #[test]
    fn weighted_cascade_sums_to_one_per_node() {
        let g = generators::erdos_renyi(60, 300, 3);
        let p = weighted_cascade(&g);
        for v in 0..60 as NodeId {
            if g.in_degree(v) == 0 {
                continue;
            }
            let sum: f32 = g.in_edges(v).map(|(e, _)| p[e as usize]).sum();
            assert!((sum - 1.0).abs() < 1e-4, "node {v} sums to {sum}");
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let p = exponential_probs(200_000, 30.0, 11);
        let mean: f64 = p.iter().map(|&x| x as f64).sum::<f64>() / p.len() as f64;
        assert!(
            (mean - 1.0 / 30.0).abs() < 2e-3,
            "sample mean {mean} far from 1/30"
        );
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn inverse_transform_monotone_and_clamped() {
        assert!(exp_inverse_transform(0.0, 5.0) == 0.0);
        assert!(exp_inverse_transform(0.9, 5.0) > exp_inverse_transform(0.5, 5.0));
        // Tiny rate pushes values above 1 → clamped.
        assert_eq!(exp_inverse_transform(0.999999, 0.001), 1.0);
    }

    #[test]
    fn trivalency_levels_only() {
        let p = trivalency_probs(1000, 5);
        for &x in &p {
            assert!((x - 0.1).abs() < 1e-9 || (x - 0.01).abs() < 1e-9 || (x - 0.001).abs() < 1e-9);
        }
    }

    #[test]
    fn topic_concentration_contrast() {
        let t = topic_concentrated_probs(2000, 10, 2, 8.0, 400.0, 9);
        // Strong topics should dominate: average of the two largest entries
        // per arc ≫ average of the rest.
        let mut strong_sum = 0.0f64;
        let mut weak_sum = 0.0f64;
        for e in 0..2000u32 {
            let mut row: Vec<f32> = t.edge(e).to_vec();
            row.sort_by(|a, b| b.partial_cmp(a).unwrap());
            strong_sum += (row[0] + row[1]) as f64 / 2.0;
            weak_sum += row[2..].iter().map(|&x| x as f64).sum::<f64>() / 8.0;
        }
        assert!(
            strong_sum > 10.0 * weak_sum,
            "strong {strong_sum} vs weak {weak_sum}"
        );
    }

    #[test]
    fn replicate_is_topic_invariant() {
        let flat = vec![0.1, 0.2, 0.3];
        let t = replicate_across_topics(&flat, 4);
        for z in 0..4 {
            assert_eq!(t.get(1, z), 0.2);
        }
        let ad = crate::TopicDist::uniform(4);
        let back = t.project(&ad);
        for (a, b) in back.iter().zip(&flat) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
