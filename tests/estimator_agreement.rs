//! Cross-crate estimator agreement: RR-set coverage estimates, RRC
//! sampling, Monte-Carlo simulation and exact enumeration must all agree
//! within their error budgets (Propositions 1–2, Lemma 2, Theorem 5).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tirm_diffusion::{exact_spread, mc_spread};
use tirm_graph::{generators, NodeId};
use tirm_rrset::{RrSampler, SampleWorkspace, WeightedRrCollection};

/// Coverage-based spread estimate `n · F_R(S)` over a fresh collection.
fn rr_estimate(
    g: &tirm_graph::DiGraph,
    probs: &[f32],
    seeds: &[NodeId],
    samples: usize,
    seed: u64,
    ctp: Option<&[f32]>,
) -> f64 {
    let sampler = RrSampler::new(g, probs);
    let mut ws = SampleWorkspace::new(g.num_nodes());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut covered = 0usize;
    for _ in 0..samples {
        let set = match ctp {
            None => sampler.sample(&mut ws, &mut rng),
            Some(c) => sampler.sample_rrc(c, &mut ws, &mut rng),
        };
        if set.iter().any(|v| seeds.contains(v)) {
            covered += 1;
        }
    }
    g.num_nodes() as f64 * covered as f64 / samples as f64
}

#[test]
fn proposition_1_rr_estimates_ic_spread() {
    // n·E[F_R(S)] = σ_ic(S) — checked against exact enumeration.
    let g = generators::erdos_renyi(10, 16, 5);
    let probs = vec![0.3f32; g.num_edges()];
    let seeds = vec![0u32, 3];
    let truth = exact_spread(&g, &probs, &seeds, None);
    let est = rr_estimate(&g, &probs, &seeds, 200_000, 9, None);
    assert!(
        (est - truth).abs() < 0.05,
        "RR estimate {est} vs exact {truth}"
    );
}

#[test]
fn lemma_2_rrc_estimates_ctp_spread() {
    // n·E[F_Q(S)] = σ_ctp(S) with node-level CTP coins in the sampler.
    let g = generators::erdos_renyi(10, 16, 6);
    let probs = vec![0.3f32; g.num_edges()];
    let ctp: Vec<f32> = (0..10).map(|i| 0.2 + 0.05 * i as f32).collect();
    let seeds = vec![1u32, 4];
    let truth = exact_spread(&g, &probs, &seeds, Some(&ctp));
    let est = rr_estimate(&g, &probs, &seeds, 300_000, 11, Some(&ctp));
    assert!(
        (est - truth).abs() < 0.05,
        "RRC estimate {est} vs exact {truth}"
    );
}

#[test]
fn theorem_5_ctp_scaled_rr_marginals_match_rrc_marginals() {
    // δ(u)·(E[F_R(S∪u)] − E[F_R(S)]) = E[F_Q(S∪u)] − E[F_Q(S)].
    let g = generators::preferential_attachment(60, 3, 0.3, 2);
    let probs = vec![0.25f32; g.num_edges()];
    let delta_u = 0.3f32;
    let mut ctp = vec![1.0f32; 60];
    let u: NodeId = 0; // the PA hub — large marginal, good signal
    ctp[u as usize] = delta_u;
    let s: Vec<NodeId> = vec![10, 20];
    let mut s_u = s.clone();
    s_u.push(u);
    let samples = 300_000;
    // Left side: plain RR sampling, marginal scaled by δ(u).
    let rr_s = rr_estimate(&g, &probs, &s, samples, 21, None);
    let rr_su = rr_estimate(&g, &probs, &s_u, samples, 21, None);
    let lhs = delta_u as f64 * (rr_su - rr_s);
    // Right side: RRC sampling with CTPs (seeds in S have CTP 1).
    let rrc_s = rr_estimate(&g, &probs, &s, samples, 22, Some(&ctp));
    let rrc_su = rr_estimate(&g, &probs, &s_u, samples, 22, Some(&ctp));
    let rhs = rrc_su - rrc_s;
    assert!(
        (lhs - rhs).abs() < 0.15,
        "Theorem 5: {lhs} vs {rhs} (marginals must agree)"
    );
}

#[test]
fn max_cover_greedy_matches_mc_ranking() {
    // The node TIM/TIRM pick by coverage must have the best MC spread too.
    let g = generators::star(80);
    let probs = vec![0.3f32; g.num_edges()];
    let sampler = RrSampler::new(&g, &probs);
    let mut ws = SampleWorkspace::new(80);
    let mut rng = SmallRng::seed_from_u64(4);
    let mut coll = WeightedRrCollection::new(80);
    for _ in 0..50_000 {
        coll.add_set(sampler.sample(&mut ws, &mut rng));
    }
    let (best, _) = coll.argmax_score(|_| true).unwrap();
    assert_eq!(best, 0, "the hub must dominate coverage");
    let hub_mc = mc_spread(&g, &probs, &[0], None, 20_000, 1);
    let leaf_mc = mc_spread(&g, &probs, &[1], None, 20_000, 1);
    assert!(hub_mc > leaf_mc * 5.0);
}
