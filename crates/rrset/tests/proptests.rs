//! Property tests for the RR-set machinery: coverage-count conservation,
//! weighted-decay algebra, heap laws and sampler contracts.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tirm_graph::{generators, NodeId};
use tirm_rrset::heap::Verdict;
use tirm_rrset::{
    LazyMaxHeap, ParallelSampler, RrSampler, SampleWorkspace, SamplingConfig, WeightedRrCollection,
};

fn arb_sets(n: u32, max_sets: usize) -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..n, 1..=(n as usize).min(6)),
        1..max_sets,
    )
    .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cover_counts_are_conserved(sets in arb_sets(12, 24), picks in proptest::collection::vec(0u32..12, 1..6)) {
        let mut c = WeightedRrCollection::new(12);
        for s in &sets {
            c.add_set(s);
        }
        // At δ = 1 a set is covered once it holds any pick; then every
        // score is the exact count of uncovered sets holding its node,
        // and the deficit is the exact count of covered sets.
        let check = |c: &WeightedRrCollection, picked: &[NodeId]| {
            let covered = |s: &Vec<NodeId>| s.iter().any(|v| picked.contains(v));
            for v in 0..12u32 {
                let want = sets.iter().filter(|s| !covered(s) && s.contains(&v)).count();
                assert_eq!(c.score(v), want as f64, "node {v}");
            }
            assert_eq!(c.deficit(), sets.iter().filter(|s| covered(s)).count() as f64);
        };
        check(&c, &[]);
        for (k, &p) in picks.iter().enumerate() {
            c.decay_node(p, 1.0);
            check(&c, &picks[..=k]);
        }
    }

    #[test]
    fn weighted_deficit_equals_inclusion_exclusion(
        sets in arb_sets(10, 16),
        deltas in proptest::collection::vec((0u32..10, 0.05f64..0.95), 1..5),
    ) {
        let mut c = WeightedRrCollection::new(10);
        for s in &sets {
            c.add_set(s);
        }
        // Apply decays, then verify deficit = Σ_R (1 − Π (1−δ_v)^{hits}).
        let mut applied: Vec<(u32, f64)> = Vec::new();
        for &(v, d) in &deltas {
            c.decay_node(v, d);
            applied.push((v, d));
        }
        let mut want = 0.0f64;
        for s in &sets {
            let mut w = 1.0f64;
            for &(v, d) in &applied {
                if s.contains(&v) {
                    w *= 1.0 - d;
                }
            }
            want += 1.0 - w;
        }
        prop_assert!((c.deficit() - want).abs() < 1e-9, "{} vs {}", c.deficit(), want);
        // Scores are never negative (up to float fuzz).
        for v in 0..10u32 {
            prop_assert!(c.score(v) > -1e-9);
        }
    }

    #[test]
    fn weighted_scores_match_definition(
        sets in arb_sets(10, 16),
        deltas in proptest::collection::vec((0u32..10, 0.05f64..0.95), 0..4),
    ) {
        let mut c = WeightedRrCollection::new(10);
        for s in &sets {
            c.add_set(s);
        }
        let mut applied: Vec<(u32, f64)> = Vec::new();
        for &(v, d) in &deltas {
            c.decay_node(v, d);
            applied.push((v, d));
        }
        for v in 0..10u32 {
            let mut want = 0.0f64;
            for s in &sets {
                if !s.contains(&v) {
                    continue;
                }
                let mut w = 1.0f64;
                for &(u, d) in &applied {
                    if s.contains(&u) {
                        w *= 1.0 - d;
                    }
                }
                want += w;
            }
            prop_assert!((c.score(v) - want).abs() < 1e-9, "node {v}: {} vs {want}", c.score(v));
        }
    }

    #[test]
    fn lazy_heap_pops_in_nonincreasing_order(keys in proptest::collection::vec(0u64..1000, 1..40)) {
        let mut h = LazyMaxHeap::build(keys.iter().enumerate().map(|(i, &k)| (i as NodeId, k)));
        let mut last = u64::MAX;
        while let Some((_, k)) = h.pop_best(|_, _| Verdict::Take) {
            prop_assert!(k <= last);
            last = k;
        }
    }

    #[test]
    fn parallel_serial_equivalence(seed in 0u64..1000, n in 8usize..48) {
        // Random small graph with deterministic pseudo-probabilities.
        let g = generators::erdos_renyi(n, 3 * n, seed);
        let probs: Vec<f32> = (0..g.num_edges())
            .map(|e| 0.1 + 0.8 * ((e * 37 % 97) as f32 / 97.0))
            .collect();
        let sampler = RrSampler::new(&g, &probs);

        // threads = 1 is bit-identical to the plain serial sampler.
        let mut ws = SampleWorkspace::new(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut serial: Vec<Vec<NodeId>> = Vec::new();
        for _ in 0..300 {
            serial.push(sampler.sample(&mut ws, &mut rng).to_vec());
        }
        let mut engine = ParallelSampler::new(SamplingConfig::serial(seed), n);
        let mut one: Vec<Vec<NodeId>> = Vec::new();
        engine.sample_into(&sampler, 300, &mut one);
        prop_assert_eq!(&serial, &one);

        // Node-frequency estimates agree across thread counts within
        // statistical tolerance (they are independent unbiased estimators
        // of the same containment probabilities, Proposition 1).
        let theta = 4000usize;
        let freqs = |threads: usize| -> Vec<f64> {
            let mut e = ParallelSampler::new(SamplingConfig::new(threads, seed ^ 0xf00d), n);
            let mut coll = WeightedRrCollection::new(n);
            e.sample_into(&sampler, theta, &mut coll);
            (0..n as NodeId)
                .map(|v| coll.score(v) / theta as f64)
                .collect()
        };
        let base = freqs(1);
        for threads in [2usize, 4] {
            let f = freqs(threads);
            for v in 0..n {
                // 4000 samples ⇒ sd ≤ 0.008 per estimator; 0.08 is ~7σ on
                // the difference, far beyond union-bound flake territory.
                prop_assert!(
                    (f[v] - base[v]).abs() < 0.08,
                    "threads={} node={}: {} vs {}", threads, v, f[v], base[v]
                );
            }
        }
    }

    #[test]
    fn rr_sets_contain_only_ancestors(seed in 0u64..64) {
        // On a path with p = 1, the RR set of root r is exactly {0..=r} —
        // any sampled set must be a prefix ending at its root.
        let g = generators::path(12);
        let probs = vec![1.0f32; g.num_edges()];
        let s = RrSampler::new(&g, &probs);
        let mut ws = SampleWorkspace::new(12);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..16 {
            let set = s.sample(&mut ws, &mut rng).to_vec();
            let root = set[0];
            let mut sorted = set.clone();
            sorted.sort_unstable();
            let want: Vec<NodeId> = (0..=root).collect();
            prop_assert_eq!(sorted, want);
        }
    }
}
