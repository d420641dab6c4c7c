//! The anchor of resumed runs: a run handed the record of an earlier run
//! over the same ads, with budgets raised, lowered or left alone, must
//! allocate **bit-identically** to a cold batch run with the new budgets —
//! same seeds in the same order, same revenue bits — and must leave the
//! same warm capital behind as a full warm run does. Covers contention
//! (κ = 1, 2), the size penalty λ, a tight θ cap and none (so θ grows in
//! the resumed suffix), hard cover, two sampling threads, and records
//! that are themselves resumed ones.

use proptest::prelude::*;
use tirm_core::{
    tirm_allocate_resumable, tirm_allocate_seeded, tirm_allocate_warm, AdSeeds, AdWarmState,
    Advertiser, Attention, ProblemInstance, TirmOptions,
};
use tirm_graph::{generators, DiGraph};
use tirm_topics::{CtpTable, TopicDist};

/// One random problem: everything but the budgets.
struct Case {
    graph: DiGraph,
    probs: Vec<Vec<f32>>,
    ctps: Vec<f32>,
    kappa: u32,
    lambda: f64,
    opts: TirmOptions,
    plan: Vec<AdSeeds>,
}

impl Case {
    fn new(gseed: u64, n: usize, h: usize, kappa: u32, lambda: f64, capped: bool) -> Case {
        let graph = generators::preferential_attachment(n, 3, 0.25, gseed);
        let probs = (0..h)
            .map(|i| vec![[0.04f32, 0.3, 0.1, 0.3][(gseed as usize + i) % 4]; graph.num_edges()])
            .collect();
        let ctps = (0..h)
            .map(|i| [1.0f32, 0.4, 0.1][(gseed as usize / 3 + i) % 3])
            .collect();
        let opts = TirmOptions {
            eps: 0.4,
            seed: gseed,
            threads: 1 + (gseed / 4 % 2) as usize,
            max_theta_per_ad: capped.then_some(800),
            hard_cover: gseed % 4 == 0,
            ..TirmOptions::default()
        };
        let plan = (0..h)
            .map(|i| AdSeeds::for_ad_id(gseed, 10 + i as u64))
            .collect();
        Case {
            graph,
            probs,
            ctps,
            kappa,
            lambda,
            opts,
            plan,
        }
    }

    fn problem(&self, budgets: &[f64]) -> ProblemInstance<'_> {
        let h = budgets.len();
        let ads = budgets
            .iter()
            .map(|&b| Advertiser::new(b, 1.0, TopicDist::single(1, 0)))
            .collect();
        let n = self.graph.num_nodes();
        let ctp = CtpTable::direct(self.ctps.iter().map(|&c| vec![c; n]).collect());
        debug_assert_eq!(self.probs.len(), h);
        ProblemInstance::new(
            &self.graph,
            ads,
            self.probs.clone(),
            ctp,
            Attention::Uniform(self.kappa),
            self.lambda,
        )
    }

    /// Resumes `chain` budget vectors in turn, each run from the record
    /// and capital of the one before, and checks each against a cold
    /// batch run and a full warm run.
    fn check_chain(&self, chain: &[Vec<f64>]) {
        let h = chain[0].len();
        let fresh = || (0..h).map(|_| None).collect::<Vec<_>>();
        let first = tirm_allocate_resumable(
            &self.problem(&chain[0]),
            self.opts,
            &self.plan,
            fresh(),
            None,
        );
        // A second copy of the same capital for the full warm runs.
        let mut full_warm =
            tirm_allocate_warm(&self.problem(&chain[0]), self.opts, &self.plan, fresh()).2;
        let (mut warm, mut record) = (first.warm, first.record);
        assert!(record.is_some(), "the default selection records");
        for budgets in &chain[1..] {
            let p = self.problem(budgets);
            let run = tirm_allocate_resumable(&p, self.opts, &self.plan, some(warm), record);
            assert!(run.skipped_steps.is_some(), "a matching record resumes");
            let (cold, cold_stats) = tirm_allocate_seeded(&p, self.opts, &self.plan);
            for i in 0..h {
                assert_eq!(
                    run.alloc.seeds(i),
                    cold.seeds(i),
                    "ad {i}, budgets {budgets:?}"
                );
            }
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&run.stats.estimated_revenue),
                bits(&cold_stats.estimated_revenue),
                "budgets {budgets:?}"
            );
            assert_eq!(run.stats.rr_sets_per_ad, cold_stats.rr_sets_per_ad);
            let (_, _, full) = tirm_allocate_warm(&p, self.opts, &self.plan, some(full_warm));
            for (a, b) in run.warm.iter().zip(&full) {
                assert_eq!(a.counts(), b.counts());
                assert_eq!(a.memory_bytes(), b.memory_bytes());
            }
            full_warm = full;
            (warm, record) = (run.warm, run.record);
        }
    }
}

fn some(warm: Vec<AdWarmState>) -> Vec<Option<AdWarmState>> {
    warm.into_iter().map(Some).collect()
}

/// Budget vectors: a start, then `edits` steps that raise, lower or keep
/// one or several ads' budgets.
fn budget_chain(h: usize, start: &[u8], edits: &[(u8, u8)]) -> Vec<Vec<f64>> {
    let mut b: Vec<f64> = (0..h)
        .map(|i| 2.0 + 2.5 * start[i % start.len()] as f64)
        .collect();
    let mut chain = vec![b.clone()];
    for &(who, how) in edits {
        for (i, budget) in b.iter_mut().enumerate() {
            // `who` picks a subset of the ads; 0 picks none.
            if who as usize & (1 << i) != 0 {
                *budget = match how % 4 {
                    0 => *budget * 1.6 + 1.0,
                    1 => *budget * 0.6,
                    2 => *budget + 0.25,
                    _ => *budget,
                };
            }
        }
        chain.push(b.clone());
    }
    chain
}

#[allow(clippy::too_many_arguments)] // one per proptest dimension
fn run_case(
    gseed: u64,
    n: usize,
    h: usize,
    kappa: u32,
    lambda_on: bool,
    capped: bool,
    start: Vec<u8>,
    edits: Vec<(u8, u8)>,
) {
    let lambda = if lambda_on { 0.05 } else { 0.0 };
    let case = Case::new(gseed, n, h, kappa, lambda, capped);
    case.check_chain(&budget_chain(h, &start, &edits));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resumed_runs_equal_cold_runs(
        gseed in 0u64..1000,
        n in 80usize..160,
        h in 2usize..6,
        kappa in 1u32..3,
        lambda_on in 0u8..2,
        capped in 0u8..2,
        start in proptest::collection::vec(0u8..12, 5),
        edits in proptest::collection::vec((0u8..32, 0u8..4), 1..4),
    ) {
        run_case(gseed, n, h, kappa, lambda_on == 1, capped == 1, start, edits);
    }
}

/// The same property over 500 cases, for the nightly run:
/// `cargo test --release -p tirm_core --test resume_equivalence -- --ignored`.
#[test]
#[ignore]
fn resumed_runs_equal_cold_runs_soak() {
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        fn soak(
            gseed in 0u64..100_000,
            n in 80usize..200,
            h in 2usize..6,
            kappa in 1u32..3,
            lambda_on in 0u8..2,
            capped in 0u8..2,
            start in proptest::collection::vec(0u8..16, 5),
            edits in proptest::collection::vec((0u8..32, 0u8..4), 1..5),
        ) {
            run_case(gseed, n, h, kappa, lambda_on == 1, capped == 1, start, edits);
        }
    }
    soak();
}
