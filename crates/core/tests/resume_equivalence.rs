//! The anchor of replayed runs: a run handed the record of an earlier run
//! — with budgets raised, lowered or left alone, ads arrived and ads
//! departed — must allocate **bit-identically** to a cold batch run over
//! the ads live now — same seeds in the same order, same revenue bits —
//! and must leave the same warm capital behind as a full warm run does.
//! Covers contention (κ = 1, 2), the size penalty λ, a tight θ cap and
//! none (so θ grows after an ad goes live), hard cover, two sampling
//! threads, and records that are themselves replayed ones.

use proptest::prelude::*;
use tirm_core::{
    tirm_allocate_resumable, tirm_allocate_seeded, tirm_allocate_warm, AdSeeds, AdWarmState,
    Advertiser, Attention, ProblemInstance, TirmOptions,
};
use tirm_graph::{generators, DiGraph};
use tirm_topics::{CtpTable, TopicDist};

/// Ads that can arrive besides the `h` a chain starts with.
const ARRIVALS: usize = 2;

/// One random problem: everything but the budgets and who is live.
struct Case {
    graph: DiGraph,
    /// Per ad of the pool: its arc probability, CTP and seed plan.
    probs: Vec<f32>,
    ctps: Vec<f32>,
    plan: Vec<AdSeeds>,
    kappa: u32,
    lambda: f64,
    opts: TirmOptions,
}

impl Case {
    fn new(gseed: u64, n: usize, h: usize, kappa: u32, lambda: f64, capped: bool) -> Case {
        let graph = generators::preferential_attachment(n, 3, 0.25, gseed);
        let pool = h + ARRIVALS;
        let probs = (0..pool)
            .map(|i| [0.04f32, 0.3, 0.1, 0.3][(gseed as usize + i) % 4])
            .collect();
        let ctps = (0..pool)
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
        let plan = (0..pool)
            .map(|i| AdSeeds::for_ad_id(gseed, 10 + i as u64))
            .collect();
        Case {
            graph,
            probs,
            ctps,
            plan,
            kappa,
            lambda,
            opts,
        }
    }

    /// The problem over the live ads `live` (pool indices), with the
    /// pool's `budgets`.
    fn problem(&self, live: &[usize], budgets: &[f64]) -> ProblemInstance<'_> {
        let ads = live
            .iter()
            .map(|&i| Advertiser::new(budgets[i], 1.0, TopicDist::single(1, 0)))
            .collect();
        let (n, m) = (self.graph.num_nodes(), self.graph.num_edges());
        let probs = live.iter().map(|&i| vec![self.probs[i]; m]).collect();
        let ctp = CtpTable::direct(live.iter().map(|&i| vec![self.ctps[i]; n]).collect());
        ProblemInstance::new(
            &self.graph,
            ads,
            probs,
            ctp,
            Attention::Uniform(self.kappa),
            self.lambda,
        )
    }

    fn plan(&self, live: &[usize]) -> Vec<AdSeeds> {
        live.iter().map(|&i| self.plan[i]).collect()
    }

    /// Warm states of the live ads `live`, indexed by pool index.
    fn by_ad(&self, live: &[usize], warm: Vec<AdWarmState>) -> Vec<Option<AdWarmState>> {
        let mut out: Vec<_> = self.plan.iter().map(|_| None).collect();
        for (&i, w) in live.iter().zip(warm) {
            out[i] = Some(w);
        }
        out
    }

    /// Runs `chain` in turn, each run from the record and capital of the
    /// one before, and checks each against a cold batch run and a full
    /// warm run.
    fn check_chain(&self, chain: &[Step]) {
        let fresh = |live: &[usize]| live.iter().map(|_| None).collect::<Vec<_>>();
        let Step { live, budgets } = &chain[0];
        let (p, plan) = (self.problem(live, budgets), self.plan(live));
        let first = tirm_allocate_resumable(&p, self.opts, &plan, fresh(live), None);
        // A second copy of the same capital for the full warm runs.
        let full_warm = tirm_allocate_warm(&p, self.opts, &plan, fresh(live)).2;
        let (mut warm, mut full_warm) = (self.by_ad(live, first.warm), self.by_ad(live, full_warm));
        let mut record = first.record;
        assert!(record.is_some(), "the default selection records");
        let mut before = live;
        for Step { live, budgets } in &chain[1..] {
            for &i in before.iter().filter(|i| !live.contains(i)) {
                record.as_mut().unwrap().forget(self.plan[i]);
            }
            before = live;
            let (p, plan) = (self.problem(live, budgets), self.plan(live));
            let take = |warm: &mut Vec<Option<AdWarmState>>| {
                live.iter().map(|&i| warm[i].take()).collect::<Vec<_>>()
            };
            let run = tirm_allocate_resumable(&p, self.opts, &plan, take(&mut warm), record);
            let (cold, cold_stats) = tirm_allocate_seeded(&p, self.opts, &plan);
            for i in 0..live.len() {
                assert_eq!(
                    run.alloc.seeds(i),
                    cold.seeds(i),
                    "ad {i} of {live:?}, budgets {budgets:?}"
                );
            }
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&run.stats.estimated_revenue),
                bits(&cold_stats.estimated_revenue),
                "{live:?}, budgets {budgets:?}"
            );
            assert_eq!(run.stats.rr_sets_per_ad, cold_stats.rr_sets_per_ad);
            let (_, _, full) = tirm_allocate_warm(&p, self.opts, &plan, take(&mut full_warm));
            for (a, b) in run.warm.iter().zip(&full) {
                assert_eq!(a.counts(), b.counts());
                assert_eq!(a.memory_bytes(), b.memory_bytes());
            }
            warm = self.by_ad(live, run.warm);
            full_warm = self.by_ad(live, full);
            record = run.record;
        }
    }
}

/// Who is live, in live order, and every pool ad's budget.
struct Step {
    live: Vec<usize>,
    budgets: Vec<f64>,
}

/// A chain of steps: `h` ads with budgets from `start`, then `edits`
/// that raise, lower or keep some ads' budgets, or let the next pool ad
/// arrive, or one live ad depart.
fn chain(h: usize, start: &[u8], edits: &[(u8, u8)]) -> Vec<Step> {
    let mut budgets: Vec<f64> = (0..h + ARRIVALS)
        .map(|i| 2.0 + 2.5 * start[i % start.len()] as f64)
        .collect();
    let mut live: Vec<usize> = (0..h).collect();
    let mut arrived = h;
    let mut chain = vec![Step {
        live: live.clone(),
        budgets: budgets.clone(),
    }];
    for &(who, how) in edits {
        match how % 6 {
            4 if arrived < h + ARRIVALS => {
                live.push(arrived);
                arrived += 1;
            }
            5 if live.len() > 1 => {
                live.remove(who as usize % live.len());
            }
            how => {
                for (pos, &i) in live.iter().enumerate() {
                    // `who` picks a subset of the live ads; 0 picks none.
                    if who as usize & (1 << pos) != 0 {
                        budgets[i] = match how {
                            0 => budgets[i] * 1.6 + 1.0,
                            1 => budgets[i] * 0.6,
                            2 => budgets[i] + 0.25,
                            _ => budgets[i],
                        };
                    }
                }
            }
        }
        chain.push(Step {
            live: live.clone(),
            budgets: budgets.clone(),
        });
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
    case.check_chain(&chain(h, &start, &edits));
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
        edits in proptest::collection::vec((0u8..32, 0u8..6), 1..5),
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
            edits in proptest::collection::vec((0u8..32, 0u8..6), 1..6),
        ) {
            run_case(gseed, n, h, kappa, lambda_on == 1, capped == 1, start, edits);
        }
    }
    soak();
}
