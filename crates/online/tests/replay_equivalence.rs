//! The correctness anchor of the online subsystem: replaying any event
//! log produces allocations **bit-identical** to running batch TIRM on
//! the ad set live at that point (same id-derived seed plans). The online
//! path may only change *where* RR sets come from — cached postings vs
//! fresh graph walks — never the allocation itself.

use proptest::prelude::*;
use tirm_core::{
    tirm_allocate_seeded, AdSeeds, Advertiser, Attention, ProblemInstance, TirmOptions,
};
use tirm_graph::{generators, DiGraph};
use tirm_online::{AdId, OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_topics::{genprob, CtpTable, TopicDist, TopicEdgeProbs};

/// Abstract op; the replay harness maps it onto a *valid* event against
/// the live-ad model (`which` indexes the live set modulo its size).
#[derive(Clone, Debug)]
enum Op {
    Arrive { budget: u32, topic: u8, ctp: u8 },
    TopUp { which: usize, amount: u32 },
    Depart { which: usize },
    Query,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // (kind, magnitude, flavour, which) tuples mapped onto ops with
    // weights 4:2:2:1 for arrive:topup:depart:query.
    let op =
        (0u8..9, 2u32..24, 0u8..6, 0usize..6).prop_map(|(kind, mag, flavour, which)| match kind {
            0..=3 => Op::Arrive {
                budget: mag,
                topic: flavour % 2,
                ctp: flavour % 3,
            },
            4 | 5 => Op::TopUp {
                which,
                amount: mag / 2 + 1,
            },
            6 | 7 => Op::Depart { which },
            _ => Op::Query,
        });
    proptest::collection::vec(op, 1..10)
}

fn quick_opts(seed: u64) -> TirmOptions {
    TirmOptions {
        eps: 0.3,
        seed,
        max_theta_per_ad: Some(2_500),
        ..TirmOptions::default()
    }
}

fn ctp_of(code: u8) -> f32 {
    [1.0, 0.5, 0.05][code as usize % 3]
}

/// Model of the live ad population the batch side is built from.
#[derive(Clone)]
struct ModelAd {
    id: AdId,
    budget: f64,
    cpe: f64,
    topics: TopicDist,
    ctp: f32,
}

fn batch_allocation(
    graph: &DiGraph,
    topic_probs: &TopicEdgeProbs,
    ads: &[ModelAd],
    opts: TirmOptions,
    kappa: u32,
    lambda: f64,
) -> (Vec<Vec<u32>>, Vec<f64>) {
    if ads.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let n = graph.num_nodes();
    let advertisers: Vec<Advertiser> = ads
        .iter()
        .map(|a| Advertiser::new(a.budget, a.cpe, a.topics.clone()))
        .collect();
    let probs: Vec<Vec<f32>> = ads.iter().map(|a| topic_probs.project(&a.topics)).collect();
    let ctp = CtpTable::direct(ads.iter().map(|a| vec![a.ctp; n]).collect());
    let problem = ProblemInstance::new(
        graph,
        advertisers,
        probs,
        ctp,
        Attention::Uniform(kappa),
        lambda,
    );
    let plan: Vec<AdSeeds> = ads
        .iter()
        .map(|a| AdSeeds::for_ad_id(opts.seed, a.id))
        .collect();
    let (alloc, stats) = tirm_allocate_seeded(&problem, opts, &plan);
    let seeds = (0..ads.len()).map(|i| alloc.seeds(i).to_vec()).collect();
    (seeds, stats.estimated_revenue)
}

/// Replays `ops`, checking online ≡ batch after every mutating event
/// (`check_each`), or applies them as one batch and checks only the end.
fn replay_and_check(ops: &[Op], seed: u64, kappa: u32, lambda: f64, check_each: bool) {
    let graph = generators::preferential_attachment(120, 3, 0.3, seed ^ 0x9a9a);
    let topic_probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
    let opts = quick_opts(seed);
    let mut online = OnlineAllocator::new(
        &graph,
        &topic_probs,
        OnlineConfig {
            tirm: opts,
            kappa,
            lambda,
            ..OnlineConfig::default()
        },
    );

    let mut model: Vec<ModelAd> = Vec::new();
    let mut log: Vec<OnlineEvent> = Vec::new();
    let mut next_id: AdId = 1;
    for op in ops {
        let event = match op {
            Op::Arrive { budget, topic, ctp } => {
                let id = next_id;
                next_id += 1;
                let topics = TopicDist::single(2, *topic as usize);
                let ad = ModelAd {
                    id,
                    budget: *budget as f64,
                    cpe: 1.5,
                    topics: topics.clone(),
                    ctp: ctp_of(*ctp),
                };
                model.push(ad.clone());
                OnlineEvent::AdArrival {
                    id,
                    budget: ad.budget,
                    cpe: ad.cpe,
                    topics,
                    ctp: ad.ctp,
                }
            }
            Op::TopUp { which, amount } => {
                if model.is_empty() {
                    continue;
                }
                let i = which % model.len();
                model[i].budget += *amount as f64;
                OnlineEvent::BudgetTopUp {
                    id: model[i].id,
                    amount: *amount as f64,
                }
            }
            Op::Depart { which } => {
                if model.is_empty() {
                    continue;
                }
                let i = which % model.len();
                let id = model.remove(i).id;
                OnlineEvent::AdDeparture { id }
            }
            Op::Query => OnlineEvent::RegretQuery,
        };
        if !check_each {
            log.push(event);
            continue;
        }
        online
            .process(&event)
            .expect("harness only emits valid events");

        assert_allocations_match(&online, &graph, &topic_probs, &model, opts, kappa, lambda);
    }
    for outcome in online.apply(&log) {
        outcome.expect("harness only emits valid events");
    }
    assert_allocations_match(&online, &graph, &topic_probs, &model, opts, kappa, lambda);
}

fn assert_allocations_match(
    online: &OnlineAllocator<'_>,
    graph: &DiGraph,
    topic_probs: &TopicEdgeProbs,
    model: &[ModelAd],
    opts: TirmOptions,
    kappa: u32,
    lambda: f64,
) {
    let (batch_seeds, batch_revenue) =
        batch_allocation(graph, topic_probs, model, opts, kappa, lambda);
    let online_alloc = online.allocation();
    assert_eq!(
        online.live_ids(),
        model.iter().map(|a| a.id).collect::<Vec<_>>(),
        "live set diverged from the model"
    );
    assert_eq!(online_alloc.num_ads(), batch_seeds.len());
    for (i, ad) in model.iter().enumerate() {
        assert_eq!(
            online_alloc.seeds(i),
            &batch_seeds[i][..],
            "ad {} (id {}) diverged from batch",
            i,
            ad.id
        );
        let online_rev = online.revenue_estimate(ad.id).unwrap();
        assert_eq!(
            online_rev.to_bits(),
            batch_revenue[i].to_bits(),
            "revenue estimate of ad {} drifted: {} vs {}",
            ad.id,
            online_rev,
            batch_revenue[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Auto-reallocating replay: online ≡ batch after *every* event.
    #[test]
    fn replay_equals_batch_after_every_event(
        ops in arb_ops(),
        seed in 0u64..200,
        kappa in 1u32..=2,
    ) {
        replay_and_check(&ops, seed, kappa, 0.0, true);
    }

    /// The whole log as one batch: a single `apply` reconciles once at
    /// its end (queries inside it reconcile what precedes them), and the
    /// end state must equal batch on the final ad set.
    #[test]
    fn whole_log_replay_equals_batch_at_the_end(
        ops in arb_ops(),
        seed in 0u64..200,
    ) {
        replay_and_check(&ops, seed, 2, 0.05, false);
    }
}

/// Deterministic interleaving exercising every event type with κ = 1
/// (guaranteed attention contention between the ads) — a debuggable
/// anchor next to the property tests.
#[test]
fn fixed_contended_interleaving_matches_batch() {
    let ops = [
        Op::Arrive {
            budget: 10,
            topic: 0,
            ctp: 0,
        },
        Op::Arrive {
            budget: 8,
            topic: 1,
            ctp: 1,
        },
        Op::TopUp {
            which: 0,
            amount: 6,
        },
        Op::Arrive {
            budget: 12,
            topic: 0,
            ctp: 2,
        },
        Op::Query,
        Op::Depart { which: 1 },
        Op::TopUp {
            which: 1,
            amount: 3,
        },
        Op::Arrive {
            budget: 5,
            topic: 1,
            ctp: 0,
        },
        Op::Depart { which: 0 },
    ];
    replay_and_check(&ops, 42, 1, 0.0, true);
}

/// Same interleaving, uncontended κ and a seed-size penalty.
#[test]
fn fixed_clean_interleaving_matches_batch_with_lambda() {
    let ops = [
        Op::Arrive {
            budget: 9,
            topic: 0,
            ctp: 1,
        },
        Op::Arrive {
            budget: 7,
            topic: 1,
            ctp: 1,
        },
        Op::Depart { which: 0 },
        Op::Arrive {
            budget: 11,
            topic: 0,
            ctp: 0,
        },
        Op::TopUp {
            which: 0,
            amount: 5,
        },
    ];
    replay_and_check(&ops, 7, 3, 0.1, true);
}
