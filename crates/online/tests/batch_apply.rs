//! Batch split invariance: applying a log in batches of any sizes
//! ([`OnlineAllocator::apply`]) answers exactly what processing it one
//! event at a time does. At every batch end the standing state is
//! `same_allocation` to per-event replay at that epoch, every event gets
//! the same Ok/Err, and every `RegretQuery` the same regret bits —
//! rejected events, departures under contention (κ = 1) and `Reallocate`
//! / `RegretQuery` barriers inside a batch included. This is what lets a
//! durable commit reconcile and publish once per drained batch.

use proptest::prelude::*;
use tirm_core::TirmOptions;
use tirm_graph::generators;
use tirm_online::{AllocationSnapshot, OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_topics::TopicDist;
use tirm_topics::{genprob, TopicEdgeProbs};

/// Ids come from a small range so duplicates and unknown ids (rejected
/// events) occur naturally; a few payloads are out of domain too.
fn arb_event() -> impl Strategy<Value = OnlineEvent> {
    (0u8..12, 1u64..6, 1u32..16).prop_map(|(kind, id, mag)| match kind {
        0..=3 => OnlineEvent::AdArrival {
            id,
            budget: mag as f64,
            cpe: 1.5,
            topics: TopicDist::single(2, (mag % 2) as usize),
            ctp: [1.0, 0.5, 0.05][(mag % 3) as usize],
        },
        4 | 5 => OnlineEvent::BudgetTopUp {
            id,
            amount: mag as f64 / 2.0,
        },
        6 | 7 => OnlineEvent::AdDeparture { id },
        8 => OnlineEvent::BudgetTopUp { id, amount: -1.0 },
        9 => OnlineEvent::Reallocate,
        _ => OnlineEvent::RegretQuery,
    })
}

fn setup(seed: u64) -> (tirm_graph::DiGraph, TopicEdgeProbs) {
    let graph = generators::preferential_attachment(120, 3, 0.3, seed ^ 0x9a9a);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
    (graph, probs)
}

fn config(seed: u64, kappa: u32) -> OnlineConfig {
    OnlineConfig {
        tirm: TirmOptions {
            eps: 0.3,
            seed,
            max_theta_per_ad: Some(2_500),
            ..TirmOptions::default()
        },
        kappa,
        lambda: 0.05,
        ..OnlineConfig::default()
    }
}

/// What one event answered, reduced to what must not depend on batching.
fn answer(r: &Result<tirm_online::EventOutcome, tirm_online::OnlineError>) -> Option<Option<u64>> {
    r.as_ref().ok().map(|o| o.regret.map(f64::to_bits))
}

/// Replays `log` per event and in batches of `sizes` (cycled), checking
/// the batched allocator against the per-event one at every batch end.
fn check_split(log: &[OnlineEvent], sizes: &[usize], seed: u64, kappa: u32) {
    let (graph, probs) = setup(seed);
    let cfg = config(seed, kappa);

    let mut single = OnlineAllocator::new(&graph, &probs, cfg.clone());
    let mut answers = Vec::new();
    let mut after: Vec<std::sync::Arc<AllocationSnapshot>> = Vec::new();
    for ev in log {
        answers.push(answer(&single.process(ev)));
        after.push(single.snapshot());
    }

    let mut batched = OnlineAllocator::new(&graph, &probs, cfg);
    let mut at = 0;
    for &size in sizes.iter().cycle() {
        if at == log.len() {
            break;
        }
        let end = (at + size.max(1)).min(log.len());
        let got: Vec<_> = batched.apply(&log[at..end]).iter().map(answer).collect();
        assert_eq!(
            got,
            answers[at..end],
            "answers of events {at}..{end} differ"
        );
        let want = &after[end - 1];
        let snap = batched.snapshot();
        assert!(
            snap.same_allocation(want),
            "batch {at}..{end}: epoch {} regret {} vs per-event epoch {} regret {}",
            snap.epoch,
            snap.regret_estimate,
            want.epoch,
            want.regret_estimate
        );
        at = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_batch_split_publishes_the_per_event_states(
        log in proptest::collection::vec(arb_event(), 1..14),
        sizes in proptest::collection::vec(1usize..6, 1..5),
        seed in 0u64..200,
        kappa in 1u32..=2,
    ) {
        check_split(&log, &sizes, seed, kappa);
    }
}

/// A debuggable anchor: κ = 1 (every reconciliation contended), the
/// departures that unblock other ads, a rejected event and both
/// barriers, under every cut from one batch to singletons.
#[test]
fn contended_log_under_fixed_splits() {
    let arrive = |id, budget, topic| OnlineEvent::AdArrival {
        id,
        budget,
        cpe: 1.5,
        topics: TopicDist::single(2, topic),
        ctp: 0.5,
    };
    let log = [
        arrive(1, 10.0, 0),
        arrive(2, 8.0, 1),
        OnlineEvent::RegretQuery,
        arrive(3, 12.0, 0),
        OnlineEvent::AdDeparture { id: 2 },
        OnlineEvent::BudgetTopUp { id: 9, amount: 1.0 },
        OnlineEvent::Reallocate,
        OnlineEvent::BudgetTopUp { id: 1, amount: 6.0 },
        OnlineEvent::AdDeparture { id: 1 },
        OnlineEvent::RegretQuery,
        arrive(2, 5.0, 1),
    ];
    for sizes in [&[log.len()][..], &[1], &[2], &[3, 1], &[4, 2, 5]] {
        check_split(&log, sizes, 42, 1);
    }
}
