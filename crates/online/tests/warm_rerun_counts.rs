//! What a warm re-run recomputes, counted instead of timed: KPT answers
//! summed (`tirm_kpt_estimates_total{result="miss"}`) and `FastPath`
//! threshold tables gathered (`tirm_fastpath_builds_total`) per event.
//!
//! A full run that resumes the previous run's record
//! (`tirm_online_resumed_reconciliations_total`) must sum and draw
//! exactly what a full run from step 0 would, so `misses` and `builds`
//! are held exactly. `hits` may only drop under a resume (a scan could
//! skip re-asking unchanged ads); this one's scan asks every estimator
//! what the skipped steps asked, so here they are held exactly too.
//!
//! One test in its own binary: the counters are process-wide, so nothing
//! else may run TIRM beside it.

use tirm_core::TirmOptions;
use tirm_graph::generators;
use tirm_obs::registry::{
    FASTPATH_BUILDS, KPT_ESTIMATE_HITS, KPT_ESTIMATE_MISSES, RESUMED_RECONCILIATIONS,
};
use tirm_online::{AdId, OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_topics::{genprob, TopicDist};

/// What one event cost.
#[derive(Debug)]
struct Cost {
    /// `estimate` calls answered from an ad's remembered answers.
    hits: u64,
    /// `estimate` calls that summed the width cache.
    misses: u64,
    /// Threshold tables gathered.
    builds: u64,
    /// Full runs that resumed a record.
    resumed: u64,
}

fn counts() -> Cost {
    Cost {
        hits: KPT_ESTIMATE_HITS.get(),
        misses: KPT_ESTIMATE_MISSES.get(),
        builds: FASTPATH_BUILDS.get(),
        resumed: RESUMED_RECONCILIATIONS.get(),
    }
}

/// Processes `event`, which must re-run the full interleaved greedy, and
/// returns what that run cost.
fn full_rerun(online: &mut OnlineAllocator<'_>, event: OnlineEvent) -> Cost {
    let before = counts();
    let outcome = online.process(&event).expect("valid event");
    assert!(outcome.reallocated && !outcome.fast_path, "{event:?}");
    let after = counts();
    Cost {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        builds: after.builds - before.builds,
        resumed: after.resumed - before.resumed,
    }
}

fn arrival(id: AdId, budget: f64) -> OnlineEvent {
    OnlineEvent::AdArrival {
        id,
        budget,
        cpe: 1.5,
        topics: TopicDist::single(2, (id % 2) as usize),
        ctp: 0.1,
    }
}

/// A top-up of nothing: the model keeps its values but goes stale, so
/// the event re-runs it as it stands (`Reallocate` alone is a no-op on a
/// model that is not stale).
fn rerun_unchanged(id: AdId) -> OnlineEvent {
    OnlineEvent::BudgetTopUp { id, amount: 0.0 }
}

#[test]
fn a_warm_rerun_sums_and_builds_only_what_the_event_changed() {
    let graph = generators::preferential_attachment(200, 3, 0.3, 11);
    let topic_probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 12);
    // The θ cap is far below L(1, ε) on this graph, so every ad holds
    // exactly the cap after its first run and no later run draws θ sets;
    // KPT(1) needs the most estimation rounds, so no later `s` draws
    // widths either. What is left to count is pure recomputation.
    let cfg = OnlineConfig {
        tirm: TirmOptions {
            eps: 0.3,
            seed: 5,
            max_theta_per_ad: Some(2_500),
            ..TirmOptions::default()
        },
        kappa: 1,
        ..OnlineConfig::default()
    };
    let mut online = OnlineAllocator::new(&graph, &topic_probs, cfg);

    // Preload. The first ad runs alone; from the second on every arrival
    // is a full interleaved run in which only the arriving ad is cold.
    online.process(&arrival(1, 5.0)).unwrap();
    let mut asked = 0;
    for id in 2..=4 {
        let live_before = online.num_live() as u64;
        let c = full_rerun(&mut online, arrival(id, 4.0 + id as f64));
        assert_eq!(c.builds, 1, "only the arriving ad draws: {c:?}");
        assert!(c.misses >= 1, "the arriving ad sums its own KPT(1): {c:?}");
        assert!(c.hits >= live_before, "standing ads remember theirs: {c:?}");
        assert_eq!(c.resumed, 1, "the standing ads replay: {c:?}");
        asked = c.hits + c.misses;
    }
    assert!(
        asked > 4,
        "seed counts are revised, s = 1 is not all: {asked}"
    );

    // Nothing changed: every answer of the last run is asked again and
    // remembered, and nothing is drawn. The run resumes the last one's
    // record.
    let c = full_rerun(&mut online, rerun_unchanged(2));
    assert_eq!((c.hits, c.misses, c.builds), (asked, 0, 0));
    assert_eq!(c.resumed, 1, "{c:?}");

    // A larger budget revises ad 2's seed count to values it has not
    // asked before. Those are summed, once: the same state again finds
    // them remembered.
    let c = full_rerun(&mut online, OnlineEvent::BudgetTopUp { id: 2, amount: 9.0 });
    assert!(c.misses >= 1 && c.hits >= 4, "{c:?}");
    assert_eq!((c.builds, c.resumed), (0, 1), "{c:?}");
    let asked = c.hits + c.misses;
    let c = full_rerun(&mut online, rerun_unchanged(3));
    assert_eq!((c.hits, c.misses, c.builds), (asked, 0, 0));
    assert_eq!(c.resumed, 1, "{c:?}");

    // A departure hands the others the users it held, which can revise
    // their seed counts; it never draws.
    let c = full_rerun(&mut online, OnlineEvent::AdDeparture { id: 1 });
    assert!(c.hits >= 3, "{c:?}");
    assert_eq!((c.builds, c.resumed), (0, 1), "{c:?}");

    // Back from the retained pool, ad 1 brings its answers with its
    // width cache: a re-arrival is as warm as a standing ad.
    let c = full_rerun(&mut online, arrival(1, 5.0));
    assert!(c.hits >= 4, "{c:?}");
    assert_eq!((c.builds, c.resumed), (0, 1), "{c:?}");
}
