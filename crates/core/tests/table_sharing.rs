//! Cold ads over bit-identical probability vectors share one `FastPath`
//! threshold table, counted by `tirm_fastpath_builds_total`: a vector
//! that differs in one arc's bits gets a table of its own, and a warm
//! re-run compares nothing and builds nothing.
//!
//! One test in its own binary: the counter is process-wide, so nothing
//! else may run TIRM beside it.

use tirm_core::{
    tirm_allocate_seeded, tirm_allocate_warm, AdSeeds, Advertiser, Attention, ProblemInstance,
    TirmOptions,
};
use tirm_graph::{generators, DiGraph};
use tirm_obs::registry::FASTPATH_BUILDS;
use tirm_topics::{CtpTable, TopicDist};

const ADS: usize = 4;

fn problem(graph: &DiGraph, probs: Vec<Vec<f32>>) -> ProblemInstance<'_> {
    let ads = (0..ADS)
        .map(|_| Advertiser::new(40.0, 1.0, TopicDist::single(1, 0)))
        .collect();
    ProblemInstance::new(
        graph,
        ads,
        probs,
        CtpTable::constant(graph.num_nodes(), ADS, 1.0),
        Attention::Uniform(1),
        0.0,
    )
}

/// What `run` returns, and the threshold tables built while it ran.
fn builds<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = FASTPATH_BUILDS.get();
    let out = run();
    (out, FASTPATH_BUILDS.get() - before)
}

#[test]
fn cold_ads_over_the_same_bits_build_one_table() {
    let graph = generators::preferential_attachment(300, 3, 0.3, 11);
    let m = graph.num_edges();
    let probs: Vec<f32> = (0..m).map(|e| 0.05 + 0.2 * (e % 5) as f32 / 5.0).collect();
    let opts = TirmOptions {
        eps: 0.4,
        threads: 2,
        ..TirmOptions::default()
    };
    let plan: Vec<AdSeeds> = (0..ADS).map(|i| AdSeeds::for_index(opts.seed, i)).collect();
    let same = problem(&graph, vec![probs.clone(); ADS]);
    let cold = (0..ADS).map(|_| None).collect();
    let ((shared, _, warm), built) = builds(|| tirm_allocate_warm(&same, opts, &plan, cold));
    assert_eq!(built, 1, "four cold ads, one vector");
    assert!((0..ADS).all(|i| !shared.seeds(i).is_empty()));

    // One arc's lowest bit in one ad: a second vector, a second table.
    let mut apart = vec![probs; ADS];
    apart[2][m / 2] = f32::from_bits(apart[2][m / 2].to_bits() ^ 1);
    let apart = problem(&graph, apart);
    let (_, built) = builds(|| tirm_allocate_seeded(&apart, opts, &plan));
    assert_eq!(built, 2, "one vector differs in one bit");

    // Warm states for every ad: nothing compared, nothing drawn.
    let slots = warm.into_iter().map(Some).collect();
    let ((again, _, _), built) = builds(|| tirm_allocate_warm(&same, opts, &plan, slots));
    assert_eq!(built, 0, "a warm re-run builds nothing");
    assert_eq!(again.seed_sets(), shared.seed_sets());
}
