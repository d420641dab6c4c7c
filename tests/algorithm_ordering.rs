//! The paper's headline qualitative claims (§6.1) on a miniature quality
//! workload: TIRM beats GREEDY-IRIE beats the myopic baselines on regret;
//! the myopic baselines overshoot; TIRM targets far fewer distinct users.

use tirm_bench::{run_quality_cell, QualityWorkload};
use tirm_workloads::{AllocatorKind, DatasetKind};

fn workload() -> QualityWorkload {
    // Small + fast: fix scale/eval via env for this process only. (At this
    // scale budgets force seed counts that are a sizeable fraction of n,
    // so margins below are looser than the paper's full-scale gaps.)
    std::env::set_var("TIRM_SCALE", "0.25");
    std::env::set_var("TIRM_EVAL_RUNS", "3000");
    let w = QualityWorkload::new(DatasetKind::Flixster, 0x0123);
    std::env::remove_var("TIRM_SCALE");
    std::env::remove_var("TIRM_EVAL_RUNS");
    w
}

#[test]
fn tirm_dominates_baselines_and_targets_fewer_users() {
    let w = workload();
    let tirm = run_quality_cell(&w, AllocatorKind::Tirm, 1, 0.0, 1);
    let irie = run_quality_cell(&w, AllocatorKind::GreedyIrie, 1, 0.0, 1);
    let myo = run_quality_cell(&w, AllocatorKind::Myopic, 1, 0.0, 1);
    let myop = run_quality_cell(&w, AllocatorKind::MyopicPlus, 1, 0.0, 1);

    // Fig. 3 ordering: TIRM lowest, myopic baselines far above.
    assert!(
        tirm.total_regret < myo.total_regret,
        "TIRM {} vs Myopic {}",
        tirm.total_regret,
        myo.total_regret
    );
    assert!(
        tirm.total_regret < myop.total_regret,
        "TIRM {} vs Myopic+ {}",
        tirm.total_regret,
        myop.total_regret
    );
    assert!(
        tirm.total_regret <= irie.total_regret * 1.25,
        "TIRM {} should not lose clearly to IRIE {}",
        tirm.total_regret,
        irie.total_regret
    );
    // The myopic baselines' regret comes from overshooting (§6.1 footnote):
    // their revenue exceeds the total budget.
    assert!(
        myo.slack_per_ad.iter().sum::<f64>() > 0.0,
        "Myopic overshoots"
    );

    // Table 3: Myopic targets every user; TIRM strictly fewer (at paper
    // scale the gap is 30×; at this miniature scale budgets force TIRM to
    // seed a large share of the graph, so assert the strict ordering plus
    // a modest margin).
    assert_eq!(myo.distinct_targeted, w.dataset.graph.num_nodes());
    assert!(
        (tirm.distinct_targeted as f64) < 0.85 * myo.distinct_targeted as f64,
        "TIRM {} vs Myopic {} distinct users",
        tirm.distinct_targeted,
        myo.distinct_targeted
    );
}

#[test]
fn tirm_regret_stays_low_across_attention_bounds() {
    let w = workload();
    let k1 = run_quality_cell(&w, AllocatorKind::Tirm, 1, 0.0, 2);
    let k5 = run_quality_cell(&w, AllocatorKind::Tirm, 5, 0.0, 2);
    // Fig. 3's robust claim: TIRM's relative regret is a small fraction of
    // the total budget at every κ (the paper reports 2.5% at κ=1 on
    // FLIXSTER; MC noise at miniature scale warrants slack). Strict
    // monotonicity in κ is an "almost all cases" trend, not asserted here.
    assert!(
        k1.relative_regret < 0.15,
        "κ=1 relative regret {}",
        k1.relative_regret
    );
    assert!(
        k5.relative_regret < 0.15,
        "κ=5 relative regret {}",
        k5.relative_regret
    );
    assert!(
        k5.total_regret <= k1.total_regret * 1.6,
        "κ=5 {} should not collapse vs κ=1 {}",
        k5.total_regret,
        k1.total_regret
    );
}

#[test]
fn regret_rises_with_lambda() {
    let w = workload();
    let l0 = run_quality_cell(&w, AllocatorKind::Tirm, 1, 0.0, 3);
    let l1 = run_quality_cell(&w, AllocatorKind::Tirm, 1, 1.0, 3);
    // Fig. 4: total regret (including the λ penalty) grows with λ.
    assert!(
        l1.total_regret >= l0.total_regret,
        "λ=1 {} vs λ=0 {}",
        l1.total_regret,
        l0.total_regret
    );
}

#[test]
fn myopic_plus_targets_fewer_with_more_attention() {
    let w = workload();
    let k1 = run_quality_cell(&w, AllocatorKind::MyopicPlus, 1, 0.0, 4);
    let k5 = run_quality_cell(&w, AllocatorKind::MyopicPlus, 5, 0.0, 4);
    // Table 3 trend: higher κ ⇒ fewer distinct nodes needed.
    assert!(
        k5.distinct_targeted <= k1.distinct_targeted,
        "κ=5 {} vs κ=1 {}",
        k5.distinct_targeted,
        k1.distinct_targeted
    );
}
