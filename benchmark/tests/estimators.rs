//! The N3 estimators on synthetic samples.

use tirm_benchmark::estimators::*;

#[test]
fn median_min_max() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 2, 38, 23, 38, 23, 21], n=4)
    assert_eq!(
        quartiles(&[10.0, 2.0, 38.0, 23.0, 38.0, 23.0, 21.0]),
        [10.0, 23.0, 38.0]
    );
    // statistics.quantiles([1, 2], n=4)
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
}

#[test]
fn per_position_best_removes_a_burst_but_keeps_a_positional_cost() {
    // Position 2 is expensive in every round (a checkpoint lands there);
    // a burst hits position 0 in round 1 and position 3 in round 2 only.
    let rounds = vec![
        vec![1.0, 1.1, 9.0, 1.0],
        vec![7.0, 1.0, 9.2, 1.1],
        vec![1.1, 1.2, 9.1, 6.0],
    ];
    assert_eq!(per_position_best(&rounds), vec![1.0, 1.0, 9.0, 1.0]);
    // The whole-window median of one disturbed round would have moved;
    // the median over best positions does not.
    assert_eq!(median(&per_position_best(&rounds)), 1.0);
    // Rounds of unequal length are cut to the shortest.
    assert_eq!(per_position_best(&[vec![1.0, 2.0], vec![0.5]]), vec![0.5]);
    assert!(per_position_best(&[]).is_empty());
}

#[test]
fn the_composite_best_round_takes_every_position_from_its_quietest_round() {
    // Three set-up phases; each round was disturbed in another one, so
    // no round was quiet throughout (the best whole round took 6.0).
    let rounds = vec![
        vec![1.0, 5.0, 2.0],
        vec![1.2, 3.0, 2.5],
        vec![3.0, 3.1, 2.1],
    ];
    assert_eq!(best_composite(&rounds), 1.0 + 3.0 + 2.0);
    assert_eq!(best_composite(&[]), 0.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    // 1000 samples: p99 is rank 990, exactly ten beyond it.
    assert_eq!(tail_percentile(&v, 0.99), 990.0);
    assert_eq!(tail_percentile(&v, 0.95), 950.0);
    // 999 samples: p99 would be rank 990 with nine beyond — capped.
    assert_eq!(tail_percentile(&v[..999], 0.99), 989.0);
    // 200 samples: p95 is exact, p99 falls back to rank 190.
    assert_eq!(tail_percentile(&v[..200], 0.95), 190.0);
    assert_eq!(tail_percentile(&v[..200], 0.99), 190.0);
    // Ten samples or fewer: no rank qualifies, the median stands in.
    assert_eq!(tail_percentile(&v[..10], 0.99), 5.5);
}

#[test]
fn round_spread_is_median_against_best() {
    // Lower is better: best 10, median 11.
    assert!((round_spread(&[10.0, 11.0, 14.0], true) - 0.1).abs() < 1e-12);
    // Higher is better: best 20, median 18.
    assert!((round_spread(&[20.0, 18.0, 12.0], false) - 0.1).abs() < 1e-12);
    assert_eq!(round_spread(&[], true), 0.0);
}
