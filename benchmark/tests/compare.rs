//! `compare`: verdicts on synthetic samples, and the refusal to hold
//! runs of different shape against each other.

use tirm_benchmark::compare::{comparable, verdict, Verdict};
use tirm_benchmark::report::{Metrics, RunRecord, END_TO_END};

fn record(seed: u64, rounds: usize) -> RunRecord {
    RunRecord {
        workload: "serve-churn".to_string(),
        seed,
        rounds,
        traced: false,
        correct: true,
        attempted: 1,
        failed: 0,
        fingerprint: String::new(),
        input_fingerprint: String::new(),
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
    }
}

#[test]
fn runs_of_another_shape_are_not_comparable() {
    let a = [record(1, 8), record(2, 8)];
    assert!(comparable(&a, &[record(2, 8), record(1, 8)]).is_ok());
    // More rounds read faster: every timing is a best-of-rounds.
    assert!(comparable(&a, &[record(1, 24), record(2, 24)]).is_err());
    // Other seeds are other inputs.
    assert!(comparable(&a, &[record(1, 8), record(3, 8)]).is_err());
    // A workload only one side ran is simply not compared.
    assert!(comparable(&a, &[]).is_ok());
}

#[test]
fn verdicts() {
    let latency = END_TO_END
        .iter()
        .find(|m| m.name == "latency_ms_p50")
        .unwrap();
    let around = |mid: f64| [mid * 0.99, mid, mid * 1.01, mid * 1.005, mid * 0.995];
    let worse = 1.0 + latency.bound + 0.05;
    assert_eq!(
        verdict(latency, &around(10.0), &around(10.1)),
        Verdict::Unchanged
    );
    assert_eq!(
        verdict(latency, &around(10.0), &around(10.0 * worse)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(latency, &around(10.0), &around(9.0)),
        Verdict::Improved
    );
    // A side that spreads wider than the bound settles nothing.
    let wide = [6.0, 8.0, 10.0, 12.0, 14.0];
    assert_eq!(verdict(latency, &wide, &around(10.0)), Verdict::Unresolved);
}
