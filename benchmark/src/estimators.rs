//! The estimators of the noise protocol (README, N3) and the small
//! statistics `compare` needs. Everything here is a pure function of its
//! samples, so `tests/estimators.rs` pins it on synthetic data.

/// Sorted copy; NaNs are a caller bug and sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median (mean of the two middle samples for an even count); 0 for an
/// empty slice so idle layers report zero.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest sample (0 for an empty slice).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample (0 for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the acceptance check is defined
/// in those terms, so `compare --aa` must reproduce them. Needs at least
/// two samples; fewer yield the single value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance check bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Per-position best-of-rounds: `rounds[r][i]` is op position `i` in
/// round `r` (every round replays the same inputs, so position `i` is
/// the same op everywhere). An interference burst shorter than a round
/// hits a position in few rounds and is removed by the minimum; a cost
/// that belongs to the position (a checkpoint, a full re-run) is in
/// every round and stays.
pub fn per_position_best(rounds: &[Vec<f64>]) -> Vec<f64> {
    let positions = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..positions)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The composite best round: every position taken from the round that
/// was least disturbed there, summed. A round cut at fixed positions
/// (set-up phases, chunks of a pipelined segment, ops) is as long as
/// its parts, so this is how long a round takes when nothing disturbs
/// any part of it — the whole-round minimum needs one round that was
/// quiet throughout, this needs every part to have been quiet once.
pub fn best_composite(rounds: &[Vec<f64>]) -> f64 {
    per_position_best(rounds).iter().sum()
}

/// The `p`-quantile (nearest rank, `0 < p < 1`) of `values`, capped at
/// the highest rank that still leaves ten samples beyond it: a
/// percentile with fewer than ten samples above it is an order
/// statistic of the noise, not of the system. With ten samples or fewer
/// there is no such rank and the median is returned.
pub fn tail_percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n <= 10 {
        return median(values);
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    v[rank.min(n - 10) - 1]
}

/// How noisy the machine was for one timing metric: the median round
/// against the best round, as a share of the best.
pub fn round_spread(per_round: &[f64], lower_is_better: bool) -> f64 {
    let best = if lower_is_better {
        min(per_round)
    } else {
        max(per_round)
    };
    if best == 0.0 {
        0.0
    } else {
        (median(per_round) - best).abs() / best
    }
}
