//! Small special-function helpers for the TIM sample-size bounds:
//! `ln Γ` (Lanczos approximation) and `ln C(n, s)`.

/// Lanczos coefficients (g = 7, n = 9) — classic double-precision set.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the Gamma function for `x > 0`.
///
/// Accuracy ~1e-12 relative across the range used here (arguments up to
/// ~1e9, i.e. `ln n!` for the largest graphs we generate).
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain error: {x}");
    if x < 0.5 {
        // Reflection formula keeps precision for tiny x.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln n!`.
fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// `ln C(n, s)` — log binomial coefficient, 0 when `s > n` is nonsensical
/// (we clamp `s` to `n`; callers ask for "at most s seeds").
pub fn ln_choose(n: u64, s: u64) -> f64 {
    if s == 0 || s >= n {
        if s == n {
            return 0.0;
        }
        if s == 0 {
            return 0.0;
        }
        // s > n: treat as C(n, n).
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(s) - ln_factorial(n - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..=n).map(|k| k as f64).product();
            assert!((ln_factorial(n) - fact.ln()).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn gamma_half_integer() {
        // Γ(1/2) = √π.
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-10);
    }

    #[test]
    fn choose_small_cases() {
        assert!((ln_choose(5, 2) - (10.0f64).ln()).abs() < 1e-9);
        assert!((ln_choose(10, 5) - (252.0f64).ln()).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
        assert_eq!(ln_choose(3, 9), 0.0);
    }

    #[test]
    fn choose_large_arguments_finite_and_monotone() {
        let a = ln_choose(1_000_000, 10);
        let b = ln_choose(1_000_000, 100);
        let c = ln_choose(1_000_000, 1000);
        assert!(a.is_finite() && b.is_finite() && c.is_finite());
        assert!(a < b && b < c);
        // ln C(n, s) ≈ s ln(n/s) + s for s ≪ n.
        let approx = 10.0 * (1_000_000.0f64 / 10.0).ln() + 10.0;
        assert!((a - approx).abs() / approx < 0.05);
    }

    #[test]
    fn symmetry() {
        assert!((ln_choose(30, 12) - ln_choose(30, 18)).abs() < 1e-9);
    }
}
