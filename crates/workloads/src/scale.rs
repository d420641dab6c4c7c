//! Environment-driven experiment scaling.
//!
//! The paper ran on a 65 GB Xeon server; this harness must also run on a
//! laptop-class container. Every dataset has a *default* scale chosen so
//! the full table/figure sweep completes in minutes; setting `TIRM_SCALE`
//! (a multiplier, e.g. `5.0` to approach paper-sized graphs) raises it.
//! The perf suite additionally defines named tiers (`quick` for CI,
//! `full` for real measurement) that pick their own defaults — see
//! [`crate::scenarios::Tier`] — which the environment variables still
//! override.

/// Scaling configuration resolved from the environment once per process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleConfig {
    /// Multiplier applied to each dataset's default node count.
    pub scale: f64,
    /// Monte-Carlo cascades per evaluation (paper: 10 000).
    pub eval_runs: usize,
    /// Worker threads for evaluation.
    pub threads: usize,
}

impl ScaleConfig {
    /// Reads `TIRM_SCALE`, `TIRM_EVAL_RUNS`, `TIRM_THREADS` with defaults
    /// `1.0`, `10_000`, available parallelism. Set-but-unparsable values
    /// are *warned about* on stderr (they used to be silently replaced by
    /// the default, which made typos like `TIRM_SCALE=0,5` invisible).
    pub fn from_env() -> Self {
        Self::default().with_env_overrides()
    }

    /// Applies any set `TIRM_SCALE` / `TIRM_EVAL_RUNS` / `TIRM_THREADS`
    /// on top of `self` (the defaults), warning on unparsable values.
    pub fn with_env_overrides(self) -> Self {
        let read = |key: &str| std::env::var(key).ok();
        let (scale, w1) = parse_scale(read("TIRM_SCALE").as_deref(), self.scale);
        let (eval_runs, w2) = parse_eval_runs(read("TIRM_EVAL_RUNS").as_deref(), self.eval_runs);
        let (threads, w3) = parse_threads(read("TIRM_THREADS").as_deref(), self.threads);
        for w in [w1, w2, w3].into_iter().flatten() {
            eprintln!("warn: {w}");
        }
        ScaleConfig {
            scale,
            eval_runs,
            threads,
        }
    }

    /// Applies the multiplier to a default node count, clamping to ≥ 64.
    pub fn nodes(&self, default_nodes: usize) -> usize {
        ((default_nodes as f64 * self.scale) as usize).max(64)
    }
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            scale: 1.0,
            eval_runs: 10_000,
            threads: default_threads(),
        }
    }
}

/// Available parallelism, with a single-thread fallback.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Parses `TIRM_SCALE`: positive float, clamped to ≥ 0.001. Returns the
/// resolved value plus a warning when the raw value is set but unusable.
pub fn parse_scale(raw: Option<&str>, default: f64) -> (f64, Option<String>) {
    parse_with(raw, default, "TIRM_SCALE", |v: f64| {
        if v.is_finite() && v > 0.0 {
            Some(v.max(0.001))
        } else {
            None
        }
    })
}

/// Parses `TIRM_BUDGET_FACTOR`, the quality harness's extra budget
/// multiplier: positive and finite, else the default plus a warning.
pub fn parse_budget_factor(raw: Option<&str>, default: f64) -> (f64, Option<String>) {
    parse_with(raw, default, "TIRM_BUDGET_FACTOR", |v: f64| {
        (v.is_finite() && v > 0.0).then_some(v)
    })
}

/// Parses `TIRM_EVAL_RUNS`: positive integer, clamped to ≥ 10.
pub fn parse_eval_runs(raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    parse_with(raw, default, "TIRM_EVAL_RUNS", |v: usize| {
        if v > 0 {
            Some(v.max(10))
        } else {
            None
        }
    })
}

/// Parses `TIRM_THREADS`: positive integer.
pub fn parse_threads(raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    parse_with(raw, default, "TIRM_THREADS", |v: usize| {
        if v > 0 {
            Some(v)
        } else {
            None
        }
    })
}

/// Shared parse-then-validate plumbing: unset ⇒ default silently; set but
/// unparsable or rejected by `check` ⇒ default plus a warning message.
fn parse_with<T>(
    raw: Option<&str>,
    default: T,
    key: &str,
    check: impl Fn(T) -> Option<T>,
) -> (T, Option<String>)
where
    T: std::str::FromStr + std::fmt::Display + Copy,
{
    match raw {
        None => (default, None),
        Some(text) => match text.trim().parse::<T>().ok().and_then(&check) {
            Some(v) => (v, None),
            None => (
                default,
                Some(format!(
                    "{key}={text:?} is not a valid value; using default {default}"
                )),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ScaleConfig::default();
        assert_eq!(c.eval_runs, 10_000);
        assert!(c.threads >= 1);
        assert_eq!(c.nodes(1000), 1000);
    }

    #[test]
    fn nodes_scaling_clamps() {
        let c = ScaleConfig {
            scale: 0.001,
            eval_runs: 100,
            threads: 1,
        };
        assert_eq!(c.nodes(10_000), 64);
        let big = ScaleConfig { scale: 2.0, ..c };
        assert_eq!(big.nodes(10_000), 20_000);
    }

    #[test]
    fn unset_vars_use_default_without_warning() {
        assert_eq!(parse_scale(None, 1.5), (1.5, None));
        assert_eq!(parse_eval_runs(None, 500), (500, None));
        assert_eq!(parse_threads(None, 4), (4, None));
    }

    #[test]
    fn valid_values_parse_without_warning() {
        assert_eq!(parse_scale(Some("2.5"), 1.0), (2.5, None));
        assert_eq!(parse_scale(Some(" 0.25 "), 1.0), (0.25, None));
        assert_eq!(parse_eval_runs(Some("200"), 10_000), (200, None));
        assert_eq!(parse_threads(Some("8"), 1), (8, None));
    }

    #[test]
    fn unparsable_values_warn_and_fall_back() {
        let (v, warn) = parse_scale(Some("0,5"), 1.0);
        assert_eq!(v, 1.0);
        assert!(warn.as_deref().unwrap().contains("TIRM_SCALE"));
        assert!(warn.as_deref().unwrap().contains("0,5"));

        let (v, warn) = parse_eval_runs(Some("lots"), 10_000);
        assert_eq!(v, 10_000);
        assert!(warn.is_some());

        let (v, warn) = parse_threads(Some("3.5"), 2);
        assert_eq!(v, 2);
        assert!(warn.is_some());
    }

    #[test]
    fn out_of_domain_values_warn() {
        // Zero / negative / non-finite are set-but-invalid, not defaults.
        assert!(parse_scale(Some("0"), 1.0).1.is_some());
        assert!(parse_scale(Some("-2"), 1.0).1.is_some());
        assert!(parse_scale(Some("NaN"), 1.0).1.is_some());
        assert!(parse_scale(Some("inf"), 1.0).1.is_some());
        assert!(parse_eval_runs(Some("0"), 100).1.is_some());
        assert!(parse_eval_runs(Some("-5"), 100).1.is_some());
        assert!(parse_threads(Some("0"), 1).1.is_some());
    }

    #[test]
    fn budget_factor_must_be_positive_and_finite() {
        assert_eq!(parse_budget_factor(None, 1.0), (1.0, None));
        assert_eq!(parse_budget_factor(Some("0.5"), 1.0), (0.5, None));
        assert_eq!(parse_budget_factor(Some("3"), 1.0), (3.0, None));
        for bad in ["0,5", "0", "-2", "NaN", "inf", ""] {
            let (v, warn) = parse_budget_factor(Some(bad), 1.0);
            assert_eq!(v, 1.0, "{bad:?}");
            let warn = warn.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(warn.contains("TIRM_BUDGET_FACTOR"), "{warn}");
        }
    }

    #[test]
    fn small_but_valid_values_clamp_silently() {
        // In-domain values below the floor clamp without a warning: the
        // user asked for "as small as possible", not a typo.
        assert_eq!(parse_scale(Some("0.0001"), 1.0), (0.001, None));
        assert_eq!(parse_eval_runs(Some("3"), 10_000), (10, None));
    }

    #[test]
    fn empty_string_warns() {
        assert!(parse_scale(Some(""), 1.0).1.is_some());
        assert!(parse_eval_runs(Some(""), 100).1.is_some());
    }
}
