//! `compare A B`: per workload × end-to-end metric, both sides' medians
//! and quartiles, the bound, and a verdict. `compare --aa A B`: the
//! same-code agreement table of the acceptance check.

use crate::estimators::{iqr_share, max, median, min, quartiles};
use crate::inputs::Workload;
use crate::report::{Better, EndToEnd, RunRecord, END_TO_END};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Reads an `--out` file: one [`RunRecord`] per line.
pub fn read_records(path: &Path) -> io::Result<Vec<RunRecord>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            RunRecord::from_json_line(line).map_err(|why| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {why}", path.display(), i + 1),
                )
            })
        })
        .collect()
}

/// Whether two result files can be held against each other: for every
/// workload both have, the untraced runs must have played the same
/// number of rounds (every timing is a best-of-rounds, so more rounds
/// read faster) on the same seeds (the inputs differ with the seed).
pub fn comparable(a: &[RunRecord], b: &[RunRecord]) -> Result<(), String> {
    for w in Workload::ALL {
        let shape = |records: &[RunRecord]| {
            let mut runs: Vec<(u64, usize)> = records
                .iter()
                .filter(|r| r.workload == w.name() && !r.traced)
                .map(|r| (r.seed, r.rounds))
                .collect();
            runs.sort_unstable();
            runs
        };
        let (sa, sb) = (shape(a), shape(b));
        if !sa.is_empty() && !sb.is_empty() && sa != sb {
            return Err(format!(
                "{}: the two files do not hold the same runs — (seed, rounds) {sa:?} against {sb:?}",
                w.name()
            ));
        }
    }
    Ok(())
}

/// What `compare` concluded about one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than either side's spread.
    /// A hint only: claiming a gain takes alternating pairs of runs.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's run-to-run spread exceeds the bound; nothing can be said.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative: better).
pub fn worsening(metric: &EndToEnd, a_median: f64, b_median: f64) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b_median - a_median) / a_median.abs(),
        Better::Higher => (a_median - b_median) / a_median.abs(),
    }
}

/// The verdict for one workload × metric from both sides' samples.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (spread_a, spread_b) = (iqr_share(a), iqr_share(b));
    if spread_a > metric.bound || spread_b > metric.bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(metric, median(a), median(b));
    if worse > metric.bound {
        Verdict::Regressed
    } else if -worse > spread_a.max(spread_b) && worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(records: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.end_to_end.get(metric))
        .collect()
}

fn failed_share(records: &[RunRecord]) -> f64 {
    let attempted: u64 = records.iter().map(|r| r.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Renders the comparison table. Returns it with whether B regressed
/// anywhere or failed a larger share of its ops.
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    writeln!(
        out,
        "{:<15} {:<17} {:>6} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "A q1/median/q3 (n)",
        "B q1/median/q3 (n)",
        "worse",
        "bound"
    )
    .expect("String write");
    for w in Workload::ALL {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(a, w.name(), metric.name),
                values(b, w.name(), metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(metric, &va, &vb);
            bad |= v == Verdict::Regressed;
            let side = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q1:.4}/{q2:.4}/{q3:.4} ({})", v.len())
            };
            writeln!(
                out,
                "{:<15} {:<17} {:>6} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}",
                w.name(),
                metric.name,
                metric.better.name(),
                side(&va),
                side(&vb),
                worsening(metric, median(&va), median(&vb)) * 100.0,
                metric.bound * 100.0,
                v.name()
            )
            .expect("String write");
        }
    }
    let (fa, fb) = (failed_share(a), failed_share(b));
    let incorrect = b.iter().filter(|r| !r.correct).count();
    writeln!(
        out,
        "failed share: A {fa:.6}  B {fb:.6}; incorrect runs in B: {incorrect}"
    )
    .expect("String write");
    bad |= fb > fa || incorrect > 0;
    (out, bad)
}

/// The same-code agreement table: for every workload × metric the two
/// sets' medians differ by less than the bound and each set's
/// (max − min) ÷ median is under the bound; deterministic outputs
/// (fingerprints, and with them `relative_regret`) are identical across
/// all runs of a workload that share a seed. Returns the table and
/// whether everything agreed.
pub fn agreement(a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    writeln!(
        out,
        "{:<15} {:<17} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "diff", "range A", "range B", "bound"
    )
    .expect("String write");
    for w in Workload::ALL {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(a, w.name(), metric.name),
                values(b, w.name(), metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let range = |v: &[f64]| {
                let m = median(v);
                if m == 0.0 {
                    0.0
                } else {
                    (max(v) - min(v)) / m.abs()
                }
            };
            let (ma, mb) = (median(&va), median(&vb));
            let diff = if ma == 0.0 {
                0.0
            } else {
                (mb - ma).abs() / ma.abs()
            };
            let agrees =
                diff < metric.bound && range(&va) < metric.bound && range(&vb) < metric.bound;
            ok &= agrees;
            writeln!(
                out,
                "{:<15} {:<17} {:>12.5} {:>12.5} {:>7.2}% {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                w.name(),
                metric.name,
                ma,
                mb,
                diff * 100.0,
                range(&va) * 100.0,
                range(&vb) * 100.0,
                metric.bound * 100.0,
                if agrees { "agree" } else { "DISAGREE" }
            )
            .expect("String write");
        }
        let mut by_seed = std::collections::BTreeMap::new();
        for r in a.iter().chain(b).filter(|r| r.workload == w.name()) {
            let first = by_seed.entry(r.seed).or_insert(&r.fingerprint);
            if *first != &r.fingerprint || !r.correct {
                ok = false;
                writeln!(
                    out,
                    "{:<15} seed {}: fingerprint {} differs or run incorrect — DISAGREE",
                    w.name(),
                    r.seed,
                    r.fingerprint
                )
                .expect("String write");
            }
        }
    }
    (out, ok)
}
