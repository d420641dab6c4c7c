//! Baseline comparison with noise-aware thresholds — the logic behind the
//! `bench_diff` regression gate.
//!
//! Two artifact files are joined on cell ids. Deterministic payload fields
//! (θ, seeds, regret, memory accounting) must match up to float-printing
//! tolerance on identical code — any drift is surfaced, and drift that
//! makes quality or memory *worse* beyond per-metric thresholds is a
//! regression. Wall-clock fields are only compared when both artifacts
//! carry [`crate::schema::EnvFingerprint`]s of the same machine class, and
//! only for cells slow enough to be above measurement noise (min-sample
//! gating).

use crate::schema::{BenchCell, BenchReport};
use tirm_core::report::{fnum, Table};

/// Per-metric tolerances. Defaults flag a 20% slowdown with margin while
/// tolerating ordinary scheduler jitter.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Relative wall-clock increase considered a regression (0.15 = 15%).
    pub time_rel_tol: f64,
    /// Cells with a baseline wall time below this many seconds are never
    /// time-flagged: sub-noise samples produce junk ratios.
    pub time_min_s: f64,
    /// A wall-clock change must also exceed this many *absolute* seconds
    /// to be flagged — 15% of a 90 ms cell is scheduler noise, 15% of a
    /// 15 s cell is not. Shared CI runners drift ±20% on sub-second
    /// cells run-to-run (measured on this repo's own container), hence
    /// the 100 ms default.
    pub time_abs_slack_s: f64,
    /// Relative `memory_bytes` / peak-RSS increase considered a regression.
    pub mem_rel_tol: f64,
    /// Memory cells below this baseline size are never flagged.
    pub mem_min_bytes: usize,
    /// Relative total-regret increase considered a quality regression.
    pub regret_rel_tol: f64,
    /// Compare wall-clock fields even when the environment fingerprints
    /// differ (off by default; deterministic fields are always compared).
    pub force_time: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            time_rel_tol: 0.15,
            time_min_s: 0.05,
            time_abs_slack_s: 0.1,
            mem_rel_tol: 0.25,
            mem_min_bytes: 1 << 20,
            regret_rel_tol: 0.02,
            force_time: false,
        }
    }
}

/// What happened to one metric of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Worse beyond tolerance — fails the gate.
    Regression,
    /// Better beyond tolerance — informational.
    Improvement,
    /// Deterministic payload changed (neither clearly better nor worse).
    Drift,
    /// Cell present in the baseline but absent from the new artifact.
    MissingCell,
    /// Cell only in the new artifact.
    NewCell,
}

/// One finding: a `(cell, metric)` pair that moved.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Cell id.
    pub id: String,
    /// Metric name (`wall_s`, `total_regret`, …) or `-` for cell-level
    /// findings.
    pub metric: String,
    /// Baseline value (0 when the cell is new).
    pub old: f64,
    /// New value (0 when the cell is missing).
    pub new: f64,
    /// Classification.
    pub verdict: Verdict,
}

impl Finding {
    /// Relative change `new/old − 1`, `∞`-safe.
    pub fn rel_change(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new / self.old - 1.0
        }
    }
}

/// The comparison result: findings plus gate summary.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// All findings, baseline cell order.
    pub findings: Vec<Finding>,
    /// Whether wall-clock metrics were compared at all.
    pub times_compared: bool,
    /// Cells present in both artifacts.
    pub cells_joined: usize,
}

impl DiffReport {
    /// True when any finding fails the gate.
    pub fn has_regressions(&self) -> bool {
        self.regressions() > 0
    }

    /// Number of gate-failing findings (regressions + missing cells).
    pub fn regressions(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| matches!(f.verdict, Verdict::Regression | Verdict::MissingCell))
            .count()
    }

    /// Number of cells only present in the new artifact (informational —
    /// a fresh tier's first run shows up here, not as silence).
    pub fn new_cells(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.verdict == Verdict::NewCell)
            .count()
    }

    /// Renders the findings as a GitHub-flavoured markdown table plus a
    /// one-line summary (what the CI job prints).
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str(&format!(
                "No changes across {} compared cells{}.\n",
                self.cells_joined,
                if self.times_compared {
                    ""
                } else {
                    " (wall-clock skipped: environments differ)"
                }
            ));
            return out;
        }
        let mut t = Table::new(&["cell", "metric", "old", "new", "Δ%", "verdict"]);
        for f in &self.findings {
            let delta = f.rel_change();
            // Baseline-less (new) and result-less (missing) cells have no
            // meaningful "other side" — render it as a dash, not a zero.
            let old = if f.verdict == Verdict::NewCell {
                "-".into()
            } else {
                fnum(f.old)
            };
            let new = if f.verdict == Verdict::MissingCell {
                "-".into()
            } else {
                fnum(f.new)
            };
            t.row(vec![
                f.id.clone(),
                f.metric.clone(),
                old,
                new,
                if delta.is_finite() {
                    format!("{:+.1}", delta * 100.0)
                } else {
                    "-".into()
                },
                match f.verdict {
                    Verdict::Regression => "REGRESSION".into(),
                    Verdict::Improvement => "improvement".into(),
                    Verdict::Drift => "drift".into(),
                    Verdict::MissingCell => "MISSING CELL".into(),
                    Verdict::NewCell => "NEW CELL".into(),
                },
            ]);
        }
        out.push_str(&t.render_markdown());
        let new_cells = self.new_cells();
        out.push_str(&format!(
            "\n{} finding(s), {} gate-failing, {} new cell(s), over {} compared cells{}.\n",
            self.findings.len(),
            self.regressions(),
            new_cells,
            self.cells_joined,
            if self.times_compared {
                ""
            } else {
                " (wall-clock skipped: environments differ)"
            }
        ));
        out
    }
}

/// Tolerance for "identical" deterministic floats: artifacts print f64s
/// with Rust's shortest round-trip formatting, so equality survives the
/// JSON round trip exactly; the epsilon only guards summed metrics.
const DET_EPS: f64 = 1e-9;

fn rel_exceeds(old: f64, new: f64, tol: f64) -> bool {
    new > old * (1.0 + tol) + f64::EPSILON
}

/// Compares two artifacts. `old` is the committed baseline, `new` the
/// fresh measurement.
pub fn diff_reports(old: &BenchReport, new: &BenchReport, opts: &DiffOptions) -> DiffReport {
    let times_compared = opts.force_time || old.env.time_comparable(&new.env);
    let mut findings = Vec::new();
    let mut joined = 0usize;

    for oc in &old.cells {
        match new.cell(&oc.id) {
            None => findings.push(Finding {
                id: oc.id.clone(),
                metric: "-".into(),
                old: 0.0,
                new: 0.0,
                verdict: Verdict::MissingCell,
            }),
            Some(nc) => {
                joined += 1;
                findings.extend(diff_cell(oc, nc, opts, times_compared));
            }
        }
    }
    for nc in &new.cells {
        if old.cell(&nc.id).is_none() {
            // A cell with no baseline is surfaced with its headline
            // measurement so a fresh tier's first run is auditable in the
            // table rather than invisible until its second run.
            findings.push(Finding {
                id: nc.id.clone(),
                metric: "wall_s".into(),
                old: 0.0,
                new: nc.wall_s,
                verdict: Verdict::NewCell,
            });
        }
    }

    // Run-wide peak RSS: the per-cell field is a monotone high-water
    // mark, so only the maxima are comparable — and only between same
    // machine classes, and only when both runs cover the same cells
    // (a filtered run peaks differently by construction).
    if times_compared && joined == old.cells.len() && joined == new.cells.len() {
        let peak = |r: &BenchReport| r.cells.iter().map(|c| c.peak_rss_bytes).max().unwrap_or(0);
        let (o, n) = (peak(old), peak(new));
        if o >= opts.mem_min_bytes {
            let (of, nf) = (o as f64, n as f64);
            if rel_exceeds(of, nf, opts.mem_rel_tol) {
                findings.push(Finding {
                    id: "(run)".into(),
                    metric: "peak_rss_bytes".into(),
                    old: of,
                    new: nf,
                    verdict: Verdict::Regression,
                });
            } else if rel_exceeds(nf, of, opts.mem_rel_tol) {
                findings.push(Finding {
                    id: "(run)".into(),
                    metric: "peak_rss_bytes".into(),
                    old: of,
                    new: nf,
                    verdict: Verdict::Improvement,
                });
            }
        }
    }
    DiffReport {
        findings,
        times_compared,
        cells_joined: joined,
    }
}

fn diff_cell(
    oc: &BenchCell,
    nc: &BenchCell,
    opts: &DiffOptions,
    times_compared: bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |metric: &str, old: f64, new: f64, verdict: Verdict| {
        out.push(Finding {
            id: oc.id.clone(),
            metric: metric.into(),
            old,
            new,
            verdict,
        })
    };

    // Quality: regret increases beyond tolerance are regressions,
    // decreases are improvements; other deterministic payload movement is
    // drift (the gate surfaces it so a baseline refresh is a conscious
    // act, but only worse-quality or worse-memory movement fails CI).
    let o = oc.total_regret;
    let n = nc.total_regret;
    if rel_exceeds(o, n, opts.regret_rel_tol) {
        push("total_regret", o, n, Verdict::Regression);
    } else if rel_exceeds(n, o, opts.regret_rel_tol) {
        push("total_regret", o, n, Verdict::Improvement);
    } else if (o - n).abs() > DET_EPS * o.abs().max(1.0) {
        push("total_regret", o, n, Verdict::Drift);
    }

    // Memory: precise per-cell accounting. (Peak RSS is a process-wide
    // high-water mark — monotone across a run and order-dependent — so it
    // is compared once per report in `diff_reports`, not per cell.)
    let (o, n) = (oc.memory_bytes, nc.memory_bytes);
    if o >= opts.mem_min_bytes {
        let (of, nf) = (o as f64, n as f64);
        if rel_exceeds(of, nf, opts.mem_rel_tol) {
            push("memory_bytes", of, nf, Verdict::Regression);
        } else if rel_exceeds(nf, of, opts.mem_rel_tol) {
            push("memory_bytes", of, nf, Verdict::Improvement);
        }
    }

    // RR-index layout: bytes-per-posting is deterministic (a pure
    // function of the run's postings), so it gates like memory but
    // cross-machine too. A zero baseline (a non-RR cell, or one that
    // sampled nothing) has nothing to compare — a first non-zero value
    // surfaces as drift, not a regression.
    let (o, n) = (oc.bytes_per_posting, nc.bytes_per_posting);
    if o > 0.0 && rel_exceeds(o, n, opts.mem_rel_tol) {
        push("bytes_per_posting", o, n, Verdict::Regression);
    } else if o > 0.0 && rel_exceeds(n, o, opts.mem_rel_tol) {
        push("bytes_per_posting", o, n, Verdict::Improvement);
    } else if (o - n).abs() > DET_EPS * o.abs().max(1.0) {
        push("bytes_per_posting", o, n, Verdict::Drift);
    }

    // Remaining deterministic payload: any movement is drift.
    for (name, o, n) in [
        ("theta", oc.theta as f64, nc.theta as f64),
        ("total_seeds", oc.total_seeds as f64, nc.total_seeds as f64),
        (
            "distinct_targeted",
            oc.distinct_targeted as f64,
            nc.distinct_targeted as f64,
        ),
        ("revenue", oc.revenue, nc.revenue),
        (
            "legacy_bytes_per_posting",
            oc.legacy_bytes_per_posting,
            nc.legacy_bytes_per_posting,
        ),
        ("nodes", oc.nodes as f64, nc.nodes as f64),
        ("edges", oc.edges as f64, nc.edges as f64),
    ] {
        if (o - n).abs() > DET_EPS * o.abs().max(1.0) {
            push(name, o, n, Verdict::Drift);
        }
    }

    // Wall clock, env- and noise-gated: a finding needs both the relative
    // threshold and an absolute movement beyond scheduler noise (15% of a
    // 90 ms cell is jitter; 15% of a 15 s cell is not).
    if times_compared {
        for (name, o, n) in [
            ("wall_s", oc.wall_s, nc.wall_s),
            ("eval_s", oc.eval_s, nc.eval_s),
        ] {
            if o < opts.time_min_s {
                continue;
            }
            if rel_exceeds(o, n, opts.time_rel_tol) && n - o > opts.time_abs_slack_s {
                push(name, o, n, Verdict::Regression);
            } else if rel_exceeds(n, o, opts.time_rel_tol) && o - n > opts.time_abs_slack_s {
                push(name, o, n, Verdict::Improvement);
            }
        }

        // Serving metrics (0 on batch cells, so they never gate there).
        // Latency percentiles — including the network read path's p99 —
        // gate like wall-clock with their own noise floors; throughput
        // gates in the *opposite* direction (a drop is the regression).
        for (name, o, n) in [
            ("latency_p50_us", oc.latency_p50_us, nc.latency_p50_us),
            ("latency_p95_us", oc.latency_p95_us, nc.latency_p95_us),
            ("latency_p99_us", oc.latency_p99_us, nc.latency_p99_us),
            ("read_p99_us", oc.read_p99_us, nc.read_p99_us),
        ] {
            if o < LATENCY_MIN_US {
                continue;
            }
            if rel_exceeds(o, n, opts.time_rel_tol) && n - o > LATENCY_SLACK_US {
                push(name, o, n, Verdict::Regression);
            } else if rel_exceeds(n, o, opts.time_rel_tol) && o - n > LATENCY_SLACK_US {
                push(name, o, n, Verdict::Improvement);
            }
        }
        for (name, o, n) in [
            ("events_per_s", oc.events_per_s, nc.events_per_s),
            ("reads_per_s", oc.reads_per_s, nc.reads_per_s),
            (
                "follower_reads_per_s",
                oc.follower_reads_per_s,
                nc.follower_reads_per_s,
            ),
        ] {
            if o >= EVENTS_PER_S_MIN {
                if rel_exceeds(n, o, opts.time_rel_tol) {
                    push(name, o, n, Verdict::Regression);
                } else if rel_exceeds(o, n, opts.time_rel_tol) {
                    push(name, o, n, Verdict::Improvement);
                }
            }
        }
        // Replication lag p99 (events behind the leader, replicated
        // cells only) gates upward like a latency: more lag under the
        // same load means the shipping path got slower. The floor keeps
        // near-zero-lag cells — where a single straggler sample is the
        // whole p99 — out of the gate.
        {
            let (o, n) = (oc.follower_lag_p99, nc.follower_lag_p99);
            if o >= FOLLOWER_LAG_MIN_EVENTS {
                if rel_exceeds(o, n, opts.time_rel_tol) && n - o > FOLLOWER_LAG_SLACK_EVENTS {
                    push("follower_lag_p99", o, n, Verdict::Regression);
                } else if rel_exceeds(n, o, opts.time_rel_tol) && o - n > FOLLOWER_LAG_SLACK_EVENTS
                {
                    push("follower_lag_p99", o, n, Verdict::Improvement);
                }
            }
        }
        // `shed_rate` is recorded but never gated: in deterministic-
        // delivery runs it measures retry pressure — a pure function of
        // machine speed, too noisy for a pass/fail threshold.
    }
    out
}

/// Serving-latency noise gates: latencies below ~2 ms are wire/scheduler
/// noise on shared 1-CPU runners (a single delayed response moves a
/// 150-sample p99 by milliseconds), so only baselines above the floor
/// gate — the in-process ONLINE cells' allocator latencies (3–20 ms)
/// and any real serving tail. Sub-floor metrics are still recorded in
/// the artifact. A finding additionally needs ≥ 1 ms of absolute
/// movement (mirroring `time_abs_slack_s` at event scale).
const LATENCY_MIN_US: f64 = 2_000.0;
const LATENCY_SLACK_US: f64 = 1_000.0;

/// Replication-lag noise gates (in events, not time): lag baselines
/// below this are dominated by poll-interval quantisation, and a
/// finding needs a few whole events of absolute movement on top of the
/// relative threshold.
const FOLLOWER_LAG_MIN_EVENTS: f64 = 8.0;
const FOLLOWER_LAG_SLACK_EVENTS: f64 = 4.0;
/// Throughput below one event per second is a degenerate cell; don't
/// gate on its ratios.
const EVENTS_PER_S_MIN: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{EnvFingerprint, SCHEMA_VERSION};

    fn cell(id: &str) -> BenchCell {
        BenchCell {
            id: id.to_string(),
            dataset: "DBLP".into(),
            prob_model: "wc".into(),
            allocator: "TIRM".into(),
            threads: 1,
            kappa: 1,
            lambda: 0.0,
            seed: 1,
            nodes: 3200,
            edges: 10_000,
            ads: 5,
            theta: 50_000,
            total_seeds: 80,
            distinct_targeted: 80,
            total_regret: 12.0,
            relative_regret: 0.1,
            revenue: 110.0,
            memory_bytes: 8 << 20,
            bytes_per_posting: 5.2,
            legacy_bytes_per_posting: 7.8,
            wall_s: 2.0,
            eval_s: 0.5,
            dataset_cold_s: 1.0,
            dataset_warm_s: 0.0,
            rr_sets_per_s: 25_000.0,
            postings_scan_mentries_per_s: 350.0,
            latency_p50_us: 0.0,
            latency_p95_us: 0.0,
            latency_p99_us: 0.0,
            events_per_s: 0.0,
            read_p99_us: 0.0,
            reads_per_s: 0.0,
            shed_rate: 0.0,
            follower_reads_per_s: 0.0,
            follower_lag_p99: 0.0,
            peak_rss_bytes: 64 << 20,
        }
    }

    fn report(cells: Vec<BenchCell>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            git_sha: "test".into(),
            tier: "quick".into(),
            created_unix: 0,
            env: EnvFingerprint {
                os: "linux".into(),
                arch: "x86_64".into(),
                cpus: 1,
                debug_assertions: false,
                scale: 0.08,
                eval_runs: 200,
            },
            cells,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(vec![cell("a"), cell("b")]);
        let d = diff_reports(&a, &a.clone(), &DiffOptions::default());
        assert!(!d.has_regressions());
        assert!(d.findings.is_empty());
        assert_eq!(d.cells_joined, 2);
        assert!(d.markdown().contains("No changes"));
    }

    #[test]
    fn twenty_percent_slowdown_is_flagged() {
        let old = report(vec![cell("a")]);
        let mut slow = cell("a");
        slow.wall_s *= 1.2;
        let new = report(vec![slow]);
        let d = diff_reports(&old, &new, &DiffOptions::default());
        assert!(d.has_regressions());
        let f = &d.findings[0];
        assert_eq!(f.metric, "wall_s");
        assert_eq!(f.verdict, Verdict::Regression);
        assert!(d.markdown().contains("REGRESSION"));
    }

    #[test]
    fn small_jitter_is_not_flagged() {
        let old = report(vec![cell("a")]);
        let mut jitter = cell("a");
        jitter.wall_s *= 1.1; // below the 15% threshold
        let d = diff_reports(&old, &report(vec![jitter]), &DiffOptions::default());
        assert!(!d.has_regressions());
    }

    #[test]
    fn sub_noise_cells_are_time_gated() {
        let mut fast = cell("a");
        fast.wall_s = 0.01;
        let old = report(vec![fast.clone()]);
        fast.wall_s = 0.04; // 4× slower but under time_min_s
        let d = diff_reports(&old, &report(vec![fast]), &DiffOptions::default());
        assert!(!d.has_regressions(), "sub-noise cells must not gate");
    }

    #[test]
    fn missing_cell_fails_the_gate() {
        let old = report(vec![cell("a"), cell("b")]);
        let new = report(vec![cell("a")]);
        let d = diff_reports(&old, &new, &DiffOptions::default());
        assert!(d.has_regressions());
        assert!(d
            .findings
            .iter()
            .any(|f| f.verdict == Verdict::MissingCell && f.id == "b"));
    }

    #[test]
    fn new_cell_is_informational_and_rendered() {
        let old = report(vec![cell("a")]);
        let new = report(vec![cell("a"), cell("ONLINE/new")]);
        let d = diff_reports(&old, &new, &DiffOptions::default());
        assert!(!d.has_regressions());
        assert_eq!(d.new_cells(), 1);
        let f = d
            .findings
            .iter()
            .find(|f| f.verdict == Verdict::NewCell)
            .unwrap();
        assert_eq!(f.id, "ONLINE/new");
        assert_eq!(f.metric, "wall_s");
        assert_eq!(f.new, 2.0, "headline measurement surfaced");
        let md = d.markdown();
        assert!(md.contains("NEW CELL"), "{md}");
        assert!(md.contains("1 new cell(s)"), "{md}");
    }

    #[test]
    fn regret_increase_is_a_regression_decrease_an_improvement() {
        let old = report(vec![cell("a")]);
        let mut worse = cell("a");
        worse.total_regret *= 1.10;
        let d = diff_reports(&old, &report(vec![worse]), &DiffOptions::default());
        assert!(d.has_regressions());
        assert_eq!(d.findings[0].metric, "total_regret");

        let mut better = cell("a");
        better.total_regret *= 0.5;
        let d = diff_reports(&old, &report(vec![better]), &DiffOptions::default());
        assert!(!d.has_regressions());
        assert_eq!(d.findings[0].verdict, Verdict::Improvement);
    }

    #[test]
    fn deterministic_drift_is_reported_but_not_fatal() {
        let old = report(vec![cell("a")]);
        let mut drifted = cell("a");
        drifted.theta += 1;
        drifted.total_seeds += 2;
        let d = diff_reports(&old, &report(vec![drifted]), &DiffOptions::default());
        assert!(!d.has_regressions());
        assert_eq!(
            d.findings
                .iter()
                .filter(|f| f.verdict == Verdict::Drift)
                .count(),
            2
        );
    }

    #[test]
    fn memory_regression_flagged_above_floor() {
        let old = report(vec![cell("a")]);
        let mut fat = cell("a");
        fat.memory_bytes = (fat.memory_bytes as f64 * 1.5) as usize;
        let d = diff_reports(&old, &report(vec![fat]), &DiffOptions::default());
        assert!(d.has_regressions());

        // Below the floor: ignored.
        let mut tiny = cell("a");
        tiny.memory_bytes = 1000;
        let old = report(vec![tiny.clone()]);
        tiny.memory_bytes = 500_000;
        let d = diff_reports(&old, &report(vec![tiny]), &DiffOptions::default());
        assert!(!d.has_regressions());
    }

    #[test]
    fn bytes_per_posting_gates_like_memory_but_cross_machine() {
        // Layout bloat beyond the memory tolerance fails the gate even
        // though the ratio rides in the deterministic payload.
        let old = report(vec![cell("a")]);
        let mut fat = cell("a");
        fat.bytes_per_posting *= 1.5;
        let d = diff_reports(&old, &report(vec![fat]), &DiffOptions::default());
        assert!(d.has_regressions());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "bytes_per_posting" && f.verdict == Verdict::Regression));

        // A leaner layout is an improvement, not a failure.
        let mut lean = cell("a");
        lean.bytes_per_posting *= 0.6;
        let d = diff_reports(&old, &report(vec![lean]), &DiffOptions::default());
        assert!(!d.has_regressions());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "bytes_per_posting" && f.verdict == Verdict::Improvement));

        // A zero baseline has nothing to compare: a first non-zero
        // value is informational drift, never a regression.
        let mut zero = cell("a");
        zero.bytes_per_posting = 0.0;
        zero.legacy_bytes_per_posting = 0.0;
        let old = report(vec![zero]);
        let d = diff_reports(&old, &report(vec![cell("a")]), &DiffOptions::default());
        assert!(!d.has_regressions(), "{:?}", d.findings);
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "bytes_per_posting" && f.verdict == Verdict::Drift));
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "legacy_bytes_per_posting" && f.verdict == Verdict::Drift));
    }

    #[test]
    fn peak_rss_gated_at_run_level_only() {
        // One early cell's high-water mark inflating later cells must not
        // produce per-cell findings; only the run maximum is compared.
        let old = report(vec![cell("a"), cell("b")]);
        let mut new = report(vec![cell("a"), cell("b")]);
        // Later cell inherits a big early HWM: identical run max ⇒ clean.
        new.cells[0].peak_rss_bytes = 64 << 20;
        new.cells[1].peak_rss_bytes = 64 << 20;
        let d = diff_reports(&old, &new, &DiffOptions::default());
        assert!(!d.has_regressions());

        // Run max actually growing 2× is a single run-level regression.
        new.cells[1].peak_rss_bytes = 128 << 20;
        let d = diff_reports(&old, &new, &DiffOptions::default());
        assert_eq!(d.regressions(), 1);
        let f = d
            .findings
            .iter()
            .find(|f| f.metric == "peak_rss_bytes")
            .unwrap();
        assert_eq!(f.id, "(run)");
        assert_eq!(f.verdict, Verdict::Regression);

        // Partial joins (filtered run) skip the run-level check entirely.
        let filtered = report(vec![new.cells[1].clone()]);
        let d = diff_reports(&old, &filtered, &DiffOptions::default());
        assert!(!d.findings.iter().any(|f| f.metric == "peak_rss_bytes"));
    }

    #[test]
    fn serving_metrics_gate_online_cells() {
        let mut online = cell("ONLINE/a");
        online.latency_p50_us = 5_000.0;
        online.latency_p95_us = 12_000.0;
        online.latency_p99_us = 20_000.0;
        online.events_per_s = 150.0;
        let old = report(vec![online.clone()]);

        // Tail-latency blowup with wall_s unchanged must be flagged.
        let mut slow = online.clone();
        slow.latency_p99_us = 60_000.0;
        let d = diff_reports(&old, &report(vec![slow]), &DiffOptions::default());
        assert!(d.has_regressions());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "latency_p99_us" && f.verdict == Verdict::Regression));

        // Throughput gates in the opposite direction: a drop fails…
        let mut throttled = online.clone();
        throttled.events_per_s = 90.0;
        let d = diff_reports(&old, &report(vec![throttled]), &DiffOptions::default());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "events_per_s" && f.verdict == Verdict::Regression));
        // …a rise is an improvement.
        let mut faster = online.clone();
        faster.events_per_s = 300.0;
        let d = diff_reports(&old, &report(vec![faster]), &DiffOptions::default());
        assert!(!d.has_regressions());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "events_per_s" && f.verdict == Verdict::Improvement));

        // Sub-millisecond absolute movement is noise, not a finding.
        let mut jitter = online.clone();
        jitter.latency_p50_us = 5_800.0; // +16% but under the 1 ms slack
        let d = diff_reports(&old, &report(vec![jitter]), &DiffOptions::default());
        assert!(!d.has_regressions());

        // Batch cells (all-zero serving metrics) never produce findings.
        let batch_old = report(vec![cell("b")]);
        let d = diff_reports(
            &batch_old,
            &report(vec![cell("b")]),
            &DiffOptions::default(),
        );
        assert!(d.findings.is_empty());
    }

    #[test]
    fn read_path_metrics_gate_serving_cells() {
        let mut serving = cell("SERVING/a");
        serving.read_p99_us = 2_000.0;
        serving.reads_per_s = 8_000.0;
        serving.shed_rate = 0.2;
        let old = report(vec![serving.clone()]);

        // Read-path p99 blowup is a regression on its own.
        let mut slow = serving.clone();
        slow.read_p99_us = 9_000.0;
        let d = diff_reports(&old, &report(vec![slow]), &DiffOptions::default());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "read_p99_us" && f.verdict == Verdict::Regression));

        // Reader throughput gates inverted.
        let mut throttled = serving.clone();
        throttled.reads_per_s = 4_000.0;
        let d = diff_reports(&old, &report(vec![throttled]), &DiffOptions::default());
        assert!(d
            .findings
            .iter()
            .any(|f| f.metric == "reads_per_s" && f.verdict == Verdict::Regression));

        // Shed rate is recorded, never gated.
        let mut sheddy = serving.clone();
        sheddy.shed_rate = 0.9;
        let d = diff_reports(&old, &report(vec![sheddy]), &DiffOptions::default());
        assert!(!d.has_regressions(), "{:?}", d.findings);
    }

    #[test]
    fn times_skipped_across_different_machines() {
        let old = report(vec![cell("a")]);
        let mut new = report(vec![{
            let mut c = cell("a");
            c.wall_s *= 10.0; // massive "slowdown"…
            c
        }]);
        new.env.cpus = 16; // …but measured on different hardware
        let d = diff_reports(&old, &new, &DiffOptions::default());
        assert!(!d.times_compared);
        assert!(!d.has_regressions(), "cross-machine times must not gate");
        assert!(d.markdown().contains("wall-clock skipped"));

        // force_time overrides the gate.
        let opts = DiffOptions {
            force_time: true,
            ..DiffOptions::default()
        };
        let d = diff_reports(&old, &new, &opts);
        assert!(d.has_regressions());
    }
}
