//! Shared plumbing for the experiment binaries: algorithm registry,
//! problem construction from workloads, and result output (aligned text
//! tables on stdout + JSON rows under `target/experiments/`).
//!
//! The measurement backbone lives in four submodules: [`schema`] (the
//! versioned `BENCH_*.json` artifact every experiment emits), [`suite`]
//! (the deterministic scenario-matrix runner behind `perf_suite`),
//! [`diff`] (the exact field-equality drift gate behind `bench_diff`)
//! and [`loadgen`] (the closed-loop wire-protocol load generator behind the
//! `SERVING/…` cells and the `soak` bin).

pub mod diff;
pub mod loadgen;
pub mod schema;
pub mod suite;

use serde_json::{json, Value};
use std::path::PathBuf;
use tirm_core::{
    evaluate, greedy_irie_allocate, myopic_allocate, myopic_plus_allocate, tirm_allocate,
    AlgoStats, Allocation, Attention, Evaluation, GreedyIrieOptions, ProblemInstance, TirmOptions,
};
use tirm_irie::IrieConfig;
use tirm_topics::CtpTable;
use tirm_workloads::{campaigns, Dataset, DatasetKind, ScaleConfig};

/// The four algorithms compared throughout §6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoKind {
    /// MYOPIC baseline.
    Myopic,
    /// MYOPIC+ baseline.
    MyopicPlus,
    /// GREEDY-IRIE (the paper labels it "IRIE" in figures).
    GreedyIrie,
    /// TIRM (Algorithm 2).
    Tirm,
}

impl AlgoKind {
    /// All four, in the paper's legend order.
    pub const ALL: [AlgoKind; 4] = [
        AlgoKind::Myopic,
        AlgoKind::MyopicPlus,
        AlgoKind::GreedyIrie,
        AlgoKind::Tirm,
    ];

    /// Figure-legend name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Myopic => "Myopic",
            AlgoKind::MyopicPlus => "Myopic+",
            AlgoKind::GreedyIrie => "IRIE",
            AlgoKind::Tirm => "TIRM",
        }
    }

    /// Runs the algorithm on `problem`.
    pub fn run(
        self,
        problem: &ProblemInstance<'_>,
        quality: bool,
        seed: u64,
    ) -> (Allocation, AlgoStats) {
        match self {
            AlgoKind::Myopic => myopic_allocate(problem),
            AlgoKind::MyopicPlus => myopic_plus_allocate(problem),
            AlgoKind::GreedyIrie => greedy_irie_allocate(
                problem,
                GreedyIrieOptions {
                    irie: IrieConfig {
                        // §6: α = 0.8 gave the best spread estimates on the
                        // quality data sets; 0.7 on the scalability ones.
                        alpha: if quality { 0.8 } else { 0.7 },
                        ..IrieConfig::default()
                    },
                },
            ),
            AlgoKind::Tirm => tirm_allocate(problem, tirm_options(quality, seed)),
        }
    }
}

/// TIRM options per experiment family: ε = 0.1 for quality runs, 0.2 for
/// scalability runs (§6), with per-ad sample caps keeping the harness
/// inside laptop memory (ARCHITECTURE.md, "Synthetic data sets"; the cap
/// only reduces estimation accuracy, never correctness).
pub fn tirm_options(quality: bool, seed: u64) -> TirmOptions {
    TirmOptions {
        eps: if quality { 0.1 } else { 0.2 },
        seed,
        max_theta_per_ad: Some(if quality { 1_000_000 } else { 400_000 }),
        ..TirmOptions::default()
    }
}

/// Owns everything a quality-experiment problem instance borrows.
pub struct QualityWorkload {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Advertisers (budgets already scaled by the dataset's size ratio).
    pub ads: Vec<tirm_core::Advertiser>,
    /// CTPs `U[0.01, 0.03]`.
    pub ctp: CtpTable,
    /// Scale configuration in effect.
    pub cfg: ScaleConfig,
}

impl QualityWorkload {
    /// Builds the §6.1 setup for FLIXSTER or EPINIONS.
    pub fn new(kind: DatasetKind, seed: u64) -> Self {
        let cfg = ScaleConfig::from_env();
        let dataset = Dataset::generate(kind, &cfg, seed);
        let spec = campaigns::CampaignSpec::quality(kind);
        // Budgets scale with graph size; `TIRM_BUDGET_FACTOR` applies an
        // extra multiplier so the §4.1 working assumptions (p_i < 1 and
        // seeds ≪ n) can be kept when running far below paper scale.
        let factor: f64 = std::env::var("TIRM_BUDGET_FACTOR")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let ads = campaigns::campaign(&spec, dataset.size_ratio * factor, seed ^ 0xada);
        let ctp = CtpTable::uniform_random(
            dataset.graph.num_nodes(),
            ads.len(),
            0.01,
            0.03,
            seed ^ 0xc7b,
        );
        QualityWorkload {
            dataset,
            ads,
            ctp,
            cfg,
        }
    }

    /// Instantiates the problem at the given κ and λ.
    pub fn problem(&self, kappa: u32, lambda: f64) -> ProblemInstance<'_> {
        ProblemInstance::from_topic_model(
            &self.dataset.graph,
            &self.dataset.topic_probs,
            self.ads.clone(),
            self.ctp.clone(),
            Attention::Uniform(kappa),
            lambda,
        )
    }

    /// Ground-truth MC evaluation at the configured run count.
    pub fn evaluate(&self, problem: &ProblemInstance<'_>, alloc: &Allocation) -> Evaluation {
        evaluate(problem, alloc, self.cfg.eval_runs, 0xe7a1, self.cfg.threads)
    }
}

/// One output row of a quality experiment.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Data set name.
    pub dataset: String,
    /// Algorithm name.
    pub algo: String,
    /// Attention bound κ.
    pub kappa: u32,
    /// Penalty λ.
    pub lambda: f64,
    /// MC-evaluated total regret (Eq. 4).
    pub total_regret: f64,
    /// Regret / total budget.
    pub relative_regret: f64,
    /// Distinct users targeted (Table 3 metric).
    pub distinct_targeted: usize,
    /// Total seeds allocated.
    pub total_seeds: usize,
    /// Allocation wall-clock seconds.
    pub runtime_s: f64,
    /// Algorithm memory bytes (Table 4 metric).
    pub memory_bytes: usize,
    /// Per-ad signed slack `Π_i − B_i` (Fig. 5 metric).
    pub slack_per_ad: Vec<f64>,
}

impl From<QualityRow> for Value {
    fn from(r: QualityRow) -> Value {
        json!({
            "dataset": r.dataset,
            "algo": r.algo,
            "kappa": r.kappa,
            "lambda": r.lambda,
            "total_regret": r.total_regret,
            "relative_regret": r.relative_regret,
            "distinct_targeted": r.distinct_targeted,
            "total_seeds": r.total_seeds,
            "runtime_s": r.runtime_s,
            "memory_bytes": r.memory_bytes,
            "slack_per_ad": r.slack_per_ad,
        })
    }
}

/// Runs one (algorithm, κ, λ) cell and evaluates it.
pub fn run_quality_cell(
    w: &QualityWorkload,
    algo: AlgoKind,
    kappa: u32,
    lambda: f64,
    seed: u64,
) -> QualityRow {
    let problem = w.problem(kappa, lambda);
    let (alloc, stats) = algo.run(&problem, true, seed);
    alloc
        .validate(&problem)
        .expect("algorithm produced an invalid allocation");
    let ev = w.evaluate(&problem, &alloc);
    QualityRow {
        dataset: w.dataset.kind.name().to_string(),
        algo: algo.name().to_string(),
        kappa,
        lambda,
        total_regret: ev.regret.total(),
        relative_regret: ev.regret.relative_regret(),
        distinct_targeted: alloc.distinct_targeted(),
        total_seeds: alloc.total_seeds(),
        runtime_s: stats.runtime.as_secs_f64(),
        memory_bytes: stats.memory_bytes,
        slack_per_ad: ev.regret.per_ad.iter().map(|a| a.signed_slack()).collect(),
    }
}

/// Root directory for experiment JSON output. Overridable via
/// `TIRM_EXPERIMENTS_DIR`; defaults to `target/experiments` so results are
/// cleaned together with build artefacts.
pub fn experiments_dir() -> PathBuf {
    std::env::var_os("TIRM_EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

/// Writes an experiment's JSON as pretty-printed text under
/// [`experiments_dir()`]`/<name>.json`, creating the directory if missing.
/// Returns the written path; IO failures are surfaced as errors. Commits
/// through the atomic temp+rename writer so an interrupted run never
/// leaves a truncated artifact.
pub fn try_write_json(name: &str, rows: &Value) -> std::io::Result<PathBuf> {
    let path = experiments_dir().join(format!("{name}.json"));
    let s = serde_json::to_string_pretty(rows)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    tirm_graph::snapshot::write_atomic(&path, s.as_bytes())?;
    Ok(path)
}

/// [`try_write_json`] for the experiment binaries: logs the written path,
/// or the error with a non-fatal warning (a figure harness should still
/// print its table when the filesystem is read-only).
pub fn write_json(name: &str, rows: &Value) {
    match try_write_json(name, rows) {
        Ok(path) => eprintln!("[json] {}", path.display()),
        Err(e) => eprintln!("warn: writing {name}.json failed: {e}"),
    }
}

/// Scrapes a server's `--metrics-addr` endpoint and preserves the
/// Prometheus text under [`experiments_dir()`]`/<name>.prom` — how the
/// soak harnesses capture a child's registry right before a SIGKILL
/// erases it. Best-effort and non-fatal: the scrape is evidence, not a
/// gate, and a soak mid-crash must not fail on a telemetry hiccup; the
/// text is still parse-checked so a malformed exposition is surfaced
/// loudly in the log.
pub fn scrape_metrics(addr: std::net::SocketAddr, name: &str) {
    let text = match tirm_obs::http::fetch(addr, "/metrics", std::time::Duration::from_secs(5)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("warn: metrics scrape from {addr} failed: {e}");
            return;
        }
    };
    if let Err(e) = tirm_obs::prom::parse(&text) {
        eprintln!("warn: metrics scrape from {addr} does not parse: {e}");
    }
    let path = experiments_dir().join(format!("{name}.prom"));
    match tirm_graph::snapshot::write_atomic(&path, text.as_bytes()) {
        Ok(()) => eprintln!("[prom] {}", path.display()),
        Err(e) => eprintln!("warn: writing {name}.prom failed: {e}"),
    }
}

/// Scrapes a server's `/trace.json` flight-recorder dump and preserves
/// it under [`experiments_dir()`]`/<name>.trace.json` — the soak
/// harnesses' last-breath lineage capture right before a SIGKILL (which
/// leaves no `--trace-json` dump behind). Best-effort and non-fatal
/// like [`scrape_metrics`], but the JSON is still parse-checked so a
/// malformed dump is loud in the log. Returns the dump when it was
/// fetched and parsed, so callers can assert kill-window coverage.
pub fn scrape_trace(addr: std::net::SocketAddr, name: &str) -> Option<String> {
    let json = match tirm_obs::http::fetch(addr, "/trace.json", std::time::Duration::from_secs(5)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("warn: trace scrape from {addr} failed: {e}");
            return None;
        }
    };
    if let Err(e) = serde_json::from_str(&json) {
        eprintln!("warn: trace scrape from {addr} does not parse: {e}");
        return None;
    }
    let path = experiments_dir().join(format!("{name}.trace.json"));
    match tirm_graph::snapshot::write_atomic(&path, json.as_bytes()) {
        Ok(()) => eprintln!("[trace] {}", path.display()),
        Err(e) => eprintln!("warn: writing {name}.trace.json failed: {e}"),
    }
    Some(json)
}

/// How many distinct trace ids in a Chrome trace-event dump cover every
/// stage in `stages` — the soak harnesses' kill-window check: a scrape
/// taken right before a SIGKILL must still hold complete lifecycles for
/// the mutations that ran in the window before it.
pub fn traces_covering_stages(chrome_json: &str, stages: &[&str]) -> usize {
    let Ok(v) = serde_json::from_str(chrome_json) else {
        return 0;
    };
    let Some(events) = v.get("traceEvents").and_then(Value::as_array) else {
        return 0;
    };
    let mut seen: std::collections::HashMap<u64, std::collections::HashSet<&str>> =
        std::collections::HashMap::new();
    for e in events {
        let trace = e
            .get("args")
            .and_then(|a| a.get("trace"))
            .and_then(Value::as_u64);
        let name = e.get("name").and_then(Value::as_str);
        if let (Some(trace @ 1..), Some(name)) = (trace, name) {
            if stages.contains(&name) {
                seen.entry(trace).or_default().insert(name);
            }
        }
    }
    seen.values().filter(|s| s.len() == stages.len()).count()
}

/// Writes a [`schema::BenchReport`] under [`experiments_dir()`]`/<name>.json`
/// with the same log-or-warn behaviour as [`write_json`] — the standard
/// sink for every experiment binary's artifact.
pub fn write_report(name: &str, report: &schema::BenchReport) {
    let path = experiments_dir().join(format!("{name}.json"));
    match report.save(&path) {
        Ok(()) => eprintln!("[json] {}", path.display()),
        Err(e) => eprintln!("warn: writing {name}.json failed: {e}"),
    }
}

/// Standard run header so logs are self-describing.
pub fn banner(name: &str, cfg: &ScaleConfig) {
    eprintln!(
        "== {name} | scale={} eval_runs={} threads={} ==",
        cfg.scale, cfg.eval_runs, cfg.threads
    );
}

#[cfg(test)]
mod tests {
    use super::traces_covering_stages;

    #[test]
    fn a_trace_counts_once_it_covers_every_stage() {
        let ev =
            |name: &str, trace: u64| format!(r#"{{"name":"{name}","args":{{"trace":{trace}}}}}"#);
        let events = [
            ev("admit", 1),
            ev("apply", 1),
            ev("admit", 2),
            ev("apply", 0),
        ];
        let dump = format!(r#"{{"traceEvents":[{}]}}"#, events.join(","));
        assert_eq!(traces_covering_stages(&dump, &["admit", "apply"]), 1);
        assert_eq!(traces_covering_stages(&dump, &["admit"]), 2);
        assert_eq!(traces_covering_stages("not json", &["admit"]), 0);
    }
}
