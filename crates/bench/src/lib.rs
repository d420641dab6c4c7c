//! Shared plumbing for the experiment binaries: the one allocator
//! dispatcher ([`allocate`]), problem construction from workloads, and
//! result output (aligned text tables on stdout + JSON rows under
//! `target/experiments/`). The paper's §6 figures and tables are
//! subcommands of the `repro` bin (`repro fig3 table4 …`).
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
    evaluate, greedy_allocate, greedy_irie_allocate, myopic_allocate, myopic_plus_allocate,
    tirm_allocate, AlgoStats, Allocation, Attention, Evaluation, GreedyIrieOptions, GreedyOptions,
    ProblemInstance, TirmOptions,
};
use tirm_diffusion::McOracle;
use tirm_irie::IrieConfig;
use tirm_topics::CtpTable;
use tirm_workloads::scale::parse_budget_factor;
use tirm_workloads::{campaigns, tirm_options, AllocatorKind, Dataset, DatasetKind, ScaleConfig};

/// Runs `kind` on `problem` — the one dispatcher behind every harness.
/// Callers pass in what differs between them: `tirm` (seed, threads, θ
/// cap; its seed also seeds Greedy-MC's oracle), `quality` for the §6
/// IRIE α (0.8 on the quality data sets, 0.7 on the scalability ones),
/// and Greedy-MC's fidelity `eval_runs` and total-seed cap.
pub fn allocate(
    kind: AllocatorKind,
    problem: &ProblemInstance<'_>,
    quality: bool,
    tirm: TirmOptions,
    eval_runs: usize,
    seed_cap: Option<usize>,
) -> (Allocation, AlgoStats) {
    match kind {
        AllocatorKind::Tirm => tirm_allocate(problem, tirm),
        AllocatorKind::GreedyIrie => greedy_irie_allocate(
            problem,
            GreedyIrieOptions {
                irie: IrieConfig {
                    alpha: if quality { 0.8 } else { 0.7 },
                    ..IrieConfig::default()
                },
            },
        ),
        AllocatorKind::Greedy => {
            // Algorithm 1 with MC estimates. Every candidate scan costs
            // n·h oracle queries, so the run count stays low and the cap
            // bounds total seeds — a capped run measures per-seed cost
            // and early-allocation quality (the paper already concedes
            // Greedy-MC does not scale).
            let runs = (eval_runs / 20).clamp(10, 200);
            let ctps: Vec<Option<&[f32]>> = (0..problem.num_ads())
                .map(|i| Some(problem.ctp.ad(i)))
                .collect();
            let mut oracle =
                McOracle::new(problem.graph, &problem.edge_probs, ctps, runs, tirm.seed);
            greedy_allocate(
                problem,
                &mut oracle,
                GreedyOptions {
                    max_total_seeds: seed_cap,
                },
            )
        }
        AllocatorKind::Myopic => myopic_allocate(problem),
        AllocatorKind::MyopicPlus => myopic_plus_allocate(problem),
    }
}

/// The §6.2 scalability instance: `h` identical ads at `budget` in full
/// competition (CPE = CTP = 1), every ad on the dataset's one probability
/// vector (Weighted-Cascade).
pub fn scalability_problem(
    dataset: &Dataset,
    h: usize,
    budget: f64,
    kappa: u32,
    lambda: f64,
) -> ProblemInstance<'_> {
    let flat: Vec<f32> = (0..dataset.graph.num_edges() as u32)
        .map(|e| dataset.topic_probs.get(e, 0))
        .collect();
    ProblemInstance::new(
        &dataset.graph,
        campaigns::uniform_campaign(h, budget),
        vec![flat; h],
        CtpTable::constant(dataset.graph.num_nodes(), h, 1.0),
        Attention::Uniform(kappa),
        lambda,
    )
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
        let raw = std::env::var("TIRM_BUDGET_FACTOR").ok();
        let (factor, warning) = parse_budget_factor(raw.as_deref(), 1.0);
        if let Some(w) = warning {
            eprintln!("warn: {w}");
        }
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
    algo: AllocatorKind,
    kappa: u32,
    lambda: f64,
    seed: u64,
) -> QualityRow {
    let problem = w.problem(kappa, lambda);
    let tirm = tirm_options(true, seed);
    let (alloc, stats) = allocate(algo, &problem, true, tirm, w.cfg.eval_runs, None);
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

/// Writes `text` to [`experiments_dir()`]`/<file>`, creating the
/// directory if missing, through the atomic temp+rename writer so an
/// interrupted run never leaves a truncated artifact. Logs `[tag] path`,
/// or the error as a non-fatal warning: a figure harness should still
/// print its table when the filesystem is read-only, and a soak mid-crash
/// must not fail on a telemetry hiccup.
fn write_artifact(tag: &str, file: &str, text: &str) {
    let path = experiments_dir().join(file);
    match tirm_graph::snapshot::write_atomic(&path, text.as_bytes()) {
        Ok(()) => eprintln!("[{tag}] {}", path.display()),
        Err(e) => eprintln!("warn: writing {file} failed: {e}"),
    }
}

/// Writes an experiment's JSON rows, pretty-printed, as `<name>.json`.
pub fn write_json(name: &str, rows: &Value) {
    let text = serde_json::to_string_pretty(rows).expect("a Value always serializes");
    write_artifact("json", &format!("{name}.json"), &text);
}

/// Writes a [`schema::BenchReport`] as `<name>.json` — the standard sink
/// for every experiment binary's artifact.
pub fn write_report(name: &str, report: &schema::BenchReport) {
    write_artifact("json", &format!("{name}.json"), &report.to_json_string());
}

/// Scrapes a server's `--metrics-addr` endpoint and preserves the
/// Prometheus text as `<name>.prom` — how the soak harnesses capture a
/// child's registry right before a SIGKILL erases it. Best-effort and
/// non-fatal: the scrape is evidence, not a gate; the text is still
/// parse-checked so a malformed exposition is surfaced loudly in the log.
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
    write_artifact("prom", &format!("{name}.prom"), &text);
}

/// Scrapes a server's `/trace.json` flight-recorder dump and preserves
/// it as `<name>.trace.json` — the soak harnesses' last-breath lineage
/// capture right before a SIGKILL (which leaves no `--trace-json` dump
/// behind). Best-effort and non-fatal like [`scrape_metrics`], but the
/// JSON is still parse-checked so a malformed dump is loud in the log.
/// Returns the dump when it was fetched and parsed, so callers can
/// assert kill-window coverage.
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
    write_artifact("trace", &format!("{name}.trace.json"), &json);
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
