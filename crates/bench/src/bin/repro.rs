//! The paper's §6 evidence, one subcommand per artifact: `repro <name>...`
//! runs each named figure or table in order, printing its tables on
//! stdout and writing `<name>.json` under `target/experiments/` (or
//! `TIRM_EXPERIMENTS_DIR`).
//!
//! ```text
//! TIRM_SCALE=0.05 TIRM_EVAL_RUNS=500 cargo run --release -p tirm_bench --bin repro -- table1 fig3
//! ```
//!
//! Fidelity comes from `TIRM_SCALE`, `TIRM_EVAL_RUNS` and `TIRM_THREADS`;
//! `TIRM_BUDGET_FACTOR` scales the quality campaigns' budgets and
//! `TIRM_SNAPSHOT_DIR` caches fig6's and table4's graphs. With no name, or
//! an unknown one, it prints the usage and exits with code 2.
//!
//! The artifacts come in four families: the data sets (table1, table2),
//! the Fig. 1 toy example (example1), the §6.1 quality runs (fig3, fig4,
//! fig5, table3), the §6.2 scalability runs (fig6, table4), plus the
//! ablations this reproduction adds (ablation).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;
use tirm_bench::schema::{BenchCell, BenchReport};
use tirm_bench::suite::{cell_from_run, CellLabels};
use tirm_bench::{
    allocate, banner, run_quality_cell, scalability_problem, write_json, write_report, QualityRow,
    QualityWorkload,
};
use tirm_core::report::{fnum, Table};
use tirm_core::{evaluate, tirm_allocate, RegretReport, TirmOptions};
use tirm_diffusion::exact_activation_probs;
use tirm_rrset::{RrSampler, SampleWorkspace};
use tirm_workloads::toy::Fig1;
use tirm_workloads::{
    campaigns, tirm_options, AllocatorKind, Dataset, DatasetKind, ProbModel, ScaleConfig,
};

/// Every artifact, in the paper's order.
const ARTIFACTS: [(&str, fn()); 10] = [
    ("example1", example1),
    ("table1", table1),
    ("table2", table2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("table3", table3),
    ("fig6", fig6),
    ("table4", table4),
    ("ablation", ablation),
];

fn main() -> ExitCode {
    let mut runs = Vec::new();
    for name in std::env::args().skip(1) {
        match ARTIFACTS.iter().find(|(artifact, _)| *artifact == name) {
            Some(&(_, run)) => runs.push(run),
            None => return usage(&format!("unknown artifact {name:?}")),
        }
    }
    if runs.is_empty() {
        return usage("name at least one artifact");
    }
    for run in runs {
        run();
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    eprintln!("error: {msg}");
    eprintln!("usage: repro <name>...   (names: {})", names.join(" "));
    ExitCode::from(2)
}

// ------------------------------------------------- data sets: table1, table2

/// Table 1: statistics of the generated network data sets, next to the
/// paper's real-data numbers.
fn table1() {
    let cfg = ScaleConfig::from_env();
    banner("table1: dataset statistics", &cfg);
    let mut t = Table::new(&[
        "dataset",
        "#nodes",
        "#edges",
        "type",
        "paper #nodes",
        "paper #edges",
        "max indeg",
        "gini(indeg)",
        "reciprocity",
    ]);
    let mut rows = Vec::new();
    for (kind, paper_n, paper_m) in [
        (DatasetKind::Flixster, "30K", "425K"),
        (DatasetKind::Epinions, "76K", "509K"),
        (DatasetKind::Dblp, "317K", "1.05M (undirected)"),
        (DatasetKind::LiveJournal, "4.8M", "69M"),
    ] {
        let st = Dataset::generate(kind, &cfg, 0xda7a + kind as u64).stats();
        let ty = if st.reciprocity > 0.95 {
            "undirected"
        } else {
            "directed"
        };
        t.row(vec![
            kind.name().to_string(),
            st.nodes.to_string(),
            st.edges.to_string(),
            ty.to_string(),
            paper_n.to_string(),
            paper_m.to_string(),
            st.max_in_degree.to_string(),
            format!("{:.3}", st.in_degree_gini),
            format!("{:.3}", st.reciprocity),
        ]);
        rows.push(serde_json::json!({
            "dataset": kind.name(),
            "nodes": st.nodes,
            "edges": st.edges,
            "max_in_degree": st.max_in_degree,
            "mean_degree": st.mean_degree,
            "gini_in": st.in_degree_gini,
            "reciprocity": st.reciprocity,
        }));
    }
    println!("{}", t.render());
    write_json("table1", &rows.into());
}

/// Table 2: advertiser budget and cost-per-engagement summary (mean, min,
/// max) for the quality data sets, at harness scale next to the paper's.
fn table2() {
    let cfg = ScaleConfig::from_env();
    banner("table2: budgets and CPEs", &cfg);
    let mut t = Table::new(&[
        "dataset",
        "budget mean",
        "budget min",
        "budget max",
        "cpe mean",
        "cpe min",
        "cpe max",
        "paper budget (mean/min/max)",
        "paper cpe",
    ]);
    let mut rows = Vec::new();
    for (kind, paper_budget, paper_cpe) in [
        (DatasetKind::Flixster, "375 / 200 / 600", "5.5 / 5 / 6"),
        (DatasetKind::Epinions, "215 / 100 / 350", "4.35 / 2.5 / 6"),
    ] {
        let d = Dataset::generate(kind, &cfg, 0xda7a + kind as u64);
        let spec = campaigns::CampaignSpec::quality(kind);
        let ads = campaigns::campaign(&spec, d.size_ratio, (kind as u64) ^ 0xada);
        let (bm, blo, bhi) = summary(ads.iter().map(|a| a.budget));
        let (cm, clo, chi) = summary(ads.iter().map(|a| a.cpe));
        t.row(vec![
            kind.name().to_string(),
            fnum(bm),
            fnum(blo),
            fnum(bhi),
            fnum(cm),
            fnum(clo),
            fnum(chi),
            paper_budget.to_string(),
            paper_cpe.to_string(),
        ]);
        rows.push(serde_json::json!({
            "dataset": kind.name(),
            "budget_mean": bm, "budget_min": blo, "budget_max": bhi,
            "cpe_mean": cm, "cpe_min": clo, "cpe_max": chi,
            "size_ratio": d.size_ratio,
        }));
    }
    println!("{}", t.render());
    println!("(budgets are scaled by each dataset's size ratio so the seeds-per-node");
    println!(" regime matches the paper's; see ARCHITECTURE.md \"Synthetic data sets\")");
    write_json("table2", &rows.into());
}

/// (mean, min, max) of `values`.
fn summary(values: impl Iterator<Item = f64> + Clone) -> (f64, f64, f64) {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().sum::<f64>() / n;
    let min = values.clone().fold(f64::INFINITY, f64::min);
    let max = values.fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}

// ------------------------------------------------------- Fig. 1: example1

/// Fig. 1 / Examples 1–2: the worked toy example. Prints the per-node
/// click probabilities of allocations A and B (exact possible-world
/// values next to the paper's independence-approximation totals, 5.55 vs
/// 6.3) and their regrets at λ = 0 and λ = 0.1 (paper: 6.6/2.7 and
/// 7.2/3.3).
fn example1() {
    let fig = Fig1::new();
    let problem = fig.problem(0.0);

    println!("Fig. 1 toy network: 6 users, 4 ads (a,b,c,d), CPE 1, kappa 1");
    println!();

    for (name, alloc, paper_total) in [
        ("Allocation A (myopic)", fig.allocation_a(), 5.55),
        ("Allocation B (virality-aware)", fig.allocation_b(), 6.30),
    ] {
        let mut t = Table::new(&["ad", "seeds", "exact E[clicks]"]);
        let mut total = 0.0;
        let mut revenues = Vec::new();
        for i in 0..4 {
            let seeds = alloc.seeds(i);
            let clicks: f64 = if seeds.is_empty() {
                0.0
            } else {
                exact_activation_probs(&fig.graph, &fig.probs, seeds, Some(problem.ctp.ad(i)))
                    .iter()
                    .sum()
            };
            total += clicks;
            revenues.push(clicks); // CPE = 1
            t.row(vec![
                ["a", "b", "c", "d"][i].to_string(),
                format!("{:?}", seeds.iter().map(|&s| s + 1).collect::<Vec<_>>()),
                fnum(clicks),
            ]);
        }
        println!("{name}");
        println!("{}", t.render());
        println!(
            "total expected clicks: {:.3}  (paper, independence approx: {paper_total})",
            total
        );
        for lambda in [0.0, 0.1] {
            let report = RegretReport::new(
                (0..4).map(|i| ([4.0, 2.0, 2.0, 1.0][i], revenues[i], alloc.seeds(i).len())),
                lambda,
            );
            println!("regret (lambda = {lambda}): {:.3}", report.total());
        }
        println!();
    }

    println!("note: the paper computes v6's click probability assuming its two");
    println!("parents are independent; they share ancestor v3, so the exact");
    println!("possible-world totals differ from 5.55/6.3 in the third decimal.");
}

// ------------------------------- §6.1 quality: fig3, fig4, fig5, table3

/// The two quality data sets every §6.1 artifact runs on.
const QUALITY: [DatasetKind; 2] = [DatasetKind::Flixster, DatasetKind::Epinions];

/// One evaluated quality cell, with a progress line on stderr.
fn quality_cell(w: &QualityWorkload, algo: AllocatorKind, kappa: u32, lambda: f64) -> QualityRow {
    let row = run_quality_cell(w, algo, kappa, lambda, 0x5eed);
    eprintln!(
        "  {} {} κ={kappa} λ={lambda}: regret={:.1} ({:.1}% of budget), {} seeds, {} distinct nodes, in {:.1}s",
        row.dataset,
        row.algo,
        row.total_regret,
        100.0 * row.relative_regret,
        row.total_seeds,
        row.distinct_targeted,
        row.runtime_s
    );
    row
}

/// Fig. 3(a–d): total regret vs attention bound κ ∈ {1..5}, at
/// λ ∈ {0, 0.5}. Expected: TIRM < GREEDY-IRIE ≪ MYOPIC ≈ MYOPIC+; TIRM's
/// regret falls as κ grows, the myopic baselines' rises (more seeds, more
/// uncontrolled virality, larger overshoot).
fn fig3() {
    regret_grid(3, 0xf163, true, &[0.0, 0.5], &[1.0, 2.0, 3.0, 4.0, 5.0]);
}

/// Fig. 4(a–d): total regret vs penalty λ ∈ {0, 0.1, 0.5, 1}, at
/// κ ∈ {1, 5}. Expected: regret grows with λ for every algorithm, the
/// ordering stays TIRM < IRIE ≪ MYOPIC/MYOPIC+, and TIRM stays strong at
/// λ = 1 (Theorem 2's λ-assumption is conservative).
fn fig4() {
    regret_grid(4, 0xf164, false, &[1.0, 5.0], &[0.0, 0.1, 0.5, 1.0]);
}

/// Fig. 3's and Fig. 4's shape: per quality data set and per value in
/// `fixed`, one table of all four algorithms' total regret, a row per
/// value in `swept`. With `kappa_swept` the rows are κ and the tables λ
/// (Fig. 3), otherwise the other way round (Fig. 4).
fn regret_grid(fig: u32, seed: u64, kappa_swept: bool, fixed: &[f64], swept: &[f64]) {
    let (fixed_name, swept_name, versus) = if kappa_swept {
        ("lambda", "kappa", "attention bound")
    } else {
        ("kappa", "lambda", "lambda")
    };
    let mut header = vec![swept_name];
    header.extend(AllocatorKind::LEGEND.map(AllocatorKind::name));
    let mut rows = Vec::new();
    for kind in QUALITY {
        let w = QualityWorkload::new(kind, seed + kind as u64);
        banner(&format!("fig{fig}: {}", kind.name()), &w.cfg);
        for &f in fixed {
            let mut t = Table::new(&header);
            for &x in swept {
                let (kappa, lambda) = if kappa_swept { (x, f) } else { (f, x) };
                let mut cells = vec![format!("{x}")];
                for algo in AllocatorKind::LEGEND {
                    let row = quality_cell(&w, algo, kappa as u32, lambda);
                    cells.push(fnum(row.total_regret));
                    rows.push(row);
                }
                t.row(cells);
            }
            println!(
                "\nFig. {fig} — {} ({fixed_name} = {f}): total regret vs {versus}",
                kind.name()
            );
            println!("{}", t.render());
        }
    }
    write_json(&format!("fig{fig}"), &rows.into());
}

/// Fig. 5(a–b): each ad's signed slack `revenue − budget` for TIRM vs
/// GREEDY-IRIE at λ = 0, κ = 5. Expected: on FLIXSTER both overshoot but
/// TIRM's distribution is much flatter; on EPINIONS GREEDY-IRIE
/// undershoots on most ads (its spread over-estimation stops Greedy
/// early) while TIRM stays slightly above zero.
fn fig5() {
    let mut rows = Vec::new();
    for kind in QUALITY {
        let w = QualityWorkload::new(kind, 0xf165 + kind as u64);
        banner(&format!("fig5: {}", kind.name()), &w.cfg);
        let [irie, tirm] =
            [AllocatorKind::GreedyIrie, AllocatorKind::Tirm].map(|a| quality_cell(&w, a, 5, 0.0));
        let mut t = Table::new(&["ad", "IRIE rev-budget", "TIRM rev-budget"]);
        for (i, (a, b)) in irie.slack_per_ad.iter().zip(&tirm.slack_per_ad).enumerate() {
            t.row(vec![i.to_string(), fnum(*a), fnum(*b)]);
        }
        println!(
            "\nFig. 5 — {} (lambda = 0, kappa = 5): revenue − budget per ad",
            kind.name()
        );
        println!("{}", t.render());
        for r in [&irie, &tirm] {
            let (lo, hi) = r
                .slack_per_ad
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let range = hi - lo;
            println!(
                "{}: slack range [{lo:.1}, {hi:.1}], |range| {range:.1}",
                r.algo
            );
        }
        rows.extend([irie, tirm]);
    }
    write_json("fig5", &rows.into());
}

/// Table 3: distinct nodes targeted at least once vs κ, at λ = 0.
/// Expected: MYOPIC targets every node regardless of κ; MYOPIC+ and the
/// virality-aware algorithms need fewer as κ grows, and TIRM/IRIE use
/// orders of magnitude fewer than the myopic baselines.
fn table3() {
    let mut rows = Vec::new();
    for kind in QUALITY {
        let w = QualityWorkload::new(kind, 0x7ab3 + kind as u64);
        banner(&format!("table3: {}", kind.name()), &w.cfg);
        let mut t = Table::new(&["algorithm", "k=1", "k=2", "k=3", "k=4", "k=5"]);
        // One line per algorithm, in the paper's row order.
        for algo in [
            AllocatorKind::Tirm,
            AllocatorKind::GreedyIrie,
            AllocatorKind::Myopic,
            AllocatorKind::MyopicPlus,
        ] {
            let mut cells = vec![algo.name().to_string()];
            for kappa in 1..=5u32 {
                let row = quality_cell(&w, algo, kappa, 0.0);
                cells.push(row.distinct_targeted.to_string());
                rows.push(row);
            }
            t.row(cells);
        }
        println!(
            "\nTable 3 — {} (lambda = 0): distinct nodes targeted vs kappa",
            kind.name()
        );
        println!("{}", t.render());
    }
    write_json("table3", &rows.into());
}

// ---------------------------------------- §6.2 scalability: fig6, table4

/// Fig. 6's and Table 4's loop over the two §6.2 networks
/// (Weighted-Cascade, snapshot-cached when `TIRM_SNAPSHOT_DIR` is set).
/// `body` gets each network, its per-advertiser base budget — the paper's
/// 5K on DBLP and 80K on LIVEJOURNAL at their original sizes, scaled —
/// and whether GREEDY-IRIE runs there: the paper excludes it on
/// LIVEJOURNAL for its running time. The cells land in `<name>.json` as
/// a schema [`BenchReport`].
fn scalability(name: &str, mut body: impl FnMut(&Dataset, f64, bool, &mut Vec<BenchCell>)) {
    let cfg = ScaleConfig::from_env();
    let mut cells = Vec::new();
    for kind in [DatasetKind::Dblp, DatasetKind::LiveJournal] {
        let model = ProbModel::canonical(kind);
        let (d, _) = Dataset::load_or_generate_env(kind, model, &cfg, 0x5ca1e + kind as u64);
        let (n, m) = (d.graph.num_nodes(), d.graph.num_edges());
        banner(
            &format!("{name}: {} ({n} nodes, {m} edges)", kind.name()),
            &cfg,
        );
        let dblp = kind == DatasetKind::Dblp;
        let paper_budget = if dblp { 5_000.0 } else { 80_000.0 };
        body(&d, paper_budget * d.size_ratio, dblp, &mut cells);
    }
    write_report(name, &BenchReport::new(name, &cfg, cells));
}

/// Runs one §6.2 cell — `h` identical ads at `budget` in full
/// competition, CPE = CTP = 1, κ = 1, λ = 0, ε = 0.2, no MC evaluation —
/// and appends it to `cells` under `id`.
fn scalability_cell<'c>(
    cells: &'c mut Vec<BenchCell>,
    id: String,
    d: &Dataset,
    algo: AllocatorKind,
    h: usize,
    budget: f64,
    seed: u64,
) -> &'c BenchCell {
    let problem = scalability_problem(d, h, budget, 1, 0.0);
    let t0 = Instant::now();
    let (alloc, stats) = allocate(algo, &problem, false, tirm_options(false, seed), 0, None);
    let wall_s = t0.elapsed().as_secs_f64();
    alloc.validate(&problem).expect("valid allocation");
    let labels = CellLabels {
        id,
        dataset: d.kind.name(),
        prob_model: "wc",
        allocator: algo.name(),
        threads: 1,
        kappa: 1,
        lambda: 0.0,
        seed,
    };
    let cell = cell_from_run(labels, &problem, &alloc, &stats, None, wall_s);
    eprintln!(
        "  {}: {:.1}s, {} seeds, {:.3} GB, {} RR sets",
        cell.id,
        cell.wall_s,
        cell.total_seeds,
        cell.memory_bytes as f64 / 1e9,
        cell.theta
    );
    cells.push(cell);
    cells.last().expect("just pushed")
}

/// Fig. 6(a–d): running time of TIRM and GREEDY-IRIE vs the number of
/// advertisers h and vs the per-advertiser budget (h = 5). Expected: TIRM
/// scales about linearly in h and stays roughly flat in the budget;
/// GREEDY-IRIE grows super-linearly in the budget and is an order of
/// magnitude slower at moderate h. The figure is the cells' `wall_s`,
/// which `bench_diff` never compares: diffing two `fig6.json` files
/// checks that the sweep's seeds, θ and memory did not drift.
fn fig6() {
    scalability("fig6", |d, base, irie, cells| {
        let ds = d.kind.name();
        let budgets = if d.kind == DatasetKind::Dblp {
            [2_000.0, 5_000.0, 10_000.0, 20_000.0, 30_000.0]
        } else {
            [50_000.0, 100_000.0, 150_000.0, 200_000.0, 250_000.0]
        };
        let h_sweep = [1, 5, 10, 15, 20].map(|h| (h.to_string(), h, base));
        let budget_sweep = budgets.map(|b| b * d.size_ratio).map(|b| (fnum(b), 5, b));
        for (sweep, column, points, versus) in [
            (
                "h",
                "h",
                h_sweep,
                format!("number of advertisers (B = {base:.0})"),
            ),
            (
                "B",
                "budget",
                budget_sweep,
                "per-advertiser budget (h = 5)".into(),
            ),
        ] {
            let mut t = Table::new(&[column, "TIRM (s)", "IRIE (s)"]);
            for (label, h, budget) in points {
                let mut row = vec![label];
                for algo in [AllocatorKind::Tirm, AllocatorKind::GreedyIrie] {
                    if algo == AllocatorKind::GreedyIrie && !irie {
                        row.push("-".into());
                        continue;
                    }
                    // `sweep` tells the h-sweep's h = 5 point from the
                    // budget sweep's base point, so ids stay unique.
                    let id = format!("FIG6/{sweep}/{ds}/wc/{}/h{h}/B{budget:.0}", algo.name());
                    let cell = scalability_cell(cells, id, d, algo, h, budget, 0x5ca1e);
                    row.push(fnum(cell.wall_s));
                }
                t.row(row);
            }
            println!("\nFig. 6 — {ds}: running time vs {versus}");
            println!("{}", t.render());
        }
    });
}

/// Table 4: memory (GB) of TIRM and GREEDY-IRIE vs h. Expected: TIRM's
/// RR-set collections dominate and grow steadily with h (the paper: 2.59
/// → 60.8 GB on DBLP at full scale) while GREEDY-IRIE needs a few
/// node-length vectors (0.16 → 0.84 GB). Absolute numbers here follow the
/// generated graph sizes and the per-ad θ cap; the gap and the
/// near-linear growth are the reproduced claims. `memory_bytes` is
/// deterministic, so two runs at one scale pass `bench_diff` exactly.
fn table4() {
    scalability("table4", |d, base, irie, cells| {
        let ds = d.kind.name();
        let mut t = Table::new(&["h", "TIRM (GB)", "IRIE (GB)"]);
        for h in [1usize, 5, 10, 15, 20] {
            let mut gb = |algo: AllocatorKind| {
                let id = format!("TABLE4/{ds}/wc/{}/h{h}", algo.name());
                scalability_cell(cells, id, d, algo, h, base, 0x7ab4).memory_bytes as f64 / 1e9
            };
            let tirm = format!("{:.3}", gb(AllocatorKind::Tirm));
            let irie = match irie {
                true => format!("{:.4}", gb(AllocatorKind::GreedyIrie)),
                false => "-".into(),
            };
            t.row(vec![h.to_string(), tirm, irie]);
        }
        println!("\nTable 4 — {ds}: memory usage vs h");
        println!("{}", t.render());
    });
}

// ------------------------------------------------------------- ablation

/// Ablations beyond the paper's figures, on FLIXSTER at κ = 1, λ = 0,
/// single-threaded throughout (`threads` is part of a cell's identity):
///
/// 1. **Selection rule** — Algorithm 3's max-coverage candidate vs the
///    exact max-regret-drop candidate, and the paper's literal hard cover.
/// 2. **Budget boost β** — the §3 Discussion mechanism `B' = (1+β)B`:
///    revenue vs free service.
/// 3. **θ cap sensitivity** — how the per-ad RR-set cap (argued in
///    ARCHITECTURE.md "Synthetic data sets") trades memory for regret.
/// 4. **RRC vs RR + Theorem 5** — mean RRC-set vs RR-set membership,
///    which is why §5.2 rejects the RRC route.
///
/// Parts 1–3 are schema cells in `ablation.json`, diffable with
/// `bench_diff`; part 4 has no allocation and writes `ablation_rrc.json`.
fn ablation() {
    let w = QualityWorkload::new(DatasetKind::Flixster, 0xab1a);
    banner("ablation (FLIXSTER-like)", &w.cfg);
    let mut cells: Vec<BenchCell> = Vec::new();
    let base = tirm_options(true, 0xab1a);
    let threads = 1;
    let labels = |id: String, allocator| CellLabels {
        id,
        dataset: w.dataset.kind.name(),
        prob_model: "topic",
        allocator,
        threads,
        kappa: 1,
        lambda: 0.0,
        seed: base.seed,
    };

    // --- 1. selection rule + 3. θ cap ------------------------------------
    let mut t = Table::new(&[
        "variant",
        "total regret",
        "seeds",
        "RR sets",
        "mem GB",
        "secs",
    ]);
    let variants = [
        ("alg3", "TIRM (Alg. 3 max-coverage)", base),
        (
            "exact-drop",
            "TIRM exact-drop selection",
            TirmOptions {
                exact_drop_selection: true,
                ..base
            },
        ),
        (
            "hard-cover",
            "TIRM hard-cover (paper literal line 12)",
            TirmOptions {
                hard_cover: true,
                ..base
            },
        ),
        (
            "theta-div10",
            "TIRM theta cap /10",
            TirmOptions {
                max_theta_per_ad: Some(100_000),
                ..base
            },
        ),
        (
            "theta-div100",
            "TIRM theta cap /100",
            TirmOptions {
                max_theta_per_ad: Some(10_000),
                ..base
            },
        ),
    ];
    for (slug, name, opts) in variants {
        let problem = w.problem(1, 0.0);
        let t0 = Instant::now();
        let (alloc, stats) = tirm_allocate(&problem, opts);
        let secs = t0.elapsed().as_secs_f64();
        let ev = evaluate(&problem, &alloc, w.cfg.eval_runs, 0xe7a1, threads);
        eprintln!("  {name}: regret {:.1} in {:.1}s", ev.regret.total(), secs);
        t.row(vec![
            name.to_string(),
            fnum(ev.regret.total()),
            alloc.total_seeds().to_string(),
            stats.rr_sets_total().to_string(),
            format!("{:.3}", stats.memory_bytes as f64 / 1e9),
            fnum(secs),
        ]);
        let id = format!("ABLATION/select/{slug}");
        cells.push(cell_from_run(
            labels(id, name),
            &problem,
            &alloc,
            &stats,
            Some(&ev),
            secs,
        ));
    }
    println!("\nAblation 1+3 — selection rule and theta cap (kappa=1, lambda=0)");
    println!("{}", t.render());

    // --- 2. budget boost β -----------------------------------------------
    let mut t = Table::new(&["beta", "revenue", "target", "free service", "undershoot"]);
    for beta in [0.0, 0.1, 0.25, 0.5] {
        let problem = w.problem(1, 0.0).with_beta(beta);
        let t0 = Instant::now();
        let (alloc, stats) = tirm_allocate(&problem, base);
        let secs = t0.elapsed().as_secs_f64();
        let ev = evaluate(&problem, &alloc, w.cfg.eval_runs, 1, threads);
        // Free service = revenue beyond the *original* budgets.
        let original: f64 = w.ads.iter().map(|a| a.budget).sum();
        let revenue = ev.regret.total_revenue();
        eprintln!("  beta={beta}: revenue {revenue:.1} vs base budget {original:.1}");
        t.row(vec![
            format!("{beta}"),
            fnum(revenue),
            fnum(ev.regret.total_budget()),
            fnum((revenue - original).max(0.0)),
            fnum((original - revenue).max(0.0)),
        ]);
        let id = format!("ABLATION/beta/{beta}");
        cells.push(cell_from_run(
            labels(id, "TIRM"),
            &problem,
            &alloc,
            &stats,
            Some(&ev),
            secs,
        ));
    }
    println!("\nAblation 2 — budget boost beta (Section 3 Discussion)");
    println!("{}", t.render());

    write_report("ablation", &BenchReport::new("ablation", &w.cfg, cells));

    // --- 4. RRC vs RR sample economics -----------------------------------
    // Average RRC-set membership shrinks by ~E[δ] vs RR sets, so hitting
    // the same coverage-estimate precision needs ~1/E[δ] more samples —
    // with 1–3% CTPs that is two orders of magnitude (the §5.2 argument).
    let problem = w.problem(1, 0.0);
    let sampler = RrSampler::new(problem.graph, &problem.edge_probs[0]);
    let mut ws = SampleWorkspace::new(problem.graph.num_nodes());
    let mut rng = SmallRng::seed_from_u64(99);
    let samples = 20_000;
    let (mut rr_members, mut rrc_members) = (0usize, 0usize);
    for _ in 0..samples {
        rr_members += sampler.sample(&mut ws, &mut rng).len();
    }
    for _ in 0..samples {
        rrc_members += sampler
            .sample_rrc(problem.ctp.ad(0), &mut ws, &mut rng)
            .len();
    }
    let rr_mean = rr_members as f64 / samples as f64;
    let rrc_mean = rrc_members as f64 / samples as f64;
    let ratio = rr_members as f64 / rrc_members.max(1) as f64;
    println!("\nAblation 4 — RRC vs RR sampling economics ({samples} samples each)");
    println!("  mean RR-set size : {rr_mean:.3}");
    println!("  mean RRC-set size: {rrc_mean:.3}");
    println!("  membership ratio : {ratio:.1}x (≈ 1/E[CTP]; §5.2 predicts ~50x at 1–3% CTPs)");
    write_json(
        "ablation_rrc",
        &serde_json::json!([{
            "experiment": "rrc_vs_rr",
            "rr_mean_size": rr_mean,
            "rrc_mean_size": rrc_mean,
            "ratio": ratio,
        }]),
    );
}
