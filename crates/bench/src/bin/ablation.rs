//! Ablation studies beyond the paper's figures, probing choices the paper
//! leaves open or this reproduction makes (the θ cap is argued in
//! ARCHITECTURE.md "Synthetic data sets"):
//!
//! 1. **Selection rule** — Algorithm 3's max-coverage candidate vs the
//!    exact max-regret-drop candidate (TIRM option `exact_drop_selection`).
//! 2. **Budget boost β** — the §3 Discussion mechanism `B' = (1+β)B`:
//!    sweeps β and reports revenue vs free service.
//! 3. **θ cap sensitivity** — how the per-ad RR-set cap trades memory for
//!    regret.
//! 4. **RRC vs RR+Theorem-5** — sample-count ratio of CTP-aware RRC
//!    sampling against plain RR sampling with CTP-scaled marginals,
//!    demonstrating why §5.2 rejects the RRC route.
//!
//! Parts 1–3 report through `tirm_bench::suite::cell_from_run` into a
//! schema [`BenchReport`] (`ablation.json`), so ablation variants are
//! diffable against baselines with `bench_diff`; part 4 has no allocation
//! and keeps its own row format (`ablation_rrc.json`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tirm_bench::schema::{BenchCell, BenchReport};
use tirm_bench::suite::{cell_from_run, CellLabels};
use tirm_bench::{banner, write_json, write_report, QualityWorkload};
use tirm_core::report::{fnum, Table};
use tirm_core::{evaluate, tirm_allocate, TirmOptions};
use tirm_rrset::{RrSampler, SampleWorkspace};
use tirm_workloads::DatasetKind;

fn main() {
    let w = QualityWorkload::new(DatasetKind::Flixster, 0xab1a);
    banner("ablation (FLIXSTER-like)", &w.cfg);
    let mut cells: Vec<BenchCell> = Vec::new();

    // --- 1. selection rule + 3. θ cap ------------------------------------
    let mut t = Table::new(&[
        "variant",
        "total regret",
        "seeds",
        "RR sets",
        "mem GB",
        "secs",
    ]);
    let base = TirmOptions {
        eps: 0.1,
        seed: 0xab1a,
        max_theta_per_ad: Some(1_000_000),
        ..TirmOptions::default()
    };
    let variants: Vec<(&str, &str, TirmOptions)> = vec![
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
    // The ablation runs single-threaded throughout (TirmOptions::default
    // has threads = 1; evaluation below matches), and the cell labels say
    // so — `threads` is part of cell identity and steers RNG partitioning.
    let threads = 1;
    for (slug, name, opts) in variants {
        let problem = w.problem(1, 0.0);
        let t0 = std::time::Instant::now();
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
        cells.push(cell_from_run(
            CellLabels {
                id: format!("ABLATION/select/{slug}"),
                dataset: w.dataset.kind.name(),
                prob_model: "topic",
                allocator: name,
                threads,
                kappa: 1,
                lambda: 0.0,
                seed: opts.seed,
            },
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
        let t0 = std::time::Instant::now();
        let (alloc, stats) = tirm_allocate(&problem, base);
        let secs = t0.elapsed().as_secs_f64();
        let ev = evaluate(&problem, &alloc, w.cfg.eval_runs, 1, threads);
        // Free service = revenue beyond the *original* budgets.
        let original: f64 = w.ads.iter().map(|a| a.budget).sum();
        let revenue = ev.regret.total_revenue();
        let free = (revenue - original).max(0.0);
        let under = (original - revenue).max(0.0);
        eprintln!("  beta={beta}: revenue {revenue:.1} vs base budget {original:.1}");
        t.row(vec![
            format!("{beta}"),
            fnum(revenue),
            fnum(ev.regret.total_budget()),
            fnum(free),
            fnum(under),
        ]);
        cells.push(cell_from_run(
            CellLabels {
                id: format!("ABLATION/beta/{beta}"),
                dataset: w.dataset.kind.name(),
                prob_model: "topic",
                allocator: "TIRM",
                threads,
                kappa: 1,
                lambda: 0.0,
                seed: base.seed,
            },
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
    let probs = &problem.edge_probs[0];
    let sampler = RrSampler::new(problem.graph, probs);
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
    let ratio = rr_members as f64 / rrc_members.max(1) as f64;
    println!("\nAblation 4 — RRC vs RR sampling economics ({samples} samples each)");
    println!(
        "  mean RR-set size : {:.3}",
        rr_members as f64 / samples as f64
    );
    println!(
        "  mean RRC-set size: {:.3}",
        rrc_members as f64 / samples as f64
    );
    println!("  membership ratio : {ratio:.1}x (≈ 1/E[CTP]; §5.2 predicts ~50x at 1–3% CTPs)");
    write_json(
        "ablation_rrc",
        &serde_json::json!([{
            "experiment": "rrc_vs_rr",
            "rr_mean_size": rr_members as f64 / samples as f64,
            "rrc_mean_size": rrc_members as f64 / samples as f64,
            "ratio": ratio,
        }]),
    );
}
