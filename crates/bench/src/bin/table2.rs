//! Table 2: advertiser budget and cost-per-engagement summary (mean, min,
//! max) for the quality data sets, at both paper scale and harness scale.

use tirm_bench::{banner, write_json};
use tirm_core::report::{fnum, Table};
use tirm_workloads::{campaigns, Dataset, DatasetKind, ScaleConfig};

fn summary(values: impl Iterator<Item = f64> + Clone) -> (f64, f64, f64) {
    let n = values.clone().count().max(1) as f64;
    let mean = values.clone().sum::<f64>() / n;
    let min = values.clone().fold(f64::INFINITY, f64::min);
    let max = values.fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}

fn main() {
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
    for kind in [DatasetKind::Flixster, DatasetKind::Epinions] {
        let d = Dataset::generate(kind, &cfg, 0xda7a + kind as u64);
        let spec = campaigns::CampaignSpec::quality(kind);
        let ads = campaigns::campaign(&spec, d.size_ratio, (kind as u64) ^ 0xada);
        let (bm, blo, bhi) = summary(ads.iter().map(|a| a.budget));
        let (cm, clo, chi) = summary(ads.iter().map(|a| a.cpe));
        let paper = match kind {
            DatasetKind::Flixster => ("375 / 200 / 600", "5.5 / 5 / 6"),
            DatasetKind::Epinions => ("215 / 100 / 350", "4.35 / 2.5 / 6"),
            _ => unreachable!(),
        };
        t.row(vec![
            kind.name().to_string(),
            fnum(bm),
            fnum(blo),
            fnum(bhi),
            fnum(cm),
            fnum(clo),
            fnum(chi),
            paper.0.to_string(),
            paper.1.to_string(),
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
