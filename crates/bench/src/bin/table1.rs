//! Table 1: statistics of the (generated) network data sets, printed next
//! to the paper's real-data numbers for comparison.

use tirm_bench::{banner, write_json};
use tirm_core::report::Table;
use tirm_workloads::{Dataset, DatasetKind, ScaleConfig};

fn main() {
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
    for kind in [
        DatasetKind::Flixster,
        DatasetKind::Epinions,
        DatasetKind::Dblp,
        DatasetKind::LiveJournal,
    ] {
        let d = Dataset::generate(kind, &cfg, 0xda7a + kind as u64);
        let st = d.stats();
        let (paper_n, paper_m) = match kind {
            DatasetKind::Flixster => ("30K", "425K"),
            DatasetKind::Epinions => ("76K", "509K"),
            DatasetKind::Dblp => ("317K", "1.05M (undirected)"),
            DatasetKind::LiveJournal => ("4.8M", "69M"),
        };
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
