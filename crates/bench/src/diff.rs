//! The drift gate behind `bench_diff`: exact field equality between two
//! artifacts.
//!
//! Every [`BenchCell`] field except `wall_s` is a pure function of the
//! cell's seed and the report's `tier` / `scale` / `eval_runs`, so two
//! artifacts of the same inputs agree on it to the last bit, on any
//! machine. Cells are joined on their ids and compared with `==`; a moved
//! field, a missing cell and a new cell are each a [`Finding`], and any
//! finding fails the gate. There is no tolerance to tune: a PR that moves
//! a field on purpose commits the regenerated baseline. Wall clock is
//! compared by the repo benchmark (`benchmark/`).

use crate::schema::{BenchCell, BenchReport, CELL_FIELDS};
use tirm_core::report::Table;

/// `(old, new)` as printed when the two values differ. Floats print in
/// shortest round-trip form, so a one-ulp move shows in the digits.
fn moved<T: PartialEq + std::fmt::Display>(old: &T, new: &T) -> Option<(String, String)> {
    (old != new).then(|| (old.to_string(), new.to_string()))
}

/// One difference between two artifacts.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Cell id (the baseline's, for a joined pair).
    pub id: String,
    /// Name of the field that moved, or `(cell)` when the whole cell is
    /// missing from the new artifact or absent from the baseline.
    pub field: &'static str,
    /// Baseline value (`-` for a new cell).
    pub old: String,
    /// New value (`-` for a missing cell).
    pub new: String,
}

/// Compares two cells field by field, as each field is written to the
/// artifact; an empty result means they agree on everything but `wall_s`.
pub fn diff_cell(old: &BenchCell, new: &BenchCell) -> Vec<Finding> {
    let text = |v| serde_json::to_string(&v).expect("value serialization is infallible");
    CELL_FIELDS
        .iter()
        .filter(|f| f.key != "wall_s")
        .filter_map(|f| {
            let (was, now) = ((f.encode)(old), (f.encode)(new));
            (was != now).then(|| Finding {
                id: old.id.clone(),
                field: f.key,
                old: text(was),
                new: text(now),
            })
        })
        .collect()
}

/// The comparison result.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// All findings: baseline cell order, then cells new in `new`.
    pub findings: Vec<Finding>,
    /// Cells present in both artifacts.
    pub cells_joined: usize,
}

impl DiffReport {
    /// Renders the findings as a GitHub-flavoured markdown table plus a
    /// one-line summary (what the CI job prints).
    pub fn markdown(&self) -> String {
        if self.findings.is_empty() {
            return format!("No changes across {} compared cells.\n", self.cells_joined);
        }
        let mut t = Table::new(&["cell", "field", "old", "new"]);
        for f in &self.findings {
            t.row([&f.id, f.field, &f.old, &f.new].map(String::from).to_vec());
        }
        format!(
            "{}\n{} finding(s) over {} compared cells.\n",
            t.render_markdown(),
            self.findings.len(),
            self.cells_joined
        )
    }
}

/// Compares two artifacts: `old` is the committed baseline, `new` the
/// fresh run. Artifacts of different `tier`, `scale` or `eval_runs` are
/// refused with a message naming the mismatch — every field would
/// differ, and none of it would be drift.
pub fn diff_reports(old: &BenchReport, new: &BenchReport) -> Result<DiffReport, String> {
    for (what, differs) in [
        ("tier", moved(&old.tier, &new.tier)),
        ("scale", moved(&old.scale, &new.scale)),
        ("eval_runs", moved(&old.eval_runs, &new.eval_runs)),
    ] {
        if let Some((o, n)) = differs {
            return Err(format!("not comparable: {what} differs ({o} vs {n})"));
        }
    }

    let whole_cell = |id: &str, old: &str, new: &str| Finding {
        id: id.to_string(),
        field: "(cell)",
        old: old.to_string(),
        new: new.to_string(),
    };
    let mut findings = Vec::new();
    let mut cells_joined = 0;
    for oc in &old.cells {
        match new.cell(&oc.id) {
            Some(nc) => {
                cells_joined += 1;
                findings.extend(diff_cell(oc, nc));
            }
            None => findings.push(whole_cell(&oc.id, "present", "-")),
        }
    }
    for nc in new.cells.iter().filter(|nc| old.cell(&nc.id).is_none()) {
        findings.push(whole_cell(&nc.id, "-", "present"));
    }
    Ok(DiffReport {
        findings,
        cells_joined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tests::sample_cell;
    use tirm_workloads::ScaleConfig;

    fn report(cells: Vec<BenchCell>) -> BenchReport {
        BenchReport::new("quick", &ScaleConfig::default(), cells)
    }

    #[test]
    fn identical_reports_pass_and_wall_clock_is_not_compared() {
        let old = report(vec![sample_cell("a"), sample_cell("b")]);
        let mut new = old.clone();
        new.cells[0].wall_s *= 10.0;
        let d = diff_reports(&old, &new).unwrap();
        assert_eq!(d.findings, []);
        assert_eq!(d.cells_joined, 2);
        assert!(d.markdown().contains("No changes across 2"));
    }

    fn ulp(v: &mut f64) {
        *v = f64::from_bits(v.to_bits() + 1);
    }

    #[test]
    fn each_field_moved_by_one_unit_is_a_finding_naming_it() {
        type Nudge = fn(&mut BenchCell);
        let nudges: [(&str, Nudge); 19] = [
            ("id", |c| c.id.push('x')),
            ("dataset", |c| c.dataset.push('x')),
            ("prob_model", |c| c.prob_model.push('x')),
            ("allocator", |c| c.allocator.push('x')),
            ("threads", |c| c.threads += 1),
            ("kappa", |c| c.kappa += 1),
            ("lambda", |c| ulp(&mut c.lambda)),
            ("seed", |c| c.seed += 1),
            ("nodes", |c| c.nodes += 1),
            ("edges", |c| c.edges += 1),
            ("ads", |c| c.ads += 1),
            ("theta", |c| c.theta += 1),
            ("total_seeds", |c| c.total_seeds += 1),
            ("distinct_targeted", |c| c.distinct_targeted += 1),
            ("total_regret", |c| ulp(&mut c.total_regret)),
            ("relative_regret", |c| ulp(&mut c.relative_regret)),
            ("revenue", |c| ulp(&mut c.revenue)),
            ("memory_bytes", |c| c.memory_bytes += 1),
            ("bytes_per_posting", |c| ulp(&mut c.bytes_per_posting)),
        ];
        // Every compared field has a nudge.
        let compared = CELL_FIELDS.iter().map(|f| f.key).filter(|k| *k != "wall_s");
        assert_eq!(
            nudges.map(|(name, _)| name).to_vec(),
            compared.collect::<Vec<_>>()
        );

        let base = sample_cell("a");

        for (name, nudge) in nudges {
            let mut moved = base.clone();
            nudge(&mut moved);
            let found = diff_cell(&base, &moved);
            assert_eq!(found.len(), 1, "{name}: {found:?}");
            assert_eq!((found[0].field, found[0].id.as_str()), (name, "a"));
            assert_ne!(found[0].old, found[0].new, "{name} must print old → new");
        }
    }

    #[test]
    fn missing_and_new_cells_are_findings() {
        let old = report(vec![sample_cell("a"), sample_cell("b")]);
        let new = report(vec![sample_cell("a"), sample_cell("c")]);
        let d = diff_reports(&old, &new).unwrap();
        assert_eq!(d.cells_joined, 1);
        let got = d
            .findings
            .iter()
            .map(|f| (&*f.id, f.field, &*f.old, &*f.new));
        assert_eq!(
            got.collect::<Vec<_>>(),
            [
                ("b", "(cell)", "present", "-"),
                ("c", "(cell)", "-", "present")
            ]
        );
        assert!(d.markdown().contains("2 finding(s) over 1 compared cells"));
    }

    #[test]
    fn artifacts_of_different_inputs_are_refused() {
        let old = report(vec![sample_cell("a")]);
        let (mut tier, mut scale, mut runs) = (old.clone(), old.clone(), old.clone());
        tier.tier = "full".into();
        scale.scale = 0.3;
        runs.eval_runs += 1;
        for (what, new) in [("tier", tier), ("scale", scale), ("eval_runs", runs)] {
            let err = diff_reports(&old, &new).unwrap_err();
            assert!(err.contains(&format!("{what} differs")), "{err}");
        }
    }
}
