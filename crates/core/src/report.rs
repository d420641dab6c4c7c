//! Minimal aligned-column text tables for the experiment harness output,
//! renderable as plain text (stdout) or GitHub-flavoured markdown (the
//! `bench_diff` drift gate posts the latter into CI logs/PRs).

/// A simple text table with left-aligned first column and right-aligned
/// numeric columns, rendered with aligned widths.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with a separator line under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table: first column
    /// left-aligned, the rest right-aligned, `|` in cells escaped.
    pub fn render_markdown(&self) -> String {
        let esc = |s: &str| s.replace('|', "\\|");
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(" | "),
        );
        out.push_str(" |\n|");
        for (i, _) in self.headers.iter().enumerate() {
            out.push_str(if i == 0 { ":---|" } else { "---:|" });
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

/// Formats a float compactly: integers without decimals, else 2–3
/// significant decimals.
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    if x == x.trunc() && x.abs() < 1e12 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["algo", "regret"]);
        t.row(vec!["TIRM".into(), fnum(12.5)]);
        t.row(vec!["Myopic".into(), fnum(10000.0)]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("algo"));
        assert!(lines[2].starts_with("TIRM"));
        assert!(lines[3].contains("10000"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new(&["cell", "old", "new"]);
        t.row(vec!["a|b".into(), "1".into(), "2".into()]);
        let md = t.render_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| cell | old | new |");
        assert_eq!(lines[1], "|:---|---:|---:|");
        assert_eq!(lines[2], "| a\\|b | 1 | 2 |");
    }

    #[test]
    fn fnum_shapes() {
        assert_eq!(fnum(3.0), "3");
        assert_eq!(fnum(3.25), "3.250");
        assert_eq!(fnum(12345.678), "12345.7");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
