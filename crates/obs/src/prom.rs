//! Prometheus text exposition (format 0.0.4), hand-rolled over the
//! registry snapshot, plus a small parser used by tests and CI gates to
//! prove the output is machine-readable.

use crate::metric::{bucket_bound, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::registry::RegistrySnapshot;

/// Escapes a HELP string: backslash and newline, per the exposition
/// format.
fn escape_help(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes a label value: backslash, double-quote, newline.
fn escape_label(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn push_header(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    escape_help(help, out);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// The `{key="value"}` selector of a labelled series; nothing when
/// unlabelled.
fn push_label(out: &mut String, label: Option<(&str, &str)>) {
    if let Some((k, v)) = label {
        out.push('{');
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, out);
        out.push_str("\"}");
    }
}

fn push_hist(out: &mut String, family: &str, label: Option<(&str, &str)>, s: &HistogramSnapshot) {
    let prefix = |out: &mut String, suffix: &str| {
        out.push_str(family);
        out.push_str(suffix);
    };
    // Emit bounded buckets up to the highest non-empty one (so the tail
    // of empty power-of-two buckets doesn't bloat every scrape), then
    // always the +Inf bucket. Bucket counts are cumulative per the
    // format.
    let max_b = s.max_bucket().map(|i| i.min(HISTOGRAM_BUCKETS - 2));
    let mut cumulative = 0u64;
    if let Some(max_b) = max_b {
        for i in 0..=max_b {
            cumulative += s.counts[i];
            prefix(out, "_bucket{");
            if let Some((k, v)) = label {
                out.push_str(k);
                out.push_str("=\"");
                escape_label(v, out);
                out.push_str("\",");
            }
            out.push_str(&format!("le=\"{}\"}} {cumulative}\n", bucket_bound(i)));
        }
    }
    prefix(out, "_bucket{");
    if let Some((k, v)) = label {
        out.push_str(k);
        out.push_str("=\"");
        escape_label(v, out);
        out.push_str("\",");
    }
    out.push_str(&format!("le=\"+Inf\"}} {}\n", s.count));
    prefix(out, "_sum");
    push_label(out, label);
    out.push_str(&format!(" {}\n", s.sum));
    prefix(out, "_count");
    push_label(out, label);
    out.push_str(&format!(" {}\n", s.count));
}

/// Renders a registry snapshot as Prometheus text exposition.
pub fn render(snap: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(8192);
    let mut last_family: Option<&str> = None;
    for (family, label, help, v) in &snap.counters {
        if last_family != Some(*family) {
            push_header(&mut out, family, help, "counter");
            last_family = Some(*family);
        }
        out.push_str(family);
        push_label(&mut out, *label);
        out.push_str(&format!(" {v}\n"));
    }
    for (name, help, v) in &snap.gauges {
        push_header(&mut out, name, help, "gauge");
        out.push_str(&format!("{name} {v}\n"));
    }
    let mut last_family: Option<&str> = None;
    for (family, label, help, s) in &snap.histograms {
        if last_family != Some(*family) {
            push_header(&mut out, family, help, "histogram");
            last_family = Some(*family);
        }
        push_hist(&mut out, family, *label, s);
    }
    // Build identity as the standard *_info idiom: constant value 1,
    // the identity entirely in the labels.
    push_header(
        &mut out,
        "tirm_build_info",
        "Build identity: git sha, wire protocol version, durable schema version",
        "gauge",
    );
    out.push_str("tirm_build_info{git_sha=\"");
    escape_label(snap.build.git_sha, &mut out);
    out.push_str(&format!(
        "\",protocol_version=\"{}\",schema_version=\"{}\"}} 1\n",
        snap.build.protocol_version, snap.build.schema_version
    ));
    out
}

/// One parsed exposition sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs, in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label value not quoted after {key:?}"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for {key:?}"))?;
        labels.push((key, value));
        rest = rest[end + 1..].trim_start_matches(',').trim_start();
    }
    Ok(labels)
}

/// Parses Prometheus text exposition into samples. Comment lines must be
/// well-formed `# HELP` / `# TYPE` lines; anything else fails, which is
/// what makes this useful as a CI gate over the rendered output.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if !(comment.starts_with("HELP ") || comment.starts_with("TYPE ")) {
                return Err(format!("line {}: bad comment {line:?}", lineno + 1));
            }
            continue;
        }
        let (series, value_str) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", lineno + 1))?;
        let value: f64 = value_str
            .parse()
            .map_err(|e| format!("line {}: bad value {value_str:?}: {e}", lineno + 1))?;
        let (name, labels) = match series.find('{') {
            Some(open) => {
                let body = series[open + 1..]
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unclosed labels", lineno + 1))?;
                (
                    series[..open].to_string(),
                    parse_labels(body).map_err(|e| format!("line {}: {e}", lineno + 1))?,
                )
            }
            None => (series.to_string(), Vec::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// The value of the first sample matching `name` (any labels), if
/// present. Convenience for gates.
pub fn sample_value(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Histogram;
    use crate::registry::RegistrySnapshot;

    fn tiny_snapshot() -> RegistrySnapshot {
        let h = Histogram::new();
        h.record(0);
        h.record(3);
        h.record(3);
        h.record(900);
        let labeled = Histogram::new();
        labeled.record(5);
        RegistrySnapshot {
            counters: vec![
                (
                    "tirm_test_events_total",
                    None,
                    "Events with a \\ in help",
                    42,
                ),
                (
                    "tirm_test_asks_total",
                    Some(("result", "hit")),
                    "Asks by result",
                    5,
                ),
                (
                    "tirm_test_asks_total",
                    Some(("result", "miss")),
                    "Asks by result",
                    2,
                ),
            ],
            gauges: vec![("tirm_test_depth", "Current depth", 7)],
            histograms: vec![
                ("tirm_test_latency_ns", None, "Latency (ns)", h.snapshot()),
                (
                    "tirm_test_kinded_ns",
                    Some(("kind", "a\"b")),
                    "Labeled latency",
                    labeled.snapshot(),
                ),
            ],
            build: crate::registry::BuildInfo {
                git_sha: "abc123def456",
                protocol_version: 4,
                schema_version: 1,
            },
        }
    }

    /// Golden-format pin: HELP/TYPE lines (one per family), help
    /// escaping, label-value escaping, and cumulative histogram buckets,
    /// byte for byte.
    #[test]
    fn golden_format() {
        let text = render(&tiny_snapshot());
        let expected = "\
# HELP tirm_test_events_total Events with a \\\\ in help
# TYPE tirm_test_events_total counter
tirm_test_events_total 42
# HELP tirm_test_asks_total Asks by result
# TYPE tirm_test_asks_total counter
tirm_test_asks_total{result=\"hit\"} 5
tirm_test_asks_total{result=\"miss\"} 2
# HELP tirm_test_depth Current depth
# TYPE tirm_test_depth gauge
tirm_test_depth 7
# HELP tirm_test_latency_ns Latency (ns)
# TYPE tirm_test_latency_ns histogram
tirm_test_latency_ns_bucket{le=\"0\"} 1
tirm_test_latency_ns_bucket{le=\"1\"} 1
tirm_test_latency_ns_bucket{le=\"3\"} 3
tirm_test_latency_ns_bucket{le=\"7\"} 3
tirm_test_latency_ns_bucket{le=\"15\"} 3
tirm_test_latency_ns_bucket{le=\"31\"} 3
tirm_test_latency_ns_bucket{le=\"63\"} 3
tirm_test_latency_ns_bucket{le=\"127\"} 3
tirm_test_latency_ns_bucket{le=\"255\"} 3
tirm_test_latency_ns_bucket{le=\"511\"} 3
tirm_test_latency_ns_bucket{le=\"1023\"} 4
tirm_test_latency_ns_bucket{le=\"+Inf\"} 4
tirm_test_latency_ns_sum 906
tirm_test_latency_ns_count 4
# HELP tirm_test_kinded_ns Labeled latency
# TYPE tirm_test_kinded_ns histogram
tirm_test_kinded_ns_bucket{kind=\"a\\\"b\",le=\"0\"} 0
tirm_test_kinded_ns_bucket{kind=\"a\\\"b\",le=\"1\"} 0
tirm_test_kinded_ns_bucket{kind=\"a\\\"b\",le=\"3\"} 0
tirm_test_kinded_ns_bucket{kind=\"a\\\"b\",le=\"7\"} 1
tirm_test_kinded_ns_bucket{kind=\"a\\\"b\",le=\"+Inf\"} 1
tirm_test_kinded_ns_sum{kind=\"a\\\"b\"} 5
tirm_test_kinded_ns_count{kind=\"a\\\"b\"} 1
# HELP tirm_build_info Build identity: git sha, wire protocol version, durable schema version
# TYPE tirm_build_info gauge
tirm_build_info{git_sha=\"abc123def456\",protocol_version=\"4\",schema_version=\"1\"} 1
";
        assert_eq!(text, expected);
    }

    #[test]
    fn buckets_are_cumulative_and_parse_back() {
        let text = render(&tiny_snapshot());
        let samples = parse(&text).expect("rendered text parses");
        // Cumulativity: bucket values never decrease as le rises, and the
        // +Inf bucket equals _count.
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "tirm_test_latency_ns_bucket")
            .map(|s| s.value)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 4.0);
        assert_eq!(
            sample_value(&samples, "tirm_test_latency_ns_count"),
            Some(4.0)
        );
        assert_eq!(sample_value(&samples, "tirm_test_events_total"), Some(42.0));
        // The escaped label value round-trips.
        let labeled = samples
            .iter()
            .find(|s| s.name == "tirm_test_kinded_ns_sum")
            .unwrap();
        assert_eq!(
            labeled.labels,
            vec![("kind".to_string(), "a\"b".to_string())]
        );
        // Build identity parses back with its three labels intact.
        let build = samples
            .iter()
            .find(|s| s.name == "tirm_build_info")
            .unwrap();
        assert_eq!(build.value, 1.0);
        assert_eq!(
            build.labels,
            vec![
                ("git_sha".to_string(), "abc123def456".to_string()),
                ("protocol_version".to_string(), "4".to_string()),
                ("schema_version".to_string(), "1".to_string()),
            ]
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("not a metric line").is_err());
        assert!(parse("name{unclosed 1").is_err());
        assert!(parse("# FOO bar\n").is_err());
        assert!(parse("bad name 1\n").is_err());
        assert!(parse("ok_name 1\nok_name{a=\"b\"} 2\n").is_ok());
    }
}
