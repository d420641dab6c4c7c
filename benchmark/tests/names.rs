//! `BENCHMARK.json` against the metric tables the runner emits from.

use serde_json::Value;
use tirm_benchmark::inputs::Workload;
use tirm_benchmark::report::{END_TO_END, PER_LAYER};
use tirm_benchmark::run::NOMINAL_SECONDS;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON")
}

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

#[test]
fn workloads_match() {
    let m = manifest();
    let listed: Vec<&str> = m
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
    for w in m.get("workloads").and_then(Value::as_array).unwrap() {
        let why = field(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(well_formed(field(w, "name")));
    }
}

#[test]
fn end_to_end_metrics_match() {
    let m = manifest();
    let listed = m.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, ours) in listed.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), ours.name);
        assert_eq!(field(entry, "unit"), ours.unit);
        assert_eq!(field(entry, "better"), ours.better.name());
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(ours.bound));
        assert!(ours.bound > 0.0 && ours.bound <= 0.25);
        assert!(well_formed(ours.name));
    }
    // Set-up time carries the largest bound.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match() {
    let m = manifest();
    let listed = m.get("per_layer").and_then(Value::as_array).unwrap();
    assert!(listed.len() <= 128);
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), *name);
        assert_eq!(field(entry, "unit"), *unit);
        assert_eq!(field(entry, "better"), better.name());
        assert!(well_formed(name), "{name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    let mut names: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        PER_LAYER.len() + END_TO_END.len(),
        "a name is used twice"
    );
}

#[test]
fn command_and_paths() {
    let m = manifest();
    assert_eq!(
        m.get("run_seconds").and_then(Value::as_u64),
        Some(NOMINAL_SECONDS as u64)
    );
    let paths: Vec<&str> = m
        .get("paths")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = m
        .get("command")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
}
