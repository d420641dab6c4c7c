//! A `--smoke` run of every workload, through the real binaries: tiny
//! sizes, two rounds, correctness and metric names only.

use std::path::{Path, PathBuf};
use std::process::Command;
use tirm_benchmark::report::{RunRecord, END_TO_END, PER_LAYER};

fn smoke(trace: &str) -> Vec<RunRecord> {
    // `tirm_server` has to sit next to `tirm_benchmark` (`check.sh` and
    // `run.sh` build it there); the run says so when it does not.
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_tirm_benchmark"));
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).unwrap();
    let out = out_dir.join(format!("smoke-{}-{trace}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(&bin)
        .args([
            "run", "--all", "--smoke", "--seed", "5", "--trace", trace, "--out",
        ])
        .arg(&out)
        .output()
        .expect("tirm_benchmark runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "smoke run failed:\n{stderr}");
    // The contract line: exactly four keys, the last line of stdout.
    let stdout = String::from_utf8(run.stdout).unwrap();
    let last = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let records = std::fs::read_to_string(&out)
        .unwrap()
        .lines()
        .map(|l| RunRecord::from_json_line(l).unwrap())
        .collect();
    std::fs::remove_file(&out).unwrap();
    records
}

#[test]
fn untraced_smoke_run_is_correct_and_emits_every_end_to_end_metric() {
    let records = smoke("0");
    assert_eq!(records.len(), 4);
    for r in &records {
        assert!(r.correct, "{}", r.workload);
        assert_eq!(r.failed, 0, "{}", r.workload);
        assert!(r.attempted >= 1);
        let names: Vec<&str> = r.end_to_end.0.keys().map(String::as_str).collect();
        let mut ours: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        ours.sort_unstable();
        assert_eq!(names, ours, "{}", r.workload);
        for m in &END_TO_END {
            assert!(
                r.end_to_end.get(m.name).unwrap() > 0.0,
                "{} {}",
                r.workload,
                m.name
            );
        }
        assert!(r.per_layer.0.is_empty());
    }
}

#[test]
fn traced_smoke_run_emits_every_per_layer_metric_and_a_loadable_trace() {
    let records = smoke("1");
    assert_eq!(records.len(), 4);
    for r in &records {
        assert!(r.correct, "{}", r.workload);
        let names: Vec<&str> = r.per_layer.0.keys().map(String::as_str).collect();
        let mut ours: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        ours.sort_unstable();
        assert_eq!(names, ours, "{}", r.workload);
        assert!(r.per_layer.get("bench.trace_spans").unwrap() > 0.0);
        let trace = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", r.workload));
        let loaded = serde_json::from_str(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let events = loaded
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .unwrap();
        assert_eq!(
            events.len() as f64,
            r.per_layer.get("bench.trace_spans").unwrap()
        );
        assert!(events
            .iter()
            .all(|e| e.get("name").is_some() && e.get("dur").is_some()));
    }
    // The layers a workload leaves idle read zero on it.
    let batch = &records[0];
    for (name, _, _) in PER_LAYER {
        let idle = ["online.", "server.", "wal.", "replica.", "wire.", "obs."];
        if idle.iter().any(|p| name.starts_with(p)) {
            assert_eq!(batch.per_layer.get(name), Some(0.0), "{name}");
        }
    }
}
