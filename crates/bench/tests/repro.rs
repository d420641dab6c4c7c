//! The `repro` bin end to end: its cheap artifacts are deterministic, and
//! a missing or unknown artifact name is a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const ARTIFACTS: [&str; 10] = [
    "example1", "table1", "table2", "fig3", "fig4", "fig5", "table3", "fig6", "table4", "ablation",
];

fn repro(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("TIRM_SCALE", "0.02")
        .env("TIRM_EXPERIMENTS_DIR", dir)
        .output()
        .expect("repro runs")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tirm_repro_{}_{tag}", std::process::id()))
}

#[test]
fn two_runs_write_identical_json_and_stdout() {
    let names = ["table1", "table2", "example1"];
    let dirs = [scratch("a"), scratch("b")];
    let runs = dirs.each_ref().map(|dir| repro(&names, dir));
    for run in &runs {
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    assert_eq!(runs[0].stdout, runs[1].stdout);
    assert!(String::from_utf8_lossy(&runs[0].stdout).contains("Allocation B"));
    for name in ["table1", "table2"] {
        let [a, b] = dirs
            .each_ref()
            .map(|dir| std::fs::read(dir.join(format!("{name}.json"))).expect(name));
        assert!(!a.is_empty());
        assert_eq!(a, b, "{name}.json differs between two runs");
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn no_name_or_an_unknown_one_prints_the_usage_and_exits_2() {
    let dir = scratch("usage");
    for args in [&[][..], &["fig7"][..], &["table1", "fig7"][..]] {
        let run = repro(args, &dir);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} ran an artifact");
        let usage = String::from_utf8_lossy(&run.stderr);
        for name in ARTIFACTS {
            assert!(usage.contains(name), "usage misses {name}: {usage}");
        }
    }
    assert!(!dir.exists(), "a usage error wrote an artifact");
}
