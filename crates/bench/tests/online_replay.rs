//! The `online_replay` bin end to end: a replay of the committed log is
//! deterministic down to the dumped snapshot bytes, and flags that would
//! be ignored are usage errors that write nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const LOG: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/event_logs/quick.jsonl"
);

fn online_replay(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_online_replay"))
        .arg("--log")
        .arg(LOG)
        .args(args)
        .env("TIRM_SCALE", "0.02")
        .env("TIRM_EXPERIMENTS_DIR", dir)
        .env_remove("TIRM_SNAPSHOT_DIR")
        .output()
        .expect("online_replay runs")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tirm_online_replay_{}_{tag}", std::process::id()))
}

#[test]
fn two_replays_dump_identical_final_snapshots() {
    let dirs = [scratch("a"), scratch("b")];
    let dumps = dirs.each_ref().map(|dir| {
        std::fs::create_dir_all(dir).unwrap();
        let dump = dir.join("final.json");
        let run = online_replay(&["--dump-final", dump.to_str().unwrap()], dir);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read(&dump).expect("the final snapshot is dumped")
    });
    assert_eq!(dumps[0], dumps[1], "two replays dumped different snapshots");
    let snap = serde_json::from_str(std::str::from_utf8(&dumps[0]).unwrap()).unwrap();
    let seeds = snap.get("total_seeds").and_then(|s| s.as_u64());
    let seeds = seeds.expect("the dump carries total_seeds");
    assert!(seeds > 0, "the replay published an empty allocation");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn ignored_or_removed_flags_print_the_usage_and_exit_2() {
    let dir = scratch("usage");
    let (out, dump) = (dir.join("gen.jsonl"), dir.join("final.json"));
    let (out, dump) = (out.to_str().unwrap(), dump.to_str().unwrap());
    for args in [
        &["--deferred"][..],
        &["--out", out][..],
        &["--gen", "5", "--out", out, "--dump-final", dump][..],
    ] {
        let run = online_replay(args, &dir);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} replayed");
        let usage = String::from_utf8_lossy(&run.stderr);
        assert!(usage.contains("usage: online_replay"), "{args:?}: {usage}");
    }
    assert!(!dir.exists(), "a usage error wrote a file");
}
