//! The `tirm_server` bin's argument checks: a flag that only means
//! something with a state directory, or only to a follower, is refused
//! before any dataset loads.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `tirm_server` with `args` and returns its exit code and stderr.
/// A server that got past its argument checks would serve until told to
/// stop, so it is killed after a deadline and the test fails.
fn tirm_server(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tirm_server"))
        .args(["--bind", "127.0.0.1:0"])
        .args(args)
        .env("TIRM_SCALE", "0.02")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tirm_server starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            let out = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            panic!("{args:?}: still running at the deadline: {stderr}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn durability_flags_without_a_state_dir_exit_2_before_loading() {
    for args in [
        ["--checkpoint-interval", "8"],
        ["--segment-events", "8"],
        ["--follow", "127.0.0.1:1"],
    ] {
        let (code, stderr) = tirm_server(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
        assert!(stderr.contains("--state-dir"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tirm_server"), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("== tirm_server"),
            "{args:?} started: {stderr}"
        );
        assert!(
            !stderr.contains("dataset generated"),
            "{args:?} loaded: {stderr}"
        );
    }
}

#[test]
fn a_peer_without_follow_exits_2_before_loading() {
    let dir = std::env::temp_dir().join(format!("tirm_cli_peer_{}", std::process::id()));
    let args = [
        "--state-dir",
        dir.to_str().unwrap(),
        "--peer",
        "127.0.0.1:1",
    ];
    let (code, stderr) = tirm_server(&args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--peer needs --follow"), "{stderr}");
    assert!(stderr.contains("usage: tirm_server"), "{stderr}");
    assert!(!stderr.contains("== tirm_server"), "started: {stderr}");
    assert!(!stderr.contains("dataset generated"), "loaded: {stderr}");
    assert!(!dir.exists(), "a refused run touched its state dir");
}
