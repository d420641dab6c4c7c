//! The `tirm_server` bin's argument checks: a run without a state
//! directory, or a flag that only means something to a follower, is
//! refused before any dataset loads. And what a started server says on
//! stderr before it is asked anything.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
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

/// Every run keeps a state dir: without `--state-dir` the bin prints
/// the usage and exits 2 before it generates or loads a dataset.
#[test]
fn a_run_without_a_state_dir_exits_2_before_loading() {
    for args in [&[][..], &["--kappa", "3"][..]] {
        let (code, stderr) = tirm_server(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: --state-dir DIR is required"),
            "{args:?}: {stderr}"
        );
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

/// A started server, killed if the test fails before it stops it.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_cold_follower_reports_its_recovery_before_anything_is_sent() {
    let dir = std::env::temp_dir().join(format!("tirm_cli_cold_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_tirm_server"))
            .args(["--bind", "127.0.0.1:0", "--follow", "127.0.0.1:1"])
            .arg("--state-dir")
            .arg(&dir)
            .env("TIRM_SCALE", "0.02")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tirm_server starts"),
    );
    let (tx, lines) = mpsc::channel();
    let stderr = BufReader::new(server.0.stderr.take().unwrap());
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    // Nothing is sent to the server until its warning is on stderr.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen: Vec<String> = Vec::new();
    while !seen.iter().any(|l| l.starts_with("recovery warning:")) {
        match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => seen.push(line),
            Err(_) => panic!("no recovery warning before anything was sent: {seen:#?}"),
        }
    }
    let banner = seen
        .iter()
        .position(|l| l.contains("serving reads on "))
        .expect("the follower banner comes first");
    let recovery: Vec<&str> = seen[banner + 1..]
        .iter()
        .map(String::as_str)
        .filter(|l| l.starts_with("recovery"))
        .collect();
    assert_eq!(
        recovery,
        [
            "recovery: checkpoint None, 0 replayed (0 re-rejected), resumed at wal_seq 0",
            "recovery warning: no checkpoint and no WAL segments; cold start",
        ],
        "{seen:#?}"
    );

    let addr = seen[banner]
        .split_once("serving reads on ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .unwrap()
        .to_string();
    tirm_server::Client::connect(addr.as_str())
        .and_then(|mut c| c.shutdown_server())
        .unwrap();
    assert!(server.0.wait().unwrap().success());
    let rest: Vec<String> = lines.iter().collect();
    assert!(
        !rest.iter().any(|l| l.starts_with("recovery")),
        "recovery is reported once, at start-up: {rest:#?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_under_another_kappa_stops_the_restart_before_it_listens() {
    let dir = std::env::temp_dir().join(format!("tirm_cli_kappa_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_tirm_server"))
            .args(["--bind", "127.0.0.1:0", "--kappa", "2"])
            .arg("--state-dir")
            .arg(&dir)
            .env("TIRM_SCALE", "0.02")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tirm_server starts"),
    );
    let (tx, lines) = mpsc::channel();
    let stderr = BufReader::new(server.0.stderr.take().unwrap());
    // Drained to the end: a closed pipe would fail the server's later
    // stderr lines.
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    let addr = lines
        .iter()
        .find_map(|l| {
            l.split_once("listening on ")
                .and_then(|(_, rest)| rest.split_whitespace().next().map(str::to_string))
        })
        .expect("the κ = 2 run listens");
    // One logged mutation (rejected: no such ad), so the clean stop
    // writes a checkpoint at κ = 2.
    let mut client = tirm_server::Client::connect(addr.as_str()).unwrap();
    client
        .send_event(&tirm_online::OnlineEvent::AdDeparture { id: 7 })
        .unwrap();
    client.shutdown_server().unwrap();
    assert!(server.0.wait().unwrap().success());

    let (code, stderr) = tirm_server(&["--state-dir", dir.to_str().unwrap(), "--kappa", "5"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("kappa is 2, this process runs 5"),
        "{stderr}"
    );
    assert!(!stderr.contains("listening on"), "served anyway: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `tirm_server` over `dir` with `args`, its stderr lines sent
/// to the returned channel as they come (drained to the end: a closed
/// pipe would fail the server's later lines).
fn spawn_server(dir: &std::path::Path, args: &[&str]) -> (KillOnDrop, mpsc::Receiver<String>) {
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_tirm_server"))
            .args(["--bind", "127.0.0.1:0"])
            .args(args)
            .arg("--state-dir")
            .arg(dir)
            .env("TIRM_SCALE", "0.02")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tirm_server starts"),
    );
    let (tx, lines) = mpsc::channel();
    let stderr = BufReader::new(server.0.stderr.take().unwrap());
    std::thread::spawn(move || {
        for line in stderr.lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    (server, lines)
}

/// A writer that fails ends the run, and nothing asked for that: a
/// follower under κ = 5 whose leader has pruned its log down to a κ = 2
/// checkpoint must bootstrap from it, is refused, and exits 1 with its
/// banner, then the `error:` naming κ — and no "shutdown requested"
/// line. The leader's requested stop still prints that line, before its
/// "drained." summary.
#[test]
fn a_failed_writer_ends_the_run_without_a_shutdown_line() {
    let tag = std::process::id();
    let ldir = std::env::temp_dir().join(format!("tirm_cli_failed_l_{tag}"));
    let fdir = std::env::temp_dir().join(format!("tirm_cli_failed_f_{tag}"));
    for dir in [&ldir, &fdir] {
        std::fs::remove_dir_all(dir).ok();
    }
    let leader_args = [
        "--kappa",
        "2",
        "--checkpoint-interval",
        "1",
        "--segment-events",
        "1",
    ];
    let (mut leader, leader_lines) = spawn_server(&ldir, &leader_args);
    let addr = leader_lines
        .iter()
        .find_map(|l| {
            l.split_once("listening on ")
                .and_then(|(_, rest)| rest.split_whitespace().next().map(str::to_string))
        })
        .expect("the leader listens");
    // Logged mutations (rejected: no such ad), each checkpointed, until
    // the segment holding seq 0 is pruned.
    let mut client = tirm_server::Client::connect(addr.as_str()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    for id in 0.. {
        assert!(Instant::now() < deadline, "the leader never pruned seq 0");
        let first = tirm_server::wal::list_segments(&ldir)
            .unwrap()
            .first()
            .map(|s| s.0);
        if id >= 3 && first != Some(0) {
            break;
        }
        client
            .send_event(&tirm_online::OnlineEvent::AdDeparture { id })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }

    let (mut follower, follower_lines) = spawn_server(&fdir, &["--kappa", "5", "--follow", &addr]);
    let deadline = Instant::now() + Duration::from_secs(60);
    let code = loop {
        if let Some(status) = follower.0.try_wait().unwrap() {
            break status.code();
        }
        assert!(
            Instant::now() < deadline,
            "the refused follower kept serving"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let seen: Vec<String> = follower_lines.iter().collect();
    assert_eq!(code, Some(1), "{seen:#?}");
    let banner = seen
        .iter()
        .position(|l| l.contains("serving reads on "))
        .expect("the follower starts serving");
    let error = seen
        .iter()
        .position(|l| l.starts_with("error:"))
        .expect("the follower says why it stopped");
    assert!(banner < error, "{seen:#?}");
    assert!(
        seen[error].contains("kappa is 2, this process runs 5"),
        "{seen:#?}"
    );
    assert!(
        !seen.iter().any(|l| l.starts_with("shutdown requested")),
        "nothing requested this shutdown: {seen:#?}"
    );

    client.shutdown_server().unwrap();
    assert!(leader.0.wait().unwrap().success());
    let seen: Vec<String> = leader_lines.iter().collect();
    let requested = seen
        .iter()
        .position(|l| l == "shutdown requested — draining the write queue")
        .expect("a requested shutdown says so");
    let drained = seen
        .iter()
        .position(|l| l.starts_with("drained."))
        .expect("the leader drains");
    assert!(requested < drained, "{seen:#?}");
    for dir in [&ldir, &fdir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
