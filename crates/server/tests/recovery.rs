//! Crash-recovery end to end: a real durable server is stopped and a
//! second one over the same state dir restores from checkpoint + WAL
//! tail and finishes the log — the final allocation (assignments *and*
//! revenue-estimate bits) is identical to an uninterrupted run.
//!
//! The kill-at-every-index sweep over the same log lives in the root
//! `tests/durable_path.rs`, so the tier-1 `cargo test -q` runs it.

use std::path::PathBuf;
use std::time::Duration;
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::wal::RecoveryWarning;
use tirm_server::{serve, Client, ServerConfig};
use tirm_topics::{genprob, TopicDist, TopicEdgeProbs};

fn setup(nodes: usize, seed: u64) -> (DiGraph, TopicEdgeProbs) {
    let graph = generators::preferential_attachment(nodes, 3, 0.3, seed);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
    (graph, probs)
}

fn config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed,
            max_theta_per_ad: Some(500),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    }
}

fn arrival(id: u64, budget: f64, topic: usize) -> OnlineEvent {
    OnlineEvent::AdArrival {
        id,
        budget,
        cpe: 1.0,
        topics: TopicDist::single(2, topic),
        ctp: 0.5,
    }
}

/// A mutation stream exercising every event kind, including a
/// deterministic rejection (duplicate arrival) that must be logged and
/// re-rejected on replay.
fn mutations() -> Vec<OnlineEvent> {
    vec![
        arrival(1, 5.0, 0),
        arrival(2, 4.0, 1),
        OnlineEvent::BudgetTopUp { id: 1, amount: 2.0 },
        arrival(3, 6.0, 0),
        arrival(3, 9.0, 1), // duplicate ⇒ rejected, still WAL-logged
        OnlineEvent::AdDeparture { id: 2 },
        arrival(4, 3.5, 1),
        OnlineEvent::BudgetTopUp { id: 4, amount: 1.5 },
        arrival(5, 2.5, 0),
        OnlineEvent::AdDeparture { id: 3 },
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tirm_recovery_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// End-to-end: a durable server is stopped and a second server over the
/// same state dir picks up exactly where it left off — epoch and
/// allocation preserved across the restart, the remaining events land
/// on the uninterrupted oracle, and the `hello` anchor reflects the
/// recovered frontier.
#[test]
fn server_restart_resumes_from_checkpoint_and_wal_tail() {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();
    let split = 6;
    let dir = fresh_dir("server_restart");

    let server_cfg = ServerConfig {
        online: config(7),
        queue_depth: 16,
        checkpoint_interval: 3,
        segment_events: 4,
        ..ServerConfig::new(&dir)
    };

    // First life: the log's head.
    let ((), report1) = serve(&graph, &probs, server_cfg.clone(), |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        for ev in &events[..split] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
    })
    .unwrap();
    let first_epoch = report1.final_snapshot.epoch;
    assert_eq!(report1.wal_seq, split as u64);
    assert_eq!(report1.recovery.wal_seq, 0, "the first life starts empty");

    // Second life: recovery + the log's tail.
    let ((), report2) = serve(&graph, &probs, server_cfg, |handle| {
        let mut client =
            Client::connect_with(handle.addr(), &tirm_server::ClientOptions::default()).unwrap();
        let hello = *client.hello().unwrap();
        assert_eq!(hello.wal_seq, split as u64, "hello carries the frontier");
        assert_eq!(hello.epoch, first_epoch, "epoch survives the restart");
        for ev in &events[split..] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        // `Accepted` is admission, not durability: the frontier
        // advances when the writer logs + fsyncs the batch. Poll it.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.stats().unwrap();
            if stats.wal_seq == events.len() as u64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "wal_seq stuck at {} of {}",
                stats.wal_seq,
                events.len()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    })
    .unwrap();

    let recovery = report2.recovery;
    assert_eq!(recovery.wal_seq, split as u64);
    assert!(
        recovery
            .warnings
            .iter()
            .all(|w| matches!(w, RecoveryWarning::TornFrame { .. })),
        "clean shutdown leaves at most torn-tail noise: {:?}",
        recovery.warnings
    );
    assert_eq!(report2.wal_seq, events.len() as u64);

    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    assert!(
        report2.final_snapshot.same_allocation(&oracle.snapshot()),
        "restarted server must land on the uninterrupted replay"
    );
    std::fs::remove_dir_all(&dir).ok();
}
