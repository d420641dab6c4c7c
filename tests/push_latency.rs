//! Replication is pushed, not timed, in the root gate: a mutation is
//! visible at a follower when the follower has logged and applied it,
//! not a `poll_interval` later. The follower here polls every 500 ms
//! and each mutation has 100 ms to show up in its `stats.epoch`: a
//! follower that sleeps between polls needs five times that.
//!
//! Alone in its file so that nothing else in the process competes with
//! the wall-clock bound (the exhaustive replication anchors live in
//! `crates/server/tests/`).

use std::time::{Duration, Instant};
use tirm_core::TirmOptions;
use tirm_graph::generators;
use tirm_online::{OnlineConfig, OnlineEvent};
use tirm_server::{serve, Client, DurabilityConfig, FollowConfig, Response, ServerConfig};
use tirm_topics::{genprob, TopicDist};

#[test]
fn a_mutation_reaches_an_idle_follower_without_waiting_for_its_poll_interval() {
    const POLL_INTERVAL: Duration = Duration::from_millis(500);
    const VISIBLE_WITHIN: Duration = Duration::from_millis(100);
    let graph = generators::preferential_attachment(300, 3, 0.3, 11);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 11 ^ 0x77);
    let online = OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed: 3,
            threads: 1,
            max_theta_per_ad: Some(500),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    };
    let dir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("tirm_push_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let (leader_dir, follower_dir) = (dir("leader"), dir("follower"));
    let leader_cfg = ServerConfig {
        online: online.clone(),
        durability: Some(DurabilityConfig::new(&leader_dir)),
        ..ServerConfig::default()
    };
    let arrival = OnlineEvent::AdArrival {
        id: 1,
        budget: 5.0,
        cpe: 1.0,
        topics: TopicDist::single(2, 0),
        ctp: 0.5,
    };
    let top_ups = (0..5).map(|_| OnlineEvent::BudgetTopUp { id: 1, amount: 0.5 });

    let (slowest, _) = serve(&graph, &probs, leader_cfg, |leader| {
        let follower_cfg = ServerConfig {
            online: online.clone(),
            durability: Some(DurabilityConfig::new(&follower_dir)),
            follow: Some(FollowConfig {
                poll_interval: POLL_INTERVAL,
                ..FollowConfig::new(leader.addr().to_string())
            }),
            ..ServerConfig::default()
        };
        let (slowest, _) = serve(&graph, &probs, follower_cfg, |follower| {
            let mut to_leader = Client::connect(leader.addr()).unwrap();
            let mut to_follower = Client::connect(follower.addr()).unwrap();
            let mut slowest = Duration::ZERO;
            // One at a time, so every mutation finds the follower idle,
            // its poll held at the leader.
            for (epoch, ev) in (1..).zip(std::iter::once(arrival).chain(top_ups)) {
                let answer = to_leader.send_event(&ev).unwrap();
                assert!(matches!(answer, Response::Accepted { .. }), "{answer:?}");
                let accepted = Instant::now();
                while to_follower.stats().unwrap().epoch < epoch {
                    assert!(
                        accepted.elapsed() < VISIBLE_WITHIN,
                        "mutation {epoch} not visible at the follower after {VISIBLE_WITHIN:?} \
                         (poll_interval {POLL_INTERVAL:?})"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                slowest = slowest.max(accepted.elapsed());
            }
            slowest
        })
        .unwrap();
        slowest
    })
    .unwrap();
    eprintln!("push_latency: slowest of 6 mutations follower-visible after {slowest:?}");

    for dir in [leader_dir, follower_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
