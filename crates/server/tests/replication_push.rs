//! What parking a caught-up `replicate_poll` at the leader must not
//! cost: an idle follower still asks once per `poll_interval`, not in a
//! spin, and a promotion that finds the follower's poll parked still
//! takes over within the interval's bound.
//!
//! A file of its own, with one test: the poll count is read off the
//! process-wide registry and the bounds are wall-clock, so nothing else
//! may replicate, or grind, in this process.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use tirm_core::TirmOptions;
use tirm_graph::generators;
use tirm_online::OnlineConfig;
use tirm_server::{serve, Client, FollowConfig, Role, ServerConfig};
use tirm_topics::genprob;

#[test]
fn an_idle_follower_polls_once_per_interval_and_a_parked_poll_does_not_delay_promotion() {
    const POLL_INTERVAL: Duration = Duration::from_millis(100);
    let graph = generators::preferential_attachment(120, 3, 0.3, 5);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 5 ^ 0x77);
    let online = OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed: 7,
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
        ..ServerConfig::new(&leader_dir)
    };
    let polls = &tirm_obs::registry::REPL_POLLS;

    serve(&graph, &probs, leader_cfg, |leader| {
        let follower_cfg = ServerConfig {
            online: online.clone(),
            follow: Some(FollowConfig {
                poll_interval: POLL_INTERVAL,
                ..FollowConfig::new(leader.addr().to_string())
            }),
            ..ServerConfig::new(&follower_dir)
        };
        std::thread::scope(|s| {
            let (addr_tx, addr_rx) = mpsc::channel();
            let (graph, probs) = (&graph, &probs);
            let follower = s.spawn(move || {
                serve(graph, probs, follower_cfg, move |handle| {
                    addr_tx.send(handle.addr()).unwrap();
                    handle.wait_shutdown();
                })
            });
            let follower_addr = addr_rx.recv().unwrap();
            // Streaming has begun once the leader answered a first poll.
            while polls.get() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }

            // Idle and caught up: each poll is held for the interval, so
            // 300 ms see three of them (and not the thousands of a loop
            // that neither sleeps nor is held).
            let before = polls.get();
            std::thread::sleep(3 * POLL_INTERVAL);
            let idle_polls = polls.get() - before;
            assert!(
                (1..=6).contains(&idle_polls),
                "{idle_polls} polls in 3 × poll_interval"
            );

            // The follower's poll is parked at the leader right now. The
            // apply loop looks at the promotion when the hold runs out.
            let mut client = Client::connect(follower_addr).unwrap();
            assert_eq!(client.stats().unwrap().role, Role::Follower);
            client.promote().unwrap();
            let acked = Instant::now();
            while client.stats().unwrap().role != Role::Leader {
                assert!(acked.elapsed() < 100 * POLL_INTERVAL, "never took over");
                std::thread::sleep(Duration::from_millis(1));
            }
            let took_over = acked.elapsed();
            client.shutdown_server().unwrap();
            let ((), report) = follower.join().unwrap().unwrap();
            assert_eq!(report.role, Role::Leader);
            assert_eq!(report.replicated, 0, "nothing was streamed");
            assert!(
                took_over <= 2 * POLL_INTERVAL,
                "promotion took {took_over:?} with poll_interval {POLL_INTERVAL:?}"
            );
        });
    })
    .unwrap();

    for dir in [leader_dir, follower_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
