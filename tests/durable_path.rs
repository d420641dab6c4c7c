//! The durable-apply path in the root gate: one event log driven
//! through a leader, a follower tailing it over TCP, and a recovery of
//! the leader's state dir as a kill would have left it — all three
//! bit-identical to an in-process replay of the same log — and the
//! same log killed at every index, recovered and finished.
//!
//! The other anchors (server restart, hand-off, fencing) live in
//! `crates/server/tests/`; this is the slice of them that
//! `cargo test -q` at the root runs.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tirm_core::TirmOptions;
use tirm_graph::generators;
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::{serve, wal, Client, FollowConfig, Response, Role, ServerConfig};
use tirm_topics::{genprob, TopicDist};

fn arrival(id: u64, budget: f64, topic: usize) -> OnlineEvent {
    OnlineEvent::AdArrival {
        id,
        budget,
        cpe: 1.0,
        topics: TopicDist::single(2, topic),
        ctp: 0.5,
    }
}

/// Every event kind, including a deterministic rejection (duplicate
/// arrival) that is logged, shipped and re-rejected by every copy.
fn event_log() -> Vec<OnlineEvent> {
    vec![
        arrival(1, 5.0, 0),
        arrival(2, 4.0, 1),
        OnlineEvent::BudgetTopUp { id: 1, amount: 2.0 },
        arrival(3, 6.0, 0),
        arrival(3, 9.0, 1),
        OnlineEvent::AdDeparture { id: 2 },
        arrival(4, 3.5, 1),
        OnlineEvent::BudgetTopUp { id: 4, amount: 1.5 },
        arrival(5, 2.5, 0),
        OnlineEvent::AdDeparture { id: 3 },
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tirm_durable_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Copies a live state dir file by file: what a SIGKILL at this instant
/// would leave for the next boot (every acknowledged frame is fsynced,
/// so the copy holds it).
fn crash_image(live: &Path, image: &Path) {
    std::fs::create_dir_all(image).unwrap();
    for entry in std::fs::read_dir(live).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
}

/// Cadence tight enough that ten events span several segments and
/// two checkpoints, with a tail past the last one.
fn durable_cfg(online: &OnlineConfig, dir: &Path) -> ServerConfig {
    ServerConfig {
        online: online.clone(),
        checkpoint_interval: 4,
        segment_events: 3,
        ..ServerConfig::new(dir)
    }
}

fn follower_cfg(online: &OnlineConfig, leader: std::net::SocketAddr, dir: &Path) -> ServerConfig {
    ServerConfig {
        follow: Some(FollowConfig {
            poll_interval: Duration::from_millis(1),
            ..FollowConfig::new(leader.to_string())
        }),
        ..durable_cfg(online, dir)
    }
}

fn wait_for(addr: std::net::SocketAddr, wal_seq: u64, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = Client::connect(addr).and_then(|mut c| c.stats()).unwrap();
        if stats.wal_seq >= wal_seq && stats.epoch >= epoch && stats.queue_depth == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{addr} never reached seq {wal_seq}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn leader_follower_and_recovery_agree_with_an_in_process_replay() {
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
    let log = event_log();

    let mut oracle = OnlineAllocator::new(&graph, &probs, online.clone());
    let rejected = log.iter().filter(|ev| oracle.process(ev).is_err()).count() as u64;
    let want = oracle.snapshot();
    assert_eq!(rejected, 1, "the log holds one duplicate arrival");

    let (leader_dir, follower_dir, image_dir) = (
        fresh_dir("leader"),
        fresh_dir("follower"),
        fresh_dir("image"),
    );
    let leader_cfg = durable_cfg(&online, &leader_dir);

    let ((follower_report, follower_stats), leader_report) =
        serve(&graph, &probs, leader_cfg, |leader| {
            let follower_cfg = follower_cfg(&online, leader.addr(), &follower_dir);
            let (stats, report) = serve(&graph, &probs, follower_cfg, |follower| {
                let mut client = Client::connect(leader.addr()).unwrap();
                for (i, ev) in log.iter().enumerate() {
                    let answer = client.send_event(ev).unwrap();
                    assert!(matches!(answer, Response::Accepted { .. }), "{answer:?}");
                    // In lockstep, so the follower tails every frame: left
                    // behind, it would find its anchor pruned and skip the
                    // frames a downloaded checkpoint covers.
                    wait_for(follower.addr(), i as u64 + 1, 0);
                }
                wait_for(leader.addr(), log.len() as u64, want.epoch);
                wait_for(follower.addr(), log.len() as u64, want.epoch);
                crash_image(&leader_dir, &image_dir);
                Client::connect(follower.addr()).unwrap().stats().unwrap()
            })
            .unwrap();
            (report, stats)
        })
        .unwrap();

    assert!(leader_report.final_snapshot.same_allocation(&want));
    assert!(follower_report.final_snapshot.same_allocation(&want));
    assert_eq!(leader_report.wal_seq, log.len() as u64);
    assert_eq!(follower_report.wal_seq, log.len() as u64);
    assert_eq!(follower_report.bootstraps, 0);
    assert_eq!(follower_report.replicated, log.len() as u64);
    // One commit path ⇒ one rejection ledger on both roles.
    assert_eq!(leader_report.rejected, rejected);
    assert_eq!(follower_report.rejected, rejected);
    assert_eq!(follower_stats.rejected, rejected);
    // ... and the process-lifetime registry behind `rejected_total`
    // moves with it: no other server in this process rejects anything,
    // so the total is the leader's count plus the follower's.
    assert_eq!(follower_stats.rejected_total, 2 * rejected);

    // The kill image: a checkpoint plus a log tail to replay.
    let (recovered, report) = wal::recover(&image_dir, &graph, &probs, &online).unwrap();
    assert_eq!(report.wal_seq, log.len() as u64);
    assert_eq!(report.checkpoint_seq, Some(8));
    assert_eq!(report.replayed, 2);
    assert!(recovered.snapshot().same_allocation(&want));

    // The clean stop left a wind-down checkpoint: nothing to replay.
    let (warm, report) = wal::recover(&leader_dir, &graph, &probs, &online).unwrap();
    assert_eq!(report.replayed, 0);
    assert!(warm.snapshot().same_allocation(&want));

    for dir in [leader_dir, follower_dir, image_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A promotion keeps the follower's open log: one segment holds frames
/// the promotee appended as a follower and then as the leader. A kill
/// while it leads recovers through that segment to the same allocation,
/// and the promotion itself wrote no checkpoint.
#[test]
fn a_promoted_followers_log_recovers_after_a_kill() {
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
    // Without the duplicate arrival: the first test counts the
    // process-wide rejections.
    let mut log = event_log();
    log.remove(4);
    // Five frames through the follower (a checkpoint at 4, the open
    // segment [3, 6) holding 3 and 4), two through the promotee: the
    // kill image replays from inside that segment.
    let (head, tail) = (&log[..5], &log[5..7]);
    let mut oracle = OnlineAllocator::new(&graph, &probs, online.clone());
    for ev in &log[..7] {
        oracle.process(ev).unwrap();
    }
    let want = oracle.snapshot();

    let (leader_dir, promotee_dir, image_dir) = (
        fresh_dir("promote_leader"),
        fresh_dir("promotee"),
        fresh_dir("promotee_image"),
    );
    let ((), promotee_report) = std::thread::scope(|s| {
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let leader = s.spawn(|| {
            serve(
                &graph,
                &probs,
                durable_cfg(&online, &leader_dir),
                move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                },
            )
        });
        let laddr = addr_rx.recv().unwrap();
        let promotee_cfg = follower_cfg(&online, laddr, &promotee_dir);
        serve(&graph, &probs, promotee_cfg, |promotee| {
            let mut client = Client::connect(laddr).unwrap();
            for (i, ev) in head.iter().enumerate() {
                let answer = client.send_event(ev).unwrap();
                assert!(matches!(answer, Response::Accepted { .. }), "{answer:?}");
                wait_for(promotee.addr(), i as u64 + 1, 0);
            }
            drop(client);
            stop_tx.send(()).unwrap();
            let ((), leader_report) = leader.join().unwrap().unwrap();
            assert_eq!(leader_report.wal_seq, head.len() as u64);

            let checkpoints = wal::list_checkpoints(&promotee_dir).unwrap();
            let mut client = Client::connect(promotee.addr()).unwrap();
            let epoch = client.promote().unwrap();
            let deadline = Instant::now() + Duration::from_secs(60);
            while client.stats().unwrap().role != Role::Leader {
                assert!(Instant::now() < deadline, "the promotee never took over");
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(
                wal::list_checkpoints(&promotee_dir).unwrap(),
                checkpoints,
                "a promotion writes no checkpoint"
            );
            for ev in tail {
                let answer = client.send_event(ev).unwrap();
                assert!(matches!(answer, Response::Accepted { .. }), "{answer:?}");
            }
            wait_for(promotee.addr(), 7, want.epoch);
            crash_image(&promotee_dir, &image_dir);
            assert_eq!(client.stats().unwrap().fencing_epoch, epoch);
        })
        .unwrap()
    });
    assert_eq!(promotee_report.role, Role::Leader);
    assert!(promotee_report.final_snapshot.same_allocation(&want));

    let (recovered, report) = wal::recover(&image_dir, &graph, &probs, &online).unwrap();
    assert_eq!(report.wal_seq, 7);
    assert_eq!(report.checkpoint_seq, Some(4));
    assert_eq!(report.replayed, 3);
    assert!(recovered.snapshot().same_allocation(&want));
    assert_eq!(wal::read_fencing_epoch(&image_dir).unwrap(), 1);

    for dir in [leader_dir, promotee_dir, image_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Kill at every event index: recover and finish the log, always
/// landing bit-identical to the uninterrupted run. The live run is the
/// writer's protocol spelled out (append → fsync → apply, checkpoint on
/// a cadence) so it can stop at every index cheaply. Odd kill points
/// additionally get a torn frame appended to the live segment — the
/// exact artifact a kill during an unsynced append leaves behind.
#[test]
fn kill_at_any_index_then_finish_log_is_bit_identical() {
    let graph = generators::preferential_attachment(250, 3, 0.3, 13);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 13 ^ 0x77);
    let cfg = OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed: 7,
            max_theta_per_ad: Some(500),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    };
    let events = event_log();

    // The uninterrupted oracle.
    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    let want = oracle.snapshot();

    for kill_at in 0..=events.len() {
        let dir = fresh_dir(&format!("kill_{kill_at}"));
        // Live run up to the kill point: checkpoint every 4 events,
        // 3-frame segments.
        let mut log = wal::Wal::open(&dir, 0, 3).unwrap();
        let mut live = OnlineAllocator::new(&graph, &probs, cfg.clone());
        for (i, ev) in events[..kill_at].iter().enumerate() {
            log.append(ev).unwrap();
            log.sync().unwrap();
            let _ = live.process(ev);
            if (i + 1) % 4 == 0 {
                wal::write_checkpoint(&dir, &mut live, log.seq()).unwrap();
                log.prune(log.seq()).unwrap();
            }
        }
        drop(log);
        drop(live);
        if kill_at % 2 == 1 {
            // Crash artifact: a frame announced but half-written.
            let (_, seg) = wal::list_segments(&dir).unwrap().pop().unwrap();
            let mut f = std::fs::OpenOptions::new().append(true).open(seg).unwrap();
            std::io::Write::write_all(&mut f, &77u32.to_le_bytes()).unwrap();
            std::io::Write::write_all(&mut f, b"{\"type\":\"ad").unwrap();
        }

        let (mut recovered, report) = wal::recover(&dir, &graph, &probs, &cfg).unwrap();
        assert_eq!(
            report.wal_seq, kill_at as u64,
            "kill_at={kill_at}: durable frontier"
        );
        for ev in &events[kill_at..] {
            let _ = recovered.process(ev);
        }

        let got = recovered.snapshot();
        assert!(
            got.same_allocation(&want),
            "kill_at={kill_at}: recovered+finished run diverged \
             (epoch {} vs {}, regret {} vs {})",
            got.epoch,
            want.epoch,
            got.regret_estimate,
            want.regret_estimate,
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The writer's protocol up to `kill_at` (append → fsync → apply, a
/// checkpoint every 4 events), then recovery from what that left on disk
/// and the rest of the log.
fn killed_recovered_and_finished<'g>(
    graph: &'g tirm_graph::DiGraph,
    probs: &'g tirm_topics::TopicEdgeProbs,
    cfg: &OnlineConfig,
    events: &[OnlineEvent],
    kill_at: usize,
) -> OnlineAllocator<'g> {
    let dir = fresh_dir(&format!("pool_kill_{kill_at}"));
    let mut log = wal::Wal::open(&dir, 0, 3).unwrap();
    let mut live = OnlineAllocator::new(graph, probs, cfg.clone());
    for (i, ev) in events[..kill_at].iter().enumerate() {
        log.append(ev).unwrap();
        log.sync().unwrap();
        let _ = live.process(ev);
        if (i + 1) % 4 == 0 {
            wal::write_checkpoint(&dir, &mut live, log.seq()).unwrap();
            log.prune(log.seq()).unwrap();
        }
    }
    drop(log);
    drop(live);
    let (mut recovered, report) = wal::recover(&dir, graph, probs, cfg).unwrap();
    assert_eq!(report.wal_seq, kill_at as u64, "kill_at={kill_at}");
    for ev in &events[kill_at..] {
        let _ = recovered.process(ev);
    }
    std::fs::remove_dir_all(&dir).ok();
    recovered
}

/// The kill sweep again with the retained pool one byte too small for
/// the two shards the log releases, and then exactly large enough: the
/// pool evicts on `memory_bytes`, so a recovered shard a byte lighter or
/// heavier than the one the uninterrupted run holds ends the log with a
/// different pool. A shard redrawn from its counts weighs what the held
/// one weighs.
#[test]
fn kill_at_any_index_under_pool_pressure_evicts_like_the_uninterrupted_run() {
    let graph = generators::preferential_attachment(250, 3, 0.3, 13);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 13 ^ 0x77);
    let cfg = |max_retained_bytes| OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed: 7,
            max_theta_per_ad: Some(500),
            ..TirmOptions::default()
        },
        kappa: 2,
        max_retained_bytes,
        ..OnlineConfig::default()
    };
    let events = event_log();
    let uninterrupted = |max_retained_bytes| {
        let mut oracle = OnlineAllocator::new(&graph, &probs, cfg(max_retained_bytes));
        for ev in &events {
            let _ = oracle.process(ev);
        }
        oracle
    };
    // What the two departed shards weigh: everything held, less what is
    // held when nothing is retained.
    let both = uninterrupted(usize::MAX).memory_bytes() - uninterrupted(0).memory_bytes();

    for (budget, evictions) in [(both - 1, 1), (both, 0)] {
        let oracle = uninterrupted(budget);
        assert_eq!(oracle.pool_evictions(), evictions);
        assert_eq!(oracle.pooled_shards(), 2 - evictions);
        let want = oracle.snapshot();
        for kill_at in 0..=events.len() {
            let got = killed_recovered_and_finished(&graph, &probs, &cfg(budget), &events, kill_at);
            assert!(
                got.snapshot().same_allocation(&want),
                "kill_at={kill_at} budget={budget}"
            );
            assert_eq!(got.pool_evictions(), evictions, "kill_at={kill_at}");
            assert_eq!(got.pooled_shards(), oracle.pooled_shards());
            assert_eq!(got.memory_bytes(), oracle.memory_bytes());
        }
    }
}

/// A checkpoint is the campaign model and four integers a shard: its
/// size does not know how many RR sets the shards hold.
#[test]
fn checkpoint_size_is_independent_of_theta() {
    let graph = generators::preferential_attachment(250, 3, 0.3, 13);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 13 ^ 0x77);
    let image = |max_theta| {
        let cfg = OnlineConfig {
            tirm: TirmOptions {
                eps: 0.45,
                seed: 7,
                max_theta_per_ad: Some(max_theta),
                ..TirmOptions::default()
            },
            kappa: 2,
            ..OnlineConfig::default()
        };
        let mut a = OnlineAllocator::new(&graph, &probs, cfg);
        for ev in &event_log() {
            let _ = a.process(ev);
        }
        let mut bytes = Vec::new();
        a.checkpoint(10, &mut bytes).unwrap();
        let seeds: usize = a.snapshot().ads.iter().map(|ad| ad.seeds.len()).sum();
        (bytes.len(), a.total_rr_sets(), seeds)
    };
    let (small, small_sets, small_seeds) = image(500);
    let (large, large_sets, large_seeds) = image(5000);
    assert!(large_sets > 5 * small_sets, "{small_sets} vs {large_sets}");
    assert!(large < 64 << 10, "{large} bytes");
    // Standing seeds are model, one word each; nothing else may differ.
    assert_eq!(small - 4 * small_seeds, large - 4 * large_seeds);
}
