//! Replication correctness anchors: kill any replica at any event
//! index, promote, finish the stream — every surviving replica's final
//! snapshot is bit-identical to an uninterrupted in-process replay.
//!
//! The hand-off sweep runs real TCP leaders and followers in-process
//! (cheap enough to stop at every index); the process-level SIGKILL
//! variant lives in the nightly `replica_soak` driver. On top of the
//! sweep: the typed `NotLeader` redirect, checkpoint bootstrap over a
//! pruned anchor, and fencing rejection of a deposed leader's frames.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::wal::{bump_fencing_epoch, list_segments, read_fencing_epoch};
use tirm_server::{
    serve, Client, ClientOptions, FollowConfig, Response, Role, ServerConfig, StatsView,
};
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

/// Every event kind, including a deterministic rejection (duplicate
/// arrival) that must ship to followers and re-reject there.
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
    let dir = std::env::temp_dir().join(format!("tirm_repl_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Tight durability cadence so a ten-event stream spans several
/// segments and at least one checkpoint+prune.
fn leader_cfg(cfg: &OnlineConfig, dir: &Path, bind: Option<String>) -> ServerConfig {
    ServerConfig {
        online: cfg.clone(),
        bind: bind.unwrap_or_else(|| "127.0.0.1:0".to_string()),
        queue_depth: 16,
        checkpoint_interval: 3,
        segment_events: 4,
        ..ServerConfig::new(dir)
    }
}

fn follower_cfg(cfg: &OnlineConfig, leader: String, dir: &Path) -> ServerConfig {
    ServerConfig {
        follow: Some(FollowConfig {
            poll_interval: Duration::from_millis(1),
            ..FollowConfig::new(leader)
        }),
        ..leader_cfg(cfg, dir, None)
    }
}

/// Sends `shutdown` to every follower a case started if the case
/// unwinds. A failed assertion would otherwise leave the followers parked
/// in `wait_shutdown`, and the enclosing `thread::scope` would join them
/// forever instead of failing the test. A clean exit sends nothing.
#[derive(Default)]
struct ShutdownOnUnwind(Mutex<Vec<SocketAddr>>);

impl ShutdownOnUnwind {
    /// Notes `addr` for the unwind and returns it.
    fn watch(&self, addr: SocketAddr) -> SocketAddr {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).push(addr);
        addr
    }
}

impl Drop for ShutdownOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let addrs = self.0.get_mut().unwrap_or_else(|e| e.into_inner());
            for &addr in addrs.iter() {
                let _ = Client::connect(addr).and_then(|mut c| c.shutdown_server());
            }
        }
    }
}

/// Polls a replica's stats until both frontiers arrive: the durable
/// `wal_seq` (counts every logged frame, rejected ones included) and
/// the *published* epoch (the applied, snapshot-visible frontier —
/// rejected frames never bump it, and it trails `wal_seq` by up to one
/// fsync page even on accepted ones).
fn wait_applied(addr: SocketAddr, wal_target: u64, epoch_target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(stats) = Client::connect(addr).and_then(|mut c| c.stats()) {
            if stats.wal_seq >= wal_target && stats.epoch >= epoch_target && stats.queue_depth == 0
            {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "replica at {addr} never reached wal_seq {wal_target} / epoch {epoch_target}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `epochs[i]` = the published epoch after applying `events[..i]` —
/// the oracle replayed prefix by prefix, so waits can target the
/// applied frontier without assuming every event is accepted.
fn epoch_per_prefix(
    graph: &DiGraph,
    probs: &TopicEdgeProbs,
    cfg: &OnlineConfig,
    events: &[OnlineEvent],
) -> Vec<u64> {
    let mut oracle = OnlineAllocator::new(graph, probs, cfg.clone());
    let mut epochs = vec![0u64];
    for ev in events {
        let _ = oracle.process(ev);
        epochs.push(oracle.snapshot().epoch);
    }
    epochs
}

/// Polls a promoted replica's stats until it answers as the leader.
fn wait_leader(addr: SocketAddr) -> StatsView {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(stats) = Client::connect(addr).and_then(|mut c| c.stats()) {
            if stats.role == Role::Leader {
                return stats;
            }
        }
        assert!(Instant::now() < deadline, "{addr} never took over");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Kill the **leader** after `kill_at` events with `n_followers`
/// replicas tailing it, promote follower 0 onto the leader's duties
/// (fencing epoch bumped, in place on the promoted follower's
/// address), let any remaining follower re-home via its peer list,
/// finish the stream, and demand every replica lands bit-identical to
/// the uninterrupted oracle.
fn leader_handoff_case(kill_at: usize, n_followers: usize) {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();

    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    let want = oracle.snapshot();
    let epochs = epoch_per_prefix(&graph, &probs, &cfg, &events);

    let tag = format!("handoff_{kill_at}_{n_followers}");
    let ldir = fresh_dir(&format!("{tag}_l"));
    let fdirs: Vec<PathBuf> = (0..n_followers)
        .map(|i| fresh_dir(&format!("{tag}_f{i}")))
        .collect();

    std::thread::scope(|s| {
        let followers_down = ShutdownOnUnwind::default();
        // Leader, life 1.
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let l1 = {
            let (graph, probs, cfg, ldir) = (&graph, &probs, &cfg, &ldir);
            s.spawn(move || {
                serve(graph, probs, leader_cfg(cfg, ldir, None), move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                })
            })
        };
        let laddr = addr_rx.recv().unwrap();

        // Followers tail it live. Every follower lists follower 0's
        // read address as a peer: after the hand-off the new leader
        // serves on exactly that address, so survivors find it by
        // rotating to their peer list — no reconfiguration.
        let mut fjoins = Vec::new();
        let mut faddrs: Vec<SocketAddr> = Vec::new();
        for (i, fdir) in fdirs.iter().enumerate().take(n_followers) {
            let (tx, rx) = mpsc::channel();
            let mut fcfg = follower_cfg(&cfg, laddr.to_string(), fdir);
            if let (true, Some(follow)) = (i > 0, &mut fcfg.follow) {
                follow.peer_addrs = vec![faddrs[0].to_string()];
            }
            let (graph, probs) = (&graph, &probs);
            fjoins.push(s.spawn(move || {
                serve(graph, probs, fcfg, move |fh| {
                    tx.send(fh.addr()).unwrap();
                    fh.wait_shutdown();
                })
            }));
            faddrs.push(followers_down.watch(rx.recv().unwrap()));
        }

        // Head of the log, then wait until the whole fleet applied it.
        let mut client = Client::connect(laddr).unwrap();
        for ev in &events[..kill_at] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr, kill_at as u64, epochs[kill_at]);
        for &fa in &faddrs {
            wait_applied(fa, kill_at as u64, epochs[kill_at]);
        }
        drop(client);

        // Kill the leader, promote follower 0.
        stop_tx.send(()).unwrap();
        let ((), lreport) = l1.join().unwrap().unwrap();
        assert_eq!(lreport.wal_seq, kill_at as u64, "leader died at the split");

        let promoted_epoch = Client::connect(faddrs[0]).unwrap().promote().unwrap();
        let promotee = fjoins.remove(0);
        let stats = wait_leader(faddrs[0]);
        assert_eq!(
            stats.wal_seq, kill_at as u64,
            "promotee had replicated the full head"
        );
        assert_eq!(
            (stats.fencing_epoch, read_fencing_epoch(&fdirs[0]).unwrap()),
            (promoted_epoch, promoted_epoch),
            "wire promise matches the bump"
        );
        let laddr2 = faddrs[0];
        let handshake = Client::connect_with(laddr2, &ClientOptions::default()).unwrap();
        let role = handshake.hello().map(|h| h.role);
        assert_eq!(role, Some(Role::Leader), "hand-off keeps the endpoint");

        // Tail of the log onto the new leader; fleet converges.
        let mut client = Client::connect(laddr2).unwrap();
        for ev in &events[kill_at..] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr2, events.len() as u64, epochs[events.len()]);
        for &fa in &faddrs[1..] {
            wait_applied(fa, events.len() as u64, epochs[events.len()]);
        }
        drop(client);

        // Wind the survivors down and compare every replica to the
        // oracle, bit for bit.
        for &fa in &faddrs[1..] {
            Client::connect(fa)
                .and_then(|mut c| c.shutdown_server())
                .unwrap();
        }
        for j in fjoins {
            let ((), frep) = j.join().unwrap().unwrap();
            assert!(
                frep.final_snapshot.same_allocation(&want),
                "kill_at={kill_at} followers={n_followers}: surviving follower diverged \
                 (epoch {} vs {})",
                frep.final_snapshot.epoch,
                want.epoch
            );
        }
        Client::connect(laddr2)
            .and_then(|mut c| c.shutdown_server())
            .unwrap();
        let ((), lreport2) = promotee.join().unwrap().unwrap();
        assert_eq!(lreport2.role, Role::Leader);
        assert!(
            lreport2.final_snapshot.same_allocation(&want),
            "kill_at={kill_at} followers={n_followers}: promoted leader diverged \
             (epoch {} vs {})",
            lreport2.final_snapshot.epoch,
            want.epoch
        );
    });

    std::fs::remove_dir_all(&ldir).ok();
    for d in &fdirs {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Kill a **follower** after `kill_at` events, keep the leader
/// streaming, restart the follower over its own state dir, and demand
/// it converges bit-identically (resuming from its local frontier —
/// or bootstrapping, if the leader pruned past it meanwhile).
fn follower_restart_case(kill_at: usize, n_followers: usize) {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();

    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    let want = oracle.snapshot();
    let epochs = epoch_per_prefix(&graph, &probs, &cfg, &events);

    let tag = format!("frestart_{kill_at}_{n_followers}");
    let ldir = fresh_dir(&format!("{tag}_l"));
    let fdirs: Vec<PathBuf> = (0..n_followers)
        .map(|i| fresh_dir(&format!("{tag}_f{i}")))
        .collect();

    std::thread::scope(|s| {
        let followers_down = ShutdownOnUnwind::default();
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let leader = {
            let (graph, probs, cfg, ldir) = (&graph, &probs, &cfg, &ldir);
            s.spawn(move || {
                serve(graph, probs, leader_cfg(cfg, ldir, None), move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                })
            })
        };
        let laddr = addr_rx.recv().unwrap();

        let spawn_follower = |i: usize| {
            let (tx, rx) = mpsc::channel();
            let fcfg = follower_cfg(&cfg, laddr.to_string(), &fdirs[i]);
            let (graph, probs) = (&graph, &probs);
            let join = s.spawn(move || {
                serve(graph, probs, fcfg, move |fh| {
                    tx.send(fh.addr()).unwrap();
                    fh.wait_shutdown();
                })
            });
            (join, followers_down.watch(rx.recv().unwrap()))
        };
        let mut followers: Vec<_> = (0..n_followers).map(spawn_follower).collect();

        let mut client = Client::connect(laddr).unwrap();
        for ev in &events[..kill_at] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr, kill_at as u64, epochs[kill_at]);
        for (_, fa) in &followers {
            wait_applied(*fa, kill_at as u64, epochs[kill_at]);
        }

        // Take follower 0 down, finish the stream without it.
        let (join0, faddr0) = followers.remove(0);
        Client::connect(faddr0)
            .and_then(|mut c| c.shutdown_server())
            .unwrap();
        let ((), downed) = join0.join().unwrap().unwrap();
        assert_eq!(downed.wal_seq, kill_at as u64);

        for ev in &events[kill_at..] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr, events.len() as u64, epochs[events.len()]);
        drop(client);

        // Rejoin over the same dir; it must catch up to the frontier.
        let (join0, faddr0) = spawn_follower(0);
        followers.push((join0, faddr0));
        for (_, fa) in &followers {
            wait_applied(*fa, events.len() as u64, epochs[events.len()]);
        }

        for (join, fa) in followers {
            Client::connect(fa)
                .and_then(|mut c| c.shutdown_server())
                .unwrap();
            let ((), frep) = join.join().unwrap().unwrap();
            assert!(
                frep.final_snapshot.same_allocation(&want),
                "kill_at={kill_at} followers={n_followers}: follower diverged \
                 (epoch {} vs {})",
                frep.final_snapshot.epoch,
                want.epoch
            );
        }
        stop_tx.send(()).unwrap();
        let ((), lreport) = leader.join().unwrap().unwrap();
        assert!(lreport.final_snapshot.same_allocation(&want));
    });

    std::fs::remove_dir_all(&ldir).ok();
    for d in &fdirs {
        std::fs::remove_dir_all(d).ok();
    }
}

/// The acceptance sweep: kill index × {leader, follower} × follower
/// counts {1, 2}. Leader kills promote-and-finish; follower kills
/// restart-and-rejoin. Every index is a distinct WAL/checkpoint shape
/// (checkpoints every 3, segments of 4).
#[test]
fn kill_any_replica_at_any_index_promote_and_finish_is_bit_identical() {
    let n = mutations().len();
    for n_followers in [1usize, 2] {
        for kill_at in 0..=n {
            leader_handoff_case(kill_at, n_followers);
        }
    }
    // The follower sweep needs no promotion; a sparser grid of split
    // points (start, mid-segment, checkpoint boundary, end) covers the
    // distinct rejoin shapes without doubling the suite's wall time.
    for n_followers in [1usize, 2] {
        for kill_at in [0, 2, 3, 6, n] {
            follower_restart_case(kill_at, n_followers);
        }
    }
}

/// Mutations sent to a follower are answered with a typed `NotLeader`
/// naming the leader — the loadgen's redirect contract.
#[test]
fn follower_redirects_mutations_to_the_leader() {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let ldir = fresh_dir("redirect_l");
    let fdir = fresh_dir("redirect_f");

    std::thread::scope(|s| {
        let followers_down = ShutdownOnUnwind::default();
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let leader = {
            let (graph, probs, cfg, ldir) = (&graph, &probs, &cfg, &ldir);
            s.spawn(move || {
                serve(graph, probs, leader_cfg(cfg, ldir, None), move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                })
            })
        };
        let laddr = addr_rx.recv().unwrap();

        let (tx, rx) = mpsc::channel();
        let fcfg = follower_cfg(&cfg, laddr.to_string(), &fdir);
        let fjoin = {
            let (graph, probs) = (&graph, &probs);
            s.spawn(move || {
                serve(graph, probs, fcfg, move |fh| {
                    tx.send(fh.addr()).unwrap();
                    fh.wait_shutdown();
                })
            })
        };
        let faddr = followers_down.watch(rx.recv().unwrap());

        let mut fclient = Client::connect(faddr).unwrap();
        match fclient.send_event(&arrival(9, 1.0, 0)).unwrap() {
            Response::NotLeader { leader } => {
                assert_eq!(leader, laddr.to_string(), "redirect names the leader")
            }
            other => panic!("expected a NotLeader redirect, got {other:?}"),
        }
        // Reads, by contrast, are served locally.
        let stats = fclient.stats().unwrap();
        assert_eq!(stats.epoch, 0);
        drop(fclient);

        Client::connect(faddr)
            .and_then(|mut c| c.shutdown_server())
            .unwrap();
        fjoin.join().unwrap().unwrap();
        stop_tx.send(()).unwrap();
        leader.join().unwrap().unwrap();
    });

    std::fs::remove_dir_all(&ldir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// A rejection the follower re-derives on apply lands in both ledgers,
/// exactly as on the leader: this run's `stats.rejected` and the
/// process-lifetime registry behind `stats.rejected_total`.
#[test]
fn a_followers_rejections_reach_both_ledgers() {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let ldir = fresh_dir("ledgers_l");
    let fdir = fresh_dir("ledgers_f");
    // Through the duplicate arrival: one rejection.
    let events = &mutations()[..5];
    let epochs = epoch_per_prefix(&graph, &probs, &cfg, events);
    // The registry is shared by every server of this test binary and
    // only ever grows, so the check is on what this test adds to it.
    let before = tirm_obs::registry::SERVER_REJECTED.get();

    // No leader checkpoint, and so no prune, within the five events: a
    // leader that took all five in one batch would otherwise checkpoint
    // and prune segment 0 at once, and a follower whose first poll read
    // the log after that prune bootstraps past the duplicate from the
    // checkpoint and never applies (or counts) it.
    let leader = ServerConfig {
        checkpoint_interval: 64,
        ..leader_cfg(&cfg, &ldir, None)
    };
    let (follower_stats, leader_report) = serve(&graph, &probs, leader, |h| {
        let fcfg = follower_cfg(&cfg, h.addr().to_string(), &fdir);
        let (stats, _) = serve(&graph, &probs, fcfg, |fh| {
            let mut client = Client::connect(h.addr()).unwrap();
            for ev in events {
                client.send_event(ev).unwrap();
            }
            wait_applied(fh.addr(), events.len() as u64, epochs[events.len()]);
            // The follower's `wal_seq` moves at fsync, before the
            // apply, and the rejected duplicate moves no epoch: the
            // waits above can return before it is counted. The
            // leader ships a batch once it is fsynced, before its
            // own apply, so the follower may count the rejection
            // first: wait for the leader's count too before reading
            // the shared registry.
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let leader = Client::connect(h.addr()).unwrap().stats().unwrap();
                let stats = Client::connect(fh.addr()).unwrap().stats().unwrap();
                let counted = leader.rejected >= 1 && stats.rejected >= 1;
                if counted || Instant::now() >= deadline {
                    break stats;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .unwrap();
        stats
    })
    .unwrap();

    assert_eq!(leader_report.rejected, 1);
    assert_eq!(follower_stats.rejected, 1, "{follower_stats:?}");
    assert!(
        follower_stats.rejected_total >= before + 2,
        "leader and follower each count the rejection: {} after {before}",
        follower_stats.rejected_total
    );

    std::fs::remove_dir_all(&ldir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// A follower joining after the leader pruned its early segments must
/// come up through the checkpoint-download path — and still land
/// bit-identical.
#[test]
fn late_follower_bootstraps_from_a_pruned_anchor() {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();
    let ldir = fresh_dir("pruned_l");
    let fdir = fresh_dir("pruned_f");

    let mut oracle = OnlineAllocator::new(&graph, &probs, cfg.clone());
    for ev in &events {
        let _ = oracle.process(ev);
    }
    let want = oracle.snapshot();
    let epochs = epoch_per_prefix(&graph, &probs, &cfg, &events);

    std::thread::scope(|s| {
        let followers_down = ShutdownOnUnwind::default();
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let leader = {
            let (graph, probs, cfg, ldir) = (&graph, &probs, &cfg, &ldir);
            s.spawn(move || {
                serve(graph, probs, leader_cfg(cfg, ldir, None), move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                })
            })
        };
        let laddr = addr_rx.recv().unwrap();

        // Apply the whole log first: checkpoints every 3 events prune
        // the early segments, so seq 0 is gone from the leader's WAL.
        let mut client = Client::connect(laddr).unwrap();
        for ev in &events {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr, events.len() as u64, epochs[events.len()]);
        drop(client);
        // The writer publishes a batch and frees its queue slots before
        // the checkpoint that prunes, so the wait above can return with
        // seq 0 still on disk: wait for the prune itself.
        let deadline = Instant::now() + Duration::from_secs(60);
        while list_segments(&ldir)
            .unwrap()
            .first()
            .map(|(start, _)| *start)
            == Some(0)
        {
            assert!(Instant::now() < deadline, "the leader never pruned seq 0");
            std::thread::sleep(Duration::from_millis(2));
        }

        let (tx, rx) = mpsc::channel();
        let fcfg = follower_cfg(&cfg, laddr.to_string(), &fdir);
        let fjoin = {
            let (graph, probs) = (&graph, &probs);
            s.spawn(move || {
                serve(graph, probs, fcfg, move |fh| {
                    tx.send(fh.addr()).unwrap();
                    fh.wait_shutdown();
                })
            })
        };
        let faddr = followers_down.watch(rx.recv().unwrap());
        wait_applied(faddr, events.len() as u64, epochs[events.len()]);

        Client::connect(faddr)
            .and_then(|mut c| c.shutdown_server())
            .unwrap();
        let ((), frep) = fjoin.join().unwrap().unwrap();
        assert!(
            frep.bootstraps >= 1,
            "a pruned anchor must force the checkpoint-download path"
        );
        assert!(
            frep.final_snapshot.same_allocation(&want),
            "bootstrapped follower diverged (epoch {} vs {})",
            frep.final_snapshot.epoch,
            want.epoch
        );
        stop_tx.send(()).unwrap();
        leader.join().unwrap().unwrap();
    });

    std::fs::remove_dir_all(&ldir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// A follower whose configuration differs from the leader's (κ = 5
/// against κ = 2) and who must bootstrap from the leader's checkpoint
/// stops there: its `serve` returns `InvalidInput` naming `kappa`, its
/// run ends without a shutdown request, and it never publishes an
/// allocation the leader's checkpoint holds.
#[test]
fn a_follower_under_another_kappa_stops_at_the_bootstrap() {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();
    let ldir = fresh_dir("skew_l");
    let fdir = fresh_dir("skew_f");
    let epochs = epoch_per_prefix(&graph, &probs, &cfg, &events);

    std::thread::scope(|s| {
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let leader = {
            let (graph, probs, cfg, ldir) = (&graph, &probs, &cfg, &ldir);
            s.spawn(move || {
                serve(graph, probs, leader_cfg(cfg, ldir, None), move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                })
            })
        };
        let laddr = addr_rx.recv().unwrap();
        let mut client = Client::connect(laddr).unwrap();
        for ev in &events {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr, events.len() as u64, epochs[events.len()]);
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(60);
        while list_segments(&ldir)
            .unwrap()
            .first()
            .map(|(start, _)| *start)
            == Some(0)
        {
            assert!(Instant::now() < deadline, "the leader never pruned seq 0");
            std::thread::sleep(Duration::from_millis(2));
        }

        let skewed = OnlineConfig {
            kappa: 5,
            ..cfg.clone()
        };
        let fcfg = follower_cfg(&skewed, laddr.to_string(), &fdir);
        let (tx, rx) = mpsc::channel();
        let (seen_tx, seen_rx) = mpsc::channel();
        let fjoin = {
            let (graph, probs) = (&graph, &probs);
            s.spawn(move || {
                serve(graph, probs, fcfg, move |fh| {
                    tx.send(fh.addr()).unwrap();
                    fh.wait_shutdown();
                    let mut reader = fh.reader();
                    let snap = &reader.latest().snapshot;
                    seen_tx.send((snap.epoch, snap.num_ads())).unwrap();
                })
            })
        };
        let faddr = rx.recv().unwrap();
        // The run must end on its own; past the deadline it is told to
        // stop, so a follower that keeps serving fails instead of hangs.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !fjoin.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let ended_alone = fjoin.is_finished();
        if !ended_alone {
            let _ = Client::connect(faddr).and_then(|mut c| c.shutdown_server());
        }
        let outcome = fjoin.join().unwrap();
        stop_tx.send(()).unwrap();
        leader.join().unwrap().unwrap();

        assert!(
            ended_alone,
            "the follower kept serving after a refused bootstrap"
        );
        let err = outcome.expect_err("a follower under another kappa must not serve");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("kappa"), "{err}");
        assert_eq!(
            seen_rx.recv().unwrap(),
            (0, 0),
            "the follower published an allocation"
        );
    });

    std::fs::remove_dir_all(&ldir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// A follower whose persisted fencing epoch is *newer* than a leader's
/// refuses that leader's stream entirely — the deposed leader's frames
/// are counted as fenced rejects, none are applied.
#[test]
fn deposed_leaders_frames_are_fenced_off() {
    let (graph, probs) = setup(250, 13);
    let cfg = config(7);
    let events = mutations();
    let epochs = epoch_per_prefix(&graph, &probs, &cfg, &events);
    let ldir = fresh_dir("fenced_l");
    let fdir = fresh_dir("fenced_f");

    // The follower has lived through a promotion cycle this stale
    // leader missed: its persisted epoch is ahead.
    std::fs::create_dir_all(&fdir).unwrap();
    bump_fencing_epoch(&fdir).unwrap();
    assert_eq!(read_fencing_epoch(&fdir).unwrap(), 1);

    std::thread::scope(|s| {
        let followers_down = ShutdownOnUnwind::default();
        let (addr_tx, addr_rx) = mpsc::channel();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let leader = {
            let (graph, probs, cfg, ldir) = (&graph, &probs, &cfg, &ldir);
            s.spawn(move || {
                serve(graph, probs, leader_cfg(cfg, ldir, None), move |h| {
                    addr_tx.send(h.addr()).unwrap();
                    stop_rx.recv().ok();
                })
            })
        };
        let laddr = addr_rx.recv().unwrap();

        let mut client = Client::connect(laddr).unwrap();
        for ev in &events[..4] {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        wait_applied(laddr, 4, epochs[4]);
        drop(client);

        let (tx, rx) = mpsc::channel();
        let fcfg = follower_cfg(&cfg, laddr.to_string(), &fdir);
        let fjoin = {
            let (graph, probs) = (&graph, &probs);
            s.spawn(move || {
                serve(graph, probs, fcfg, move |fh| {
                    tx.send(fh.addr()).unwrap();
                    fh.wait_shutdown();
                })
            })
        };
        let faddr = followers_down.watch(rx.recv().unwrap());

        // Give the apply loop a generous window of poll cycles (1 ms
        // cadence) to (not) ingest the stale stream, then wind it down.
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            if let Ok(mut c) = Client::connect(faddr) {
                if let Ok(stats) = c.stats() {
                    assert_eq!(
                        stats.epoch, 0,
                        "no frame from the stale-epoch leader may apply"
                    );
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Client::connect(faddr)
            .and_then(|mut c| c.shutdown_server())
            .unwrap();
        let ((), frep) = fjoin.join().unwrap().unwrap();
        assert_eq!(frep.replicated, 0, "stale stream fully rejected");
        assert!(
            frep.fenced_rejects >= 1,
            "rejections must be visible in the report"
        );
        stop_tx.send(()).unwrap();
        leader.join().unwrap().unwrap();
    });

    std::fs::remove_dir_all(&ldir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}
