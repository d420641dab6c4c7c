//! Serving-frontend behavior: admission control (queue shedding +
//! connection refusal), the drain-then-close guarantee, the lock-free
//! read path under a busy writer, and the wire shutdown flow.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::{serve, Client, Request, Response, ServerConfig, WriterStep};
use tirm_topics::{genprob, TopicDist, TopicEdgeProbs};

fn setup(nodes: usize, seed: u64) -> (DiGraph, TopicEdgeProbs) {
    let graph = generators::preferential_attachment(nodes, 3, 0.3, seed);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
    (graph, probs)
}

fn config(seed: u64, theta: usize) -> OnlineConfig {
    OnlineConfig {
        tirm: TirmOptions {
            eps: 0.3,
            seed,
            max_theta_per_ad: Some(theta),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    }
}

/// A state dir of its own for one `serve` run, removed when dropped.
struct StateDir(PathBuf);

impl StateDir {
    fn new() -> StateDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tirm_behavior_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        StateDir(dir)
    }

    fn config(&self, online: OnlineConfig) -> ServerConfig {
        ServerConfig {
            online,
            ..ServerConfig::new(&self.0)
        }
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
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

/// A full queue sheds with a typed `Overloaded` instead of blocking the
/// accept path, and the drain guarantee holds exactly for the admitted
/// subsequence: the final snapshot equals an in-process replay of the
/// events that got `Accepted`, in order.
#[test]
fn overload_sheds_and_drain_applies_exactly_the_admitted_subsequence() {
    // A graph big enough that one arrival keeps the writer busy for
    // many milliseconds, and a queue of 1: a fast burst must shed.
    let (graph, probs) = setup(1_500, 7);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        queue_depth: 1,
        ..dir.config(config(5, 60_000))
    };
    let events: Vec<OnlineEvent> = (1..=24)
        .map(|i| arrival(i, 6.0, (i % 2) as usize))
        .collect();
    let ((admitted, sheds), report) = serve(&graph, &probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut admitted = Vec::new();
        let mut sheds = 0u64;
        for ev in &events {
            match client.send_event(ev).unwrap() {
                Response::Accepted { .. } => admitted.push(ev.clone()),
                Response::Overloaded { .. } => sheds += 1,
                other => panic!("unexpected response: {other:?}"),
            }
        }
        (admitted, sheds)
    })
    .unwrap();

    assert!(sheds > 0, "burst against queue_depth=1 must shed");
    assert_eq!(report.shed, sheds);
    assert_eq!(report.accepted as usize, admitted.len());
    assert!(
        report.max_queue_depth <= 1 + 1,
        "queue depth bounded by depth + one in-flight, got {}",
        report.max_queue_depth
    );

    // Drain guarantee: the final snapshot is the in-process replay of
    // exactly the admitted subsequence.
    let mut local = OnlineAllocator::new(&graph, &probs, config(5, 60_000));
    for ev in &admitted {
        local.process(ev).unwrap();
    }
    assert!(
        report.final_snapshot.same_allocation(&local.snapshot()),
        "drained state diverged from the admitted subsequence"
    );
}

/// Mutations admitted *just before* shutdown are still applied: the
/// closure returns immediately after the last `Accepted`, and the
/// drain-then-close path finishes the queue before reporting.
#[test]
fn shutdown_drains_admitted_mutations() {
    let (graph, probs) = setup(200, 3);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        queue_depth: 64,
        ..dir.config(config(9, 4_000))
    };
    let events: Vec<OnlineEvent> = (1..=6).map(|i| arrival(i, 5.0, (i % 2) as usize)).collect();
    let (n, report) = serve(&graph, &probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut n = 0u64;
        for ev in &events {
            match client.send_event(ev).unwrap() {
                Response::Accepted { .. } => n += 1,
                other => panic!("queue of 64 must admit 6 events: {other:?}"),
            }
        }
        n // return without waiting for the writer
    })
    .unwrap();
    assert_eq!(n, 6);
    assert_eq!(
        report.final_snapshot.epoch, 6,
        "all admitted mutations applied before exit"
    );
    assert_eq!(report.final_snapshot.num_ads(), 6);
    assert_eq!(report.rejected, 0);
}

/// Readers are served from the snapshot cell while the writer is busy:
/// read latency stays orders of magnitude under the mutation service
/// time, reads never fail, and per-connection epochs are monotone.
#[test]
fn readers_never_block_on_the_writer() {
    let (graph, probs) = setup(1_500, 11);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        queue_depth: 8,
        ..dir.config(config(5, 60_000))
    };
    const READERS: usize = 4;
    let ((mutation_ms, read_stats), report) = serve(&graph, &probs, cfg, |handle| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Reader pool: hammer the read path while arrivals grind.
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    let stop = &stop;
                    let addr = handle.addr();
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut last_epoch = 0u64;
                        let mut count = 0u64;
                        let mut worst = Duration::ZERO;
                        while !stop.load(Ordering::Acquire) {
                            let t = Instant::now();
                            let (epoch, regret) = client.regret().unwrap();
                            worst = worst.max(t.elapsed());
                            assert!(regret.is_finite());
                            assert!(epoch >= last_epoch, "epoch must be monotone");
                            last_epoch = epoch;
                            count += 1;
                        }
                        (count, worst)
                    })
                })
                .collect();

            let mut client = Client::connect(handle.addr()).unwrap();
            let t0 = Instant::now();
            let mut applied = 0u64;
            for i in 1..=6u64 {
                let r = client
                    .send_event_retrying(
                        &arrival(i, 6.0, (i % 2) as usize),
                        Duration::from_millis(1),
                        Duration::from_secs(30),
                    )
                    .unwrap();
                assert!(matches!(r, Response::Accepted { .. }));
                applied += 1;
            }
            // Wait until the writer catches up so service time covers
            // real allocator work.
            while handle.queue_depth() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mutation_ms = t0.elapsed().as_secs_f64() * 1e3 / applied as f64;
            stop.store(true, Ordering::Release);
            let read_stats: Vec<(u64, Duration)> =
                readers.into_iter().map(|r| r.join().unwrap()).collect();
            (mutation_ms, read_stats)
        })
    })
    .unwrap();

    let total_reads: u64 = read_stats.iter().map(|(c, _)| c).sum();
    let worst_read = read_stats.iter().map(|(_, w)| *w).max().unwrap();
    assert!(
        total_reads > 100,
        "readers must be served while the writer grinds (got {total_reads})"
    );
    for (count, _) in &read_stats {
        assert!(*count > 0, "every reader connection made progress");
    }
    // The writer spent ~mutation_ms per event (allocator work); a read
    // must never wait for that. Generous bound: reads stay an order of
    // magnitude under one mutation, even with scheduler noise on a
    // 1-CPU container.
    assert!(
        mutation_ms >= 1.0,
        "fixture too small to discriminate ({mutation_ms:.2} ms/mutation)"
    );
    assert!(
        worst_read.as_secs_f64() * 1e3 <= mutation_ms * 10.0,
        "worst read {:.2} ms vs mutation {:.2} ms — reader blocked on writer?",
        worst_read.as_secs_f64() * 1e3,
        mutation_ms
    );
    assert_eq!(report.connections as usize, READERS + 1);
}

/// Protocol errors are answered (typed `rejected`), not dropped, and
/// the connection admission bound refuses extra connections with one
/// `overloaded` frame.
#[test]
fn bad_requests_and_connection_admission() {
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        max_connections: 1,
        ..dir.config(config(5, 2_000))
    };
    let ((), report) = serve(&graph, &probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        // Malformed frames: still a response per frame.
        match client.request(&Request::Mutate(OnlineEvent::Reallocate)) {
            Ok(Response::Accepted { .. }) => {}
            other => panic!("{other:?}"),
        }
        let resp = client.send_raw_frame(b"not json at all").unwrap();
        assert!(matches!(resp, Response::Rejected { .. }), "{resp:?}");

        // Second connection (the first is still open): refused.
        let mut second = Client::connect(handle.addr()).unwrap();
        match second.request(&Request::Stats) {
            Ok(Response::Overloaded { .. }) => {}
            Err(_) => {} // refusal may also surface as a closed socket
            other => panic!("admission bound not enforced: {other:?}"),
        }
    })
    .unwrap();
    assert_eq!(report.bad_requests, 1);
    assert!(report.connections_refused >= 1);
}

/// The wire `shutdown` request unblocks `wait_shutdown` — the
/// standalone binary's main-thread flow.
#[test]
fn wire_shutdown_unblocks_wait() {
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        ..dir.config(config(5, 2_000))
    };
    let ((), report) = serve(&graph, &probs, cfg, |handle| {
        std::thread::scope(|s| {
            let addr = handle.addr();
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.send_event(&arrival(1, 5.0, 0)).unwrap();
                client.shutdown_server().unwrap();
            });
            handle.wait_shutdown();
        });
    })
    .unwrap();
    assert_eq!(report.final_snapshot.epoch, 1, "drained before exit");
}

/// Ad queries answer from the snapshot: live ads return their slice,
/// unknown ids return null.
#[test]
fn ad_queries_serve_from_snapshot() {
    let (graph, probs) = setup(200, 3);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        ..dir.config(config(9, 4_000))
    };
    let ((), _) = serve(&graph, &probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .send_event_retrying(
                &arrival(7, 8.0, 0),
                Duration::from_millis(1),
                Duration::from_secs(30),
            )
            .unwrap();
        // Wait for the writer to publish the applied state.
        loop {
            match client.request(&Request::AdQuery { id: 7 }).unwrap() {
                Response::Ad { ad: Some(ad), .. } => {
                    assert_eq!(ad.id, 7);
                    assert_eq!(ad.budget, 8.0);
                    assert!(!ad.seeds.is_empty(), "allocated ad has seeds");
                    break;
                }
                Response::Ad { ad: None, .. } => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("{other:?}"),
            }
        }
        match client.request(&Request::AdQuery { id: 999 }).unwrap() {
            Response::Ad { ad: None, .. } => {}
            other => panic!("unknown ad must be null: {other:?}"),
        }
    })
    .unwrap();
}

/// The writer publishes its step with the seq it holds: waiting at the
/// recovered frontier before any event, and waiting again at the last
/// committed seq once the events are applied.
#[test]
fn the_writer_step_names_the_seq_it_holds() {
    let (graph, probs) = setup(200, 3);
    let dir = StateDir::new();
    let ((), _) = serve(&graph, &probs, dir.config(config(9, 4_000)), |handle| {
        assert_eq!(handle.writer_step(), (WriterStep::Waiting, 0));
        let mut client = Client::connect(handle.addr()).unwrap();
        for ev in [
            arrival(7, 8.0, 0),
            OnlineEvent::BudgetTopUp { id: 7, amount: 2.0 },
        ] {
            client
                .send_event_retrying(&ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.writer_step() != (WriterStep::Waiting, 2) {
            assert!(
                Instant::now() < deadline,
                "writer at {:?}",
                handle.writer_step()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    })
    .unwrap();
}

/// The `allocation` and `ad` frames a connection reads off the socket
/// are, byte for byte, `Response::encode` of the in-process snapshot at
/// the same epoch — on both connections, on a first and a repeated read
/// of each epoch, for live ads and misses alike — and once `stats` shows
/// an epoch, no connection is handed an older epoch's body.
#[test]
fn read_frames_are_the_encoding_of_the_epochs_snapshot() {
    use tirm_server::protocol::{read_frame, write_frame};
    let (graph, probs) = setup(200, 3);
    let online = config(9, 4_000);
    let events = [
        arrival(7, 8.0, 0),
        arrival(8, 5.0, 1),
        OnlineEvent::BudgetTopUp { id: 7, amount: 2.0 },
        OnlineEvent::AdDeparture { id: 8 },
    ];
    // The in-process snapshot at every epoch.
    let mut local = OnlineAllocator::new(&graph, &probs, online.clone());
    let mut at_epoch = vec![local.snapshot()];
    for ev in &events {
        local.process(ev).unwrap();
        at_epoch.push(local.snapshot());
    }
    let dir = StateDir::new();
    let cfg = dir.config(online);
    let ((), _) = serve(&graph, &probs, cfg, |handle| {
        let mut writer = Client::connect(handle.addr()).unwrap();
        let mut conns = [
            std::net::TcpStream::connect(handle.addr()).unwrap(),
            std::net::TcpStream::connect(handle.addr()).unwrap(),
        ];
        let raw = |conn: &mut std::net::TcpStream, req: Request| {
            write_frame(conn, req.encode().as_bytes()).unwrap();
            String::from_utf8(read_frame(conn).unwrap().unwrap()).unwrap()
        };
        for (ev, snap) in events.iter().zip(&at_epoch[1..]) {
            let epoch = snap.epoch;
            let sent = writer
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let stats = writer.stats().unwrap();
                if stats.epoch >= epoch {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "epoch {epoch} never shown: sent {sent:?}, {stats:?}, writer {:?}",
                    handle.writer_step()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let allocation = Response::Allocation((**snap).clone()).encode();
            for conn in &mut conns {
                for _ in 0..2 {
                    assert_eq!(raw(conn, Request::AllocationQuery), allocation);
                    for id in [7, 8, 99] {
                        let ad = snap.ad(id).cloned();
                        let miss = ad.is_none();
                        let body = raw(conn, Request::AdQuery { id });
                        assert_eq!(body, Response::Ad { epoch, ad }.encode());
                        assert_eq!(miss, body.ends_with("\"ad\":null}"), "{body}");
                    }
                }
            }
        }
    })
    .unwrap();
}

/// A `replicate_poll` parked on an idle durable leader, asking for the
/// longest hold there is (`u64::MAX` ms), is released by the stop:
/// `serve` returns within 1 s, not after the leader's own cap on a hold
/// (5 s) — a parked handler must never be the thread the scope join
/// waits on.
#[test]
fn shutdown_releases_a_parked_replicate_poll() {
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let cfg = dir.config(config(5, 2_000));
    let polls = &tirm_obs::registry::REPL_POLLS;
    std::thread::scope(|s| {
        let ((stop_began, parked), _report) = serve(&graph, &probs, cfg, |handle| {
            let addr = handle.addr();
            let before = polls.get();
            let parked = s.spawn(move || {
                Client::connect(addr)
                    .unwrap()
                    .replicate_poll(0, 1, u64::MAX)
            });
            // The handler counts the poll before it parks: from here on
            // it is either parked or about to be.
            while polls.get() == before {
                std::thread::sleep(Duration::from_millis(1));
            }
            (Instant::now(), parked)
        })
        .unwrap();
        let stop_took = stop_began.elapsed();
        assert!(
            stop_took < Duration::from_secs(1),
            "serve waited {stop_took:?} on a parked poll"
        );
        // The poll got its answer on the way out: caught up, no frames.
        match parked.join().unwrap().unwrap() {
            Response::ReplicateFrames {
                durable_seq: 0,
                frames,
                ..
            } => assert!(frames.is_empty()),
            other => panic!("{other:?}"),
        }
    });
}

/// A `replicate_poll` anchored at `u64::MAX` — a value the codec reads
/// exactly — gets a typed empty page instead of overflowing the
/// leader's trace-id arithmetic, and the leader keeps serving.
#[test]
fn a_poll_from_the_last_sequence_number_is_answered() {
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let cfg = dir.config(config(5, 2_000));
    let ((), _report) = serve(&graph, &probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        match client.replicate_poll(u64::MAX, 16, 0).unwrap() {
            Response::ReplicateFrames {
                start_seq,
                trace_base,
                frames,
                ..
            } => {
                assert_eq!(start_seq, u64::MAX);
                assert_eq!(trace_base, u64::MAX, "saturates");
                assert!(frames.is_empty());
            }
            other => panic!("{other:?}"),
        }
        client.send_event(&arrival(1, 5.0, 0)).unwrap();
        assert_eq!(client.stats().unwrap().accepted, 1, "still serving");
    })
    .unwrap();
}

/// Every bad value in a struct-literal config is a typed
/// `InvalidInput` from `serve` before anything binds — not a panic
/// mid-startup (κ = 0, a NaN λ) or at the first arrival (ε ≥ 1), and
/// not a server that accepts connections it can never answer
/// or checkpoints after every commit (`checkpoint_interval: 0`). Nothing is written to the state dir
/// either.
#[test]
fn serve_rejects_an_invalid_config_before_binding() {
    let (graph, probs) = setup(50, 3);
    // A port that was free a moment ago: nothing may be bound to it
    // after `serve` refused the config.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let dir = StateDir::new();
    type Spoil = fn(&mut ServerConfig);
    let bad: [(&str, Spoil); 8] = [
        ("queue_depth", |c| c.queue_depth = 0),
        ("max_connections", |c| c.max_connections = 0),
        ("checkpoint_interval", |c| c.checkpoint_interval = 0),
        ("segment_events", |c| c.segment_events = 0),
        ("state_dir", |c| c.state_dir = PathBuf::new()),
        ("online.kappa", |c| c.online.kappa = 0),
        ("online.lambda", |c| c.online.lambda = f64::NAN),
        ("online.tirm.eps", |c| c.online.tirm.eps = 1.0),
    ];
    for (field, spoil) in bad {
        let mut cfg = ServerConfig {
            bind: addr.to_string(),
            ..dir.config(config(5, 500))
        };
        spoil(&mut cfg);
        let err = serve(&graph, &probs, cfg, |_| panic!("{field}: served"))
            .err()
            .unwrap_or_else(|| panic!("{field}: accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{field}");
        assert!(err.to_string().contains(field), "{field}: {err}");
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "{field}: something is listening on {addr}"
        );
        assert!(!dir.0.exists(), "{field}: a refused run made its state dir");
    }
}

/// Blocks until the server counts `n` open connections (the asking
/// client's own included).
fn await_open_connections(client: &mut Client, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.stats().unwrap().connections < n {
        assert!(Instant::now() < deadline, "never {n} open connections");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A peer that sent two bytes of a frame header and stalled does not
/// hold the stop: its handler is woken and the unfinished frame cut at
/// once, so `serve` returns within 1 s of the closure's return, and the
/// peer reads EOF. The frame was never admitted, so nothing is lost.
#[test]
fn a_stalled_partial_frame_is_cut_at_the_stop() {
    use std::io::{Read, Write};
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let ((stop_began, mut stalled), report) =
        serve(&graph, &probs, dir.config(config(5, 2_000)), |handle| {
            let mut stalled = std::net::TcpStream::connect(handle.addr()).unwrap();
            stalled.write_all(&[7, 0]).unwrap();
            await_open_connections(&mut Client::connect(handle.addr()).unwrap(), 2);
            (Instant::now(), stalled)
        })
        .unwrap();
    let stop_took = stop_began.elapsed();
    assert!(
        stop_took < Duration::from_secs(1),
        "serve waited {stop_took:?} on a stalled partial frame"
    );
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(
        stalled.read(&mut [0u8; 1]).unwrap(),
        0,
        "the peer reads EOF"
    );
    assert_eq!((report.accepted, report.bad_requests), (0, 0));
}

/// A connection's socket closes when its handler exits: a peer the
/// server drops mid-run (an oversized length prefix) reads EOF at once,
/// while the server keeps serving, and an idle peer reads EOF once
/// `serve` has returned.
#[test]
fn a_connection_closes_when_its_handler_exits() {
    use std::io::{Read, Write};
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let (mut idle, _report) = serve(&graph, &probs, dir.config(config(5, 2_000)), |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        let idle = std::net::TcpStream::connect(handle.addr()).unwrap();
        await_open_connections(&mut client, 2);

        let mut dropped = std::net::TcpStream::connect(handle.addr()).unwrap();
        dropped.write_all(&u32::MAX.to_le_bytes()).unwrap();
        dropped
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let asked = Instant::now();
        assert_eq!(dropped.read(&mut [0u8; 1]).unwrap(), 0, "dropped, not held");
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "{:?}",
            asked.elapsed()
        );
        assert!(client.stats().is_ok(), "still serving");
        idle
    })
    .unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(
        idle.read(&mut [0u8; 1]).unwrap(),
        0,
        "the idle peer reads EOF"
    );
}

/// A leader whose commit fails ends the run instead of panicking:
/// `wait_shutdown` returns `false` (the writer ended it, nobody asked)
/// and `serve` returns the commit's error. Here the checkpoint after the
/// first commit cannot be written: the state dir has become a regular
/// file.
#[test]
fn a_failed_commit_ends_the_run_with_its_error() {
    let (graph, probs) = setup(120, 5);
    let dir = StateDir::new();
    let cfg = ServerConfig {
        checkpoint_interval: 1,
        ..dir.config(config(5, 2_000))
    };
    let mut requested = None;
    let served = serve(&graph, &probs, cfg, |handle| {
        std::fs::remove_dir_all(&dir.0).unwrap();
        std::fs::write(&dir.0, b"not a state dir").unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        match client.send_event(&arrival(1, 5.0, 0)).unwrap() {
            Response::Accepted { .. } => {}
            other => panic!("{other:?}"),
        }
        requested = Some(handle.wait_shutdown());
    });
    std::fs::remove_file(&dir.0).ok();
    assert_eq!(requested, Some(false), "the writer ended the run");
    assert!(served.is_err(), "serve returns the commit's error");
}
