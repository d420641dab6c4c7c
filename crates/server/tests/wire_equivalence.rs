//! The serving frontend's correctness anchor: replaying an event log
//! through the server — mutations sent over the wire in order, with
//! retry-on-overload so every one is eventually admitted — lands on a
//! final [`AllocationSnapshot`] **bit-identical** (allocations *and*
//! revenue estimates, compared on f64 bits) to `tirm_online` replaying
//! the same log in-process. The network layer changes *where* events
//! come from, never what is computed.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_online::{AdId, AllocationSnapshot, OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::{serve, Client, ServerConfig};
use tirm_topics::{genprob, TopicDist, TopicEdgeProbs};

/// Abstract op; the harness maps it onto a *mostly valid* event stream
/// against the live-ad model (`which` indexes the live set modulo its
/// size). `BadTopUp` targets an id that never existed — both replay
/// paths must reject it identically (no epoch bump, no state change).
#[derive(Clone, Debug)]
enum Op {
    Arrive { budget: u32, topic: u8, ctp: u8 },
    TopUp { which: usize, amount: u32 },
    Depart { which: usize },
    Query,
    BadTopUp,
    Reallocate,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op =
        (0u8..12, 2u32..24, 0u8..6, 0usize..6).prop_map(|(kind, mag, flavour, which)| match kind {
            0..=4 => Op::Arrive {
                budget: mag,
                topic: flavour % 2,
                ctp: flavour % 3,
            },
            5 | 6 => Op::TopUp {
                which,
                amount: mag / 2 + 1,
            },
            7 | 8 => Op::Depart { which },
            9 => Op::Query,
            10 => Op::BadTopUp,
            _ => Op::Reallocate,
        });
    proptest::collection::vec(op, 1..10)
}

fn quick_opts(seed: u64) -> TirmOptions {
    TirmOptions {
        eps: 0.3,
        seed,
        max_theta_per_ad: Some(2_500),
        ..TirmOptions::default()
    }
}

fn ctp_of(code: u8) -> f32 {
    [1.0, 0.5, 0.05][code as usize % 3]
}

fn setup(seed: u64) -> (DiGraph, TopicEdgeProbs) {
    let graph = generators::preferential_attachment(120, 3, 0.3, seed ^ 0x9a9a);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, seed ^ 0x77);
    (graph, probs)
}

/// Lowers ops to concrete events exactly like the in-process
/// `replay_equivalence` harness does.
fn lower(ops: &[Op]) -> Vec<OnlineEvent> {
    let mut live: Vec<AdId> = Vec::new();
    let mut next_id: AdId = 1;
    let mut events = Vec::new();
    for op in ops {
        let event = match op {
            Op::Arrive { budget, topic, ctp } => {
                let id = next_id;
                next_id += 1;
                live.push(id);
                OnlineEvent::AdArrival {
                    id,
                    budget: *budget as f64,
                    cpe: 1.5,
                    topics: TopicDist::single(2, *topic as usize),
                    ctp: ctp_of(*ctp),
                }
            }
            Op::TopUp { which, amount } => {
                if live.is_empty() {
                    continue;
                }
                OnlineEvent::BudgetTopUp {
                    id: live[which % live.len()],
                    amount: *amount as f64,
                }
            }
            Op::Depart { which } => {
                if live.is_empty() {
                    continue;
                }
                let i = which % live.len();
                OnlineEvent::AdDeparture { id: live.remove(i) }
            }
            Op::Query => OnlineEvent::RegretQuery,
            Op::BadTopUp => OnlineEvent::BudgetTopUp {
                id: 999_999,
                amount: 1.0,
            },
            Op::Reallocate => OnlineEvent::Reallocate,
        };
        events.push(event);
    }
    events
}

fn config(seed: u64, kappa: u32, lambda: f64) -> OnlineConfig {
    OnlineConfig {
        tirm: quick_opts(seed),
        kappa,
        lambda,
        ..OnlineConfig::default()
    }
}

/// In-process ground truth: replay and snapshot.
fn inprocess_final(
    graph: &DiGraph,
    probs: &TopicEdgeProbs,
    events: &[OnlineEvent],
    seed: u64,
    kappa: u32,
    lambda: f64,
) -> std::sync::Arc<AllocationSnapshot> {
    let mut a = OnlineAllocator::new(graph, probs, config(seed, kappa, lambda));
    for ev in events {
        let _ = a.process(ev); // invalid events rejected, like the server
    }
    a.snapshot()
}

/// Replays `events` through a real server over loopback TCP and returns
/// (drained final snapshot, last wire-read allocation).
fn server_final(
    graph: &DiGraph,
    probs: &TopicEdgeProbs,
    events: &[OnlineEvent],
    seed: u64,
    kappa: u32,
    lambda: f64,
    queue_depth: usize,
) -> (std::sync::Arc<AllocationSnapshot>, AllocationSnapshot) {
    // A fresh state dir per case: every server logs what it admits.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tirm_wire_eq_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServerConfig {
        online: config(seed, kappa, lambda),
        queue_depth,
        ..ServerConfig::new(&dir)
    };
    let (wire_alloc, report) = serve(graph, probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        // A second connection reads concurrently while mutations stream:
        // queries must never disturb the write path.
        let mut reader = Client::connect(handle.addr()).expect("connect reader");
        for ev in events {
            client
                .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(30))
                .expect("event delivery");
            let (epoch, regret) = reader.regret().expect("read path");
            assert!(regret.is_finite());
            assert!(epoch <= events.len() as u64);
        }
        // Wire view of the allocation after the writer catches up. Every
        // event above was admitted before its call returned, and the
        // writer releases an event's queue slot only after publishing
        // what it did — so first wait for the queue to be empty, then
        // read. (The epoch cannot be the signal: a rejected last event
        // bumps none.)
        while handle.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        reader.allocation().expect("allocation query")
    })
    .expect("serve");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.bad_requests, 0);
    (report.final_snapshot, wire_alloc)
}

fn check(ops: &[Op], seed: u64, kappa: u32, lambda: f64, queue_depth: usize) {
    let (graph, probs) = setup(seed);
    let events = lower(ops);
    if events.is_empty() {
        return;
    }
    let expect = inprocess_final(&graph, &probs, &events, seed, kappa, lambda);
    let (drained, wire_view) =
        server_final(&graph, &probs, &events, seed, kappa, lambda, queue_depth);
    assert!(
        drained.same_allocation(&expect),
        "server-drained snapshot diverged from in-process replay\n  server: {}\n  local:  {}",
        drained.to_json(),
        expect.to_json()
    );
    assert!(
        wire_view.same_allocation(&expect),
        "wire-decoded allocation diverged\n  wire:  {}\n  local: {}",
        wire_view.to_json(),
        expect.to_json()
    );
    // Counter cross-check: every applied or rejected event was admitted.
    assert_eq!(drained.epoch, expect.epoch);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The anchor: interleaved arrivals / top-ups / departures /
    /// reallocates (plus invalid events and concurrent reads) replayed
    /// over the wire ≡ in-process, bit for bit.
    #[test]
    fn wire_replay_equals_inprocess_replay(
        ops in arb_ops(),
        seed in 0u64..100,
        kappa in 1u32..=2,
    ) {
        check(&ops, seed, kappa, 0.0, 16);
    }

    /// Same anchor under admission pressure: a queue bound of 1 forces
    /// the retry path constantly; delivery order (one connection, FIFO
    /// channel) still makes the result deterministic.
    #[test]
    fn wire_replay_survives_tiny_queues(
        ops in arb_ops(),
        seed in 100u64..140,
    ) {
        check(&ops, seed, 2, 0.05, 1);
    }
}

/// Deterministic interleaving exercising every event type, κ = 1
/// (guaranteed contention) — the debuggable anchor next to the property
/// tests.
#[test]
fn fixed_interleaving_matches_inprocess() {
    let ops = [
        Op::Arrive {
            budget: 10,
            topic: 0,
            ctp: 0,
        },
        Op::Arrive {
            budget: 8,
            topic: 1,
            ctp: 1,
        },
        Op::TopUp {
            which: 0,
            amount: 6,
        },
        Op::Query,
        Op::BadTopUp,
        Op::Depart { which: 1 },
        Op::Arrive {
            budget: 5,
            topic: 1,
            ctp: 2,
        },
        Op::Reallocate,
    ];
    check(&ops, 42, 1, 0.0, 4);
}
