//! Group commit end to end: a pipelined burst against a durable leader
//! is drained in batches — fewer fsyncs than events, each batch applied
//! and published once — while the queue stays within `depth + 1`, every
//! mutation of a batch keeps a complete lifecycle in `/trace.json`, and
//! the drained state is the in-process replay of the admitted order.
//!
//! One test in its own binary: trace ids are WAL positions, and the
//! flight recorder is process-wide, so a second server in this process
//! would write the same ids.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;
use tirm_core::TirmOptions;
use tirm_graph::generators;
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::protocol::{read_frame, write_frame};
use tirm_server::{serve, Client, Request, Response, ServerConfig};
use tirm_topics::{genprob, TopicDist};

const QUEUE_DEPTH: usize = 4;
const EVENTS: u64 = 24;

fn config() -> OnlineConfig {
    OnlineConfig {
        tirm: TirmOptions {
            eps: 0.45,
            seed: 17,
            max_theta_per_ad: Some(400),
            ..TirmOptions::default()
        },
        kappa: 2,
        ..OnlineConfig::default()
    }
}

/// Writes every event back to back on one connection before reading a
/// single answer, then re-sends what was shed, until all are admitted.
/// Returns the events in the order they were admitted (one connection's
/// admissions are sequential, so that is their log order) and the
/// number of sheds.
fn pipelined_burst(addr: std::net::SocketAddr, events: &[OnlineEvent]) -> (Vec<OnlineEvent>, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let (mut admitted, mut sheds) = (Vec::new(), 0);
    let mut pending = events.to_vec();
    while !pending.is_empty() {
        for ev in &pending {
            let frame = Request::Mutate(ev.clone()).encode();
            write_frame(&mut stream, frame.as_bytes()).unwrap();
        }
        stream.flush().unwrap();
        let mut shed = Vec::new();
        for ev in pending {
            let frame = read_frame(&mut stream).unwrap().expect("server closed");
            match Response::decode(&frame).unwrap() {
                Response::Accepted { .. } => admitted.push(ev),
                Response::Overloaded { .. } => shed.push(ev),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        sheds += shed.len() as u64;
        pending = shed;
        std::thread::sleep(Duration::from_millis(1));
    }
    (admitted, sheds)
}

/// Stage names per trace id in a Chrome trace-event dump.
fn stages_by_trace(chrome_json: &str) -> HashMap<u64, Vec<(String, u64, u64)>> {
    let v: serde_json::Value = serde_json::from_str(chrome_json).expect("/trace.json is JSON");
    let field = |v: &serde_json::Value, key: &str| {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k.as_str() == key))
            .map(|(_, v)| v.clone())
    };
    let mut out: HashMap<u64, Vec<(String, u64, u64)>> = HashMap::new();
    let events = field(&v, "traceEvents").expect("traceEvents");
    for e in events.as_array().expect("traceEvents is an array") {
        let trace = field(e, "args")
            .and_then(|a| field(&a, "trace"))
            .and_then(|t| t.as_u64())
            .unwrap_or(0);
        let name = field(e, "name").and_then(|n| n.as_str().map(str::to_owned));
        let ts = field(e, "ts").and_then(|t| t.as_f64()).unwrap_or(0.0);
        let dur = field(e, "dur").and_then(|t| t.as_f64()).unwrap_or(0.0);
        if let Some(name) = name {
            out.entry(trace)
                .or_default()
                .push((name, ts.to_bits(), dur.to_bits()));
        }
    }
    out
}

#[test]
fn a_pipelined_burst_commits_in_groups() {
    let graph = generators::preferential_attachment(200, 3, 0.3, 5);
    let probs = genprob::exponential_topic_probs(graph.num_edges(), 2, 8.0, 5 ^ 0x77);
    let dir = std::env::temp_dir().join(format!("tirm_group_commit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Arrivals of distinct ids are valid in any order, so every admitted
    // event is applied and published whatever the sheds reordered.
    let events: Vec<OnlineEvent> = (1..=EVENTS)
        .map(|id| OnlineEvent::AdArrival {
            id,
            budget: 2.0 + (id % 5) as f64,
            cpe: 1.0,
            topics: TopicDist::single(2, (id % 2) as usize),
            ctp: 0.5,
        })
        .collect();
    let cfg = ServerConfig {
        online: config(),
        queue_depth: QUEUE_DEPTH,
        ..ServerConfig::new(&dir)
    };

    let ((admitted, sheds, trace), report) = serve(&graph, &probs, cfg, |handle| {
        let (admitted, sheds) = pipelined_burst(handle.addr(), &events);
        let mut client = Client::connect(handle.addr()).unwrap();
        while client.stats().unwrap().epoch < EVENTS {
            std::thread::sleep(Duration::from_millis(2));
        }
        (admitted, sheds, client.trace_dump().unwrap())
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // The burst outran the writer, and the count bound held.
    assert!(
        sheds > 0,
        "a burst of {EVENTS} against depth {QUEUE_DEPTH} must shed"
    );
    assert_eq!(report.shed, sheds);
    assert!(
        report.max_queue_depth <= QUEUE_DEPTH + 1,
        "queue depth bounded by depth + 1, got {}",
        report.max_queue_depth
    );

    // Every mutation keeps its complete durable lifecycle, and batches
    // shared their fsync: fewer fsyncs than events.
    let traces = stages_by_trace(&trace);
    let durable = ["admit", "queue", "wal_append", "fsync", "apply", "publish"];
    let mut fsyncs = HashSet::new();
    for id in 1..=EVENTS {
        let spans = traces.get(&id).map(Vec::as_slice).unwrap_or_default();
        let names: HashSet<&str> = spans.iter().map(|(n, _, _)| n.as_str()).collect();
        for stage in durable {
            assert!(names.contains(stage), "trace {id} lacks {stage}: {names:?}");
        }
        fsyncs.extend(
            spans
                .iter()
                .filter(|(n, _, _)| n == "fsync")
                .map(|s| (s.1, s.2)),
        );
    }
    assert!(
        fsyncs.len() < EVENTS as usize,
        "{} fsyncs for {EVENTS} events: nothing was grouped",
        fsyncs.len()
    );

    // The drained state is the in-process replay of the admitted order.
    let mut local = OnlineAllocator::new(&graph, &probs, config());
    for ev in &admitted {
        local.process(ev).unwrap();
    }
    assert_eq!(report.rejected, 0);
    assert!(
        report.final_snapshot.same_allocation(&local.snapshot()),
        "drained state diverged from the admitted order"
    );
}
