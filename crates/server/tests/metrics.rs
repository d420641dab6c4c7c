//! Observability acceptance anchors: the `metrics` wire request and the
//! HTTP exposition endpoint both serve a registry dump covering the
//! core serving metrics, and the whole subsystem is **out-of-band** —
//! a scraper hammering the registry while the allocator grinds must
//! not perturb the allocation by a single bit.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tirm_core::TirmOptions;
use tirm_graph::{generators, DiGraph};
use tirm_online::{OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_server::{serve, Client, DurabilityConfig, Request, ServerConfig};
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
            max_theta_per_ad: Some(400),
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

fn mutations() -> Vec<OnlineEvent> {
    vec![
        arrival(1, 5.0, 0),
        arrival(2, 4.0, 1),
        OnlineEvent::BudgetTopUp { id: 1, amount: 2.0 },
        arrival(3, 6.0, 0),
        OnlineEvent::AdDeparture { id: 2 },
        arrival(4, 3.5, 1),
    ]
}

/// Value of a named key in an all-integer JSON object section.
fn section_u64(section: &serde_json::Value, key: &str) -> Option<u64> {
    section
        .as_object()?
        .iter()
        .find(|(k, _)| k.as_str() == key)
        .and_then(|(_, v)| v.as_u64())
}

/// Drive a durable server, then require the `metrics` wire request to
/// return a JSON dump covering the acceptance inventory — WAL fsync
/// latency, the shed counter, apply latency by event kind, the
/// delta-vs-full reconciliation counts, and the follower-lag gauge —
/// with the counters the run exercised visibly non-zero. The same
/// registry must also parse through the HTTP Prometheus endpoint.
#[test]
fn metrics_request_and_http_exposition_cover_the_core_inventory() {
    let (graph, probs) = setup(300, 11);
    let dir = std::env::temp_dir().join(format!("tirm_metrics_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServerConfig {
        online: config(7),
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let events = mutations();
    let (dump, _report) = serve(&graph, &probs, cfg, |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        for ev in &events {
            client
                .send_event_retrying(ev, Duration::from_micros(500), Duration::from_secs(30))
                .unwrap();
        }
        // Admission is asynchronous to application: drain the writer
        // before dumping, so the apply-side metrics are in the registry.
        let n = events.len() as u64;
        loop {
            let s = client.stats().unwrap();
            if s.queue_depth == 0 && s.epoch >= n {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        client.metrics().unwrap()
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let v: serde_json::Value = serde_json::from_str(&dump).expect("metrics dump must be JSON");
    let obj = v.as_object().expect("dump is an object");
    let section = |name: &str| {
        obj.iter()
            .find(|(k, _)| k.as_str() == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("dump missing section {name:?}"))
    };
    let counters = section("counters");
    let gauges = section("gauges");
    let histograms = section("histograms");

    // Counters the run exercised must be visibly non-zero: the top-up
    // re-runs a standing ad (remembered KPT answers), and every arrival
    // sums its own and builds its threshold table.
    for name in [
        "tirm_server_accepted_total",
        "tirm_rrset_rr_sets_sampled_total",
        "tirm_kpt_estimates_total{result=\"hit\"}",
        "tirm_kpt_estimates_total{result=\"miss\"}",
        "tirm_fastpath_builds_total",
    ] {
        let v = section_u64(&counters, name);
        assert!(v.is_some_and(|v| v > 0), "{name} missing or zero: {v:?}");
    }
    // The rest of the acceptance inventory must at least be covered by
    // the dump (their values are workload-dependent).
    assert!(
        section_u64(&counters, "tirm_server_shed_total").is_some(),
        "shed counter not covered"
    );
    assert!(
        section_u64(&counters, "tirm_server_allocation_renders_total").is_some(),
        "allocation render counter not covered"
    );
    let reconciliations = section_u64(&counters, "tirm_online_delta_reconciliations_total")
        .zip(section_u64(
            &counters,
            "tirm_online_full_reconciliations_total",
        ))
        .expect("delta-vs-full reconciliation counts not covered");
    assert!(
        reconciliations.0 + reconciliations.1 > 0,
        "six mutations must reconcile at least once: {reconciliations:?}"
    );
    assert!(
        section_u64(&counters, "tirm_online_resumed_reconciliations_total").is_some(),
        "resumed reconciliation count not covered"
    );
    assert!(
        section_u64(&gauges, "tirm_repl_follower_lag_frames").is_some(),
        "follower lag gauge not covered"
    );
    assert!(
        section_u64(&gauges, "tirm_server_checkpoint_bytes").is_some(),
        "checkpoint size gauge not covered"
    );
    assert!(
        section_u64(&counters, "tirm_online_restore_sets_regenerated_total").is_some(),
        "restore's redrawn-set counter not covered"
    );
    let hist_count = |name: &str| {
        histograms
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k.as_str() == name)
            .and_then(|(_, h)| section_u64(h, "count"))
    };
    assert!(
        hist_count("tirm_server_wal_fsync_latency_ns").is_some_and(|c| c > 0),
        "durable run must have recorded WAL fsyncs"
    );
    assert!(
        hist_count("tirm_online_restore_regenerate_ns").is_some(),
        "restore's regeneration time not covered"
    );
    assert!(
        hist_count("tirm_online_resume_skipped_steps").is_some(),
        "steps skipped by resumed reconciliations not covered"
    );
    assert!(
        hist_count("tirm_online_apply_latency_ns{kind=\"arrival\"}").is_some_and(|c| c > 0),
        "apply latency must be split by event kind"
    );
    // One record per phase per TIRM run: the phases share a count.
    let phase_counts: Vec<Option<u64>> = tirm_obs::registry::CORE_PHASES
        .iter()
        .map(|p| hist_count(&format!("tirm_core_phase_ns{{phase=\"{p}\"}}")))
        .collect();
    assert!(
        phase_counts[0].is_some_and(|c| c > 0)
            && phase_counts.iter().all(|c| *c == phase_counts[0]),
        "tirm_run must record every phase once per run: {phase_counts:?}"
    );

    // The same registry through the HTTP endpoint, as Prometheus text.
    let srv = tirm_obs::http::serve("127.0.0.1:0").unwrap();
    let text = tirm_obs::http::fetch(srv.addr(), "/metrics", Duration::from_secs(5)).unwrap();
    let samples = tirm_obs::prom::parse(&text).expect("exposition must parse");
    assert!(
        tirm_obs::prom::sample_value(&samples, "tirm_server_accepted_total")
            .is_some_and(|v| v > 0.0),
        "HTTP exposition must serve the same non-zero counters"
    );
    // And the structured dump over HTTP round-trips as JSON too.
    let json = tirm_obs::http::fetch(srv.addr(), "/metrics.json", Duration::from_secs(5)).unwrap();
    serde_json::from_str(&json).expect("/metrics.json must be JSON");

    // The flight recorder saw the same run: /trace.json parses as
    // Chrome trace-event JSON and holds at least one mutation whose
    // full durable lifecycle (admit → queue → wal_append → fsync →
    // apply → publish) is reconstructable.
    let trace = tirm_obs::http::fetch(srv.addr(), "/trace.json", Duration::from_secs(5)).unwrap();
    let tv: serde_json::Value = serde_json::from_str(&trace).expect("/trace.json must be JSON");
    let field = |v: &serde_json::Value, key: &str| {
        v.as_object().and_then(|o| {
            o.iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| v.clone())
        })
    };
    let events = field(&tv, "traceEvents")
        .and_then(|v| v.as_array().map(<[serde_json::Value]>::to_vec))
        .expect("traceEvents must be an array");
    let durable = ["admit", "queue", "wal_append", "fsync", "apply", "publish"];
    let mut complete = std::collections::HashMap::<u64, std::collections::HashSet<&str>>::new();
    for e in &events {
        let trace_id = field(e, "args")
            .and_then(|a| field(&a, "trace"))
            .and_then(|t| t.as_u64())
            .unwrap_or(0);
        let name = field(e, "name").and_then(|n| n.as_str().map(str::to_owned));
        if let Some(name) = name {
            if let Some(stage) = durable.iter().find(|s| **s == name) {
                complete.entry(trace_id).or_default().insert(stage);
            }
        }
    }
    assert!(
        complete
            .values()
            .any(|stages| stages.len() == durable.len()),
        "no mutation has a complete durable lifecycle in /trace.json"
    );
}

/// `allocation` bodies are rendered by the first read of an epoch and
/// shared by every connection after it — and never at publish, so a run
/// that never asks for the allocation renders none. (No other test in
/// this binary reads `allocation`, so the process-wide counter moves
/// only with this one.)
#[test]
fn allocation_bodies_render_at_most_once_per_epoch_read() {
    let renders = &tirm_obs::registry::SERVER_ALLOCATION_RENDERS;
    let (graph, probs) = setup(250, 31);
    let events = mutations();
    let cfg = || ServerConfig {
        online: config(5),
        ..ServerConfig::default()
    };
    let send = |client: &mut Client, ev: &OnlineEvent| {
        client
            .send_event_retrying(ev, Duration::from_micros(500), Duration::from_secs(30))
            .unwrap();
    };

    // Every mutation publishes; nobody reads the allocation.
    let before = renders.get();
    let ((), _) = serve(&graph, &probs, cfg(), |handle| {
        let mut client = Client::connect(handle.addr()).unwrap();
        for ev in &events {
            send(&mut client, ev);
            client.regret().unwrap();
            client.request(&Request::AdQuery { id: 1 }).unwrap();
        }
        while client.stats().unwrap().epoch < events.len() as u64 {
            std::thread::sleep(Duration::from_millis(2));
        }
    })
    .unwrap();
    assert_eq!(renders.get(), before, "an unread epoch was rendered");

    // Two connections read the allocation three times after every
    // mutation, racing the writer's publishes.
    let before = renders.get();
    let (epochs_read, _) = serve(&graph, &probs, cfg(), |handle| {
        let mut writer = Client::connect(handle.addr()).unwrap();
        let mut readers = [
            Client::connect(handle.addr()).unwrap(),
            Client::connect(handle.addr()).unwrap(),
        ];
        let mut epochs = BTreeSet::new();
        for ev in &events {
            send(&mut writer, ev);
            for _ in 0..3 {
                for reader in &mut readers {
                    epochs.insert(reader.allocation().unwrap().epoch);
                }
            }
        }
        epochs
    })
    .unwrap();
    let rendered = renders.get() - before;
    assert!(
        rendered >= 1 && rendered <= epochs_read.len() as u64,
        "{rendered} renders for {} distinct epochs read: {epochs_read:?}",
        epochs_read.len()
    );
}

/// The zero-perturbation anchor: two identical in-process runs — the
/// second with a scraper thread hammering the exposition endpoint the
/// whole time — produce bit-identical allocations. Metrics are
/// write-only from the hot path and exposition only reads, so
/// observability must never move a revenue bit.
#[test]
fn run_twice_with_a_live_scraper_is_bit_identical() {
    let (graph, probs) = setup(250, 23);
    let events = mutations();

    let mut first = OnlineAllocator::new(&graph, &probs, config(9));
    for ev in &events {
        let _ = first.process(ev);
    }
    let want = first.snapshot();

    let srv = tirm_obs::http::serve("127.0.0.1:0").unwrap();
    let stop = AtomicBool::new(false);
    let got = std::thread::scope(|s| {
        s.spawn(|| {
            // Alternate the text exposition and the flight-recorder
            // dump: both must be read-only toward the allocation.
            while !stop.load(Ordering::Acquire) {
                let _ = tirm_obs::http::fetch(srv.addr(), "/metrics", Duration::from_secs(5));
                let _ = tirm_obs::http::fetch(srv.addr(), "/trace.json", Duration::from_secs(5));
            }
        });
        let mut second = OnlineAllocator::new(&graph, &probs, config(9));
        for ev in &events {
            let _ = second.process(ev);
        }
        stop.store(true, Ordering::Release);
        second.snapshot()
    });

    assert!(
        got.same_allocation(&want),
        "a concurrent scraper perturbed the allocation: regret {} vs {}",
        got.regret_estimate,
        want.regret_estimate
    );
}
