//! Overload soak (nightly; run with `-- --ignored server_soak`):
//! calibrate the server's sustainable mutation rate, then drive it
//! **open-loop at 2× that rate** for `TIRM_SOAK_SECS` (default 60)
//! while readers poll. Asserts the pillars of the overload story:
//!
//! * the write queue stays **bounded** (≤ depth + 1 in-flight) — load
//!   is shed, never buffered without limit;
//! * **zero panics / protocol failures** — every offered request gets
//!   a typed response, `serve` returns cleanly;
//! * the ledger balances: offered = accepted + shed, and every
//!   accepted mutation was applied (epoch + allocator-rejected =
//!   accepted) — the drain guarantee under an hour of abuse is the
//!   same one the quick tests pin for six events;
//! * the **shed rate is reported** (stderr + asserted > 0: a server
//!   driven at 2× sustainable that never sheds is buffering
//!   somewhere).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tirm_core::TirmOptions;
use tirm_online::OnlineConfig;
use tirm_server::{serve, Client, Response, ServerConfig};
use tirm_workloads::events::EventStreamSpec;
use tirm_workloads::{Dataset, DatasetKind, ProbModel, ScaleConfig};

const QUEUE_DEPTH: usize = 16;

fn soak_secs() -> f64 {
    std::env::var("TIRM_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0)
}

#[test]
#[ignore = "long-running overload soak; nightly runs it with --ignored"]
fn server_soak() {
    let scale = ScaleConfig {
        scale: 0.08,
        eval_runs: 0,
        threads: 1,
    };
    let dataset = Dataset::generate_with_model(
        DatasetKind::Epinions,
        ProbModel::Exponential,
        &scale,
        0x50ac,
    );
    let opts = TirmOptions {
        eps: 0.2,
        seed: 0x50ac,
        max_theta_per_ad: Some(50_000),
        ..TirmOptions::default()
    };
    let dir = std::env::temp_dir().join(format!("tirm_overload_soak_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServerConfig {
        online: OnlineConfig {
            tirm: opts,
            kappa: 2,
            ..OnlineConfig::default()
        },
        queue_depth: QUEUE_DEPTH,
        ..ServerConfig::new(&dir)
    };

    // One long event stream: a calibration prefix (closed-loop with
    // retry, measuring sustainable throughput) and an overdrive body.
    let secs = soak_secs();
    let stream = EventStreamSpec::for_dataset(DatasetKind::Epinions, 100_000, 0xab1e);
    let log = stream.generate(dataset.size_ratio);
    const CALIBRATION_EVENTS: usize = 40;

    let (driven, report) = serve(&dataset.graph, &dataset.topic_probs, cfg, |handle| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Readers poll stats throughout; their queue-depth samples
            // independently witness the bound.
            let sampler = {
                let stop = &stop;
                let addr = handle.addr();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut max_depth_seen = 0usize;
                    let mut samples = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let stats = client.stats().unwrap();
                        max_depth_seen = max_depth_seen.max(stats.queue_depth);
                        samples += 1;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    (max_depth_seen, samples)
                })
            };

            let mut client = Client::connect(handle.addr()).unwrap();
            let mut events = log.iter().map(|e| &e.event);

            // Calibration: closed-loop with retry ⇒ sustainable rate.
            let t0 = Instant::now();
            for ev in events.by_ref().take(CALIBRATION_EVENTS) {
                client
                    .send_event_retrying(ev, Duration::from_millis(1), Duration::from_secs(60))
                    .unwrap();
            }
            while handle.queue_depth() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let sustainable = CALIBRATION_EVENTS as f64 / t0.elapsed().as_secs_f64();

            // Overdrive: open-loop Poisson at 2× sustainable. Arrivals
            // fire on the clock's schedule whether or not the last
            // response liked it — that is what open-loop means.
            let target = 2.0 * sustainable;
            let mut rng = SmallRng::seed_from_u64(0xd21f7);
            let t0 = Instant::now();
            let deadline = Duration::from_secs_f64(secs);
            let mut next = Duration::ZERO;
            let (mut offered, mut accepted, mut shed) = (0u64, 0u64, 0u64);
            for ev in events {
                let gap: f64 = rng.gen::<f64>().max(1e-12);
                next += Duration::from_secs_f64(-gap.ln() / target);
                if next >= deadline {
                    break;
                }
                let now = t0.elapsed();
                if next > now {
                    std::thread::sleep(next - now);
                }
                offered += 1;
                match client.send_event(ev).unwrap() {
                    Response::Accepted { queue_depth, .. } => {
                        assert!(
                            queue_depth <= QUEUE_DEPTH + 1,
                            "queue depth {queue_depth} broke the bound"
                        );
                        accepted += 1;
                    }
                    Response::Overloaded { .. } => shed += 1,
                    Response::Regret { .. } => {} // stream queries ride along
                    other => panic!("unexpected response: {other:?}"),
                }
            }
            stop.store(true, Ordering::Release);
            let (sampled_max_depth, samples) = sampler.join().unwrap();
            (
                sustainable,
                target,
                offered,
                accepted,
                shed,
                sampled_max_depth,
                samples,
            )
        })
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let (sustainable, target, offered, accepted, shed, sampled_max_depth, samples) = driven;
    let mutations = accepted + shed; // regret queries ride the stream but aren't offered load
    eprintln!(
        "soak: sustainable {sustainable:.1} ev/s, driven at {target:.1} ev/s for {secs:.0}s | \
         offered {offered} ({mutations} mutations), accepted {accepted}, shed {shed} \
         (shed rate {:.1}%) | max queue depth {} (server) / {} ({} reader samples)",
        report.shed_rate() * 100.0,
        report.max_queue_depth,
        sampled_max_depth,
        samples,
    );

    // Bounded queue, zero panics (serve returned Ok), balanced ledger.
    assert!(
        report.max_queue_depth <= QUEUE_DEPTH + 1,
        "unbounded queue growth: {}",
        report.max_queue_depth
    );
    assert!(sampled_max_depth <= QUEUE_DEPTH + 1);
    // Server-side totals include calibration traffic and its retries;
    // the client-side overdrive ledger is a lower bound on both sides.
    assert!(report.accepted >= accepted && report.shed >= shed);
    assert!(mutations <= offered);
    assert_eq!(
        report.final_snapshot.epoch + report.rejected,
        report.accepted,
        "every accepted mutation must be applied or allocator-rejected"
    );
    assert!(
        shed > 0,
        "2× overdrive against a bounded queue must shed load"
    );
    assert_eq!(report.bad_requests, 0);
}
