//! The cost ladder: the same inputs the served rounds used, replayed
//! inside this process through each layer's public entry points, one
//! span per call. The untraced form of the replay is the oracle of the
//! `wire ≡ in-process` check every serving run makes.

use crate::batch;
use crate::estimators::median;
use crate::inputs::{Inputs, Workload, PROGRAM_THREADS};
use crate::report::Metrics;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tirm_core::{
    evaluate_rr, tirm_allocate_warm, AdSeeds, Advertiser, Attention, ProblemInstance,
    SamplingConfig, TirmOptions,
};
use tirm_online::{AllocationSnapshot, EventKind, OnlineAllocator, OnlineConfig, OnlineEvent};
use tirm_rrset::{
    FastPath, KptEstimator, ParallelSampler, RrSampler, SamplingLayout, WeightedRrCollection,
};
use tirm_server::wal::{self, ReplicaBatch, Wal};
use tirm_topics::{CtpTable, TopicDist};
use tirm_wire::{
    hex_decode, hex_encode, read_frame, write_frame, Request, Response, Role, StatsView,
};
use tirm_workloads::events::{event_from_value, event_json_fields};
use tirm_workloads::{final_population, Dataset, LogEvent};

/// Track of the ladder's spans in the trace file (0 is the served round).
pub const LADDER_TRACK: u32 = 1;
/// Span wrapping everything the ladder does for one op; its self time is
/// the benchmark's own bookkeeping and is left out of attributions.
pub const OP_SPAN: &str = "op";

/// Durations in microseconds, by sample key.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn p50(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |v| median(v))
    }
}

/// Runs `f` under a span named `span` and files its duration under `key`.
fn timed<T>(
    tr: &mut Tracer,
    samples: &mut Samples,
    span: &'static str,
    key: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    let h = tr.begin(span, op);
    let t = Instant::now();
    let out = f();
    let us = t.elapsed().as_secs_f64() * 1e6;
    tr.end(h);
    samples.0.entry(key).or_default().push(us);
    out
}

/// Median duration of `reps` calls of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&runs)
}

/// What the ladder hands back.
pub struct LadderOut {
    /// The per-layer metrics the ladder measured (traced form only).
    pub metrics: Metrics,
    /// Ladder self time per measured op position, nanoseconds.
    pub ladder_ns_per_op: Vec<u64>,
    /// `OnlineAllocator::process` time per measured op position.
    pub process_ns_per_op: Vec<u64>,
}

/// The allocator configuration the program derives for these inputs.
pub fn online_config(inputs: &Inputs) -> OnlineConfig {
    tirm_server::serving_online_config(
        inputs.kind,
        &inputs.scale_config(),
        inputs.kappa,
        inputs.lambda,
        inputs.dataset_seed,
    )
}

/// The oracle of every served run: every mutation of a round through
/// `OnlineAllocator::process`, nothing else. Returns the final standing
/// allocation — the served one has to be `same_allocation` to it — and
/// the paper's objective averaged over the states the measured
/// mutations (those after the preload) publish.
pub fn replay(inputs: &Inputs, dataset: &Dataset) -> (Arc<AllocationSnapshot>, f64) {
    let mut allocator =
        OnlineAllocator::new(&dataset.graph, &dataset.topic_probs, online_config(inputs));
    let mut regrets = Vec::new();
    for (i, ev) in inputs.all_events().enumerate() {
        allocator
            .process(ev)
            .expect("generated logs hold only valid events");
        if i >= inputs.preload.len() {
            regrets.push(crate::run::snapshot_regret(&allocator.snapshot()));
        }
    }
    let mean = regrets.iter().sum::<f64>() / regrets.len().max(1) as f64;
    (allocator.snapshot(), mean)
}

/// One replica of the ladder: an allocator behind its own WAL.
struct Replica<'g> {
    allocator: OnlineAllocator<'g>,
    log: Wal,
    dir: std::path::PathBuf,
    since_checkpoint: u64,
}

impl<'g> Replica<'g> {
    fn new(dataset: &'g Dataset, inputs: &Inputs, dir: std::path::PathBuf) -> io::Result<Self> {
        Ok(Replica {
            allocator: OnlineAllocator::new(
                &dataset.graph,
                &dataset.topic_probs,
                online_config(inputs),
            ),
            log: Wal::open(&dir, 0, inputs.segment_events)?,
            dir,
            since_checkpoint: 0,
        })
    }

    /// append → fsync → apply → snapshot, as the writer loop orders them,
    /// then the periodic checkpoint when one is due.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &mut self,
        ev: &OnlineEvent,
        inputs: &Inputs,
        tr: &mut Tracer,
        samples: &mut Samples,
        keys: &ReplicaKeys,
        op: u64,
    ) -> io::Result<u64> {
        timed(tr, samples, "Wal::append", keys.append, op, || {
            self.log.append(ev)
        })?;
        timed(tr, samples, "Wal::sync", keys.sync, op, || self.log.sync())?;
        let t = Instant::now();
        timed(
            tr,
            samples,
            "OnlineAllocator::process",
            keys.process(ev.kind()),
            op,
            || self.allocator.process(ev),
        )
        .expect("generated logs hold only valid events");
        let process_ns = t.elapsed().as_nanos() as u64;
        timed(
            tr,
            samples,
            "OnlineAllocator::snapshot",
            keys.snapshot,
            op,
            || self.allocator.snapshot(),
        );
        self.since_checkpoint += 1;
        if self.since_checkpoint >= inputs.checkpoint_interval {
            let seq = self.log.seq();
            timed(
                tr,
                samples,
                "wal::write_checkpoint",
                keys.checkpoint,
                op,
                || wal::write_checkpoint(&self.dir, &mut self.allocator, seq),
            )?;
            self.log.prune(seq)?;
            self.since_checkpoint = 0;
        }
        Ok(process_ns)
    }
}

/// Sample keys of one replica.
struct ReplicaKeys {
    append: &'static str,
    sync: &'static str,
    snapshot: &'static str,
    checkpoint: &'static str,
    leader: bool,
}

impl ReplicaKeys {
    const LEADER: ReplicaKeys = ReplicaKeys {
        append: "append",
        sync: "sync",
        snapshot: "snapshot",
        checkpoint: "write_checkpoint",
        leader: true,
    };
    const FOLLOWER: ReplicaKeys = ReplicaKeys {
        append: "follower.append",
        sync: "follower.sync",
        snapshot: "follower.snapshot",
        checkpoint: "follower.write_checkpoint",
        leader: false,
    };

    fn process(&self, kind: EventKind) -> &'static str {
        match (self.leader, kind) {
            (false, _) => "follower.process",
            (true, EventKind::Arrival) => "process.arrival",
            (true, EventKind::TopUp) => "process.topup",
            (true, EventKind::Departure) => "process.departure",
            (true, _) => "process.other",
        }
    }
}

fn stats_view(snap: &AllocationSnapshot, seq: u64) -> StatsView {
    StatsView {
        epoch: snap.epoch,
        wal_seq: seq,
        live_ads: snap.num_ads(),
        total_seeds: snap.total_seeds(),
        total_rr_sets: snap.total_rr_sets,
        engine_memory_bytes: snap.engine_memory_bytes,
        role: Role::Leader,
        leader_seq: seq,
        ..StatsView::default()
    }
}

/// The traced ladder of a serving workload. `scratch` is on the same
/// filesystem as the served rounds' state dirs.
pub fn serve_ladder(
    inputs: &Inputs,
    dataset: &Dataset,
    scratch: &Path,
    tr: &mut Tracer,
) -> io::Result<LadderOut> {
    tr.set_track(LADDER_TRACK);
    let mut samples = Samples::default();
    let with_follower = inputs.workload == Workload::ReplicaFollow;
    let mut leader = Replica::new(dataset, inputs, scratch.join("ladder-leader"))?;
    let mut follower = if with_follower {
        Some(Replica::new(
            dataset,
            inputs,
            scratch.join("ladder-follower"),
        )?)
    } else {
        None
    };

    // Set-up, unattributed: the ladder explains the measured ops.
    let mut quiet = Tracer::disabled();
    let mut unused = Samples::default();
    for ev in &inputs.preload {
        leader.apply(ev, inputs, &mut quiet, &mut unused, &ReplicaKeys::LEADER, 0)?;
        if let Some(f) = follower.as_mut() {
            f.apply(
                ev,
                inputs,
                &mut quiet,
                &mut unused,
                &ReplicaKeys::FOLLOWER,
                0,
            )?;
        }
    }

    let measured: Vec<&OnlineEvent> = inputs.segment_a.iter().chain(&inputs.segment_b).collect();
    let mut process_ns_per_op = Vec::with_capacity(measured.len());
    let mut mutate_bytes = 0usize;
    for (i, ev) in measured.iter().enumerate() {
        let op = i as u64;
        let h_op = tr.begin(OP_SPAN, op);
        let s = &mut samples;
        // The mutation's own round trip.
        let req = Request::Mutate((*ev).clone());
        let body = timed(tr, s, "Request::encode", "mutate_encode", op, || {
            req.encode()
        });
        mutate_bytes += body.len();
        timed(tr, s, "Request::decode", "mutate_decode", op, || {
            Request::decode(body.as_bytes())
        })
        .map_err(io::Error::other)?;
        process_ns_per_op.push(leader.apply(ev, inputs, tr, s, &ReplicaKeys::LEADER, op)?);
        let accepted = Response::Accepted {
            epoch: leader.allocator.epoch(),
            queue_depth: 1,
        };
        let body = timed(tr, s, "Response::encode", "accepted_encode", op, || {
            accepted.encode()
        });
        timed(tr, s, "Response::decode", "accepted_decode", op, || {
            Response::decode(body.as_bytes())
        })
        .map_err(io::Error::other)?;
        // Replication: the leader serves one poll, the follower applies it.
        if let Some(f) = follower.as_mut() {
            let from = f.log.seq();
            let frontier = leader.log.seq();
            let batch = timed(tr, s, "wal::read_frames", "read_frames", op, || {
                wal::read_frames(&leader.dir, from, 512, frontier)
            })?;
            let ReplicaBatch::Frames { bodies } = batch else {
                return Err(io::Error::other("ladder follower fell behind the prune"));
            };
            let page = Response::ReplicateFrames {
                fencing_epoch: 0,
                start_seq: from,
                durable_seq: frontier,
                trace_base: from + 1,
                frames: bodies,
            };
            let body = timed(tr, s, "Response::encode", "frames_encode", op, || {
                page.encode()
            });
            let page = timed(tr, s, "Response::decode", "frames_decode", op, || {
                Response::decode(body.as_bytes())
            })
            .map_err(io::Error::other)?;
            let Response::ReplicateFrames { frames, .. } = page else {
                return Err(io::Error::other("frames page did not round-trip"));
            };
            for frame in &frames {
                let shipped = timed(tr, s, "event_from_value", "frame_decode", op, || {
                    serde_json::from_str(frame)
                        .map_err(|e| e.to_string())
                        .and_then(|v| event_from_value(&v))
                })
                .map_err(io::Error::other)?;
                f.apply(&shipped, inputs, tr, s, &ReplicaKeys::FOLLOWER, op)?;
            }
        }
        // The poll that sees it.
        let watched = follower.as_ref().unwrap_or(&leader);
        let view = stats_view(&watched.allocator.snapshot(), watched.log.seq());
        let body = timed(tr, s, "Request::encode", "stats_request", op, || {
            Request::Stats.encode()
        });
        timed(tr, s, "Request::decode", "stats_request", op, || {
            Request::decode(body.as_bytes())
        })
        .map_err(io::Error::other)?;
        let body = timed(tr, s, "Response::encode", "stats_encode", op, || {
            Response::Stats(view).encode()
        });
        timed(tr, s, "Response::decode", "stats_decode", op, || {
            Response::decode(body.as_bytes())
        })
        .map_err(io::Error::other)?;
        tr.end(h_op);
    }
    let by_op = tr.self_time_by_op_ns(LADDER_TRACK, OP_SPAN);
    let ladder_ns_per_op: Vec<u64> = (0..measured.len() as u64)
        .map(|op| by_op.get(&op).copied().unwrap_or(0))
        .collect();

    // Past the ops: state transfer and recovery.
    let op = measured.len() as u64;
    let s = &mut samples;
    let final_snapshot = leader.allocator.snapshot();
    let seq = leader.log.seq();
    let mut image = Vec::new();
    let t = Instant::now();
    timed(
        tr,
        s,
        "OnlineAllocator::checkpoint",
        "checkpoint",
        op,
        || leader.allocator.checkpoint(seq, &mut image),
    )?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    timed(tr, s, "OnlineAllocator::restore", "restore", op, || {
        OnlineAllocator::restore(
            &dataset.graph,
            &dataset.topic_probs,
            online_config(inputs),
            &mut image.as_slice(),
        )
        .map(|_| ())
    })
    .map_err(|e| io::Error::other(e.to_string()))?;
    let restore_s = t.elapsed().as_secs_f64();
    if !s.0.contains_key("write_checkpoint") {
        timed(
            tr,
            s,
            "wal::write_checkpoint",
            "write_checkpoint",
            op,
            || wal::write_checkpoint(&leader.dir, &mut leader.allocator, seq),
        )?;
    }
    let t = Instant::now();
    let (_, recovery) = timed(tr, s, "wal::recover", "recover", op, || {
        wal::recover(
            &leader.dir,
            &dataset.graph,
            &dataset.topic_probs,
            &online_config(inputs),
        )
    })?;
    let recover_s = t.elapsed().as_secs_f64();
    if !s.0.contains_key("read_frames") && seq > 0 {
        let us = median_us(30, || {
            // Fails only on a corrupt log, which `recover` above excluded.
            let _ = wal::read_frames(&leader.dir, seq - 1, 512, seq);
        });
        s.0.insert("read_frames", vec![us]);
    }

    let mut m = Metrics::default();
    let stats = leader.allocator.stats();
    m.set(
        "online.process_ms_p50.arrival",
        s.p50("process.arrival") / 1e3,
    );
    m.set("online.process_ms_p50.topup", s.p50("process.topup") / 1e3);
    m.set(
        "online.process_ms_p50.departure",
        s.p50("process.departure") / 1e3,
    );
    m.set(
        "online.full_reconciliations",
        stats.full_reallocations as f64,
    );
    m.set(
        "online.delta_reconciliations",
        stats.delta_reallocations as f64,
    );
    m.set("online.fresh_rr_sets", stats.fresh_rr_sets as f64);
    m.set("online.pool_reclaims", stats.shard_reclaims as f64);
    m.set(
        "online.pool_evictions",
        leader.allocator.pool_evictions() as f64,
    );
    m.set("online.snapshot_us_p50", s.p50("snapshot"));
    let engine_mb = leader.allocator.memory_bytes() as f64 / (1 << 20) as f64;
    m.set("online.memory_mb", engine_mb);
    m.set("online.checkpoint_s", checkpoint_s);
    m.set(
        "online.checkpoint_mb",
        image.len() as f64 / (1 << 20) as f64,
    );
    m.set("online.restore_s", restore_s);
    m.set("rrset.sets_sampled", stats.fresh_rr_sets as f64);
    m.set("rrset.index_mb", engine_mb);
    m.set("wire.mutate_encode_us_p50", s.p50("mutate_encode"));
    m.set("wire.mutate_decode_us_p50", s.p50("mutate_decode"));
    m.set(
        "wire.mutate_bytes",
        mutate_bytes as f64 / measured.len().max(1) as f64,
    );
    m.set("wal.append_us_p50", s.p50("append"));
    m.set("wal.sync_us_p50", s.p50("sync"));
    m.set("wal.write_checkpoint_s", s.p50("write_checkpoint") / 1e6);
    m.set("wal.read_frames_us_p50", s.p50("read_frames"));
    m.set("wal.recover_s", recover_s);
    m.set("wal.replayed_events", recovery.replayed as f64);
    drop(follower);
    drop(leader);

    wire_and_codec_costs(inputs, &final_snapshot, &mut m)?;
    wal_batch_costs(inputs, scratch, &mut m)?;
    let first_topics = inputs.all_events().find_map(|e| match e {
        OnlineEvent::AdArrival { topics, .. } => Some(topics.clone()),
        _ => None,
    });
    let topics = first_topics.unwrap_or_else(|| TopicDist::single(dataset.topic_probs.k(), 0));
    graph_and_sampling_costs(inputs, dataset, &topics, 50_000, &mut m);
    core_costs_of_final_population(inputs, dataset, tr, &mut m);

    Ok(LadderOut {
        metrics: m,
        ladder_ns_per_op,
        process_ns_per_op,
    })
}

/// Codec costs that sit beside the op path: reads, the event log codec,
/// framing over loopback, checkpoint chunks.
fn wire_and_codec_costs(
    inputs: &Inputs,
    snapshot: &AllocationSnapshot,
    m: &mut Metrics,
) -> io::Result<()> {
    let allocation = Response::Allocation(snapshot.clone());
    let body = allocation.encode();
    m.set("wire.allocation_kb", body.len() as f64 / 1e3);
    m.set(
        "wire.allocation_encode_us_p50",
        median_us(30, || {
            std::hint::black_box(Response::Allocation(snapshot.clone()).encode());
        }),
    );
    m.set(
        "wire.allocation_decode_us_p50",
        median_us(30, || {
            std::hint::black_box(Response::decode(body.as_bytes()).is_ok());
        }),
    );
    let ad = Response::Ad {
        epoch: snapshot.epoch,
        ad: snapshot.ads.first().cloned(),
    };
    m.set(
        "wire.ad_encode_us_p50",
        median_us(100, || {
            std::hint::black_box(ad.encode());
        }),
    );

    let events: Vec<&OnlineEvent> = inputs.all_events().collect();
    let lines: Vec<String> = events
        .iter()
        .map(|e| format!("{{{}}}", event_json_fields(e)))
        .collect();
    let mut i = 0;
    m.set(
        "workloads.event_encode_us_p50",
        median_us(events.len().max(1) * 4, || {
            std::hint::black_box(event_json_fields(events[i % events.len()]));
            i += 1;
        }),
    );
    let mut i = 0;
    m.set(
        "workloads.event_decode_us_p50",
        median_us(lines.len().max(1) * 4, || {
            let parsed = serde_json::from_str(&lines[i % lines.len()])
                .map_err(|e| e.to_string())
                .and_then(|v| event_from_value(&v));
            std::hint::black_box(parsed.is_ok());
            i += 1;
        }),
    );

    // write_frame/read_frame against an echo peer on loopback.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        while let Some(frame) = read_frame(&mut peer)? {
            write_frame(&mut peer, &frame)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let frame = lines.first().cloned().unwrap_or_default().into_bytes();
    let mut failed = None;
    let roundtrip = median_us(400, || {
        let r = write_frame(&mut stream, &frame).and_then(|()| read_frame(&mut stream));
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    });
    drop(stream);
    echo.join().expect("echo peer panicked")?;
    if let Some(e) = failed {
        return Err(e);
    }
    m.set("wire.frame_roundtrip_us_p50", roundtrip);

    // One 1 MiB checkpoint chunk through the bootstrap transport.
    let chunk: Vec<u8> = (0..1usize << 20).map(|i| (i * 31) as u8).collect();
    let chunk_us = median_us(5, || {
        let resp = Response::ReplicateCheckpointChunk {
            checkpoint_seq: 1,
            offset: 0,
            total_bytes: chunk.len() as u64,
            data_hex: hex_encode(&chunk),
        };
        let body = resp.encode();
        if let Ok(Response::ReplicateCheckpointChunk { data_hex, .. }) =
            Response::decode(body.as_bytes())
        {
            std::hint::black_box(hex_decode(&data_hex).is_ok());
        }
    });
    m.set("wire.checkpoint_chunk_mb_per_s", 1e6 / chunk_us);
    Ok(())
}

/// Group-commit cost and on-disk size of a batch of 32, in a scratch WAL
/// on the state dirs' filesystem.
fn wal_batch_costs(inputs: &Inputs, scratch: &Path, m: &mut Metrics) -> io::Result<()> {
    let events: Vec<&OnlineEvent> = inputs.all_events().collect();
    if events.is_empty() {
        return Ok(());
    }
    let dir = scratch.join("ladder-batch-wal");
    let mut log = Wal::open(&dir, 0, 1 << 20)?;
    let mut syncs = Vec::new();
    let mut appended = 0u64;
    for batch in 0..10 {
        for i in 0..32 {
            log.append(events[(batch * 32 + i) % events.len()])?;
            appended += 1;
        }
        let t = Instant::now();
        log.sync()?;
        syncs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("wal.sync_batch32_us_p50", median(&syncs));
    let mut bytes = 0u64;
    for (_, path) in wal::list_segments(&dir)? {
        bytes += std::fs::metadata(path)?.len();
    }
    m.set("wal.bytes_per_event", bytes as f64 / appended as f64);
    drop(log);
    std::fs::remove_dir_all(dir)
}

/// Graph size, model projection and raw sampling rates on this
/// workload's graph.
fn graph_and_sampling_costs(
    inputs: &Inputs,
    dataset: &Dataset,
    topics: &TopicDist,
    sets: usize,
    m: &mut Metrics,
) {
    let n = dataset.graph.num_nodes();
    m.set("graph.nodes", n as f64);
    m.set("graph.arcs", dataset.graph.num_edges() as f64);
    let mut probs = Vec::new();
    m.set(
        "topics.project_ms",
        median_us(5, || probs = dataset.topic_probs.project(topics)) / 1e3,
    );

    let sampler = RrSampler::new(&dataset.graph, &probs);
    for (threads, name) in [
        (1, "rrset.sample_sets_per_s.t1"),
        (PROGRAM_THREADS, "rrset.sample_sets_per_s.t2"),
    ] {
        let mut engine = ParallelSampler::new(SamplingConfig::new(threads, inputs.dataset_seed), n);
        let mut sink = WeightedRrCollection::new(n);
        let t = Instant::now();
        let drawn = engine.sample_into(&sampler, sets, &mut sink);
        m.set(name, drawn as f64 / t.elapsed().as_secs_f64());
        if threads == PROGRAM_THREADS {
            sink.compact_postings();
            let entries = sink.total_entries().max(1) as f64;
            m.set("rrset.nodes_per_set", entries / drawn.max(1) as f64);
            m.set(
                "rrset.bytes_per_posting",
                sink.postings_bytes() as f64 / entries,
            );
        }
    }
    let mut kpt = KptEstimator::with_config(
        sampler,
        1.0,
        SamplingConfig::new(PROGRAM_THREADS, inputs.dataset_seed ^ 0xabcd),
    );
    let t = Instant::now();
    std::hint::black_box(kpt.estimate(1));
    m.set("rrset.kpt_estimate_ms", t.elapsed().as_secs_f64() * 1e3);
}

/// Cold and warm `tirm_allocate` and an independent `evaluate_rr` of
/// `problem`, with the share of the cold wall that replaying its
/// sampling (KPT estimation per ad plus the same θ sets) does not
/// explain. Returns the bytes of the cold run's RR collections.
fn core_costs(
    problem: &ProblemInstance<'_>,
    opts: TirmOptions,
    plan: &[AdSeeds],
    tr: &mut Tracer,
    m: &mut Metrics,
) -> usize {
    let h = problem.num_ads();
    if h == 0 {
        return 0;
    }
    let n = problem.num_nodes();
    let op = 0;
    let span = tr.begin("tirm_allocate", op);
    let t = Instant::now();
    let cold = tirm_allocate_warm(problem, opts, plan, (0..h).map(|_| None).collect());
    let cold_s = t.elapsed().as_secs_f64();
    tr.end(span);
    let (alloc, stats, warm) = cold;
    let span = tr.begin("tirm_allocate_warm", op);
    let t = Instant::now();
    let rerun = tirm_allocate_warm(problem, opts, plan, warm.into_iter().map(Some).collect());
    m.set("core.tirm_allocate_warm_s", t.elapsed().as_secs_f64());
    tr.end(span);
    drop(rerun);
    m.set("core.tirm_allocate_s", cold_s);
    m.set("core.theta_total", stats.rr_sets_total() as f64);
    m.set("core.total_seeds", alloc.total_seeds() as f64);

    // Replay the sampling the cold run paid for, through the same fast
    // path (integer coin thresholds, the run's mark layout) it used.
    let layout = Arc::new(if opts.relabel.enabled_for(n) {
        SamplingLayout::degree_ordered(problem.graph)
    } else {
        SamplingLayout::identity()
    });
    let mut sampling_s = 0.0;
    for (i, seeds) in plan.iter().enumerate() {
        let sampler = RrSampler::new(problem.graph, &problem.edge_probs[i]);
        let fast = FastPath::new(layout.clone(), problem.graph, &problem.edge_probs[i]);
        let span = tr.begin("KptEstimator::estimate", i as u64);
        let t = Instant::now();
        let mut kpt = KptEstimator::with_config(
            RrSampler::new(problem.graph, &problem.edge_probs[i]),
            opts.ell,
            SamplingConfig::new(opts.threads, seeds.kpt),
        );
        // TIRM starts every ad at s = 1 (which draws the widths) and
        // re-estimates from the same widths as s grows.
        std::hint::black_box(kpt.estimate_with(1, Some(&fast)));
        std::hint::black_box(kpt.estimate_with(alloc.seeds(i).len().max(1), Some(&fast)));
        sampling_s += t.elapsed().as_secs_f64();
        tr.end(span);
        let span = tr.begin("ParallelSampler::sample_into", i as u64);
        let t = Instant::now();
        let mut engine = ParallelSampler::new(SamplingConfig::new(opts.threads, seeds.engine), n);
        let mut sink = WeightedRrCollection::new(n);
        engine.sample_into_with(&sampler, Some(&fast), stats.rr_sets_per_ad[i], &mut sink);
        sampling_s += t.elapsed().as_secs_f64();
        tr.end(span);
    }
    m.set("core.select_share", 1.0 - sampling_s / cold_s);

    let span = tr.begin("evaluate_rr", op);
    let t = Instant::now();
    let evaluation = evaluate_rr(
        problem,
        &alloc,
        200_000,
        SamplingConfig::new(opts.threads, opts.seed),
    );
    m.set("core.evaluate_s", t.elapsed().as_secs_f64());
    tr.end(span);
    m.set("core.relative_regret", evaluation.regret.relative_regret());
    stats.memory_bytes
}

/// [`core_costs`] on the batch problem the served log ends in: the live
/// population after the last event, under the program's options and
/// id-derived RNG plan.
fn core_costs_of_final_population(
    inputs: &Inputs,
    dataset: &Dataset,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let log: Vec<LogEvent> = inputs
        .all_events()
        .map(|e| LogEvent {
            at: 0.0,
            event: e.clone(),
        })
        .collect();
    let finals = final_population(&log);
    let n = dataset.graph.num_nodes();
    let cfg = online_config(inputs);
    let problem = ProblemInstance::new(
        &dataset.graph,
        finals
            .iter()
            .map(|f| Advertiser::new(f.budget, f.cpe, f.topics.clone()))
            .collect(),
        finals
            .iter()
            .map(|f| dataset.topic_probs.project(&f.topics))
            .collect(),
        CtpTable::direct(finals.iter().map(|f| vec![f.ctp; n]).collect()),
        Attention::Uniform(inputs.kappa),
        inputs.lambda,
    );
    let plan: Vec<AdSeeds> = finals
        .iter()
        .map(|f| AdSeeds::for_ad_id(cfg.tirm.seed, f.id))
        .collect();
    core_costs(&problem, cfg.tirm, &plan, tr, m);
}

/// The traced ladder of `batch-tirm`: `KptEstimator::estimate`,
/// `sample_into`, `tirm_allocate` cold and warm, `evaluate_rr`.
pub fn batch_ladder(inputs: &Inputs, dataset: &Dataset, tr: &mut Tracer) -> LadderOut {
    tr.set_track(LADDER_TRACK);
    let mut m = Metrics::default();
    let topics = TopicDist::single(dataset.topic_probs.k(), 0);
    graph_and_sampling_costs(inputs, dataset, &topics, 200_000, &mut m);
    let problem = batch::build_problem(dataset, inputs);
    let opts = batch::tirm_options(inputs, 0);
    let plan: Vec<AdSeeds> = (0..problem.num_ads())
        .map(|i| AdSeeds::for_index(opts.seed, i))
        .collect();
    let index_bytes = core_costs(&problem, opts, &plan, tr, &mut m);
    m.set("rrset.index_mb", index_bytes as f64 / (1 << 20) as f64);
    if let Some(theta) = m.get("core.theta_total") {
        m.set("rrset.sets_sampled", theta);
    }
    LadderOut {
        metrics: m,
        ladder_ns_per_op: Vec::new(),
        process_ns_per_op: Vec::new(),
    }
}
