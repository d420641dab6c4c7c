//! Metric names, units and directions — the single table `BENCHMARK.json`
//! is written from and `tests/names.rs` checks it against — plus the
//! result records `run` prints and `compare` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction of a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before `compare` calls a regression.
    pub bound: f64,
}

/// The six end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "relative_regret",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
];

use Better::{Higher, Lower};

/// Every per-layer metric: name, unit, direction. Reported by traced
/// runs, never gated. The prefix is the crate the number belongs to.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("graph.nodes", "count", Higher),
    ("graph.arcs", "count", Higher),
    ("graph.snapshot_load_s", "s", Lower),
    ("topics.project_ms", "ms", Lower),
    ("rrset.sample_sets_per_s.t1", "1/s", Higher),
    ("rrset.sample_sets_per_s.t2", "1/s", Higher),
    ("rrset.kpt_estimate_ms", "ms", Lower),
    ("rrset.sets_sampled", "count", Lower),
    ("rrset.nodes_per_set", "count", Lower),
    ("rrset.bytes_per_posting", "B", Lower),
    ("rrset.index_mb", "MB", Lower),
    ("core.tirm_allocate_s", "s", Lower),
    ("core.tirm_allocate_warm_s", "s", Lower),
    ("core.select_share", "ratio", Lower),
    ("core.theta_total", "count", Lower),
    ("core.total_seeds", "count", Lower),
    ("core.evaluate_s", "s", Lower),
    ("core.relative_regret", "ratio", Lower),
    ("online.process_ms_p50.arrival", "ms", Lower),
    ("online.process_ms_p50.topup", "ms", Lower),
    ("online.process_ms_p50.departure", "ms", Lower),
    ("online.process_share", "ratio", Lower),
    ("online.full_reconciliations", "count", Lower),
    ("online.delta_reconciliations", "count", Higher),
    ("online.fresh_rr_sets", "count", Lower),
    ("online.pool_reclaims", "count", Higher),
    ("online.pool_evictions", "count", Lower),
    ("online.snapshot_us_p50", "us", Lower),
    ("online.memory_mb", "MB", Lower),
    ("online.checkpoint_s", "s", Lower),
    ("online.checkpoint_mb", "MB", Lower),
    ("online.restore_s", "s", Lower),
    ("workloads.event_encode_us_p50", "us", Lower),
    ("workloads.event_decode_us_p50", "us", Lower),
    ("wire.mutate_encode_us_p50", "us", Lower),
    ("wire.mutate_decode_us_p50", "us", Lower),
    ("wire.mutate_bytes", "B", Lower),
    ("wire.allocation_encode_us_p50", "us", Lower),
    ("wire.allocation_decode_us_p50", "us", Lower),
    ("wire.allocation_kb", "kB", Lower),
    ("wire.ad_encode_us_p50", "us", Lower),
    ("wire.frame_roundtrip_us_p50", "us", Lower),
    ("wire.checkpoint_chunk_mb_per_s", "MB/s", Higher),
    ("wal.append_us_p50", "us", Lower),
    ("wal.sync_us_p50", "us", Lower),
    ("wal.sync_batch32_us_p50", "us", Lower),
    ("wal.bytes_per_event", "B", Lower),
    ("wal.fsyncs_per_event", "ratio", Lower),
    ("wal.batch_events_mean", "count", Higher),
    ("wal.write_checkpoint_s", "s", Lower),
    ("wal.read_frames_us_p50", "us", Lower),
    ("wal.recover_s", "s", Lower),
    ("wal.replayed_events", "count", Lower),
    ("server.boot_s", "s", Lower),
    ("server.preload_s", "s", Lower),
    ("server.accept_us_p50", "us", Lower),
    ("server.visible_ms_p50.arrival", "ms", Lower),
    ("server.visible_ms_p50.topup", "ms", Lower),
    ("server.visible_ms_p50.departure", "ms", Lower),
    ("server.read_us_p50.allocation", "us", Lower),
    ("server.read_us_p50.ad", "us", Lower),
    ("server.read_us_p50.regret", "us", Lower),
    ("server.read_us_p50.stats", "us", Lower),
    ("server.shed", "count", Lower),
    ("server.rejected", "count", Lower),
    ("server.queue_depth_max", "count", Lower),
    ("server.snapshot_publishes", "count", Lower),
    ("server.checkpoints", "count", Lower),
    ("server.shutdown_s", "s", Lower),
    ("server.cpu_s", "s", Lower),
    ("replica.bootstrap_s", "s", Lower),
    ("replica.bootstrap_mb", "MB", Lower),
    ("replica.bootstrap_mb_per_s", "MB/s", Higher),
    ("replica.lag_ms_p50", "ms", Lower),
    ("replica.lag_frames_max", "count", Lower),
    ("replica.frames_shipped", "count", Lower),
    ("replica.follower_read_us_p50", "us", Lower),
    ("replica.cpu_s", "s", Lower),
    ("obs.metrics_scrape_ms", "ms", Lower),
    ("obs.metrics_bytes", "B", Lower),
    ("bench.latency_ms_p95", "ms", Lower),
    ("bench.latency_ms_p99", "ms", Lower),
    ("bench.round_spread.setup_s", "ratio", Lower),
    ("bench.round_spread.latency_ms_p50", "ratio", Lower),
    ("bench.round_spread.throughput_per_s", "ratio", Lower),
    ("bench.round_spread.cpu_ms_per_op", "ratio", Lower),
    ("bench.poll_granularity_us", "us", Lower),
    ("bench.unattributed_share", "ratio", Lower),
    ("bench.trace_spans", "count", Lower),
    ("bench.trace_overhead_share", "ratio", Lower),
    ("bench.failed_share", "ratio", Lower),
];

/// Named values with units, in name order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, (f64, String)>);

impl Metrics {
    /// Sets `name` (its unit comes from the tables above; a name that is
    /// in neither is a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is in no table"));
        self.0.insert(name.to_string(), (value, unit.to_string()));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// `{"name":{"value":v,"unit":"u"},…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }

    /// Parses what [`Self::to_json`] wrote.
    pub fn from_value(v: &serde_json::Value) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for (name, entry) in v.as_object().ok_or("metrics must be an object")? {
            let value = entry
                .get("value")
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("{name}: missing value"))?;
            let unit = entry
                .get("unit")
                .and_then(|x| x.as_str())
                .ok_or_else(|| format!("{name}: missing unit"))?;
            out.0.insert(name.clone(), (value, unit.to_string()));
        }
        Ok(out)
    }
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// A finite JSON number with all its digits. JSON cannot carry a
/// non-finite value: it becomes 0, which is what an idle layer reports;
/// a run whose end-to-end metrics are not all finite is not `correct`
/// (`run::run_workload` checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One workload run, as written to `--out` files (one JSON object per
/// line) and read back by `compare`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Measured rounds.
    pub rounds: usize,
    /// Whether per-layer metrics were measured.
    pub traced: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted over all rounds.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Fingerprint of the final state (hex).
    pub fingerprint: String,
    /// Fingerprint of the generated inputs (hex).
    pub input_fingerprint: String,
    /// The gated metrics.
    pub end_to_end: Metrics,
    /// The per-layer metrics (empty on untraced runs).
    pub per_layer: Metrics,
}

impl RunRecord {
    /// One line of an `--out` file.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"rounds\":{},\"traced\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"fingerprint\":\"{}\",\"input_fingerprint\":\"{}\",\
             \"end_to_end\":{},\"per_layer\":{}}}",
            self.workload,
            self.seed,
            self.rounds,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            self.fingerprint,
            self.input_fingerprint,
            self.end_to_end.to_json(),
            self.per_layer.to_json()
        )
    }

    /// Parses one line of an `--out` file.
    pub fn from_json_line(line: &str) -> Result<RunRecord, String> {
        let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let s = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let u = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let b = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_bool())
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let m = |k: &str| Metrics::from_value(v.get(k).ok_or_else(|| format!("missing `{k}`"))?);
        Ok(RunRecord {
            workload: s("workload")?,
            seed: u("seed")?,
            rounds: u("rounds")? as usize,
            traced: b("traced")?,
            correct: b("correct")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            fingerprint: s("fingerprint")?,
            input_fingerprint: s("input_fingerprint")?,
            end_to_end: m("end_to_end")?,
            per_layer: m("per_layer")?,
        })
    }

    /// The line the builder contract asks for on stdout: exactly
    /// `correct`, `attempted`, `failed` and `metrics` — the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub fn contract_line(&self) -> String {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.to_json()
        )
    }
}
