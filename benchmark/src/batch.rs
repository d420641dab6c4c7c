//! `batch-tirm`: the paper's scalability run. A round is a fresh child
//! process (this same executable, `batch-child`) that loads the graph
//! snapshot, builds the §6.2 problem instance, and then runs one cold
//! `tirm_allocate` per request line; the parent times every allocation
//! from outside, over the child's stdin and stdout.

use crate::inputs::{Fnv, Inputs, Workload, PROGRAM_THREADS};
use crate::procs::{cpu_seconds, peak_rss_mb};
use crate::serve::{Interval, RoundOut};
use crate::trace::Tracer;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use tirm_core::{
    tirm_allocate, AlgoStats, Allocation, Attention, ProblemInstance, RegretReport, RelabelMode,
    TirmOptions,
};
use tirm_topics::CtpTable;
use tirm_workloads::campaigns::uniform_campaign;
use tirm_workloads::Dataset;

/// The §6.2 instance: `h` identical advertisers in full competition
/// (one shared probability vector, CPE = CTP = 1), attention bound κ.
pub fn build_problem<'a>(dataset: &'a Dataset, inputs: &Inputs) -> ProblemInstance<'a> {
    let h = inputs.sizes.live_ads;
    let flat = dataset.topic_probs.flat().to_vec();
    ProblemInstance::new(
        &dataset.graph,
        uniform_campaign(h, inputs.batch_budget),
        vec![flat; h],
        CtpTable::constant(dataset.graph.num_nodes(), h, 1.0),
        Attention::Uniform(inputs.kappa),
        inputs.lambda,
    )
}

/// TIRM options of the allocation at `position`: the suite's
/// scalability tier (ε = 0.2, θ cap scaled with the graph), one RNG
/// stream per position. The streams are constants of the workload, like
/// the graph: KPT estimation stops at the first sampling round that
/// clears its threshold, each round twice the size of the one before, so
/// which stream an ad draws from decides whether it pays one round more —
/// ten seeds' latencies spread 11 % on a quiet machine from that alone.
pub fn tirm_options(inputs: &Inputs, position: usize) -> TirmOptions {
    let mut opts = TirmOptions {
        eps: 0.2,
        seed: inputs.dataset_seed.wrapping_add(position as u64),
        threads: PROGRAM_THREADS,
        max_theta_per_ad: Some(200_000),
        // Not the TIRM_RELABEL environment default: a run must not
        // depend on the caller's environment.
        relabel: RelabelMode::Auto,
        ..TirmOptions::default()
    };
    opts.scale_theta_cap(inputs.sizes.scale);
    opts
}

/// The paper's objective on an allocation, from the engine's revenue
/// estimates: Σᵢ(|Bᵢ − Πᵢ| + λ·|Sᵢ|) / Σᵢ Bᵢ.
pub fn relative_regret(
    problem: &ProblemInstance<'_>,
    alloc: &Allocation,
    stats: &AlgoStats,
) -> f64 {
    RegretReport::new(
        (0..problem.num_ads()).map(|i| {
            (
                problem.target_budget(i),
                stats.estimated_revenue[i],
                alloc.seeds(i).len(),
            )
        }),
        problem.lambda,
    )
    .relative_regret()
}

/// Fingerprint of an allocation: every seed of every ad, in order.
pub fn allocation_fingerprint(alloc: &Allocation) -> u64 {
    let mut h = Fnv::default();
    for seeds in alloc.seed_sets() {
        h.word(seeds.len() as u64);
        for &v in seeds {
            h.bytes(&v.to_le_bytes());
        }
    }
    h.0
}

/// The child: answers `alloc <position>` lines until `quit`.
pub fn child_main(snapshot_dir: &Path, seed: u64, smoke: bool) -> io::Result<()> {
    let inputs = Inputs::generate(Workload::BatchTirm, seed, smoke);
    let dataset = inputs.prepare_dataset(snapshot_dir);
    let problem = build_problem(&dataset, &inputs);
    let stdout = io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "ready")?;
    out.flush()?;
    for line in io::stdin().lock().lines() {
        let line = line?;
        let Some(position) = line
            .strip_prefix("alloc ")
            .and_then(|p| p.parse::<usize>().ok())
        else {
            break;
        };
        let (alloc, stats) = tirm_allocate(&problem, tirm_options(&inputs, position));
        let valid = alloc.validate(&problem).is_ok();
        writeln!(
            out,
            "done valid={valid} rr_sets={} regret={} fingerprint={}",
            stats.rr_sets_total(),
            relative_regret(&problem, &alloc, &stats),
            allocation_fingerprint(&alloc),
        )?;
        out.flush()?;
    }
    Ok(())
}

/// The value of `key=` in a child's answer line.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> io::Result<T> {
    line.split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other(format!("batch child answered {line:?}, no {key}")))
}

/// What a batch round adds to [`RoundOut`].
#[derive(Default)]
pub struct BatchOut {
    /// The shared round measurements.
    pub round: RoundOut,
    /// Mean relative regret over the round's allocations.
    pub relative_regret: f64,
    /// Fingerprint over every allocation of the round.
    pub fingerprint: u64,
    /// Every allocation respected the attention bound.
    pub valid: bool,
    /// RR sets held by the θ collections, summed over the allocations.
    pub rr_sets: u64,
}

/// One round of `batch-tirm`.
pub fn round(
    snapshot_dir: &Path,
    inputs: &Inputs,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
) -> io::Result<BatchOut> {
    let t0 = Instant::now();
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("batch-child")
        .arg("--snapshot-dir")
        .arg(snapshot_dir)
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let result = (|| -> io::Result<BatchOut> {
        let mut to_child = child.stdin.take().expect("stdin was piped");
        let mut from_child = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let mut answer = |from: &mut BufReader<_>| -> io::Result<String> {
            line.clear();
            if from.read_line(&mut line)? == 0 {
                return Err(io::Error::other("batch child exited early"));
            }
            Ok(line.trim_end().to_string())
        };
        answer(&mut from_child)?;
        let mut out = BatchOut {
            valid: true,
            ..BatchOut::default()
        };
        out.round.setup_phases_s = vec![t0.elapsed().as_secs_f64()];
        out.round.follower_equal = true;

        let allocs = inputs.sizes.segment_a;
        let mut cpu_before = cpu_seconds(pid).unwrap_or(0.0);
        let mut fingerprint = Fnv::default();
        for position in 0..allocs {
            out.round.attempted += 1;
            let h_op = tr.begin("op", position as u64);
            let h = tr.begin("client.roundtrip", position as u64);
            let sent = Instant::now();
            writeln!(to_child, "alloc {position}")?;
            to_child.flush()?;
            let done = answer(&mut from_child)?;
            let s = sent.elapsed().as_secs_f64();
            tr.end(h);
            tr.end(h_op);
            let cpu_after = cpu_seconds(pid).unwrap_or(cpu_before);
            let rr_sets = field::<u64>(&done, "rr_sets")?;
            out.round.latencies_ms.push(s * 1e3);
            out.round.chunks.push(Interval {
                units: rr_sets as f64,
                wall_s: s,
                cpu_s: cpu_after - cpu_before,
            });
            cpu_before = cpu_after;
            out.valid &= field::<bool>(&done, "valid")?;
            out.rr_sets += rr_sets;
            out.relative_regret += field::<f64>(&done, "regret")? / allocs as f64;
            fingerprint.word(field(&done, "fingerprint")?);
        }
        out.fingerprint = fingerprint.0;
        out.round.cpu_ops = allocs as f64;
        out.round.peak_rss_mb = peak_rss_mb(pid).unwrap_or(0.0);
        writeln!(to_child, "quit")?;
        Ok(out)
    })();
    if result.is_err() {
        // Already gone, or about to be.
        let _ = child.kill();
    }
    let status = child.wait()?;
    let mut out = result?;
    out.round.clean_exit = status.success();
    Ok(out)
}
