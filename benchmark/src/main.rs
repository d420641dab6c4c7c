//! `tirm_benchmark run …` / `tirm_benchmark compare …` (see `README.md`).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use tirm_benchmark::compare::{agreement, comparable, compare, read_records};
use tirm_benchmark::inputs::Workload;
use tirm_benchmark::run::{run_workload, RunConfig, NOMINAL_SECONDS};

const USAGE: &str = "usage: tirm_benchmark run [--all | --workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out FILE]\n       \
                     tirm_benchmark compare [--aa] A.jsonl B.jsonl\n\
                     workloads: batch-tirm serve-churn replica-follow serve-reads";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => run(args),
        Some("compare") => compare_files(args),
        Some("batch-child") => batch_child(args),
        _ => usage("expected a subcommand"),
    }
}

fn run(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut workloads: Vec<Workload> = Vec::new();
    let mut seed = 1u64;
    let mut seconds = NOMINAL_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => workloads = Workload::ALL.to_vec(),
            "--workload" => match args.next().as_deref().and_then(Workload::parse) {
                Some(w) => workloads.push(w),
                None => return usage("--workload expects a workload name"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--seconds" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) if s >= 1 => seconds = s,
                _ => return usage("--seconds expects a positive integer"),
            },
            "--trace" => match args.next().as_deref() {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => return usage("--trace expects 0 or 1"),
            },
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage("--out expects a file"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        return usage("name a workload with --workload, or pass --all");
    }
    // Before any thread or child exists: they all inherit the one CPU.
    if let Err(e) = tirm_benchmark::procs::pin_to_one_cpu() {
        eprintln!("error: cannot confine the benchmark to one CPU: {e}");
        return ExitCode::FAILURE;
    }
    let mut all_correct = true;
    for workload in workloads {
        let cfg = RunConfig {
            workload,
            seed,
            seconds,
            traced,
            smoke,
        };
        let record = match run_workload(&cfg) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        all_correct &= record.correct;
        if let Some(path) = &out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", record.to_json_line()));
            if let Err(e) = appended {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "# {} seed {} rounds {} fingerprint {}",
            record.workload, record.seed, record.rounds, record.fingerprint
        );
        println!("{}", record.contract_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(args: impl Iterator<Item = String>) -> ExitCode {
    let mut aa = false;
    let mut files = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--aa" => aa = true,
            _ => files.push(PathBuf::from(arg)),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage("compare expects two result files");
    };
    let (a, b) = match (read_records(a), read_records(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(why) = comparable(&a, &b) {
        eprintln!("error: {why}");
        return ExitCode::from(2);
    }
    let (table, failed) = if aa {
        let (table, agrees) = agreement(&a, &b);
        (table, !agrees)
    } else {
        compare(&a, &b)
    };
    print!("{table}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn batch_child(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut snapshot_dir = None;
    let mut seed = 1u64;
    let mut smoke = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--snapshot-dir" => snapshot_dir = args.next().map(PathBuf::from),
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed expects an integer"),
            },
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(dir) = snapshot_dir else {
        return usage("batch-child expects --snapshot-dir");
    };
    match tirm_benchmark::batch::child_main(&dir, seed, smoke) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: batch child: {e}");
            ExitCode::FAILURE
        }
    }
}
