//! `ehs_bench`: the simulator's benchmark. See `README.md`.
//!
//! ```text
//! ehs_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke]
//! ehs_bench ab --parent BIN --change BIN --pairs N [--seed N] [--seconds S] [--workload NAME]
//! ```
//!
//! Without `--workload` every workload runs, one after another. Each
//! workload runs in a child process of its own (so its peak RSS and the
//! simulator's process-wide memo state are its own); the last line that
//! child prints is its JSON result.

use ehs_benchmark::ab::{self, AbOptions};
use ehs_benchmark::declared::{declared, Declared};
use ehs_benchmark::host::{build_exp_all, ScratchDir};
use ehs_benchmark::worker::{self, Options, TraceMode};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: ehs_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke]\n       \
                     ehs_bench ab --parent BIN --change BIN --pairs N [--seed N] [--seconds S] [--workload NAME]";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<String>,
    smoke: bool,
    worker: bool,
    exp_all: Option<PathBuf>,
    scratch: Option<PathBuf>,
    parent: Option<PathBuf>,
    change: Option<PathBuf>,
    pairs: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(number(value()?)?),
            "--seconds" => a.seconds = Some(number(value()?)?.max(1)),
            "--trace" => a.trace = Some(value()?),
            "--smoke" => a.smoke = true,
            "--worker" => a.worker = true,
            "--exp-all" => a.exp_all = Some(value()?.into()),
            "--scratch" => a.scratch = Some(value()?.into()),
            "--parent" => a.parent = Some(value()?.into()),
            "--change" => a.change = Some(value()?.into()),
            "--pairs" => a.pairs = Some(number(value()?)?.max(1) as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn trace_mode(arg: Option<&str>) -> TraceMode {
    match arg {
        None | Some("0") => TraceMode::Off,
        Some("1") => TraceMode::On,
        Some(path) => TraceMode::To(path.into()),
    }
}

fn workloads(a: &Args, declared: &Declared) -> Result<Vec<String>, String> {
    match &a.workload {
        Some(w) if declared.workloads.contains(w) => Ok(vec![w.clone()]),
        Some(w) => Err(format!(
            "unknown workload {w:?}; one of {}",
            declared.workloads.join(", ")
        )),
        None => Ok(declared.workloads.clone()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let declared = declared();
    let (ab, rest) = match argv.first().map(String::as_str) {
        Some("ab") => (true, &argv[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => (false, &argv[..]),
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("ehs_bench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if ab {
        run_ab(&args, &declared)
    } else if args.worker {
        run_worker(&args, &declared)
    } else {
        run_all(&args, &declared)
    };
    result.unwrap_or_else(|msg| {
        eprintln!("ehs_bench: {msg}");
        ExitCode::FAILURE
    })
}

/// Builds `exp_all`, then runs each workload in a child process, one after
/// another, inside one scratch directory that is deleted at the end.
fn run_all(a: &Args, declared: &Declared) -> Result<ExitCode, String> {
    let names = workloads(a, declared)?;
    let exp_all = build_exp_all()?;
    let scratch = ScratchDir::create().map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let trace = a.trace.clone().unwrap_or_else(|| "0".into());
    if let TraceMode::To(path) = trace_mode(Some(&trace)) {
        std::fs::write(&path, "").map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seconds = a.seconds.unwrap_or(declared.run_seconds);
    let start = Instant::now();
    let mut ok = true;
    for name in &names {
        let mut child = Command::new(&me);
        child
            .args(["--worker", "--workload", name, "--trace", &trace])
            .args(["--seed", &a.seed.unwrap_or(42).to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--exp-all")
            .arg(&exp_all)
            .arg("--scratch")
            .arg(scratch.path().join(name))
            .args(a.smoke.then_some("--smoke"))
            .stdin(Stdio::null());
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {name} worker: {e}"))?;
        ok &= status.success();
    }
    if names.len() > 1 {
        println!(
            "ehs_bench: {} workloads in {:.1} s after the exp_all build: {}",
            names.len(),
            start.elapsed().as_secs_f64(),
            if ok { "all checks passed" } else { "FAILED" }
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_worker(a: &Args, declared: &Declared) -> Result<ExitCode, String> {
    let opts = Options {
        workload: a.workload.clone().ok_or("--worker needs --workload")?,
        seed: a.seed.unwrap_or(42),
        seconds: a.seconds.unwrap_or(declared.run_seconds) as f64,
        trace: trace_mode(a.trace.as_deref()),
        smoke: a.smoke,
        exp_all: a.exp_all.clone().ok_or("--worker needs --exp-all")?,
        scratch: a.scratch.clone().ok_or("--worker needs --scratch")?,
    };
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("cannot create {}: {e}", opts.scratch.display()))?;
    let report = worker::run(&opts)?;
    let traced = opts.trace != TraceMode::Off;
    let mut correct = true;
    print!("{}", report.render_notes(&opts.workload));
    // A traced smoke run prints both metric sets, so one run shows all.
    for per_layer in [false, true] {
        if per_layer == traced || (opts.smoke && traced) {
            let (text, ok) = report.render(per_layer, declared);
            print!("{text}");
            correct &= ok;
        }
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_ab(a: &Args, declared: &Declared) -> Result<ExitCode, String> {
    let opts = AbOptions {
        parent: a.parent.clone().ok_or("ab needs --parent")?,
        change: a.change.clone().ok_or("ab needs --change")?,
        pairs: a.pairs.ok_or("ab needs --pairs")?,
        seed: a.seed.unwrap_or(42),
        seconds: a.seconds.unwrap_or(declared.run_seconds),
        workloads: workloads(a, declared)?,
    };
    let regressed = ab::run(&opts, declared)?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
