//! The `suite_tiny` workload: the real user command `exp_all tiny`, run as
//! a subprocess against a private results and run-cache directory.

use crate::speed::{FileSpeedometer, Speedometer};
use crate::trace::{Clock, RunKey};
use ehs_sim::planner::{plan_suite, RESULTS_ENV_VAR};
use ehs_sim::runcache::{checksum, RunCache, DIR_ENV_VAR};
use ehs_sim::runner::{count_unique, effective_fingerprint, unique_jobs, Job};
use ehs_sim::RunResult;
use ehs_workloads::Scale;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The counts `exp_all` prints on its `suite:` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Runs requested across all experiments.
    pub requested: u64,
    /// Distinct simulations after dedup.
    pub unique: u64,
    /// Simulations this invocation executed.
    pub simulated: u64,
    /// Failed jobs.
    pub failed: u64,
}

/// Parses `suite: 20 experiments, 4080 runs requested, 2440 unique after
/// dedup, 2440 simulated, 0 failed, 2.7s` out of `exp_all`'s stdout.
pub fn parse_summary(stdout: &str) -> Option<Summary> {
    let line = stdout.lines().rev().find(|l| l.starts_with("suite: "))?;
    let mut s = Summary::default();
    let mut seen = 0;
    for part in line["suite: ".len()..].split(", ") {
        let Some((num, label)) = part.split_once(' ') else {
            continue;
        };
        let slot = match label {
            "runs requested" => &mut s.requested,
            "unique after dedup" => &mut s.unique,
            "simulated" => &mut s.simulated,
            "failed" => &mut s.failed,
            _ => continue,
        };
        *slot = num.parse().ok()?;
        seen += 1;
    }
    (seen == 4).then_some(s)
}

/// One `exp_all` invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// Whether it exited 0.
    pub exit_ok: bool,
    /// Its summary line, if it printed one.
    pub summary: Option<Summary>,
    /// Digest of every figure file (name and bytes) in the results
    /// directory afterwards.
    pub figures: u64,
    /// Host speed around the invocation, relative to nominal: for a cold
    /// run by [`Speedometer`] slices timed while it runs, for a warm run by
    /// [`FileSpeedometer`] slices timed right before and right after it.
    pub speed: f64,
}

impl Invocation {
    /// [`Invocation::wall_s`] rescaled to nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        self.wall_s * self.speed
    }
}

/// Where one pass keeps its figures and cache.
#[derive(Debug, Clone)]
pub struct PassDirs {
    /// `EHS_RESULTS_DIR`.
    pub results: PathBuf,
    /// `EHS_RUNCACHE_DIR`.
    pub cache: PathBuf,
}

impl PassDirs {
    /// Fresh, empty directories under `root`.
    pub fn create(root: &Path) -> std::io::Result<Self> {
        let dirs = Self {
            results: root.join("results"),
            cache: root.join("runcache"),
        };
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(&dirs.results)?;
        std::fs::create_dir_all(&dirs.cache)?;
        Ok(dirs)
    }
}

/// Worker threads `exp_all` gets: at most two, and never more than the
/// host offers.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs `exp_all tiny --threads <threads>` (`--expect-cached` when `warm`)
/// on `dirs` and waits for it.
fn invoke(
    exp_all: &Path,
    dirs: &PassDirs,
    threads: usize,
    warm: bool,
) -> std::io::Result<Invocation> {
    let mut cmd = Command::new(exp_all);
    cmd.args(["tiny", "--threads", &threads.to_string()])
        .args(warm.then_some("--expect-cached"))
        .env(RESULTS_ENV_VAR, &dirs.results)
        .env(DIR_ENV_VAR, &dirs.cache)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let start = Instant::now();
    let out = cmd.output()?;
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(Invocation {
        wall_s,
        exit_ok: out.status.success(),
        summary: parse_summary(&stdout),
        figures: figures_digest(&dirs.results),
        speed: 1.0,
    })
}

fn figures_digest(dir: &Path) -> u64 {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    names.sort();
    let mut bytes = Vec::new();
    for path in names {
        bytes.extend_from_slice(path.file_name().unwrap_or_default().as_encoded_bytes());
        bytes.extend(std::fs::read(&path).unwrap_or_default());
    }
    checksum(&bytes)
}

/// The suite plan `exp_all tiny` executes.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Requested jobs.
    pub requested: u64,
    /// Its deduplicated job set.
    pub unique: Vec<Job>,
}

/// Plans the suite the way `exp_all tiny` does.
pub fn plan() -> Plan {
    let plan = plan_suite(Scale::Tiny);
    let unique = unique_jobs(&plan.jobs);
    debug_assert_eq!(unique.len(), count_unique(&plan.jobs));
    Plan {
        requested: plan.jobs.len() as u64,
        unique,
    }
}

/// One measured pass: set-up (fresh directories plus the planning the
/// benchmark checks against), one cold run, then `warm_runs` warm runs.
#[derive(Debug, Clone)]
pub struct SuitePass {
    /// Set-up seconds.
    pub setup_s: f64,
    /// The cold invocation.
    pub cold: Invocation,
    /// The `--expect-cached` invocations.
    pub warm: Vec<Invocation>,
    /// The plan made during set-up.
    pub plan: Plan,
}

/// Runs one pass in `root` (left in place for the caller to inspect),
/// sampling the host's speed around every invocation. A cold run is
/// seconds of simulation on two threads, which slices timed before and
/// after it track only loosely, so it is rescaled by the slices timed
/// while it runs. A warm run is ~30 ms of process start-up and small-file
/// reads: too short to be sampled while it runs, and tracked by the file
/// kernel, not by the simulation one.
pub fn run_pass(
    exp_all: &Path,
    root: &Path,
    warm_runs: usize,
    pass: u32,
    clock: &mut Clock,
    speed: &mut Speedometer,
    files: &FileSpeedometer,
) -> std::io::Result<(SuitePass, PassDirs)> {
    let key = RunKey::pass(pass);
    let threads = threads();
    let span = clock.open("pass", key);
    let start = Instant::now();
    let dirs = PassDirs::create(root)?;
    let (plan, _) = clock.time("planner.plan", key, plan);
    let setup_s = start.elapsed().as_secs_f64();
    let ((cold, _), during) = speed.during(|| {
        clock.time("exp_all.cold", key, || {
            invoke(exp_all, &dirs, threads, false)
        })
    });
    let mut cold = cold?;
    cold.speed = during.speed();
    let mut before = clock.time("host.reference", key, || files.sample()).0?;
    let mut warm = Vec::with_capacity(warm_runs);
    for _ in 0..warm_runs {
        let mut run = clock
            .time("exp_all.warm", key, || {
                invoke(exp_all, &dirs, threads, true)
            })
            .0?;
        let after = clock.time("host.reference", key, || files.sample()).0?;
        run.speed = (before + after).speed();
        before = after;
        warm.push(run);
    }
    clock.close(span);
    Ok((
        SuitePass {
            setup_s,
            cold,
            warm,
            plan,
        },
        dirs,
    ))
}

/// Every problem with a pass: a non-zero exit, failed jobs, a cold run
/// that did not simulate exactly the unique job set, a warm run that
/// simulated anything, or figures that differ from `reference_figures`.
pub fn check_pass(p: &SuitePass, reference_figures: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let unique = p.plan.unique.len() as u64;
    let runs = std::iter::once((&p.cold, false)).chain(p.warm.iter().map(|w| (w, true)));
    for (run, warm) in runs {
        let kind = if warm { "warm" } else { "cold" };
        let Some(s) = run.summary else {
            problems.push(format!("{kind} exp_all printed no summary line"));
            continue;
        };
        if !run.exit_ok || s.failed != 0 {
            problems.push(format!("{kind} exp_all failed ({} failed jobs)", s.failed));
        }
        if s.requested != p.plan.requested || s.unique != unique {
            problems.push(format!(
                "{kind} exp_all planned {}/{} jobs, the planner {}/{unique}",
                s.requested, s.unique, p.plan.requested
            ));
        }
        let expected = if warm { 0 } else { unique };
        if s.simulated != expected {
            problems.push(format!(
                "{kind} exp_all simulated {} jobs, expected {expected}",
                s.simulated
            ));
        }
        if run.figures != reference_figures {
            problems.push(format!("{kind} exp_all wrote figures that differ"));
        }
    }
    problems
}

/// Stores `results[i]` as `jobs[i]` in `cache`; returns each store's
/// microseconds.
pub fn store_results(
    cache: &RunCache,
    jobs: &[Job],
    results: &[RunResult],
) -> Result<Vec<f64>, String> {
    jobs.iter()
        .zip(results)
        .map(|(job, r)| {
            let fp = effective_fingerprint(&job.config, job.scheme);
            let t = Instant::now();
            if cache.store(fp, job.scheme, job.app, job.scale, r, None) {
                Ok(t.elapsed().as_secs_f64() * 1e6)
            } else {
                Err(format!(
                    "{}/{}: the run cache store failed",
                    job.scheme, job.app
                ))
            }
        })
        .collect()
}

/// Loads every job of `jobs` from `cache`; `Err` names the first job
/// missing.
pub fn load_results(cache: &RunCache, jobs: &[Job]) -> Result<Vec<RunResult>, String> {
    jobs.iter()
        .map(|job| {
            cache
                .load(
                    effective_fingerprint(&job.config, job.scheme),
                    job.scheme,
                    job.app,
                    job.scale,
                )
                .map(|c| c.result)
                .ok_or_else(|| format!("{}/{} is missing from the cache", job.scheme, job.app))
        })
        .collect()
}
