//! The suite planner: a registry of every experiment's plan/report pair,
//! plus the global orchestrator behind the `exp_all` binary.
//!
//! A registered [`Experiment`] is the library form of one `exp_*` binary:
//! `plan` maps a workload scale to the flat, deterministically ordered
//! [`Job`] list the figure needs, and `report` turns those jobs' outputs
//! (in plan order) back into the figure's table. The thin binaries call
//! [`experiment_main`]; [`run_suite`] instead concatenates *every*
//! experiment's plan, runs the union once through the runner's one producer
//! — which collapses all cross-experiment duplicates (see
//! [`crate::runner::effective_fingerprint`]), carries each Ideal job with
//! the baseline it replays, runs lockstep groups, and kills the straggler
//! tail with a longest-first queue — and then dispatches each experiment's
//! slice of the outputs to its reporter in registry order. Several
//! `exp_all`s sharing one cache directory split the work through that
//! producer's claims, and each renders every figure.
//!
//! Invariants (see `DESIGN.md` §8):
//!
//! * Reports are pure functions of their output slice, so per-figure tables
//!   are byte-identical whether an experiment ran standalone, inside
//!   `exp_all` cache-cold, or replayed cache-warm.
//! * Dedup accounting is exact: a cache-cold `run_suite` executes exactly
//!   [`crate::runner::count_unique`] simulations (asserted by a test).

use crate::cli::{self, SuiteOptions};
use crate::experiments::ExperimentOptions;
use crate::experiments::{headline, motivation, sensitivity};
use crate::fault;
use crate::report::Table;
use crate::runcache;
use crate::runner::{
    executed_entry_stems, simulations_executed, try_run_jobs_counted, try_run_jobs_outputs, Job,
    JobError, JobOutput,
};
use ehs_workloads::Scale;
use std::collections::HashSet;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Exit code: one or more jobs failed (a figure was not written), the
/// results directory is unwritable, or a `--expect-*` assertion tripped.
pub const EXIT_JOB_FAILURE: i32 = 1;
/// Exit code: bad usage or a malformed `$EHS_FAILPLAN`.
pub const EXIT_USAGE: i32 = 2;

/// One registered experiment: the library form of an `exp_*` binary.
pub struct Experiment {
    /// Binary / output-file stem, e.g. `exp_fig08_performance`.
    pub name: &'static str,
    /// Human title printed above the table, e.g.
    /// `Fig. 8 (performance and cache miss rate)`.
    pub title: &'static str,
    /// The jobs this experiment needs, in deterministic order.
    pub plan: fn(Scale) -> Vec<Job>,
    /// Pure reporter over the planned jobs' outputs (same order).
    pub report: fn(&[JobOutput]) -> Table,
}

/// Every experiment, in the order `run_all_experiments.sh` has always
/// produced them.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "exp_hw_cost",
        title: "Section VI-B (hardware cost analysis)",
        plan: sensitivity::hw_cost_plan,
        report: sensitivity::hw_cost_report,
    },
    Experiment {
        name: "exp_fig09_absolute_power",
        title: "Fig. 9 (absolute power and total energy)",
        plan: headline::fig9_plan,
        report: headline::fig9_report,
    },
    Experiment {
        name: "exp_fig06_true_false_rates",
        title: "Fig. 6 (true/false prediction rates)",
        plan: headline::fig6_plan,
        report: headline::fig6_report,
    },
    Experiment {
        name: "exp_fig07_energy_breakdown",
        title: "Fig. 7 (energy breakdown and load/store ratio)",
        plan: headline::fig7_plan,
        report: headline::fig7_report,
    },
    Experiment {
        name: "exp_fig08_performance",
        title: "Fig. 8 (performance and cache miss rate)",
        plan: headline::fig8_plan,
        report: headline::fig8_report,
    },
    Experiment {
        name: "exp_fig04_zombie_ratio",
        title: "Fig. 4 (zombie ratio vs capacitor voltage)",
        plan: motivation::fig4_plan,
        report: motivation::fig4_report,
    },
    Experiment {
        name: "exp_table1",
        title: "Table I (SRAM leakage and static-energy ratio)",
        plan: motivation::table1_plan,
        report: motivation::table1_report,
    },
    Experiment {
        name: "exp_fig01_cache_size_motivation",
        title: "Fig. 1 (performance across cache sizes)",
        plan: motivation::fig1_plan,
        report: motivation::fig1_report,
    },
    Experiment {
        name: "exp_fig10_replacement_policy",
        title: "Fig. 10 (replacement-policy sensitivity)",
        plan: sensitivity::fig10_plan,
        report: sensitivity::fig10_report,
    },
    Experiment {
        name: "exp_fig11_cache_size",
        title: "Fig. 11 (cache-size sensitivity)",
        plan: sensitivity::fig11_plan,
        report: sensitivity::fig11_report,
    },
    Experiment {
        name: "exp_fig12_associativity",
        title: "Fig. 12 (associativity sensitivity)",
        plan: sensitivity::fig12_plan,
        report: sensitivity::fig12_report,
    },
    Experiment {
        name: "exp_fig13_nvm_technology",
        title: "Fig. 13 (NVM-technology sensitivity)",
        plan: sensitivity::fig13_plan,
        report: sensitivity::fig13_report,
    },
    Experiment {
        name: "exp_fig14_memory_size",
        title: "Fig. 14 (memory-size sensitivity)",
        plan: sensitivity::fig14_plan,
        report: sensitivity::fig14_report,
    },
    Experiment {
        name: "exp_fig15_energy_conditions",
        title: "Fig. 15 (energy-condition sensitivity)",
        plan: sensitivity::fig15_plan,
        report: sensitivity::fig15_report,
    },
    Experiment {
        name: "exp_fig16_capacitor_size",
        title: "Fig. 16 (capacitor-size sensitivity)",
        plan: sensitivity::fig16_plan,
        report: sensitivity::fig16_report,
    },
    Experiment {
        name: "exp_fig17_sensitivity_summary",
        title: "Fig. 17 (sensitivity summary)",
        plan: sensitivity::fig17_plan,
        report: sensitivity::fig17_report,
    },
    Experiment {
        name: "exp_fig18_icache",
        title: "Fig. 18 (EDBP for the instruction cache)",
        plan: sensitivity::fig18_plan,
        report: sensitivity::fig18_report,
    },
    Experiment {
        name: "exp_ablation_adaptation",
        title: "Section V-B1 ablation (threshold adaptation)",
        plan: sensitivity::ablation_adaptation_plan,
        report: sensitivity::ablation_adaptation_report,
    },
    Experiment {
        name: "exp_ablation_policy",
        title: "Section V-A ablation (MRU protection / clean-first)",
        plan: sensitivity::ablation_policy_plan,
        report: sensitivity::ablation_policy_report,
    },
    Experiment {
        name: "exp_other_predictors",
        title: "Section VII-A (EDBP with other predictors: AMC)",
        plan: sensitivity::other_predictors_plan,
        report: sensitivity::other_predictors_report,
    },
];

/// Looks an experiment up by binary name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The rendered form the binaries have always printed: title banner, the
/// table, and a trailing blank line.
pub fn render_titled(title: &str, table: &Table) -> String {
    format!("=== {title} ===\n{}\n", table.render())
}

/// The concatenated job list of every registered experiment, plus each
/// experiment's slice of it (registry order).
pub struct SuitePlan {
    /// All requested jobs, in registry-then-plan order.
    pub jobs: Vec<Job>,
    /// `jobs[sections[i]]` belongs to `REGISTRY[i]`.
    pub sections: Vec<Range<usize>>,
}

/// Collects every registered experiment's plan at `scale`.
pub fn plan_suite(scale: Scale) -> SuitePlan {
    let mut jobs = Vec::new();
    let mut sections = Vec::with_capacity(REGISTRY.len());
    for exp in REGISTRY {
        let start = jobs.len();
        jobs.extend((exp.plan)(scale));
        sections.push(start..jobs.len());
    }
    SuitePlan { jobs, sections }
}

/// The outcome of one [`run_suite`] call.
pub struct SuiteRun {
    /// One outcome per registered experiment, in registry order: the
    /// figure's table, or the (deduplicated) failures of the jobs it
    /// needed. A failed job only fails the experiments whose plans contain
    /// it — every unaffected experiment still gets its table.
    pub tables: Vec<Result<Table, Vec<JobError>>>,
    /// Total jobs requested across all experiments (before dedup).
    pub total_requested: usize,
    /// Distinct simulations a cache-cold run needs (after dedup).
    pub unique: usize,
    /// Simulations actually executed by this call (0 on a warm replay).
    pub executed: u64,
}

impl SuiteRun {
    /// The structured failure summary: `(experiment name, its failed
    /// jobs)`, registry order, empty exactly when every figure reported.
    pub fn failures(&self) -> Vec<(&'static str, &[JobError])> {
        REGISTRY
            .iter()
            .zip(&self.tables)
            .filter_map(|(exp, t)| t.as_ref().err().map(|errs| (exp.name, errs.as_slice())))
            .collect()
    }
}

/// Plans, runs and reports every registered experiment on one shared pool.
///
/// Worker panics are contained per job (see
/// [`crate::runner::try_run_jobs_outputs`]): an experiment whose slice has
/// a failed job yields `Err` with those failures, while every other
/// experiment's reporter runs normally — a single panicking job can never
/// abort the suite mid-pass.
pub fn run_suite(opts: ExperimentOptions) -> SuiteRun {
    let plan = plan_suite(opts.scale);
    let executed_before = simulations_executed();
    let (outputs, unique) = try_run_jobs_counted(&plan.jobs, opts.threads);
    let executed = simulations_executed() - executed_before;
    let tables = REGISTRY
        .iter()
        .zip(&plan.sections)
        .map(|(exp, range)| {
            let slice = &outputs[range.clone()];
            let mut errors: Vec<JobError> = Vec::new();
            let mut seen = HashSet::new();
            for r in slice {
                if let Err(e) = r {
                    // Duplicate requests for one failed key fail together;
                    // report the key once.
                    if seen.insert((e.config_fp, e.scheme, e.app, e.scale)) {
                        errors.push(e.clone());
                    }
                }
            }
            if errors.is_empty() {
                let ok: Vec<JobOutput> = slice
                    .iter()
                    .map(|r| r.as_ref().expect("no errors in slice").clone())
                    .collect();
                Ok((exp.report)(&ok))
            } else {
                Err(errors)
            }
        })
        .collect();
    SuiteRun {
        tables,
        total_requested: plan.jobs.len(),
        unique,
        executed,
    }
}

/// Environment override for the results directory (tests and concurrent
/// harness processes point it at private directories).
pub const RESULTS_ENV_VAR: &str = "EHS_RESULTS_DIR";

/// `results/` at the repository root (binaries write there regardless of
/// the working directory, like the shell script always did from the root),
/// unless overridden via [`RESULTS_ENV_VAR`].
pub fn results_dir() -> PathBuf {
    match std::env::var_os(RESULTS_ENV_VAR) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")),
    }
}

/// Arms the fault-injection harness from `$EHS_FAILPLAN`; a malformed plan
/// is a hard error (exit 2) — a fault campaign must never silently run
/// fault-free.
fn arm_fault_plan_or_exit() {
    if let Err(msg) = fault::install_from_env() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}

/// Writes `bytes` to `path` via a sibling temp file + atomic rename, so a
/// killed process never leaves a torn figure on disk. The temp file is
/// private to this call (`<figure>.tmp-<pid>-<n>`), so two `exp_all`s
/// writing one results directory never rename each other's bytes.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(runcache::unique_tmp_suffix());
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Entry point for the thin per-experiment binaries: parse the unified CLI,
/// install the persistent cache (unless `--no-cache`), run this
/// experiment's plan, print the reported table. A failed job prints a
/// structured failure summary and exits 1 instead of unwinding.
pub fn experiment_main(name: &str) {
    let exp = find(name).unwrap_or_else(|| panic!("{name} is not a registered experiment"));
    let cli = cli::parse_or_exit(name);
    arm_fault_plan_or_exit();
    if !cli.no_cache {
        runcache::install_default();
    }
    let jobs = (exp.plan)(cli.scale);
    let outputs = try_run_jobs_outputs(&jobs, cli.threads);
    let errors: Vec<&JobError> = outputs.iter().filter_map(|r| r.as_ref().err()).collect();
    if !errors.is_empty() {
        eprintln!("{name}: {} job(s) failed:", errors.len());
        for e in errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    let ok: Vec<JobOutput> = outputs
        .into_iter()
        .map(|r| r.expect("checked above"))
        .collect();
    let table = (exp.report)(&ok);
    if cli.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", render_titled(exp.title, &table));
    }
}

/// Entry point for `exp_all`: runs the whole registry through one planner
/// pass and writes each figure to `results/<name>.txt` (and `.csv` when
/// `--csv` is given), byte-identical to what the standalone binary prints.
///
/// Fault tolerance: a panicking job fails only the experiments whose plans
/// contain it — every other figure is still written (atomically, so a
/// killed process never leaves a torn figure) — and the run exits 1 with a
/// structured per-figure failure summary on stderr. A killed run resumes
/// on re-invocation through the persistent cache plus the suite journal,
/// which every run compacts at startup.
///
/// Any number of `exp_all`s may share one cache directory
/// (`EHS_RUNCACHE_DIR`; see `EXPERIMENTS.md` for the multi-machine
/// runbook): each adopts the entries already on disk, claims and simulates
/// the rest, waits out the keys a live rival holds, and renders every
/// figure.
///
/// Extra flags:
///
/// * `--expect-cached` exits non-zero if any simulation actually executed —
///   the CI hook asserting a warm re-run is a pure cache replay.
/// * `--expect-resumable` exits non-zero if any job recorded in the suite
///   journal (i.e. completed *and persisted* by an earlier, possibly
///   killed, run) was re-simulated — the explicit resume contract.
///
/// Exit codes: `0` success, [`EXIT_JOB_FAILURE`], [`EXIT_USAGE`], and 137
/// for a kill (SIGKILL, or an injected `kill` fault; see [`crate::fault`]).
pub fn suite_main() {
    let opts = match cli::parse_suite(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(cli::CliError::Help) => {
            println!("{}", cli::suite_usage());
            return;
        }
        Err(cli::CliError::Invalid(msg)) => {
            eprintln!("{msg}");
            eprintln!("{}", cli::suite_usage());
            std::process::exit(EXIT_USAGE);
        }
    };
    arm_fault_plan_or_exit();
    if !opts.cli.no_cache {
        runcache::install_default();
    }
    if let Some(cache) = runcache::active() {
        match cache.compact_journal() {
            Ok(0) => {}
            Ok(removed) => println!("journal: compacted ({removed} duplicate/torn line(s))"),
            Err(e) => eprintln!("warning: journal compaction failed ({e}); continuing"),
        }
    }

    // Snapshot the journal before running: these jobs were completed and
    // persisted by an earlier run (possibly one that was killed mid-suite),
    // so this run must replay — not re-simulate — them.
    let journaled_before: HashSet<String> = runcache::active()
        .map(|c| c.journal_entries())
        .unwrap_or_default();
    if !journaled_before.is_empty() {
        println!(
            "resume: {} job(s) journaled by earlier runs will replay from cache",
            journaled_before.len()
        );
    }

    let start = std::time::Instant::now();
    let run = run_suite(opts.cli.experiment_options());
    write_figures(&run, &opts);
    let failures = run.failures();
    let failed_jobs: usize = failures.iter().map(|(_, errs)| errs.len()).sum();
    println!(
        "suite: {} experiments, {} runs requested, {} unique after dedup, {} simulated, \
         {} failed, {:.1}s",
        REGISTRY.len(),
        run.total_requested,
        run.unique,
        run.executed,
        failed_jobs,
        start.elapsed().as_secs_f64(),
    );

    let mut exit_code = 0;
    if !failures.is_empty() {
        exit_code = EXIT_JOB_FAILURE;
        eprintln!(
            "failure summary ({} figure(s) not written):",
            failures.len()
        );
        for (name, errs) in &failures {
            eprintln!("  {name}: {} failed job(s)", errs.len());
            for e in *errs {
                eprintln!("    {e}");
            }
        }
    }
    if opts.expect_cached && run.executed != 0 {
        eprintln!(
            "--expect-cached: expected a pure cache replay but {} simulation(s) executed",
            run.executed
        );
        exit_code = EXIT_JOB_FAILURE;
    }
    if opts.expect_resumable {
        let re_simulated: Vec<String> = executed_entry_stems()
            .into_iter()
            .filter(|stem| journaled_before.contains(stem))
            .collect();
        if !re_simulated.is_empty() {
            eprintln!(
                "--expect-resumable: {} journaled job(s) were re-simulated instead of replayed:",
                re_simulated.len()
            );
            for stem in re_simulated {
                eprintln!("  {stem}");
            }
            exit_code = EXIT_JOB_FAILURE;
        }
    }
    std::process::exit(exit_code);
}

/// Writes every successfully reported figure of `run` to the results
/// directory (atomically); exits [`EXIT_JOB_FAILURE`] on an unwritable
/// directory.
fn write_figures(run: &SuiteRun, opts: &SuiteOptions) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!(
            "error: cannot create results directory {} ({e}); \
             set {RESULTS_ENV_VAR} to a writable location",
            dir.display()
        );
        std::process::exit(EXIT_JOB_FAILURE);
    }
    for (exp, table) in REGISTRY.iter().zip(&run.tables) {
        let Ok(table) = table else {
            continue; // summarized by the caller; unaffected figures land
        };
        let path = dir.join(format!("{}.txt", exp.name));
        let mut wrote = write_atomic(&path, render_titled(exp.title, table).as_bytes());
        if opts.cli.csv && wrote.is_ok() {
            let path = dir.join(format!("{}.csv", exp.name));
            wrote = write_atomic(&path, table.to_csv().as_bytes());
        }
        if let Err(e) = wrote {
            eprintln!(
                "error: cannot write figure {} ({e}); \
                 set {RESULTS_ENV_VAR} to a writable location",
                path.display()
            );
            std::process::exit(EXIT_JOB_FAILURE);
        }
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::count_unique;

    #[test]
    fn registry_names_and_titles_are_unique() {
        let mut names = std::collections::HashSet::new();
        let mut titles = std::collections::HashSet::new();
        for exp in REGISTRY {
            assert!(names.insert(exp.name), "duplicate name {}", exp.name);
            assert!(titles.insert(exp.title), "duplicate title {}", exp.title);
        }
        assert_eq!(REGISTRY.len(), 20);
    }

    #[test]
    fn suite_plan_sections_tile_the_job_list() {
        let plan = plan_suite(Scale::Tiny);
        let mut cursor = 0;
        for range in &plan.sections {
            assert_eq!(range.start, cursor);
            cursor = range.end;
        }
        assert_eq!(cursor, plan.jobs.len());
        // The whole point of the planner: the suite shares heavily.
        assert!(
            count_unique(&plan.jobs) < plan.jobs.len(),
            "cross-experiment dedup must fold something"
        );
    }

    /// Two writers of one figure never share a temp file: every write
    /// succeeds, the figure holds one writer's bytes whole, and no temp
    /// file is left behind.
    #[test]
    fn concurrent_writes_of_one_figure_all_succeed() {
        let dir = std::env::temp_dir().join(format!("ehs-write-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("exp_figure.txt");
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for writer in [b'a', b'b'] {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..300 {
                        let bytes = vec![writer; 4096 + i];
                        if let Err(e) = write_atomic(path, &bytes) {
                            panic!("write {i} by {} failed: {e}", writer as char);
                        }
                    }
                });
            }
        });
        let figure = std::fs::read(&path).expect("figure written");
        assert!(
            figure.iter().all(|&b| b == figure[0]),
            "interleaved bytes of two writers"
        );
        let files = std::fs::read_dir(&dir).expect("list temp dir").count();
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
        assert_eq!(files, 1, "a temp file was left behind");
    }

    #[test]
    fn titled_rendering_matches_the_historical_binary_output() {
        let mut table = Table::new(["a", "b"]);
        table.row(["1", "2"]);
        let s = render_titled("Fig. X (test)", &table);
        assert!(s.starts_with("=== Fig. X (test) ===\n"));
        assert!(s.ends_with("\n\n"), "banner + table + trailing blank line");
    }
}
