//! End-to-end fault campaigns against the real `exp_all` binary: concurrent
//! suite processes sharing one cache, with and without injected kills and
//! I/O faults, kill -9 mid-run + resume, and a panicking job that must fail
//! exactly its own figure.
//!
//! The cache directory is the only record of finished work, so a resumed
//! run is held to the correctness criterion of intermittent execution: it
//! must redo exactly the work the faults lost ([`lost_work`], read from the
//! disk) and write figures byte-identical to an uninterrupted run.
//!
//! Each campaign spawns full `exp_all tiny` suites (seconds each in
//! release, minutes in debug), so every campaign is `#[ignore]`d out of
//! the default `cargo test` pass. The CI fault-injection job runs them
//! with:
//!
//! ```text
//! cargo test --release -p ehs-sim --test fault_tolerance -- --ignored
//! ```
//!
//! The kill points are randomized per campaign but seeded (`EHS_FAULT_SEED`,
//! default below), so a CI failure is reproducible by exporting the seed it
//! prints. The always-on, fast in-process slice of the fault matrix lives
//! in `tests/fault_injection.rs`.

use ehs_sim::planner::plan_suite;
use ehs_sim::runcache::RunCache;
use ehs_sim::runner::{count_unique, effective_fingerprint, unique_jobs, Job};
use ehs_sim::Scheme;
use ehs_workloads::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const EXP_ALL: &str = env!("CARGO_BIN_EXE_exp_all");
const DEFAULT_SEED: u64 = 0x0ed6_b10c_4bad_5eed;

fn seed() -> u64 {
    let seed = std::env::var("EHS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    eprintln!("fault campaign seed: {seed} (reproduce with EHS_FAULT_SEED={seed})");
    seed
}

/// Deterministic PRNG for kill-point selection (splitmix-style step).
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 17
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn exp_all_command(
    results: &Path,
    cache: &Path,
    failplan: Option<&str>,
    extra: &[&str],
) -> Command {
    let mut cmd = Command::new(EXP_ALL);
    cmd.arg("tiny")
        .args(["--threads", "2"])
        .args(extra)
        .env("EHS_RESULTS_DIR", results)
        .env("EHS_RUNCACHE_DIR", cache)
        .env_remove("EHS_FAILPLAN");
    if let Some(plan) = failplan {
        cmd.env("EHS_FAILPLAN", plan);
    }
    cmd
}

fn run_exp_all(results: &Path, cache: &Path, failplan: Option<&str>, extra: &[&str]) -> Output {
    exp_all_command(results, cache, failplan, extra)
        .output()
        .expect("spawn exp_all")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_clean_exit(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({}):\n{}",
        out.status,
        stderr_of(out)
    );
}

/// Every written figure, name -> bytes.
fn figures(results: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(results) else {
        return map;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "txt") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            map.insert(name, std::fs::read(&path).expect("read figure"));
        }
    }
    map
}

/// The `{n} simulated` field of the final `suite: ...` summary line.
fn simulated_count(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("suite:"))
        .unwrap_or_else(|| panic!("no suite summary in:\n{stdout}"));
    line.split(',')
        .find_map(|part| part.trim().strip_suffix(" simulated"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable suite summary: {line}"))
}

fn suite_unique_at_tiny() -> u64 {
    count_unique(&plan_suite(Scale::Tiny).jobs) as u64
}

/// The simulations a clean `exp_all tiny` over `cache` must execute: one
/// for each unique key whose entry does not load, plus one more for each
/// such `Ideal` key whose baseline does load (its oracle trace is not
/// persisted, so the baseline is re-recorded).
fn lost_work(cache: &Path) -> u64 {
    let cache = RunCache::new(cache).expect("open campaign cache");
    let loads = |job: &Job, scheme: Scheme| {
        let fp = effective_fingerprint(&job.config, scheme);
        cache.load(fp, scheme, job.app, job.scale).is_some()
    };
    unique_jobs(&plan_suite(Scale::Tiny).jobs)
        .iter()
        .filter(|job| !loads(job, job.scheme))
        .map(|job| {
            if job.scheme.needs_oracle_trace() && loads(job, Scheme::Baseline) {
                2
            } else {
                1
            }
        })
        .sum()
}

/// Two `exp_all` processes racing on one shared run cache, B under a seeded
/// store I/O error, must both succeed with the reference figures. Nothing
/// splits the work, so between them they simulate every unique job at
/// least once; A stores every key whose store failed in B, so the pair
/// leaves a complete cache of segments and nothing else, which a third run
/// must replay without a single simulation.
#[test]
#[ignore = "spawns full exp_all suites; CI fault-injection job runs with --release --ignored"]
fn concurrent_suites_share_one_cache_without_corruption() {
    let mut rng = seed();
    let golden_results = fresh_dir("conc-golden-results");
    let golden = run_exp_all(&golden_results, &fresh_dir("conc-golden-cache"), None, &[]);
    assert_clean_exit(&golden, "uninterrupted reference run");
    let golden_figs = figures(&golden_results);
    assert_eq!(golden_figs.len(), 20);

    let cache = fresh_dir("conc-cache");
    let results_a = fresh_dir("conc-results-a");
    let results_b = fresh_dir("conc-results-b");

    // An early store, so the fault fires while both runs are cold.
    let plan_b = format!("io@store={}", 1 + next_rand(&mut rng) % 16);
    eprintln!("run B fail plan: {plan_b}");
    let spawn = |results: &Path, plan: Option<&str>| {
        exp_all_command(results, &cache, plan, &[])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn exp_all")
    };
    let child_a = spawn(&results_a, None);
    let child_b = spawn(&results_b, Some(&plan_b));
    let out_a = child_a.wait_with_output().expect("wait for exp_all A");
    let out_b = child_b.wait_with_output().expect("wait for exp_all B");
    assert_clean_exit(&out_a, "concurrent exp_all A");
    assert_clean_exit(&out_b, "concurrent exp_all B");
    assert!(
        stderr_of(&out_b).contains("injected I/O error"),
        "B's store fault never fired:\n{}",
        stderr_of(&out_b)
    );

    let figs_a = figures(&results_a);
    assert_eq!(
        figs_a, golden_figs,
        "A's figures diverged from the reference"
    );
    assert_eq!(figures(&results_b), figs_a, "concurrent runs diverged");

    // Each run simulates what it does not find on disk, so between them
    // every unique job simulated at least once.
    let (sim_a, sim_b) = (
        simulated_count(&stdout_of(&out_a)),
        simulated_count(&stdout_of(&out_b)),
    );
    let unique = suite_unique_at_tiny();
    eprintln!("A simulated {sim_a}, B {sim_b}, of {unique} unique jobs");
    assert!(
        sim_a + sim_b >= unique,
        "the two runs simulated {sim_a} + {sim_b} of {unique} jobs"
    );
    // Every unique entry loads from the shared directory.
    assert_eq!(lost_work(&cache), 0, "the pair left work undone");

    // No debris: a finished pair leaves only segments.
    for entry in std::fs::read_dir(&cache).expect("read cache dir").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(name.ends_with(".seg"), "leftover cache debris: {name}");
    }

    // The shared cache replays cleanly: zero simulations, same figures.
    let results_c = fresh_dir("conc-results-c");
    let warm = run_exp_all(&results_c, &cache, None, &["--expect-cached"]);
    assert_clean_exit(&warm, "warm validation pass");
    assert_eq!(simulated_count(&stdout_of(&warm)), 0);
    assert_eq!(figures(&results_c), figs_a, "warm replay diverged");
}

/// A suite killed (exit as-if-SIGKILLed) at seeded random store points must,
/// on a plain re-invocation, simulate exactly the work the kill lost and
/// produce figures byte-identical to a never-interrupted run. The "mixed"
/// case carries all three fault kinds in one run — a job panic, a torn
/// cache write, and a kill that fires last (store 61 comes after store 23
/// and after the first zombie execution).
#[test]
#[ignore = "spawns full exp_all suites; CI fault-injection job runs with --release --ignored"]
fn killed_suite_resumes_byte_identical() {
    let mut rng = seed();
    let unique = suite_unique_at_tiny();

    let golden_results = fresh_dir("kill-golden-results");
    let golden = run_exp_all(&golden_results, &fresh_dir("kill-golden-cache"), None, &[]);
    assert_clean_exit(&golden, "uninterrupted reference run");
    let golden_figs = figures(&golden_results);
    assert_eq!(golden_figs.len(), 20);

    // Two kill points: one early, one past the midpoint. Both in
    // [2, unique] so at least one store lands before the kill.
    let early = 2 + next_rand(&mut rng) % (unique / 4).max(1);
    let late = (unique / 2 + next_rand(&mut rng) % (unique / 4).max(1)).min(unique);
    for (label, plan) in [
        ("early", format!("kill@store={early}")),
        ("late", format!("kill@store={late}")),
        (
            "mixed",
            "panic@zombie=1,short@store=23,kill@store=61".to_string(),
        ),
    ] {
        let cache = fresh_dir(&format!("kill-{label}-cache"));
        let results = fresh_dir(&format!("kill-{label}-results"));

        let killed = run_exp_all(&results, &cache, Some(&plan), &[]);
        assert_eq!(
            killed.status.code(),
            Some(137),
            "{label} run under {plan} must die with the SIGKILL code, got {}:\n{}",
            killed.status,
            stderr_of(&killed)
        );
        assert!(
            stderr_of(&killed).contains("fault injection: kill"),
            "{label}: kill must announce itself on stderr"
        );

        let lost = lost_work(&cache);
        eprintln!("{label} ({plan}): {lost} simulation(s) lost");
        let resumed = run_exp_all(&results, &cache, None, &[]);
        assert_clean_exit(&resumed, "resumed run");
        assert_eq!(
            simulated_count(&stdout_of(&resumed)),
            lost,
            "{label}: the resume must redo exactly the work the kill lost"
        );
        assert_eq!(
            figures(&results),
            golden_figs,
            "{label}: resumed figures diverged from the uninterrupted run"
        );

        // And the recovered cache is fully valid: a pure replay succeeds.
        let warm = run_exp_all(&results, &cache, None, &["--expect-cached"]);
        assert_clean_exit(&warm, "post-resume warm validation");
    }
}

/// Each flag of the removed fleet roles, and the removed resume check, is
/// an unknown argument: usage on stderr, exit 2, nothing run — cheap
/// enough for the default pass.
#[test]
fn removed_fleet_flags_exit_with_usage() {
    let cache = fresh_dir("removed-flags-cache");
    let results = fresh_dir("removed-flags-results");
    for flags in [
        &["--worker"][..],
        &["--finalize"],
        &["--wait", "5"],
        &["--verify", "ref"],
        &["--max-retries", "3"],
        &["--expect-resumable"],
    ] {
        let out = run_exp_all(&results, &cache, None, flags);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flags:?} must exit 2, got {}",
            out.status
        );
        assert!(
            stderr_of(&out).contains("usage: exp_all"),
            "{flags:?} must print usage:\n{}",
            stderr_of(&out)
        );
    }
    assert!(figures(&results).is_empty(), "no figure may be written");
}

/// Four concurrent `exp_all` runs share one cache directory under seeded
/// fault plans: killed mid-store, failing a store, killed at a simulation
/// start, and tearing a store. The `io` and `short` runs also carry a later
/// seeded `kill@store`, so every run exits 137 and together they store at
/// most about a quarter of the set. One clean run then resumes: it simulates
/// exactly the work the four left undone, read from the disk, which is
/// never zero, and writes the reference figures. A final run replays the
/// cache without a simulation.
#[test]
#[ignore = "spawns full exp_all suites; CI fault-injection job runs with --release --ignored"]
fn four_runs_under_seeded_faults_render_byte_identical() {
    let mut rng = seed();

    // The single-process reference.
    let golden_results = fresh_dir("four-runs-golden-results");
    let golden = run_exp_all(
        &golden_results,
        &fresh_dir("four-runs-golden-cache"),
        None,
        &[],
    );
    assert_clean_exit(&golden, "uninterrupted reference run");
    let golden_figs = figures(&golden_results);
    assert_eq!(golden_figs.len(), 20);

    let cache = fresh_dir("four-runs-cache");

    // Early occurrence numbers, so every plan fires. The `io` and `short`
    // runs' kills come at store K in [5, unique/8]: after their own store
    // fault (at most the 4th), and early enough that the four runs cannot
    // finish the set between them.
    let late_store = suite_unique_at_tiny() / 8;
    let late_kill = |rng: &mut u64| format!("kill@store={}", 5 + next_rand(rng) % (late_store - 4));
    let plans = [
        format!("kill@store={}", 2 + next_rand(&mut rng) % 8),
        format!(
            "io@store={},{}",
            1 + next_rand(&mut rng) % 4,
            late_kill(&mut rng)
        ),
        format!("kill@exec={}", 2 + next_rand(&mut rng) % 8),
        format!(
            "short@store={},{}",
            1 + next_rand(&mut rng) % 4,
            late_kill(&mut rng)
        ),
    ];
    eprintln!("fail plans: {plans:?}");
    let runs: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            exp_all_command(
                &fresh_dir(&format!("four-runs-results-{i}")),
                &cache,
                Some(plan),
                &[],
            )
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn exp_all")
        })
        .collect();
    for (plan, child) in plans.iter().zip(runs) {
        let out = child.wait_with_output().expect("wait for exp_all");
        assert_eq!(
            out.status.code(),
            Some(137),
            "the run with plan {plan} must be killed, but exited {}:\n{}",
            out.status,
            stderr_of(&out)
        );
    }

    // One clean run finishes whatever the killed runs left behind.
    let lost = lost_work(&cache);
    eprintln!("after the faulted runs: {lost} simulation(s) lost");
    assert!(
        lost > 0,
        "the faulted runs finished the set, so the resume recovers nothing"
    );
    let results = fresh_dir("four-runs-resume-results");
    let resumed = run_exp_all(&results, &cache, None, &[]);
    assert_clean_exit(&resumed, "resumed run");
    assert_eq!(
        simulated_count(&stdout_of(&resumed)),
        lost,
        "the resume must redo exactly the work the faulted runs left undone"
    );
    assert_eq!(
        figures(&results),
        golden_figs,
        "the resumed run's figures diverged from the reference"
    );

    let warm_results = fresh_dir("four-runs-warm-results");
    let warm = run_exp_all(&warm_results, &cache, None, &["--expect-cached"]);
    assert_clean_exit(&warm, "warm replay of the campaign cache");
    assert_eq!(simulated_count(&stdout_of(&warm)), 0);
    assert_eq!(figures(&warm_results), golden_figs);
}

/// A job panic (plus a torn cache write) fails exactly the one figure
/// whose plan contains the panicked job; every other figure is written, the
/// run exits 1 with a structured summary, and the re-invocation simulates
/// exactly the work lost to the faults.
#[test]
#[ignore = "spawns full exp_all suites; CI fault-injection job runs with --release --ignored"]
fn panicking_job_fails_only_its_own_figure() {
    let mut rng = seed();
    let cache = fresh_dir("panic-cache");
    let results = fresh_dir("panic-results");

    // Only Fig. 4 runs zombie-instrumented jobs, so `panic@zombie=1` is a
    // precision strike on one figure. The torn store lands wherever the
    // seeded point falls — its job completes in-memory, so only the resumed
    // run notices the entry is unusable.
    let torn_at = 2 + next_rand(&mut rng) % suite_unique_at_tiny().max(2) / 2;
    let plan = format!("panic@zombie=1,short@store={torn_at}");
    let faulted = run_exp_all(&results, &cache, Some(&plan), &[]);
    assert_eq!(
        faulted.status.code(),
        Some(1),
        "a failed figure must exit 1, got {}:\n{}",
        faulted.status,
        stderr_of(&faulted)
    );
    let stderr = stderr_of(&faulted);
    assert!(
        stderr.contains("failure summary (1 figure(s) not written):"),
        "structured failure summary missing:\n{stderr}"
    );
    assert!(
        stderr.contains("exp_fig04_zombie_ratio"),
        "the summary must name the failed figure:\n{stderr}"
    );

    let partial = figures(&results);
    assert!(
        !partial.contains_key("exp_fig04_zombie_ratio.txt"),
        "the failed figure must not be written"
    );
    assert_eq!(
        partial.len(),
        19,
        "every unaffected figure must still be written"
    );

    // Re-invocation completes the suite, resimulating only the lost work:
    // the panicked zombie job, the torn-store job, and (only when the torn
    // entry was an Ideal run) its oracle-trace refill.
    let lost = lost_work(&cache);
    let resumed = run_exp_all(&results, &cache, None, &[]);
    assert_clean_exit(&resumed, "resumed run after contained panic");
    let resimulated = simulated_count(&stdout_of(&resumed));
    assert_eq!(resimulated, lost, "resume must redo exactly the lost work");
    assert!(
        (2..=3).contains(&resimulated),
        "resume must simulate only the jobs lost to faults, simulated {resimulated}"
    );
    let complete = figures(&results);
    assert!(complete.contains_key("exp_fig04_zombie_ratio.txt"));
    assert_eq!(complete.len(), 20);
    for (name, bytes) in &partial {
        assert_eq!(
            complete.get(name),
            Some(bytes),
            "{name} changed across the resumed run"
        );
    }
}
