//! Regression tests for the two properties the run infrastructure promises:
//!
//! 1. **Determinism** — a scheme × app matrix produces bit-identical
//!    simulated outcomes regardless of worker-thread count, and results
//!    served from the memoization cache equal fresh uncached executions
//!    (`RunResult::PartialEq` deliberately excludes the wall-clock
//!    `sim_mips` field, so `==` is exactly "same simulated outcome").
//! 2. **Baseline sharing** — a matrix containing the Ideal scheme performs
//!    exactly one baseline execution per (app, config, seed): the oracle's
//!    trace-recording pass *is* the baseline column's run.

use ehs_sim::runner::{baseline_executions, matrix_jobs, try_run_jobs_outputs};
use ehs_sim::{run_app, RunResult, Scheme, SourceKind, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::sync::{Mutex, MutexGuard};

const APPS: [AppId; 2] = [AppId::Crc32, AppId::Bitcount];

/// The execution counter is process-wide, so tests in this binary must not
/// run baseline simulations concurrently while another test counts them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `schemes` × [`APPS`] at Tiny on `threads` threads, flat in
/// `[scheme * APPS.len() + app]` order.
fn run_matrix(config: &SystemConfig, schemes: &[Scheme], threads: usize) -> Vec<RunResult> {
    try_run_jobs_outputs(&matrix_jobs(config, schemes, &APPS, Scale::Tiny), threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("job failed: {e}")).result)
        .collect()
}

/// A config keyed by seed, so each test gets its own memoization entries.
fn config_with_seed(seed: u64) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    if let SourceKind::Preset { preset, scale, .. } = config.source {
        config.source = SourceKind::Preset {
            preset,
            seed,
            scale,
        };
    }
    config
}

#[test]
fn matrix_is_identical_across_thread_counts() {
    let _guard = serial();
    let config = config_with_seed(101);
    let schemes = [Scheme::Baseline, Scheme::DecayEdbp, Scheme::Sdbp];
    let eight = run_matrix(&config, &schemes, 8);
    let one = run_matrix(&config, &schemes, 1);
    assert_eq!(eight, one, "thread count must never change the outcome");
}

#[test]
fn memoized_results_equal_fresh_uncached_runs() {
    let _guard = serial();
    let config = config_with_seed(102);
    let schemes = [Scheme::Baseline, Scheme::Edbp, Scheme::Ideal];
    let matrix = run_matrix(&config, &schemes, 4);
    // Running the same matrix again is served from the cache.
    let cached = run_matrix(&config, &schemes, 4);
    assert_eq!(matrix, cached);
    // Every cell must equal a from-scratch, cache-bypassing execution.
    for (s, &scheme) in schemes.iter().enumerate() {
        for (a, &app) in APPS.iter().enumerate() {
            let fresh = run_app(&config, scheme, app, Scale::Tiny);
            assert_eq!(
                matrix[s * APPS.len() + a],
                fresh,
                "memoized {scheme:?}/{app:?} diverged from an uncached run"
            );
        }
    }
}

#[test]
fn ideal_matrix_runs_baseline_exactly_once_per_cell() {
    let _guard = serial();
    let config = config_with_seed(103);
    let before = baseline_executions();
    // Baseline column + Ideal column: the oracle pass must reuse the
    // baseline execution, not add a second one.
    let matrix = run_matrix(&config, &[Scheme::Baseline, Scheme::Ideal], 4);
    let after = baseline_executions();
    assert_eq!(
        after - before,
        APPS.len() as u64,
        "expected exactly one baseline execution per app"
    );
    assert_eq!(matrix.len(), 2 * APPS.len());

    // Re-running the matrix adds no executions at all.
    let again = run_matrix(&config, &[Scheme::Baseline, Scheme::Ideal], 4);
    assert_eq!(baseline_executions(), after);
    assert_eq!(matrix, again);
}

#[test]
fn ideal_only_matrix_still_runs_one_baseline_per_app() {
    let _guard = serial();
    let config = config_with_seed(104);
    let before = baseline_executions();
    // No explicit baseline column: the oracle pass is the only baseline
    // execution, and it happens once per app.
    run_matrix(&config, &[Scheme::Ideal], 2);
    assert_eq!(baseline_executions() - before, APPS.len() as u64);
}
