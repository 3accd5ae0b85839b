//! A panic injected into a cache store is not a job's fault: it propagates
//! out of `try_run_jobs_outputs` (so `exp_all` dies with exit 101 and
//! writes no figure) instead of being swallowed by the thread that commits
//! the entries.
//!
//! A test binary of its own, because the fault plan and
//! `runcache::install` are process-wide.

use ehs_sim::fault::{self, FailPlan};
use ehs_sim::runcache;
use ehs_sim::runner::{matrix_jobs, try_run_jobs_outputs};
use ehs_sim::{Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

#[test]
fn a_store_panic_propagates_out_of_the_producer() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-panic");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(runcache::install(&dir), "first cache install wins");
    assert!(
        fault::install(FailPlan::parse("panic@store=1").unwrap()),
        "first plan install wins"
    );

    let jobs = matrix_jobs(
        &SystemConfig::paper_default(),
        &[Scheme::Baseline, Scheme::Edbp],
        &[AppId::Crc32, AppId::Sha, AppId::Fft],
        Scale::Tiny,
    );
    let caught = catch_unwind(AssertUnwindSafe(|| try_run_jobs_outputs(&jobs, 2)));
    assert!(
        caught.is_err(),
        "the store panic must reach the caller, not become a job result"
    );

    // The panic fired before the batch wrote a byte: the handle's first
    // commit never created its segment.
    let files: Vec<_> = std::fs::read_dir(&dir).expect("read cache dir").collect();
    assert!(files.is_empty(), "the panicked commit left {files:?}");

    // Nothing is wedged: with the one-shot plan spent, the same jobs run.
    for (i, output) in try_run_jobs_outputs(&jobs, 2).iter().enumerate() {
        assert!(output.is_ok(), "job {i} failed after the store panic");
    }
}
