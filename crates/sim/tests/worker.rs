//! `--worker` accounting: one worker call with two threads over a fresh
//! cache produces every unique job exactly once, and a second call adopts
//! them all.
//!
//! A test binary of its own, because `runcache::install` is process-wide.

use ehs_sim::runcache::{self, entry_stem, RunCache};
use ehs_sim::runner::{
    count_unique, effective_fingerprint, matrix_jobs, run_workers, simulations_executed,
    unique_jobs, RetryPolicy,
};
use ehs_sim::{Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::path::PathBuf;

#[test]
fn a_two_thread_worker_produces_each_unique_job_once() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("worker-accounting");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(runcache::install(&dir), "first cache install wins");

    let jobs = matrix_jobs(
        &SystemConfig::paper_default(),
        &[Scheme::Baseline, Scheme::Edbp, Scheme::Ideal],
        &[AppId::Crc32, AppId::Bitcount, AppId::Sha],
        Scale::Tiny,
    );
    let unique = count_unique(&jobs);
    let policy = RetryPolicy::default();

    let before = simulations_executed();
    let report = run_workers(&jobs, &policy, 2);
    assert!(report.failures.is_empty(), "{report}");
    assert_eq!(report.completed, unique, "{report}");
    assert_eq!(report.adopted, 0, "{report}");
    assert_eq!(
        report.busy_skips, 0,
        "sibling threads never contend: {report}"
    );
    assert_eq!(
        simulations_executed() - before,
        unique as u64,
        "each Ideal rides with its baseline: no trace is re-recorded"
    );

    let journal = RunCache::new(&dir)
        .expect("reopen cache dir")
        .journal_occurrences();
    assert_eq!(journal.len(), unique);
    for job in unique_jobs(&jobs) {
        let fp = effective_fingerprint(&job.config, job.scheme);
        let stem = entry_stem(fp, job.scheme, job.app, job.scale);
        assert_eq!(
            journal.get(&stem),
            Some(&1),
            "{stem} must be journaled once"
        );
    }

    let again = run_workers(&jobs, &policy, 2);
    assert!(again.failures.is_empty(), "{again}");
    assert_eq!((again.completed, again.adopted), (0, unique), "{again}");
}
