//! Suite-planner dedup accounting, end-to-end: a two-thread cold pass over
//! a fresh cache produces every unique job exactly once.
//!
//! Everything lives in ONE `#[test]`: the execution counters and the
//! installed persistent cache are process-wide, so parallel test functions
//! would race on them. Sequencing inside one function keeps the arithmetic
//! exact.

use ehs_sim::planner::{plan_suite, run_suite};
use ehs_sim::runcache::{self, entry_stem, workload_fingerprint};
use ehs_sim::runner::{count_unique, effective_fingerprint, simulations_executed, unique_jobs};
use ehs_sim::{Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::path::PathBuf;

#[test]
fn suite_dedup_accounting_is_exact() {
    let (scale, threads) = (Scale::Tiny, 2);

    // Install a private persistent cache seeded with corrupt entries: one
    // file of plain garbage at a real entry's path, plus junk that matches
    // no key at all. The planner must reject both and fall back to
    // re-simulation — the dedup arithmetic below only holds if it does.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("planner-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let fp = effective_fingerprint(&SystemConfig::paper_default(), Scheme::Baseline);
    std::fs::write(
        dir.join(format!("{fp:016x}-nvsramcache-crc32-tiny.run")),
        b"garbage where a cache entry should be",
    )
    .expect("seed corrupt entry");
    std::fs::write(dir.join("unrelated.run"), b"junk").expect("seed junk file");
    assert!(
        runcache::install(&dir),
        "first install wins in this process"
    );

    let plan = plan_suite(scale);
    let unique = count_unique(&plan.jobs);
    assert!(unique < plan.jobs.len(), "cross-experiment dedup must fold");

    // Cold pass: every unique request simulates exactly once — no more
    // (dedup works), no less (corrupt cache entries rejected, not trusted).
    let before = simulations_executed();
    let cold = run_suite(scale, threads);
    assert_eq!(cold.total_requested, plan.jobs.len());
    assert_eq!(cold.unique, unique);
    assert_eq!(cold.executed, simulations_executed() - before);
    assert_eq!(
        cold.executed, unique as u64,
        "cold suite must simulate exactly the unique request set"
    );

    // A fault-free pass has an empty structured failure summary.
    assert!(cold.failures().is_empty(), "no failures without faults");

    // Every group commit finished before the pass returned: no temp file
    // awaits its rename.
    for entry in std::fs::read_dir(&dir).expect("read cache dir").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            !name.starts_with(".tmp-"),
            "cold pass left {name} in the cache directory"
        );
    }

    // Every unique job's entry is on disk (the resume contract's write
    // half): a fresh handle loads each one. With `cold.executed == unique`
    // above, each was simulated exactly once.
    let cache = runcache::RunCache::new(&dir).expect("reopen cache dir");
    for job in unique_jobs(&plan.jobs) {
        let fp = effective_fingerprint(&job.config, job.scheme);
        assert!(
            cache.load(fp, job.scheme, job.app, job.scale).is_some(),
            "{} must load from the cache",
            entry_stem(fp, job.scheme, job.app, job.scale)
        );
    }

    // The in-process memo makes a second pass in the same process free;
    // its reports must match the cold pass exactly.
    let warm = run_suite(scale, threads);
    assert_eq!(warm.executed, 0, "second pass is a pure memo replay");
    for (c, w) in cold.tables.iter().zip(&warm.tables) {
        let (c, w) = (c.as_ref().expect("cold table"), w.as_ref().expect("warm"));
        assert_eq!(c.render(), w.render(), "replayed table diverged");
    }

    // The persistent cache was repopulated over the corrupt seed entry:
    // it loads cleanly now and carries the workload fingerprint guard.
    let _ = workload_fingerprint(AppId::Crc32, Scale::Tiny);
    let entry = runcache::RunCache::new(&dir)
        .expect("reopen cache dir")
        .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    assert!(entry.is_some(), "cold pass overwrote the corrupt entry");
}
