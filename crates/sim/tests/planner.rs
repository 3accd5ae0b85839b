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
use ehs_sim::{run_app, Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::path::{Path, PathBuf};

#[test]
fn suite_dedup_accounting_is_exact() {
    let (scale, threads) = (Scale::Tiny, 2);

    // Install a private persistent cache seeded with corrupt segments: one
    // of plain garbage, and one holding a real entry with a flipped payload
    // byte, plus an older build's one-file entry at that key's old path.
    // The planner must reject all three and fall back to re-simulation —
    // the dedup arithmetic below only holds if it does.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("planner-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let config = SystemConfig::paper_default();
    let fp = effective_fingerprint(&config, Scheme::Baseline);
    std::fs::write(
        dir.join("garbage.seg"),
        b"garbage where a cache segment should be",
    )
    .expect("seed garbage segment");
    let seed_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("planner-seed");
    let _ = std::fs::remove_dir_all(&seed_dir);
    let result = run_app(&config, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    let seeder = runcache::RunCache::new(&seed_dir).expect("create seed cache");
    assert!(seeder.store(fp, Scheme::Baseline, AppId::Crc32, scale, &result, None));
    let mut entry =
        std::fs::read(segments(&seed_dir).pop().expect("seed segment")).expect("read seed segment");
    entry[48] ^= 0xff; // a payload byte: the checksum no longer holds
    std::fs::write(dir.join("corrupt.seg"), &entry).expect("seed corrupt segment");
    std::fs::write(
        dir.join(format!("{fp:016x}-nvsramcache-crc32-tiny.run")),
        b"junk in an older build's entry file",
    )
    .expect("seed legacy entry");
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

    // Every group commit of the pass went to the one segment the installed
    // handle created, beside the two seeded ones.
    assert_eq!(
        segments(&dir).len(),
        3,
        "the cold pass must append to exactly one new segment"
    );

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

    // The key the corrupt segment held was simulated and stored again: a
    // fresh handle loads it, with the workload fingerprint guard in place.
    let _ = workload_fingerprint(AppId::Crc32, Scale::Tiny);
    let entry = runcache::RunCache::new(&dir)
        .expect("reopen cache dir")
        .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    assert_eq!(entry.expect("the cold pass stored the key").result, result);
}

/// The `*.seg` files of `dir`.
fn segments(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read cache dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect()
}
