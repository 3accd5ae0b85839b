//! In-process fault-injection: panic containment and store-failure
//! degradation, with a deterministic single-threaded schedule.
//!
//! Everything lives in ONE `#[test]`: the fault plan, the installed
//! persistent cache, and the fault-site counters are all process-wide, so
//! parallel test functions would race on them. Sequencing inside one
//! function keeps the occurrence arithmetic exact.
//!
//! The heavyweight end-to-end campaigns (kill -9 + resume, concurrent
//! `exp_all` processes) live in `tests/fault_tolerance.rs` behind
//! `#[ignore]`; this test is the fast always-on slice.

use ehs_sim::fault::{self, FailPlan};
use ehs_sim::runcache::{self, entry_stem, RunCache};
use ehs_sim::runner::{effective_fingerprint, try_run_jobs_outputs, Job};
use ehs_sim::{run_app, Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn panics_are_contained_and_failed_stores_leave_no_entry() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fault-injection");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(runcache::install(&dir), "first cache install wins");

    // With one worker thread the schedule is the longest-first cost order,
    // so the fault sites land deterministically: Bitcount, BasicMath,
    // Dijkstra, Crc32 (descending committed-instruction weight).
    //   exec hit 2  = BasicMath  -> panics (no store)
    //   store hit 3 = Crc32      -> injected EIO (simulated fine, not persisted)
    assert!(
        fault::install(FailPlan::parse("panic@exec=2,io@store=3").unwrap()),
        "first plan install wins"
    );

    let config = Arc::new(SystemConfig::paper_default());
    let job = |app| Job {
        config: Arc::clone(&config),
        scheme: Scheme::Baseline,
        app,
        scale: Scale::Tiny,
    };
    let jobs = [
        job(AppId::Crc32),
        job(AppId::Dijkstra),
        job(AppId::BasicMath),
        job(AppId::Bitcount),
    ];
    let fp = effective_fingerprint(&config, Scheme::Baseline);
    let stem = |app| entry_stem(fp, Scheme::Baseline, app, Scale::Tiny);

    // Pass 1: exactly the planned job fails; every sibling completes.
    let first = try_run_jobs_outputs(&jobs, 1);
    assert!(first[0].is_ok(), "crc32 must survive its neighbor's panic");
    assert!(
        first[1].is_ok(),
        "dijkstra must survive its neighbor's panic"
    );
    assert!(
        first[3].is_ok(),
        "bitcount must survive its neighbor's panic"
    );
    let err = first[2].as_ref().expect_err("basicmath hits panic@exec=2");
    assert_eq!(err.app, AppId::BasicMath);
    assert!(
        err.message.contains("fault injection: panic"),
        "panic payload must be carried into the JobError, got {:?}",
        err.message
    );
    assert!(
        err.to_string().contains(&stem(AppId::BasicMath)),
        "the error must identify the job by its cache-entry stem"
    );

    // Pass 2: the same jobs again, same process. The panicked job's memo
    // slot was left uninitialized, so it retries and succeeds; nothing is
    // wedged behind a poisoned lock (the pre-fault-tolerance latency bomb).
    let second = try_run_jobs_outputs(&jobs, 1);
    for (i, r) in second.iter().enumerate() {
        assert!(r.is_ok(), "job {i} must succeed once the plan is spent");
    }
    let fresh = run_app(&config, Scheme::Baseline, AppId::BasicMath, Scale::Tiny);
    assert_eq!(
        second[2].as_ref().unwrap().result,
        fresh,
        "the retried job must produce the fault-free result"
    );

    // Disk state, via a fresh handle (not the installed one): the panicked
    // job was stored by its pass-2 retry; the EIO-injected store left no
    // entry, so the next process simulates it again.
    let cache = RunCache::new(&dir).expect("reopen cache dir");
    let load = |app| cache.load(fp, Scheme::Baseline, app, Scale::Tiny);
    assert!(load(AppId::Bitcount).is_some());
    assert!(load(AppId::Dijkstra).is_some());
    assert!(load(AppId::BasicMath).is_some(), "retry stored the entry");
    assert!(
        load(AppId::Crc32).is_none(),
        "the EIO-injected store must not leave an entry"
    );
}
