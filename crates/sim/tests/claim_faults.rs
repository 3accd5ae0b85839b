//! A failed claim attempt affects only that attempt: its key simulates
//! unclaimed, and the next claim is taken as usual, so a key that a rival
//! holds is still waited for instead of simulated a second time.
//!
//! A test binary of its own, because the fault plan and
//! `runcache::install` are process-wide.

use ehs_sim::fault::{self, FailPlan};
use ehs_sim::runcache::{self, ClaimOutcome, RunCache};
use ehs_sim::runner::{
    effective_fingerprint, matrix_jobs, simulations_executed, try_run_jobs_outputs,
};
use ehs_sim::{Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::path::PathBuf;
use std::time::Duration;

#[test]
fn a_failed_claim_attempt_affects_only_that_attempt() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("claim-faults");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(runcache::install(&dir), "first cache install wins");
    let rival = RunCache::new(&dir).expect("second handle");

    let config = SystemConfig::paper_default();
    let fp = effective_fingerprint(&config, Scheme::Baseline);
    let on_disk = |app| rival.load(fp, Scheme::Baseline, app, Scale::Tiny).is_some();
    let ClaimOutcome::Held(crc32_claim) =
        rival.claim(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
    else {
        panic!("the rival must hold crc32's claim");
    };
    // Fault counters count only once a plan is armed, so the rival's claim
    // above is not an occurrence. On one thread the producer visits the
    // longest job first: bitcount's claim attempt fails, and bitcount
    // simulates unclaimed.
    assert!(
        fault::install(FailPlan::parse("io@claim=1").unwrap()),
        "first plan install wins"
    );

    let jobs = matrix_jobs(
        &config,
        &[Scheme::Baseline],
        &[AppId::Crc32, AppId::Bitcount],
        Scale::Tiny,
    );
    let before = simulations_executed();
    let producer = std::thread::spawn(move || try_run_jobs_outputs(&jobs, 1));
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        !on_disk(AppId::Crc32),
        "crc32 was simulated while a rival held its claim"
    );
    drop(crc32_claim);

    let outputs = producer.join().expect("producer thread");
    let errors: Vec<_> = outputs.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(
        simulations_executed() - before,
        2,
        "each job must simulate exactly once"
    );
    assert!(on_disk(AppId::Crc32) && on_disk(AppId::Bitcount));
}
