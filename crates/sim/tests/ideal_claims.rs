//! An `Ideal` key is claimed only together with its baseline: while another
//! process holds the baseline's claim, the producer leaves the `Ideal` open
//! instead of re-recording the baseline as its oracle, so the pair costs
//! two simulations, not three.
//!
//! A test binary of its own, because `runcache::install` is process-wide.

use ehs_sim::runcache::{self, ClaimOutcome, RunCache};
use ehs_sim::runner::{
    effective_fingerprint, matrix_jobs, simulations_executed, try_run_jobs_outputs,
};
use ehs_sim::{Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};
use std::path::PathBuf;
use std::time::Duration;

#[test]
fn an_ideal_waits_for_a_rivals_baseline() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ideal-claims");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(runcache::install(&dir), "first cache install wins");
    let rival = RunCache::new(&dir).expect("second handle");

    let config = SystemConfig::paper_default();
    let jobs = matrix_jobs(
        &config,
        &[Scheme::Baseline, Scheme::Ideal],
        &[AppId::Crc32],
        Scale::Tiny,
    );
    let fp = |scheme| effective_fingerprint(&config, scheme);
    let ClaimOutcome::Held(baseline_claim) = rival.claim(
        fp(Scheme::Baseline),
        Scheme::Baseline,
        AppId::Crc32,
        Scale::Tiny,
    ) else {
        panic!("the rival must hold the baseline's claim");
    };

    let before = simulations_executed();
    let producer = std::thread::spawn(move || try_run_jobs_outputs(&jobs, 1));
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        rival
            .load(fp(Scheme::Ideal), Scheme::Ideal, AppId::Crc32, Scale::Tiny)
            .is_none(),
        "the Ideal was produced while a rival held its baseline"
    );
    drop(baseline_claim);

    let outputs = producer.join().expect("producer thread");
    let errors: Vec<_> = outputs.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(
        simulations_executed() - before,
        2,
        "the baseline run must double as the Ideal's oracle"
    );
}
