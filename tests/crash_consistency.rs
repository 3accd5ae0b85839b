//! Crash-consistency integration tests: the architectural result of a run
//! interrupted by dozens of power failures must equal the failure-free
//! result, for every scheme. This is the correctness contract of JIT
//! checkpointing (paper Section II) and of every predictor's write-back /
//! parking discipline.

use edbp_repro::cpu::{Core, Effect, ProgramBuilder, Reg};
use edbp_repro::sim::{
    build_lane, record_generation_trace, RunResult, Scheme, SourceKind, SystemConfig,
};
use edbp_repro::units::Power;
use edbp_repro::workloads::{AppId, Workload};
use std::collections::HashMap;

/// A program that writes a recognizable pattern: out[i] = sum of inputs up
/// to i, over several passes (so blocks are dirtied, evicted, re-read).
fn pattern_program() -> Workload {
    const IN: u32 = 0x0010_0000;
    const OUT: u32 = 0x0012_0000;
    const WORDS: u32 = 512; // 2 kB in + 2 kB out: dirties half the cache

    let mut b = ProgramBuilder::new("pattern");
    // Initialize input: in[i] = i * 3 + 7.
    b.li(Reg::R1, IN);
    b.li(Reg::R2, IN + WORDS * 4);
    b.li(Reg::R3, 7);
    let init = b.label_here();
    b.store(Reg::R3, Reg::R1, 0);
    b.addi(Reg::R3, Reg::R3, 3);
    b.addi(Reg::R1, Reg::R1, 4);
    b.blt(Reg::R1, Reg::R2, init);

    // Sixteen passes of prefix sums into OUT (long enough to span many
    // power cycles on the RFHome trace).
    b.li(Reg::R13, 0);
    b.li(Reg::R14, 16);
    let pass = b.label_here();
    {
        b.li(Reg::R1, IN);
        b.li(Reg::R5, OUT);
        b.li(Reg::R2, IN + WORDS * 4);
        b.li(Reg::R4, 0); // running sum
        let loop_top = b.label_here();
        b.load(Reg::R3, Reg::R1, 0);
        b.add(Reg::R4, Reg::R4, Reg::R3);
        b.store(Reg::R4, Reg::R5, 0);
        b.addi(Reg::R1, Reg::R1, 4);
        b.addi(Reg::R5, Reg::R5, 4);
        b.blt(Reg::R1, Reg::R2, loop_top);
    }
    b.addi(Reg::R13, Reg::R13, 1);
    b.blt(Reg::R13, Reg::R14, pass);
    b.halt();

    Workload {
        app: AppId::Sha,
        program: b.build_at(0x0100_0000).into(),
        data_footprint_bytes: WORDS * 8,
    }
}

/// Golden model: execute the program on a plain interpreter (no caches, no
/// power failures) and return the expected OUT words.
fn golden_out_words() -> Vec<u32> {
    let wl = pattern_program();
    let mut core = Core::new(&wl.program);
    let mut mem: HashMap<u32, u32> = HashMap::new();
    loop {
        match core.step(&wl.program) {
            Effect::Compute => {}
            Effect::Load { addr, dst } => {
                let v = mem.get(&addr).copied().unwrap_or(0);
                core.finish_load(dst, v);
            }
            Effect::Store { addr, value } => {
                mem.insert(addr, value);
            }
            Effect::Halted => break,
        }
    }
    (0..512u32)
        .map(|i| mem.get(&(0x0012_0000 + i * 4)).copied().unwrap_or(0))
        .collect()
}

/// Runs `scheme` over the pattern program to completion and returns its
/// result with the architectural value of every OUT word (dirty cached
/// copies win over the backing store).
fn run_probed(config: &SystemConfig, scheme: Scheme) -> (RunResult, Vec<u32>) {
    let trace = scheme
        .needs_oracle_trace()
        .then(|| record_generation_trace(config, pattern_program()));
    let mut lane = build_lane(config, scheme, pattern_program(), trace, false)
        .expect("paper-default energy configuration is valid");
    lane.advance_until(u64::MAX);
    let words = (0..512u64)
        .map(|i| lane.word_at(0x0012_0000 + i * 4))
        .collect();
    (lane.finish_collecting().result, words)
}

fn assert_consistent(scheme: Scheme) {
    let (result, words) = run_probed(&SystemConfig::paper_default(), scheme);
    assert!(result.completed, "{scheme}: did not complete");
    assert!(
        result.outages >= 2,
        "{scheme}: needs real intermittence to be meaningful (got {} outages)",
        result.outages
    );
    assert_eq!(result.brownouts, 0, "{scheme}: JIT margin violated");
    assert_eq!(words, golden_out_words(), "{scheme}: memory image diverged");
}

/// One crash-consistency test per scheme. The table lists `Scheme::ALL` in
/// order, which its own test checks, so no scheme goes unchecked.
macro_rules! crash_consistency_tests {
    ($($test:ident: $scheme:ident,)*) => {
        $(
            #[test]
            fn $test() {
                assert_consistent(Scheme::$scheme);
            }
        )*

        #[test]
        fn every_scheme_has_a_crash_consistency_test() {
            assert_eq!([$(Scheme::$scheme),*], Scheme::ALL);
        }
    };
}

crash_consistency_tests! {
    baseline_is_crash_consistent: Baseline,
    sdbp_is_crash_consistent: Sdbp,
    cache_decay_is_crash_consistent: Decay,
    edbp_is_crash_consistent: Edbp,
    combined_is_crash_consistent: DecayEdbp,
    amc_is_crash_consistent: Amc,
    amc_edbp_is_crash_consistent: AmcEdbp,
    ideal_is_crash_consistent: Ideal,
    leakage_off_is_crash_consistent: LeakageOff80,
}

#[test]
fn failure_free_run_matches_golden_too() {
    // With an over-provisioned constant source there are no outages at all;
    // the cached execution must still match the golden model.
    let mut config = SystemConfig::paper_default();
    config.source = SourceKind::Constant(Power::from_milli_watts(100.0));
    let (result, words) = run_probed(&config, Scheme::Baseline);
    assert!(result.completed);
    assert_eq!(result.outages, 0, "100 mW never fails");
    assert_eq!(words, golden_out_words());
}

/// The harness is held to the same crash-consistency bar as the simulated
/// caches: a torn run-cache write (injected via the deterministic fault
/// harness) must never surface as a wrong result — the torn entry is
/// rejected on load, so a resume re-simulates it, and the result that
/// reached the caller is the fault-free one.
#[test]
fn torn_runcache_write_never_corrupts_a_result() {
    use edbp_repro::sim::fault::{self, FailPlan};
    use edbp_repro::sim::run_app;
    use edbp_repro::sim::runcache::{self, RunCache};
    use edbp_repro::sim::runner::{effective_fingerprint, try_run_jobs_outputs, Job};
    use edbp_repro::workloads::{AppId, Scale};
    use std::sync::Arc;

    // Process-wide installs: no other test in this binary touches the
    // runner's cached path, so first-install-wins cannot race.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("torn-store");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(fault::install(FailPlan::parse("short@store=1").unwrap()));
    assert!(runcache::install(&dir));

    let config = Arc::new(SystemConfig::paper_default());
    let job = Job {
        config: Arc::clone(&config),
        scheme: Scheme::Edbp,
        app: AppId::Crc32,
        scale: Scale::Tiny,
    };
    let output = try_run_jobs_outputs(std::slice::from_ref(&job), 1)
        .pop()
        .expect("one output")
        .unwrap_or_else(|e| panic!("job failed: {e}"));

    // The caller's result is the fault-free one: the tear happened strictly
    // after the simulation, on the persistence path.
    let fresh = run_app(&config, Scheme::Edbp, AppId::Crc32, Scale::Tiny);
    assert_eq!(output.result, fresh, "torn store leaked into the result");

    // The torn bytes are the tail of the installed handle's segment, which
    // it then abandoned; a fresh handle stops its scan there.
    let fp = effective_fingerprint(&config, Scheme::Edbp);
    let segments = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(&dir)
            .expect("read cache dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect()
    };
    let torn_segment = segments()
        .pop()
        .expect("the fault must leave a torn segment");
    assert_eq!(segments().len(), 1);
    let cache = RunCache::new(&dir).expect("reopen cache dir");
    assert!(
        cache
            .load(fp, Scheme::Edbp, AppId::Crc32, Scale::Tiny)
            .is_none(),
        "torn entry must be rejected on load"
    );

    // Recovery: a healthy store (the one-shot fault is spent) lands in a
    // new segment and round-trips exactly. The torn segment held exactly
    // the first two thirds of that entry's bytes.
    assert!(cache.store(fp, Scheme::Edbp, AppId::Crc32, Scale::Tiny, &fresh, None));
    let replayed = cache
        .load(fp, Scheme::Edbp, AppId::Crc32, Scale::Tiny)
        .expect("repaired entry loads");
    assert_eq!(replayed.result, fresh);
    let whole = segments()
        .into_iter()
        .find(|p| *p != torn_segment)
        .expect("the healthy store's segment");
    let whole = std::fs::read(whole).expect("read segment");
    let torn = std::fs::read(&torn_segment).expect("read torn segment");
    assert_eq!(torn, whole[..whole.len() - whole.len() / 3]);
}
