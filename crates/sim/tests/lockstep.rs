//! Lockstep-vs-independent differential suite.
//!
//! [`run_lockstep`] runs a group of N scheme lanes over one workload, one
//! lane after another; the runner's work items and the benchmark's
//! `lockstep_sweep` both drive lanes that way. Running in a group must be
//! **invisible**: every lane's [`RunResult`] (minus the wall-clock
//! `sim_mips`, which `PartialEq` excludes) must be bit-identical to running
//! that lane alone. These tests assert it across the full scheme roster,
//! three apps and two trace seeds, and under every D-cache replacement
//! policy, on bounded Tiny runs, and on uncapped Small runs of the baseline
//! and the headline predictor.

use ehs_cache::ReplacementPolicy;
use ehs_sim::{
    build_lane, record_generation_trace, run_lane, run_lockstep, LaneRun, Scheme, SourceKind,
    SystemConfig,
};
use ehs_workloads::{build, AppId, Scale, Workload};

const APPS: [AppId; 3] = [AppId::Crc32, AppId::Patricia, AppId::JpegEnc];
const SEEDS: [u64; 2] = [42, 7];

/// Paper defaults with the trace seed replaced and the run bounded (bit
/// equality holds for truncated runs too; the bound keeps 9-lane × 3-app ×
/// 2-seed affordable in tier-1).
fn config_with_seed(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.max_instructions = 120_000;
    if let SourceKind::Preset { preset, scale, .. } = c.source {
        c.source = SourceKind::Preset {
            preset,
            seed,
            scale,
        };
    }
    c
}

/// Builds one lane per scheme in `schemes`, recording the oracle trace once.
fn lanes_for(
    config: &SystemConfig,
    schemes: &[Scheme],
    workload: &Workload,
) -> Vec<Box<dyn LaneRun>> {
    let oracle = schemes
        .iter()
        .any(|s| s.needs_oracle_trace())
        .then(|| record_generation_trace(config, workload.clone()));
    schemes
        .iter()
        .map(|&scheme| {
            let trace = scheme.needs_oracle_trace().then(|| {
                oracle
                    .clone()
                    .expect("oracle trace recorded for Ideal lanes")
            });
            build_lane(config, scheme, workload.clone(), trace, false)
                .expect("paper-default energy configuration is valid")
        })
        .collect()
}

#[test]
fn lockstep_matches_independent_for_every_scheme_app_seed() {
    for &seed in &SEEDS {
        let config = config_with_seed(seed);
        for &app in &APPS {
            let workload = build(app, Scale::Tiny);
            let grouped = run_lockstep(lanes_for(&config, &Scheme::ALL, &workload));
            assert_eq!(grouped.len(), Scheme::ALL.len());
            let solo = lanes_for(&config, &Scheme::ALL, &workload);
            for (scheme, (joint, lane)) in Scheme::ALL.iter().zip(grouped.iter().zip(solo)) {
                let alone = run_lane(lane);
                assert_eq!(
                    joint.result, alone.result,
                    "lockstep divergence: scheme {scheme} app {app:?} seed {seed}"
                );
            }
        }
    }
}

/// The uncapped paper default at Small (8× Tiny's length, the scale of the
/// committed figures): every lane of a baseline + headline-predictor group
/// runs to completion, through 12–73 outages, and must still equal the
/// same lane run alone.
#[test]
fn lockstep_matches_independent_at_small_scale() {
    let config = SystemConfig::paper_default();
    let schemes = [Scheme::Baseline, Scheme::DecayEdbp];
    for &app in &APPS {
        let workload = build(app, Scale::Small);
        let grouped = run_lockstep(lanes_for(&config, &schemes, &workload));
        let solo = lanes_for(&config, &schemes, &workload);
        for (scheme, (joint, lane)) in schemes.iter().zip(grouped.iter().zip(solo)) {
            assert_eq!(
                joint.result,
                run_lane(lane).result,
                "lockstep divergence at Small: scheme {scheme} app {app:?}"
            );
        }
    }
}

#[test]
fn lockstep_matches_independent_under_every_policy() {
    let workload = build(AppId::Crc32, Scale::Tiny);
    for policy in ReplacementPolicy::ALL {
        let mut config = config_with_seed(42);
        config.dcache.policy = policy;
        let grouped = run_lockstep(lanes_for(&config, &Scheme::ALL, &workload));
        let solo = lanes_for(&config, &Scheme::ALL, &workload);
        for (scheme, (joint, lane)) in Scheme::ALL.iter().zip(grouped.iter().zip(solo)) {
            assert_eq!(
                joint.result,
                run_lane(lane).result,
                "lockstep divergence: scheme {scheme} policy {policy:?}"
            );
        }
    }
}

#[test]
fn lockstep_handles_zombie_sampling_lanes() {
    // Zombie samples key off exact per-lane instruction positions, so a
    // zombie-sampling lane must keep them inside a group without
    // perturbing anyone.
    let mut config = config_with_seed(7);
    config.zombie_sample_interval = Some(10_000);
    let workload = build(AppId::Crc32, Scale::Tiny);
    let schemes = [Scheme::Baseline, Scheme::DecayEdbp];
    let grouped = run_lockstep(lanes_for(&config, &schemes, &workload));
    for (scheme, (joint, lane)) in schemes
        .iter()
        .zip(grouped.iter().zip(lanes_for(&config, &schemes, &workload)))
    {
        let alone = run_lane(lane);
        assert_eq!(
            joint.result, alone.result,
            "zombie-lane divergence under lockstep: scheme {scheme}"
        );
        assert_eq!(
            joint.zombie_samples, alone.zombie_samples,
            "zombie samples diverged under lockstep: scheme {scheme}"
        );
    }
}

#[test]
fn single_lane_lockstep_matches_run_lane() {
    let config = config_with_seed(42);
    let workload = build(AppId::Crc32, Scale::Tiny);
    let schemes = [Scheme::DecayEdbp];
    let grouped = run_lockstep(lanes_for(&config, &schemes, &workload));
    let solo = run_lane(
        lanes_for(&config, &schemes, &workload)
            .pop()
            .expect("one lane"),
    );
    assert_eq!(grouped[0].result, solo.result);
}

#[test]
fn heterogeneous_subset_lockstep_is_bit_exact() {
    // A mixed group (epoch-driven, voltage-driven, oracle, null) exercises
    // lanes whose bursts end for different reasons at different times.
    let schemes = [Scheme::Baseline, Scheme::Decay, Scheme::Edbp, Scheme::Ideal];
    let config = config_with_seed(7);
    let workload = build(AppId::Bitcount, Scale::Tiny);
    let grouped = run_lockstep(lanes_for(&config, &schemes, &workload));
    for (scheme, (joint, lane)) in schemes
        .iter()
        .zip(grouped.iter().zip(lanes_for(&config, &schemes, &workload)))
    {
        assert_eq!(
            joint.result,
            run_lane(lane).result,
            "lockstep divergence in mixed group: scheme {scheme}"
        );
    }
}
