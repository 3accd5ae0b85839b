//! Differential suite: burst stepping vs the cycle-accurate reference.
//!
//! The burst fast path (`DESIGN.md` §8) is required to be **bit-exact**:
//! every [`RunResult`] field except the host-wall-clock `sim_mips` must be
//! identical whether the loop coalesces compute bursts or steps one cycle
//! at a time. These tests run the same (scheme, app, seed) matrix under
//! both [`SystemConfig::force_cycle_accurate`] settings, at Tiny and, for
//! the baseline and the headline predictor, at Small, and compare with
//! `==` (`sim_mips` is excluded from `RunResult`'s `PartialEq`). The same
//! reference referees [`build_lane`]'s dispatch table: every
//! (`Scheme`, `ReplacementPolicy`) lane it builds must match it.

use ehs_cache::ReplacementPolicy;
use ehs_energy::TracePreset;
use ehs_nvm::MemoryTechnology;
use ehs_sim::runner::{default_threads, matrix_jobs, try_run_jobs_outputs};
use ehs_sim::{
    build_lane, record_generation_trace, run_app, run_lane, Scheme, SourceKind, SystemConfig,
};
use ehs_units::{Capacitance, Energy, Power, Voltage};
use ehs_workloads::{build, AppId, Scale};
use proptest::prelude::*;

const APPS: [AppId; 3] = [AppId::Crc32, AppId::Patricia, AppId::JpegEnc];
const SEEDS: [u64; 2] = [42, 7];

/// `config` with the trace seed replaced and the stepping regime set.
fn variant(config: &SystemConfig, seed: u64, cycle_accurate: bool) -> SystemConfig {
    let mut c = config.clone();
    if let SourceKind::Preset { preset, scale, .. } = c.source {
        c.source = SourceKind::Preset {
            preset,
            seed,
            scale,
        };
    }
    c.force_cycle_accurate = cycle_accurate;
    c
}

/// Runs `schemes` × `apps` at `scale` under both regimes for every seed and
/// asserts cell-wise equality.
fn assert_matrix_bit_exact(base: &SystemConfig, schemes: &[Scheme], apps: &[AppId], scale: Scale) {
    let threads = default_threads();
    let run = |config: &SystemConfig| {
        try_run_jobs_outputs(&matrix_jobs(config, schemes, apps, scale), threads)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("job failed: {e}")).result)
            .collect::<Vec<_>>()
    };
    for &seed in &SEEDS {
        let burst = run(&variant(base, seed, false));
        let exact = run(&variant(base, seed, true));
        for (b, e) in burst.iter().zip(&exact) {
            assert_eq!(
                b, e,
                "burst vs cycle-accurate divergence: scheme {} app {:?} seed {seed}",
                b.scheme, b.app
            );
        }
    }
}

#[test]
fn every_scheme_is_bit_exact_across_apps_and_seeds() {
    assert_matrix_bit_exact(
        &SystemConfig::paper_default(),
        &Scheme::ALL,
        &APPS,
        Scale::Tiny,
    );
}

/// The same property over Small-scale runs (8× Tiny's length, the scale
/// of the committed figures) of the baseline and the headline predictor:
/// 12–73 outages per run where Tiny sees 2–10, so threshold adaptation
/// and trace segments that Tiny never reaches are refereed too.
#[test]
fn small_scale_runs_are_bit_exact() {
    assert_matrix_bit_exact(
        &SystemConfig::paper_default(),
        &[Scheme::Baseline, Scheme::DecayEdbp],
        &APPS,
        Scale::Small,
    );
}

/// The `outage_storm` platform: a weak source (0.3× RFHome) on a 1 µF
/// capacitor, so outages come every few hundred instructions and recharges
/// regularly cross trace segments.
fn outage_dense_config() -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    config.source = SourceKind::Preset {
        preset: TracePreset::RfHome,
        seed: 42,
        scale: 0.3,
    };
    config.energy.capacitor.capacitance = Capacitance::from_micro_farads(1.0);
    config
}

#[test]
fn outage_dense_runs_are_bit_exact() {
    assert_matrix_bit_exact(&outage_dense_config(), &Scheme::FIG8, &APPS, Scale::Tiny);
}

#[test]
fn icache_prediction_path_is_bit_exact() {
    // A volatile (SRAM) I-cache with prediction enabled exercises the
    // i_pred hooks, the merged wake hint and the I-cache leg of the leakage
    // cache.
    let mut config = SystemConfig::paper_default();
    config.icache_tech = MemoryTechnology::Sram;
    config.predict_icache = true;
    assert_matrix_bit_exact(
        &config,
        &[Scheme::Decay, Scheme::Edbp, Scheme::DecayEdbp, Scheme::Amc],
        &[AppId::Crc32, AppId::Bitcount, AppId::StringSearch],
        Scale::Tiny,
    );
}

#[test]
fn zombie_instrumented_runs_are_bit_exact() {
    // Zombie sampling disables bursting but leaves hint-based tick skipping
    // active; both the results and the resolved samples must match the
    // reference, on Tiny runs of both schemes and a full Small baseline run.
    let mut config = SystemConfig::paper_default();
    config.zombie_sample_interval = Some(500);
    let cases = [
        (Scheme::Baseline, Scale::Tiny),
        (Scheme::DecayEdbp, Scale::Tiny),
        (Scheme::Baseline, Scale::Small),
    ];
    for (scheme, scale) in cases {
        let run = |cycle_accurate: bool| {
            let config = variant(&config, 42, cycle_accurate);
            let workload = build(AppId::Crc32, scale);
            let lane = build_lane(&config, scheme, workload, None, false)
                .expect("paper-default energy configuration is valid");
            run_lane(lane)
        };
        let burst = run(false);
        let exact = run(true);
        assert!(
            !burst.zombie_samples.is_empty(),
            "{scheme} at {scale:?}: no samples"
        );
        assert_eq!(
            burst.result, exact.result,
            "zombie run diverged for {scheme} at {scale:?}"
        );
        assert_eq!(
            burst.zombie_samples, exact.zombie_samples,
            "zombie samples diverged for {scheme} at {scale:?}"
        );
    }
}

/// A configuration whose per-cycle draw exceeds the `V_ckpt → V_min`
/// reserve, so voltage regularly jumps straight from above the checkpoint
/// threshold to below brown-out within a single cycle — frequently in the
/// middle of a burst.
fn brownout_prone_config() -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    // Steady weak source: drains during compute, recovers while off.
    config.source = SourceKind::Constant(Power::from_milli_watts(1.0));
    // Tiny buffer with a razor-thin checkpoint reserve (~105 pJ at 47 nF)
    // against a ~200 pJ/cycle draw.
    config.energy.capacitor.capacitance = Capacitance::from_micro_farads(0.047);
    config.energy.thresholds.v_ckpt = Voltage::from_volts(2.8008);
    config.energy.thresholds.v_rst = Voltage::from_volts(3.2);
    config.energy.checkpoint_budget = Energy::from_pico_joules(50.0);
    // Brown-outs replay work from the last checkpoint; bound the run so a
    // replay-heavy schedule still terminates quickly (equality holds for
    // incomplete runs too).
    config.max_instructions = 300_000;
    config
}

#[test]
fn brownout_landing_mid_burst_is_bit_exact() {
    let config = brownout_prone_config();
    for scheme in [Scheme::Baseline, Scheme::DecayEdbp] {
        let run = |cycle_accurate: bool| {
            let mut c = config.clone();
            c.force_cycle_accurate = cycle_accurate;
            run_app(&c, scheme, AppId::Bitcount, Scale::Tiny)
        };
        let burst = run(false);
        let exact = run(true);
        assert!(
            burst.brownouts > 0,
            "configuration must provoke brown-outs ({scheme} saw none)"
        );
        assert_eq!(
            burst.brownouts, exact.brownouts,
            "brown-out count diverged for {scheme}"
        );
        assert_eq!(
            burst.outages, exact.outages,
            "outage count diverged for {scheme}"
        );
        assert_eq!(
            burst.energy, exact.energy,
            "energy breakdown diverged for {scheme}"
        );
        assert_eq!(
            burst, exact,
            "burst vs cycle-accurate divergence for {scheme}"
        );
    }
}

/// Paper defaults with the D-cache policy swapped, the trace seed replaced
/// and the run bounded so the 45-cell matrix stays fast; equality holds for
/// truncated runs too.
fn policy_config(policy: ReplacementPolicy, seed: u64, cycle_accurate: bool) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    config.dcache.policy = policy;
    config.max_instructions = 120_000;
    variant(&config, seed, cycle_accurate)
}

/// Runs one (scheme, policy) lane both ways and asserts bit-equality, and
/// that the dispatch table routed the scheme to its own lane.
fn assert_lane_matches_reference(policy: ReplacementPolicy, seed: u64, scheme: Scheme, app: AppId) {
    let run = |cycle_accurate: bool| {
        let config = policy_config(policy, seed, cycle_accurate);
        let workload = build(app, Scale::Tiny);
        let oracle = scheme
            .needs_oracle_trace()
            .then(|| record_generation_trace(&config, workload.clone()));
        let lane = build_lane(&config, scheme, workload, oracle, false)
            .expect("paper-default energy configuration is valid");
        run_lane(lane).result
    };
    let burst = run(false);
    assert_eq!(
        burst.scheme, scheme,
        "dispatch table routed {scheme} to the wrong lane"
    );
    assert_eq!(
        burst,
        run(true),
        "lane diverged from the cycle-accurate reference: scheme {scheme} policy {policy:?} seed {seed}"
    );
}

#[test]
fn every_scheme_policy_lane_matches_the_reference() {
    for policy in ReplacementPolicy::ALL {
        for scheme in Scheme::ALL {
            assert_lane_matches_reference(policy, 42, scheme, AppId::Crc32);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomized corner of the same property: arbitrary trace seeds and
    // matrix cells, on a second app, must also agree bit for bit.
    #[test]
    fn lanes_match_the_reference_under_random_seeds(
        seed in 0u64..10_000,
        scheme_idx in 0usize..Scheme::ALL.len(),
        policy_idx in 0usize..ReplacementPolicy::ALL.len(),
    ) {
        assert_lane_matches_reference(
            ReplacementPolicy::ALL[policy_idx],
            seed,
            Scheme::ALL[scheme_idx],
            AppId::Bitcount,
        );
    }
}
