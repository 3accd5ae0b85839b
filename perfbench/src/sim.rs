//! The in-process simulation workloads: scheme × app matrices driven
//! through the simulator's public lane API, one run after another on one
//! thread (a closed loop with one client).

use crate::speed::{Speedometer, SAMPLE_SLICES};
use crate::trace::{Clock, RunKey};
use ehs_sim::runcache::checksum;
use ehs_sim::runner::{geomean, Job};
use ehs_sim::{
    build_lane, record_generation_trace, run_lane, run_lockstep, LaneRun, RunOutcome, RunResult,
    Scheme, SourceKind, SystemConfig,
};
use ehs_units::Capacitance;
use ehs_workloads::{build, AppId, Scale};
use std::fmt::Write as _;
use std::sync::Arc;

/// Instructions per `LaneRun::advance_until` call in a traced run.
pub const TRACE_CHUNK: u64 = 65_536;

/// How the runs of one app are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Every run on its own: `build_lane` + `run_lane`.
    Solo,
    /// All schemes of one app as one lane group: `run_lockstep`.
    Lockstep,
}

/// A scheme × app matrix on one platform.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// How runs are driven.
    pub drive: Drive,
    /// Schemes, in result order within each app.
    pub schemes: Vec<Scheme>,
    /// Applications, in result order.
    pub apps: Vec<AppId>,
    /// Workload scale.
    pub scale: Scale,
    /// The platform every run simulates (see [`SimSpec::config_for`]).
    pub config: SystemConfig,
    /// Whether each app's runs draw their energy trace from a seed of
    /// their own, derived from `config`'s seed and the app.
    pub seed_per_app: bool,
}

/// The trace seed of `app`'s runs in a workload seeded with `seed`: one
/// splitmix64 step, so neighbouring seeds give unrelated traces.
pub fn app_seed(seed: u64, app: AppId) -> u64 {
    let mut z = (seed ^ (app as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's default platform powered by the RFHome trace with the
/// benchmark's seed.
fn rfhome(seed: u64, power_scale: f64) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    config.source = SourceKind::Preset {
        preset: ehs_energy::TracePreset::RfHome,
        seed,
        scale: power_scale,
    };
    config
}

impl SimSpec {
    /// `solo_fig8`: the Fig. 8 matrix, every run independent.
    pub fn solo_fig8(seed: u64, scale: Scale) -> Self {
        Self {
            drive: Drive::Solo,
            schemes: Scheme::FIG8.to_vec(),
            apps: AppId::ALL.to_vec(),
            scale,
            config: rfhome(seed, 1.0),
            seed_per_app: true,
        }
    }

    /// `lockstep_sweep`: all nine schemes per app as one lockstep group.
    pub fn lockstep_sweep(seed: u64, scale: Scale) -> Self {
        Self {
            drive: Drive::Lockstep,
            schemes: Scheme::ALL.to_vec(),
            ..Self::solo_fig8(seed, scale)
        }
    }

    /// `outage_storm`: a weak source (0.3× RFHome) on a 1 µF capacitor, so
    /// outages come ~13× as often as on the default platform.
    pub fn outage_storm(seed: u64, scale: Scale) -> Self {
        let mut config = rfhome(seed, 0.3);
        config.energy.capacitor = config
            .energy
            .capacitor
            .with_capacitance(Capacitance::from_micro_farads(1.0));
        Self {
            drive: Drive::Solo,
            schemes: vec![
                Scheme::Baseline,
                Scheme::Decay,
                Scheme::Edbp,
                Scheme::DecayEdbp,
            ],
            apps: AppId::ALL.to_vec(),
            scale,
            config,
            seed_per_app: true,
        }
    }

    /// The Fig. 8 matrix exactly as `exp_all tiny` plans it (paper-default
    /// platform, its fixed seed): the suite workload's in-process reference.
    pub fn suite_fig8_tiny() -> Self {
        Self {
            config: SystemConfig::paper_default(),
            seed_per_app: false,
            ..Self::solo_fig8(0, Scale::Tiny)
        }
    }

    /// The platform `app`'s runs simulate: `config`, with the app's own
    /// trace seed when `seed_per_app`. Every app then meets a different
    /// stretch of weather, so a run's cost depends on the seed far less
    /// than when every app replays the same opening of one trace.
    pub fn config_for(&self, app: AppId) -> SystemConfig {
        let mut config = self.config.clone();
        if let (true, SourceKind::Preset { seed, .. }) = (self.seed_per_app, &mut config.source) {
            *seed = app_seed(*seed, app);
        }
        config
    }

    /// Index of `(app, scheme)` in a pass's results.
    pub fn index_of(&self, app: AppId, scheme: Scheme) -> Option<usize> {
        let a = self.apps.iter().position(|&x| x == app)?;
        let s = self.schemes.iter().position(|&x| x == scheme)?;
        Some(a * self.schemes.len() + s)
    }

    /// `(app, scheme)` of every result, in result order.
    pub fn runs(&self) -> impl Iterator<Item = (AppId, Scheme)> + '_ {
        self.apps
            .iter()
            .flat_map(|&a| self.schemes.iter().map(move |&s| (a, s)))
    }

    /// Every run as the harness's job, in result order (the run cache's key).
    pub fn jobs(&self) -> Vec<Job> {
        self.apps
            .iter()
            .flat_map(|&app| {
                let config = Arc::new(self.config_for(app));
                self.schemes.iter().map(move |&scheme| Job {
                    config: Arc::clone(&config),
                    scheme,
                    app,
                    scale: self.scale,
                })
            })
            .collect()
    }
}

/// One pass over a matrix.
#[derive(Debug, Clone)]
pub struct SimPass {
    /// Results in [`SimSpec::runs`] order.
    pub results: Vec<RunResult>,
    /// Seconds in `ehs_workloads::build`, `record_generation_trace` and
    /// `build_lane`, rescaled to nominal host speed app by app.
    pub setup_s: f64,
    /// Seconds in `run_lane` / `run_lockstep` (or the chunked drive).
    pub run_s: f64,
    /// [`SimPass::run_s`] rescaled to nominal host speed, app by app.
    pub nominal_run_s: f64,
    /// Host speed over all of the pass's reference slices, relative to
    /// nominal.
    pub speed: f64,
}

impl SimPass {
    /// Committed instructions over all runs.
    pub fn committed(&self) -> u64 {
        self.results.iter().map(|r| r.committed).sum()
    }

    /// Simulated million instructions per second of run time at nominal
    /// host speed.
    pub fn nominal_mips(&self) -> f64 {
        self.committed() as f64 / self.nominal_run_s / 1e6
    }
}

/// Runs one pass over `spec`, sampling the host's speed before the first
/// app and after each app's runs; each app's set-up and run times are
/// rescaled by the speed around them.
/// With a traced clock every layer call gets a span and solo lanes advance
/// in [`TRACE_CHUNK`] steps, which leaves every result bit-identical
/// (bursts are never truncated at a chunk target).
pub fn run_pass(spec: &SimSpec, pass: u32, clock: &mut Clock, speed: &mut Speedometer) -> SimPass {
    let key = RunKey::pass(pass);
    let root = clock.open("pass", key);
    let needs_oracle = spec.schemes.iter().any(|s| s.needs_oracle_trace());
    let mut out = SimPass {
        results: Vec::with_capacity(spec.apps.len() * spec.schemes.len()),
        setup_s: 0.0,
        run_s: 0.0,
        nominal_run_s: 0.0,
        speed: 1.0,
    };
    let mut before = clock
        .time("host.reference", key, || speed.sample(SAMPLE_SLICES))
        .0;
    let mut total = before;
    for &app in &spec.apps {
        let key = key.app(app);
        let config = spec.config_for(app);
        let (mut setup_s, mut run_s) = (0.0, 0.0);
        let (workload, t) = clock.time("workloads.build", key, || build(app, spec.scale));
        setup_s += t;
        let oracle = if needs_oracle {
            let (trace, t) = clock.time("system.oracle_record", key, || {
                record_generation_trace(&config, workload.clone())
            });
            setup_s += t;
            Some(trace)
        } else {
            None
        };
        let mut lanes = Vec::with_capacity(spec.schemes.len());
        for &scheme in &spec.schemes {
            let trace = scheme
                .needs_oracle_trace()
                .then(|| oracle.clone())
                .flatten();
            let (lane, t) = clock.time("system.lane_build", key.scheme(scheme), || {
                build_lane(&config, scheme, workload.clone(), trace, false)
                    .expect("benchmark platforms pass energy validation")
            });
            setup_s += t;
            match spec.drive {
                Drive::Solo => {
                    let (outcome, t) = drive(lane, key.scheme(scheme), clock);
                    run_s += t;
                    out.results.push(outcome.result);
                }
                Drive::Lockstep => lanes.push(lane),
            }
        }
        if spec.drive == Drive::Lockstep {
            let (outcomes, t) = clock.time("system.lockstep", key, || run_lockstep(lanes));
            run_s += t;
            out.results.extend(outcomes.into_iter().map(|o| o.result));
        }
        let after = clock
            .time("host.reference", key, || speed.sample(SAMPLE_SLICES))
            .0;
        let app_speed = (before + after).speed();
        out.setup_s += setup_s * app_speed;
        out.run_s += run_s;
        out.nominal_run_s += run_s * app_speed;
        total = total + after;
        before = after;
    }
    clock.close(root);
    out.speed = total.speed();
    out
}

/// Drives one solo lane to completion: `run_lane`, or chunked
/// `advance_until` calls when tracing.
fn drive(mut lane: Box<dyn LaneRun>, key: RunKey, clock: &mut Clock) -> (RunOutcome, f64) {
    if !clock.is_traced() {
        return clock.time("system.run", key, || run_lane(lane));
    }
    let mut secs = 0.0;
    while !lane.done() {
        let target = lane.committed().saturating_add(TRACE_CHUNK);
        secs += clock
            .time("system.advance", key, || lane.advance_until(target))
            .1;
    }
    let (outcome, t) = clock.time("system.finish", key, || lane.finish_collecting());
    (outcome, secs + t)
}

/// Runs that did not complete or browned out.
pub fn incomplete_runs(results: &[RunResult]) -> u64 {
    results
        .iter()
        .filter(|r| !r.completed || r.brownouts > 0)
        .count() as u64
}

/// Digest of the simulated outcome of every result (wall-clock `sim_mips`
/// excluded, exactly as `RunResult`'s equality excludes it).
pub fn digest(results: &[RunResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        let mut r = r.clone();
        r.sim_mips = 0.0;
        write!(text, "{r:?}").expect("write to string");
    }
    checksum(text.as_bytes())
}

/// Burst stepping against the `force_cycle_accurate` reference for
/// crc32/patricia/jpeg_enc × {Baseline, Decay+EDBP}, on `spec`'s platform;
/// `reference` is a pass over `spec`. Returns one message per divergence.
pub fn check_cycle_accurate(spec: &SimSpec, reference: &SimPass) -> Vec<String> {
    let mut failures = Vec::new();
    for app in [AppId::Crc32, AppId::Patricia, AppId::JpegEnc] {
        let mut exact = spec.config_for(app);
        exact.force_cycle_accurate = true;
        for scheme in [Scheme::Baseline, Scheme::DecayEdbp] {
            let Some(i) = spec.index_of(app, scheme) else {
                continue;
            };
            let lane = build_lane(&exact, scheme, build(app, spec.scale), None, false)
                .expect("benchmark platforms pass energy validation");
            if run_lane(lane).result != reference.results[i] {
                failures.push(format!(
                    "{scheme}/{app}: burst stepping differs from force_cycle_accurate"
                ));
            }
        }
    }
    failures
}

/// Every lockstep lane of `reference` (a pass over the lockstep `spec`)
/// against an independent solo run of the same Fig. 8 scheme and app.
pub fn check_lockstep_matches_solo(spec: &SimSpec, reference: &SimPass) -> Vec<String> {
    let solo = SimSpec {
        drive: Drive::Solo,
        schemes: Scheme::FIG8.to_vec(),
        ..spec.clone()
    };
    let solo_pass = run_pass(&solo, 0, &mut Clock::new(None), &mut Speedometer::default());
    solo.runs()
        .zip(&solo_pass.results)
        .filter_map(|((app, scheme), r)| {
            let i = spec.index_of(app, scheme)?;
            (reference.results[i] != *r)
                .then(|| format!("{scheme}/{app}: lockstep lane differs from the solo run"))
        })
        .collect()
}

/// Suite-geomean speedups the paper reports (Fig. 8).
pub const PAPER_SPEEDUP: [(Scheme, f64); 5] = [
    (Scheme::Decay, 1.059),
    (Scheme::Edbp, 1.069),
    (Scheme::DecayEdbp, 1.119),
    (Scheme::LeakageOff80, 1.114),
    (Scheme::Ideal, 1.144),
];

/// Suite-geomean energy changes the paper reports (Fig. 7), in percent.
pub const PAPER_ENERGY_PCT: [(Scheme, f64); 3] = [
    (Scheme::Sdbp, -1.3),
    (Scheme::Edbp, -6.5),
    (Scheme::DecayEdbp, -9.8),
];

/// Suite geomeans of one scheme against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// The scheme.
    pub scheme: Scheme,
    /// Geomean of baseline time ÷ scheme time.
    pub speedup: f64,
    /// Geomean energy change against the baseline, in percent.
    pub energy_pct: f64,
}

/// Suite geomeans of every non-baseline scheme of `spec` (which must
/// include the baseline).
pub fn headlines(spec: &SimSpec, results: &[RunResult]) -> Vec<Headline> {
    spec.schemes
        .iter()
        .filter(|&&s| s != Scheme::Baseline)
        .filter_map(|&scheme| {
            let mut speedups = Vec::new();
            let mut energies = Vec::new();
            for &app in &spec.apps {
                let b = &results[spec.index_of(app, Scheme::Baseline)?];
                let r = &results[spec.index_of(app, scheme)?];
                speedups.push(b.total_time() / r.total_time());
                energies.push(r.energy.total() / b.energy.total());
            }
            Some(Headline {
                scheme,
                speedup: geomean(speedups),
                energy_pct: (geomean(energies) - 1.0) * 100.0,
            })
        })
        .collect()
}

/// `(speedup_err, energy_err_pp)`: mean absolute distance of the measured
/// geomeans from the paper's, over the anchors whose scheme was measured.
pub fn paper_errors(headlines: &[Headline]) -> (f64, f64) {
    let mean_err = |anchors: &[(Scheme, f64)], pick: fn(&Headline) -> f64| {
        let errs: Vec<f64> = anchors
            .iter()
            .filter_map(|&(s, paper)| {
                let h = headlines.iter().find(|h| h.scheme == s)?;
                Some((pick(h) - paper).abs())
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    (
        mean_err(&PAPER_SPEEDUP, |h| h.speedup),
        mean_err(&PAPER_ENERGY_PCT, |h| h.energy_pct),
    )
}
