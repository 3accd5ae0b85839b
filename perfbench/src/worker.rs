//! Runs one workload for a fixed measuring time and fills its [`Report`].
//!
//! Every workload first runs one untimed warm-up pass, whose results are
//! the reference for the checks, then measured passes back to back until
//! the next pass would overrun the measuring time. With tracing on,
//! untraced and traced passes alternate, so the tracing overhead comes
//! from the same run; the end-to-end numbers always come from untraced
//! passes of a run with tracing off.

use crate::host::{peak_rss_mb, run_cache_stats, Who};
use crate::probes::{self, LayerCosts};
use crate::report::Report;
use crate::sim::{self, SimPass, SimSpec};
use crate::speed::{FileSpeedometer, Speedometer, SAMPLE_SLICES};
use crate::stats::median;
use crate::suite;
use crate::trace::{Clock, RunKey, Tracer};
use ehs_sim::runcache::RunCache;
use ehs_sim::runner::Job;
use ehs_sim::{record_generation_trace, RunResult};
use ehs_workloads::{build, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Warm replays of the result cache per simulation pass; the pass's
/// `warm_s` sample is their median.
const WARM_REPLAYS: usize = 9;

/// Warm `exp_all` runs per suite pass. A warm run is ~30 ms of process
/// start-up and file reads whose time swings by a quarter from run to
/// run, so a pass takes many to give the run's median enough samples.
const SUITE_WARM_RUNS: usize = 12;

/// Untraced and traced in-process passes of `suite_tiny`'s traced run.
const PROBE_PASSES: usize = 8;

/// Pass number of passes that only feed the layer probes.
const PROBE_PASS: u32 = u32::MAX;

/// How one workload run is traced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMode {
    /// No spans; report the end-to-end metrics.
    Off,
    /// Spans kept in memory; report the per-layer metrics.
    On,
    /// As `On`, and append the spans to this JSONL file.
    To(PathBuf),
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, as `BENCHMARK.json` declares it.
    pub workload: String,
    /// Seed of the simulated energy trace.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Tracing.
    pub trace: TraceMode,
    /// Tiny inputs and a single measured pass (for tests).
    pub smoke: bool,
    /// The `exp_all` executable (suite workload).
    pub exp_all: PathBuf,
    /// Scratch directory owned by this run.
    pub scratch: PathBuf,
}

impl Options {
    fn traced(&self) -> bool {
        self.trace != TraceMode::Off
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Tiny
        } else {
            Scale::Small
        }
    }

    /// Measured passes to run before the time budget may end the run
    /// (traced and untraced passes each, in a traced run).
    fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Runs the workload and returns its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = match opts.workload.as_str() {
        "solo_fig8" => Some(SimSpec::solo_fig8(opts.seed, opts.scale())),
        "lockstep_sweep" => Some(SimSpec::lockstep_sweep(opts.seed, opts.scale())),
        "outage_storm" => Some(SimSpec::outage_storm(opts.seed, opts.scale())),
        "suite_tiny" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut tracer = Tracer::with_capacity(1 << 16);
    let mut report = Report::default();
    match spec {
        Some(spec) => run_sim(opts, &spec, &mut tracer, &mut report)?,
        None => run_suite(opts, &mut tracer, &mut report)?,
    }
    if opts.traced() {
        add_self_times(&tracer, &mut report);
        if let TraceMode::To(path) = &opts.trace {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            let mut out = std::io::BufWriter::new(file);
            tracer
                .write_jsonl(&opts.workload, &mut out)
                .and_then(|()| std::io::Write::flush(&mut out))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(report)
}

/// Passes measured so far, split by whether they were traced.
#[derive(Debug, Default)]
struct Samples {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

/// Runs `pass` back to back until the next one would end after `seconds`,
/// alternating untraced and traced passes when tracing. `pass` gets the
/// pass number and whether to trace, and returns its `sim_mips`; `first`
/// is an untraced pass's `sim_mips` measured before.
fn measure(
    opts: &Options,
    first: Option<f64>,
    mut pass: impl FnMut(u32, bool) -> Result<f64, String>,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut samples = Samples {
        untraced: first.into_iter().collect(),
        traced: Vec::new(),
    };
    let mut last = 0.0;
    for number in 1u32.. {
        let traced = opts.traced() && samples.traced.len() < samples.untraced.len();
        let enough = samples.untraced.len() >= opts.min_passes()
            && (!opts.traced() || samples.traced.len() >= opts.min_passes());
        let out_of_time = start.elapsed().as_secs_f64() + last > opts.seconds;
        if enough && (out_of_time || opts.smoke) {
            break;
        }
        let t = Instant::now();
        let mips = pass(number, traced)?;
        last = t.elapsed().as_secs_f64();
        if traced {
            samples.traced.push(mips);
        } else {
            samples.untraced.push(mips);
        }
    }
    Ok(samples)
}

fn run_sim(
    opts: &Options,
    spec: &SimSpec,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut speed = Speedometer::default();
    let mut speeds = Vec::new();
    let reference = sim::run_pass(spec, 0, &mut Clock::new(None), &mut speed);
    report.runs(
        reference.results.len() as u64,
        sim::incomplete_runs(&reference.results),
    );
    match opts.workload.as_str() {
        "solo_fig8" => report.check(sim::check_cycle_accurate(spec, &reference)),
        "lockstep_sweep" => report.check(sim::check_lockstep_matches_solo(spec, &reference)),
        _ => {}
    }
    let reference_digest = sim::digest(&reference.results);

    // The warm path of this matrix: every result stored once in a run
    // cache, then replayed from it after every pass.
    let jobs = spec.jobs();
    let cache_dir = opts.scratch.join("runcache");
    let cache = open_cache(&cache_dir)?;
    let store_us = suite::store_results(&cache, &jobs, &reference.results);
    report.check(store_us.as_ref().err().cloned().into_iter().collect());
    let store_us = store_us.unwrap_or_default();

    let mut setup_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut first = None;
    if opts.smoke {
        // The warm-up pass doubles as the only untraced pass.
        let (warm, problems) = replay(
            &cache,
            &jobs,
            &reference.results,
            0,
            &mut Clock::new(None),
            &mut speed,
        );
        report.check(problems);
        setup_s.push(reference.setup_s);
        warm_s.push(warm);
        speeds.push(reference.speed);
        first = Some(reference.nominal_mips());
    }
    let mut run_ns = 0.0;
    let mut traced_results: Vec<RunResult> = Vec::new();
    let samples = measure(opts, first, |number, traced| {
        let mut clock = Clock::new(traced.then_some(&mut *tracer));
        let pass = sim::run_pass(spec, number, &mut clock, &mut speed);
        report.runs(
            pass.results.len() as u64,
            sim::incomplete_runs(&pass.results),
        );
        if sim::digest(&pass.results) != reference_digest {
            report.check(vec![format!(
                "pass {number} results differ from the warm-up pass"
            )]);
        }
        let (warm, problems) = replay(&cache, &jobs, &pass.results, number, &mut clock, &mut speed);
        report.check(problems);
        if traced {
            run_ns += pass.run_s * 1e9;
            traced_results.extend(pass.results.iter().cloned());
        } else {
            setup_s.push(pass.setup_s);
            warm_s.push(warm);
            speeds.push(pass.speed);
        }
        Ok(pass.nominal_mips())
    })?;

    report
        .notes
        .extend(accuracy_table(spec, &reference.results));
    report.notes.push(speed_note(&speeds));
    report.extend("sim_mips", samples.untraced.iter().copied());
    report.extend("setup_s", setup_s);
    report.extend("warm_s", warm_s.iter().copied());
    report.add(
        "peak_rss_mb",
        peak_rss_mb(Who::SelfProcess).ok_or("peak RSS is unavailable on this host")?,
    );
    if !opts.traced() {
        return Ok(());
    }

    let costs = probes::measure(spec, energy_cycles(opts));
    add_costs(report, &costs);
    add_spans(report, tracer, spec);
    let committed: u64 = traced_results.iter().map(|r| r.committed).sum();
    report.add("system.ns_per_lane_instr", run_ns / committed as f64);
    add_shares(report, &costs, &traced_results, run_ns, spec);
    add_planner(report);
    report.add("runcache.store_us", median(&store_us));
    report.add(
        "runcache.load_us",
        median(&warm_s) * 1e6 / reference.results.len() as f64,
    );
    let (entries, bytes) = run_cache_stats(&cache_dir);
    report.add("runcache.entries", entries as f64);
    report.add("runcache.mb", bytes as f64 / 1e6);
    report.add(
        "trace.overhead_frac",
        1.0 - median(&samples.traced) / median(&samples.untraced),
    );
    add_model(
        report,
        &reference.results,
        reference_digest,
        spec,
        &reference.results,
    );
    Ok(())
}

/// Loads every job of `jobs` from `cache` [`WARM_REPLAYS`] times; returns
/// the median replay's seconds, rescaled to nominal host speed by slices
/// timed right before and right after the replays, and one problem per
/// loaded result that differs from `expected`. The replays take a few
/// milliseconds, so the pass's own speed, averaged over a second or more,
/// tracks them only loosely (over five minutes of `solo_fig8` passes the
/// run-to-run spread of `warm_s` was 2.4 % rescaled by it, 1.0 % by these
/// slices).
fn replay(
    cache: &RunCache,
    jobs: &[Job],
    expected: &[RunResult],
    number: u32,
    clock: &mut Clock,
    speed: &mut Speedometer,
) -> (f64, Vec<String>) {
    let key = RunKey::pass(number);
    let before = clock
        .time("host.reference", key, || speed.sample(SAMPLE_SLICES))
        .0;
    let mut times = Vec::with_capacity(WARM_REPLAYS);
    let mut problems = Vec::new();
    for round in 0..WARM_REPLAYS {
        let (loaded, t) = clock.time("runcache.load", key, || suite::load_results(cache, jobs));
        times.push(t);
        if round == 0 {
            match loaded {
                Ok(loaded) if loaded == expected => {}
                Ok(_) => problems.push("a result loaded from the run cache differs".into()),
                Err(e) => problems.push(e),
            }
        }
    }
    let after = clock
        .time("host.reference", key, || speed.sample(SAMPLE_SLICES))
        .0;
    (median(&times) * (before + after).speed(), problems)
}

fn open_cache(dir: &std::path::Path) -> Result<RunCache, String> {
    RunCache::new(dir).map_err(|e| format!("cannot open the run cache {}: {e}", dir.display()))
}

fn energy_cycles(opts: &Options) -> u64 {
    if opts.smoke {
        200_000
    } else {
        4_000_000
    }
}

fn run_suite(opts: &Options, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let warm_runs = if opts.smoke { 1 } else { SUITE_WARM_RUNS };
    let io = |e: std::io::Error| format!("exp_all: {e}");
    let pass_dir = |n: u32| opts.scratch.join(format!("suite-{n}"));

    // The warm-up pass: its figures are the reference, its cache holds the
    // results the one-time checks read.
    let mut speed = Speedometer::default();
    let files = FileSpeedometer::create(&opts.scratch.join("file-reference")).map_err(io)?;
    let mut speeds = Vec::new();
    let (first, dirs) = suite::run_pass(
        &opts.exp_all,
        &pass_dir(0),
        warm_runs,
        0,
        &mut Clock::new(None),
        &mut speed,
        &files,
    )
    .map_err(io)?;
    let reference_figures = first.cold.figures;
    count_invocations(report, &first);
    report.check(suite::check_pass(&first, reference_figures));
    let cold_cache = open_cache(&dirs.cache)?;
    let unique = suite::load_results(&cold_cache, &first.plan.unique);
    report.check(unique.as_ref().err().cloned().into_iter().collect());
    let unique = unique.unwrap_or_default();
    let committed: u64 = unique.iter().map(|r| r.committed).sum();

    // The in-process Fig. 8 matrix must match what exp_all simulated.
    let fig8 = SimSpec::suite_fig8_tiny();
    let direct = sim::run_pass(&fig8, 0, &mut Clock::new(None), &mut speed);
    report.runs(
        direct.results.len() as u64,
        sim::incomplete_runs(&direct.results),
    );
    let fig8_jobs = fig8.jobs();
    report.check(match suite::load_results(&cold_cache, &fig8_jobs) {
        Ok(cached) if cached == direct.results => Vec::new(),
        Ok(_) => vec!["exp_all's Fig. 8 results differ from build_lane/run_lane runs".into()],
        Err(e) => vec![e],
    });
    let (entries, bytes) = run_cache_stats(&dirs.cache);
    let _ = std::fs::remove_dir_all(pass_dir(0));

    let mut setup_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut first_mips = None;
    if opts.smoke {
        // The warm-up pass doubles as the only untraced pass.
        setup_s.push(first.setup_s * first.cold.speed);
        warm_s.extend(first.warm.iter().map(suite::Invocation::nominal_s));
        speeds.push(first.cold.speed);
        first_mips = Some(committed as f64 / first.cold.nominal_s() / 1e6);
    }
    let samples = measure(opts, first_mips, |number, traced| {
        let mut clock = Clock::new(traced.then_some(&mut *tracer));
        let (pass, _) = suite::run_pass(
            &opts.exp_all,
            &pass_dir(number),
            warm_runs,
            number,
            &mut clock,
            &mut speed,
            &files,
        )
        .map_err(io)?;
        let _ = std::fs::remove_dir_all(pass_dir(number));
        count_invocations(report, &pass);
        report.check(suite::check_pass(&pass, reference_figures));
        if !traced {
            setup_s.push(pass.setup_s * pass.cold.speed);
            warm_s.extend(pass.warm.iter().map(suite::Invocation::nominal_s));
            speeds.push(pass.cold.speed);
        }
        Ok(committed as f64 / pass.cold.nominal_s() / 1e6)
    })?;
    report.notes.extend(accuracy_table(&fig8, &direct.results));
    let cold: Vec<f64> = samples
        .untraced
        .iter()
        .map(|mips| committed as f64 / mips / 1e6)
        .collect();
    report.notes.push(format!(
        "exp_all tiny --threads {}: cold {:.3} s, warm {:.4} s at nominal host speed \
         (medians of {} and {})",
        suite::threads(),
        median(&cold),
        median(&warm_s),
        cold.len(),
        warm_s.len()
    ));
    report.notes.push(speed_note(&speeds));
    report.extend("sim_mips", samples.untraced.iter().copied());
    report.extend("setup_s", setup_s);
    report.extend("warm_s", warm_s.iter().copied());
    report.add(
        "peak_rss_mb",
        peak_rss_mb(Who::Children).ok_or("peak RSS is unavailable on this host")?,
    );
    if !opts.traced() {
        return Ok(());
    }

    // The simulation layers on the suite's inputs: in-process passes over
    // the Tiny Fig. 8 matrix, alternately untraced and traced (spans around
    // a subprocess cost nothing, so this is where tracing costs anything),
    // plus the layer probes.
    let (mut plain_mips, mut probes) = (Vec::new(), Vec::new());
    for _ in 0..if opts.smoke { 1 } else { PROBE_PASSES } {
        let plain = sim::run_pass(&fig8, PROBE_PASS, &mut Clock::new(None), &mut speed);
        plain_mips.push(plain.nominal_mips());
        let clock = &mut Clock::new(Some(&mut *tracer));
        probes.push(sim::run_pass(&fig8, PROBE_PASS, clock, &mut speed));
    }
    let traced_mips: Vec<f64> = probes.iter().map(SimPass::nominal_mips).collect();
    let probe = probes.pop().expect("at least one probe pass");
    let costs = probes::measure(&fig8, energy_cycles(opts));
    add_costs(report, &costs);
    add_spans(report, tracer, &fig8);
    report.add(
        "system.ns_per_lane_instr",
        probe.run_s * 1e9 / probe.committed() as f64,
    );
    add_shares(report, &costs, &probe.results, probe.run_s * 1e9, &fig8);
    add_planner(report);
    let cache = open_cache(&opts.scratch.join("probe-runcache"))?;
    let store_us = suite::store_results(&cache, &fig8_jobs, &probe.results)?;
    let (load_s, problems) = replay(
        &cache,
        &fig8_jobs,
        &probe.results,
        PROBE_PASS,
        &mut Clock::new(None),
        &mut speed,
    );
    report.check(problems);
    report.add("runcache.store_us", median(&store_us));
    report.add("runcache.load_us", load_s * 1e6 / fig8_jobs.len() as f64);
    report.add("runcache.entries", entries as f64);
    report.add("runcache.mb", bytes as f64 / 1e6);
    report.add(
        "trace.overhead_frac",
        1.0 - median(&traced_mips) / median(&plain_mips),
    );
    add_model(
        report,
        &unique,
        sim::digest(&unique),
        &fig8,
        &direct.results,
    );
    Ok(())
}

fn speed_note(speeds: &[f64]) -> String {
    let s = crate::stats::Summary::of(speeds);
    format!(
        "host speed by the reference kernel (1 = nominal): median {:.3}, quartiles {:.3}..{:.3} \
         over {} passes; end-to-end times are rescaled to nominal speed",
        s.median, s.q1, s.q3, s.n
    )
}

/// Counts every `exp_all` job of a pass as attempted, and its failed jobs.
fn count_invocations(report: &mut Report, pass: &suite::SuitePass) {
    for run in std::iter::once(&pass.cold).chain(&pass.warm) {
        let s = run.summary.unwrap_or_default();
        report.runs(s.requested.max(1), s.failed);
    }
}

fn add_costs(report: &mut Report, c: &LayerCosts) {
    report.add("cpu.ns_per_instr", c.cpu_ns_per_instr);
    report.add("memory_system.ns_per_fetch", c.ns_per_fetch);
    report.add("memory_system.ns_per_data_access", c.ns_per_data_access);
    report.add("core.ns_per_tick", c.ns_per_tick);
    report.add("energy.ns_per_burst_cycle", c.ns_per_burst_cycle);
    report.add("energy.us_per_recharge", c.us_per_recharge);
}

/// Mean cost per call of the setup layers, from the traced passes' spans;
/// the workload's oracle cost is probed directly when its matrix has no
/// Ideal runs. Also the share of traced pass time no layer span covers.
fn add_spans(report: &mut Report, tracer: &Tracer, spec: &SimSpec) {
    let mut per_call: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in tracer.spans() {
        let e = per_call.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += 1;
    }
    let mean_ms = |name: &str| per_call.get(name).map(|&(t, n)| t * 1e3 / n as f64);
    report.add(
        "workloads.build_ms",
        mean_ms("workloads.build").unwrap_or(f64::NAN),
    );
    report.add(
        "system.lane_build_ms",
        mean_ms("system.lane_build").unwrap_or(f64::NAN),
    );
    let oracle = mean_ms("system.oracle_record").unwrap_or_else(|| {
        let workload = build(spec.apps[0], spec.scale);
        let t = Instant::now();
        std::hint::black_box(record_generation_trace(
            &spec.config_for(spec.apps[0]),
            workload,
        ));
        t.elapsed().as_secs_f64() * 1e3
    });
    report.add("system.oracle_record_ms", oracle);

    let self_times = tracer.self_times();
    let pass_total: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.secs())
        .sum();
    let unattributed = self_times.get("pass").copied().unwrap_or(0.0);
    report.add("trace.unattributed_frac", unattributed / pass_total);
}

/// Self time per layer over the traced passes, as notes.
fn add_self_times(tracer: &Tracer, report: &mut Report) {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let names: BTreeMap<&str, &str> = tracer.spans().iter().map(|s| (s.name, s.layer())).collect();
    for (name, secs) in tracer.self_times() {
        *by_layer.entry(names[name]).or_default() += secs;
    }
    let total: f64 = by_layer.values().sum();
    report
        .notes
        .push("self time per layer over the traced passes:".into());
    for (layer, secs) in by_layer {
        let layer = if layer == "pass" {
            "(unattributed)"
        } else {
            layer
        };
        report.notes.push(format!(
            "  {layer:<16} {secs:>9.3} s  {:>5.1} %",
            secs * 100.0 / total
        ));
    }
}

/// Outside-in attribution of the simulation run time: each probed
/// per-operation cost times the operation count the runs report, over the
/// run time the spans measured. An estimate: the simulator's burst path
/// skips work the probes always do, so the shares can sum past 1.
fn add_shares(
    report: &mut Report,
    c: &LayerCosts,
    results: &[RunResult],
    run_ns: f64,
    spec: &SimSpec,
) {
    let sum = |f: fn(&RunResult) -> f64| results.iter().map(f).sum::<f64>();
    let committed = sum(|r| r.committed as f64);
    let data = sum(|r| (r.loads + r.stores) as f64);
    let cycles = sum(|r| r.on_time.as_seconds()) * spec.config.frequency.as_hertz();
    let outages = sum(|r| r.outages as f64);
    let cpu = c.cpu_ns_per_instr * committed / run_ns;
    let memory = (c.ns_per_fetch * committed + c.ns_per_data_access * data) / run_ns;
    let energy = (c.ns_per_burst_cycle * cycles + c.us_per_recharge * 1e3 * outages) / run_ns;
    report.add("share.cpu", cpu);
    report.add("share.memory_system", memory);
    report.add("share.energy", energy);
    report.add("share.residual", 1.0 - cpu - memory - energy);
}

/// Planning cost of the suite and its job counts.
fn add_planner(report: &mut Report) {
    let mut times = Vec::new();
    let mut plan = None;
    for _ in 0..5 {
        let t = Instant::now();
        plan = Some(suite::plan());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let plan = plan.expect("planned at least once");
    report.add("planner.plan_ms", median(&times));
    report.add("runner.requested", plan.requested as f64);
    report.add("runner.unique", plan.unique.len() as f64);
}

/// The simulated outcome's own statistics over `results`, identical under
/// any change that only makes the simulator faster, and the distance of
/// `spec`'s geomeans (from `matrix`, a pass over `spec`) from the paper's.
fn add_model(
    report: &mut Report,
    results: &[RunResult],
    digest: u64,
    spec: &SimSpec,
    matrix: &[RunResult],
) {
    let committed: u64 = results.iter().map(|r| r.committed).sum();
    let outages: u64 = results.iter().map(|r| r.outages).sum();
    let (misses, accesses) = results.iter().fold((0, 0), |(m, a), r| {
        (m + r.dcache.misses, a + r.dcache.accesses())
    });
    let ckpt: f64 = results
        .iter()
        .map(|r| r.energy.checkpoint_restore().as_joules())
        .sum();
    let energy: f64 = results.iter().map(|r| r.energy.total().as_joules()).sum();
    report.add("model.committed", committed as f64);
    report.add("model.outages", outages as f64);
    report.add("model.instr_per_outage", committed as f64 / outages as f64);
    report.add("model.dcache_miss_rate", misses as f64 / accesses as f64);
    report.add("model.ckpt_restore_share", ckpt / energy);
    // 48 bits, so the digest survives the JSON number's f64 exactly.
    report.add("model.result_digest", (digest >> 16) as f64);
    let (speedup_err, energy_err) = sim::paper_errors(&sim::headlines(spec, matrix));
    report.add("model.speedup_err", speedup_err);
    report.add("model.energy_err_pp", energy_err);
}

/// The Fig. 7/8 suite geomeans beside the paper's, as notes.
fn accuracy_table(spec: &SimSpec, results: &[RunResult]) -> Vec<String> {
    let seed = match spec.config.source {
        ehs_sim::SourceKind::Preset { seed, .. } => seed,
        ehs_sim::SourceKind::Constant(_) => 0,
    };
    let traces = if spec.seed_per_app {
        "one trace per app"
    } else {
        "one trace"
    };
    let mut lines = vec![format!(
        "suite geomeans vs nvsramcache ({} apps, {:?}, seed {seed}, {traces}); the model is \
         unvalidated beyond these EXPERIMENTS.md anchors:",
        spec.apps.len(),
        spec.scale,
    )];
    for h in sim::headlines(spec, results) {
        let paper = |table: &[(ehs_sim::Scheme, f64)]| {
            table
                .iter()
                .find(|(s, _)| *s == h.scheme)
                .map_or("—".to_owned(), |(_, v)| format!("{v}"))
        };
        lines.push(format!(
            "  {:<16} speedup {:.3} (paper {})  energy {:+.1} % (paper {})",
            h.scheme.name(),
            h.speedup,
            paper(&sim::PAPER_SPEEDUP),
            h.energy_pct,
            paper(&sim::PAPER_ENERGY_PCT),
        ));
    }
    lines
}
