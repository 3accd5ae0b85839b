//! Sensitivity analyses (Figs. 10–18), the hardware-cost analysis
//! (Section VI-B) and the design-choice ablations.

use super::headline::speedups;
use super::motivation::{dcache_size_config, CACHE_SIZES};
use super::regroup;
use crate::report::{factor, pct, Table};
use crate::runner::{geomean, matrix_jobs, Job, JobOutput};
use crate::{RunResult, Scheme, SourceKind, SystemConfig};
use edbp_core::EdbpConfig;
use ehs_cache::{Cache, CacheGeometry, ReplacementPolicy};
use ehs_energy::TracePreset;
use ehs_nvm::{AreaModel, CoreAreaBudget, MemoryTechnology};
use ehs_units::Capacitance;
use ehs_workloads::{AppId, Scale};

/// The three schemes most sweeps track, after the baseline.
const SWEEP_SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Decay,
    Scheme::Edbp,
    Scheme::DecayEdbp,
];

fn sweep_jobs(config: &SystemConfig, scale: Scale) -> Vec<Job> {
    matrix_jobs(config, &SWEEP_SCHEMES, &AppId::ALL, scale)
}

/// Appends one swept configuration's geomean speedup rows labelled `label`.
/// `results` is the `[scheme][app]` matrix for [`SWEEP_SCHEMES`];
/// `reference` overrides the normalization baseline (default: the matrix's
/// own baseline row).
fn sweep_rows(
    table: &mut Table,
    label: &str,
    results: &[Vec<RunResult>],
    reference: Option<&[RunResult]>,
) {
    let base = reference.unwrap_or(&results[0]);
    for (s, scheme) in SWEEP_SCHEMES.iter().enumerate() {
        table.row([
            label.to_owned(),
            scheme.name().to_owned(),
            factor(geomean(speedups(base, &results[s]))),
        ]);
    }
}

fn sweep_header() -> Table {
    Table::new(["config", "scheme", "speedup"])
}

/// One full sweep section's width in jobs.
fn sweep_width() -> usize {
    SWEEP_SCHEMES.len() * AppId::ALL.len()
}

fn fig10_policies() -> [ReplacementPolicy; 2] {
    [ReplacementPolicy::Lru, ReplacementPolicy::Drrip]
}

/// **Fig. 10** — replacement-policy sensitivity: LRU (naive) vs DRRIP
/// (sophisticated). Speedups are normalized to the baseline under the *same*
/// policy, as in the paper ("17.1% improvement over the baseline with
/// DRRIP, compared to 6.91% with LRU").
pub(crate) fn fig10_plan(scale: Scale) -> Vec<Job> {
    fig10_policies()
        .into_iter()
        .flat_map(|policy| {
            let mut config = SystemConfig::paper_default();
            config.dcache.policy = policy;
            sweep_jobs(&config, scale)
        })
        .collect()
}

pub(crate) fn fig10_report(outputs: &[JobOutput]) -> Table {
    let mut table = sweep_header();
    for (i, policy) in fig10_policies().into_iter().enumerate() {
        let section = &outputs[i * sweep_width()..(i + 1) * sweep_width()];
        let results = regroup(section, AppId::ALL.len());
        sweep_rows(&mut table, policy.name(), &results, None);
    }
    table
}

/// **Fig. 11** — cache-size sensitivity, 256 B–16 kB, all schemes normalized
/// to the 4 kB baseline.
pub(crate) fn fig11_plan(scale: Scale) -> Vec<Job> {
    let base = SystemConfig::paper_default();
    let mut jobs = matrix_jobs(&base, &[Scheme::Baseline], &AppId::ALL, scale);
    for bytes in CACHE_SIZES {
        jobs.extend(sweep_jobs(&dcache_size_config(bytes), scale));
    }
    jobs
}

pub(crate) fn fig11_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let (reference, swept) = outputs.split_at(apps);
    let reference = regroup(reference, apps);
    let mut table = sweep_header();
    for (i, bytes) in CACHE_SIZES.into_iter().enumerate() {
        let results = regroup(&swept[i * sweep_width()..(i + 1) * sweep_width()], apps);
        sweep_rows(
            &mut table,
            &format!("{bytes} B"),
            &results,
            Some(&reference[0]),
        );
    }
    table
}

const FIG12_WAYS: [u32; 4] = [1, 2, 4, 8];

/// **Fig. 12** — associativity sensitivity (direct-mapped to 8-way),
/// normalized to the 4-way baseline. Direct-mapped EDBP collapses to a
/// single threshold that deactivates every block (Section VI-H3).
pub(crate) fn fig12_plan(scale: Scale) -> Vec<Job> {
    let base = SystemConfig::paper_default();
    let mut jobs = matrix_jobs(&base, &[Scheme::Baseline], &AppId::ALL, scale);
    for ways in FIG12_WAYS {
        let mut config = base.clone();
        config.dcache.geometry =
            CacheGeometry::new(4096, ways, 16).expect("swept geometry is valid");
        jobs.extend(sweep_jobs(&config, scale));
    }
    jobs
}

pub(crate) fn fig12_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let (reference, swept) = outputs.split_at(apps);
    let reference = regroup(reference, apps);
    let mut table = sweep_header();
    for (i, ways) in FIG12_WAYS.into_iter().enumerate() {
        let results = regroup(&swept[i * sweep_width()..(i + 1) * sweep_width()], apps);
        sweep_rows(
            &mut table,
            &format!("{ways}-way"),
            &results,
            Some(&reference[0]),
        );
    }
    table
}

/// **Fig. 13** — NVM-technology sensitivity: ReRAM / FeRAM / STTRAM for the
/// instruction cache and main memory. Speedups normalized to the same-tech
/// baseline (the paper compares predictor gains per technology).
pub(crate) fn fig13_plan(scale: Scale) -> Vec<Job> {
    MemoryTechnology::NONVOLATILE
        .into_iter()
        .flat_map(|tech| {
            let mut config = SystemConfig::paper_default();
            config.icache_tech = tech;
            config.memory_tech = tech;
            sweep_jobs(&config, scale)
        })
        .collect()
}

pub(crate) fn fig13_report(outputs: &[JobOutput]) -> Table {
    let mut table = sweep_header();
    for (i, tech) in MemoryTechnology::NONVOLATILE.into_iter().enumerate() {
        let section = &outputs[i * sweep_width()..(i + 1) * sweep_width()];
        let results = regroup(section, AppId::ALL.len());
        sweep_rows(&mut table, tech.name(), &results, None);
    }
    table
}

const FIG14_MB: [u64; 5] = [2, 4, 8, 16, 32];

/// **Fig. 14** — memory-size sensitivity, 2–32 MB (larger memories amplify
/// every miss penalty). Normalized to the same-size baseline.
pub(crate) fn fig14_plan(scale: Scale) -> Vec<Job> {
    FIG14_MB
        .into_iter()
        .flat_map(|mb| {
            let mut config = SystemConfig::paper_default();
            config.memory_bytes = mb * 1024 * 1024;
            sweep_jobs(&config, scale)
        })
        .collect()
}

pub(crate) fn fig14_report(outputs: &[JobOutput]) -> Table {
    let mut table = sweep_header();
    for (i, mb) in FIG14_MB.into_iter().enumerate() {
        let section = &outputs[i * sweep_width()..(i + 1) * sweep_width()];
        let results = regroup(section, AppId::ALL.len());
        sweep_rows(&mut table, &format!("{mb} MB"), &results, None);
    }
    table
}

/// **Fig. 15** — energy-condition sensitivity across the four ambient
/// environments. Normalized to the same-trace baseline.
pub(crate) fn fig15_plan(scale: Scale) -> Vec<Job> {
    TracePreset::ALL
        .into_iter()
        .flat_map(|preset| {
            let mut config = SystemConfig::paper_default();
            config.source = SourceKind::Preset {
                preset,
                seed: 42,
                scale: 1.0,
            };
            sweep_jobs(&config, scale)
        })
        .collect()
}

pub(crate) fn fig15_report(outputs: &[JobOutput]) -> Table {
    let mut table = sweep_header();
    for (i, preset) in TracePreset::ALL.into_iter().enumerate() {
        let section = &outputs[i * sweep_width()..(i + 1) * sweep_width()];
        let results = regroup(section, AppId::ALL.len());
        sweep_rows(&mut table, preset.name(), &results, None);
    }
    table
}

const FIG16_CAPS: [(&str, f64); 5] = [
    ("C0 (4.7uF)", 4.7),
    ("2.1x C0", 10.0),
    ("10x C0", 47.0),
    ("21x C0", 100.0),
    ("100x C0", 470.0),
];

/// **Fig. 16** — capacitor-size sensitivity. The paper sweeps 0.47–100 µF;
/// we sweep the same ×1 … ×200 ratios over our scaled default (see
/// `DESIGN.md` §4). Normalized to the same-capacitor baseline.
pub(crate) fn fig16_plan(scale: Scale) -> Vec<Job> {
    FIG16_CAPS
        .into_iter()
        .flat_map(|(_, uf)| {
            let mut config = SystemConfig::paper_default();
            config.energy.capacitor.capacitance = Capacitance::from_micro_farads(uf);
            sweep_jobs(&config, scale)
        })
        .collect()
}

pub(crate) fn fig16_report(outputs: &[JobOutput]) -> Table {
    let mut table = sweep_header();
    for (i, (label, _)) in FIG16_CAPS.into_iter().enumerate() {
        let section = &outputs[i * sweep_width()..(i + 1) * sweep_width()];
        let results = regroup(section, AppId::ALL.len());
        sweep_rows(&mut table, label, &results, None);
    }
    table
}

fn fig17_points() -> Vec<(&'static str, SystemConfig)> {
    let mut points: Vec<(&'static str, SystemConfig)> = Vec::new();
    points.push(("default", SystemConfig::paper_default()));
    {
        let mut c = SystemConfig::paper_default();
        c.dcache.policy = ReplacementPolicy::Drrip;
        points.push(("drrip", c));
    }
    {
        let mut c = SystemConfig::paper_default();
        c.dcache.geometry = CacheGeometry::new(16384, 4, 16).expect("valid");
        points.push(("16kB d$", c));
    }
    {
        let mut c = SystemConfig::paper_default();
        c.dcache.geometry = CacheGeometry::new(4096, 8, 16).expect("valid");
        points.push(("8-way", c));
    }
    {
        let mut c = SystemConfig::paper_default();
        c.icache_tech = MemoryTechnology::SttRam;
        c.memory_tech = MemoryTechnology::SttRam;
        points.push(("sttram", c));
    }
    {
        let mut c = SystemConfig::paper_default();
        c.memory_bytes = 32 * 1024 * 1024;
        points.push(("32MB mem", c));
    }
    {
        let mut c = SystemConfig::paper_default();
        c.source = SourceKind::Preset {
            preset: TracePreset::Thermal,
            seed: 42,
            scale: 1.0,
        };
        points.push(("thermal", c));
    }
    {
        let mut c = SystemConfig::paper_default();
        c.energy.capacitor.capacitance = Capacitance::from_micro_farads(470.0);
        points.push(("100x C0", c));
    }
    points
}

/// **Fig. 17** — sensitivity summary: the geomean speedup of the combined
/// scheme (Cache Decay + EDBP) at the default and at one representative
/// point of every sensitivity axis, normalized to each point's own baseline.
pub(crate) fn fig17_plan(scale: Scale) -> Vec<Job> {
    fig17_points()
        .into_iter()
        .flat_map(|(_, config)| {
            matrix_jobs(
                &config,
                &[Scheme::Baseline, Scheme::DecayEdbp],
                &AppId::ALL,
                scale,
            )
        })
        .collect()
}

pub(crate) fn fig17_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let mut table = Table::new(["config", "decay+edbp speedup"]);
    for (i, (label, _)) in fig17_points().into_iter().enumerate() {
        let results = regroup(&outputs[i * 2 * apps..(i + 1) * 2 * apps], apps);
        table.row([
            label.to_owned(),
            factor(geomean(speedups(&results[0], &results[1]))),
        ]);
    }
    table
}

const FIG18_DESIGNS: [(&str, bool); 2] = [("d$ only", false), ("both caches", true)];

fn fig18_config(predict_icache: bool) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    config.icache_tech = MemoryTechnology::Sram;
    config.icache_energy_scale = 1.0; // SRAM I$ needs no ReRAM calibration
    config.predict_icache = predict_icache;
    config
}

/// **Fig. 18** — SRAM instruction cache: a new baseline with SRAM for both
/// caches, comparing the predictors applied to the data cache only vs to
/// both caches. Energy and speedup normalized to the new baseline.
pub(crate) fn fig18_plan(scale: Scale) -> Vec<Job> {
    FIG18_DESIGNS
        .into_iter()
        .flat_map(|(_, both)| {
            matrix_jobs(&fig18_config(both), &Scheme::HEADLINE, &AppId::ALL, scale)
        })
        .collect()
}

pub(crate) fn fig18_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let width = Scheme::HEADLINE.len() * apps;
    let mut table = Table::new(["design", "scheme", "speedup", "energy", "cache energy"]);
    for (i, (label, _)) in FIG18_DESIGNS.into_iter().enumerate() {
        let results = regroup(&outputs[i * width..(i + 1) * width], apps);
        for (s, scheme) in Scheme::HEADLINE.iter().enumerate() {
            let speedup = geomean(speedups(&results[0], &results[s]));
            let energy = geomean(
                results[0]
                    .iter()
                    .zip(&results[s])
                    .map(|(b, r)| r.energy.total() / b.energy.total()),
            );
            let cache_energy = geomean(
                results[0]
                    .iter()
                    .zip(&results[s])
                    .map(|(b, r)| r.energy.cache() / b.energy.cache()),
            );
            table.row([
                label.to_owned(),
                scheme.name().to_owned(),
                factor(speedup),
                factor(energy),
                factor(cache_energy),
            ]);
        }
    }
    table
}

const OTHER_PREDICTOR_SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::Amc,
    Scheme::Edbp,
    Scheme::AmcEdbp,
    Scheme::DecayEdbp,
];

/// **Section VII-A** — EDBP composes with predictors other than Cache
/// Decay: the same baseline-relative comparison with Adaptive Mode Control
/// in Cache Decay's seat.
pub(crate) fn other_predictors_plan(scale: Scale) -> Vec<Job> {
    let config = SystemConfig::paper_default();
    matrix_jobs(&config, &OTHER_PREDICTOR_SCHEMES, &AppId::ALL, scale)
}

pub(crate) fn other_predictors_report(outputs: &[JobOutput]) -> Table {
    let results = regroup(outputs, AppId::ALL.len());
    let mut table = Table::new(["scheme", "speedup", "energy", "coverage"]);
    for (s, scheme) in OTHER_PREDICTOR_SCHEMES.iter().enumerate() {
        let energy = geomean(
            results[0]
                .iter()
                .zip(&results[s])
                .map(|(b, r)| r.energy.total() / b.energy.total()),
        );
        let total = results[s]
            .iter()
            .fold(edbp_core::PredictionSummary::default(), |acc, r| {
                acc.merged(&r.prediction)
            });
        table.row([
            scheme.name().to_owned(),
            factor(geomean(speedups(&results[0], &results[s]))),
            factor(energy),
            pct(total.coverage()),
        ]);
    }
    table
}

/// **Section VI-B** — hardware cost: EDBP's comparators, registers and
/// deactivation buffer as a fraction of the core area.
pub(crate) fn hw_cost_plan(_scale: Scale) -> Vec<Job> {
    Vec::new()
}

pub(crate) fn hw_cost_report(_outputs: &[JobOutput]) -> Table {
    let model = AreaModel::new(CoreAreaBudget::paper_default());
    let mut table = Table::new(["blocks", "comparators", "area (mm^2)", "core overhead"]);
    for blocks in [64u32, 128, 256, 512, 1024] {
        let area = model.edbp_area(blocks, 3, 8);
        let overhead = model.edbp_overhead_percent(blocks, 3, 8);
        table.row([
            blocks.to_string(),
            blocks.to_string(),
            format!("{area:.6}"),
            format!("{overhead:.4}%"),
        ]);
    }
    table
}

const ADAPTATION_VARIANTS: [(&str, f64); 2] =
    [("adaptive (paper)", 0.05), ("fixed thresholds", 1.0)];

fn adaptation_config(reference_fpr: f64) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    let mut edbp = EdbpConfig::for_cache(&Cache::new(config.dcache));
    edbp.reference_fpr = reference_fpr;
    config.edbp = Some(edbp);
    config
}

/// **Ablation (Section V-B1)** — fixed vs adaptive EDBP thresholds: the
/// adaptation loop is disabled by setting the reference FPR to 1.0 (never
/// lowers, always resets), isolating the contribution of the feedback.
pub(crate) fn ablation_adaptation_plan(scale: Scale) -> Vec<Job> {
    ADAPTATION_VARIANTS
        .into_iter()
        .flat_map(|(_, fpr)| {
            matrix_jobs(
                &adaptation_config(fpr),
                &[Scheme::Baseline, Scheme::Edbp],
                &AppId::ALL,
                scale,
            )
        })
        .collect()
}

pub(crate) fn ablation_adaptation_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let mut table = Table::new(["variant", "edbp speedup", "edbp FP rate"]);
    for (i, (label, _)) in ADAPTATION_VARIANTS.into_iter().enumerate() {
        let results = regroup(&outputs[i * 2 * apps..(i + 1) * 2 * apps], apps);
        let fp_rate = {
            let total = results[1]
                .iter()
                .fold(edbp_core::PredictionSummary::default(), |acc, r| {
                    acc.merged(&r.prediction)
                });
            if total.total() == 0 {
                0.0
            } else {
                total.false_positives as f64 / total.total() as f64
            }
        };
        table.row([
            label.to_owned(),
            factor(geomean(speedups(&results[0], &results[1]))),
            pct(fp_rate),
        ]);
    }
    table
}

const POLICY_VARIANTS: [(&str, bool, bool); 4] = [
    ("paper (mru+clean)", true, true),
    ("no MRU protection", false, true),
    ("no clean-first", true, false),
    ("neither", false, false),
];

/// **Ablation (Section V-A)** — EDBP's two selection principles: disabling
/// MRU protection and clean-first prioritization, one at a time.
pub(crate) fn ablation_policy_plan(scale: Scale) -> Vec<Job> {
    POLICY_VARIANTS
        .into_iter()
        .flat_map(|(_, protect_mru, clean_first)| {
            let mut config = SystemConfig::paper_default();
            let mut edbp = EdbpConfig::for_cache(&Cache::new(config.dcache));
            edbp.protect_mru = protect_mru;
            edbp.clean_first = clean_first;
            config.edbp = Some(edbp);
            matrix_jobs(
                &config,
                &[Scheme::Baseline, Scheme::Edbp],
                &AppId::ALL,
                scale,
            )
        })
        .collect()
}

pub(crate) fn ablation_policy_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let mut table = Table::new(["variant", "edbp speedup", "d$ miss"]);
    for (i, (label, _, _)) in POLICY_VARIANTS.into_iter().enumerate() {
        let results = regroup(&outputs[i * 2 * apps..(i + 1) * 2 * apps], apps);
        let miss = results[1]
            .iter()
            .map(crate::RunResult::dcache_miss_rate)
            .sum::<f64>()
            / results[1].len() as f64;
        table.row([
            label.to_owned(),
            factor(geomean(speedups(&results[0], &results[1]))),
            pct(miss),
        ]);
    }
    table
}
