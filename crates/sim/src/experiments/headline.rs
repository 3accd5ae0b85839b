//! Headline experiments: Figs. 6–9 (true/false rates, energy breakdown,
//! performance, absolute power).

use super::regroup;
use crate::report::{factor, pct, Table};
use crate::runner::{geomean, matrix_jobs, Job, JobOutput};
use crate::{RunResult, Scheme, SystemConfig};
use ehs_workloads::{AppId, Scale};

const FIG6_SCHEMES: [Scheme; 3] = [Scheme::Decay, Scheme::Edbp, Scheme::DecayEdbp];

/// **Fig. 6** — zombie-aware prediction outcomes per application for Cache
/// Decay, EDBP, and Cache Decay + EDBP: TP / FP / TN / FN(dead) / missed
/// zombies as fractions of classified block generations, plus the paper's
/// redefined coverage and accuracy (Eqs. 1–2).
pub(crate) fn fig6_plan(scale: Scale) -> Vec<Job> {
    let config = SystemConfig::paper_default();
    matrix_jobs(&config, &FIG6_SCHEMES, &AppId::ALL, scale)
}

pub(crate) fn fig6_report(outputs: &[JobOutput]) -> Table {
    let results = regroup(outputs, AppId::ALL.len());
    let mut table = Table::new([
        "app", "scheme", "TP", "FP", "TN", "FN-dead", "missed-Z", "coverage", "accuracy",
    ]);
    for (s, scheme) in FIG6_SCHEMES.iter().enumerate() {
        for r in &results[s] {
            let f = r.prediction.fractions();
            table.row([
                r.app.name().to_owned(),
                scheme.name().to_owned(),
                pct(f[0]),
                pct(f[1]),
                pct(f[2]),
                pct(f[3]),
                pct(f[4]),
                pct(r.prediction.coverage()),
                pct(r.prediction.accuracy()),
            ]);
        }
        // Suite-wide aggregate.
        let total = results[s]
            .iter()
            .fold(edbp_core::PredictionSummary::default(), |acc, r| {
                acc.merged(&r.prediction)
            });
        let f = total.fractions();
        table.row([
            "MEAN".to_owned(),
            scheme.name().to_owned(),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
            pct(f[4]),
            pct(total.coverage()),
            pct(total.accuracy()),
        ]);
    }
    table
}

/// **Fig. 7** — energy breakdown normalized to the NVSRAMCache baseline,
/// split into the paper's categories (cache / memory / checkpoint+restore /
/// others), plus the load/store fraction of committed instructions.
pub(crate) fn fig7_plan(scale: Scale) -> Vec<Job> {
    let config = SystemConfig::paper_default();
    matrix_jobs(&config, &Scheme::HEADLINE, &AppId::ALL, scale)
}

pub(crate) fn fig7_report(outputs: &[JobOutput]) -> Table {
    let results = regroup(outputs, AppId::ALL.len());
    let mut table = Table::new([
        "app", "scheme", "total", "cache", "memory", "ckpt+rst", "others", "ld/st",
    ]);
    for (a, app) in AppId::ALL.iter().enumerate() {
        let base_total = results[0][a].energy.total();
        for (s, scheme) in Scheme::HEADLINE.iter().enumerate() {
            let r = &results[s][a];
            let e = &r.energy;
            table.row([
                app.name().to_owned(),
                scheme.name().to_owned(),
                factor(e.total() / base_total),
                factor(e.cache() / base_total),
                factor(e.memory / base_total),
                factor(e.checkpoint_restore() / base_total),
                factor(e.others() / base_total),
                pct(r.load_store_ratio()),
            ]);
        }
    }
    // Suite means (normalized energy geomean per scheme).
    for (s, scheme) in Scheme::HEADLINE.iter().enumerate() {
        let g = geomean(
            results[0]
                .iter()
                .zip(&results[s])
                .map(|(b, r)| r.energy.total() / b.energy.total()),
        );
        table.row([
            "MEAN".to_owned(),
            scheme.name().to_owned(),
            factor(g),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    table
}

/// Builds the speedup-vs-baseline rows shared by Fig. 8 and the sweeps.
pub(crate) fn speedups<'a>(
    baseline: &'a [RunResult],
    scheme_results: &'a [RunResult],
) -> impl Iterator<Item = f64> + 'a {
    baseline
        .iter()
        .zip(scheme_results)
        .map(|(b, r)| b.total_time() / r.total_time())
}

/// **Fig. 8** — speedup over NVSRAMCache (top) and data-cache miss rate
/// (bottom) for every scheme including the "80% Leakage Off" and Ideal
/// bounds, per application and as the suite geomean.
pub(crate) fn fig8_plan(scale: Scale) -> Vec<Job> {
    let config = SystemConfig::paper_default();
    matrix_jobs(&config, &Scheme::FIG8, &AppId::ALL, scale)
}

pub(crate) fn fig8_report(outputs: &[JobOutput]) -> Table {
    let results = regroup(outputs, AppId::ALL.len());
    let mut table = Table::new(["app", "scheme", "speedup", "d$ miss", "outages"]);
    for (a, app) in AppId::ALL.iter().enumerate() {
        for (s, scheme) in Scheme::FIG8.iter().enumerate() {
            let r = &results[s][a];
            table.row([
                app.name().to_owned(),
                scheme.name().to_owned(),
                factor(results[0][a].total_time() / r.total_time()),
                pct(r.dcache_miss_rate()),
                r.outages.to_string(),
            ]);
        }
    }
    for (s, scheme) in Scheme::FIG8.iter().enumerate() {
        let g = geomean(speedups(&results[0], &results[s]));
        let miss = results[s]
            .iter()
            .map(RunResult::dcache_miss_rate)
            .sum::<f64>()
            / results[s].len() as f64;
        table.row([
            "MEAN".to_owned(),
            scheme.name().to_owned(),
            factor(g),
            pct(miss),
            String::new(),
        ]);
    }
    table
}

/// **Fig. 9** — absolute average power (mW) and total consumed energy (µJ)
/// of the NVSRAMCache baseline per application.
pub(crate) fn fig9_plan(scale: Scale) -> Vec<Job> {
    let config = SystemConfig::paper_default();
    matrix_jobs(&config, &[Scheme::Baseline], &AppId::ALL, scale)
}

pub(crate) fn fig9_report(outputs: &[JobOutput]) -> Table {
    let results = regroup(outputs, AppId::ALL.len());
    let mut table = Table::new(["app", "avg power (mW)", "total energy (uJ)", "outages"]);
    let mut power_sum = 0.0;
    let mut energy_sum = 0.0;
    for r in &results[0] {
        power_sum += r.average_power().as_milli_watts();
        energy_sum += r.energy.total().as_micro_joules();
        table.row([
            r.app.name().to_owned(),
            format!("{:.3}", r.average_power().as_milli_watts()),
            format!("{:.1}", r.energy.total().as_micro_joules()),
            r.outages.to_string(),
        ]);
    }
    let n = results[0].len() as f64;
    table.row([
        "MEAN".to_owned(),
        format!("{:.3}", power_sum / n),
        format!("{:.1}", energy_sum / n),
        String::new(),
    ]);
    table
}
