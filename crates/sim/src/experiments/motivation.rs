//! Motivation experiments: Table I, Fig. 1 and Fig. 4.

use super::regroup;
use crate::report::{pct, Table};
use crate::runner::{geomean, matrix_jobs, Job, JobOutput};
use crate::{zombie_ratio_by_voltage, Scheme, SystemConfig, ZombieSample};
use ehs_cache::CacheGeometry;
use ehs_nvm::{CacheArrayModel, MemoryTechnology};
use ehs_workloads::{AppId, Scale};
use std::sync::Arc;

/// Cache sizes swept by Table I, Fig. 1 and Fig. 11.
pub(crate) const CACHE_SIZES: [u32; 7] = [256, 512, 1024, 2048, 4096, 8192, 16384];

/// The paper-default system with a `bytes`-sized D-cache of 16 B blocks,
/// its associativity clamped to the block count (Table I, Figs. 1 and 11).
pub(crate) fn dcache_size_config(bytes: u32) -> SystemConfig {
    let mut config = SystemConfig::paper_default();
    let assoc = config.dcache.geometry.associativity.min(bytes / 16);
    config.dcache.geometry = CacheGeometry::new(bytes, assoc, 16).expect("swept geometry is valid");
    config
}

/// **Table I** — SRAM cache leakage power (mW) and the ratio of static
/// energy to total SRAM data-cache energy, for 4-way caches of 256 B–16 kB.
///
/// Leakage comes from the NVSim-style model (anchored to the paper's
/// published points); the static-energy ratio is measured on baseline runs
/// averaged across all 20 applications.
pub(crate) fn table1_plan(scale: Scale) -> Vec<Job> {
    CACHE_SIZES
        .iter()
        .flat_map(|&bytes| {
            matrix_jobs(
                &dcache_size_config(bytes),
                &[Scheme::Baseline],
                &AppId::ALL,
                scale,
            )
        })
        .collect()
}

pub(crate) fn table1_report(outputs: &[JobOutput]) -> Table {
    let per_size = regroup(outputs, AppId::ALL.len());
    let mut table = Table::new(["cache size", "leakage (mW)", "static ratio"]);
    for (i, bytes) in CACHE_SIZES.into_iter().enumerate() {
        let config = dcache_size_config(bytes);
        let model = CacheArrayModel::new(MemoryTechnology::Sram, config.dcache.geometry);
        let leak = model.characteristics().leakage.as_milli_watts();
        let ratio = per_size[i]
            .iter()
            .map(|r| r.energy.dcache_static_ratio())
            .sum::<f64>()
            / per_size[i].len() as f64;
        table.row([format!("{bytes} B"), format!("{leak:.2}"), pct(ratio)]);
    }
    table
}

/// **Fig. 1** — speedup across data-cache sizes, with real leakage vs the
/// "80% Leakage Off" stress test. All speedups are normalized to the 4 kB
/// 4-way baseline with real leakage (geomean over the 20 applications).
pub(crate) fn fig1_plan(scale: Scale) -> Vec<Job> {
    // Reference matrix first, then one [Baseline, LeakageOff80] matrix per
    // swept size; the report consumes the sections in the same order.
    let mut jobs = matrix_jobs(
        &dcache_size_config(4096),
        &[Scheme::Baseline],
        &AppId::ALL,
        scale,
    );
    for bytes in CACHE_SIZES {
        jobs.extend(matrix_jobs(
            &dcache_size_config(bytes),
            &[Scheme::Baseline, Scheme::LeakageOff80],
            &AppId::ALL,
            scale,
        ));
    }
    jobs
}

pub(crate) fn fig1_report(outputs: &[JobOutput]) -> Table {
    let apps = AppId::ALL.len();
    let (reference, swept) = outputs.split_at(apps);
    let reference = regroup(reference, apps);
    let mut table = Table::new(["cache size", "real leakage", "80% leakage off"]);
    for (i, bytes) in CACHE_SIZES.into_iter().enumerate() {
        let results = regroup(&swept[i * 2 * apps..(i + 1) * 2 * apps], apps);
        let speedup = |scheme_idx: usize| {
            geomean(
                reference[0]
                    .iter()
                    .zip(&results[scheme_idx])
                    .map(|(r, s)| r.total_time() / s.total_time()),
            )
        };
        table.row([
            format!("{bytes} B"),
            format!("{:.3}", speedup(0)),
            format!("{:.3}", speedup(1)),
        ]);
    }
    table
}

/// **Fig. 4** — the fraction of resident data-cache blocks that are zombies
/// (no further access before the upcoming outage / their eviction), bucketed
/// by the capacitor voltage at the sampling instant. Baseline scheme,
/// RFHome, samples pooled across all 20 applications.
pub(crate) fn fig4_plan(scale: Scale) -> Vec<Job> {
    let mut config = SystemConfig::paper_default();
    config.zombie_sample_interval = Some(500);
    let config = Arc::new(config);
    // One zombie-instrumented baseline job per app; the report pools the
    // sample vectors in this (deterministic) app order.
    AppId::ALL
        .iter()
        .map(|&app| Job {
            config: Arc::clone(&config),
            scheme: Scheme::Baseline,
            app,
            scale,
        })
        .collect()
}

pub(crate) fn fig4_report(outputs: &[JobOutput]) -> Table {
    let samples: Vec<ZombieSample> = outputs
        .iter()
        .flat_map(|o| {
            o.zombie_samples
                .as_deref()
                .expect("fig. 4 jobs are zombie-instrumented")
                .iter()
                .copied()
        })
        .collect();
    let rows = zombie_ratio_by_voltage(&samples, 3.2, 3.5, 6);
    let mut table = Table::new(["voltage (V)", "zombie ratio", "samples"]);
    for (centre, ratio, count) in rows {
        table.row([format!("{centre:.3}"), pct(ratio), count.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcache_size_sweep_preserves_block_and_clamps_assoc() {
        let small = dcache_size_config(256);
        assert_eq!(small.dcache.geometry.block_bytes, 16);
        assert_eq!(small.dcache.geometry.associativity, 4);
        let tiny = dcache_size_config(32);
        assert_eq!(tiny.dcache.geometry.associativity, 2, "assoc clamps");
    }

    #[test]
    fn table1_leakage_is_monotonic() {
        // Check the model side only (no simulation) for speed.
        let mut prev = 0.0;
        for bytes in CACHE_SIZES {
            let config = dcache_size_config(bytes);
            let leak = CacheArrayModel::new(MemoryTechnology::Sram, config.dcache.geometry)
                .characteristics()
                .leakage
                .as_milli_watts();
            assert!(leak > prev);
            prev = leak;
        }
    }
}
