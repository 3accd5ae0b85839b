//! Structural fingerprinting of [`SystemConfig`] for the memoization table
//! and the persistent result cache.
//!
//! The fingerprint walks every field of the configuration and feeds its bit
//! pattern into an `FxHasher` — `f64`s via [`f64::to_bits`], enums via their
//! [`std::mem::discriminant`] plus any payload, `Option`s and `Vec`s with a
//! tag/length prefix so structurally different values can never collide by
//! concatenation. Unlike the previous `Debug`-string hash, this costs no
//! allocation, is immune to formatting changes, and makes the "distinct
//! configurations get distinct keys" property testable field by field.
//!
//! # Cross-process stability
//!
//! `FxHasher` is seedless and fully deterministic, so the same build
//! produces the same fingerprint in every process — which is what lets
//! `results/.runcache/` address cached results by fingerprint across
//! invocations. The fingerprint is **not** stable across code changes that
//! touch [`SystemConfig`]'s shape or the feeding order (nor is
//! `std::mem::discriminant` guaranteed stable across compiler versions);
//! the cache's schema-version tag and workload fingerprint exist precisely
//! so such drift invalidates entries instead of corrupting results. Bump
//! [`crate::runcache::SCHEMA_VERSION`] whenever fingerprint semantics
//! change in a way the hash itself would not catch.

use crate::{CheckpointCosts, SourceKind, SystemConfig};
use edbp_core::{DecayConfig, EdbpConfig, FxBuildHasher};
use ehs_cache::{CacheConfig, ReplacementPolicy};
use ehs_energy::{CapacitorConfig, EnergySystemConfig, TracePreset, VoltageThresholds};
use ehs_nvm::{CacheGeometry, MemoryTechnology};
use ehs_units::{Capacitance, Energy, Frequency, Power, Time, Voltage};
use std::hash::{BuildHasher, Hash, Hasher};

/// Feeds a value's structural content into a [`Hasher`].
trait Feed {
    fn feed<H: Hasher>(&self, h: &mut H);
}

impl Feed for bool {
    fn feed<H: Hasher>(&self, h: &mut H) {
        h.write_u8(u8::from(*self));
    }
}

impl Feed for u32 {
    fn feed<H: Hasher>(&self, h: &mut H) {
        h.write_u32(*self);
    }
}

impl Feed for u64 {
    fn feed<H: Hasher>(&self, h: &mut H) {
        h.write_u64(*self);
    }
}

impl Feed for usize {
    fn feed<H: Hasher>(&self, h: &mut H) {
        h.write_usize(*self);
    }
}

impl Feed for f64 {
    fn feed<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.to_bits());
    }
}

impl<T: Feed> Feed for Option<T> {
    fn feed<H: Hasher>(&self, h: &mut H) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.feed(h);
            }
        }
    }
}

impl<T: Feed> Feed for Vec<T> {
    fn feed<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.len());
        for v in self {
            v.feed(h);
        }
    }
}

/// Dimensioned newtypes fingerprint as the bit pattern of their base value.
macro_rules! feed_quantity {
    ($($name:ident),*) => {$(
        impl Feed for $name {
            fn feed<H: Hasher>(&self, h: &mut H) {
                self.base().feed(h);
            }
        }
    )*};
}
feed_quantity!(Capacitance, Energy, Frequency, Power, Time, Voltage);

/// Fieldless enums fingerprint as their discriminant.
macro_rules! feed_discriminant {
    ($($name:ident),*) => {$(
        impl Feed for $name {
            fn feed<H: Hasher>(&self, h: &mut H) {
                std::mem::discriminant(self).hash(h);
            }
        }
    )*};
}
feed_discriminant!(MemoryTechnology, ReplacementPolicy, TracePreset);

impl Feed for CacheGeometry {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.capacity_bytes.feed(h);
        self.associativity.feed(h);
        self.block_bytes.feed(h);
    }
}

impl Feed for CacheConfig {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.geometry.feed(h);
        self.policy.feed(h);
    }
}

impl Feed for CapacitorConfig {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.capacitance.feed(h);
        self.v_max.feed(h);
        self.v_min.feed(h);
        self.leakage_per_farad.feed(h);
    }
}

impl Feed for VoltageThresholds {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.v_ckpt.feed(h);
        self.v_rst.feed(h);
    }
}

impl Feed for EnergySystemConfig {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.capacitor.feed(h);
        self.thresholds.feed(h);
        self.checkpoint_budget.feed(h);
        self.recharge_step.feed(h);
        self.max_off_time.feed(h);
    }
}

impl Feed for SourceKind {
    fn feed<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            SourceKind::Preset {
                preset,
                seed,
                scale,
            } => {
                preset.feed(h);
                seed.feed(h);
                scale.feed(h);
            }
            SourceKind::Constant(p) => p.feed(h),
        }
    }
}

impl Feed for CheckpointCosts {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.save_energy_per_byte.feed(h);
        self.restore_energy_per_byte.feed(h);
        self.save_latency.feed(h);
        self.restore_latency.feed(h);
    }
}

impl Feed for DecayConfig {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.decay_interval_cycles.feed(h);
    }
}

impl Feed for EdbpConfig {
    fn feed<H: Hasher>(&self, h: &mut H) {
        self.initial_thresholds.feed(h);
        self.adjustment_step.feed(h);
        self.reference_fpr.feed(h);
        self.floor.feed(h);
        self.sample_set.feed(h);
        self.deactivation_buffer_entries.feed(h);
        self.protect_mru.feed(h);
        self.clean_first.feed(h);
    }
}

/// Structural fingerprint of the full configuration: a 64-bit Fx hash over
/// every field's bit pattern, stable within a process — which is all the
/// process-wide memoization key needs. Configurations that differ in any
/// field (including nested ones) hash differently with overwhelming
/// probability.
pub fn config_fingerprint(config: &SystemConfig) -> u64 {
    let SystemConfig {
        dcache,
        dcache_tech,
        icache,
        icache_tech,
        memory_tech,
        memory_bytes,
        energy,
        source,
        frequency,
        mcu_power_per_mhz,
        icache_energy_scale,
        gated_leak_fraction,
        ckpt,
        decay,
        edbp,
        predict_icache,
        zombie_sample_interval,
        max_instructions,
        force_cycle_accurate,
    } = config;
    let mut h = FxBuildHasher::default().build_hasher();
    dcache.feed(&mut h);
    dcache_tech.feed(&mut h);
    icache.feed(&mut h);
    icache_tech.feed(&mut h);
    memory_tech.feed(&mut h);
    memory_bytes.feed(&mut h);
    energy.feed(&mut h);
    source.feed(&mut h);
    frequency.feed(&mut h);
    mcu_power_per_mhz.feed(&mut h);
    icache_energy_scale.feed(&mut h);
    gated_leak_fraction.feed(&mut h);
    ckpt.feed(&mut h);
    decay.feed(&mut h);
    edbp.feed(&mut h);
    predict_icache.feed(&mut h);
    zombie_sample_interval.feed(&mut h);
    max_instructions.feed(&mut h);
    force_cycle_accurate.feed(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// One mutation per [`SystemConfig`] field (nested fields included where
    /// the mutation would otherwise be ambiguous); every mutant must
    /// fingerprint differently from the default and from each other.
    fn mutants() -> Vec<(&'static str, SystemConfig)> {
        let d = SystemConfig::paper_default;
        let mut out: Vec<(&'static str, SystemConfig)> = Vec::new();
        let mut push = |name: &'static str, f: &dyn Fn(&mut SystemConfig)| {
            let mut c = d();
            f(&mut c);
            out.push((name, c));
        };
        push("dcache.geometry", &|c| c.dcache.geometry.block_bytes = 32);
        push("dcache.policy", &|c| {
            c.dcache.policy = ReplacementPolicy::Fifo;
        });
        push("dcache_tech", &|c| c.dcache_tech = MemoryTechnology::ReRam);
        push("icache.geometry", &|c| c.icache.geometry.associativity = 2);
        push("icache_tech", &|c| c.icache_tech = MemoryTechnology::Sram);
        push("memory_tech", &|c| c.memory_tech = MemoryTechnology::Sram);
        push("memory_bytes", &|c| c.memory_bytes *= 2);
        push("energy.capacitor", &|c| {
            c.energy.capacitor.capacitance = Capacitance::from_micro_farads(1.0);
        });
        push("energy.thresholds", &|c| {
            c.energy.thresholds.v_ckpt = Voltage::from_volts(3.25);
        });
        push("energy.checkpoint_budget", &|c| {
            c.energy.checkpoint_budget = Energy::from_nano_joules(500.0);
        });
        push("energy.recharge_step", &|c| {
            c.energy.recharge_step = Time::from_micros(25.0);
        });
        push("energy.max_off_time", &|c| {
            c.energy.max_off_time = Time::from_seconds(50.0);
        });
        push("source.seed", &|c| {
            c.source = SourceKind::Preset {
                preset: TracePreset::RfHome,
                seed: 43,
                scale: 1.0,
            };
        });
        push("source.preset", &|c| {
            c.source = SourceKind::Preset {
                preset: TracePreset::Solar,
                seed: 42,
                scale: 1.0,
            };
        });
        push("source.kind", &|c| {
            c.source = SourceKind::Constant(Power::from_milli_watts(5.0));
        });
        push("frequency", &|c| {
            c.frequency = Frequency::from_mega_hertz(50.0);
        });
        push("mcu_power_per_mhz", &|c| {
            c.mcu_power_per_mhz = Power::from_micro_watts(100.0);
        });
        push("icache_energy_scale", &|c| c.icache_energy_scale = 1.0);
        push("gated_leak_fraction", &|c| c.gated_leak_fraction = 0.05);
        push("ckpt", &|c| {
            c.ckpt.save_latency = Time::from_nanos(500.0);
        });
        push("decay", &|c| c.decay.decay_interval_cycles = 65_536);
        push("edbp", &|c| {
            c.edbp = Some(EdbpConfig::for_ways(4));
        });
        push("edbp.protect_mru", &|c| {
            let mut e = EdbpConfig::for_ways(4);
            e.protect_mru = false;
            c.edbp = Some(e);
        });
        push("predict_icache", &|c| c.predict_icache = true);
        push("zombie_sample_interval", &|c| {
            c.zombie_sample_interval = Some(500);
        });
        push("max_instructions", &|c| c.max_instructions = 1_000_000);
        push("force_cycle_accurate", &|c| c.force_cycle_accurate = true);
        out
    }

    #[test]
    fn is_deterministic_within_a_process() {
        let c = SystemConfig::paper_default();
        assert_eq!(config_fingerprint(&c), config_fingerprint(&c.clone()));
    }

    #[test]
    fn every_single_field_mutation_changes_the_fingerprint() {
        let mutants = mutants();
        let mut fps = HashSet::new();
        fps.insert(config_fingerprint(&SystemConfig::paper_default()));
        for (name, mutant) in &mutants {
            assert!(
                fps.insert(config_fingerprint(mutant)),
                "mutation of `{name}` collided with an earlier fingerprint"
            );
        }
        assert_eq!(fps.len(), mutants.len() + 1);
    }
}
