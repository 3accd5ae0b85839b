//! Outside-in layer probes: each times one crate's public entry point on
//! the workload's own programs and platform, so a per-operation cost can be
//! set against the workload's operation counts.

use crate::sim::SimSpec;
use edbp_core::{CacheDecay, Edbp, EdbpConfig, LeakagePredictor, Pair, TickOutcome};
use ehs_cache::{AccessKind, Cache};
use ehs_cpu::{Core, Effect};
use ehs_energy::{BurstPlan, EnergySystem, SourceConfig, StepEvent, SyntheticTrace};
use ehs_sim::{MemorySystem, SourceKind, SystemConfig};
use ehs_units::{Energy, Voltage};
use ehs_workloads::build;
use std::hint::black_box;
use std::time::Instant;

/// Words of the flat memory the bare core runs against: 4 MiB covers every
/// application's data regions without aliasing.
const FLAT_WORDS: usize = 1 << 20;

/// Predictor ticks per V_rst → V_ckpt ramp (one ramp per application).
const RAMP_TICKS: u64 = 4096;

/// Cycles between two ticks of a ramp.
const TICK_CYCLES: u64 = 64;

/// Outages the energy probe rides out at least.
const MIN_RECHARGES: u64 = 8;

/// Per-operation host costs of the simulator's layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// `Core::step` over the programs, against flat memory.
    pub cpu_ns_per_instr: f64,
    /// `MemorySystem::ifetch` replaying the programs' fetch streams.
    pub ns_per_fetch: f64,
    /// `MemorySystem::data_access` replaying their data streams.
    pub ns_per_data_access: f64,
    /// Decay+EDBP `tick_into` on the replayed D-cache over a voltage ramp.
    pub ns_per_tick: f64,
    /// `EnergySystem::step_burst` with 4-cycle plans.
    pub ns_per_burst_cycle: f64,
    /// `EnergySystem::power_off_and_recharge`.
    pub us_per_recharge: f64,
}

/// Runs every probe over `spec`'s applications and platform; the energy
/// probe advances `energy_cycles` cycles.
pub fn measure(spec: &SimSpec, energy_cycles: u64) -> LayerCosts {
    let mut memory = vec![0u32; FLAT_WORDS];
    let mut fetches: Vec<u32> = Vec::new();
    let mut data: Vec<(u32, AccessKind, u32)> = Vec::new();
    let (mut cpu_s, mut instrs) = (0.0, 0u64);
    let (mut fetch_s, mut data_s, mut tick_s) = (0.0, 0.0, 0.0);
    let (mut ticks, mut data_ops) = (0u64, 0u64);
    for &app in &spec.apps {
        let workload = build(app, spec.scale);
        let program = &*workload.program;

        memory.fill(0);
        let mut core = Core::new(program);
        let start = Instant::now();
        execute(&mut core, program, &mut memory, |_, _| {});
        cpu_s += start.elapsed().as_secs_f64();
        instrs += core.committed();

        // Record the streams on a second, untimed execution.
        memory.fill(0);
        fetches.clear();
        data.clear();
        let mut core = Core::new(program);
        execute(&mut core, program, &mut memory, |fetch, access| {
            fetches.push(fetch);
            data.extend(access);
        });

        let mut mem = MemorySystem::new(&spec.config);
        let start = Instant::now();
        for &addr in &fetches {
            black_box(mem.ifetch(addr));
        }
        fetch_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for &(addr, kind, value) in &data {
            black_box(mem.data_access(addr, kind, value));
        }
        data_s += start.elapsed().as_secs_f64();
        data_ops += data.len() as u64;

        tick_s += predictor_ramp(&spec.config, mem.dcache);
        ticks += RAMP_TICKS;
    }
    let (ns_per_burst_cycle, us_per_recharge) = energy(&spec.config, energy_cycles);
    LayerCosts {
        cpu_ns_per_instr: cpu_s * 1e9 / instrs as f64,
        ns_per_fetch: fetch_s * 1e9 / instrs as f64,
        ns_per_data_access: data_s * 1e9 / data_ops as f64,
        ns_per_tick: tick_s * 1e9 / ticks as f64,
        ns_per_burst_cycle,
        us_per_recharge,
    }
}

/// Runs `core` to its halt against `memory`, handing every instruction's
/// fetch address and data access (if any) to `observe`.
fn execute(
    core: &mut Core,
    program: &ehs_cpu::Program,
    memory: &mut [u32],
    mut observe: impl FnMut(u32, Option<(u32, AccessKind, u32)>),
) {
    let word = |addr: u32| (addr >> 2) as usize & (FLAT_WORDS - 1);
    loop {
        let fetch = core.fetch_addr(program);
        match core.step(program) {
            Effect::Compute => observe(fetch, None),
            Effect::Load { addr, dst } => {
                core.finish_load(dst, memory[word(addr)]);
                observe(fetch, Some((addr, AccessKind::Read, 0)));
            }
            Effect::Store { addr, value } => {
                memory[word(addr)] = value;
                observe(fetch, Some((addr, AccessKind::Write, value)));
            }
            Effect::Halted => break,
        }
    }
}

/// Seconds spent in [`RAMP_TICKS`] Decay+EDBP ticks on `cache` while the
/// voltage falls linearly from V_rst to V_ckpt.
fn predictor_ramp(config: &SystemConfig, mut cache: Cache) -> f64 {
    let edbp = config
        .edbp
        .clone()
        .unwrap_or_else(|| EdbpConfig::for_cache(&cache));
    let mut predictor = Pair::new(CacheDecay::new(config.decay, &cache), Edbp::new(edbp));
    let (v_rst, v_ckpt) = (
        config.energy.thresholds.v_rst,
        config.energy.thresholds.v_ckpt,
    );
    let volts = |i: u64| {
        Voltage::from_volts(
            v_rst.as_volts()
                - (v_rst.as_volts() - v_ckpt.as_volts()) * i as f64 / RAMP_TICKS as f64,
        )
    };
    let mut out = TickOutcome::default();
    let start = Instant::now();
    for i in 0..RAMP_TICKS {
        out.clear();
        predictor.tick_into(&mut cache, volts(i), i * TICK_CYCLES, &mut out);
        black_box(&out);
    }
    start.elapsed().as_secs_f64()
}

fn source(kind: &SourceKind) -> SyntheticTrace {
    match *kind {
        SourceKind::Preset {
            preset,
            seed,
            scale,
        } => SourceConfig::preset(preset)
            .with_seed(seed)
            .with_power_scale(scale)
            .build(),
        SourceKind::Constant(_) => unreachable!("benchmark platforms use preset sources"),
    }
}

/// `(ns per burst cycle, µs per recharge)`: the core's own MCU load drawn
/// in 4-cycle bursts for at least `cycles` cycles and [`MIN_RECHARGES`]
/// outages.
fn energy(config: &SystemConfig, cycles: u64) -> (f64, f64) {
    let mut system = EnergySystem::new(config.energy.clone(), source(&config.source))
        .expect("benchmark platforms pass energy validation");
    let plan = BurstPlan {
        max_cycles: 4,
        dt: config.cycle_time(),
        load: config.mcu_power() * config.cycle_time(),
        frequency: config.frequency,
        wake_at_cycle: None,
        wake_below_voltage: None,
    };
    let mut overdraw = Energy::ZERO;
    let (mut done, mut recharges, mut recharge_s) = (0u64, 0u64, 0.0);
    let start = Instant::now();
    while done < cycles || recharges < MIN_RECHARGES {
        let (n, event) = system.step_burst(&plan, &mut overdraw);
        done += n;
        if event != StepEvent::Running {
            let t = Instant::now();
            let outage = system.power_off_and_recharge();
            recharge_s += t.elapsed().as_secs_f64();
            recharges += 1;
            if !outage.recovered {
                break;
            }
        }
    }
    let burst_s = start.elapsed().as_secs_f64() - recharge_s;
    (
        burst_s * 1e9 / done as f64,
        recharge_s * 1e6 / recharges as f64,
    )
}
