//! The full-system simulation loop.

use crate::replay::{StreamSink, StreamWindow, REC_COMPUTE, REC_HALT, REC_LOAD, REC_STORE};
use crate::{EnergyBreakdown, MemorySystem, RunResult, Scheme, SystemConfig};
use edbp_core::{
    AdaptiveModeControl, AmcConfig, CacheDecay, Edbp, EdbpConfig, GenerationTrace,
    LeakagePredictor, NullPredictor, OraclePredictor, OracleRecorder, PagedTable, Pair,
    PredictionLedger, ReusePredictor, ReusePredictorConfig, TickOutcome, WakeHint,
};
use ehs_cache::{AccessKind, Cache};
use ehs_cpu::{stream_is_data_independent, Core, CoreState, Effect, Program, INSTRUCTION_BYTES};
use ehs_energy::{BurstPlan, EnergyConfigError, EnergySystem, StepEvent};
use ehs_units::{Energy, Frequency, Power, Time};
use ehs_workloads::{build, AppId, Scale, Workload};
use std::sync::Arc;

/// A pooled checkpoint shadow: the blocks saved across an outage, stored
/// structure-of-arrays in buffers that are cleared and refilled at every
/// checkpoint instead of reallocated (block data lives in one contiguous
/// `Vec<u8>` that reaches its high-water capacity once and then stays).
#[derive(Debug, Default)]
struct ShadowArena {
    addrs: Vec<u64>,
    dirty: Vec<bool>,
    data: Vec<u8>,
    block_bytes: usize,
}

impl ShadowArena {
    fn new(block_bytes: usize) -> Self {
        Self {
            block_bytes,
            ..Self::default()
        }
    }

    fn clear(&mut self) {
        self.addrs.clear();
        self.dirty.clear();
        self.data.clear();
    }

    fn push(&mut self, addr: u64, data: &[u8], dirty: bool) {
        debug_assert_eq!(data.len(), self.block_bytes);
        self.addrs.push(addr);
        self.dirty.push(dirty);
        self.data.extend_from_slice(data);
    }

    fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Total payload bytes (what the checkpoint save/restore is billed for).
    fn bytes(&self) -> u64 {
        self.data.len() as u64
    }

    fn block(&self, i: usize) -> &[u8] {
        &self.data[i * self.block_bytes..(i + 1) * self.block_bytes]
    }
}

/// Per-cycle energy constants of the platform, fixed at construction.
struct CycleParams {
    d_leak_full: Power,
    i_leak_full: Power,
    gated_frac: f64,
    d_blocks: f64,
    i_blocks: f64,
    cycle_time: Time,
    frequency: Frequency,
    mcu_power: Power,
    standby: Power,
    /// MCU dynamic energy of one unstalled cycle.
    mcu_e_cycle: Energy,
    /// Main-memory standby energy of one unstalled cycle.
    standby_e_cycle: Energy,
}

impl CycleParams {
    fn new(config: &SystemConfig, mem: &MemorySystem) -> Self {
        let cycle_time = config.cycle_time();
        let mcu_power = config.mcu_power();
        let standby = mem.memory_standby();
        Self {
            d_leak_full: mem.dcache_characteristics().leakage * config.dcache_leakage_scale,
            i_leak_full: mem.icache_characteristics().leakage * config.icache_leakage_scale,
            gated_frac: config.gated_leak_fraction,
            d_blocks: f64::from(mem.dcache.blocks()),
            i_blocks: f64::from(mem.icache.blocks()),
            cycle_time,
            frequency: config.frequency,
            mcu_power,
            standby,
            mcu_e_cycle: mcu_power * cycle_time,
            standby_e_cycle: standby * cycle_time,
        }
    }
}

/// Lazily recomputed leakage terms. The active/gated block counts only
/// change on cache fills, evictions, predictor gatings and outages, so the
/// per-cycle static-energy products are invalidated on those events and
/// reused everywhere in between. Refreshing performs the identical f64
/// operations the reference loop performs every cycle, so cached and fresh
/// values are bit-equal (DESIGN.md §8).
struct LeakCache {
    dirty: bool,
    /// Fraction of D-cache leakage currently drawn (active + gated blocks).
    d_frac: f64,
    /// Fraction of I-cache leakage currently drawn.
    i_frac: f64,
    /// D-cache static energy of one unstalled cycle.
    d_static_cycle: Energy,
    /// I-cache static energy of one unstalled cycle.
    i_static_cycle: Energy,
    /// Total load of one unstalled compute cycle (static + MCU + standby),
    /// associated exactly as the reference loop sums it.
    cycle_load: Energy,
}

impl LeakCache {
    fn new() -> Self {
        Self {
            dirty: true,
            d_frac: 0.0,
            i_frac: 0.0,
            d_static_cycle: Energy::ZERO,
            i_static_cycle: Energy::ZERO,
            cycle_load: Energy::ZERO,
        }
    }

    fn refresh(&mut self, mem: &MemorySystem, p: &CycleParams) {
        if !self.dirty {
            return;
        }
        self.d_frac = (f64::from(mem.dcache.active_blocks())
            + f64::from(mem.dcache.gated_blocks()) * p.gated_frac)
            / p.d_blocks;
        self.i_frac = (f64::from(mem.icache.active_blocks())
            + f64::from(mem.icache.gated_blocks()) * p.gated_frac)
            / p.i_blocks;
        self.d_static_cycle = p.d_leak_full * self.d_frac * p.cycle_time;
        self.i_static_cycle = p.i_leak_full * self.i_frac * p.cycle_time;
        self.cycle_load =
            self.d_static_cycle + self.i_static_cycle + p.mcu_e_cycle + p.standby_e_cycle;
        self.dirty = false;
    }
}

/// [`WakeHint::due`] with the voltage comparison evaluated in the energy
/// domain ([`EnergySystem::voltage_strictly_below`]): bit-exactly the same
/// answer with no square root. The hot loop asks this after every burst and
/// every reference cycle; the actual voltage is derived only on the rare
/// iterations where the hint fires and a tick needs it.
#[inline]
fn hint_due(hint: &WakeHint, cycle: u64, energy: &mut EnergySystem) -> bool {
    hint.every_cycle
        || hint.at_cycle.is_some_and(|c| cycle >= c)
        || hint
            .below_voltage
            .is_some_and(|w| energy.voltage_strictly_below(w))
}

/// The stall and energy load of one reference cycle, opened by its
/// instruction fetch and grown by its data access.
struct CycleCost {
    stall: Time,
    load: Energy,
}

/// What an advancing loop caches between cycles: the leakage terms and the
/// merged wake hint, each recomputed lazily once an event may have moved
/// it. A local of the loop rather than a field of the simulation, so the
/// optimizer can keep it in registers across the loop's out-of-line calls
/// (as fields, `outage_storm` measured ~3 % fewer sim-MIPS on a 2-vCPU
/// x86-64 Xeon host).
struct Pace {
    leak: LeakCache,
    /// Merged wake hint of both predictors; stale while `hint_dirty`.
    hint: WakeHint,
    hint_dirty: bool,
}

impl Pace {
    /// Everything stale: the start of an advance, and after an outage.
    fn new() -> Self {
        Self {
            leak: LeakCache::new(),
            hint: WakeHint::NEVER,
            hint_dirty: true,
        }
    }
}

/// Everything one simulator execution can produce, returned by
/// [`LaneRun::finish_collecting`]. The memoized run layer stores the whole
/// outcome so a single execution can serve as a figure's result row, the
/// Ideal scheme's oracle pass (`trace`) and the Fig. 4 zombie sample pool at
/// the same time.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's aggregate statistics.
    pub result: RunResult,
    /// Recorded oracle trace, present when a recorder was attached.
    pub trace: Option<GenerationTrace>,
    /// Resolved zombie samples; empty unless
    /// [`SystemConfig::zombie_sample_interval`] was set.
    pub zombie_samples: Vec<crate::ZombieSample>,
}

/// One in-flight simulation, driven through [`LaneRun`].
///
/// [`build_lane`] resolves the scheme to a concrete predictor type `P`, so
/// the per-access and per-tick hot loops compile with static dispatch (a
/// `NullPredictor` baseline's hooks inline to nothing; `Pair` composes two
/// predictors without a vtable hop per event).
pub(crate) struct Simulation<P: LeakagePredictor> {
    config: SystemConfig,
    scheme: Scheme,
    workload: Workload,
    mem: MemorySystem,
    core: Core,
    energy: EnergySystem,
    d_pred: P,
    /// The scheme's predictor over the I-cache, when I-cache prediction
    /// applies.
    i_pred: Option<P>,
    ledger: PredictionLedger,
    /// SDBP's reuse predictor (checkpoint filter).
    reuse: Option<ReusePredictor>,
    /// Per-resident-block "reused since fill" flags (trains `reuse`).
    /// Maintained only when `reuse` is present — no other scheme reads them.
    reuse_flags: PagedTable<bool>,
    /// Oracle recording (pass 1 of the Ideal scheme).
    recorder: Option<OracleRecorder>,
    /// Zombie-ratio instrumentation (Fig. 4).
    zombie: Option<crate::ZombieAnalysis>,
    breakdown: EnergyBreakdown,
    brownouts: u64,
    /// Core state of the last JIT checkpoint; the matching cache shadow
    /// lives in `shadow`. `None` until the first checkpoint is taken.
    last_ckpt: Option<CoreState>,
    /// Pooled block shadow of the last checkpoint.
    shadow: ShadowArena,
    /// Scratch arena for dirty dead blocks spilled while assembling an SDBP
    /// checkpoint (write-backs happen after the cache walk ends).
    spill: ShadowArena,
    /// Reusable predictor-tick outcome: cleared and refilled at every
    /// executed tick instead of reallocated (its vectors and arenas reach
    /// their high-water capacity once and then stay).
    tick_scratch: TickOutcome,
    params: CycleParams,
    completed: bool,
    /// The energy source never recovered from an outage; the run is over.
    aborted: bool,
    /// The workload's `(pc, kind, addr)` stream is provably independent of
    /// loaded data (see [`stream_is_data_independent`]), making this lane
    /// eligible for transposed stream replay.
    stream_invariant: bool,
    /// `committed + arch_offset` = architectural position on the canonical
    /// rewind-free instruction stream. Committed counts re-executed
    /// instructions after a restore; the offset subtracts them back out.
    arch_offset: i64,
    /// Architectural position of `last_ckpt` (meaningful only while
    /// `last_ckpt` is `Some`).
    ckpt_arch: u64,
    /// Pooled buffer of this lane's own load values observed while
    /// replaying a [`StreamWindow`] (feeds the re-decode fallback).
    replay_loads: Vec<u32>,
}

impl<P: LeakagePredictor> Simulation<P> {
    /// Creates a simulation of `workload` under `scheme`. `predictor`
    /// builds the scheme's predictor over a cache — the D-cache, and the
    /// I-cache too when I-cache prediction applies — from the effective
    /// configuration (after scheme-specific adjustments such as
    /// [`Scheme::LeakageOff80`]'s leakage scale).
    fn with_predictor(
        config: &SystemConfig,
        scheme: Scheme,
        workload: Workload,
        with_recorder: bool,
        mut predictor: impl FnMut(&SystemConfig, &Cache) -> P,
    ) -> Result<Self, EnergyConfigError> {
        let mut config = config.clone();
        if scheme == Scheme::LeakageOff80 {
            config.dcache_leakage_scale = 0.2;
        }
        let mem = MemorySystem::new(&config);
        let d_pred = predictor(&config, &mem.dcache);
        // The Ideal scheme is only defined for the data cache.
        let i_pred = (config.predict_icache
            && !config.icache_tech.is_nonvolatile()
            && scheme != Scheme::Ideal)
            .then(|| predictor(&config, &mem.icache));
        let core = Core::new(&workload.program);
        let energy = EnergySystem::new(config.energy.clone(), SourceBox(config.source.build()))?;
        let reuse =
            (scheme == Scheme::Sdbp).then(|| ReusePredictor::new(ReusePredictorConfig::default()));
        let zombie = config
            .zombie_sample_interval
            .map(crate::ZombieAnalysis::new);
        let block_bytes = config.dcache.geometry.block_bytes as usize;
        let stream_invariant = stream_is_data_independent(&workload.program);
        let params = CycleParams::new(&config, &mem);
        Ok(Self {
            scheme,
            mem,
            core,
            energy,
            d_pred,
            i_pred,
            ledger: PredictionLedger::for_block_bytes(config.dcache.geometry.block_bytes),
            reuse,
            reuse_flags: PagedTable::for_block_bytes(config.dcache.geometry.block_bytes),
            recorder: with_recorder.then(OracleRecorder::new),
            zombie,
            breakdown: EnergyBreakdown::default(),
            brownouts: 0,
            last_ckpt: None,
            shadow: ShadowArena::new(block_bytes),
            spill: ShadowArena::new(block_bytes),
            tick_scratch: TickOutcome::default(),
            params,
            completed: false,
            aborted: false,
            stream_invariant,
            arch_offset: 0,
            ckpt_arch: 0,
            replay_loads: Vec::new(),
            workload,
            config,
        })
    }

    /// Handles ledger/predictor/trainer bookkeeping for one data access.
    fn note_data_access(&mut self, access: &crate::memory_system::DataAccess) {
        let addr = access.block_addr;
        if access.hit {
            self.d_pred.on_hit(&self.mem.dcache, access.frame, addr);
            self.ledger.on_hit(addr);
            if let Some(r) = &mut self.recorder {
                r.on_hit(addr);
            }
            if let Some(z) = &mut self.zombie {
                z.on_hit(addr);
            }
            if self.reuse.is_some() {
                if let Some(flag) = self.reuse_flags.get_mut(addr) {
                    *flag = true;
                }
            }
        } else {
            self.d_pred.on_miss(addr);
            self.ledger.on_miss(addr);
            if let Some(ev) = access.evicted {
                self.d_pred.on_evict(ev);
                self.ledger.on_evict(ev);
                if let Some(r) = &mut self.recorder {
                    r.on_evict(ev);
                }
                if let Some(z) = &mut self.zombie {
                    z.on_generation_end(ev);
                }
                self.train_reuse(ev);
            }
            self.d_pred.on_fill(&self.mem.dcache, access.frame, addr);
            self.ledger.on_fill(addr);
            if let Some(r) = &mut self.recorder {
                r.on_fill(addr);
            }
            if let Some(z) = &mut self.zombie {
                z.on_fill(addr);
            }
            if self.reuse.is_some() {
                self.reuse_flags.insert(addr, false);
            }
        }
    }

    /// Ends the reuse-training generation for `addr`.
    fn train_reuse(&mut self, addr: u64) {
        if let Some(r) = &mut self.reuse {
            if let Some(reused) = self.reuse_flags.remove(addr) {
                r.train(addr, reused);
            }
        }
    }

    /// Applies a predictor tick: ledger accounting plus the preservation of
    /// gated dirty blocks.
    ///
    /// In an NVSRAMCache platform a dirty block is preserved by saving it
    /// *in place* into its nonvolatile twin cell — the same mechanism the
    /// JIT checkpoint uses — not by a (10x more expensive) main-memory
    /// write. We therefore charge the NVSRAM save cost to the checkpoint
    /// bucket; the simulator moves the data to the backing store so later
    /// accesses observe correct values (see DESIGN.md).
    fn apply_tick(&mut self, tick: &TickOutcome, is_dcache: bool) {
        if is_dcache {
            for g in &tick.gated {
                self.ledger.on_gate(g.addr);
            }
            if let Some(z) = &mut self.zombie {
                for g in &tick.gated {
                    z.on_generation_end(g.addr);
                }
            }
            if let Some(r) = &mut self.reuse {
                for g in &tick.gated {
                    if let Some(reused) = self.reuse_flags.remove(g.addr) {
                        r.train(g.addr, reused);
                    }
                }
            }
        }
        for (addr, data) in tick.writebacks.iter() {
            // Conventional predictors spill gated dirty blocks to main
            // memory (an NVM write).
            let (t, e) = self.mem.write_back_from(addr, data);
            self.breakdown.memory += e;
            self.energy.consume(e);
            self.energy.elapse_operation(t);
        }
        for (addr, data) in tick.parked.iter() {
            // EDBP parks gated dirty blocks in their NVSRAM twins: an
            // in-place save at checkpoint cost, restored at reboot.
            let e = self.config.ckpt.save_energy_per_byte * data.len() as f64;
            self.breakdown.checkpoint += e;
            self.energy.consume(e);
            self.mem.park_from(addr, data);
        }
    }

    /// Rides out the outage `event` announces: takes the JIT checkpoint (a
    /// brown-out skips it and is counted), loses volatile state, recharges
    /// and restores. Returns false, marking the run aborted, if the source
    /// never recovered.
    fn ride_out_outage(&mut self, event: StepEvent) -> bool {
        let jit = event == StepEvent::CheckpointRequested;
        if !jit {
            self.brownouts += 1;
        }
        self.d_pred.on_checkpoint(&self.mem.dcache);
        if let Some(ip) = &mut self.i_pred {
            ip.on_checkpoint(&self.mem.icache);
        }

        if jit {
            // --- Build the NV shadow (into the pooled arena) ---
            self.shadow.clear();
            match self.scheme {
                Scheme::Sdbp => {
                    // Disjoint field borrows: walk the cache without
                    // cloning while filling the two arenas.
                    let Self {
                        mem,
                        reuse,
                        shadow,
                        spill,
                        ..
                    } = self;
                    mem.dcache.for_each_valid(|addr, data, dirty| {
                        let keep = reuse.as_ref().is_none_or(|r| r.predicts_reuse(addr));
                        if keep {
                            shadow.push(addr, data, dirty);
                        } else if dirty {
                            // Dirty dead block: spill to main memory instead.
                            spill.push(addr, data, true);
                        }
                    });
                    let Self {
                        mem,
                        spill,
                        breakdown,
                        energy,
                        ..
                    } = self;
                    for i in 0..spill.len() {
                        let (t, e) = mem.write_back_from(spill.addrs[i], spill.block(i));
                        breakdown.memory += e;
                        energy.consume(e);
                        energy.elapse_operation(t);
                    }
                    spill.clear();
                }
                _ => {
                    let Self { mem, shadow, .. } = self;
                    mem.dcache
                        .for_each_dirty(|addr, data| shadow.push(addr, data, true));
                }
            }
            // The checkpoint save covers exactly the shadow assembled above.
            let bytes = self.shadow.bytes() + u64::from(CoreState::BYTES);
            let save_e = self.config.ckpt.save_energy_per_byte * bytes as f64;
            self.breakdown.checkpoint += save_e;
            self.energy.consume(save_e);
            self.energy.elapse_operation(self.config.ckpt.save_latency);
            // Blocks already parked in their NVSRAM twins ride along for
            // free (their save was paid at gating time); they are restored
            // at reboot like any other checkpointed block — as clean, since
            // the backing image already holds their data. The drain visits
            // addresses in ascending order, matching the sorted walk the
            // checkpoint format expects.
            {
                let Self { mem, shadow, .. } = self;
                mem.drain_parked(|addr, data| shadow.push(addr, data, false));
            }
            self.last_ckpt = Some(self.core.checkpoint());
            self.ckpt_arch = self.arch_pos();
        }

        // --- Lose volatile state ---
        if self.reuse.is_some() {
            // Every resident block's generation ends untrained-reuse-wise.
            // The flag map's key set equals the resident set, but iterate
            // the cache (set/way order) so training order is deterministic.
            let Self {
                mem,
                reuse,
                reuse_flags,
                ..
            } = self;
            if let Some(r) = reuse {
                for addr in mem.dcache.resident_addrs_iter() {
                    if let Some(reused) = reuse_flags.remove(addr) {
                        r.train(addr, reused);
                    }
                }
            }
        }
        self.ledger.on_power_fail();
        if let Some(z) = &mut self.zombie {
            z.on_power_fail();
        }
        self.reuse_flags.clear();
        self.mem.reset_fetch_buffer();
        self.mem.dcache.power_fail();
        if !self.config.icache_tech.is_nonvolatile() {
            self.mem.icache.power_fail();
        }

        // --- Recharge ---
        let outcome = self.energy.power_off_and_recharge();
        if !outcome.recovered {
            self.aborted = true;
            return false;
        }

        // --- Reboot ---
        self.d_pred.on_reboot(&self.mem.dcache);
        if let Some(ip) = &mut self.i_pred {
            ip.on_reboot(&self.mem.icache);
        }
        if let Some(state) = self.last_ckpt.take() {
            let bytes = self.shadow.bytes() + u64::from(CoreState::BYTES);
            let restore_e = self.config.ckpt.restore_energy_per_byte * bytes as f64;
            self.breakdown.restore += restore_e;
            self.energy.consume(restore_e);
            self.energy
                .elapse_operation(self.config.ckpt.restore_latency);
            self.core.restore(&state);
            // The restore rewinds the architectural position to the
            // checkpoint's while `committed` keeps counting re-executed
            // instructions; the offset reconciles the two.
            self.arch_offset = self.ckpt_arch as i64 - self.core.committed() as i64;
            // Temporarily move the arena out so the loop body can borrow
            // `self` mutably; put it back after (same allocation).
            let shadow = std::mem::take(&mut self.shadow);
            for i in 0..shadow.len() {
                let (addr, dirty) = (shadow.addrs[i], shadow.dirty[i]);
                let data = shadow.block(i);
                // A set can be offered more blocks than it has ways (parked
                // blocks whose frames were re-occupied before the outage);
                // the overflow is spilled to main memory instead of
                // displacing an already-restored block.
                if !self.mem.dcache.has_free_frame(addr) {
                    if dirty {
                        let (t, e) = self.mem.write_back_from(addr, data);
                        self.breakdown.memory += e;
                        self.energy.consume(e);
                        self.energy.elapse_operation(t);
                    }
                    continue;
                }
                let frame = self.mem.restore_block(addr, data, dirty);
                self.d_pred.on_restore_fill(&self.mem.dcache, frame, addr);
                self.ledger.on_restore(addr);
                if let Some(r) = &mut self.recorder {
                    r.on_restore(addr);
                }
                if let Some(z) = &mut self.zombie {
                    z.on_fill(addr);
                }
                if self.reuse.is_some() {
                    self.reuse_flags.insert(addr, false);
                }
            }
            self.shadow = shadow;
            // The shadow stays valid until the next checkpoint overwrites it
            // (needed again if a brown-out strikes before then).
            self.last_ckpt = Some(state);
        } else {
            // Brown-out before any checkpoint: restart from program entry.
            // `Core::new` zeroes `committed`, so the position offset resets
            // with it.
            self.core = Core::new(&self.workload.program);
            self.arch_offset = 0;
        }
        true
    }

    /// Merged wake hint across the data- and instruction-cache predictors.
    fn wake_hint(&self) -> WakeHint {
        let mut hint = self.d_pred.next_wakeup();
        if let Some(ip) = &self.i_pred {
            hint = hint.merge(ip.next_wakeup());
        }
        hint
    }

    // The per-cycle steps below are shared by the live loop (`live_loop`)
    // and the transposed replay (`replay_loop`).
    // They are `#[inline(always)]` so both loops compile to straight-line
    // code: left to the optimizer's inlining heuristics, solo runs
    // measured ~7 % fewer sim-MIPS (2-vCPU x86-64 Xeon host).

    /// Recomputes the merged wake hint if a hook may have moved it.
    #[inline(always)]
    fn refresh_hint(&self, pace: &mut Pace) {
        if pace.hint_dirty {
            pace.hint = self.wake_hint();
            pace.hint_dirty = false;
        }
    }

    /// Length of the burst the loop may take at `pc`: the run of compute
    /// instructions from `pc` whose fetches all hit the fetch buffer, capped
    /// at `cap` and at the instruction budget left after `committed`. Zero
    /// when bursting is off (cycle-accurate mode; zombie sampling, whose
    /// samples are keyed to exact committed counts), when the merged hint
    /// wants every cycle, or when the fetch misses the buffer.
    #[inline(always)]
    fn burst_len(
        &self,
        pace: &mut Pace,
        program: &Program,
        pc: u32,
        committed: u64,
        cap: u64,
    ) -> u32 {
        if self.config.force_cycle_accurate || self.zombie.is_some() {
            return 0;
        }
        self.refresh_hint(pace);
        let i_block = u64::from(self.mem.icache.block_bytes());
        let fa = u64::from(program.fetch_addr(pc));
        if pace.hint.every_cycle || self.mem.buffered_block() != Some(fa & !(i_block - 1)) {
            return 0;
        }
        // Fetch slots left in the buffered block, from pc on.
        let slots = (i_block - (fa & (i_block - 1))) / u64::from(INSTRUCTION_BYTES);
        let cap = slots.min(self.config.max_instructions - committed).min(cap) as u32;
        program.compute_run_len(pc, cap)
    }

    /// Steps up to `run` unstalled compute cycles as one [`BurstPlan`],
    /// stopping at the first cycle where an energy event fires or the wake
    /// hint comes due, then replays the per-cycle breakdown accumulation:
    /// the same addends `taken` times in sequence, exactly as that many
    /// reference cycles would have accumulated them. Returns the cycles
    /// taken and the energy event that ended the burst.
    #[inline(always)]
    fn step_burst(&mut self, pace: &mut Pace, run: u32) -> (u64, StepEvent) {
        let leak = &mut pace.leak;
        leak.refresh(&self.mem, &self.params);
        let plan = BurstPlan {
            max_cycles: u64::from(run),
            dt: self.params.cycle_time,
            load: leak.cycle_load,
            frequency: self.params.frequency,
            wake_at_cycle: pace.hint.at_cycle,
            wake_below_voltage: pace.hint.below_voltage,
        };
        let (taken, event) = self.energy.step_burst(&plan, &mut self.breakdown.capacitor);
        for _ in 0..taken {
            self.breakdown.dcache_static += leak.d_static_cycle;
            self.breakdown.icache_static += leak.i_static_cycle;
            self.breakdown.mcu += self.params.mcu_e_cycle;
            self.breakdown.memory += self.params.standby_e_cycle;
        }
        (taken, event)
    }

    /// Opens a reference cycle by fetching the instruction at `fetch_addr`:
    /// the I-cache (or fetch-buffer) access, the I-cache predictor's hooks
    /// when the I-cache itself was accessed, and the fetch's dynamic energy.
    #[inline(always)]
    fn fetch(&mut self, pace: &mut Pace, fetch_addr: u32) -> CycleCost {
        let fetch = self.mem.ifetch(fetch_addr);
        pace.leak.dirty |= !fetch.hit;
        if let Some(ip) = self.i_pred.as_mut().filter(|_| !fetch.buffered) {
            if fetch.hit {
                ip.on_hit(&self.mem.icache, fetch.frame, fetch.block_addr);
            } else {
                ip.on_miss(fetch.block_addr);
                if let Some(ev) = fetch.evicted {
                    ip.on_evict(ev);
                }
                ip.on_fill(&self.mem.icache, fetch.frame, fetch.block_addr);
            }
            pace.hint_dirty = true;
        }
        self.breakdown.icache_dynamic += fetch.icache_energy;
        self.breakdown.memory += fetch.memory_energy;
        CycleCost {
            stall: fetch.stall,
            load: fetch.icache_energy + fetch.memory_energy,
        }
    }

    /// Performs the cycle's data access and adds it to `cost`: dynamic
    /// energy, stall, and the ledger, predictor and instrumentation hooks.
    /// Returns the value read.
    #[inline(always)]
    fn data_access(
        &mut self,
        pace: &mut Pace,
        addr: u32,
        kind: AccessKind,
        value: u32,
        cost: &mut CycleCost,
    ) -> u32 {
        let access = self.mem.data_access(addr, kind, value);
        cost.stall += access.stall;
        cost.load += access.dcache_energy + access.memory_energy;
        self.breakdown.dcache_dynamic += access.dcache_energy;
        self.breakdown.memory += access.memory_energy;
        pace.leak.dirty |= !access.hit;
        self.note_data_access(&access);
        pace.hint_dirty = true;
        access.value
    }

    /// Closes a reference cycle: it lasts one clock plus `cost`'s stall,
    /// over which the static, MCU and standby energy is billed, and the
    /// energy system then supplies the cycle's whole load.
    #[inline(always)]
    fn end_cycle(&mut self, pace: &mut Pace, cost: CycleCost) -> StepEvent {
        let p = &self.params;
        let leak = &mut pace.leak;
        let dt = p.cycle_time + cost.stall;
        // In cycle-accurate mode the fractions are recomputed every
        // cycle, keeping the reference loop independent of the
        // LeakCache invalidation logic the differential suite checks.
        leak.dirty |= self.config.force_cycle_accurate;
        leak.refresh(&self.mem, p);
        let d_static = p.d_leak_full * leak.d_frac * dt;
        let i_static = p.i_leak_full * leak.i_frac * dt;
        let mcu_e = p.mcu_power * dt;
        let standby_e = p.standby * dt;
        self.breakdown.dcache_static += d_static;
        self.breakdown.icache_static += i_static;
        self.breakdown.mcu += mcu_e;
        self.breakdown.memory += standby_e;
        let mut load = cost.load;
        load += d_static + i_static + mcu_e + standby_e;

        let consumed_before = self.energy.stats().consumed;
        let event = self.energy.step(dt, load);
        let drawn = self.energy.stats().consumed - consumed_before;
        self.breakdown.capacitor += drawn.saturating_sub(load);
        event
    }

    /// Ticks the predictors if the merged wake hint is due at the current
    /// cycle (every cycle in cycle-accurate mode). An executed tick may
    /// gate frames (including invalid ones, which never appear in the
    /// outcome), so it always invalidates the leakage cache; executed ticks
    /// are rare by construction, so this costs nothing. The outcome lands
    /// in the pooled scratch (moved out so `apply_tick` can borrow `self`).
    #[inline(always)]
    fn tick_if_due(&mut self, pace: &mut Pace) {
        let cycle = (self.energy.now() * self.params.frequency) as u64;
        if !self.config.force_cycle_accurate {
            self.refresh_hint(pace);
            if !hint_due(&pace.hint, cycle, &mut self.energy) {
                return;
            }
        }
        let v = self.energy.voltage();
        let mut tick = std::mem::take(&mut self.tick_scratch);
        tick.clear();
        self.d_pred
            .tick_into(&mut self.mem.dcache, v, cycle, &mut tick);
        self.apply_tick(&tick, true);
        if let Some(ip) = &mut self.i_pred {
            tick.clear();
            ip.tick_into(&mut self.mem.icache, v, cycle, &mut tick);
            self.apply_tick(&tick, false);
        }
        self.tick_scratch = tick;
        pace.leak.dirty = true;
        pace.hint_dirty = true;
    }

    /// [`LaneRun::advance_until`], recording into the stream sink `S`
    /// (`()` records nothing).
    ///
    /// Two regimes produce bit-identical [`RunResult`]s (the
    /// `burst_exactness` differential suite asserts it for every scheme):
    ///
    /// * **Reference** ([`SystemConfig::force_cycle_accurate`]): one cycle
    ///   per iteration, every predictor ticked every cycle, leakage
    ///   fractions recomputed every cycle.
    /// * **Burst** (default): a run of consecutive compute instructions
    ///   whose fetches all hit the fetch buffer is handed to
    ///   [`EnergySystem::step_burst`] as one [`BurstPlan`]; predictor ticks
    ///   run only when the merged [`WakeHint`] is due, and leakage
    ///   fractions come from a [`LeakCache`] invalidated on fills,
    ///   evictions, gatings and outages.
    ///
    /// Exactness rests on the invariants documented in DESIGN.md §8: a
    /// burst cycle replicates the reference loop's f64 operation sequence;
    /// a tick whose hint is not due is a state-preserving no-op with an
    /// empty outcome; and the burst stops at the first cycle where any stop
    /// condition (energy event, hint voltage, hint cycle, run length)
    /// holds, so the next tick runs on exactly the cycle the reference
    /// loop would run it on.
    fn live_loop<S: StreamSink>(&mut self, target: u64, sink: &mut S) {
        let sim = self;
        let program = Arc::clone(&sim.workload.program);
        let mut pace = Pace::new();
        loop {
            if sim.core.halted() {
                sim.completed = true;
                break;
            }
            let committed = sim.core.committed();
            if committed >= sim.config.max_instructions || committed >= target {
                break;
            }

            let pc = sim.core.pc();
            let run = sim.burst_len(&mut pace, &program, pc, committed, u64::MAX);
            let event = if run >= 1 {
                let (taken, event) = sim.step_burst(&mut pace, run);
                for _ in 0..taken {
                    let effect = sim.core.step(&program);
                    debug_assert_eq!(
                        effect,
                        Effect::Compute,
                        "burst lookahead admitted a non-compute step"
                    );
                }
                if S::ACTIVE {
                    sink.record_burst(pc, taken);
                }
                event
            } else {
                let mut cost = sim.fetch(&mut pace, program.fetch_addr(pc));
                match sim.core.step(&program) {
                    Effect::Compute => {
                        if S::ACTIVE {
                            sink.record_compute(pc);
                        }
                    }
                    Effect::Halted => {
                        if S::ACTIVE {
                            sink.record_halt(pc);
                        }
                    }
                    Effect::Load { addr, dst } => {
                        let value =
                            sim.data_access(&mut pace, addr, AccessKind::Read, 0, &mut cost);
                        sim.core.finish_load(dst, value);
                        if S::ACTIVE {
                            sink.record_load(pc, addr);
                        }
                    }
                    Effect::Store { addr, value } => {
                        sim.data_access(&mut pace, addr, AccessKind::Write, value, &mut cost);
                        if S::ACTIVE {
                            sink.record_store(pc, addr, value);
                        }
                    }
                }
                sim.end_cycle(&mut pace, cost)
            };
            // Record boundary with the core fully stepped (including
            // `finish_load`): the only point a mid-window snapshot is valid.
            if S::ACTIVE && sink.snapshot_due() {
                sink.snapshot(sim.core.checkpoint());
            }
            sim.tick_if_due(&mut pace);

            if let Some(z) = &mut sim.zombie {
                // Cheap interval check first; only a due sample walks the
                // resident set (and even then without materializing it).
                let committed = sim.core.committed();
                if z.due(committed) {
                    z.sample(
                        committed,
                        sim.energy.voltage().as_volts(),
                        sim.mem.dcache.resident_addrs_iter(),
                    );
                }
            }

            if event != StepEvent::Running {
                sink.seal();
                if !sim.ride_out_outage(event) {
                    break;
                }
                pace = Pace::new();
            }
        }
    }

    /// [`LaneRun::advance_replay`]: the per-cycle steps of
    /// [`Simulation::live_loop`], with `core.step` replaced by window
    /// records and virtual counters.
    fn replay_loop(&mut self, window: &StreamWindow) {
        let sim = self;
        let program = Arc::clone(&sim.workload.program);
        let max_instructions = sim.config.max_instructions;
        let start = window.start();
        let len = window.len();

        // Each `'window` iteration enters with the core fully synchronized
        // (entry by protocol; re-entry after an outage by the re-decode
        // below) and locates the cursor from the architectural position.
        'window: loop {
            if sim.core.halted() {
                sim.completed = true;
                return;
            }
            if sim.aborted || sim.core.committed() >= max_instructions {
                return;
            }
            let pos = sim.arch_pos();
            if pos < start || pos >= start + len as u64 {
                // Rewound before the window (brown-out to an older
                // checkpoint) or consumed it entirely: back to the caller.
                return;
            }
            let synced_at = (pos - start) as usize;
            let mut cursor = synced_at;
            // Virtual architectural state: the core is not stepped during
            // replay, so these shadow what it *would* hold. Loads buffer
            // this lane's own observed values for the re-decode fallback.
            let mut virt_committed = sim.core.committed();
            let mut virt_loads = sim.core.loads();
            let mut virt_stores = sim.core.stores();
            let mut virt_halted = false;
            sim.replay_loads.clear();
            let mut pace = Pace::new();

            loop {
                if virt_halted || virt_committed >= max_instructions || cursor >= len {
                    if virt_halted {
                        sim.completed = true;
                    }
                    if cursor > synced_at {
                        match window.end_state() {
                            // Clean window end: adopt the recorder's
                            // snapshot (exact for pc/halted and every
                            // untainted register; tainted registers cannot
                            // influence the stream or any statistic).
                            Some(end) if cursor >= len => {
                                sim.core.adopt(end, virt_committed, virt_loads, virt_stores);
                            }
                            // Sealed window or mid-window exit: walk the
                            // core through the replayed records, feeding
                            // this lane's own load values.
                            _ => {
                                resync_core(
                                    &mut sim.core,
                                    &program,
                                    window,
                                    synced_at,
                                    cursor,
                                    &sim.replay_loads,
                                );
                                debug_assert_eq!(sim.core.committed(), virt_committed);
                            }
                        }
                    }
                    return;
                }

                let pc = window.pcs[cursor];
                // Capped additionally at the window end: a split burst
                // performs the identical per-cycle f64 sequence as the
                // unsplit one (DESIGN.md §8), and the remainder resumes in
                // the next advance.
                let window_left = (len - cursor) as u64;
                let run = sim.burst_len(&mut pace, &program, pc, virt_committed, window_left);
                let event = if run >= 1 {
                    let (taken, event) = sim.step_burst(&mut pace, run);
                    debug_assert!(
                        window.kinds[cursor..cursor + taken as usize]
                            .iter()
                            .all(|&k| k == REC_COMPUTE),
                        "replayed burst covered a non-compute record"
                    );
                    cursor += taken as usize;
                    virt_committed += taken;
                    event
                } else {
                    let mut cost = sim.fetch(&mut pace, program.fetch_addr(pc));
                    match window.kinds[cursor] {
                        REC_COMPUTE => {
                            virt_committed += 1;
                        }
                        REC_LOAD => {
                            let addr = window.addrs[cursor];
                            let value =
                                sim.data_access(&mut pace, addr, AccessKind::Read, 0, &mut cost);
                            sim.replay_loads.push(value);
                            virt_committed += 1;
                            virt_loads += 1;
                        }
                        REC_STORE => {
                            let (addr, value) = (window.addrs[cursor], window.values[cursor]);
                            sim.data_access(&mut pace, addr, AccessKind::Write, value, &mut cost);
                            virt_committed += 1;
                            virt_stores += 1;
                        }
                        kind => {
                            debug_assert_eq!(kind, REC_HALT, "corrupt stream record");
                            // Halt nets its commit back out and is always
                            // the window's final record.
                            virt_halted = true;
                        }
                    }
                    cursor += 1;
                    sim.end_cycle(&mut pace, cost)
                };
                sim.tick_if_due(&mut pace);

                if event != StepEvent::Running {
                    // The outage machinery needs the real core (checkpoint
                    // snapshot, committed counters): re-synchronize before
                    // riding it out.
                    if cursor > synced_at {
                        resync_core(
                            &mut sim.core,
                            &program,
                            window,
                            synced_at,
                            cursor,
                            &sim.replay_loads,
                        );
                    }
                    if !sim.ride_out_outage(event) {
                        return;
                    }
                    continue 'window;
                }
            }
        }
    }
}

/// Re-synchronizes `core` with replayed records `[from, to)`: adopts the
/// recorder's closest in-range snapshot (sound for the same taint reason
/// as end-of-window adoption — tainted registers cannot influence the
/// stream or any statistic) and walks only the remaining tail through
/// [`redecode_records`]. This bounds the per-event resync cost by the
/// snapshot interval; without it, outage-heavy runs re-decode nearly every
/// record and transposed replay degenerates to live stepping. Counter
/// deltas for the skipped span come from the record kinds themselves
/// (`REC_HALT` commits nothing, exactly as live execution nets it out).
fn resync_core(
    core: &mut Core,
    program: &Program,
    window: &StreamWindow,
    from: usize,
    to: usize,
    loads: &[u32],
) {
    let Some((snap, state)) = window.best_snapshot(from, to) else {
        redecode_records(core, program, window, from, to, loads);
        return;
    };
    let mut committed = 0u64;
    let mut nloads = 0usize;
    let mut stores = 0u64;
    for &k in &window.kinds[from..snap] {
        committed += u64::from(k != REC_HALT);
        nloads += usize::from(k == REC_LOAD);
        stores += u64::from(k == REC_STORE);
    }
    core.adopt(
        state,
        core.committed() + committed,
        core.loads() + nloads as u64,
        core.stores() + stores,
    );
    redecode_records(core, program, window, snap, to, &loads[nloads..]);
}

/// Steps `core` through window records `[from, to)`, feeding this lane's
/// own buffered load values (`loads`, one per `REC_LOAD` record in the
/// range, in order). Store effects are dropped — the replay already
/// performed the data accesses — and the committed/load/store counters
/// advance exactly as live execution would have advanced them.
fn redecode_records(
    core: &mut Core,
    program: &Program,
    window: &StreamWindow,
    from: usize,
    to: usize,
    loads: &[u32],
) {
    let mut next_load = 0;
    for i in from..to {
        debug_assert_eq!(
            core.pc(),
            window.pcs[i],
            "re-decode diverged from the recorded stream"
        );
        match core.step(program) {
            Effect::Compute | Effect::Halted => {}
            Effect::Load { dst, .. } => {
                core.finish_load(dst, loads[next_load]);
                next_load += 1;
            }
            Effect::Store { .. } => {}
        }
    }
    debug_assert_eq!(next_load, loads.len(), "buffered load values left over");
}

/// An incrementally drivable simulation lane: the one interface through
/// which every run is driven.
///
/// [`build_lane`] resolves a scheme to a simulation monomorphized over its
/// predictor type, behind this object-safe interface: dynamic dispatch
/// happens once per driving chunk (tens of thousands of instructions),
/// while the predictor hooks and wake hints inside
/// [`LaneRun::advance_until`] are statically dispatched. The D-cache's
/// replacement policy is a value its rank updates `match` on.
pub trait LaneRun {
    /// Advances the simulation until `target` instructions have committed,
    /// the workload halts, the instruction budget is exhausted, or the
    /// energy source never recovers from an outage.
    ///
    /// The burst fast path is *not* truncated at `target` — a burst may
    /// overshoot it by at most one buffered instruction run. This keeps the
    /// burst boundaries (and therefore every f64 accumulation) of an
    /// incrementally driven run bit-identical to one uninterrupted
    /// `advance_until(u64::MAX)`.
    fn advance_until(&mut self, target: u64);
    /// Instructions committed so far (live progress, for incremental
    /// driving).
    fn committed(&self) -> u64;
    /// True once [`LaneRun::advance_until`] can make no further progress:
    /// the workload halted, the instruction budget is exhausted, or the
    /// energy source never recovered from an outage. Incremental drivers
    /// (the lockstep runner) poll this between chunks.
    fn done(&self) -> bool;
    /// Assembles the [`RunOutcome`] of a lane that has been driven to
    /// completion. `sim_mips` is left at zero — the driver that owns the
    /// wall clock ([`run_lane`], [`run_lockstep`]) fills it in.
    fn finish_collecting(self: Box<Self>) -> RunOutcome;
    /// This lane's position on the canonical rewind-free instruction
    /// stream. `committed` counts instructions re-executed after a restore;
    /// an offset kept across restores subtracts them back out, so two lanes
    /// at equal `arch_pos` are about to execute the same instruction (for
    /// stream-invariant workloads).
    fn arch_pos(&self) -> u64;
    /// True when this lane may participate in transposed stream replay:
    /// the workload's access stream is provably data-independent and
    /// nothing demands per-instruction observation of this specific lane
    /// (cycle-accurate mode and zombie sampling both key off exact per-lane
    /// instruction positions, so those lanes stay on the live stepper).
    fn wide_eligible(&self) -> bool;
    /// Advances like [`LaneRun::advance_until`] while recording every
    /// committed instruction into `window` for sibling lanes to replay
    /// (the transposed lockstep recorder role). The window's start is this
    /// lane's current architectural position; an outage seals it; a clean
    /// exit stores the end-of-window core snapshot for replayers to adopt.
    fn advance_recording(&mut self, target: u64, window: &mut StreamWindow);
    /// Advances this lane by replaying a sibling's recorded [`StreamWindow`]
    /// instead of decoding instructions: the recorded `(pc, kind, addr)`
    /// stream drives this lane's own fetches, data accesses, predictor
    /// hooks, ticks and energy stepping — bit-identical to live execution
    /// by stream invariance — while the core sits untouched. Architectural
    /// state is re-synchronized at the window end by adopting the
    /// recorder's snapshot (or, for sealed windows and mid-window exits, by
    /// re-decoding the replayed records against this lane's own buffered
    /// load values). An outage is ridden out on the re-synchronized core,
    /// and the lane rejoins the window where the restored position lands
    /// in it.
    fn advance_replay(&mut self, window: &StreamWindow);
    /// The architectural value of the word at `addr` (a dirty cached copy
    /// wins over the backing store), for crash-consistency verification.
    fn word_at(&mut self, addr: u64) -> u32;
    /// Pre-sizes the zombie-analysis sample pools so a bounded measured
    /// window performs no further growth (testing/benchmarking aid; no-op
    /// unless [`SystemConfig::zombie_sample_interval`] is set).
    fn reserve_zombie_capacity(&mut self, samples: usize);
}

impl<P: LeakagePredictor> LaneRun for Simulation<P> {
    fn advance_until(&mut self, target: u64) {
        // The `()` sink compiles every recording call to nothing, so the
        // solo loop stays allocation-free.
        self.live_loop(target, &mut ());
    }

    fn committed(&self) -> u64 {
        self.core.committed()
    }

    fn done(&self) -> bool {
        self.core.halted() || self.aborted || self.core.committed() >= self.config.max_instructions
    }

    fn finish_collecting(self: Box<Self>) -> RunOutcome {
        let stats = self.energy.stats();
        let result = RunResult {
            app: self.workload.app,
            scheme: self.scheme,
            completed: self.completed,
            committed: self.core.committed(),
            loads: self.core.loads(),
            stores: self.core.stores(),
            on_time: stats.on_time,
            off_time: stats.off_time,
            outages: stats.outages,
            brownouts: self.brownouts,
            energy: self.breakdown,
            dcache: *self.mem.dcache.stats(),
            icache: *self.mem.icache.stats(),
            prediction: self.ledger.summary(),
            sim_mips: 0.0,
        };
        RunOutcome {
            result,
            trace: self.recorder.map(OracleRecorder::finish),
            zombie_samples: self
                .zombie
                .map(crate::ZombieAnalysis::finish)
                .unwrap_or_default(),
        }
    }

    fn arch_pos(&self) -> u64 {
        (self.core.committed() as i64 + self.arch_offset) as u64
    }

    fn wide_eligible(&self) -> bool {
        self.stream_invariant && !self.config.force_cycle_accurate && self.zombie.is_none()
    }

    fn advance_recording(&mut self, target: u64, window: &mut StreamWindow) {
        window.begin(self.arch_pos());
        self.live_loop(target, window);
        window.finish(self.core.checkpoint());
    }

    fn advance_replay(&mut self, window: &StreamWindow) {
        self.replay_loop(window);
    }

    fn word_at(&mut self, addr: u64) -> u32 {
        self.mem.word_at(addr)
    }

    fn reserve_zombie_capacity(&mut self, samples: usize) {
        if let Some(z) = &mut self.zombie {
            z.reserve(samples);
        }
    }
}

/// Builds a simulation lane for `scheme` with the predictor type resolved
/// at compile time — the enum-to-generic dispatch table and the only way
/// to construct a simulation. Each arm instantiates the simulation with a
/// concrete predictor type, built by one closure for the D-cache and (when
/// I-cache prediction applies) the I-cache, so the baseline's no-op hooks
/// inline away entirely and composed schemes ([`Pair`]) pay no per-event
/// vtable hop. `with_recorder` attaches the Ideal scheme's oracle recorder
/// (see [`record_generation_trace`]); `oracle_trace` must be provided when
/// `scheme` is [`Scheme::Ideal`].
///
/// # Errors
///
/// An inconsistent energy configuration is returned as a typed
/// [`EnergyConfigError`] rather than a panic — the harness turns it into
/// an actionable per-job failure instead of aborting a whole suite.
///
/// # Panics
///
/// Panics if the Ideal scheme is requested without a trace.
pub fn build_lane(
    config: &SystemConfig,
    scheme: Scheme,
    workload: Workload,
    mut oracle_trace: Option<GenerationTrace>,
    with_recorder: bool,
) -> Result<Box<dyn LaneRun>, EnergyConfigError> {
    fn lane<P: LeakagePredictor + 'static>(
        (config, scheme, workload, with_recorder): (&SystemConfig, Scheme, Workload, bool),
        predictor: impl FnMut(&SystemConfig, &Cache) -> P,
    ) -> Result<Box<dyn LaneRun>, EnergyConfigError> {
        let sim = Simulation::with_predictor(config, scheme, workload, with_recorder, predictor)?;
        Ok(Box::new(sim))
    }
    let edbp = |cfg: &SystemConfig, cache: &Cache| {
        Edbp::new(
            cfg.edbp
                .clone()
                .unwrap_or_else(|| EdbpConfig::for_cache(cache)),
        )
    };
    let amc = |cache: &Cache| AdaptiveModeControl::new(AmcConfig::default(), cache);
    let args = (config, scheme, workload, with_recorder);
    match scheme {
        Scheme::Baseline | Scheme::Sdbp | Scheme::LeakageOff80 => {
            lane(args, |_, _| NullPredictor::new())
        }
        Scheme::Decay => lane(args, |cfg, cache| CacheDecay::new(cfg.decay, cache)),
        Scheme::Edbp => lane(args, edbp),
        Scheme::DecayEdbp => lane(args, |cfg, cache| {
            Pair::new(CacheDecay::new(cfg.decay, cache), edbp(cfg, cache))
        }),
        Scheme::Amc => lane(args, |_, cache| amc(cache)),
        Scheme::AmcEdbp => lane(args, |cfg, cache| Pair::new(amc(cache), edbp(cfg, cache))),
        Scheme::Ideal => lane(args, |_, _| {
            OraclePredictor::new(
                oracle_trace
                    .take()
                    .expect("the Ideal scheme requires a recorded generation trace"),
            )
        }),
    }
}

/// Round size of the lockstep drive: a replayed round touches four parallel
/// record columns plus every lane's caches, so short rounds keep the window
/// columns L1/L2-resident across the recorder pass and all replayer passes.
/// Measured on the 9-lane bench, 4k rounds beat both 8k and 32k.
const TRANSPOSED_CHUNK: u64 = 4_096;

/// `outcome` with `sim_mips` set to its committed count over `wall`
/// seconds of host time.
fn timed(mut outcome: RunOutcome, wall: f64) -> RunOutcome {
    if wall > 0.0 {
        outcome.result.sim_mips = outcome.result.committed as f64 / wall / 1e6;
    }
    outcome
}

/// Drives one monomorphized lane to completion under its own wall clock.
/// This is the hot path behind [`run_workload`]: the enum-to-generic
/// dispatch happens once in [`build_lane`], and the whole run executes
/// with statically dispatched predictor hooks.
pub fn run_lane(mut lane: Box<dyn LaneRun>) -> RunOutcome {
    let wall_start = std::time::Instant::now();
    lane.advance_until(u64::MAX);
    debug_assert!(lane.done());
    let wall = wall_start.elapsed().as_secs_f64();
    timed(lane.finish_collecting(), wall)
}

/// The payload of a panic caught inside one lockstep lane.
pub(crate) type LanePanic = Box<dyn std::any::Any + Send>;

/// Runs `f` for one lane, catching a panic as that lane's failure.
///
/// Unwind safety: a lane that panics is never advanced again, and the
/// shared [`StreamWindow`] is re-begun before its next read.
fn contain<T>(f: impl FnOnce() -> T) -> Result<T, LanePanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// Drives `lanes`, all over the same workload, until every lane is
/// [`LaneRun::done`] or has panicked. Returns, per lane, the payload of the
/// panic that stopped it (`None` for lanes that ran to completion); a lane
/// that panicked is left unfinished and must not be advanced again.
///
/// Each round:
///
/// 1. The *recorder* — the eligible live lane with the lowest
///    architectural position — advances [`TRANSPOSED_CHUNK`] instructions,
///    recording its stream into a [`StreamWindow`] (when it has at least
///    one eligible sibling; alone it advances unrecorded).
/// 2. Every other eligible lane whose position falls inside the window
///    replays it without decoding; eligible lanes ahead of the window skip
///    the round until the rest catch up.
/// 3. Ineligible lanes (zombie sampling, cycle-accurate, data-dependent
///    streams) advance one chunk on the live per-lane stepper.
///
/// A recorder panic discards the round's half-recorded window, costing the
/// siblings one replay opportunity and nothing else.
fn drive_lockstep(lanes: &mut [Box<dyn LaneRun>]) -> Vec<Option<LanePanic>> {
    let mut panics: Vec<Option<LanePanic>> = lanes.iter().map(|_| None).collect();
    let mut window = StreamWindow::default();
    loop {
        let mut recorder: Option<usize> = None;
        let mut eligible = 0usize;
        for (i, lane) in lanes.iter().enumerate() {
            if panics[i].is_some() || lane.done() || !lane.wide_eligible() {
                continue;
            }
            eligible += 1;
            if recorder.is_none_or(|r| lane.arch_pos() < lanes[r].arch_pos()) {
                recorder = Some(i);
            }
        }
        let mut progressed = false;
        if let Some(r) = recorder {
            progressed = true;
            let target = lanes[r].committed().saturating_add(TRANSPOSED_CHUNK);
            if eligible < 2 {
                // A lone eligible lane records for nobody.
                panics[r] = contain(|| lanes[r].advance_until(target)).err();
            } else if let Err(payload) = contain(|| lanes[r].advance_recording(target, &mut window))
            {
                panics[r] = Some(payload);
            } else {
                let (start, len) = (window.start(), window.len() as u64);
                for (i, lane) in lanes.iter_mut().enumerate() {
                    if i == r || panics[i].is_some() || lane.done() || !lane.wide_eligible() {
                        continue;
                    }
                    let pos = lane.arch_pos();
                    if pos >= start && pos < start + len {
                        panics[i] = contain(|| lane.advance_replay(&window)).err();
                    }
                }
            }
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            if Some(i) == recorder || panics[i].is_some() || lane.done() || lane.wide_eligible() {
                continue;
            }
            let target = lane.committed().saturating_add(TRANSPOSED_CHUNK);
            panics[i] = contain(|| lane.advance_until(target)).err();
            progressed = true;
        }
        if !progressed {
            return panics;
        }
    }
}

/// Drives `lanes` as one lockstep group under one wall clock and finishes
/// them: per lane, its outcome (`sim_mips` is its own committed count over
/// the group's wall time) or the payload of the panic that stopped it while
/// driving or finishing. A panicking lane never disturbs its siblings.
pub(crate) fn run_group(mut lanes: Vec<Box<dyn LaneRun>>) -> Vec<Result<RunOutcome, LanePanic>> {
    let wall_start = std::time::Instant::now();
    let panics = drive_lockstep(&mut lanes);
    let wall = wall_start.elapsed().as_secs_f64();
    lanes
        .into_iter()
        .zip(panics)
        .map(|(lane, panic)| match panic {
            Some(payload) => Err(payload),
            None => contain(|| timed(lane.finish_collecting(), wall)),
        })
        .collect()
}

/// Drives a group of lanes over the same workload in lockstep until every
/// lane is [`LaneRun::done`]: each round, the eligible lane furthest behind
/// records its instruction stream and its siblings replay it without
/// decoding. One wall-clock measurement covers the whole group; each
/// lane's `sim_mips` is its own committed count over that shared wall time.
///
/// Bit-exactness: [`LaneRun::advance_until`] never truncates a burst at its
/// target, and a replaying lane performs its own fetches, accesses,
/// predictor hooks and energy steps in the live order, so every
/// [`RunOutcome`] equals the outcome of an independent [`run_lane`]
/// (modulo `sim_mips`, which is wall-clock-derived in both regimes; the
/// `lockstep` suite asserts this for every scheme).
///
/// # Panics
///
/// Re-raises the first lane panic once the surviving lanes have finished.
pub fn run_lockstep(lanes: Vec<Box<dyn LaneRun>>) -> Vec<RunOutcome> {
    run_group(lanes)
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Wrapper making a boxed source usable where `EnergySystem` wants a
/// concrete `EnergySource`.
#[derive(Debug)]
struct SourceBox(Box<dyn ehs_energy::EnergySource>);

impl ehs_energy::EnergySource for SourceBox {
    fn power_at(&self, t: Time) -> ehs_units::Power {
        self.0.power_at(t)
    }

    fn segment_of(&self, t: Time) -> Option<u64> {
        self.0.segment_of(t)
    }

    fn segment_end(&self, t: Time) -> Option<Time> {
        self.0.segment_end(t)
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn mean_power(&self) -> ehs_units::Power {
        self.0.mean_power()
    }
}

/// Runs one application under one scheme at the given scale, handling the
/// Ideal scheme's two-pass protocol transparently.
pub fn run_app(config: &SystemConfig, scheme: Scheme, app: AppId, scale: Scale) -> RunResult {
    run_workload(config, scheme, build(app, scale))
}

/// Like [`run_app`] for a pre-built workload.
pub fn run_workload(config: &SystemConfig, scheme: Scheme, workload: Workload) -> RunResult {
    let trace = scheme
        .needs_oracle_trace()
        .then(|| record_generation_trace(config, workload.clone()));
    let lane = build_lane(config, scheme, workload, trace, false)
        .unwrap_or_else(|e| panic!("invalid energy configuration: {e}"));
    run_lane(lane).result
}

/// Pass 1 of the Ideal scheme: runs the baseline while recording every
/// block generation's access count. The recorder is a passive observer, so
/// a recorded baseline's result is bit-identical to an unrecorded one —
/// which lets one execution serve both as the Ideal scheme's oracle pass
/// and as the baseline column of the same experiment matrix (see the
/// memoization layer in `runner`, which builds that lane directly).
pub fn record_generation_trace(config: &SystemConfig, workload: Workload) -> GenerationTrace {
    let lane = build_lane(config, Scheme::Baseline, workload, None, true)
        .unwrap_or_else(|e| panic!("invalid energy configuration: {e}"));
    run_lane(lane).trace.expect("recorder was attached")
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAULT: &str = "injected lane fault";

    /// A real lane that panics on its third advance of any kind.
    struct Faulty {
        inner: Box<dyn LaneRun>,
        advances_left: u32,
    }

    impl Faulty {
        fn count_advance(&mut self) {
            self.advances_left -= 1;
            assert!(self.advances_left > 0, "{FAULT}");
        }
    }

    impl LaneRun for Faulty {
        fn advance_until(&mut self, target: u64) {
            self.count_advance();
            self.inner.advance_until(target);
        }

        fn committed(&self) -> u64 {
            self.inner.committed()
        }

        fn done(&self) -> bool {
            self.inner.done()
        }

        fn finish_collecting(self: Box<Self>) -> RunOutcome {
            self.inner.finish_collecting()
        }

        fn arch_pos(&self) -> u64 {
            self.inner.arch_pos()
        }

        fn wide_eligible(&self) -> bool {
            self.inner.wide_eligible()
        }

        fn advance_recording(&mut self, target: u64, window: &mut StreamWindow) {
            self.count_advance();
            self.inner.advance_recording(target, window);
        }

        fn advance_replay(&mut self, window: &StreamWindow) {
            self.count_advance();
            self.inner.advance_replay(window);
        }

        fn word_at(&mut self, addr: u64) -> u32 {
            self.inner.word_at(addr)
        }

        fn reserve_zombie_capacity(&mut self, samples: usize) {
            self.inner.reserve_zombie_capacity(samples);
        }
    }

    /// Three lanes over one bounded workload; lane `faulty` (if any) panics
    /// a few rounds in.
    fn group(faulty: Option<usize>) -> Vec<Box<dyn LaneRun>> {
        let mut config = SystemConfig::paper_default();
        config.max_instructions = 60_000;
        let workload = build(AppId::Crc32, Scale::Tiny);
        [Scheme::Baseline, Scheme::Decay, Scheme::Edbp]
            .iter()
            .enumerate()
            .map(|(i, &scheme)| -> Box<dyn LaneRun> {
                let lane = build_lane(&config, scheme, workload.clone(), None, false)
                    .expect("paper-default energy configuration is valid");
                if faulty == Some(i) {
                    Box::new(Faulty {
                        inner: lane,
                        advances_left: 3,
                    })
                } else {
                    lane
                }
            })
            .collect()
    }

    fn message(payload: &LanePanic) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_lane_fails_alone() {
        // Lane 0 records every round and its siblings replay, so this
        // covers a recorder panic (half-recorded window) and replayer
        // panics.
        for faulty in 0..3 {
            for (i, outcome) in run_group(group(Some(faulty))).into_iter().enumerate() {
                let outcome = match outcome {
                    Err(payload) if i == faulty => {
                        assert_eq!(message(&payload), FAULT);
                        continue;
                    }
                    Err(_) => panic!("lane {i} failed with lane {faulty}"),
                    Ok(_) if i == faulty => panic!("the faulty lane's panic is returned"),
                    Ok(outcome) => outcome,
                };
                let alone = run_lane(group(None).swap_remove(i));
                assert_eq!(
                    outcome.result, alone.result,
                    "lane {i} diverged after lane {faulty} panicked"
                );
            }
        }
    }

    #[test]
    fn run_lockstep_reraises_a_lane_panic() {
        let payload = std::panic::catch_unwind(|| run_lockstep(group(Some(1))))
            .expect_err("the lane's panic reaches the caller");
        assert_eq!(message(&payload), FAULT);
    }
}
