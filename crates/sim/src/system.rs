//! The full-system simulation loop.

use crate::{EnergyBreakdown, MemorySystem, RunResult, Scheme, SystemConfig};
use edbp_core::{
    AdaptiveModeControl, AmcConfig, CacheDecay, Edbp, EdbpConfig, GenerationTrace,
    LeakagePredictor, NullPredictor, OraclePredictor, OracleRecorder, PagedTable, Pair,
    PredictionLedger, ReusePredictor, ReusePredictorConfig, TickOutcome, WakeHint,
};
use ehs_cache::{AccessKind, Cache};
use ehs_cpu::{Core, CoreState, Effect, Program, INSTRUCTION_BYTES};
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
    fn new(config: &SystemConfig, scheme: Scheme, mem: &MemorySystem) -> Self {
        let cycle_time = config.cycle_time();
        let mcu_power = config.mcu_power();
        let standby = mem.memory_standby();
        let d_leak = mem.dcache_characteristics().leakage;
        Self {
            // The "80% Leakage Off" stress test keeps a fifth of the
            // D-cache leakage.
            d_leak_full: if scheme == Scheme::LeakageOff80 {
                d_leak * 0.2
            } else {
                d_leak
            },
            i_leak_full: mem.icache_characteristics().leakage,
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
}

impl<P: LeakagePredictor> Simulation<P> {
    /// Creates a simulation of `workload` under `scheme`. `predictor`
    /// builds the scheme's predictor over a cache — the D-cache, and the
    /// I-cache too when I-cache prediction applies.
    fn with_predictor(
        config: &SystemConfig,
        scheme: Scheme,
        workload: Workload,
        with_recorder: bool,
        mut predictor: impl FnMut(&Cache) -> P,
    ) -> Result<Self, EnergyConfigError> {
        let mem = MemorySystem::new(config);
        let d_pred = predictor(&mem.dcache);
        // The Ideal scheme is only defined for the data cache.
        let i_pred = (config.predict_icache
            && !config.icache_tech.is_nonvolatile()
            && scheme != Scheme::Ideal)
            .then(|| predictor(&mem.icache));
        let core = Core::new(&workload.program);
        let energy = EnergySystem::new(config.energy.clone(), SourceBox(config.source.build()))?;
        let reuse =
            (scheme == Scheme::Sdbp).then(|| ReusePredictor::new(ReusePredictorConfig::default()));
        let zombie = config
            .zombie_sample_interval
            .map(crate::ZombieAnalysis::new);
        let block_bytes = config.dcache.geometry.block_bytes as usize;
        let params = CycleParams::new(config, scheme, &mem);
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
            workload,
            config: config.clone(),
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
        for (addr, data) in tick.parked.iter() {
            // Every predictor parks gated dirty blocks in their NVSRAM
            // twins: an in-place save at checkpoint cost, restored at reboot.
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
    // `#[inline(never)]`: outages are rare (one per ~9 000 instructions on
    // `solo_fig8` at seed 42), and inlined into the loop body this cold
    // path cost `solo_fig8` 1.2 % of its sim-MIPS (10 of 10 pairs, 2-vCPU
    // x86-64 host).
    #[inline(never)]
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
            self.core = Core::new(&self.workload.program);
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

    // The per-cycle steps below are the parts of the loop in
    // `LaneRun::advance_until`. They are `#[inline(always)]` so the loop
    // compiles to straight-line code: left to the optimizer's inlining
    // heuristics, solo runs measured ~7 % fewer sim-MIPS (2-vCPU x86-64
    // Xeon host).

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
    /// at the instruction budget left after `committed`. Zero when bursting
    /// is off (cycle-accurate mode; zombie sampling, whose samples are keyed
    /// to exact committed counts), when the merged hint wants every cycle,
    /// or when the fetch misses the buffer.
    #[inline(always)]
    fn burst_len(&self, pace: &mut Pace, program: &Program, pc: u32, committed: u64) -> u32 {
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
        let cap = slots.min(self.config.max_instructions - committed) as u32;
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
}

/// An incrementally drivable simulation lane: the one interface through
/// which every run is driven.
///
/// [`build_lane`] resolves a scheme to a simulation monomorphized over its
/// predictor type, behind this object-safe interface: dynamic dispatch
/// happens once per [`LaneRun::advance_until`] call, while the predictor
/// hooks and wake hints inside it are statically dispatched. The D-cache's
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
    /// energy source never recovered from an outage. Incremental callers
    /// poll this between chunks.
    fn done(&self) -> bool;
    /// Assembles the [`RunOutcome`] of a lane that has been driven to
    /// completion. `sim_mips` is left at zero — the caller that owns the
    /// wall clock ([`run_lane`]) fills it in.
    fn finish_collecting(self: Box<Self>) -> RunOutcome;
    /// The architectural value of the word at `addr` (a dirty cached copy
    /// wins over the backing store), for crash-consistency verification.
    fn word_at(&mut self, addr: u64) -> u32;
    /// Pre-sizes the zombie-analysis sample pools so a bounded measured
    /// window performs no further growth (testing/benchmarking aid; no-op
    /// unless [`SystemConfig::zombie_sample_interval`] is set).
    fn reserve_zombie_capacity(&mut self, samples: usize);
}

impl<P: LeakagePredictor> LaneRun for Simulation<P> {
    /// The simulation loop, compiled once per predictor type `P`.
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
    fn advance_until(&mut self, target: u64) {
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
            let run = sim.burst_len(&mut pace, &program, pc, committed);
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
                event
            } else {
                let mut cost = sim.fetch(&mut pace, program.fetch_addr(pc));
                match sim.core.step(&program) {
                    Effect::Compute | Effect::Halted => {}
                    Effect::Load { addr, dst } => {
                        let value =
                            sim.data_access(&mut pace, addr, AccessKind::Read, 0, &mut cost);
                        sim.core.finish_load(dst, value);
                    }
                    Effect::Store { addr, value } => {
                        sim.data_access(&mut pace, addr, AccessKind::Write, value, &mut cost);
                    }
                }
                sim.end_cycle(&mut pace, cost)
            };
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
                if !sim.ride_out_outage(event) {
                    break;
                }
                pace = Pace::new();
            }
        }
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
        predictor: impl FnMut(&Cache) -> P,
    ) -> Result<Box<dyn LaneRun>, EnergyConfigError> {
        let sim = Simulation::with_predictor(config, scheme, workload, with_recorder, predictor)?;
        Ok(Box::new(sim))
    }
    let edbp = |cache: &Cache| {
        Edbp::new(
            config
                .edbp
                .clone()
                .unwrap_or_else(|| EdbpConfig::for_cache(cache)),
        )
    };
    let decay = |cache: &Cache| CacheDecay::new(config.decay, cache);
    let amc = |cache: &Cache| AdaptiveModeControl::new(AmcConfig::default(), cache);
    let args = (config, scheme, workload, with_recorder);
    match scheme {
        Scheme::Baseline | Scheme::Sdbp | Scheme::LeakageOff80 => {
            lane(args, |_| NullPredictor::new())
        }
        Scheme::Decay => lane(args, decay),
        Scheme::Edbp => lane(args, edbp),
        Scheme::DecayEdbp => lane(args, |cache| Pair::new(decay(cache), edbp(cache))),
        Scheme::Amc => lane(args, amc),
        Scheme::AmcEdbp => lane(args, |cache| Pair::new(amc(cache), edbp(cache))),
        Scheme::Ideal => lane(args, |_| {
            OraclePredictor::new(
                oracle_trace
                    .take()
                    .expect("the Ideal scheme requires a recorded generation trace"),
            )
        }),
    }
}

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

/// The payload of a panic caught inside one lane of a group.
pub(crate) type LanePanic = Box<dyn std::any::Any + Send>;

/// Runs `f` for one lane, catching a panic as that lane's failure.
///
/// Unwind safety: a lane that panics is dropped and never advanced again.
fn contain<T>(f: impl FnOnce() -> T) -> Result<T, LanePanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// Runs `lanes` one after another, each through [`run_lane`] under its own
/// wall clock, and drops each lane once it finishes. Returns, per lane, its
/// outcome or the payload of the panic that stopped it; a panicking lane
/// never disturbs its siblings.
pub(crate) fn run_group(lanes: Vec<Box<dyn LaneRun>>) -> Vec<Result<RunOutcome, LanePanic>> {
    lanes
        .into_iter()
        .map(|lane| contain(|| run_lane(lane)))
        .collect()
}

/// Runs a group of lanes over the same workload to completion, one lane
/// after another. Each lane runs as an independent [`run_lane`], so every
/// [`RunOutcome`] equals that lane's solo outcome (the `lockstep` suite
/// asserts it for every scheme), and each `sim_mips` is the lane's own
/// committed count over its own wall time.
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

    /// A real lane that panics on its first advance.
    struct Faulty(Box<dyn LaneRun>);

    impl LaneRun for Faulty {
        fn advance_until(&mut self, _target: u64) {
            panic!("{FAULT}");
        }

        fn committed(&self) -> u64 {
            self.0.committed()
        }

        fn done(&self) -> bool {
            self.0.done()
        }

        fn finish_collecting(self: Box<Self>) -> RunOutcome {
            self.0.finish_collecting()
        }

        fn word_at(&mut self, addr: u64) -> u32 {
            self.0.word_at(addr)
        }

        fn reserve_zombie_capacity(&mut self, samples: usize) {
            self.0.reserve_zombie_capacity(samples);
        }
    }

    /// Three lanes over one bounded workload; lane `faulty` (if any) panics
    /// when it is first advanced.
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
                    Box::new(Faulty(lane))
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
        // The faulty lane runs first, between its siblings, and last.
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
