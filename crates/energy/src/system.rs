//! The combined capacitor + source + monitor state machine.

use crate::{
    Capacitor, CapacitorConfig, EnergyConfigError, EnergySource, MonitorState, VoltageMonitor,
    VoltageThresholds,
};
use ehs_units::{Energy, Frequency, Power, Time, Voltage};

/// Static configuration of the harvesting subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySystemConfig {
    /// The energy buffer.
    pub capacitor: CapacitorConfig,
    /// JIT checkpoint / restore thresholds.
    pub thresholds: VoltageThresholds,
    /// Worst-case checkpoint energy the architecture declares; used to verify
    /// the `V_ckpt → V_min` reserve can always fund a checkpoint.
    pub checkpoint_budget: Energy,
    /// Fast-forward granularity while hibernating.
    pub recharge_step: Time,
    /// Safety bound on a single recharge wait. If the source cannot refill
    /// the buffer within this horizon the outage is reported unrecovered.
    pub max_off_time: Time,
}

impl EnergySystemConfig {
    /// The paper's Table II defaults.
    pub fn paper_default() -> Self {
        Self {
            capacitor: CapacitorConfig::paper_default(),
            thresholds: VoltageThresholds::paper_default(),
            checkpoint_budget: Energy::from_nano_joules(400.0),
            recharge_step: Time::from_micros(50.0),
            max_off_time: Time::from_seconds(100.0),
        }
    }

    /// Declares the worst-case checkpoint energy for reserve validation.
    #[must_use]
    pub fn with_checkpoint_budget(mut self, budget: Energy) -> Self {
        self.checkpoint_budget = budget;
        self
    }

    /// Validates physical consistency.
    ///
    /// # Errors
    ///
    /// Propagates capacitor and threshold validation errors, and returns
    /// [`EnergyConfigError::InsufficientCheckpointReserve`] if the
    /// `V_ckpt → V_min` band cannot fund `checkpoint_budget`.
    pub fn validate(&self) -> Result<(), EnergyConfigError> {
        self.capacitor.validate()?;
        self.thresholds
            .validate(self.capacitor.v_min, self.capacitor.v_max)?;
        let c = self.capacitor.capacitance;
        let reserve = Energy::in_capacitor(c, self.thresholds.v_ckpt)
            - Energy::in_capacitor(c, self.capacitor.v_min);
        if reserve < self.checkpoint_budget {
            return Err(EnergyConfigError::InsufficientCheckpointReserve {
                reserve,
                required: self.checkpoint_budget,
            });
        }
        Ok(())
    }
}

/// What the voltage monitor reported after a simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Supply healthy; keep executing.
    Running,
    /// Voltage fell through `V_ckpt`: checkpoint *now*, then call
    /// [`EnergySystem::power_off_and_recharge`].
    CheckpointRequested,
    /// Voltage fell through `V_min` while operating — the JIT margin was
    /// violated (mis-configured reserve). Volatile state is lost.
    BrownOut,
}

/// Inputs to [`EnergySystem::step_burst`]: a run of cycles with identical
/// per-cycle load, plus the conditions that end the burst early.
///
/// A burst replays the *exact* per-cycle arithmetic of repeated
/// [`EnergySystem::step`] calls — the capacitor trajectory, statistics and
/// monitor observations are bit-identical to the cycle-accurate loop — and
/// only eliminates redundant work (harvested-power lookups are memoized per
/// source segment, and the caller skips its own per-cycle bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstPlan {
    /// Maximum number of cycles to coalesce (the caller's run-length). Must
    /// be at least 1; at least one cycle always executes.
    pub max_cycles: u64,
    /// Duration of one cycle.
    pub dt: Time,
    /// Load drawn per cycle — identical every cycle of the burst.
    pub load: Energy,
    /// Core clock, used to derive the cycle number exactly as the simulator
    /// does: `(now * frequency) as u64`, evaluated after each cycle.
    pub frequency: Frequency,
    /// Stop (after completing the crossing cycle) once the derived cycle
    /// number reaches this value — a predictor epoch boundary.
    pub wake_at_cycle: Option<u64>,
    /// Stop (after completing the crossing cycle) once the capacitor voltage
    /// drops strictly below this value — an EDBP gating threshold or the
    /// oracle's release guard.
    pub wake_below_voltage: Option<Voltage>,
}

/// Result of riding out one power outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageOutcome {
    /// Wall-clock time spent powered off recharging.
    pub off_duration: Time,
    /// Energy harvested into the buffer during the outage.
    pub harvested: Energy,
    /// Whether the buffer recovered to `V_rst` within the safety horizon.
    pub recovered: bool,
}

/// Aggregate bookkeeping across power cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerCycleStats {
    /// Number of completed power outages.
    pub outages: u64,
    /// Total time spent executing.
    pub on_time: Time,
    /// Total time spent powered off, recharging.
    pub off_time: Time,
    /// Total energy harvested into the buffer (on and off).
    pub harvested: Energy,
    /// Total energy drawn by the load (execution + checkpoints + leakage).
    pub consumed: Energy,
    /// Harvested energy shed because the buffer was already full.
    pub shed: Energy,
}

impl PowerCycleStats {
    /// Total wall-clock time (on + off).
    pub fn total_time(&self) -> Time {
        self.on_time + self.off_time
    }
}

/// The live harvesting subsystem driven by the full-system simulator.
///
/// The simulator alternates between:
/// 1. [`EnergySystem::step`] — execute for `dt` drawing `load` energy;
/// 2. on [`StepEvent::CheckpointRequested`], draw the checkpoint cost via
///    [`EnergySystem::consume`] and ride out the outage with
///    [`EnergySystem::power_off_and_recharge`].
///
/// See the crate-level example for the full loop.
#[derive(Debug)]
pub struct EnergySystem {
    config: EnergySystemConfig,
    capacitor: Capacitor,
    monitor: VoltageMonitor,
    source: Box<dyn EnergySource>,
    now: Time,
    stats: PowerCycleStats,
    /// `(valid_until, power)` sampled from the source: the power holds for
    /// every instant strictly before `valid_until`. Built from
    /// [`EnergySource::segment_end`], whose contract makes reuse bit-exact.
    power_memo: Option<(Time, Power)>,
    /// Stored-energy images of the voltage thresholds (see
    /// [`max_energy_where`]): comparing `stored` against these is *exactly*
    /// equivalent to deriving the voltage and comparing it, so the per-cycle
    /// monitor checks run without a square root.
    ///
    /// `stored <= e_min` ⟺ `voltage() <= v_min`.
    e_min: Energy,
    /// `stored <= e_ckpt` ⟺ `voltage() <= v_ckpt` (falling edge).
    e_ckpt: Energy,
    /// `stored > e_rst_below` ⟺ `voltage() >= v_rst` (rising edge).
    e_rst_below: Energy,
    /// Memoized stored-energy image of the last distinct
    /// [`BurstPlan::wake_below_voltage`], keyed by the voltage's bits.
    wake_memo: Option<(u64, Energy)>,
    /// Memoized time image of the last distinct
    /// (`wake_at_cycle`, frequency-bits) pair: the greatest `now` whose
    /// derived cycle number is still below the wake cycle (see
    /// [`Self::wake_cycle_image`]).
    wake_cycle_memo: Option<(u64, u64, Time)>,
}

/// Greatest stored energy in `[0, hi]` whose derived voltage still satisfies
/// `pred` — the stored-energy image of a voltage threshold.
///
/// `pred` must be downward-closed over voltages (true at `v` implies true at
/// every `v' <= v`), which both `v <= threshold` and `v < threshold` are.
/// Because [`Energy::capacitor_voltage`] is monotone non-decreasing in the
/// stored energy (division and square root are correctly rounded), the set
/// of stored energies satisfying `pred` is exactly `[0, result]`, so
/// `stored <= result` reproduces the voltage comparison bit-exactly. Found
/// by bisecting the order-isomorphic bit patterns of non-negative `f64`.
fn max_energy_where(
    c: ehs_units::Capacitance,
    hi: Energy,
    pred: impl Fn(Voltage) -> bool,
) -> Energy {
    let holds = |bits: u64| pred(Energy::from_joules(f64::from_bits(bits)).capacitor_voltage(c));
    let hi_bits = hi.as_joules().max(0.0).to_bits();
    if holds(hi_bits) {
        return Energy::from_joules(f64::from_bits(hi_bits));
    }
    if !holds(0) {
        // Not even an empty buffer satisfies `pred`: return an impossible
        // threshold so `stored <= result` is always false.
        return Energy::from_joules(f64::NEG_INFINITY);
    }
    let (mut lo, mut hi) = (0u64, hi_bits);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Energy::from_joules(f64::from_bits(lo))
}

impl EnergySystem {
    /// Creates a fully-charged system at `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns a [`EnergyConfigError`] if the configuration is inconsistent.
    pub fn new(
        config: EnergySystemConfig,
        source: impl EnergySource + 'static,
    ) -> Result<Self, EnergyConfigError> {
        config.validate()?;
        let capacitor = Capacitor::fully_charged(config.capacitor);
        let c = config.capacitor.capacitance;
        let capacity = capacitor.capacity();
        let (v_min, v_ckpt, v_rst) = (
            config.capacitor.v_min,
            config.thresholds.v_ckpt,
            config.thresholds.v_rst,
        );
        Ok(Self {
            capacitor,
            monitor: VoltageMonitor::new(config.thresholds),
            source: Box::new(source),
            config,
            now: Time::ZERO,
            stats: PowerCycleStats::default(),
            power_memo: None,
            e_min: max_energy_where(c, capacity, |v| v <= v_min),
            e_ckpt: max_energy_where(c, capacity, |v| v <= v_ckpt),
            e_rst_below: max_energy_where(c, capacity, |v| v < v_rst),
            wake_memo: None,
            wake_cycle_memo: None,
        })
    }

    /// Absolute simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current capacitor voltage — the signal EDBP taps.
    pub fn voltage(&self) -> Voltage {
        self.capacitor.voltage()
    }

    /// Whether the current voltage is *strictly* below `w`, evaluated in the
    /// energy domain: `stored <= image(w)` with the image bisected once per
    /// distinct `w` (see `max_energy_where`). Bit-exactly equivalent to
    /// `self.voltage() < w` with no square root — callers polling a
    /// threshold every cycle should prefer this.
    #[inline]
    pub fn voltage_strictly_below(&mut self, w: Voltage) -> bool {
        self.capacitor.stored() <= self.wake_threshold(w)
    }

    /// Current stored energy.
    pub fn stored(&self) -> Energy {
        self.capacitor.stored()
    }

    /// The static configuration.
    pub fn config(&self) -> &EnergySystemConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &PowerCycleStats {
        &self.stats
    }

    /// The voltage monitor's current hysteresis state.
    pub fn monitor_state(&self) -> MonitorState {
        self.monitor.state()
    }

    /// Advances execution by `dt`, drawing `load` from the buffer while
    /// harvesting, then samples the voltage monitor.
    ///
    /// `load` must already include every on-chip draw over `dt` (MCU dynamic
    /// power, cache access energy, cache leakage); this method adds the
    /// capacitor's own self-discharge.
    // `#[inline(always)]`: with `step`, `sampled_power`, `step_cycle` and
    // `step_burst` as `#[inline]`, solo_fig8 measured ~9 % fewer sim-MIPS.
    #[inline(always)]
    pub fn step(&mut self, dt: Time, load: Energy) -> StepEvent {
        debug_assert!(dt.as_seconds() > 0.0, "step needs positive dt");
        let power = self.sampled_power();
        self.step_cycle(dt, load, power)
    }

    /// Harvested power at `self.now`, memoized per source segment. For
    /// segmented sources this is bit-identical to calling `power_at` (the
    /// power is constant within a segment by contract, and
    /// [`EnergySource::segment_end`] bounds the span it holds for) while
    /// skipping both the per-instant synthesis and the per-instant segment
    /// lookup: the fast path is a single time comparison.
    // `#[inline(always)]`: see `step`'s (~9 % of solo_fig8's sim-MIPS).
    #[inline(always)]
    fn sampled_power(&mut self) -> Power {
        if let Some((until, p)) = self.power_memo {
            if self.now < until {
                return p;
            }
        }
        let p = self.source.power_at(self.now);
        self.power_memo = self.source.segment_end(self.now).map(|end| (end, p));
        p
    }

    /// One execution cycle: the exact arithmetic shared by [`Self::step`]
    /// and [`Self::step_burst`]. `power` must be the source power at
    /// `self.now`.
    // `#[inline(always)]`: see `step`'s (~9 % of solo_fig8's sim-MIPS).
    #[inline(always)]
    fn step_cycle(&mut self, dt: Time, load: Energy, power: Power) -> StepEvent {
        let harvested = power * dt;
        let absorbed = self.capacitor.charge(harvested);
        self.stats.shed += harvested - absorbed;
        self.stats.harvested += absorbed;

        let draw = load + self.capacitor.leakage() * dt;
        let delivered = self.capacitor.discharge(draw);
        self.stats.consumed += delivered;

        self.now += dt;
        self.stats.on_time += dt;

        // All threshold checks compare stored energy against the bisected
        // images of the voltage thresholds — exactly equivalent to deriving
        // the voltage (see `max_energy_where`), with no per-cycle sqrt. The
        // monitor is only fed on the (rare) cycles where an edge can fire,
        // which is when its answer can differ from "no edge".
        let stored = self.capacitor.stored();
        if stored <= self.e_min {
            // JIT margin violated; force the monitor into hibernation so the
            // subsequent recharge behaves.
            self.monitor.observe(self.capacitor.voltage());
            return StepEvent::BrownOut;
        }
        match self.monitor.state() {
            MonitorState::Operating if stored <= self.e_ckpt => {
                self.monitor.observe(self.capacitor.voltage());
                StepEvent::CheckpointRequested
            }
            MonitorState::Hibernating if stored > self.e_rst_below => {
                // Rising edge while still executing: the monitor flips back
                // to Operating, exactly as feeding it the voltage would.
                self.monitor.observe(self.capacitor.voltage());
                StepEvent::Running
            }
            _ => StepEvent::Running,
        }
    }

    /// Advances up to `plan.max_cycles` identical execution cycles in one
    /// call, stopping early — *after* the crossing cycle completes — when the
    /// monitor fires, the voltage drops below `plan.wake_below_voltage`, or
    /// the derived cycle number reaches `plan.wake_at_cycle`.
    ///
    /// Per cycle, `drawn − plan.load` (clamped at zero) is accumulated into
    /// `overdraw` exactly as the simulator's cycle-accurate loop does with
    /// its capacitor-leakage breakdown bucket: the subtraction uses the
    /// *accumulator* delta of `stats.consumed`, not the per-cycle delivered
    /// energy, so rounding matches the one-step-at-a-time sequence bit for
    /// bit.
    ///
    /// Returns the number of cycles actually executed (always ≥ 1) and the
    /// event observed on the last of them.
    // `#[inline(always)]`: see `step`'s (~9 % of solo_fig8's sim-MIPS).
    #[inline(always)]
    pub fn step_burst(&mut self, plan: &BurstPlan, overdraw: &mut Energy) -> (u64, StepEvent) {
        debug_assert!(plan.max_cycles >= 1, "burst needs at least one cycle");
        debug_assert!(plan.dt.as_seconds() > 0.0, "step needs positive dt");
        // Both stop guards are resolved to their exact images once per
        // burst: the voltage guard to a stored-energy threshold (memoized by
        // voltage bits) and the cycle guard to a time threshold (memoized by
        // (cycle, frequency)), so the per-cycle checks below are plain
        // scalar compares with no bisection, multiply, or cast in the loop.
        let wake_energy = plan.wake_below_voltage.map(|w| self.wake_threshold(w));
        let wake_time = plan
            .wake_at_cycle
            .map(|c| self.wake_cycle_image(c, plan.frequency));
        let mut cycles = 0u64;
        loop {
            let consumed_before = self.stats.consumed;
            let power = self.sampled_power();
            let event = self.step_cycle(plan.dt, plan.load, power);
            let drawn = self.stats.consumed - consumed_before;
            *overdraw += drawn.saturating_sub(plan.load);
            cycles += 1;
            if event != StepEvent::Running || cycles >= plan.max_cycles {
                return (cycles, event);
            }
            if let Some(e) = wake_energy {
                if self.capacitor.stored() <= e {
                    return (cycles, StepEvent::Running);
                }
            }
            if let Some(t) = wake_time {
                if self.now > t {
                    return (cycles, StepEvent::Running);
                }
            }
        }
    }

    /// Time image of a wake cycle: the greatest `now` whose derived cycle
    /// number `(now * freq) as u64` is still *below* `c`, so the burst's
    /// epoch-boundary guard becomes the single comparison `now > image`
    /// instead of a float multiply plus saturating cast every cycle.
    ///
    /// The derivation is monotone non-decreasing in `now` for `now >= 0`
    /// (correctly-rounded multiply by a non-negative constant, and `as`
    /// saturates), so the satisfying set is exactly `[0, image]` and the
    /// comparison is bit-exactly equivalent to the original guard; found by
    /// bisecting the order-isomorphic bit patterns of non-negative `f64`,
    /// like [`max_energy_where`]. Wake cycles change once per predictor
    /// epoch, so a one-entry memo keyed by `(cycle, frequency-bits)`
    /// suffices.
    fn wake_cycle_image(&mut self, c: u64, freq: Frequency) -> Time {
        let key = (c, freq.base().to_bits());
        if let Some((kc, kf, t)) = self.wake_cycle_memo {
            if (kc, kf) == key {
                return t;
            }
        }
        let holds = |bits: u64| ((Time::from_base(f64::from_bits(bits)) * freq) as u64) < c;
        let inf = f64::INFINITY.to_bits();
        let t = if !holds(0) {
            // Cycle 0 already reaches `c`: an image below every valid time,
            // so the guard fires on the first check.
            Time::from_base(f64::NEG_INFINITY)
        } else if holds(inf) {
            // No finite time reaches `c` (e.g. a zero frequency): the guard
            // never fires.
            Time::from_base(f64::INFINITY)
        } else {
            let (mut lo, mut hi) = (0u64, inf);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if holds(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Time::from_base(f64::from_bits(lo))
        };
        self.wake_cycle_memo = Some((key.0, key.1, t));
        t
    }

    /// Stored-energy image of a wake-guard voltage: `stored <= result` ⟺
    /// `voltage() < w` (see [`max_energy_where`]). Guard voltages come from
    /// predictor gate thresholds, which rarely change between bursts, so a
    /// one-entry memo keyed by the voltage's bits makes the per-cycle check
    /// a plain comparison.
    #[inline]
    fn wake_threshold(&mut self, w: Voltage) -> Energy {
        let bits = w.base().to_bits();
        if let Some((b, e)) = self.wake_memo {
            if b == bits {
                return e;
            }
        }
        let e = max_energy_where(
            self.config.capacitor.capacitance,
            self.capacitor.capacity(),
            |v| v < w,
        );
        self.wake_memo = Some((bits, e));
        e
    }

    /// Draws a one-off energy cost at the current instant (checkpoint or
    /// restore operations). Returns the energy actually delivered.
    pub fn consume(&mut self, e: Energy) -> Energy {
        let delivered = self.capacitor.discharge(e);
        self.stats.consumed += delivered;
        delivered
    }

    /// Advances time *for* a one-off operation whose energy was drawn via
    /// [`EnergySystem::consume`] (e.g. checkpoint latency). No load is drawn
    /// and the monitor is not consulted — the JIT reserve funds this window.
    pub fn elapse_operation(&mut self, dt: Time) {
        let harvested = self.sampled_power() * dt;
        let absorbed = self.capacitor.charge(harvested);
        self.stats.shed += harvested - absorbed;
        self.stats.harvested += absorbed;
        self.now += dt;
        self.stats.on_time += dt;
    }

    /// Rides out a power outage: the MCU is off, only harvesting (and
    /// capacitor self-discharge) happens, until the voltage recovers to
    /// `V_rst` or the safety horizon expires.
    ///
    /// The original reference loop derived a `sqrt` voltage and fed the
    /// monitor on every recharge step. This loop instead compares stored
    /// energy against the bisected threshold images — bit-exactly the
    /// monitor's own edge conditions (see `max_energy_where`) — and
    /// consults the monitor only on the cycles where an edge can fire, plus
    /// one catch-up observation on an unrecovered horizon so the monitor's
    /// internals end identical to the per-step-observe reference.
    ///
    /// Increments the outage count and returns what happened.
    pub fn power_off_and_recharge(&mut self) -> OutageOutcome {
        let dt = self.config.recharge_step;
        let mut off = Time::ZERO;
        let mut harvested_total = Energy::ZERO;
        let mut recovered = false;
        while off < self.config.max_off_time {
            let harvested = self.sampled_power() * dt;
            let absorbed = self.capacitor.charge(harvested);
            self.stats.shed += harvested - absorbed;
            self.stats.harvested += absorbed;
            harvested_total += absorbed;

            let leak = self.capacitor.leakage() * dt;
            self.stats.consumed += self.capacitor.discharge(leak);

            self.now += dt;
            off += dt;

            let stored = self.capacitor.stored();
            match self.monitor.state() {
                MonitorState::Hibernating if stored > self.e_rst_below => {
                    // Rising edge: `voltage() >= v_rst`. Feeding the monitor
                    // flips it to Operating, exactly as the per-step observe
                    // did.
                    self.monitor.observe(self.capacitor.voltage());
                    debug_assert_eq!(self.monitor.state(), MonitorState::Operating);
                    recovered = true;
                    break;
                }
                MonitorState::Operating if stored <= self.e_ckpt => {
                    // Falling edge: an outage entered while still Operating
                    // (a brown-out path) hibernates the monitor on the way
                    // down, as the per-step observe did. The loop continues.
                    self.monitor.observe(self.capacitor.voltage());
                }
                _ => {}
            }
        }
        if !recovered && off > Time::ZERO {
            // The reference loop fed the monitor every step; on an
            // unrecovered outage its last observation — the final step's
            // voltage, which cannot be an edge or that step would have
            // recovered or hibernated above — is the only one still visible
            // in the monitor's state. Reproduce it.
            self.monitor.observe(self.capacitor.voltage());
        }
        self.stats.off_time += off;
        self.stats.outages += 1;
        OutageOutcome {
            off_duration: off,
            harvested: harvested_total,
            recovered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantSource, SourceConfig, TracePreset};

    fn mk(source_mw: f64) -> EnergySystem {
        EnergySystem::new(
            EnergySystemConfig::paper_default(),
            ConstantSource::new(Power::from_milli_watts(source_mw)),
        )
        .expect("valid")
    }

    #[test]
    fn validation_catches_undersized_reserve() {
        let cfg = EnergySystemConfig::paper_default()
            .with_checkpoint_budget(Energy::from_micro_joules(100.0));
        assert!(matches!(
            cfg.validate(),
            Err(EnergyConfigError::InsufficientCheckpointReserve { .. })
        ));
    }

    #[test]
    fn heavy_load_triggers_checkpoint_request() {
        let mut sys = mk(0.0);
        let dt = Time::from_micros(10.0);
        let load = Power::from_milli_watts(5.0) * dt;
        let mut fired = false;
        for _ in 0..100_000 {
            match sys.step(dt, load) {
                StepEvent::CheckpointRequested => {
                    fired = true;
                    break;
                }
                StepEvent::BrownOut => panic!("monitor should fire before brown-out"),
                StepEvent::Running => {}
            }
        }
        assert!(fired);
        // Voltage at the trigger is at or just below V_ckpt but above V_min.
        let v = sys.voltage().as_volts();
        assert!(v <= 3.2 && v > 2.8, "v = {v}");
    }

    #[test]
    fn recharge_recovers_to_v_rst() {
        let mut sys = mk(0.0);
        let dt = Time::from_micros(10.0);
        let load = Power::from_milli_watts(5.0) * dt;
        while sys.step(dt, load) != StepEvent::CheckpointRequested {}
        // Re-enable a strong source for the recharge by swapping stats: use a
        // separate system instead (sources are immutable). Here harvesting is
        // zero, so recovery must fail within the horizon.
        let out = sys.power_off_and_recharge();
        assert!(!out.recovered);
        assert_eq!(sys.stats().outages, 1);
    }

    #[test]
    fn full_cycle_with_real_source() {
        let cfg = EnergySystemConfig::paper_default();
        let src = SourceConfig::preset(TracePreset::RfHome)
            .with_seed(11)
            .build();
        let mut sys = EnergySystem::new(cfg, src).expect("valid");
        let dt = Time::from_micros(5.0);
        let load = Power::from_milli_watts(4.0) * dt;
        let mut outages = 0;
        for _ in 0..2_000_000 {
            if sys.step(dt, load) == StepEvent::CheckpointRequested {
                sys.consume(Energy::from_nano_joules(200.0));
                let out = sys.power_off_and_recharge();
                assert!(out.recovered, "RFHome should recover eventually");
                outages += 1;
                if outages >= 5 {
                    break;
                }
            }
        }
        assert!(outages >= 5, "expected frequent outages on RFHome");
        assert!(sys.stats().off_time > Time::ZERO);
        assert!(sys.stats().harvested > Energy::ZERO);
    }

    #[test]
    fn infinite_energy_never_fails() {
        let mut sys = mk(100.0); // 100 mW >> any load
        let dt = Time::from_micros(10.0);
        let load = Power::from_milli_watts(4.0) * dt;
        for _ in 0..100_000 {
            assert_eq!(sys.step(dt, load), StepEvent::Running);
        }
        assert_eq!(sys.stats().outages, 0);
        // Buffer stays pinned at V_max and sheds the excess.
        assert!((sys.voltage().as_volts() - 3.5).abs() < 0.05);
        assert!(sys.stats().shed > Energy::ZERO);
    }

    fn mk_synthetic(seed: u64) -> EnergySystem {
        EnergySystem::new(
            EnergySystemConfig::paper_default(),
            SourceConfig::preset(TracePreset::RfHome)
                .with_seed(seed)
                .build(),
        )
        .expect("valid")
    }

    fn assert_state_identical(a: &EnergySystem, b: &EnergySystem) {
        assert_eq!(
            a.now().as_seconds().to_bits(),
            b.now().as_seconds().to_bits()
        );
        assert_eq!(
            a.voltage().as_volts().to_bits(),
            b.voltage().as_volts().to_bits()
        );
        assert_eq!(a.stored(), b.stored());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn step_burst_matches_looped_step_bit_for_bit() {
        let dt = Time::from_nanos(40.0);
        let load = Power::from_milli_watts(18.0) * dt;
        let freq = ehs_units::Frequency::from_mega_hertz(25.0);
        for seed in [0, 7, 41] {
            let mut burst = mk_synthetic(seed);
            let mut looped = mk_synthetic(seed);
            let mut overdraw = Energy::ZERO;
            let mut looped_overdraw = Energy::ZERO;
            let mut remaining = 50_000u64;
            while remaining > 0 {
                let n = remaining.min(1000);
                let plan = BurstPlan {
                    max_cycles: n,
                    dt,
                    load,
                    frequency: freq,
                    wake_at_cycle: None,
                    wake_below_voltage: None,
                };
                let (taken, event) = burst.step_burst(&plan, &mut overdraw);
                assert!(taken >= 1 && taken <= n);
                let mut looped_event = StepEvent::Running;
                for _ in 0..taken {
                    let before = looped.stats().consumed;
                    looped_event = looped.step(dt, load);
                    let drawn = looped.stats().consumed - before;
                    looped_overdraw += drawn.saturating_sub(load);
                }
                assert_eq!(event, looped_event);
                assert_state_identical(&burst, &looped);
                assert_eq!(overdraw, looped_overdraw);
                if event != StepEvent::Running {
                    // Ride the outage out identically on both systems.
                    let a = burst.power_off_and_recharge();
                    let b = looped.power_off_and_recharge();
                    assert_eq!(a, b);
                    assert_state_identical(&burst, &looped);
                    if !a.recovered {
                        break;
                    }
                }
                remaining -= taken;
            }
        }
    }

    #[test]
    fn step_burst_stops_below_wake_voltage() {
        let mut sys = mk(0.0); // zero harvest: voltage only falls
        let dt = Time::from_nanos(40.0);
        let load = Power::from_milli_watts(20.0) * dt;
        let guard = Voltage::from_base(3.45);
        let plan = BurstPlan {
            max_cycles: u64::MAX,
            dt,
            load,
            frequency: ehs_units::Frequency::from_mega_hertz(25.0),
            wake_at_cycle: None,
            wake_below_voltage: Some(guard),
        };
        let mut overdraw = Energy::ZERO;
        let (taken, event) = sys.step_burst(&plan, &mut overdraw);
        assert_eq!(event, StepEvent::Running);
        assert!(sys.voltage() < guard, "stopped on the crossing cycle");
        // The crossing is exact: one cycle earlier the voltage was >= guard.
        let mut replay = mk(0.0);
        for _ in 0..taken - 1 {
            let _ = replay.step(dt, load);
        }
        assert!(replay.voltage() >= guard);
    }

    #[test]
    fn step_burst_stops_at_wake_cycle() {
        let mut sys = mk(100.0);
        let dt = Time::from_nanos(40.0);
        let load = Power::from_milli_watts(4.0) * dt;
        let freq = ehs_units::Frequency::from_mega_hertz(25.0);
        let plan = BurstPlan {
            max_cycles: u64::MAX,
            dt,
            load,
            frequency: freq,
            wake_at_cycle: Some(1000),
            wake_below_voltage: None,
        };
        let mut overdraw = Energy::ZERO;
        let (taken, event) = sys.step_burst(&plan, &mut overdraw);
        assert_eq!(event, StepEvent::Running);
        let cycle = (sys.now() * freq) as u64;
        assert!(cycle >= 1000, "cycle {cycle}");
        assert!(taken <= 1001, "overshot the epoch boundary: {taken}");
    }

    #[test]
    fn step_burst_reports_monitor_crossing_cycle() {
        let mut burst = mk(0.0);
        let mut looped = mk(0.0);
        let dt = Time::from_micros(10.0);
        let load = Power::from_milli_watts(5.0) * dt;
        let plan = BurstPlan {
            max_cycles: u64::MAX,
            dt,
            load,
            frequency: ehs_units::Frequency::from_mega_hertz(25.0),
            wake_at_cycle: None,
            wake_below_voltage: None,
        };
        let mut overdraw = Energy::ZERO;
        let (taken, event) = burst.step_burst(&plan, &mut overdraw);
        assert_eq!(event, StepEvent::CheckpointRequested);
        let mut steps = 0u64;
        while looped.step(dt, load) == StepEvent::Running {
            steps += 1;
        }
        assert_eq!(taken, steps + 1, "monitor fired on a different cycle");
        assert_state_identical(&burst, &looped);
    }

    #[test]
    fn consume_draws_from_buffer() {
        let mut sys = mk(0.0);
        let before = sys.stored();
        let taken = sys.consume(Energy::from_nano_joules(100.0));
        assert_eq!(taken, Energy::from_nano_joules(100.0));
        assert!(sys.stored() < before);
    }

    #[test]
    fn elapse_operation_advances_clock_without_monitor() {
        let mut sys = mk(0.0);
        let t0 = sys.now();
        sys.elapse_operation(Time::from_micros(100.0));
        assert!(sys.now() > t0);
        assert_eq!(sys.stats().outages, 0);
    }

    #[test]
    fn stats_time_accounting_is_consistent() {
        let mut sys = mk(0.0);
        let dt = Time::from_micros(10.0);
        let load = Power::from_milli_watts(5.0) * dt;
        while sys.step(dt, load) != StepEvent::CheckpointRequested {}
        let _ = sys.power_off_and_recharge();
        let s = sys.stats();
        assert!(
            (s.total_time().as_seconds() - (s.on_time + s.off_time).as_seconds()).abs() < 1e-12
        );
        assert!((sys.now().as_seconds() - s.total_time().as_seconds()).abs() < 1e-9);
    }

    /// Verbatim copy of the original `power_off_and_recharge` loop — a
    /// `sqrt` voltage derivation and a monitor observation on *every*
    /// recharge step. Kept as the differential oracle for the edge-only
    /// implementation: both simulator regimes share the new code, so the
    /// sim-level burst-vs-cycle-accurate tests alone cannot catch a
    /// recharge-only bug.
    fn reference_recharge(sys: &mut EnergySystem) -> OutageOutcome {
        let dt = sys.config.recharge_step;
        let mut off = Time::ZERO;
        let mut harvested_total = Energy::ZERO;
        let mut recovered = false;
        while off < sys.config.max_off_time {
            let harvested = sys.sampled_power() * dt;
            let absorbed = sys.capacitor.charge(harvested);
            sys.stats.shed += harvested - absorbed;
            sys.stats.harvested += absorbed;
            harvested_total += absorbed;

            let leak = sys.capacitor.leakage() * dt;
            sys.stats.consumed += sys.capacitor.discharge(leak);

            sys.now += dt;
            off += dt;

            let v = sys.capacitor.voltage();
            if sys.monitor.observe(v) && sys.monitor.state() == MonitorState::Operating {
                recovered = true;
                break;
            }
        }
        sys.stats.off_time += off;
        sys.stats.outages += 1;
        OutageOutcome {
            off_duration: off,
            harvested: harvested_total,
            recovered,
        }
    }

    fn assert_state_and_monitor_identical(a: &EnergySystem, b: &EnergySystem) {
        assert_state_identical(a, b);
        assert_eq!(a.monitor, b.monitor, "monitor internals diverged");
    }

    #[test]
    fn recharge_matches_reference_loop_bit_for_bit() {
        // Short safety horizon so the unrecovered cases stay fast; small
        // enough that the zero-source runs hit the horizon, large enough
        // that the RF runs recover first.
        let mut cfg = EnergySystemConfig::paper_default();
        cfg.max_off_time = Time::from_seconds(0.25);
        fn mk_kind(cfg: &EnergySystemConfig, kind: u32) -> EnergySystem {
            match kind {
                0 => EnergySystem::new(
                    cfg.clone(),
                    ConstantSource::new(Power::from_milli_watts(0.5)),
                ),
                1 => EnergySystem::new(cfg.clone(), ConstantSource::new(Power::ZERO)),
                2 => EnergySystem::new(
                    cfg.clone(),
                    SourceConfig::preset(TracePreset::RfHome)
                        .with_seed(3)
                        .build(),
                ),
                _ => EnergySystem::new(
                    cfg.clone(),
                    SourceConfig::preset(TracePreset::RfOffice)
                        .with_seed(29)
                        .build(),
                ),
            }
            .expect("valid")
        }
        let dt = Time::from_micros(10.0);
        let load = Power::from_milli_watts(5.0) * dt;
        for kind in 0..4 {
            let mut reference = mk_kind(&cfg, kind);
            let mut rewritten = mk_kind(&cfg, kind);
            // Drain both identically into hibernation, then diff the whole
            // outage.
            while reference.step(dt, load) != StepEvent::CheckpointRequested {}
            while rewritten.step(dt, load) != StepEvent::CheckpointRequested {}
            assert_state_and_monitor_identical(&reference, &rewritten);
            let a = reference_recharge(&mut reference);
            let b = rewritten.power_off_and_recharge();
            assert_eq!(a, b);
            assert_state_and_monitor_identical(&reference, &rewritten);
        }
    }

    #[test]
    fn recharge_entered_while_operating_matches_reference() {
        // A brown-out path can start an outage with the monitor still
        // Operating: the falling edge must fire *inside* the recharge loop,
        // then the horizon expires unrecovered (zero source). Exercises the
        // edge-only monitor feeding and the final catch-up observation.
        let mut cfg = EnergySystemConfig::paper_default();
        cfg.max_off_time = Time::from_seconds(0.05);
        let mut reference =
            EnergySystem::new(cfg.clone(), ConstantSource::new(Power::ZERO)).unwrap();
        let mut rewritten = EnergySystem::new(cfg, ConstantSource::new(Power::ZERO)).unwrap();
        assert_eq!(reference.monitor_state(), MonitorState::Operating);
        let a = reference_recharge(&mut reference);
        let b = rewritten.power_off_and_recharge();
        assert_eq!(a, b);
        assert!(!a.recovered);
        assert_state_and_monitor_identical(&reference, &rewritten);
    }

    #[test]
    fn wake_cycle_image_matches_multiply_cast() {
        let mut sys = mk(0.0);
        let freq = ehs_units::Frequency::from_mega_hertz(25.0);
        let dt = Time::from_nanos(40.0);
        for c in [0u64, 1, 999, 1000, 1001, 1 << 40, u64::MAX] {
            let image = sys.wake_cycle_image(c, freq);
            // Probe times straddling the image (and a few fixed points):
            // the hoisted guard must agree with the original multiply+cast
            // at every probed instant.
            let mut probes = vec![
                Time::ZERO,
                dt,
                Time::from_seconds(4e-5),
                Time::from_seconds(1.0),
            ];
            let bits = image.base().to_bits();
            if image.base().is_finite() {
                probes.push(image);
                probes.push(Time::from_base(f64::from_bits(bits + 1)));
                if bits > 0 {
                    probes.push(Time::from_base(f64::from_bits(bits - 1)));
                }
            }
            for t in probes {
                let original = ((t * freq) as u64) >= c;
                let hoisted = t > image;
                assert_eq!(
                    original,
                    hoisted,
                    "c={c} t={}s: original {original}, hoisted {hoisted}",
                    t.base()
                );
            }
        }
        // Zero frequency: no finite time ever reaches cycle 1, so the guard
        // must never fire.
        let image = sys.wake_cycle_image(1, ehs_units::Frequency::from_base(0.0));
        assert!(Time::from_seconds(1e300) <= image);
    }
}
