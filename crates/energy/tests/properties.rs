//! Property tests for the harvesting subsystem: physical invariants that
//! must hold under any load/harvest schedule.

use ehs_energy::{
    BurstPlan, Capacitor, CapacitorConfig, EnergySystem, EnergySystemConfig, MonitorState,
    SampledTrace, SourceConfig, StepEvent, TracePreset, VoltageMonitor, VoltageThresholds,
};
use ehs_units::{Energy, Frequency, Power, Time, Voltage};
use proptest::prelude::*;

/// Reference capacitor: saturate at capacity and clamp at zero through
/// `min`/`max` on every call. The branchy `Capacitor::charge`/`discharge`
/// must reproduce it bit for bit; the burst-vs-steps properties cannot
/// check that, because both of their sides call the same capacitor.
#[derive(Debug)]
struct MinMaxCapacitor {
    stored: f64,
    capacity: f64,
}

impl MinMaxCapacitor {
    fn charge(&mut self, e: f64) -> f64 {
        let absorbed = e.min((self.capacity - self.stored).max(0.0));
        self.stored += absorbed;
        absorbed
    }

    fn discharge(&mut self, e: f64) -> f64 {
        let delivered = e.min(self.stored);
        self.stored -= delivered;
        delivered
    }
}

/// One capacitor operation aimed at an edge of the saturating arithmetic,
/// sized from the capacitor's current state.
#[derive(Debug, Clone, Copy)]
enum CapOp {
    /// Charge exactly the headroom (`e == headroom`): fills the buffer.
    ChargeHeadroom,
    /// Charge past the headroom (`e > headroom`), by `f` (at least 1e-12)
    /// of a full buffer's worth.
    ChargeOver(f64),
    /// Charge a fraction `f` of the headroom.
    ChargeUnder(f64),
    /// Charge a full buffer's worth times `1 + f`: fills the buffer from any
    /// state, and overflows the headroom from any state when `f > 0`.
    ChargeLarge(f64),
    /// Discharge exactly the store (`e == stored`): empties it.
    DischargeStored,
    /// Discharge past the store (`e > stored`), by `f` (at least 1e-12) of a
    /// full buffer's worth.
    DischargeOver(f64),
    /// Discharge a fraction `f` of the store.
    DischargeUnder(f64),
    /// Charge or discharge nothing.
    Zero(bool),
}

/// Applies `op` to both capacitors and checks the returned energy and the
/// new store agree to the bit.
fn apply_both(cap: &mut Capacitor, model: &mut MinMaxCapacitor, op: CapOp) -> Result<(), String> {
    let headroom = (cap.capacity() - cap.stored()).as_joules();
    let stored = cap.stored().as_joules();
    let (charge, e) = match op {
        CapOp::ChargeHeadroom => (true, headroom),
        CapOp::ChargeOver(f) => (true, headroom + cap.capacity().as_joules() * f.max(1e-12)),
        CapOp::ChargeUnder(f) => (true, headroom * f),
        CapOp::ChargeLarge(f) => (true, cap.capacity().as_joules() * (1.0 + f)),
        CapOp::DischargeStored => (false, stored),
        CapOp::DischargeOver(f) => (false, stored + cap.capacity().as_joules() * f.max(1e-12)),
        CapOp::DischargeUnder(f) => (false, stored * f),
        CapOp::Zero(charge) => (charge, 0.0),
    };
    let e = e.max(0.0);
    let (got, want) = if charge {
        (cap.charge(Energy::from_joules(e)), model.charge(e))
    } else {
        (cap.discharge(Energy::from_joules(e)), model.discharge(e))
    };
    if got.as_joules().to_bits() != want.to_bits() {
        return Err(format!(
            "{op:?} with e = {e:e}: returned {got:?}, min/max gives {want:e}"
        ));
    }
    if cap.stored().as_joules().to_bits() != model.stored.to_bits() {
        return Err(format!(
            "{op:?} with e = {e:e}: stored {:?}, min/max gives {:e}",
            cap.stored(),
            model.stored
        ));
    }
    Ok(())
}

fn cap_op() -> impl Strategy<Value = CapOp> {
    (0u8..8, 0.0..1.0f64).prop_map(|(kind, f)| match kind {
        0 => CapOp::ChargeHeadroom,
        1 => CapOp::ChargeOver(f),
        2 => CapOp::ChargeUnder(f),
        3 => CapOp::ChargeLarge(f),
        4 => CapOp::DischargeStored,
        5 => CapOp::DischargeOver(f),
        6 => CapOp::DischargeUnder(f),
        _ => CapOp::Zero(f < 0.5),
    })
}

#[test]
fn branchy_capacitor_matches_min_max_on_each_edge() {
    use CapOp::*;
    let mut cap = Capacitor::charged_to(CapacitorConfig::paper_default(), Voltage::from_volts(3.1));
    let mut model = MinMaxCapacitor {
        stored: cap.stored().as_joules(),
        capacity: cap.capacity().as_joules(),
    };
    // Each step names the edge it reaches or crosses, and the store it
    // must leave: full (`Some(true)`), empty (`Some(false)`) or between.
    let walk = [
        (ChargeHeadroom, "e == headroom", Some(true)),
        (ChargeUnder(0.5), "charging a full capacitor", Some(true)),
        (
            ChargeOver(0.25),
            "e > headroom on a full capacitor",
            Some(true),
        ),
        (Zero(true), "charging nothing when full", Some(true)),
        (DischargeUnder(0.3), "a partial draw", None),
        (ChargeOver(0.1), "e > headroom below capacity", Some(true)),
        (DischargeStored, "e == stored", Some(false)),
        (
            DischargeUnder(0.5),
            "discharging at stored == 0",
            Some(false),
        ),
        (DischargeOver(0.2), "e > stored at stored == 0", Some(false)),
        (Zero(false), "discharging nothing when empty", Some(false)),
        (ChargeUnder(0.4), "charging from stored == 0", None),
        (DischargeOver(0.01), "e > stored", Some(false)),
        (ChargeLarge(0.5), "e > headroom from empty", Some(true)),
    ];
    for (op, edge, full) in walk {
        if let Err(msg) = apply_both(&mut cap, &mut model, op) {
            panic!("{edge}: {msg}");
        }
        match full {
            Some(true) => assert_eq!(cap.stored(), cap.capacity(), "{edge} leaves it full"),
            Some(false) => assert_eq!(cap.stored(), Energy::ZERO, "{edge} leaves it empty"),
            None => assert!(cap.stored() > Energy::ZERO && cap.stored() < cap.capacity()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branchy_capacitor_matches_min_max_bitwise(
        start_v in 0.0..3.6f64,
        ops in proptest::collection::vec(cap_op(), 1..200),
    ) {
        let mut cap =
            Capacitor::charged_to(CapacitorConfig::paper_default(), Voltage::from_volts(start_v));
        let mut model = MinMaxCapacitor {
            stored: cap.stored().as_joules(),
            capacity: cap.capacity().as_joules(),
        };
        for op in ops {
            let checked = apply_both(&mut cap, &mut model, op);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn capacitor_charge_is_always_within_bounds(
        ops in proptest::collection::vec((any::<bool>(), 0.0..5e-6f64), 1..200)
    ) {
        let mut cap = Capacitor::fully_charged(CapacitorConfig::paper_default());
        let capacity = cap.capacity();
        for (is_charge, joules) in ops {
            let e = Energy::from_joules(joules);
            if is_charge {
                let absorbed = cap.charge(e);
                prop_assert!(absorbed <= e);
            } else {
                let delivered = cap.discharge(e);
                prop_assert!(delivered <= e);
            }
            prop_assert!(cap.stored() >= Energy::ZERO);
            prop_assert!(cap.stored() <= capacity);
            let v = cap.voltage().as_volts();
            prop_assert!((0.0..=3.5 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn monitor_alternates_strictly(
        samples in proptest::collection::vec(2.5..3.6f64, 1..300)
    ) {
        let mut monitor = VoltageMonitor::new(VoltageThresholds::paper_default());
        let mut last_state = monitor.state();
        for v in samples {
            let fired = monitor.observe(Voltage::from_volts(v));
            let state = monitor.state();
            // An edge fires exactly when the state changes.
            prop_assert_eq!(fired, state != last_state);
            // State semantics: hibernating only at/below ckpt or awaiting
            // restore; operating only after crossing restore.
            if fired && state == MonitorState::Hibernating {
                prop_assert!(v <= 3.2);
            }
            if fired && state == MonitorState::Operating {
                prop_assert!(v >= 3.4);
            }
            last_state = state;
        }
    }

    #[test]
    fn energy_system_conserves_energy(
        loads in proptest::collection::vec(0.0..2e-7f64, 10..500),
        seed in 0u64..1000,
    ) {
        let config = EnergySystemConfig::paper_default();
        let source = SourceConfig::preset(TracePreset::RfHome).with_seed(seed).build();
        let mut system = EnergySystem::new(config, source).expect("valid");
        let initial = system.stored();
        let dt = Time::from_micros(20.0);
        for joules in loads {
            let event = system.step(dt, Energy::from_joules(joules));
            if event == ehs_energy::StepEvent::CheckpointRequested {
                system.power_off_and_recharge();
            }
        }
        // Conservation: every absorbed joule is either still stored or was
        // consumed (shed energy never entered the buffer).
        let s = system.stats();
        let lhs = initial + s.harvested;
        let rhs = system.stored() + s.consumed;
        let scale = lhs.as_joules().abs().max(1e-12);
        prop_assert!(
            (lhs.as_joules() - rhs.as_joules()).abs() / scale < 1e-6,
            "energy books do not balance: {lhs} vs {rhs}"
        );
        // Voltage stays within the physical rails.
        let v = system.voltage().as_volts();
        prop_assert!((0.0..=3.5 + 1e-9).contains(&v));
    }

    #[test]
    fn synthetic_traces_are_nonnegative_and_deterministic(
        seed in 0u64..500,
        times in proptest::collection::vec(0.0..10.0f64, 1..100)
    ) {
        for preset in TracePreset::ALL {
            let a = SourceConfig::preset(preset).with_seed(seed).build();
            let b = SourceConfig::preset(preset).with_seed(seed).build();
            for &t in &times {
                use ehs_energy::EnergySource;
                let time = Time::from_seconds(t);
                let pa = a.power_at(time);
                prop_assert!(pa >= Power::ZERO);
                prop_assert_eq!(pa, b.power_at(time));
            }
        }
    }

    #[test]
    fn step_burst_is_bitwise_n_steps(
        seed in 0u64..200,
        load_mw in 0.5..25.0f64,
        bursts in proptest::collection::vec(1u64..400, 1..20),
    ) {
        // step_burst(n) must be indistinguishable — to the last f64 bit —
        // from n individual step() calls, including the overdraw (capacitor
        // self-discharge) accumulator the simulator keeps alongside.
        let config = EnergySystemConfig::paper_default();
        let mk = || {
            let source = SourceConfig::preset(TracePreset::RfHome).with_seed(seed).build();
            EnergySystem::new(config.clone(), source).expect("valid")
        };
        let mut fast = mk();
        let mut slow = mk();
        let dt = Time::from_nanos(40.0);
        let load = Power::from_milli_watts(load_mw) * dt;
        let mut fast_overdraw = Energy::ZERO;
        let mut slow_overdraw = Energy::ZERO;
        for n in bursts {
            let plan = BurstPlan {
                max_cycles: n,
                dt,
                load,
                frequency: Frequency::from_mega_hertz(25.0),
                wake_at_cycle: None,
                wake_below_voltage: None,
            };
            let (taken, event) = fast.step_burst(&plan, &mut fast_overdraw);
            prop_assert!(taken >= 1 && taken <= n);
            // An early exit is only ever caused by a non-Running event.
            prop_assert!(taken == n || event != StepEvent::Running);
            let mut slow_event = StepEvent::Running;
            for _ in 0..taken {
                let before = slow.stats().consumed;
                slow_event = slow.step(dt, load);
                let drawn = slow.stats().consumed - before;
                slow_overdraw += drawn.saturating_sub(load);
            }
            prop_assert_eq!(event, slow_event);
            prop_assert_eq!(
                fast.now().as_seconds().to_bits(),
                slow.now().as_seconds().to_bits()
            );
            prop_assert_eq!(
                fast.voltage().as_volts().to_bits(),
                slow.voltage().as_volts().to_bits()
            );
            prop_assert_eq!(fast.stored(), slow.stored());
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(fast_overdraw, slow_overdraw);
            if event != StepEvent::Running {
                let a = fast.power_off_and_recharge();
                let b = slow.power_off_and_recharge();
                prop_assert_eq!(a, b);
                if !a.recovered {
                    break;
                }
            }
        }
    }

    #[test]
    fn step_burst_wake_conditions_never_overshoot(
        seed in 0u64..100,
        wake_cycle in 1u64..2000,
        guard_v in 3.30..3.49f64,
    ) {
        // With wake conditions armed, the burst must stop on exactly the
        // first cycle that satisfies one (or an event fires), never later.
        let config = EnergySystemConfig::paper_default();
        let source = SourceConfig::preset(TracePreset::RfOffice).with_seed(seed).build();
        let mut sys = EnergySystem::new(config, source).expect("valid");
        let dt = Time::from_nanos(40.0);
        let load = Power::from_milli_watts(20.0) * dt;
        let freq = Frequency::from_mega_hertz(25.0);
        let guard = Voltage::from_volts(guard_v);
        let plan = BurstPlan {
            max_cycles: u64::MAX,
            dt,
            load,
            frequency: freq,
            wake_at_cycle: Some(wake_cycle),
            wake_below_voltage: Some(guard),
        };
        let mut overdraw = Energy::ZERO;
        let (taken, event) = sys.step_burst(&plan, &mut overdraw);
        prop_assert!(taken >= 1);
        let cycle = (sys.now() * freq) as u64;
        let stopped_by_wake = cycle >= wake_cycle || sys.voltage() < guard;
        prop_assert!(stopped_by_wake || event != StepEvent::Running);
        // No overshoot: replaying taken-1 cycles must satisfy *no* stop
        // condition (otherwise the burst ran past a wakeup).
        if taken > 1 {
            let source = SourceConfig::preset(TracePreset::RfOffice).with_seed(seed).build();
            let mut replay = EnergySystem::new(EnergySystemConfig::paper_default(), source)
                .expect("valid");
            for _ in 0..taken - 1 {
                prop_assert_eq!(replay.step(dt, load), StepEvent::Running);
            }
            let replay_cycle = (replay.now() * freq) as u64;
            prop_assert!(replay_cycle < wake_cycle);
            prop_assert!(replay.voltage() >= guard);
        }
    }

    #[test]
    fn sampled_trace_wraps_consistently(
        samples in proptest::collection::vec(0.0..0.05f64, 1..50),
        k in 0u32..5,
    ) {
        use ehs_energy::EnergySource;
        let period = Time::from_millis(1.0);
        let trace = SampledTrace::new(
            "prop",
            period,
            samples.iter().map(|&w| Power::from_watts(w)).collect(),
        );
        let len = samples.len() as f64;
        for (i, &w) in samples.iter().enumerate() {
            let t = Time::from_millis(i as f64 + 0.5 + f64::from(k) * len);
            prop_assert_eq!(trace.power_at(t).as_watts(), w);
        }
    }
}
