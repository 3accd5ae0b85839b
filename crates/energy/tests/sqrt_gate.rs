//! Pins the hot paths to the stored-energy domain: `power_off_and_recharge`
//! must perform **zero** `sqrt` voltage derivations on non-edge recharge
//! steps, and burst stepping must derive voltages only on monitor-edge
//! cycles.
//!
//! The probe is the process-wide counter behind
//! [`ehs_energy::voltage_sqrt_count`]. It is shared across threads, so every
//! scenario lives in this one test function — this file is its own test
//! binary and nothing else in it touches a capacitor concurrently.

use ehs_energy::{
    voltage_sqrt_count, BurstPlan, ConstantSource, EnergySystem, EnergySystemConfig, StepEvent,
};
use ehs_units::{Energy, Frequency, Power, Time};

fn drain_to_checkpoint(sys: &mut EnergySystem, dt: Time, load: Energy) -> u64 {
    let mut steps = 0;
    while sys.step(dt, load) != StepEvent::CheckpointRequested {
        steps += 1;
    }
    steps
}

#[test]
fn hot_paths_stay_in_the_energy_domain() {
    let dt = Time::from_micros(10.0);
    let load = Power::from_milli_watts(5.0) * dt;

    // --- Recharge: many steps, exactly one edge (the recovery). ---
    let mut sys = EnergySystem::new(
        EnergySystemConfig::paper_default(),
        ConstantSource::new(Power::from_milli_watts(0.5)),
    )
    .expect("valid");
    drain_to_checkpoint(&mut sys, dt, load);
    let before = voltage_sqrt_count();
    let out = sys.power_off_and_recharge();
    let derivations = voltage_sqrt_count() - before;
    let steps =
        (out.off_duration.as_seconds() / sys.config().recharge_step.as_seconds()).round() as u64;
    assert!(out.recovered);
    assert!(steps > 50, "want a long recharge, got {steps} steps");
    assert_eq!(
        derivations, 1,
        "recharge must derive a voltage only on \
             the recovery edge, got {derivations} over {steps} steps"
    );

    // --- Unrecovered horizon: only the final catch-up observation. ---
    let mut cfg = EnergySystemConfig::paper_default();
    cfg.max_off_time = Time::from_seconds(0.05);
    let mut sys = EnergySystem::new(cfg, ConstantSource::new(Power::ZERO)).expect("valid");
    drain_to_checkpoint(&mut sys, dt, load);
    let before = voltage_sqrt_count();
    let out = sys.power_off_and_recharge();
    let derivations = voltage_sqrt_count() - before;
    assert!(!out.recovered);
    assert_eq!(
        derivations, 1,
        "an unrecovered outage derives exactly \
             the one catch-up voltage, got {derivations}"
    );

    // --- Burst stepping: no voltage work on event-free cycles. ---
    let mut sys = EnergySystem::new(
        EnergySystemConfig::paper_default(),
        ConstantSource::new(Power::from_milli_watts(100.0)),
    )
    .expect("valid");
    let plan = BurstPlan {
        max_cycles: 100_000,
        dt: Time::from_nanos(40.0),
        load: Power::from_milli_watts(1.0) * Time::from_nanos(40.0),
        frequency: Frequency::from_mega_hertz(25.0),
        wake_at_cycle: None,
        wake_below_voltage: None,
    };
    let mut overdraw = Energy::ZERO;
    let before = voltage_sqrt_count();
    let (taken, event) = sys.step_burst(&plan, &mut overdraw);
    let derivations = voltage_sqrt_count() - before;
    assert_eq!((taken, event), (100_000, StepEvent::Running));
    assert_eq!(
        derivations, 0,
        "an event-free burst derives no voltages, \
             got {derivations}"
    );
}
