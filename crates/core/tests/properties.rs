//! Property tests for the predictors and the zombie-aware accounting.

use edbp_core::{
    CacheDecay, DecayConfig, Edbp, EdbpConfig, LeakagePredictor, PredictionLedger,
    PredictionSummary,
};
use ehs_cache::{AccessKind, Cache, CacheConfig};
use ehs_units::Voltage;
use proptest::prelude::*;

/// Random ledger event streams must keep the summary internally consistent.
#[derive(Debug, Clone)]
enum LedgerOp {
    Fill(u64),
    Hit(u64),
    Miss(u64),
    Gate(u64),
    Evict(u64),
    PowerFail,
    Restore(u64),
}

fn ledger_op() -> impl Strategy<Value = LedgerOp> {
    let addr = (0u64..16).prop_map(|a| a * 16);
    prop_oneof![
        4 => addr.clone().prop_map(LedgerOp::Fill),
        4 => addr.clone().prop_map(LedgerOp::Hit),
        2 => addr.clone().prop_map(LedgerOp::Miss),
        2 => addr.clone().prop_map(LedgerOp::Gate),
        2 => addr.clone().prop_map(LedgerOp::Evict),
        1 => Just(LedgerOp::PowerFail),
        1 => addr.prop_map(LedgerOp::Restore),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ledger_counts_are_monotone_and_rates_bounded(
        ops in proptest::collection::vec(ledger_op(), 1..300)
    ) {
        let mut ledger = PredictionLedger::new();
        let mut prev = PredictionSummary::default();
        for op in ops {
            match op {
                LedgerOp::Fill(a) => ledger.on_fill(a),
                LedgerOp::Hit(a) => ledger.on_hit(a),
                LedgerOp::Miss(a) => ledger.on_miss(a),
                LedgerOp::Gate(a) => ledger.on_gate(a),
                LedgerOp::Evict(a) => ledger.on_evict(a),
                LedgerOp::PowerFail => ledger.on_power_fail(),
                LedgerOp::Restore(a) => ledger.on_restore(a),
            }
            let s = ledger.summary();
            // Counters never decrease.
            prop_assert!(s.true_positives >= prev.true_positives);
            prop_assert!(s.false_positives >= prev.false_positives);
            prop_assert!(s.true_negatives >= prev.true_negatives);
            prop_assert!(s.false_negatives_dead >= prev.false_negatives_dead);
            prop_assert!(s.missed_zombies >= prev.missed_zombies);
            // Rates stay in [0, 1]; fractions sum to 1 when nonempty.
            prop_assert!((0.0..=1.0).contains(&s.coverage()));
            prop_assert!((0.0..=1.0).contains(&s.accuracy()));
            if s.total() > 0 {
                let sum: f64 = s.fractions().iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
            prev = s;
        }
    }

    #[test]
    fn edbp_threshold_count_tracks_voltage_monotonically(
        millivolts in proptest::collection::vec(3150u32..3500, 1..100)
    ) {
        // Feeding a decreasing voltage sequence must never lower the level.
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        let mut sorted = millivolts;
        sorted.sort_unstable_by(|a, b| b.cmp(a)); // descending voltage
        let mut last_level = 0;
        for mv in sorted {
            let v = Voltage::from_milli_volts(f64::from(mv));
            let _ = edbp.tick(&mut cache, v, 0);
            prop_assert!(edbp.level() >= last_level, "level must ratchet");
            prop_assert!(edbp.level() <= edbp.thresholds().len());
            last_level = edbp.level();
        }
    }

    #[test]
    fn edbp_never_gates_the_mru_block(
        fills in proptest::collection::vec(0u64..8, 4..40),
        mv in 3150u32..3500,
    ) {
        // Whatever was touched last in each set must survive any single tick.
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        let mut last_in_set0 = None;
        for slot in fills {
            let addr = slot * 0x400; // all map to set 0
            if !cache.lookup(addr, AccessKind::Read, |_, _| {}).is_hit() {
                cache.fill(addr, &[0u8; 16], false);
            }
            last_in_set0 = Some(addr);
        }
        let _ = edbp.tick(&mut cache, Voltage::from_milli_volts(f64::from(mv)), 0);
        prop_assert!(
            cache.contains(last_in_set0.expect("filled at least once")).is_some(),
            "MRU block was gated"
        );
    }

    #[test]
    fn edbp_thresholds_stay_ordered_and_floored_across_cycles(
        fprs in proptest::collection::vec(any::<bool>(), 1..30)
    ) {
        // Any history of hostile/benign power cycles keeps the ladder sane.
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut cfg = EdbpConfig::for_cache(&cache);
        cfg.sample_set = 0;
        let floor = cfg.floor;
        let mut edbp = Edbp::new(cfg);
        for hostile in fprs {
            // Fill set 0 and cross all thresholds.
            for i in 0..4u64 {
                let addr = i * 0x400;
                if !cache.lookup(addr, AccessKind::Read, |_, _| {}).is_hit() {
                    cache.fill(addr, &[0u8; 16], false);
                }
            }
            let _ = edbp.tick(&mut cache, Voltage::from_volts(3.19), 0);
            if hostile {
                for i in 0..4u64 {
                    edbp.on_miss(i * 0x400);
                }
            }
            cache.power_fail();
            edbp.on_reboot(&cache);
            for pair in edbp.thresholds().windows(2) {
                // Clamping at the floor may flatten the bottom of the
                // ladder; above the floor it stays strictly descending.
                prop_assert!(pair[0] >= pair[1], "ladder must stay ordered");
                if pair[1] > floor {
                    prop_assert!(pair[0] > pair[1], "ladder must descend above the floor");
                }
            }
            prop_assert!(*edbp.thresholds().last().expect("non-empty") >= floor);
        }
    }

    #[test]
    fn decay_gates_are_idle_blocks_only(
        touched in proptest::collection::vec(0u64..16, 1..50)
    ) {
        // Blocks accessed within the last global tick are never gated by the
        // immediately following tick.
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut decay = CacheDecay::new(
            DecayConfig { decay_interval_cycles: 4096 },
            &cache,
        );
        let v = Voltage::from_volts(3.5);
        // Age everything to the brink.
        let _ = decay.tick(&mut cache, v, 3 * 1024);
        // Touch a subset.
        let mut touched_addrs = Vec::new();
        for slot in touched {
            let addr = slot * 16;
            match cache.lookup(addr, AccessKind::Read, |_, _| {}) {
                ehs_cache::LookupResult::Hit(block) => decay.on_hit(&cache, block, addr),
                ehs_cache::LookupResult::Miss { .. } => {
                    let id = cache.fill(addr, &[0u8; 16], false);
                    decay.on_fill(&cache, id, addr);
                }
            }
            touched_addrs.push(addr);
        }
        let out = decay.tick(&mut cache, v, 4 * 1024);
        for g in &out.gated {
            prop_assert!(
                !touched_addrs.contains(&g.addr),
                "freshly touched block {:#x} was gated",
                g.addr
            );
        }
    }
}
