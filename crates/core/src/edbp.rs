//! EDBP — the paper's contribution: voltage-guided zombie-block deactivation.

use crate::{GatedBlock, LeakagePredictor, TickOutcome, WakeHint};
use ehs_cache::{Cache, GateResult, WayView, MAX_WAYS};
use ehs_units::Voltage;
use std::collections::VecDeque;

/// Configuration of [`Edbp`].
///
/// For an `n`-way cache EDBP arms `n-1` voltage thresholds, highest first
/// (Section V-B): dipping below threshold `i` gates the `i` LRU-most *clean*
/// blocks of every set; dipping below the last threshold gates **all**
/// non-MRU blocks, dirty ones included (after write-back). A direct-mapped
/// cache gets a single threshold that deactivates every block.
#[derive(Debug, Clone, PartialEq)]
pub struct EdbpConfig {
    /// Thresholds in strictly descending order; length is `ways - 1`
    /// (or 1 for a direct-mapped cache).
    pub initial_thresholds: Vec<Voltage>,
    /// How much every threshold is lowered when the false-positive rate
    /// exceeds [`EdbpConfig::reference_fpr`] (paper: 50 mV).
    pub adjustment_step: Voltage,
    /// The reference false-positive rate of the adaptation loop.
    pub reference_fpr: f64,
    /// Thresholds are never adjusted below this voltage (the JIT checkpoint
    /// threshold — below it the system is checkpointing anyway).
    pub floor: Voltage,
    /// The single cache set whose statistics feed the adaptation (Section
    /// V-B1's sampling mechanism).
    pub sample_set: u32,
    /// Capacity of the SRAM deactivation buffer (paper default: 8).
    pub deactivation_buffer_entries: usize,
    /// Never gate the MRU block (Section V-B's reuse heuristic). Disabling
    /// this is an ablation, not a paper configuration.
    pub protect_mru: bool,
    /// Only gate clean blocks at the intermediate thresholds (Section V-A's
    /// second principle). Disabling this is an ablation.
    pub clean_first: bool,
}

impl EdbpConfig {
    /// Default thresholds for a cache with `ways` ways: evenly spaced from
    /// 3.30 V down to 3.24 V (between the paper's restore and checkpoint
    /// thresholds), 50 mV adaptation step, 5% reference FPR, 3.2 V floor.
    pub fn for_ways(ways: u8) -> Self {
        let count = usize::from(ways.max(2)) - 1;
        let hi = 3.30;
        let lo = 3.24;
        let thresholds = if ways <= 1 {
            vec![Voltage::from_volts(lo)]
        } else if count == 1 {
            vec![Voltage::from_volts((hi + lo) / 2.0)]
        } else {
            (0..count)
                .map(|i| {
                    let f = i as f64 / (count - 1) as f64;
                    Voltage::from_volts(hi - f * (hi - lo))
                })
                .collect()
        };
        Self {
            initial_thresholds: thresholds,
            adjustment_step: Voltage::from_milli_volts(50.0),
            reference_fpr: 0.05,
            floor: Voltage::from_volts(3.2),
            sample_set: 0,
            deactivation_buffer_entries: 8,
            protect_mru: true,
            clean_first: true,
        }
    }

    /// Default configuration sized for `cache`.
    pub fn for_cache(cache: &Cache) -> Self {
        let mut cfg = Self::for_ways(cache.ways());
        // Sample a mid-index set so leader sets of dueling policies (set 0)
        // do not double as the EDBP sample.
        cfg.sample_set = cache.sets() / 2;
        cfg
    }

    /// Validates that thresholds are strictly descending and above the floor.
    ///
    /// # Panics
    ///
    /// Panics on violation; configurations are built by code, not users, so
    /// this is a programming error.
    fn assert_valid(&self) {
        assert!(
            !self.initial_thresholds.is_empty(),
            "EDBP needs at least one threshold"
        );
        for pair in self.initial_thresholds.windows(2) {
            assert!(
                pair[0] > pair[1],
                "thresholds must be strictly descending: {:?}",
                self.initial_thresholds
            );
        }
        assert!(
            *self.initial_thresholds.last().expect("non-empty") >= self.floor,
            "lowest threshold below the adjustment floor"
        );
        assert!(
            self.deactivation_buffer_entries > 0,
            "buffer cannot be empty"
        );
        assert!(
            (0.0..=1.0).contains(&self.reference_fpr),
            "reference FPR must be a rate"
        );
    }
}

/// The EDBP predictor (Section V).
///
/// EDBP is dormant while the supply is healthy; the conventional predictor
/// (if any) owns that regime. As the capacitor voltage decays through the
/// armed thresholds, EDBP sweeps the cache and power-gates blocks that are
/// about to become zombies, most-expendable first:
///
/// 1. near-LRU **clean** blocks at the higher thresholds (cheap to kill —
///    no write-back — and least likely to be re-referenced in the little
///    time left);
/// 2. every **non-MRU** block, dirty included, at the lowest threshold
///    (outage is imminent; write-back now is work the JIT checkpoint would
///    have done anyway);
/// 3. the MRU block is never touched (Section V-B's reuse heuristic).
///
/// The threshold ladder re-arms at every reboot, and its rungs move: if the
/// sampled false-positive rate of the previous power cycle exceeded the
/// reference, all thresholds drop by 50 mV (kill later, more conservatively);
/// otherwise they return to their initial values.
#[derive(Debug, Clone)]
pub struct Edbp {
    config: EdbpConfig,
    /// Current (possibly adapted) thresholds, descending.
    thresholds: Vec<Voltage>,
    /// How many thresholds have been crossed this power cycle (ratchets up).
    level: usize,
    /// R_WrongKill: sampled-set blocks gated this cycle and re-requested.
    wrong_kill: u64,
    /// R_Total: sampled-set blocks gated this cycle.
    total_predicted: u64,
    /// R_FPR: last computed false-positive rate.
    fpr: f64,
    /// The SRAM deactivation buffer of sampled-set gated addresses.
    buffer: VecDeque<u64>,
}

impl Edbp {
    /// Creates an EDBP instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (thresholds
    /// not descending, empty buffer, FPR not a rate).
    pub fn new(config: EdbpConfig) -> Self {
        config.assert_valid();
        Self {
            thresholds: config.initial_thresholds.clone(),
            level: 0,
            wrong_kill: 0,
            total_predicted: 0,
            fpr: 0.0,
            buffer: VecDeque::with_capacity(config.deactivation_buffer_entries),
            config,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &EdbpConfig {
        &self.config
    }

    /// The currently armed thresholds (after adaptation), descending.
    pub fn thresholds(&self) -> &[Voltage] {
        &self.thresholds
    }

    /// Number of thresholds currently crossed this power cycle.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The false-positive rate computed at the last reboot (R_FPR).
    pub fn false_positive_rate(&self) -> f64 {
        self.fpr
    }

    /// Applies one threshold level: sweeps every set and gates the blocks
    /// that level condemns, appending to `out`.
    fn apply_level(&mut self, cache: &mut Cache, level: usize, out: &mut TickOutcome) {
        let mut views = [WayView::default(); MAX_WAYS];
        let ways = cache.ways();
        let last_level = self.thresholds.len();
        let is_last = level == last_level;
        for set in 0..cache.sets() {
            let n = cache.set_view_into(set, &mut views);
            for view in &views[..n] {
                if !view.valid {
                    continue;
                }
                let min_rank = if self.config.protect_mru { 1 } else { 0 };
                let condemned = if ways == 1 {
                    // Direct-mapped: the single threshold kills everything.
                    true
                } else if is_last {
                    // Lowest threshold: all non-MRU blocks, dirty included.
                    view.rank >= min_rank
                } else {
                    // Threshold i: the i LRU-most blocks, clean only, never
                    // the MRU block.
                    view.rank >= min_rank
                        && u32::from(view.rank) >= u32::from(ways) - level as u32
                        && (!self.config.clean_first || !view.dirty)
                };
                if !condemned {
                    continue;
                }
                // On NVSRAM, a gated dirty block is parked in its
                // nonvolatile twin, not spilled to main memory (the sink
                // fires only for a dirty valid block).
                let parked = &mut out.parked;
                match cache.gate(view.block, |addr, data| parked.push(addr, data)) {
                    GateResult::GatedValid { addr, dirty } => {
                        if set == self.config.sample_set {
                            self.total_predicted += 1;
                            if self.buffer.len() == self.config.deactivation_buffer_entries {
                                self.buffer.pop_front();
                            }
                            self.buffer.push_back(addr);
                        }
                        out.gated.push(GatedBlock { addr, dirty });
                    }
                    GateResult::GatedInvalid | GateResult::AlreadyGated => {}
                }
            }
        }
    }
}

impl LeakagePredictor for Edbp {
    fn name(&self) -> &'static str {
        "edbp"
    }

    fn on_miss(&mut self, addr: u64) {
        // A request for an address we deactivated this cycle is a wrong kill
        // (the block was live). The buffer only holds sample-set addresses.
        if let Some(pos) = self.buffer.iter().position(|&a| a == addr) {
            self.buffer.remove(pos);
            self.wrong_kill += 1;
        }
    }

    fn tick_into(
        &mut self,
        cache: &mut Cache,
        voltage: Voltage,
        _cycle: u64,
        out: &mut TickOutcome,
    ) {
        let crossed = self.thresholds.iter().take_while(|&&t| voltage < t).count();
        while self.level < crossed {
            self.level += 1;
            let level = self.level;
            self.apply_level(cache, level, out);
        }
    }

    fn next_wakeup(&self) -> WakeHint {
        // tick() only acts when the voltage drops strictly below the next
        // un-crossed threshold (the ladder is descending, so `take_while`
        // cannot pass `crossed` beyond `level` before that). With every rung
        // crossed, EDBP is done for this power cycle.
        WakeHint {
            at_cycle: None,
            below_voltage: self.thresholds.get(self.level).copied(),
            every_cycle: false,
        }
    }

    fn on_reboot(&mut self, _cache: &Cache) {
        // Section V-B1: the FPR is computed in the wake of the failure from
        // the checkpointed statistics, and the thresholds adapt.
        if self.total_predicted > 0 {
            self.fpr = self.wrong_kill as f64 / self.total_predicted as f64;
        }
        if self.total_predicted > 0 && self.fpr > self.config.reference_fpr {
            for (t, init) in self
                .thresholds
                .iter_mut()
                .zip(&self.config.initial_thresholds)
            {
                let lowered = *t - self.config.adjustment_step;
                *t = lowered.max(self.config.floor).min(*init);
            }
        } else {
            // Not over-killing: restore initial thresholds if lowered.
            // `clone_from` reuses the existing buffer (lengths always match),
            // keeping the reboot path allocation-free.
            self.thresholds.clone_from(&self.config.initial_thresholds);
        }
        self.wrong_kill = 0;
        self.total_predicted = 0;
        self.buffer.clear();
        self.level = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::{AccessKind, CacheConfig, CacheGeometry, ReplacementPolicy};

    fn volts(v: f64) -> Voltage {
        Voltage::from_volts(v)
    }

    fn cache_4way() -> Cache {
        Cache::new(CacheConfig::paper_dcache())
    }

    /// Fills the four ways of set 0 in order; returns their addresses
    /// ordered LRU → MRU.
    fn fill_set0(cache: &mut Cache, dirty_mask: [bool; 4]) -> [u64; 4] {
        let sets = u64::from(cache.sets());
        let block = u64::from(cache.block_bytes());
        let addrs = [0, 1, 2, 3].map(|i| i * sets * block); // all map to set 0
        for (i, &addr) in addrs.iter().enumerate() {
            let kind = if dirty_mask[i] {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            cache.lookup(addr, kind, |_, _| {});
            cache.fill(addr, &[0u8; 16], dirty_mask[i]);
        }
        addrs
    }

    #[test]
    fn default_thresholds_are_descending_and_sized() {
        for ways in [1u8, 2, 4, 8, 16] {
            let cfg = EdbpConfig::for_ways(ways);
            let expect = if ways <= 1 { 1 } else { usize::from(ways) - 1 };
            assert_eq!(cfg.initial_thresholds.len(), expect, "ways={ways}");
            for pair in cfg.initial_thresholds.windows(2) {
                assert!(pair[0] > pair[1]);
            }
        }
    }

    #[test]
    fn dormant_above_all_thresholds() {
        let mut cache = cache_4way();
        fill_set0(&mut cache, [false; 4]);
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        let out = edbp.tick(&mut cache, volts(3.45), 0);
        assert!(out.gated.is_empty());
        assert_eq!(edbp.level(), 0);
    }

    #[test]
    fn first_threshold_gates_only_clean_lru() {
        let mut cache = cache_4way();
        // LRU block (first filled) clean; others clean too.
        let addrs = fill_set0(&mut cache, [false; 4]);
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        // Default ladder for 4-way: 3.30 / 3.27 / 3.24.
        let out = edbp.tick(&mut cache, volts(3.29), 0);
        assert_eq!(edbp.level(), 1);
        // Only the LRU block of each set is condemned; set 0 has 4 valid
        // blocks, others are invalid.
        assert_eq!(out.gated.len(), 1);
        assert_eq!(out.gated[0].addr, addrs[0]);
        assert!(cache.contains(addrs[3]).is_some(), "MRU survives");
    }

    #[test]
    fn intermediate_thresholds_skip_dirty_blocks() {
        let mut cache = cache_4way();
        // LRU block dirty: levels 1..n-2 must not kill it.
        let addrs = fill_set0(&mut cache, [true, false, false, false]);
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        let out = edbp.tick(&mut cache, volts(3.28), 0); // level 1 only
        assert_eq!(edbp.level(), 1);
        assert!(out.gated.is_empty(), "dirty LRU spared at level 1");
        assert!(cache.contains(addrs[0]).is_some());
    }

    #[test]
    fn lowest_threshold_gates_all_non_mru_even_dirty() {
        let mut cache = cache_4way();
        let addrs = fill_set0(&mut cache, [true, true, false, false]);
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        let out = edbp.tick(&mut cache, volts(3.23), 0); // below all three
        assert_eq!(edbp.level(), 3);
        assert_eq!(out.gated.len(), 3, "three non-MRU blocks gated");
        let mut parked: Vec<u64> = out.parked.iter().map(|(addr, _)| addr).collect();
        parked.sort_unstable();
        assert_eq!(
            parked,
            [addrs[0], addrs[1]],
            "both dirty blocks parked in NV twins"
        );
        assert!(cache.contains(addrs[3]).is_some(), "MRU always survives");
    }

    #[test]
    fn levels_ratchet_and_do_not_repeat() {
        let mut cache = cache_4way();
        fill_set0(&mut cache, [false; 4]);
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        let first = edbp.tick(&mut cache, volts(3.29), 0);
        assert_eq!(first.gated.len(), 1);
        // Same voltage again: nothing new.
        let again = edbp.tick(&mut cache, volts(3.29), 1);
        assert!(again.gated.is_empty());
        // Voltage recovers: EDBP does not un-gate or re-gate.
        let up = edbp.tick(&mut cache, volts(3.45), 2);
        assert!(up.gated.is_empty());
        assert_eq!(edbp.level(), 1, "level only ratchets within a cycle");
    }

    #[test]
    fn direct_mapped_single_threshold_kills_everything() {
        let g = CacheGeometry::new(256, 1, 16).expect("valid");
        let mut cache = Cache::new(CacheConfig {
            geometry: g,
            policy: ReplacementPolicy::Lru,
        });
        for i in 0..4u64 {
            let addr = i * 16;
            cache.lookup(addr, AccessKind::Read, |_, _| {});
            cache.fill(addr, &[0u8; 16], false);
        }
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        assert_eq!(edbp.thresholds().len(), 1);
        let out = edbp.tick(&mut cache, volts(3.2), 0);
        assert_eq!(out.gated.len(), 4, "direct-mapped EDBP spares nothing");
    }

    #[test]
    fn sampling_tracks_wrong_kills_and_adapts_down() {
        let mut cache = cache_4way();
        let mut cfg = EdbpConfig::for_cache(&cache);
        cfg.sample_set = 0;
        let addrs = fill_set0(&mut cache, [false; 4]);
        let mut edbp = Edbp::new(cfg);
        let initial = edbp.thresholds().to_vec();

        // Cross everything: 3 sample-set blocks gated.
        edbp.tick(&mut cache, volts(3.2), 0);
        // The program re-requests two of them before the outage: wrong kills.
        edbp.on_miss(addrs[0]);
        edbp.on_miss(addrs[1]);
        cache.power_fail();
        edbp.on_reboot(&cache);

        assert!((edbp.false_positive_rate() - 2.0 / 3.0).abs() < 1e-12);
        for (now, init) in edbp.thresholds().iter().zip(&initial) {
            let dropped = init.as_milli_volts() - now.as_milli_volts();
            let clamped = (now.as_milli_volts() - 3200.0).abs() < 1e-9;
            assert!(
                (dropped - 50.0).abs() < 1e-9 || (clamped && dropped > 0.0),
                "thresholds must drop by 50 mV or clamp at the floor (dropped {dropped} mV)"
            );
        }
    }

    #[test]
    fn low_fpr_resets_thresholds_to_initial() {
        let mut cache = cache_4way();
        let mut cfg = EdbpConfig::for_cache(&cache);
        cfg.sample_set = 0;
        fill_set0(&mut cache, [false; 4]);
        let mut edbp = Edbp::new(cfg);
        let initial = edbp.thresholds().to_vec();

        // Cycle 1: heavy wrong kills → lowered.
        edbp.tick(&mut cache, volts(3.2), 0);
        edbp.on_miss(0); // addrs[0] == 0
        cache.power_fail();
        edbp.on_reboot(&cache);
        assert!(edbp.thresholds()[0] < initial[0]);

        // Cycle 2: no kills at all → reset to initial.
        cache.power_fail();
        edbp.on_reboot(&cache);
        assert_eq!(edbp.thresholds(), initial.as_slice());
    }

    #[test]
    fn thresholds_never_cross_the_floor() {
        let mut cache = cache_4way();
        let mut cfg = EdbpConfig::for_cache(&cache);
        cfg.sample_set = 0;
        let mut edbp = Edbp::new(cfg.clone());
        // Ten hostile cycles: always 100% FPR.
        for _ in 0..10 {
            let addrs = fill_set0(&mut cache, [false; 4]);
            edbp.tick(&mut cache, volts(3.2), 0);
            for a in addrs {
                edbp.on_miss(a);
            }
            cache.power_fail();
            edbp.on_reboot(&cache);
        }
        for t in edbp.thresholds() {
            assert!(*t >= cfg.floor, "threshold {t} below floor {}", cfg.floor);
        }
    }

    #[test]
    fn deactivation_buffer_is_bounded() {
        let mut cache = cache_4way();
        let mut cfg = EdbpConfig::for_cache(&cache);
        cfg.sample_set = 0;
        cfg.deactivation_buffer_entries = 2;
        let mut edbp = Edbp::new(cfg);
        fill_set0(&mut cache, [false; 4]);
        edbp.tick(&mut cache, volts(3.2), 0); // gates 3 sample-set blocks
        assert!(edbp.buffer.len() <= 2, "buffer must evict oldest entries");
    }

    #[test]
    fn reboot_rearms_levels() {
        let mut cache = cache_4way();
        fill_set0(&mut cache, [false; 4]);
        let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
        edbp.tick(&mut cache, volts(3.2), 0);
        assert_eq!(edbp.level(), 3);
        cache.power_fail();
        edbp.on_reboot(&cache);
        assert_eq!(edbp.level(), 0);
        // Next cycle it can fire again.
        fill_set0(&mut cache, [false; 4]);
        let out = edbp.tick(&mut cache, volts(3.2), 0);
        assert!(!out.gated.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly descending")]
    fn rejects_unsorted_thresholds() {
        let mut cfg = EdbpConfig::for_ways(4);
        cfg.initial_thresholds = vec![volts(3.25), volts(3.30), volts(3.35)];
        let _ = Edbp::new(cfg);
    }
}
