//! Cache Decay (Kaxiras, Hu, Martonosi — ISCA 2001), the conventional
//! time-based dead block predictor the paper combines EDBP with.

use crate::{GatedBlock, LeakagePredictor, TickOutcome, WakeHint};
use ehs_cache::{BlockId, Cache, GateResult};
use ehs_units::Voltage;

/// Configuration of [`CacheDecay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecayConfig {
    /// Cycles of inactivity after which a block is declared dead.
    ///
    /// Implemented as the original paper does: a global counter fires every
    /// `decay_interval / 4` cycles and increments a saturating 2-bit counter
    /// per block; a block whose counter reaches 3 is gated, and any access
    /// resets its counter. The default (32 k cycles = 1.3 ms at 25 MHz) is
    /// the competitive point for this platform: longer than the synthetic
    /// workloads' typical reuse distances, comparable to a healthy power
    /// cycle so decay acts during stable stretches.
    pub decay_interval_cycles: u64,
}

impl Default for DecayConfig {
    fn default() -> Self {
        Self {
            decay_interval_cycles: 32_768,
        }
    }
}

/// Per-block decay counter ceiling (2-bit).
const COUNTER_DEAD: u8 = 3;

/// The time-based dead block predictor.
///
/// A block that has not been touched for roughly
/// [`DecayConfig::decay_interval_cycles`] is power-gated (after write-back if
/// dirty). Cache Decay is oblivious to power failures — the paper's whole
/// point — so it leaves energy on the table whenever an outage destroys
/// blocks it chose to keep ("zombie" blocks).
///
/// # Example
///
/// ```
/// use edbp_core::{CacheDecay, DecayConfig, LeakagePredictor};
/// use ehs_cache::{AccessKind, Cache, CacheConfig};
/// use ehs_units::Voltage;
///
/// let mut cache = Cache::new(CacheConfig::paper_dcache());
/// let config = DecayConfig { decay_interval_cycles: 4096 };
/// let mut decay = CacheDecay::new(config, &cache);
/// cache.lookup(0x40, AccessKind::Read, |_, _| {});
/// let id = cache.fill(0x40, &[0u8; 16], false);
/// decay.on_fill(&cache, id, 0x40);
///
/// // A full decay interval with no accesses kills the block.
/// let v = Voltage::from_volts(3.5);
/// let mut gated = 0;
/// for cycle in 0..=4096 {
///     gated += decay.tick(&mut cache, v, cycle).gated.len();
/// }
/// assert_eq!(gated, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheDecay {
    config: DecayConfig,
    /// Saturating 2-bit counters, indexed `set * ways + way`.
    counters: Vec<u8>,
    ways: usize,
    /// Cycle at which the global counter next fires.
    next_global_tick: u64,
    /// Global tick period (`decay_interval / 4`).
    period: u64,
}

impl CacheDecay {
    /// Creates a decay predictor sized for `cache`.
    ///
    /// # Panics
    ///
    /// Panics if the decay interval is shorter than 4 cycles.
    pub fn new(config: DecayConfig, cache: &Cache) -> Self {
        assert!(
            config.decay_interval_cycles >= 4,
            "decay interval must cover at least one 2-bit step"
        );
        let period = config.decay_interval_cycles / 4;
        Self {
            config,
            counters: vec![0; cache.blocks() as usize],
            ways: usize::from(cache.ways()),
            next_global_tick: period,
            period,
        }
    }

    /// The configured decay interval.
    pub fn config(&self) -> DecayConfig {
        self.config
    }

    #[inline]
    fn index(&self, block: BlockId) -> usize {
        block.set as usize * self.ways + usize::from(block.way)
    }

    fn reset_counter(&mut self, block: BlockId) {
        let idx = self.index(block);
        self.counters[idx] = 0;
    }
}

impl LeakagePredictor for CacheDecay {
    fn name(&self) -> &'static str {
        "cache-decay"
    }

    fn on_hit(&mut self, _cache: &Cache, block: BlockId, _addr: u64) {
        self.reset_counter(block);
    }

    fn on_fill(&mut self, _cache: &Cache, block: BlockId, _addr: u64) {
        self.reset_counter(block);
    }

    fn tick_into(
        &mut self,
        cache: &mut Cache,
        _voltage: Voltage,
        cycle: u64,
        out: &mut TickOutcome,
    ) {
        while cycle >= self.next_global_tick {
            self.next_global_tick += self.period;
            for set in 0..cache.sets() {
                for way in 0..cache.ways() {
                    let block = BlockId { set, way };
                    let idx = self.index(block);
                    if self.counters[idx] >= COUNTER_DEAD {
                        // Already flagged dead; gate if still powered. On
                        // the NVSRAM platform, dirty content is parked in
                        // its nonvolatile twin (the sink fires only for a
                        // dirty valid block).
                        let parked = &mut out.parked;
                        match cache.gate(block, |addr, data| parked.push(addr, data)) {
                            GateResult::GatedValid { addr, dirty } => {
                                out.gated.push(GatedBlock { addr, dirty });
                            }
                            GateResult::GatedInvalid | GateResult::AlreadyGated => {}
                        }
                    } else {
                        self.counters[idx] += 1;
                    }
                }
            }
        }
    }

    fn next_wakeup(&self) -> WakeHint {
        // tick() is a strict no-op (the while loop does not enter) until the
        // cycle counter reaches the next global-counter firing.
        WakeHint {
            at_cycle: Some(self.next_global_tick),
            below_voltage: None,
            every_cycle: false,
        }
    }

    fn on_reboot(&mut self, cache: &Cache) {
        // The cache is cold after an outage; counters restart, and the global
        // phase is preserved (the hardware counter keeps running).
        debug_assert_eq!(self.counters.len(), cache.blocks() as usize);
        self.counters.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::{AccessKind, CacheConfig};

    const V: Voltage = Voltage::from_base(3.5);

    fn setup() -> (Cache, CacheDecay) {
        let cache = Cache::new(CacheConfig::paper_dcache());
        let decay = CacheDecay::new(
            DecayConfig {
                decay_interval_cycles: 4096,
            },
            &cache,
        );
        (cache, decay)
    }

    fn fill(cache: &mut Cache, decay: &mut CacheDecay, addr: u64, dirty: bool) {
        let kind = if dirty {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        cache.lookup(addr, kind, |_, _| {});
        let id = cache.fill(addr, &[0u8; 16], dirty);
        decay.on_fill(cache, id, addr);
    }

    #[test]
    fn idle_block_decays_after_interval() {
        let (mut cache, mut decay) = setup();
        fill(&mut cache, &mut decay, 0x40, false);
        let mut gated = Vec::new();
        for cycle in 0..=4096 {
            gated.extend(decay.tick(&mut cache, V, cycle).gated);
        }
        assert_eq!(gated.len(), 1);
        assert_eq!(gated[0].addr, 0x40);
        assert!(!gated[0].dirty);
        assert!(cache.contains(0x40).is_none());
    }

    #[test]
    fn accessed_block_survives() {
        let (mut cache, mut decay) = setup();
        fill(&mut cache, &mut decay, 0x40, false);
        for cycle in 0..=8192u64 {
            // Touch the block every 512 cycles: it must never decay.
            if cycle % 512 == 0 {
                if let ehs_cache::LookupResult::Hit(block) =
                    cache.lookup(0x40, AccessKind::Read, |_, _| {})
                {
                    decay.on_hit(&cache, block, 0x40);
                } else {
                    panic!("block disappeared at cycle {cycle}");
                }
            }
            let out = decay.tick(&mut cache, V, cycle);
            assert!(out.gated.is_empty(), "gated at cycle {cycle}");
        }
    }

    #[test]
    fn dirty_block_writes_back_before_gating() {
        let (mut cache, mut decay) = setup();
        fill(&mut cache, &mut decay, 0x80, true);
        let mut out = TickOutcome::default();
        for cycle in 0..=4096 {
            decay.tick_into(&mut cache, V, cycle, &mut out);
        }
        assert_eq!(out.gated.len(), 1);
        assert!(out.gated[0].dirty);
        assert_eq!(out.parked.len(), 1, "dirty block parked in its NV twin");
        assert_eq!(out.parked.iter().next().expect("one entry").0, 0x80);
    }

    #[test]
    fn catches_up_over_large_cycle_jumps() {
        let (mut cache, mut decay) = setup();
        fill(&mut cache, &mut decay, 0x40, false);
        // Jump straight past several intervals in one tick.
        let out = decay.tick(&mut cache, V, 100_000);
        assert_eq!(out.gated.len(), 1);
    }

    #[test]
    fn reboot_resets_counters() {
        let (mut cache, mut decay) = setup();
        fill(&mut cache, &mut decay, 0x40, false);
        // Age the block nearly to death.
        let _ = decay.tick(&mut cache, V, 3000);
        cache.power_fail();
        decay.on_reboot(&cache);
        fill(&mut cache, &mut decay, 0x40, false);
        // One more global tick must NOT kill the freshly reset block.
        let out = decay.tick(&mut cache, V, 4096);
        assert!(out.gated.is_empty());
    }

    #[test]
    fn invalid_frames_eventually_stop_leaking() {
        let (mut cache, mut decay) = setup();
        // No fills at all: every cold frame decays to gated.
        for cycle in (0..=4096).step_by(64) {
            let _ = decay.tick(&mut cache, V, cycle);
        }
        assert_eq!(cache.gated_blocks(), cache.blocks());
        assert_eq!(cache.active_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one 2-bit step")]
    fn rejects_tiny_interval() {
        let cache = Cache::new(CacheConfig::paper_dcache());
        let _ = CacheDecay::new(
            DecayConfig {
                decay_interval_cycles: 2,
            },
            &cache,
        );
    }
}
