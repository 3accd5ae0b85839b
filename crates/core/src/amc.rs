//! Adaptive Mode Control (Zhou et al., PACT 2001) — a time-based predictor
//! like Cache Decay whose decay interval self-tunes from the observed
//! sleep-miss rate. Included because the paper argues (Section VII-A) that
//! EDBP composes with *any* conventional predictor; AMC lets the benches
//! demonstrate that beyond Cache Decay.

use crate::paged::PagedTable;
use crate::{GatedBlock, LeakagePredictor, TickOutcome, WakeHint};
use ehs_cache::{BlockId, Cache, GateResult};
use ehs_units::Voltage;

/// Configuration of [`AdaptiveModeControl`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmcConfig {
    /// Starting decay interval in cycles.
    pub initial_interval_cycles: u64,
    /// Smallest interval adaptation may reach.
    pub min_interval_cycles: u64,
    /// Largest interval adaptation may reach.
    pub max_interval_cycles: u64,
    /// Adaptation window: re-evaluate every this many misses.
    pub window_misses: u64,
    /// If `sleep misses / window misses` exceeds this, double the interval
    /// (the predictor is killing live blocks).
    pub high_watermark: f64,
    /// If below this, halve the interval (room to be more aggressive).
    pub low_watermark: f64,
}

impl Default for AmcConfig {
    fn default() -> Self {
        Self {
            initial_interval_cycles: 4096,
            min_interval_cycles: 512,
            max_interval_cycles: 65_536,
            window_misses: 256,
            high_watermark: 0.10,
            low_watermark: 0.02,
        }
    }
}

/// The AMC predictor: Cache Decay's mechanism with a feedback loop on the
/// decay interval. AMC keeps its tag bookkeeping active (modelled here as a
/// set of gated addresses) so it can recognise *sleep misses* — misses to
/// blocks it put to sleep — and adapt.
#[derive(Debug, Clone)]
pub struct AdaptiveModeControl {
    config: AmcConfig,
    interval: u64,
    counters: Vec<u8>,
    ways: usize,
    next_global_tick: u64,
    /// Addresses gated by AMC whose tags would still match (sleep misses).
    asleep: PagedTable<()>,
    window_misses: u64,
    window_sleep_misses: u64,
}

const COUNTER_DEAD: u8 = 3;

impl AdaptiveModeControl {
    /// Creates an AMC predictor sized for `cache`.
    ///
    /// # Panics
    ///
    /// Panics if the interval bounds are inverted or below 4 cycles.
    pub fn new(config: AmcConfig, cache: &Cache) -> Self {
        assert!(config.min_interval_cycles >= 4, "interval too small");
        assert!(
            config.min_interval_cycles <= config.initial_interval_cycles
                && config.initial_interval_cycles <= config.max_interval_cycles,
            "interval bounds must bracket the initial interval"
        );
        Self {
            interval: config.initial_interval_cycles,
            counters: vec![0; cache.blocks() as usize],
            ways: usize::from(cache.ways()),
            next_global_tick: config.initial_interval_cycles / 4,
            asleep: PagedTable::for_block_bytes(cache.block_bytes()),
            window_misses: 0,
            window_sleep_misses: 0,
            config,
        }
    }

    /// The current (adapted) decay interval in cycles.
    pub fn interval_cycles(&self) -> u64 {
        self.interval
    }

    #[inline]
    fn index(&self, block: BlockId) -> usize {
        block.set as usize * self.ways + usize::from(block.way)
    }

    fn adapt(&mut self) {
        let rate = self.window_sleep_misses as f64 / self.window_misses as f64;
        if rate > self.config.high_watermark {
            self.interval = (self.interval * 2).min(self.config.max_interval_cycles);
        } else if rate < self.config.low_watermark {
            self.interval = (self.interval / 2).max(self.config.min_interval_cycles);
        }
        self.window_misses = 0;
        self.window_sleep_misses = 0;
    }
}

impl LeakagePredictor for AdaptiveModeControl {
    fn name(&self) -> &'static str {
        "amc"
    }

    fn on_hit(&mut self, _cache: &Cache, block: BlockId, _addr: u64) {
        let idx = self.index(block);
        self.counters[idx] = 0;
    }

    fn on_fill(&mut self, _cache: &Cache, block: BlockId, addr: u64) {
        let idx = self.index(block);
        self.counters[idx] = 0;
        self.asleep.remove(addr);
    }

    fn on_miss(&mut self, addr: u64) {
        self.window_misses += 1;
        if self.asleep.remove(addr).is_some() {
            self.window_sleep_misses += 1;
        }
        if self.window_misses >= self.config.window_misses {
            self.adapt();
        }
    }

    fn tick_into(
        &mut self,
        cache: &mut Cache,
        _voltage: Voltage,
        cycle: u64,
        out: &mut TickOutcome,
    ) {
        while cycle >= self.next_global_tick {
            self.next_global_tick += self.interval / 4;
            for set in 0..cache.sets() {
                for way in 0..cache.ways() {
                    let block = BlockId { set, way };
                    let idx = self.index(block);
                    if self.counters[idx] >= COUNTER_DEAD {
                        // Dirty content is parked in the NVSRAM twin, as
                        // with EDBP.
                        let parked = &mut out.parked;
                        match cache.gate(block, |addr, data| parked.push(addr, data)) {
                            GateResult::GatedValid { addr, dirty } => {
                                self.asleep.insert(addr, ());
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
        // Same shape as Cache Decay: the global counter only fires at
        // `next_global_tick`. Interval adaptation happens in `on_miss`, which
        // forces hints to be re-queried anyway, and never moves an
        // already-scheduled firing.
        WakeHint {
            at_cycle: Some(self.next_global_tick),
            below_voltage: None,
            every_cycle: false,
        }
    }

    fn on_reboot(&mut self, cache: &Cache) {
        debug_assert_eq!(self.counters.len(), cache.blocks() as usize);
        self.counters.fill(0);
        // Outage wiped the cache: sleep bookkeeping no longer applies, but
        // the learned interval is persistent state worth keeping (it is
        // checkpointed with the other registers).
        self.asleep.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::{AccessKind, CacheConfig};

    const V: Voltage = Voltage::from_base(3.5);

    fn setup() -> (Cache, AdaptiveModeControl) {
        let cache = Cache::new(CacheConfig::paper_dcache());
        let amc = AdaptiveModeControl::new(AmcConfig::default(), &cache);
        (cache, amc)
    }

    #[test]
    fn idle_block_is_gated() {
        let (mut cache, mut amc) = setup();
        cache.lookup(0x40, AccessKind::Read, |_, _| {});
        let id = cache.fill(0x40, &[0u8; 16], false);
        amc.on_fill(&cache, id, 0x40);
        let mut gated = 0;
        for cycle in (0..=8192).step_by(64) {
            gated += amc.tick(&mut cache, V, cycle).gated.len();
        }
        assert_eq!(gated, 1);
    }

    #[test]
    fn sleep_misses_double_the_interval() {
        let (cache, mut amc) = setup();
        let _ = cache;
        let before = amc.interval_cycles();
        // Simulate a window full of sleep misses.
        for i in 0..AmcConfig::default().window_misses {
            let addr = i * 16;
            amc.asleep.insert(addr, ());
            amc.on_miss(addr);
        }
        assert_eq!(amc.interval_cycles(), before * 2);
    }

    #[test]
    fn quiet_window_halves_the_interval() {
        let (cache, mut amc) = setup();
        let _ = cache;
        let before = amc.interval_cycles();
        for i in 0..AmcConfig::default().window_misses {
            amc.on_miss(i * 16); // none asleep → zero sleep-miss rate
        }
        assert_eq!(amc.interval_cycles(), before / 2);
    }

    #[test]
    fn interval_respects_bounds() {
        let (cache, mut amc) = setup();
        let _ = cache;
        let cfg = AmcConfig::default();
        // Push down for many windows.
        for _ in 0..32 {
            for i in 0..cfg.window_misses {
                amc.on_miss(i * 16);
            }
        }
        assert_eq!(amc.interval_cycles(), cfg.min_interval_cycles);
        // Push up for many windows.
        for _ in 0..32 {
            for i in 0..cfg.window_misses {
                let addr = i * 16;
                amc.asleep.insert(addr, ());
                amc.on_miss(addr);
            }
        }
        assert_eq!(amc.interval_cycles(), cfg.max_interval_cycles);
    }

    #[test]
    fn interval_survives_reboot() {
        let (mut cache, mut amc) = setup();
        for i in 0..AmcConfig::default().window_misses {
            let addr = i * 16;
            amc.asleep.insert(addr, ());
            amc.on_miss(addr);
        }
        let learned = amc.interval_cycles();
        cache.power_fail();
        amc.on_reboot(&cache);
        assert_eq!(amc.interval_cycles(), learned);
        assert!(amc.asleep.is_empty());
    }

    #[test]
    #[should_panic(expected = "bracket the initial interval")]
    fn rejects_inverted_bounds() {
        let cache = Cache::new(CacheConfig::paper_dcache());
        let _ = AdaptiveModeControl::new(
            AmcConfig {
                min_interval_cycles: 8192,
                initial_interval_cycles: 4096,
                ..AmcConfig::default()
            },
            &cache,
        );
    }
}
