//! The predictor trait and composition utilities.

use ehs_cache::{BlockId, Cache};
use ehs_units::Voltage;
use std::fmt;

/// A block a predictor just power-gated, as reported to the simulator (for
/// energy charging) and the [`crate::PredictionLedger`] (for accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatedBlock {
    /// Block-aligned address of the deactivated block.
    pub addr: u64,
    /// Whether it was dirty (and therefore written back first).
    pub dirty: bool,
}

/// A flat, reusable list of dirty-block images: entry addresses in one
/// `Vec`, their bytes packed end-to-end in a single contiguous pool.
///
/// Replaces the old `Vec<Writeback>` (one heap allocation per entry for the
/// `data` vector). [`WritebackArena::clear`] keeps capacity, so a
/// simulation-owned scratch [`TickOutcome`] reaches its high-water size once
/// and every later tick appends without touching the allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WritebackArena {
    /// `(block address, end offset into bytes)` per entry; entry `i` spans
    /// `entries[i-1].1..entries[i].1` (from 0 for the first).
    entries: Vec<(u64, u32)>,
    bytes: Vec<u8>,
}

impl WritebackArena {
    /// Appends one block image.
    #[inline]
    pub fn push(&mut self, addr: u64, data: &[u8]) {
        self.bytes.extend_from_slice(data);
        self.entries.push((addr, self.bytes.len() as u32));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in push order as `(addr, block image)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.entries.iter().enumerate().map(|(i, &(addr, end))| {
            let start = if i == 0 { 0 } else { self.entries[i - 1].1 } as usize;
            (addr, &self.bytes[start..end as usize])
        })
    }

    /// Removes every entry, keeping both pools' capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes.clear();
    }
}

/// Everything a predictor did during one [`LeakagePredictor::tick`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// Valid blocks that were deactivated.
    pub gated: Vec<GatedBlock>,
    /// Dirty content to be written back to main memory (the conventional
    /// predictors' discipline; the simulator charges an NVM write for each).
    pub writebacks: WritebackArena,
    /// Dirty content *parked* in its nonvolatile NVSRAM twin instead of
    /// written to memory (EDBP's discipline on an NVSRAM platform): the
    /// simulator charges an in-place save, recalls the block cheaply if it
    /// is re-referenced, and restores it at reboot like any checkpointed
    /// block. See `DESIGN.md` §5.
    pub parked: WritebackArena,
}

impl TickOutcome {
    /// Merges another outcome into this one.
    pub fn absorb(&mut self, other: &TickOutcome) {
        self.gated.extend_from_slice(&other.gated);
        for (addr, data) in other.writebacks.iter() {
            self.writebacks.push(addr, data);
        }
        for (addr, data) in other.parked.iter() {
            self.parked.push(addr, data);
        }
    }

    /// Removes everything, keeping capacity (the reusable-scratch contract).
    pub fn clear(&mut self) {
        self.gated.clear();
        self.writebacks.clear();
        self.parked.clear();
    }

    /// Whether this tick changed any state the simulator must account for.
    pub fn is_empty(&self) -> bool {
        self.gated.is_empty() && self.writebacks.is_empty() && self.parked.is_empty()
    }
}

/// When a predictor next needs a [`LeakagePredictor::tick`] call, as reported
/// by [`LeakagePredictor::next_wakeup`].
///
/// The contract: from the predictor's *current* state, every `tick(cache, v,
/// cycle)` whose arguments satisfy **none** of the armed conditions must be a
/// state-preserving no-op with an empty [`TickOutcome`]. The simulator relies
/// on this to skip ticks entirely between events — correctness (bit-exact
/// results vs. ticking every cycle) rests on the hint being conservative.
/// Any `on_*` event may change the predictor's answer, so hints must be
/// re-queried after hooks fire, after an executed tick, and after a reboot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WakeHint {
    /// Tick once the cycle counter reaches this value (epoch boundary).
    pub at_cycle: Option<u64>,
    /// Tick once the voltage drops strictly below this value (threshold
    /// crossing; matches the strict `voltage < t` comparisons the voltage-
    /// guided predictors use).
    pub below_voltage: Option<Voltage>,
    /// The predictor cannot bound its next action: tick every cycle.
    pub every_cycle: bool,
}

impl WakeHint {
    /// No wakeup needed: every tick from the current state is a no-op.
    pub const NEVER: WakeHint = WakeHint {
        at_cycle: None,
        below_voltage: None,
        every_cycle: false,
    };

    /// The conservative default: tick at every cycle.
    pub const EVERY_CYCLE: WakeHint = WakeHint {
        at_cycle: None,
        below_voltage: None,
        every_cycle: true,
    };

    /// Combines two hints into one that wakes as soon as *either* would:
    /// the earlier cycle, the higher voltage threshold, and every-cycle if
    /// either demands it.
    #[must_use]
    pub fn merge(self, other: WakeHint) -> WakeHint {
        let at_cycle = match (self.at_cycle, other.at_cycle) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let below_voltage = match (self.below_voltage, other.below_voltage) {
            (Some(a), Some(b)) => Some(if a >= b { a } else { b }),
            (a, b) => a.or(b),
        };
        WakeHint {
            at_cycle,
            below_voltage,
            every_cycle: self.every_cycle || other.every_cycle,
        }
    }

    /// Whether a tick at `(cycle, voltage)` may act and must therefore run.
    pub fn due(&self, cycle: u64, voltage: Voltage) -> bool {
        self.every_cycle
            || self.at_cycle.is_some_and(|c| cycle >= c)
            || self.below_voltage.is_some_and(|w| voltage < w)
    }
}

/// A cache-leakage predictor: observes the access stream and periodically
/// power-gates frames it believes are dead (conventional predictors) or
/// zombie (EDBP).
///
/// The full-system simulator calls the `on_*` hooks as events happen and
/// [`LeakagePredictor::tick`] once per simulation step. Implementations must
/// be deterministic.
pub trait LeakagePredictor: fmt::Debug + Send {
    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// A lookup hit `addr` at `block`.
    fn on_hit(&mut self, cache: &Cache, block: BlockId, addr: u64) {
        let _ = (cache, block, addr);
    }

    /// A lookup missed on `addr` (before the fill happens).
    fn on_miss(&mut self, addr: u64) {
        let _ = addr;
    }

    /// A block for `addr` was installed at `block`.
    fn on_fill(&mut self, cache: &Cache, block: BlockId, addr: u64) {
        let _ = (cache, block, addr);
    }

    /// A block for `addr` was restored from the checkpoint at reboot.
    /// Defaults to [`LeakagePredictor::on_fill`]; only predictors that key
    /// on fill origin (the oracle) need to distinguish.
    fn on_restore_fill(&mut self, cache: &Cache, block: BlockId, addr: u64) {
        self.on_fill(cache, block, addr);
    }

    /// A valid block for `addr` was evicted by a miss.
    fn on_evict(&mut self, addr: u64) {
        let _ = addr;
    }

    /// Periodic decision point: observe the voltage and cycle count, gate
    /// whatever should die, and *append* the outcome to `out` (which is not
    /// cleared — the caller owns the reusable scratch). Called once per
    /// simulated step.
    fn tick_into(&mut self, cache: &mut Cache, voltage: Voltage, cycle: u64, out: &mut TickOutcome);

    /// Allocating convenience wrapper over [`LeakagePredictor::tick_into`]
    /// returning a fresh [`TickOutcome`] (tests and cold paths).
    fn tick(&mut self, cache: &mut Cache, voltage: Voltage, cycle: u64) -> TickOutcome {
        let mut out = TickOutcome::default();
        self.tick_into(cache, voltage, cycle, &mut out);
        out
    }

    /// When this predictor next needs [`LeakagePredictor::tick`] called; see
    /// [`WakeHint`] for the no-op contract. The default is the conservative
    /// [`WakeHint::EVERY_CYCLE`], which keeps unknown implementations on the
    /// cycle-accurate path.
    fn next_wakeup(&self) -> WakeHint {
        WakeHint::EVERY_CYCLE
    }

    /// The JIT checkpoint is about to be taken (power failure imminent).
    fn on_checkpoint(&mut self, cache: &Cache) {
        let _ = cache;
    }

    /// The system rebooted after an outage (volatile state was lost).
    fn on_reboot(&mut self, cache: &Cache) {
        let _ = cache;
    }
}

/// Two predictors running side by side — the paper's headline scheme is
/// `Pair` of Cache Decay and EDBP (Section VI), and AMC + EDBP composes the
/// same way (Section VII-A). Events fan out to `a` then `b`; ticks run in
/// that order too, so a block `a` gates is simply absent when `b` looks.
/// Both members are statically dispatched, so their hooks inline.
#[derive(Debug)]
pub struct Pair<A, B> {
    /// The first member (ticks first; blocks it gates are absent when `b`
    /// looks).
    pub a: A,
    /// The second member.
    pub b: B,
}

impl<A: LeakagePredictor, B: LeakagePredictor> Pair<A, B> {
    /// Combines two predictors, `a` before `b`.
    pub fn new(a: A, b: B) -> Self {
        Self { a, b }
    }
}

impl<A: LeakagePredictor, B: LeakagePredictor> LeakagePredictor for Pair<A, B> {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn on_hit(&mut self, cache: &Cache, block: BlockId, addr: u64) {
        self.a.on_hit(cache, block, addr);
        self.b.on_hit(cache, block, addr);
    }

    fn on_miss(&mut self, addr: u64) {
        self.a.on_miss(addr);
        self.b.on_miss(addr);
    }

    fn on_fill(&mut self, cache: &Cache, block: BlockId, addr: u64) {
        self.a.on_fill(cache, block, addr);
        self.b.on_fill(cache, block, addr);
    }

    fn on_restore_fill(&mut self, cache: &Cache, block: BlockId, addr: u64) {
        self.a.on_restore_fill(cache, block, addr);
        self.b.on_restore_fill(cache, block, addr);
    }

    fn on_evict(&mut self, addr: u64) {
        self.a.on_evict(addr);
        self.b.on_evict(addr);
    }

    fn tick_into(
        &mut self,
        cache: &mut Cache,
        voltage: Voltage,
        cycle: u64,
        out: &mut TickOutcome,
    ) {
        self.a.tick_into(cache, voltage, cycle, out);
        self.b.tick_into(cache, voltage, cycle, out);
    }

    fn next_wakeup(&self) -> WakeHint {
        self.a.next_wakeup().merge(self.b.next_wakeup())
    }

    fn on_checkpoint(&mut self, cache: &Cache) {
        self.a.on_checkpoint(cache);
        self.b.on_checkpoint(cache);
    }

    fn on_reboot(&mut self, cache: &Cache) {
        self.a.on_reboot(cache);
        self.b.on_reboot(cache);
    }
}

/// The no-op predictor: the paper's baseline keeps every block powered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPredictor;

impl NullPredictor {
    /// Creates the no-op predictor.
    pub fn new() -> Self {
        Self
    }
}

impl LeakagePredictor for NullPredictor {
    fn name(&self) -> &'static str {
        "none"
    }

    fn tick_into(
        &mut self,
        _cache: &mut Cache,
        _voltage: Voltage,
        _cycle: u64,
        _out: &mut TickOutcome,
    ) {
    }

    fn next_wakeup(&self) -> WakeHint {
        WakeHint::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::CacheConfig;

    #[test]
    fn null_predictor_never_gates() {
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut p = NullPredictor::new();
        let out = p.tick(&mut cache, Voltage::from_volts(2.9), 123);
        assert!(out.gated.is_empty());
        assert!(out.writebacks.is_empty());
        assert_eq!(cache.gated_blocks(), 0);
    }

    #[test]
    fn wake_hint_merge_takes_the_earliest_wakeup() {
        let decay_like = WakeHint {
            at_cycle: Some(4096),
            below_voltage: None,
            every_cycle: false,
        };
        let edbp_like = WakeHint {
            at_cycle: None,
            below_voltage: Some(Voltage::from_volts(3.27)),
            every_cycle: false,
        };
        let merged = decay_like.merge(edbp_like);
        assert_eq!(merged.at_cycle, Some(4096));
        assert_eq!(merged.below_voltage, Some(Voltage::from_volts(3.27)));
        assert!(!merged.every_cycle);
        // Cycle pick: earlier wins. Voltage pick: higher wins (wakes first
        // on a falling rail).
        let other = WakeHint {
            at_cycle: Some(100),
            below_voltage: Some(Voltage::from_volts(3.30)),
            every_cycle: false,
        };
        let m2 = merged.merge(other);
        assert_eq!(m2.at_cycle, Some(100));
        assert_eq!(m2.below_voltage, Some(Voltage::from_volts(3.30)));
        // EVERY_CYCLE is absorbing.
        assert!(m2.merge(WakeHint::EVERY_CYCLE).every_cycle);
        // NEVER is the identity.
        assert_eq!(m2.merge(WakeHint::NEVER), m2);
    }

    #[test]
    fn wake_hint_due_semantics() {
        let h = WakeHint {
            at_cycle: Some(1000),
            below_voltage: Some(Voltage::from_volts(3.2)),
            every_cycle: false,
        };
        let v_hi = Voltage::from_volts(3.4);
        let v_lo = Voltage::from_volts(3.1);
        assert!(!h.due(999, v_hi));
        assert!(h.due(1000, v_hi), "cycle boundary is inclusive");
        assert!(h.due(0, v_lo), "strictly below the voltage threshold");
        assert!(!h.due(0, Voltage::from_volts(3.2)), "equality is not below");
        assert!(!WakeHint::NEVER.due(u64::MAX, Voltage::from_volts(0.0)));
        assert!(WakeHint::EVERY_CYCLE.due(0, v_hi));
    }

    #[test]
    fn combined_wakeup_merges_members() {
        let cache = Cache::new(CacheConfig::paper_dcache());
        let decay = crate::CacheDecay::new(
            crate::DecayConfig {
                decay_interval_cycles: 4096,
            },
            &cache,
        );
        let edbp = crate::Edbp::new(crate::EdbpConfig::for_cache(&cache));
        let edbp_first = edbp.next_wakeup().below_voltage.expect("armed");
        let hint = Pair::new(decay, edbp).next_wakeup();
        assert_eq!(hint.at_cycle, Some(1024), "decay period = interval/4");
        assert_eq!(hint.below_voltage, Some(edbp_first));
        assert!(!hint.every_cycle);
    }

    #[test]
    fn null_predictor_never_wakes() {
        assert_eq!(NullPredictor::new().next_wakeup(), WakeHint::NEVER);
    }

    #[test]
    fn tick_outcome_absorb_concatenates() {
        let mut a = TickOutcome::default();
        a.gated.push(GatedBlock {
            addr: 0x10,
            dirty: false,
        });
        let mut b = TickOutcome::default();
        b.gated.push(GatedBlock {
            addr: 0x20,
            dirty: true,
        });
        b.writebacks.push(0x20, &[7u8; 16]);
        a.absorb(&b);
        assert_eq!(a.gated.len(), 2);
        assert_eq!(a.writebacks.len(), 1);
        let (addr, data) = a.writebacks.iter().next().expect("one entry");
        assert_eq!(addr, 0x20);
        assert_eq!(data, &[7u8; 16]);
    }

    #[test]
    fn writeback_arena_round_trips_entries() {
        let mut arena = WritebackArena::default();
        assert!(arena.is_empty());
        arena.push(0x40, &[1u8; 4]);
        arena.push(0x80, &[2u8; 8]);
        let got: Vec<(u64, Vec<u8>)> = arena.iter().map(|(a, d)| (a, d.to_vec())).collect();
        assert_eq!(got, vec![(0x40, vec![1u8; 4]), (0x80, vec![2u8; 8])]);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.iter().count(), 0);
    }
}
