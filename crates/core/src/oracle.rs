//! The "Ideal" predictor: perfect knowledge of block deaths (Section VI-E).
//!
//! The paper's theoretical optimum assumes an oracle that knows exactly when
//! each cache block has received its last access before eviction or power
//! outage and "magically" turns it off at that instant — saving the maximum
//! leakage with zero extra misses.
//!
//! We realize this with two passes, as the paper's methodology implies:
//!
//! 1. **Record** (baseline run): [`OracleRecorder`] observes the access
//!    stream and produces a [`GenerationTrace`] — for each block address,
//!    each generation's total access count (fill + hits) and whether the
//!    generation ended at a power outage or a normal eviction.
//! 2. **Replay** (oracle run): [`OraclePredictor`] pops the per-generation
//!    access budget at every fill; the moment a block consumes its budget it
//!    is power-gated.
//!
//! Because gating changes energy draw and therefore outage timing, the
//! replayed schedule can drift from the recorded one. Two safeguards keep
//! the oracle honest:
//!
//! * fills with no recorded generation left are simply kept (conservative);
//! * generations that ended *at an outage* only gate once the replay's own
//!   supply voltage has sagged below a guard threshold — i.e. when an outage
//!   is plausibly imminent in the replay too. Eviction-ended generations
//!   (stable across passes) gate unconditionally.
//!
//! The result is a slightly *pessimistic* ideal — a lower bound on the true
//! optimum — which is the honest direction to err in.

use crate::fxhash::FxHashMap;
use crate::paged::PagedTable;
use crate::{GatedBlock, LeakagePredictor, TickOutcome, WakeHint};
use ehs_cache::{BlockId, Cache, GateResult};
use ehs_units::Voltage;
use std::collections::VecDeque;

/// One recorded generation: its access count, how it ended, and whether it
/// began as a checkpoint restore (rather than a demand fill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Generation {
    accesses: u32,
    ended_by_outage: bool,
    restored: bool,
}

/// Per-address, per-generation access records from a baseline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationTrace {
    generations: FxHashMap<u64, VecDeque<Generation>>,
}

impl GenerationTrace {
    /// Total number of recorded generations.
    pub fn len(&self) -> usize {
        self.generations.values().map(VecDeque::len).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.generations.is_empty()
    }
}

/// Records block generations during a baseline (pass-1) run.
///
/// Drive it with the same events a predictor sees — fills, hits, evictions
/// and power failures — then call [`OracleRecorder::finish`].
#[derive(Debug, Clone, Default)]
pub struct OracleRecorder {
    trace: GenerationTrace,
}

impl OracleRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A block for `addr` was installed (or restored): a new generation
    /// begins, with the installing access counted. Until it is explicitly
    /// ended, the generation is presumed outage-ended (the conservative
    /// guard applies).
    pub fn on_fill(&mut self, addr: u64) {
        self.push_generation(addr, false);
    }

    /// A block for `addr` was restored from the checkpoint at reboot: a new
    /// generation begins, tagged as restore-origin so the replay pass keys
    /// against the same kind of fill.
    pub fn on_restore(&mut self, addr: u64) {
        self.push_generation(addr, true);
    }

    fn push_generation(&mut self, addr: u64, restored: bool) {
        self.trace
            .generations
            .entry(addr)
            .or_default()
            .push_back(Generation {
                accesses: 1,
                ended_by_outage: true,
                restored,
            });
    }

    /// A lookup hit `addr`: the current generation gains an access.
    pub fn on_hit(&mut self, addr: u64) {
        if let Some(gens) = self.trace.generations.get_mut(&addr) {
            if let Some(last) = gens.back_mut() {
                last.accesses += 1;
            }
        }
    }

    /// The block at `addr` was evicted: its generation ended stably.
    pub fn on_evict(&mut self, addr: u64) {
        if let Some(gens) = self.trace.generations.get_mut(&addr) {
            if let Some(last) = gens.back_mut() {
                last.ended_by_outage = false;
            }
        }
    }

    /// Consumes the recorder, yielding the trace for the replay pass.
    pub fn finish(self) -> GenerationTrace {
        self.trace
    }
}

/// Replays a [`GenerationTrace`] as the ideal dead/zombie block predictor.
///
/// The recorded per-address generation queues are flattened at construction
/// into one contiguous arena, sorted by address, with a `(next, end)` cursor
/// pair per address. Replaying a generation is then a cursor bump — no
/// per-address `VecDeque`s, no hashing, no allocation on the replay path.
#[derive(Debug, Clone)]
pub struct OraclePredictor {
    /// All recorded generations, grouped by address (ascending), each
    /// address's generations in recorded order.
    arena: Vec<Generation>,
    /// Per-address `(next, end)` index range into `arena`; the cursor is
    /// exhausted when `next == end`.
    cursors: PagedTable<(u32, u32)>,
    /// Resident blocks: (remaining accesses, outage-ended flag).
    live: PagedTable<(u32, bool)>,
    /// Blocks whose budgets ran out: (addr, guarded). Guarded kills wait for
    /// the voltage guard.
    pending_kill: Vec<(u64, bool)>,
    /// Outage-ended generations gate only below this voltage.
    guard: Voltage,
}

impl OraclePredictor {
    /// Default voltage guard: just under the restore threshold, i.e. "the
    /// supply is sagging".
    pub const DEFAULT_GUARD: Voltage = Voltage::from_base(3.38);

    /// Creates the oracle from a recorded trace with the default guard.
    pub fn new(trace: GenerationTrace) -> Self {
        let mut per_addr: Vec<(u64, VecDeque<Generation>)> =
            trace.generations.into_iter().collect();
        per_addr.sort_unstable_by_key(|&(addr, _)| addr);
        let total: usize = per_addr.iter().map(|(_, q)| q.len()).sum();
        assert!(u32::try_from(total).is_ok(), "generation trace too large");
        let mut arena = Vec::with_capacity(total);
        let mut cursors = PagedTable::new(0);
        for (addr, queue) in per_addr {
            let start = arena.len() as u32;
            arena.extend(queue);
            let end = arena.len() as u32;
            if end > start {
                cursors.insert(addr, (start, end));
            }
        }
        Self {
            arena,
            cursors,
            live: PagedTable::new(0),
            pending_kill: Vec::new(),
            guard: Self::DEFAULT_GUARD,
        }
    }

    fn consume(&mut self, addr: u64) {
        if let Some((left, outage_ended)) = self.live.get_mut(addr) {
            *left = left.saturating_sub(1);
            if *left == 0 {
                let guarded = *outage_ended;
                self.live.remove(addr);
                self.pending_kill.push((addr, guarded));
            }
        }
    }

    /// Starts a generation if the recorded queue head matches the fill
    /// origin; a mismatch means the schedules have drifted, so the block is
    /// conservatively kept and the cursor left untouched.
    fn begin_generation(&mut self, addr: u64, restored: bool) {
        let Some(cursor) = self.cursors.get_mut(addr) else {
            return;
        };
        let (next, end) = *cursor;
        if next == end {
            return;
        }
        let front = self.arena[next as usize];
        if front.restored != restored {
            return;
        }
        cursor.0 = next + 1;
        if front.accesses == 1 {
            self.pending_kill.push((addr, front.ended_by_outage));
        } else {
            self.live
                .insert(addr, (front.accesses - 1, front.ended_by_outage));
        }
    }
}

impl LeakagePredictor for OraclePredictor {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn on_fill(&mut self, _cache: &Cache, _block: BlockId, addr: u64) {
        self.begin_generation(addr, false);
    }

    fn on_restore_fill(&mut self, _cache: &Cache, _block: BlockId, addr: u64) {
        self.begin_generation(addr, true);
    }

    fn on_hit(&mut self, _cache: &Cache, _block: BlockId, addr: u64) {
        self.consume(addr);
    }

    fn on_evict(&mut self, addr: u64) {
        self.live.remove(addr);
    }

    fn tick_into(
        &mut self,
        cache: &mut Cache,
        voltage: Voltage,
        _cycle: u64,
        out: &mut TickOutcome,
    ) {
        let release = voltage < self.guard;
        // In-place compaction: entries that must wait slide to the front,
        // the rest are gated. No scratch allocation.
        let mut kept = 0;
        for i in 0..self.pending_kill.len() {
            let (addr, guarded) = self.pending_kill[i];
            if guarded && !release {
                self.pending_kill[kept] = (addr, guarded);
                kept += 1;
                continue;
            }
            let Some(block) = cache.contains(addr) else {
                continue; // already evicted or gated by a co-predictor
            };
            // The ideal predictor enjoys the NVSRAM parking path (the sink
            // fires only for a dirty valid block).
            let parked = &mut out.parked;
            match cache.gate(block, |a, data| parked.push(a, data)) {
                GateResult::GatedValid { addr, dirty } => {
                    out.gated.push(GatedBlock { addr, dirty });
                }
                GateResult::GatedInvalid | GateResult::AlreadyGated => {}
            }
        }
        self.pending_kill.truncate(kept);
    }

    fn next_wakeup(&self) -> WakeHint {
        // With nothing pending, a tick drains an empty list: pure no-op.
        // Pending kills only appear through `on_hit`/`on_fill` hooks, which
        // invalidate hints. All-guarded kills wait for the voltage guard
        // (strict `voltage < guard`); any unguarded kill fires on the very
        // next tick, so the hint must demand one.
        if self.pending_kill.is_empty() {
            WakeHint::NEVER
        } else if self.pending_kill.iter().all(|&(_, guarded)| guarded) {
            WakeHint {
                at_cycle: None,
                below_voltage: Some(self.guard),
                every_cycle: false,
            }
        } else {
            WakeHint::EVERY_CYCLE
        }
    }

    fn on_reboot(&mut self, _cache: &Cache) {
        self.live.clear();
        self.pending_kill.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_cache::{AccessKind, CacheConfig};

    const V_HIGH: Voltage = Voltage::from_base(3.5);
    const V_LOW: Voltage = Voltage::from_base(3.25);

    /// Replays an access sequence through a recorder-driven cache; evictions
    /// are reported, and the run ends with a power failure.
    fn record(seq: &[u64]) -> GenerationTrace {
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut rec = OracleRecorder::new();
        for &addr in seq {
            match cache.lookup(addr, AccessKind::Read, |_, _| {}) {
                ehs_cache::LookupResult::Hit(_) => rec.on_hit(addr),
                ehs_cache::LookupResult::Miss { evicted } => {
                    if let Some(ev) = evicted {
                        rec.on_evict(ev);
                    }
                    cache.fill(addr, &[0u8; 16], false);
                    rec.on_fill(addr);
                }
            }
        }
        rec.finish()
    }

    #[test]
    fn recorder_counts_generations() {
        let trace = record(&[0x40, 0x40, 0x40, 0x80]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn outage_ended_generation_waits_for_the_guard() {
        // Single generation, never evicted → outage-ended.
        let trace = record(&[0x40]);
        let mut oracle = OraclePredictor::new(trace);
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        cache.lookup(0x40, AccessKind::Read, |_, _| {});
        let id = cache.fill(0x40, &[0u8; 16], false);
        oracle.on_fill(&cache, id, 0x40);
        // Healthy supply: the guarded kill must wait.
        assert!(oracle.tick(&mut cache, V_HIGH, 0).gated.is_empty());
        assert!(cache.contains(0x40).is_some());
        // Sagging supply: now it fires.
        let out = oracle.tick(&mut cache, V_LOW, 1);
        assert_eq!(out.gated.len(), 1);
        assert_eq!(out.gated[0].addr, 0x40);
    }

    #[test]
    fn eviction_ended_generation_gates_immediately() {
        // 0x40's first generation is evicted in pass 1 by the conflicting
        // fills (paper cache: 64 sets → 0x400 apart collide in set 0).
        let seq = [0x000, 0x400, 0x800, 0xC00, 0x1000, 0x1400];
        let trace = record(&seq);
        let mut oracle = OraclePredictor::new(trace);
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        // Replay only the first fill; its generation is eviction-ended with
        // a single access, so it dies immediately even at high voltage.
        cache.lookup(0x000, AccessKind::Read, |_, _| {});
        let id = cache.fill(0x000, &[0u8; 16], false);
        oracle.on_fill(&cache, id, 0x000);
        let out = oracle.tick(&mut cache, V_HIGH, 0);
        assert_eq!(out.gated.len(), 1);
    }

    #[test]
    fn oracle_never_causes_an_extra_miss() {
        let seq = [0x40, 0x80, 0x40, 0xC0, 0x40, 0x80];
        let trace = record(&seq);
        let mut oracle = OraclePredictor::new(trace);
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        let mut extra_misses = 0;
        let mut seen = std::collections::HashSet::new();
        for &addr in &seq {
            match cache.lookup(addr, AccessKind::Read, |_, _| {}) {
                ehs_cache::LookupResult::Hit(block) => {
                    oracle.on_hit(&cache, block, addr);
                }
                ehs_cache::LookupResult::Miss { .. } => {
                    if seen.contains(&addr) {
                        extra_misses += 1;
                    }
                    let id = cache.fill(addr, &[0u8; 16], false);
                    oracle.on_fill(&cache, id, addr);
                }
            }
            seen.insert(addr);
            let _ = oracle.tick(&mut cache, V_LOW, 0);
        }
        assert_eq!(extra_misses, 0);
    }

    #[test]
    fn unknown_fill_is_kept_conservatively() {
        let trace = record(&[0x40]);
        let mut oracle = OraclePredictor::new(trace);
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        cache.lookup(0xF00, AccessKind::Read, |_, _| {});
        let id = cache.fill(0xF00, &[0u8; 16], false);
        oracle.on_fill(&cache, id, 0xF00);
        assert!(oracle.tick(&mut cache, V_LOW, 0).gated.is_empty());
        assert!(cache.contains(0xF00).is_some());
    }

    #[test]
    fn reboot_clears_pending_state() {
        let trace = record(&[0x40]);
        let mut oracle = OraclePredictor::new(trace);
        let mut cache = Cache::new(CacheConfig::paper_dcache());
        cache.lookup(0x40, AccessKind::Read, |_, _| {});
        let id = cache.fill(0x40, &[0u8; 16], false);
        oracle.on_fill(&cache, id, 0x40);
        cache.power_fail();
        oracle.on_reboot(&cache);
        let out = oracle.tick(&mut cache, V_LOW, 0);
        assert!(out.gated.is_empty());
    }
}
