//! The set-associative cache mechanism.

use crate::policy::{rank_of, SetState, SharedPolicyState, MAX_WAYS};
use crate::{CacheStats, ReplacementPolicy};
use ehs_nvm::CacheGeometry;

/// Which kind of CPU access hits the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store; write-back write-allocate, so hits dirty the block.
    Write,
}

/// Identifies a physical block frame (a way within a set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// Set index.
    pub set: u32,
    /// Way index within the set.
    pub way: u8,
}

/// Result of [`Cache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The block was present and powered, in this frame.
    Hit(BlockId),
    /// The block was absent (or its frame was gated). The victim frame has
    /// already been vacated; the caller fetches the block from the backing
    /// store and then calls [`Cache::fill`].
    Miss {
        /// Block-aligned address of the valid block that was evicted, if the
        /// victim frame held one (clean or dirty).
        evicted: Option<u64>,
    },
}

impl LookupResult {
    /// True for [`LookupResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit(_))
    }
}

/// Result of power-gating a block via [`Cache::gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateResult {
    /// The frame was already gated; nothing happened.
    AlreadyGated,
    /// The frame held no valid block; it is now gated and leak-free.
    GatedInvalid,
    /// A valid block was deactivated.
    GatedValid {
        /// Block-aligned address of the deactivated block.
        addr: u64,
        /// Whether it was dirty (its content was passed to the sink).
        dirty: bool,
    },
}

/// Read-only view of one way, used by predictors to choose gating victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayView {
    /// The frame's identity.
    pub block: BlockId,
    /// Whether the frame holds a valid block.
    pub valid: bool,
    /// Whether that block is dirty.
    pub dirty: bool,
    /// Whether the frame is power-gated.
    pub gated: bool,
    /// Block-aligned address of the resident block (0 when invalid).
    pub addr: u64,
    /// Eviction rank: 0 = most protected, `ways-1` = next victim.
    pub rank: u8,
}

impl Default for WayView {
    /// An invalid, powered, unranked frame — the placeholder value for
    /// fixed [`MAX_WAYS`]-sized view buffers (see [`Cache::set_view_into`]).
    fn default() -> Self {
        Self {
            block: BlockId { set: 0, way: 0 },
            valid: false,
            dirty: false,
            gated: false,
            addr: 0,
            rank: 0,
        }
    }
}

/// Cache configuration: geometry plus replacement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Array shape.
    pub geometry: CacheGeometry,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// The paper's data cache: 4 kB, 4-way, 16 B blocks, LRU.
    pub fn paper_dcache() -> Self {
        Self {
            geometry: CacheGeometry::paper_dcache(),
            policy: ReplacementPolicy::Lru,
        }
    }

    /// The paper's instruction cache: 4 kB, 4-way, 16 B blocks, LRU.
    pub fn paper_icache() -> Self {
        Self {
            geometry: CacheGeometry::paper_icache(),
            policy: ReplacementPolicy::Lru,
        }
    }
}

/// Tag value of a frame holding no block (invalid or gated — gating takes
/// the tag). Real tags are `block_addr / sets` of 32-bit addresses and can
/// never reach it, so the probe loop needs no separate valid check: a tag
/// match *is* a powered, valid hit.
const TAG_NONE: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache with per-block
/// power gating. See the crate-level docs for the access protocol.
///
/// Metadata is struct-of-arrays: one flat per-frame tag column (sentinel
/// `TAG_NONE` for empty frames) plus per-set valid/dirty/gated bitmasks
/// and one packed 16-byte replacement state per set, so the tag probe is a
/// branchless compare loop over adjacent words and mask updates are single
/// bit ops. Block data lives in one contiguous arena sized by the geometry
/// (`sets × ways × block_bytes`), indexed by frame.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per-frame tags (`set * ways + way`), [`TAG_NONE`] when empty.
    tags: Box<[u64]>,
    /// Per-set mask of ways holding a valid powered block.
    valid: Box<[u16]>,
    /// Per-set mask of dirty ways (dirty implies valid).
    dirty: Box<[u16]>,
    /// Per-set mask of power-gated ways (gated implies not valid).
    gated: Box<[u16]>,
    /// Per-set packed replacement state.
    policy: Box<[SetState]>,
    /// Block data for every frame, `frame_index * block_bytes` apart.
    data: Box<[u8]>,
    shared: SharedPolicyState,
    stats: CacheStats,
    gated_count: u32,
    /// `log2(block_bytes)`: an address's block number is `addr >> block_shift`.
    block_shift: u32,
    /// `log2(sets)`: a block number's tag is `block >> set_shift`.
    set_shift: u32,
    /// `sets - 1`: a block number's set is `block & set_mask`.
    set_mask: u64,
}

impl Cache {
    /// Creates a cold cache: every frame invalid but powered (leaking).
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds [`MAX_WAYS`] (the
    /// packed per-set policy state holds one 4-bit rank lane per way), or if
    /// its block size or set count is not a power of two: addresses are
    /// split into set and tag with a shift and a mask.
    /// [`CacheGeometry::new`] rejects such shapes, but the geometry's fields
    /// are public, so a struct literal can still build one.
    pub fn new(config: CacheConfig) -> Self {
        let g = config.geometry;
        assert!(
            g.associativity as usize <= MAX_WAYS && g.associativity > 0,
            "packed policy state caps associativity at {MAX_WAYS} ways"
        );
        assert!(
            g.associativity <= crate::probe::PROBE_MASK_BITS,
            "tag probe returns a u32 hit mask; associativity {} exceeds \
             the {} ways it can cover",
            g.associativity,
            crate::probe::PROBE_MASK_BITS,
        );
        assert!(
            g.block_bytes.is_power_of_two(),
            "block_bytes must be a nonzero power of two (got {})",
            g.block_bytes
        );
        assert!(
            g.sets().is_power_of_two(),
            "sets (capacity_bytes / (associativity * block_bytes)) must be a \
             nonzero power of two (got {})",
            g.sets()
        );
        let ways = g.associativity as u8;
        let n_sets = g.sets() as usize;
        let init = SetState::new(config.policy, ways);
        Self {
            config,
            tags: vec![TAG_NONE; n_sets * usize::from(ways)].into_boxed_slice(),
            valid: vec![0u16; n_sets].into_boxed_slice(),
            dirty: vec![0u16; n_sets].into_boxed_slice(),
            gated: vec![0u16; n_sets].into_boxed_slice(),
            policy: vec![init; n_sets].into_boxed_slice(),
            data: vec![0u8; g.blocks() as usize * g.block_bytes as usize].into_boxed_slice(),
            shared: SharedPolicyState::new(config.policy, g.sets()),
            stats: CacheStats::default(),
            gated_count: 0,
            block_shift: g.block_bytes.trailing_zeros(),
            set_shift: g.sets().trailing_zeros(),
            set_mask: u64::from(g.sets()) - 1,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u32 {
        self.set_mask as u32 + 1
    }

    /// Number of ways per set.
    #[inline]
    pub fn ways(&self) -> u8 {
        self.config.geometry.associativity as u8
    }

    /// Block size in bytes.
    #[inline]
    pub fn block_bytes(&self) -> u32 {
        self.config.geometry.block_bytes
    }

    /// Total number of frames.
    #[inline]
    pub fn blocks(&self) -> u32 {
        self.config.geometry.blocks()
    }

    /// Number of powered (leaking) frames.
    #[inline]
    pub fn active_blocks(&self) -> u32 {
        self.blocks() - self.gated_count
    }

    /// Number of power-gated frames.
    #[inline]
    pub fn gated_blocks(&self) -> u32 {
        self.gated_count
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// (set, tag) of `addr`: its block number's low `log2(sets)` bits and
    /// the bits above them. `Cache::new` asserts the power-of-two geometry
    /// that makes these the division's remainder and quotient.
    #[inline]
    fn split(&self, addr: u64) -> (u32, u64) {
        let block = addr >> self.block_shift;
        ((block & self.set_mask) as u32, block >> self.set_shift)
    }

    /// Block-aligned address for (set, tag), the inverse of [`Self::split`].
    #[inline]
    fn block_addr(&self, set: u32, tag: u64) -> u64 {
        ((tag << self.set_shift) | u64::from(set)) << self.block_shift
    }

    /// Arena byte range of the frame at (set, way).
    #[inline]
    fn frame_range(&self, set: u32, way: u8) -> std::ops::Range<usize> {
        let bytes = self.config.geometry.block_bytes as usize;
        let frame = set as usize * usize::from(self.ways()) + usize::from(way);
        frame * bytes..(frame + 1) * bytes
    }

    #[inline]
    fn frame_data(&self, set: u32, way: u8) -> &[u8] {
        &self.data[self.frame_range(set, way)]
    }

    /// Flat frame index of (set, way) in the tag column.
    #[inline]
    fn frame_index(&self, set: u32, way: u8) -> usize {
        set as usize * usize::from(self.ways()) + usize::from(way)
    }

    /// Mask covering the low `ways` bits of the per-set state words.
    #[inline]
    fn ways_mask(&self) -> u16 {
        u16::MAX >> (16 - u32::from(self.ways()))
    }

    /// True if the set `addr` maps to has a frame that can accept a fill
    /// without displacing a live block (an invalid or gated frame).
    pub fn has_free_frame(&self, addr: u64) -> bool {
        let (set, _) = self.split(addr);
        self.valid[set as usize] != self.ways_mask()
    }

    /// Probes for `addr` without touching replacement state or statistics.
    #[inline]
    pub fn contains(&self, addr: u64) -> Option<BlockId> {
        let (set, tag) = self.split(addr);
        let ways = usize::from(self.ways());
        let base = set as usize * ways;
        let mask = crate::probe::probe(&self.tags[base..base + ways], tag);
        (mask != 0).then(|| BlockId {
            set,
            way: mask.trailing_zeros() as u8,
        })
    }

    /// Performs an access. On a miss, the victim frame is evicted
    /// immediately and the caller is expected to [`Cache::fill`] the
    /// requested block next. A dirty victim leaves the cache through
    /// `wb_sink`, called once with its block address and a borrow of its
    /// bytes before this returns, so the caller writes it back without an
    /// allocation; `wb_sink` is not called otherwise.
    // `#[inline(always)]`: as `#[inline]`, solo_fig8 measured ~4 % fewer
    // sim-MIPS (2-vCPU x86-64 host).
    #[inline(always)]
    pub fn lookup(
        &mut self,
        addr: u64,
        kind: AccessKind,
        wb_sink: impl FnOnce(u64, &[u8]),
    ) -> LookupResult {
        let (set_idx, tag) = self.split(addr);
        let s = set_idx as usize;
        let ways = self.ways();
        let base = s * usize::from(ways);

        // Empty (invalid or gated) frames hold TAG_NONE, so a tag match is
        // a powered, valid hit — no mask check needed (see the `probe`
        // module).
        let match_mask = crate::probe::probe(&self.tags[base..base + usize::from(ways)], tag);
        if match_mask != 0 {
            let way_idx = match_mask.trailing_zeros() as u8;
            let bit = 1u16 << way_idx;
            self.dirty[s] |= bit & (0u16.wrapping_sub(u16::from(kind == AccessKind::Write)));
            self.policy[s].on_hit(self.config.policy, way_idx, ways);
            self.stats.hits += 1;
            return LookupResult::Hit(BlockId {
                set: set_idx,
                way: way_idx,
            });
        }

        // Miss path: update dueling stats, pick a victim, evict it.
        self.stats.misses += 1;
        self.shared.on_miss(set_idx);

        // Prefer an invalid powered frame, then a gated frame, then the
        // policy victim.
        let free = !self.valid[s] & !self.gated[s] & self.ways_mask();
        let victim_way = if free != 0 {
            free.trailing_zeros() as u8
        } else if self.gated[s] != 0 {
            self.gated[s].trailing_zeros() as u8
        } else {
            self.policy[s].victim(&mut self.shared, ways)
        };

        let bit = 1u16 << victim_way;
        let frame = base + usize::from(victim_way);
        let evicted = if self.gated[s] & bit != 0 || self.tags[frame] == TAG_NONE {
            None
        } else {
            Some(self.block_addr(set_idx, self.tags[frame]))
        };
        let victim_dirty = self.dirty[s] & bit != 0;
        // Invalidate; a gated victim keeps its gated state (fill re-powers).
        self.tags[frame] = TAG_NONE;
        self.valid[s] &= !bit;
        self.dirty[s] &= !bit;
        if let Some(wb_addr) = evicted {
            self.stats.evictions += 1;
            if victim_dirty {
                self.stats.writebacks += 1;
                wb_sink(wb_addr, self.frame_data(set_idx, victim_way));
            }
        }
        LookupResult::Miss { evicted }
    }

    /// Installs a block (after the backing store supplied `data`), re-powering
    /// the chosen frame if it was gated. `dirty` is true for write-allocate
    /// fills. Returns where the block landed.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the block size.
    #[inline]
    pub fn fill(&mut self, addr: u64, data: &[u8], dirty: bool) -> BlockId {
        assert_eq!(
            data.len(),
            self.block_bytes() as usize,
            "fill data must be exactly one block"
        );
        let (set_idx, tag) = self.split(addr);
        let s = set_idx as usize;
        let ways = self.ways();

        // Choose the frame: an invalid powered frame (the one lookup just
        // evicted, typically), else a gated frame, else the policy victim.
        let free = !self.valid[s] & !self.gated[s] & self.ways_mask();
        let way_idx = if free != 0 {
            free.trailing_zeros() as u8
        } else if self.gated[s] != 0 {
            self.gated[s].trailing_zeros() as u8
        } else {
            self.policy[s].victim(&mut self.shared, ways)
        };

        let bit = 1u16 << way_idx;
        let frame = self.frame_index(set_idx, way_idx);
        debug_assert!(
            self.tags[frame] == TAG_NONE,
            "fill must not silently clobber a live block; lookup evicts first"
        );
        if self.gated[s] & bit != 0 {
            self.gated[s] &= !bit;
            self.gated_count -= 1;
            self.stats.ungates += 1;
        }
        self.tags[frame] = tag;
        self.valid[s] |= bit;
        if dirty {
            self.dirty[s] |= bit;
        } else {
            self.dirty[s] &= !bit;
        }
        self.policy[s].on_fill(way_idx, set_idx, ways, &mut self.shared);
        let range = self.frame_range(set_idx, way_idx);
        self.data[range].copy_from_slice(data);
        self.stats.fills += 1;

        BlockId {
            set: set_idx,
            way: way_idx,
        }
    }

    /// Reads the data of a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the frame is gated or invalid.
    #[inline]
    pub fn data(&self, block: BlockId) -> &[u8] {
        let bit = 1u16 << block.way;
        assert!(
            self.valid[block.set as usize] & bit != 0,
            "data of a dead frame"
        );
        self.frame_data(block.set, block.way)
    }

    /// Writes bytes into a resident block at `offset`, marking it dirty.
    ///
    /// # Panics
    ///
    /// Panics if the frame is gated/invalid or the range is out of bounds.
    #[inline]
    pub fn write_data(&mut self, block: BlockId, offset: usize, bytes: &[u8]) {
        let s = block.set as usize;
        let bit = 1u16 << block.way;
        assert!(self.valid[s] & bit != 0, "write to a dead frame");
        self.dirty[s] |= bit;
        let start = self.frame_range(block.set, block.way).start + offset;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Power-gates a frame (gate-Vdd): its content is lost and it stops
    /// leaking. A dirty block leaves the cache through `wb_sink` first,
    /// called once with its block address and a borrow of its bytes, so the
    /// caller saves it before deactivation (paper Section V-A: "dirty blocks
    /// require their write back before deactivation") without an
    /// allocation; `wb_sink` is not called otherwise.
    pub fn gate(&mut self, block: BlockId, wb_sink: impl FnOnce(u64, &[u8])) -> GateResult {
        let s = block.set as usize;
        let bit = 1u16 << block.way;
        if self.gated[s] & bit != 0 {
            return GateResult::AlreadyGated;
        }
        self.gated[s] |= bit;
        self.gated_count += 1;
        self.stats.gates += 1;
        let frame = self.frame_index(block.set, block.way);
        let tag = self.tags[frame];
        if tag == TAG_NONE {
            return GateResult::GatedInvalid;
        }
        // Gating takes the tag: a gated frame never matches a probe.
        self.tags[frame] = TAG_NONE;
        self.valid[s] &= !bit;
        let addr = self.block_addr(block.set, tag);
        let dirty = self.dirty[s] & bit != 0;
        self.dirty[s] &= !bit;
        if dirty {
            self.stats.writebacks += 1;
            wb_sink(addr, self.frame_data(block.set, block.way));
        }
        GateResult::GatedValid { addr, dirty }
    }

    /// Models a power outage: every frame loses its content and comes back
    /// powered (cold and leaking) at reboot. Returns the number of *valid*
    /// blocks that were lost — the zombie-analysis input.
    pub fn power_fail(&mut self) -> u32 {
        let lost = self.valid.iter().map(|v| v.count_ones()).sum();
        self.tags.fill(TAG_NONE);
        self.valid.fill(0);
        self.dirty.fill(0);
        self.gated.fill(0);
        self.gated_count = 0;
        self.stats.power_failures += 1;
        lost
    }

    /// Visits every *valid, powered* block (clean and dirty) without
    /// allocating: `f(block_addr, data, dirty)`, in set then way order. The
    /// walk behind JIT checkpointing and whole-cache schemes such as SDBP.
    pub fn for_each_valid(&self, mut f: impl FnMut(u64, &[u8], bool)) {
        let ways = usize::from(self.ways());
        for (s, &valid) in self.valid.iter().enumerate() {
            let mut live = valid;
            while live != 0 {
                let w = live.trailing_zeros() as u8;
                live &= live - 1;
                let frame = s * ways + usize::from(w);
                f(
                    self.block_addr(s as u32, self.tags[frame]),
                    self.frame_data(s as u32, w),
                    self.dirty[s] & (1u16 << w) != 0,
                );
            }
        }
    }

    /// Visits every *valid, powered* dirty block without allocating:
    /// `f(block_addr, data)`.
    pub fn for_each_dirty(&self, mut f: impl FnMut(u64, &[u8])) {
        self.for_each_valid(|addr, data, dirty| {
            if dirty {
                f(addr, data);
            }
        });
    }

    /// Iterates the addresses of all valid powered blocks. Touches only
    /// tag metadata — no block data, no allocation — so it is cheap enough
    /// for per-cycle instrumentation (the zombie sampler).
    pub fn resident_addrs_iter(&self) -> impl Iterator<Item = u64> + '_ {
        let ways = usize::from(self.ways());
        self.valid.iter().enumerate().flat_map(move |(s, &v)| {
            let tags = &self.tags[s * ways..(s + 1) * ways];
            (0..ways).filter_map(move |w| {
                if v & (1u16 << w) != 0 {
                    Some(self.block_addr(s as u32, tags[w]))
                } else {
                    None
                }
            })
        })
    }

    /// Views of every way in a set, annotated with eviction ranks, written
    /// into the low slots of a caller-provided buffer — the allocation-free
    /// interface predictors use to pick gating victims. Returns the number
    /// of slots written (the way count).
    pub fn set_view_into(&self, set: u32, out: &mut [WayView; MAX_WAYS]) -> usize {
        let s = set as usize;
        let word = self.policy[s].ranks;
        let ways = self.ways();
        for w in 0..ways {
            let bit = 1u16 << w;
            let valid = self.valid[s] & bit != 0;
            let frame = s * usize::from(ways) + usize::from(w);
            out[usize::from(w)] = WayView {
                block: BlockId { set, way: w },
                valid,
                dirty: self.dirty[s] & bit != 0,
                gated: self.gated[s] & bit != 0,
                addr: if valid {
                    self.block_addr(set, self.tags[frame])
                } else {
                    0
                },
                rank: rank_of(word, w),
            };
        }
        usize::from(ways)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16 B = 128 B.
        let g = CacheGeometry::new(128, 2, 16).expect("valid");
        Cache::new(CacheConfig {
            geometry: g,
            policy: ReplacementPolicy::Lru,
        })
    }

    const BLK: [u8; 16] = [0xAB; 16];

    /// An access whose caller expects no dirty victim.
    fn access(c: &mut Cache, addr: u64, kind: AccessKind) -> LookupResult {
        c.lookup(addr, kind, |wb_addr, _| {
            panic!("unexpected write-back of {wb_addr:#x}")
        })
    }

    fn dirty_addrs(c: &Cache) -> Vec<u64> {
        let mut out = Vec::new();
        c.for_each_dirty(|addr, _| out.push(addr));
        out
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert_eq!(
            access(&mut c, 0x40, AccessKind::Read),
            LookupResult::Miss { evicted: None }
        );
        let id = c.fill(0x40, &BLK, false);
        assert_eq!(
            access(&mut c, 0x40, AccessKind::Read),
            LookupResult::Hit(id)
        );
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn set_mapping_separates_conflicting_blocks() {
        let c = small();
        // 4 sets, 16 B blocks: 0x00 and 0x40 map to sets 0 and 0 (0x40/16=4, 4%4=0).
        let (s0, t0) = c.split(0x00);
        let (s1, t1) = c.split(0x40);
        assert_eq!(s0, s1);
        assert_ne!(t0, t1);
        let (s2, _) = c.split(0x10);
        assert_eq!(s2, 1);
    }

    #[test]
    fn write_hit_dirties_block() {
        let mut c = small();
        access(&mut c, 0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        assert!(dirty_addrs(&c).is_empty(), "clean fill");
        assert!(access(&mut c, 0x40, AccessKind::Write).is_hit());
        assert_eq!(dirty_addrs(&c), [0x40]);
    }

    #[test]
    fn read_hit_keeps_block_clean() {
        let mut c = small();
        access(&mut c, 0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        assert!(access(&mut c, 0x40, AccessKind::Read).is_hit());
        assert!(dirty_addrs(&c).is_empty(), "read hits must not dirty");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        // Fill both ways of set 0, first one dirty.
        access(&mut c, 0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        access(&mut c, 0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        // Third conflicting block evicts LRU (0x00, dirty).
        let mut wb = None;
        let outcome = c.lookup(0x80, AccessKind::Read, |addr, data| {
            wb = Some((addr, data.to_vec()));
        });
        assert_eq!(
            outcome,
            LookupResult::Miss {
                evicted: Some(0x00)
            }
        );
        assert_eq!(wb, Some((0x00, BLK.to_vec())));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        access(&mut c, 0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        assert_eq!(
            access(&mut c, 0x80, AccessKind::Read),
            LookupResult::Miss {
                evicted: Some(0x00)
            }
        );
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        access(&mut c, 0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        // Touch 0x00 so 0x40 becomes LRU.
        access(&mut c, 0x00, AccessKind::Read);
        access(&mut c, 0x80, AccessKind::Read);
        c.fill(0x80, &BLK, false);
        assert!(c.contains(0x00).is_some(), "MRU block survives");
        assert!(c.contains(0x40).is_none(), "LRU block evicted");
    }

    #[test]
    fn gate_clean_block_loses_content_silently() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        let id = c.contains(0x00).expect("resident");
        let outcome = c.gate(id, |addr, _| panic!("clean {addr:#x} written back"));
        assert_eq!(
            outcome,
            GateResult::GatedValid {
                addr: 0x00,
                dirty: false
            }
        );
        assert!(c.contains(0x00).is_none(), "gated block is gone");
        assert_eq!(c.gated_blocks(), 1);
        assert_eq!(c.active_blocks(), c.blocks() - 1);
    }

    #[test]
    fn gate_dirty_block_returns_writeback() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        let id = c.contains(0x00).expect("resident");
        let mut wb = None;
        let outcome = c.gate(id, |addr, data| wb = Some((addr, data.to_vec())));
        assert_eq!(
            outcome,
            GateResult::GatedValid {
                addr: 0x00,
                dirty: true
            }
        );
        assert_eq!(
            wb,
            Some((0x00, BLK.to_vec())),
            "dirty content must be written back"
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn gate_is_idempotent() {
        let mut c = small();
        let id = BlockId { set: 0, way: 0 };
        assert_eq!(c.gate(id, |_, _| {}), GateResult::GatedInvalid);
        assert_eq!(c.gate(id, |_, _| {}), GateResult::AlreadyGated);
        assert_eq!(c.gated_blocks(), 1);
    }

    #[test]
    fn fill_repowers_gated_frame() {
        let mut c = small();
        c.gate(BlockId { set: 0, way: 0 }, |_, _| {});
        c.gate(BlockId { set: 0, way: 1 }, |_, _| {});
        assert_eq!(c.active_blocks(), c.blocks() - 2);
        access(&mut c, 0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        assert_eq!(c.gated_blocks(), 1, "one frame re-powered by the fill");
        assert!(c.contains(0x00).is_some());
    }

    #[test]
    fn power_fail_clears_everything() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        c.gate(BlockId { set: 1, way: 0 }, |_, _| {});
        let lost = c.power_fail();
        assert_eq!(lost, 1);
        assert_eq!(c.gated_blocks(), 0, "reboot re-powers all frames");
        assert!(c.contains(0x00).is_none());
        assert_eq!(c.resident_addrs_iter().count(), 0);
        assert_eq!(c.stats().power_failures, 1);
    }

    #[test]
    fn walks_visit_the_valid_and_the_dirty() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        access(&mut c, 0x10, AccessKind::Read);
        c.fill(0x10, &[0xCD; 16], false);
        assert_eq!(dirty_addrs(&c), [0x00]);
        let mut valid = Vec::new();
        c.for_each_valid(|addr, data, dirty| valid.push((addr, data[0], dirty)));
        assert_eq!(valid, [(0x00, 0xAB, true), (0x10, 0xCD, false)]);
    }

    #[test]
    fn set_view_exposes_ranks_and_state() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        access(&mut c, 0x40, AccessKind::Write);
        c.fill(0x40, &BLK, true);
        let mut view = [WayView::default(); MAX_WAYS];
        assert_eq!(c.set_view_into(0, &mut view), 2);
        let v0 = view[..2].iter().find(|v| v.addr == 0x00).expect("present");
        let v1 = view[..2].iter().find(|v| v.addr == 0x40).expect("present");
        assert!(v0.valid && !v0.dirty);
        assert!(v1.valid && v1.dirty);
        assert_eq!(v1.rank, 0, "most recent fill is MRU");
        assert_eq!(v0.rank, 1);
    }

    #[test]
    fn set_view_into_writes_only_the_low_slots() {
        let mut c = small();
        for addr in [0x00, 0x40, 0x00, 0x80] {
            if !access(&mut c, addr, AccessKind::Read).is_hit() {
                c.fill(addr, &BLK, false);
            }
        }
        let mut buf = [WayView {
            rank: 0xAA,
            ..WayView::default()
        }; MAX_WAYS];
        assert_eq!(c.set_view_into(0, &mut buf), 2);
        assert_eq!(
            buf[..2]
                .iter()
                .map(|v| (v.addr, v.rank))
                .collect::<Vec<_>>(),
            [(0x00, 1), (0x80, 0)],
            "0x80 replaced LRU 0x40 in way 1 and is most recent"
        );
        assert!(
            buf[2..].iter().all(|v| v.rank == 0xAA),
            "slots past ways kept"
        );
    }

    #[test]
    fn data_round_trip_and_write_data() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Read);
        let id = c.fill(0x00, &BLK, false);
        c.write_data(id, 4, &[1, 2, 3, 4]);
        assert_eq!(&c.data(id)[4..8], &[1, 2, 3, 4]);
        assert_eq!(dirty_addrs(&c), [0x00], "write_data dirties the block");
    }

    #[test]
    fn gated_frame_tag_match_is_a_miss() {
        let mut c = small();
        access(&mut c, 0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        let id = c.contains(0x00).expect("resident");
        c.gate(id, |_, _| {});
        assert!(!access(&mut c, 0x00, AccessKind::Read).is_hit());
    }

    #[test]
    #[should_panic(expected = "exactly one block")]
    fn fill_rejects_wrong_size() {
        let mut c = small();
        c.fill(0x00, &[0u8; 8], false);
    }

    /// The geometries the experiment sweeps build: the Fig. 11 capacities
    /// (256 B to 16 kB, associativity clamped to the block count), the
    /// Fig. 12 associativities (direct-mapped to 8-way at 4 kB), each with
    /// 16 B and 32 B blocks.
    fn swept_geometries() -> Vec<CacheGeometry> {
        let mut out = Vec::new();
        for block in [16, 32] {
            for shift in 8..=14 {
                let bytes = 1u32 << shift;
                let ways = 4.min(bytes / block);
                out.push(CacheGeometry::new(bytes, ways, block).expect("valid"));
            }
            for ways in [1, 2, 4, 8] {
                out.push(CacheGeometry::new(4096, ways, block).expect("valid"));
            }
        }
        out
    }

    #[test]
    fn shift_indexing_matches_the_division_formulas() {
        // Every address near the bottom, near each power of two and near
        // the top of the 32-bit range, plus a stride that crosses it.
        let mut addrs: Vec<u64> = (0..4096).collect();
        for bit in 12..=32 {
            let edge = 1u64 << bit;
            addrs.extend(edge.saturating_sub(256)..(edge + 256).min(1 << 32));
        }
        addrs.extend((0..1u64 << 32).step_by(65_537));
        for g in swept_geometries() {
            let c = Cache::new(CacheConfig {
                geometry: g,
                policy: ReplacementPolicy::Lru,
            });
            let (block, sets) = (u64::from(g.block_bytes), u64::from(g.sets()));
            assert_eq!(c.sets(), g.sets(), "{g:?}");
            for &addr in &addrs {
                let want_set = (addr / block % sets) as u32;
                let want_tag = addr / block / sets;
                assert_eq!(c.split(addr), (want_set, want_tag), "{g:?} at {addr:#x}");
                assert_eq!(
                    c.block_addr(want_set, want_tag),
                    (want_tag * sets + u64::from(want_set)) * block,
                    "{g:?} at {addr:#x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "block_bytes must be a nonzero power of two")]
    fn struct_literal_geometry_with_odd_block_is_rejected() {
        Cache::new(CacheConfig {
            geometry: CacheGeometry {
                capacity_bytes: 4096,
                associativity: 4,
                block_bytes: 24,
            },
            policy: ReplacementPolicy::Lru,
        });
    }

    #[test]
    #[should_panic(expected = "sets (capacity_bytes / (associativity * block_bytes)) must be")]
    fn struct_literal_geometry_with_odd_set_count_is_rejected() {
        // 3 ways of 16 B in 4 kB: 85 sets.
        Cache::new(CacheConfig {
            geometry: CacheGeometry {
                capacity_bytes: 4096,
                associativity: 3,
                block_bytes: 16,
            },
            policy: ReplacementPolicy::Lru,
        });
    }

    #[test]
    fn drrip_cache_works_end_to_end() {
        let g = CacheGeometry::new(4096, 4, 16).expect("valid");
        let mut c = Cache::new(CacheConfig {
            geometry: g,
            policy: ReplacementPolicy::Drrip,
        });
        let blk = [0u8; 16];
        // Streaming pattern: DRRIP should not thrash everything.
        for i in 0..4096u64 {
            let addr = i * 16;
            if !access(&mut c, addr, AccessKind::Read).is_hit() {
                c.fill(addr, &blk, false);
            }
        }
        assert_eq!(c.stats().fills, 4096);
    }
}
