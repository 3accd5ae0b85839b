//! The set-associative cache mechanism.

use crate::policy::{rank_of, PolicyKernel, SetState, SharedPolicyState, MAX_WAYS};
use crate::{with_policy_kernel, CacheStats, ReplacementPolicy};
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

/// A dirty block that must be written back to the backing store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Writeback {
    /// Block-aligned byte address.
    pub addr: u64,
    /// The block's data.
    pub data: Vec<u8>,
}

/// Details of a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// Where the block lives.
    pub block: BlockId,
    /// Whether the block was dirty *before* this access.
    pub was_dirty: bool,
}

/// Details of a miss. The victim way has already been evicted; the caller
/// must fetch the block from the backing store, perform `writeback` if
/// present, and then call [`Cache::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissInfo {
    /// The frame freed for the incoming block.
    pub victim: BlockId,
    /// Block-aligned address of the valid block that was evicted, if the
    /// victim frame held one (clean or dirty).
    pub evicted: Option<u64>,
    /// Dirty victim content that must be written back, if any.
    pub writeback: Option<Writeback>,
}

/// Result of [`Cache::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The block was present and powered.
    Hit(HitInfo),
    /// The block was absent (or its frame was gated).
    Miss(MissInfo),
}

impl LookupOutcome {
    /// True for [`LookupOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupOutcome::Hit(_))
    }
}

/// Details of a miss as reported by [`Cache::lookup_with`]: like
/// [`MissInfo`] but without owning the victim's dirty data — that went to
/// the caller's write-back sink instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissResult {
    /// The frame freed for the incoming block.
    pub victim: BlockId,
    /// Block-aligned address of the valid block that was evicted, if the
    /// victim frame held one (clean or dirty).
    pub evicted: Option<u64>,
    /// Whether the victim was dirty (its content was passed to the sink).
    pub wrote_back: bool,
}

/// Result of [`Cache::lookup_with`] — the allocation-free counterpart of
/// [`LookupOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The block was present and powered.
    Hit(HitInfo),
    /// The block was absent (or its frame was gated).
    Miss(MissResult),
}

impl LookupResult {
    /// True for [`LookupResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupResult::Hit(_))
    }
}

/// Result of [`Cache::gate_with`] — the allocation-free counterpart of
/// [`GateOutcome`]: dirty content goes to the caller's sink instead of an
/// owned [`Writeback`].
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

/// Result of power-gating a block via [`Cache::gate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateOutcome {
    /// The frame was already gated; nothing happened.
    AlreadyGated,
    /// The frame held no valid block; it is now gated and leak-free.
    GatedInvalid,
    /// A valid block was deactivated. If it was dirty, its content is
    /// returned and the caller must write it back (paper Section V-A:
    /// "dirty blocks require their write back before deactivation").
    GatedValid {
        /// Block-aligned address of the deactivated block.
        addr: u64,
        /// Dirty content to write back, `None` if the block was clean.
        writeback: Option<Writeback>,
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

    /// Replaces the replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
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
/// and one packed [`SetState`] per set, so the tag probe is a branchless
/// compare loop over adjacent words and mask updates are single bit ops.
/// Block data lives in one contiguous arena sized by the geometry
/// (`sets × ways × block_bytes`), indexed by frame.
///
/// The per-access entry points come in two flavours: [`Cache::lookup_with`]
/// / [`Cache::fill`] match the policy enum once per call, while the generic
/// [`Cache::lookup_with_k`] / [`Cache::fill_k`] take a [`PolicyKernel`]
/// type parameter so monomorphized hot loops pay no per-access dispatch.
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
}

impl Cache {
    /// Creates a cold cache: every frame invalid but powered (leaking).
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds [`MAX_WAYS`] (the
    /// packed per-set policy state holds one 4-bit rank lane per way).
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
        let ways = g.associativity as u8;
        let n_sets = g.sets() as usize;
        let init = with_policy_kernel!(config.policy, K => K::init(ways));
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
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.config.geometry.sets()
    }

    /// Number of ways per set.
    pub fn ways(&self) -> u8 {
        self.config.geometry.associativity as u8
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.config.geometry.block_bytes
    }

    /// Total number of frames.
    pub fn blocks(&self) -> u32 {
        self.config.geometry.blocks()
    }

    /// Number of powered (leaking) frames.
    pub fn active_blocks(&self) -> u32 {
        self.blocks() - self.gated_count
    }

    /// Number of power-gated frames.
    pub fn gated_blocks(&self) -> u32 {
        self.gated_count
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup) without touching cache state.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn split(&self, addr: u64) -> (u32, u64) {
        let block_addr = addr / u64::from(self.config.geometry.block_bytes);
        let set = (block_addr % u64::from(self.sets())) as u32;
        let tag = block_addr / u64::from(self.sets());
        (set, tag)
    }

    /// Block-aligned address for (set, tag).
    fn block_addr(&self, set: u32, tag: u64) -> u64 {
        (tag * u64::from(self.sets()) + u64::from(set)) * u64::from(self.block_bytes())
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
    /// immediately (its dirty content returned for write-back) and the
    /// caller is expected to [`Cache::fill`] the requested block next.
    ///
    /// Thin wrapper over [`Cache::lookup_with`] that materialises the dirty
    /// victim as an owned [`Writeback`]; hot paths use the sink variant.
    pub fn lookup(&mut self, addr: u64, kind: AccessKind) -> LookupOutcome {
        let mut writeback = None;
        match self.lookup_with(addr, kind, |wb_addr, data| {
            writeback = Some(Writeback {
                addr: wb_addr,
                data: data.to_vec(),
            });
        }) {
            LookupResult::Hit(hit) => LookupOutcome::Hit(hit),
            LookupResult::Miss(miss) => LookupOutcome::Miss(MissInfo {
                victim: miss.victim,
                evicted: miss.evicted,
                writeback,
            }),
        }
    }

    /// Performs an access without allocating: if the miss victim was dirty,
    /// its (address, data) is handed to `wb_sink` instead of being copied
    /// into an owned [`Writeback`]. Identical state transitions and
    /// statistics to [`Cache::lookup`] (which wraps it).
    ///
    /// Matches the policy enum once per call; monomorphized loops use
    /// [`Cache::lookup_with_k`] directly.
    pub fn lookup_with(
        &mut self,
        addr: u64,
        kind: AccessKind,
        wb_sink: impl FnOnce(u64, &[u8]),
    ) -> LookupResult {
        with_policy_kernel!(
            self.config.policy,
            K => self.lookup_with_k::<K>(addr, kind, wb_sink)
        )
    }

    /// [`Cache::lookup_with`] specialised to a [`PolicyKernel`]: state
    /// transitions and statistics are identical, but replacement updates
    /// compile to the kernel's branchless word ops with no per-access
    /// policy dispatch.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `K` does not match the configured policy.
    pub fn lookup_with_k<K: PolicyKernel>(
        &mut self,
        addr: u64,
        kind: AccessKind,
        wb_sink: impl FnOnce(u64, &[u8]),
    ) -> LookupResult {
        debug_assert_eq!(
            K::POLICY,
            self.config.policy,
            "policy kernel must match the cache's configured policy"
        );
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
            let was_dirty = self.dirty[s] & bit != 0;
            self.dirty[s] |= bit & (0u16.wrapping_sub(u16::from(kind == AccessKind::Write)));
            K::on_hit(&mut self.policy[s], way_idx, ways);
            self.stats.hits += 1;
            return LookupResult::Hit(HitInfo {
                block: BlockId {
                    set: set_idx,
                    way: way_idx,
                },
                was_dirty,
            });
        }

        // Miss path: update dueling stats, pick a victim, evict it.
        self.stats.misses += 1;
        K::on_miss(&mut self.policy[s], set_idx, &mut self.shared);

        // Prefer an invalid powered frame, then a gated frame, then the
        // policy victim.
        let free = !self.valid[s] & !self.gated[s] & self.ways_mask();
        let victim_way = if free != 0 {
            free.trailing_zeros() as u8
        } else if self.gated[s] != 0 {
            self.gated[s].trailing_zeros() as u8
        } else {
            K::victim(&mut self.policy[s], &mut self.shared, ways)
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
        let wrote_back = match evicted {
            Some(wb_addr) if victim_dirty => {
                self.stats.writebacks += 1;
                wb_sink(wb_addr, self.frame_data(set_idx, victim_way));
                true
            }
            _ => false,
        };
        if evicted.is_some() {
            self.stats.evictions += 1;
        }

        LookupResult::Miss(MissResult {
            victim: BlockId {
                set: set_idx,
                way: victim_way,
            },
            evicted,
            wrote_back,
        })
    }

    /// Installs a block (after the backing store supplied `data`), re-powering
    /// the chosen frame if it was gated. `dirty` is true for write-allocate
    /// fills. Returns where the block landed.
    ///
    /// Matches the policy enum once per call; monomorphized loops use
    /// [`Cache::fill_k`] directly.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the block size.
    pub fn fill(&mut self, addr: u64, data: &[u8], dirty: bool) -> BlockId {
        with_policy_kernel!(self.config.policy, K => self.fill_k::<K>(addr, data, dirty))
    }

    /// [`Cache::fill`] specialised to a [`PolicyKernel`]: identical state
    /// transitions and statistics without per-access policy dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the block size; debug builds
    /// panic if `K` does not match the configured policy.
    pub fn fill_k<K: PolicyKernel>(&mut self, addr: u64, data: &[u8], dirty: bool) -> BlockId {
        debug_assert_eq!(
            K::POLICY,
            self.config.policy,
            "policy kernel must match the cache's configured policy"
        );
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
            K::victim(&mut self.policy[s], &mut self.shared, ways)
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
        K::on_fill(
            &mut self.policy[s],
            way_idx,
            set_idx,
            ways,
            &mut self.shared,
        );
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
    pub fn write_data(&mut self, block: BlockId, offset: usize, bytes: &[u8]) {
        let s = block.set as usize;
        let bit = 1u16 << block.way;
        assert!(self.valid[s] & bit != 0, "write to a dead frame");
        self.dirty[s] |= bit;
        let start = self.frame_range(block.set, block.way).start + offset;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Power-gates a frame (gate-Vdd). Content is lost; dirty content is
    /// returned so the caller can write it back *first*.
    ///
    /// Thin wrapper over [`Cache::gate_with`] that materialises the dirty
    /// content as an owned [`Writeback`]; hot paths use the sink variant.
    pub fn gate(&mut self, block: BlockId) -> GateOutcome {
        let mut writeback = None;
        match self.gate_with(block, |addr, data| {
            writeback = Some(Writeback {
                addr,
                data: data.to_vec(),
            });
        }) {
            GateResult::AlreadyGated => GateOutcome::AlreadyGated,
            GateResult::GatedInvalid => GateOutcome::GatedInvalid,
            GateResult::GatedValid { addr, .. } => GateOutcome::GatedValid { addr, writeback },
        }
    }

    /// Power-gates a frame without allocating: dirty content is handed to
    /// `wb_sink` as a borrowed slice instead of being copied into an owned
    /// [`Writeback`]. Identical state transitions and statistics to
    /// [`Cache::gate`] (which wraps it).
    pub fn gate_with(&mut self, block: BlockId, wb_sink: impl FnOnce(u64, &[u8])) -> GateResult {
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
        let was_dirty = self.dirty[s] & bit != 0;
        self.dirty[s] &= !bit;
        if was_dirty {
            self.stats.writebacks += 1;
            wb_sink(addr, self.frame_data(block.set, block.way));
        }
        GateResult::GatedValid {
            addr,
            dirty: was_dirty,
        }
    }

    /// Re-powers every gated frame without filling it (e.g. when a predictor
    /// is reset). Frames come back invalid and leaking.
    pub fn ungate_all(&mut self) {
        for g in self.gated.iter_mut() {
            self.stats.ungates += u64::from(g.count_ones());
            *g = 0;
        }
        self.gated_count = 0;
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
    /// allocating: `f(block_addr, data, dirty)`. The hot path for JIT
    /// checkpointing and whole-cache schemes such as SDBP; the `Vec`
    /// snapshots below are thin wrappers kept for tests and cold paths.
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
        let n_sets = u64::from(self.sets());
        let block_bytes = u64::from(self.block_bytes());
        let ways = usize::from(self.ways());
        self.valid.iter().enumerate().flat_map(move |(s, &v)| {
            let tags = &self.tags[s * ways..(s + 1) * ways];
            (0..ways).filter_map(move |w| {
                if v & (1u16 << w) != 0 {
                    Some((tags[w] * n_sets + s as u64) * block_bytes)
                } else {
                    None
                }
            })
        })
    }

    /// Snapshot of every *valid, powered* dirty block, for JIT checkpointing.
    pub fn dirty_blocks(&self) -> Vec<Writeback> {
        let mut out = Vec::new();
        self.for_each_dirty(|addr, data| {
            out.push(Writeback {
                addr,
                data: data.to_vec(),
            });
        });
        out
    }

    /// Snapshot of every *valid, powered* block (clean and dirty), for
    /// whole-cache checkpointing schemes such as SDBP.
    pub fn valid_blocks(&self) -> Vec<(u64, Vec<u8>, bool)> {
        let mut out = Vec::new();
        self.for_each_valid(|addr, data, dirty| {
            out.push((addr, data.to_vec(), dirty));
        });
        out
    }

    /// Views of every way in a set, annotated with eviction ranks, written
    /// into the low slots of a caller-provided buffer — the allocation-free
    /// interface predictors use to pick gating victims. Returns the number
    /// of slots written (the way count).
    pub fn set_view_into(&self, set: u32, out: &mut [WayView; MAX_WAYS]) -> usize {
        let s = set as usize;
        let word = with_policy_kernel!(self.config.policy, K => K::ranks_word(&self.policy[s]));
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

    /// Views of every way in a set, annotated with eviction ranks — a thin
    /// allocating wrapper over [`Cache::set_view_into`] for tests and cold
    /// paths.
    pub fn set_view(&self, set: u32) -> Vec<WayView> {
        let mut buf = [WayView::default(); MAX_WAYS];
        let n = self.set_view_into(set, &mut buf);
        buf[..n].to_vec()
    }

    /// Collects the addresses of all valid powered blocks.
    pub fn resident_addrs(&self) -> Vec<u64> {
        self.resident_addrs_iter().collect()
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

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.lookup(0x40, AccessKind::Read).is_hit());
        c.fill(0x40, &BLK, false);
        assert!(c.lookup(0x40, AccessKind::Read).is_hit());
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
        c.lookup(0x40, AccessKind::Write);
        c.fill(0x40, &BLK, true);
        match c.lookup(0x40, AccessKind::Write) {
            LookupOutcome::Hit(h) => assert!(h.was_dirty),
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn read_hit_keeps_block_clean() {
        let mut c = small();
        c.lookup(0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        match c.lookup(0x40, AccessKind::Read) {
            LookupOutcome::Hit(h) => assert!(!h.was_dirty),
            _ => panic!("expected hit"),
        }
        assert!(c.dirty_blocks().is_empty(), "read hits must not dirty");
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small();
        // Fill both ways of set 0, first one dirty.
        c.lookup(0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        c.lookup(0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        // Third conflicting block evicts LRU (0x00, dirty).
        match c.lookup(0x80, AccessKind::Read) {
            LookupOutcome::Miss(m) => {
                let wb = m.writeback.expect("dirty victim");
                assert_eq!(wb.addr, 0x00);
                assert_eq!(wb.data, BLK.to_vec());
            }
            _ => panic!("expected miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        c.lookup(0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        match c.lookup(0x80, AccessKind::Read) {
            LookupOutcome::Miss(m) => assert!(m.writeback.is_none()),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        c.lookup(0x40, AccessKind::Read);
        c.fill(0x40, &BLK, false);
        // Touch 0x00 so 0x40 becomes LRU.
        c.lookup(0x00, AccessKind::Read);
        c.lookup(0x80, AccessKind::Read);
        c.fill(0x80, &BLK, false);
        assert!(c.contains(0x00).is_some(), "MRU block survives");
        assert!(c.contains(0x40).is_none(), "LRU block evicted");
    }

    #[test]
    fn gate_clean_block_loses_content_silently() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        let id = c.contains(0x00).expect("resident");
        match c.gate(id) {
            GateOutcome::GatedValid { addr, writeback } => {
                assert_eq!(addr, 0x00);
                assert!(writeback.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.contains(0x00).is_none(), "gated block is gone");
        assert_eq!(c.gated_blocks(), 1);
        assert_eq!(c.active_blocks(), c.blocks() - 1);
    }

    #[test]
    fn gate_dirty_block_returns_writeback() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        let id = c.contains(0x00).expect("resident");
        match c.gate(id) {
            GateOutcome::GatedValid { writeback, .. } => {
                let wb = writeback.expect("dirty content must be written back");
                assert_eq!(wb.addr, 0x00);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gate_is_idempotent() {
        let mut c = small();
        let id = BlockId { set: 0, way: 0 };
        assert_eq!(c.gate(id), GateOutcome::GatedInvalid);
        assert_eq!(c.gate(id), GateOutcome::AlreadyGated);
        assert_eq!(c.gated_blocks(), 1);
    }

    #[test]
    fn fill_repowers_gated_frame() {
        let mut c = small();
        c.gate(BlockId { set: 0, way: 0 });
        c.gate(BlockId { set: 0, way: 1 });
        assert_eq!(c.active_blocks(), c.blocks() - 2);
        c.lookup(0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        assert_eq!(c.gated_blocks(), 1, "one frame re-powered by the fill");
        assert!(c.contains(0x00).is_some());
    }

    #[test]
    fn power_fail_clears_everything() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        c.gate(BlockId { set: 1, way: 0 });
        let lost = c.power_fail();
        assert_eq!(lost, 1);
        assert_eq!(c.gated_blocks(), 0, "reboot re-powers all frames");
        assert!(c.contains(0x00).is_none());
        assert_eq!(c.stats().power_failures, 1);
    }

    #[test]
    fn dirty_blocks_snapshot() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Write);
        c.fill(0x00, &BLK, true);
        c.lookup(0x10, AccessKind::Read);
        c.fill(0x10, &BLK, false);
        let dirty = c.dirty_blocks();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].addr, 0x00);
        assert_eq!(c.valid_blocks().len(), 2);
    }

    #[test]
    fn set_view_exposes_ranks_and_state() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        c.lookup(0x40, AccessKind::Write);
        c.fill(0x40, &BLK, true);
        let view = c.set_view(0);
        assert_eq!(view.len(), 2);
        let v0 = view.iter().find(|v| v.addr == 0x00).expect("present");
        let v1 = view.iter().find(|v| v.addr == 0x40).expect("present");
        assert!(v0.valid && !v0.dirty);
        assert!(v1.valid && v1.dirty);
        assert_eq!(v1.rank, 0, "most recent fill is MRU");
        assert_eq!(v0.rank, 1);
    }

    #[test]
    fn data_round_trip_and_write_data() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Read);
        let id = c.fill(0x00, &BLK, false);
        c.write_data(id, 4, &[1, 2, 3, 4]);
        assert_eq!(&c.data(id)[4..8], &[1, 2, 3, 4]);
        let dirty = c.dirty_blocks();
        assert_eq!(dirty.len(), 1, "write_data dirties the block");
    }

    #[test]
    fn gated_frame_tag_match_is_a_miss() {
        let mut c = small();
        c.lookup(0x00, AccessKind::Read);
        c.fill(0x00, &BLK, false);
        let id = c.contains(0x00).expect("resident");
        c.gate(id);
        assert!(!c.lookup(0x00, AccessKind::Read).is_hit());
    }

    #[test]
    #[should_panic(expected = "exactly one block")]
    fn fill_rejects_wrong_size() {
        let mut c = small();
        c.fill(0x00, &[0u8; 8], false);
    }

    #[test]
    fn generic_kernel_paths_match_dispatched_paths() {
        use crate::LruKernel;
        let mut a = small();
        let mut b = small();
        for i in 0..64u64 {
            let addr = (i * 16) % 256;
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let ra = a.lookup_with(addr, kind, |_, _| {});
            let rb = b.lookup_with_k::<LruKernel>(addr, kind, |_, _| {});
            assert_eq!(ra, rb, "access {i}");
            if !ra.is_hit() {
                assert_eq!(
                    a.fill(addr, &BLK, false),
                    b.fill_k::<LruKernel>(addr, &BLK, false)
                );
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "policy kernel must match")]
    fn mismatched_kernel_panics_in_debug() {
        use crate::DrripKernel;
        let mut c = small(); // configured LRU
        let _ = c.lookup_with_k::<DrripKernel>(0x00, AccessKind::Read, |_, _| {});
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
            if !c.lookup(addr, AccessKind::Read).is_hit() {
                c.fill(addr, &blk, false);
            }
        }
        assert_eq!(c.stats().fills, 4096);
    }
}
