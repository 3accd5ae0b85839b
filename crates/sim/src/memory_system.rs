//! The memory hierarchy: D-cache + I-cache over a sparse backing store,
//! with per-access cost accounting.

use crate::SystemConfig;
use edbp_core::{FxHashMap, PagedTable};
use ehs_cache::{AccessKind, BlockId, Cache, LookupResult};
use ehs_nvm::{ArrayCharacteristics, CacheArrayModel, MainMemoryModel, MemoryCharacteristics};
use ehs_units::{Energy, Power, Time};

/// Cost and event record of one data access.
#[derive(Debug, Clone, PartialEq)]
pub struct DataAccess {
    /// Whether the D-cache hit.
    pub hit: bool,
    /// Block-aligned address of the accessed block.
    pub block_addr: u64,
    /// Frame that now holds the block (hit or freshly filled).
    pub frame: BlockId,
    /// Address of a valid block evicted to make room, if any.
    pub evicted: Option<u64>,
    /// Stall time beyond the execute cycle.
    pub stall: Time,
    /// Dynamic D-cache energy.
    pub dcache_energy: Energy,
    /// Main-memory energy (victim write-back + line fill).
    pub memory_energy: Energy,
    /// The loaded word (0 for stores).
    pub value: u32,
}

/// Cost and event record of one instruction fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct Fetch {
    /// Whether the I-cache hit (true for buffered fetches too).
    pub hit: bool,
    /// Whether the fetch was satisfied by the fetch buffer without touching
    /// the I-cache at all.
    pub buffered: bool,
    /// Block-aligned address of the fetched block.
    pub block_addr: u64,
    /// Frame that now holds the block.
    pub frame: BlockId,
    /// Address of a valid block evicted to make room, if any.
    pub evicted: Option<u64>,
    /// Stall time beyond the execute cycle.
    pub stall: Time,
    /// Dynamic I-cache energy.
    pub icache_energy: Energy,
    /// Main-memory energy.
    pub memory_energy: Energy,
}

/// The D-cache + I-cache + main-memory stack.
///
/// Hit latencies are hidden inside the 40 ns machine cycle (both caches are
/// faster than the clock); misses stall for the probe, the memory transfer
/// and the line fill; dirty evictions additionally pay the memory write.
/// All dynamic energies are charged unconditionally.
#[derive(Debug)]
pub struct MemorySystem {
    /// The SRAM write-back data cache.
    pub dcache: Cache,
    /// The instruction cache (ReRAM by default).
    pub icache: Cache,
    d_chars: ArrayCharacteristics,
    i_chars: ArrayCharacteristics,
    mem_chars: MemoryCharacteristics,
    /// Sparse main memory, keyed by D-cache-block-aligned address.
    backing: FxHashMap<u64, Vec<u8>>,
    d_block: u64,
    /// Fetch buffer: the block the front-end last read from the I-cache.
    /// Sequential fetches within it are free (no I-cache access), which is
    /// how MCU front-ends amortize a block-wide instruction read.
    fetch_buffer: Option<u64>,
    /// Reusable zero image for I-cache fills (instruction bytes are never
    /// inspected, so every fill shares this one buffer).
    i_zero: Box<[u8]>,
    /// Blocks parked in their NVSRAM twins by a predictor: re-referencing
    /// one is a cheap in-place recall, not a main-memory transfer.
    parked: PagedTable<()>,
    /// Cost of recalling one parked block from its twin.
    recall_energy: Energy,
    recall_latency: Time,
}

impl MemorySystem {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &SystemConfig) -> Self {
        let dcache = Cache::new(config.dcache);
        let icache = Cache::new(config.icache);
        let d_chars =
            CacheArrayModel::new(config.dcache_tech, config.dcache.geometry).characteristics();
        let mut i_chars =
            CacheArrayModel::new(config.icache_tech, config.icache.geometry).characteristics();
        i_chars.read_energy = i_chars.read_energy * config.icache_energy_scale;
        i_chars.write_energy = i_chars.write_energy * config.icache_energy_scale;
        i_chars.probe_energy = i_chars.probe_energy * config.icache_energy_scale;
        let mem_chars =
            MainMemoryModel::new(config.memory_tech, config.memory_bytes).characteristics();
        let d_block = u64::from(config.dcache.geometry.block_bytes);
        Self {
            dcache,
            icache,
            d_chars,
            i_chars,
            mem_chars,
            backing: FxHashMap::default(),
            d_block,
            fetch_buffer: None,
            i_zero: vec![0u8; config.icache.geometry.block_bytes as usize].into_boxed_slice(),
            parked: PagedTable::for_block_bytes(config.dcache.geometry.block_bytes),
            recall_energy: config.ckpt.restore_energy_per_byte
                * f64::from(config.dcache.geometry.block_bytes),
            recall_latency: config.ckpt.restore_latency,
        }
    }

    /// Parks a dirty block in its NVSRAM twin: the data is retained (moved
    /// to the backing image for bookkeeping) and future misses on it become
    /// cheap recalls. Returns nothing; the caller charges the save cost.
    pub fn park_from(&mut self, addr: u64, data: &[u8]) {
        self.backing_block(addr).copy_from_slice(data);
        self.parked.insert(addr, ());
    }

    /// Drains every parked block in ascending address order, handing each
    /// `(addr, image)` to `f`, then clears the parked set. This is the
    /// reboot path: the checkpoint machinery re-adopts the parked twins.
    pub fn drain_parked(&mut self, mut f: impl FnMut(u64, &[u8])) {
        let Self {
            parked,
            backing,
            d_block,
            ..
        } = self;
        let len = *d_block as usize;
        parked.for_each(|addr, ()| {
            let data = backing.entry(addr).or_insert_with(|| vec![0u8; len]);
            f(addr, data);
        });
        parked.clear();
    }

    /// D-cache array characteristics (for leakage integration).
    pub fn dcache_characteristics(&self) -> &ArrayCharacteristics {
        &self.d_chars
    }

    /// I-cache array characteristics.
    pub fn icache_characteristics(&self) -> &ArrayCharacteristics {
        &self.i_chars
    }

    /// Main-memory standby power.
    pub fn memory_standby(&self) -> Power {
        self.mem_chars.standby
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr & !(self.d_block - 1)
    }

    /// Reads a block from the backing store (zero-filled on first touch).
    fn backing_block(&mut self, block_addr: u64) -> &mut Vec<u8> {
        let len = self.d_block as usize;
        self.backing
            .entry(block_addr)
            .or_insert_with(|| vec![0u8; len])
    }

    /// Writes one evicted/gated dirty block, given as a borrowed block
    /// image, to main memory and returns its (latency, energy) cost.
    pub fn write_back_from(&mut self, addr: u64, data: &[u8]) -> (Time, Energy) {
        self.backing_block(addr).copy_from_slice(data);
        (self.mem_chars.write_latency, self.mem_chars.write_energy)
    }

    /// Performs a data access (word-aligned), filling on miss.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    // `#[inline(always)]`: with this and `ifetch` as `#[inline]`, solo_fig8
    // measured ~4 % fewer sim-MIPS (2-vCPU x86-64 host).
    #[inline(always)]
    pub fn data_access(&mut self, addr: u32, kind: AccessKind, store_value: u32) -> DataAccess {
        assert_eq!(addr % 4, 0, "unaligned data access at {addr:#x}");
        let addr = u64::from(addr);
        let block_addr = self.block_of(addr);
        let offset = (addr - block_addr) as usize;

        let mut stall = Time::ZERO;
        let mut dcache_energy = Energy::ZERO;
        let mut memory_energy = Energy::ZERO;
        let mut evicted = None;
        let mut hit = false;

        // The victim write-back (if any) lands straight in the backing
        // store via the sink, and its cost is captured here so it can be
        // charged at the exact point the accounting order demands (after
        // the probe, before the fill).
        let mut wb_cost: Option<(Time, Energy)> = None;
        let outcome = {
            let Self {
                dcache,
                backing,
                d_block,
                mem_chars,
                ..
            } = self;
            let len = *d_block as usize;
            dcache.lookup(addr, kind, |wb_addr, data| {
                backing
                    .entry(wb_addr)
                    .or_insert_with(|| vec![0u8; len])
                    .copy_from_slice(data);
                wb_cost = Some((mem_chars.write_latency, mem_chars.write_energy));
            })
        };
        let frame = match outcome {
            LookupResult::Hit(block) => {
                hit = true;
                dcache_energy += self.d_chars.read_energy;
                block
            }
            LookupResult::Miss { evicted: victim } => {
                dcache_energy += self.d_chars.probe_energy;
                stall += self.d_chars.probe_latency;
                evicted = victim;
                if let Some((t, e)) = wb_cost {
                    stall += t;
                    memory_energy += e;
                }
                if self.parked.remove(block_addr).is_some() {
                    // In-place recall from the block's NVSRAM twin.
                    stall += self.recall_latency;
                    dcache_energy += self.recall_energy;
                } else {
                    // Fetch the line from memory.
                    stall += self.mem_chars.read_latency;
                    memory_energy += self.mem_chars.read_energy;
                }
                // Disjoint borrows: fill the D-cache straight from the
                // backing image, no per-miss block clone.
                let Self {
                    dcache,
                    backing,
                    d_block,
                    ..
                } = self;
                let len = *d_block as usize;
                let data = backing.entry(block_addr).or_insert_with(|| vec![0u8; len]);
                let frame = dcache.fill(block_addr, data, kind == AccessKind::Write);
                dcache_energy += self.d_chars.write_energy;
                stall += self.d_chars.write_latency;
                frame
            }
        };

        // Perform the word operation against the cached copy.
        let value = match kind {
            AccessKind::Read => {
                let data = self.dcache.data(frame);
                u32::from_le_bytes([
                    data[offset],
                    data[offset + 1],
                    data[offset + 2],
                    data[offset + 3],
                ])
            }
            AccessKind::Write => {
                self.dcache
                    .write_data(frame, offset, &store_value.to_le_bytes());
                0
            }
        };

        DataAccess {
            hit,
            block_addr,
            frame,
            evicted,
            stall,
            dcache_energy,
            memory_energy,
            value,
        }
    }

    /// Performs an instruction fetch.
    ///
    /// Fetches within the buffered block are free; a new block costs one
    /// I-cache access (hit) or a fill from memory (miss).
    // `#[inline(always)]`: with this and `data_access` as `#[inline]`,
    // solo_fig8 measured ~4 % fewer sim-MIPS (2-vCPU x86-64 host).
    #[inline(always)]
    pub fn ifetch(&mut self, addr: u32) -> Fetch {
        let addr = u64::from(addr);
        let i_block = u64::from(self.icache.block_bytes());
        let block_addr = addr & !(i_block - 1);

        if self.fetch_buffer == Some(block_addr) {
            return Fetch {
                hit: true,
                buffered: true,
                block_addr,
                frame: BlockId { set: 0, way: 0 },
                evicted: None,
                stall: Time::ZERO,
                icache_energy: Energy::ZERO,
                memory_energy: Energy::ZERO,
            };
        }
        self.fetch_buffer = Some(block_addr);

        // Instructions are read-only: the I-cache never holds a dirty
        // block, so its write-back sink is never called.
        let outcome = self.icache.lookup(addr, AccessKind::Read, |wb_addr, _| {
            unreachable!("I-cache blocks are clean; {wb_addr:#x} was dirty")
        });
        match outcome {
            LookupResult::Hit(frame) => Fetch {
                hit: true,
                buffered: false,
                block_addr,
                frame,
                evicted: None,
                stall: Time::ZERO,
                icache_energy: self.i_chars.read_energy,
                memory_energy: Energy::ZERO,
            },
            LookupResult::Miss { evicted } => {
                let frame = self.icache.fill(block_addr, &self.i_zero, false);
                Fetch {
                    hit: false,
                    buffered: false,
                    block_addr,
                    frame,
                    evicted,
                    stall: self.i_chars.probe_latency
                        + self.mem_chars.read_latency
                        + self.i_chars.write_latency,
                    icache_energy: self.i_chars.probe_energy + self.i_chars.write_energy,
                    memory_energy: self.mem_chars.read_energy,
                }
            }
        }
    }

    /// Block-aligned address currently held by the fetch buffer, if any.
    /// Fetches inside it are guaranteed free (no I-cache access, no stall,
    /// no predictor hooks) — the burst fast path keys off this.
    #[inline]
    pub fn buffered_block(&self) -> Option<u64> {
        self.fetch_buffer
    }

    /// Clears the volatile fetch buffer (power outage).
    pub fn reset_fetch_buffer(&mut self) {
        self.fetch_buffer = None;
    }

    /// Restores a checkpointed block into the D-cache at reboot.
    pub fn restore_block(&mut self, addr: u64, data: &[u8], dirty: bool) -> BlockId {
        self.dcache.fill(addr, data, dirty)
    }

    /// Verifies the architectural memory image against an expected map
    /// (testing aid: flushes nothing, reads through the hierarchy).
    pub fn word_at(&mut self, addr: u64) -> u32 {
        let block_addr = self.block_of(addr);
        let offset = (addr - block_addr) as usize;
        // Dirty cached copy wins over the backing store.
        if let Some(frame) = self.dcache.contains(addr) {
            let data = self.dcache.data(frame);
            return u32::from_le_bytes([
                data[offset],
                data[offset + 1],
                data[offset + 2],
                data[offset + 3],
            ]);
        }
        let data = self.backing_block(block_addr);
        u32::from_le_bytes([
            data[offset],
            data[offset + 1],
            data[offset + 2],
            data[offset + 3],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> MemorySystem {
        MemorySystem::new(&SystemConfig::paper_default())
    }

    #[test]
    fn store_then_load_round_trips_through_cache() {
        let mut m = mk();
        m.data_access(0x1000, AccessKind::Write, 0xCAFE_BABE);
        let out = m.data_access(0x1000, AccessKind::Read, 0);
        assert_eq!(out.value, 0xCAFE_BABE);
        assert!(out.hit);
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let mut m = mk();
        let miss = m.data_access(0x2000, AccessKind::Read, 0);
        let hit = m.data_access(0x2000, AccessKind::Read, 0);
        assert!(!miss.hit && hit.hit);
        assert!(miss.stall > hit.stall);
        assert!(miss.memory_energy > hit.memory_energy);
    }

    #[test]
    fn dirty_eviction_reaches_backing_store() {
        let mut m = mk();
        m.data_access(0x0, AccessKind::Write, 77);
        // Evict it by filling the set (4-way, 64 sets, 16 B: addresses
        // 0x400 apart collide).
        for i in 1..=4u32 {
            m.data_access(i * 0x400, AccessKind::Read, 0);
        }
        assert!(m.dcache.contains(0x0).is_none(), "should be evicted");
        assert_eq!(m.word_at(0x0), 77, "write-back must have landed");
    }

    #[test]
    fn ifetch_miss_then_hits_within_block() {
        let mut m = mk();
        let miss = m.ifetch(0x0100_0000);
        assert!(!miss.hit);
        // Next three instructions share the 16 B block.
        for k in 1..4u32 {
            let f = m.ifetch(0x0100_0000 + k * 4);
            assert!(f.hit, "instruction {k} should hit");
            assert!(f.stall.is_zero());
        }
    }

    #[test]
    fn ifetch_miss_reports_the_evicted_block() {
        let mut m = mk();
        // The paper I-cache (4 kB, 4-way, 16 B) has 64 sets: these four
        // blocks fill set 0, so the fifth evicts the least recent, 0x000.
        for addr in [0x000, 0x400, 0x800, 0xC00] {
            assert_eq!(m.ifetch(addr).evicted, None);
        }
        let miss = m.ifetch(0x1000);
        assert!(!miss.hit);
        assert_eq!(miss.evicted, Some(0x000));
    }

    #[test]
    fn word_at_sees_dirty_cached_data() {
        let mut m = mk();
        m.data_access(0x3000, AccessKind::Write, 42);
        assert_eq!(m.word_at(0x3000), 42);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn rejects_unaligned_access() {
        let mut m = mk();
        m.data_access(0x1001, AccessKind::Read, 0);
    }
}
