//! Model-based property tests: the cache against a reference model, under
//! random mixes of accesses, gating, and power failures.

use ehs_cache::{
    AccessKind, BlockId, Cache, CacheConfig, CacheGeometry, GateResult, LookupResult,
    ReplacementPolicy, WayView, MAX_WAYS,
};
use proptest::prelude::*;
use std::collections::HashMap;

type Block = [u8; 16];

/// Operations thrown at the cache.
#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    /// Stores the word at the block's offset 0.
    Write(u64, u32),
    Gate {
        set: u32,
        way: u8,
    },
    PowerFail,
}

fn op_strategy(sets: u32, ways: u8) -> impl Strategy<Value = Op> {
    // A handful of conflicting block addresses per set keeps pressure high.
    let addr = (0u64..64).prop_map(|i| i * 16);
    prop_oneof![
        4 => addr.clone().prop_map(Op::Read),
        3 => (addr, any::<u32>()).prop_map(|(addr, value)| Op::Write(addr, value)),
        2 => (0..sets, 0..ways).prop_map(|(set, way)| Op::Gate { set, way }),
        1 => Just(Op::PowerFail),
    ]
}

/// Reference model. Which frame a block lands in and which block a miss
/// evicts are the replacement policy's choice, so the model learns them
/// from the cache's own reports (fills, evictions, gating, outages); it
/// then holds every resident block's bytes and dirty flag, and the backing
/// memory that write-backs update and fills read.
#[derive(Default)]
struct Reference {
    /// Block address -> (bytes, dirty) for every block the cache must hold.
    resident: HashMap<u64, (Block, bool)>,
    /// The last bytes written back for each block.
    memory: HashMap<u64, Block>,
}

impl Reference {
    /// What a fill of `addr` installs: the written-back copy, else bytes
    /// unique to the address, so a visitor handing out another frame's
    /// bytes cannot hide behind identical block images.
    fn memory_block(&self, addr: u64) -> Block {
        self.memory.get(&addr).copied().unwrap_or_else(|| {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&addr.to_le_bytes());
            block[8..].copy_from_slice(&(!addr).to_le_bytes());
            block
        })
    }

    /// A dirty block left the cache through a write-back sink: it must be
    /// one the model holds dirty, carrying the bytes the model holds.
    fn write_back(&mut self, addr: u64, data: &[u8]) {
        let (bytes, dirty) = self
            .resident
            .get_mut(&addr)
            .unwrap_or_else(|| panic!("write-back of {addr:#x}, which is not resident"));
        assert!(*dirty, "clean block {addr:#x} written back");
        assert_eq!(
            data, bytes,
            "write-back of {addr:#x} carried the wrong bytes"
        );
        *dirty = false;
        self.memory.insert(addr, *bytes);
    }

    /// A block left the cache by eviction or gating; its write-back, if it
    /// was dirty, must already have happened.
    fn drop_block(&mut self, addr: u64) {
        let (_, dirty) = self
            .resident
            .remove(&addr)
            .unwrap_or_else(|| panic!("{addr:#x} left the cache but was not resident"));
        assert!(!dirty, "dirty block {addr:#x} left without a write-back");
    }
}

fn small_cache(policy: ReplacementPolicy) -> Cache {
    let geometry = CacheGeometry::new(256, 2, 16).expect("valid");
    Cache::new(CacheConfig { geometry, policy })
}

/// A read or write-allocate access of `addr`, as the memory system makes
/// it: a miss fills the block from memory, dirty when it is a write.
fn access(cache: &mut Cache, reference: &mut Reference, addr: u64, kind: AccessKind) -> BlockId {
    let outcome = cache.lookup(addr, kind, |wb_addr, data| {
        reference.write_back(wb_addr, data)
    });
    let write = kind == AccessKind::Write;
    match outcome {
        LookupResult::Hit(frame) => {
            let (_, dirty) = reference
                .resident
                .get_mut(&addr)
                .unwrap_or_else(|| panic!("hit on {addr:#x}, which is not resident"));
            *dirty |= write;
            frame
        }
        LookupResult::Miss { evicted } => {
            assert!(
                !reference.resident.contains_key(&addr),
                "miss on resident {addr:#x}"
            );
            if let Some(ev) = evicted {
                reference.drop_block(ev);
            }
            let block = reference.memory_block(addr);
            reference.resident.insert(addr, (block, write));
            cache.fill(addr, &block, write)
        }
    }
}

/// The cache agrees with the reference, and its walks with each other:
/// - every `for_each_valid` block is visible to `contains` and carries the
///   bytes and dirty flag the reference holds, and the walk misses none of
///   the reference's blocks;
/// - `for_each_dirty` yields exactly the dirty subset of `for_each_valid`,
///   in the same order;
/// - `resident_addrs_iter` yields exactly `for_each_valid`'s addresses, in
///   order;
/// - `set_view_into` agrees on validity and dirtiness, and each set's
///   eviction ranks are a permutation of `0..ways`.
fn check_against_reference(cache: &Cache, reference: &Reference) {
    assert_eq!(cache.active_blocks() + cache.gated_blocks(), cache.blocks());

    let mut valid: Vec<(u64, Vec<u8>, bool)> = Vec::new();
    cache.for_each_valid(|addr, data, dirty| {
        let frame = cache
            .contains(addr)
            .unwrap_or_else(|| panic!("walked {addr:#x}, which contains() cannot see"));
        assert_eq!(
            cache.data(frame),
            data,
            "{addr:#x}: walk and frame disagree"
        );
        let (bytes, model_dirty) = reference
            .resident
            .get(&addr)
            .unwrap_or_else(|| panic!("walked {addr:#x}, which is not resident"));
        assert_eq!(data, bytes, "{addr:#x} carries the wrong bytes");
        assert_eq!(
            dirty, *model_dirty,
            "{addr:#x} carries the wrong dirty flag"
        );
        valid.push((addr, data.to_vec(), dirty));
    });
    assert_eq!(
        valid.len(),
        reference.resident.len(),
        "for_each_valid missed a resident block"
    );

    let mut dirty: Vec<(u64, Vec<u8>)> = Vec::new();
    cache.for_each_dirty(|addr, data| dirty.push((addr, data.to_vec())));
    let dirty_subset: Vec<(u64, Vec<u8>)> = valid
        .iter()
        .filter(|(_, _, d)| *d)
        .map(|(addr, data, _)| (*addr, data.clone()))
        .collect();
    assert_eq!(
        dirty, dirty_subset,
        "for_each_dirty is not the dirty subset of for_each_valid"
    );

    let addrs: Vec<u64> = cache.resident_addrs_iter().collect();
    let valid_addrs: Vec<u64> = valid.iter().map(|(addr, _, _)| *addr).collect();
    assert_eq!(
        addrs, valid_addrs,
        "resident_addrs_iter diverged from for_each_valid"
    );

    let mut valid_ways = 0;
    for set in 0..cache.sets() {
        let mut view = [WayView::default(); MAX_WAYS];
        let n = cache.set_view_into(set, &mut view);
        assert_eq!(n, usize::from(cache.ways()));
        for way in &view[..n] {
            if way.valid {
                valid_ways += 1;
                let model_dirty = reference.resident.get(&way.addr).map(|&(_, d)| d);
                assert_eq!(model_dirty, Some(way.dirty), "set view of {:#x}", way.addr);
            }
        }
        let mut ranks: Vec<u8> = view[..n].iter().map(|v| v.rank).collect();
        ranks.sort_unstable();
        let expect: Vec<u8> = (0..cache.ways()).collect();
        assert_eq!(ranks, expect);
    }
    assert_eq!(valid_ways, reference.resident.len());
}

fn run_ops(policy: ReplacementPolicy, ops: &[Op]) {
    let mut cache = small_cache(policy);
    let mut reference = Reference::default();
    for op in ops {
        match *op {
            Op::Read(addr) => {
                access(&mut cache, &mut reference, addr, AccessKind::Read);
            }
            Op::Write(addr, value) => {
                let frame = access(&mut cache, &mut reference, addr, AccessKind::Write);
                cache.write_data(frame, 0, &value.to_le_bytes());
                let (bytes, _) = reference.resident.get_mut(&addr).expect("just accessed");
                bytes[..4].copy_from_slice(&value.to_le_bytes());
            }
            Op::Gate { set, way } => {
                let mut wrote_back = false;
                let outcome = cache.gate(BlockId { set, way }, |addr, data| {
                    reference.write_back(addr, data);
                    wrote_back = true;
                });
                if let GateResult::GatedValid { addr, dirty } = outcome {
                    assert_eq!(dirty, wrote_back, "gating {addr:#x}");
                    reference.drop_block(addr);
                    assert!(cache.contains(addr).is_none(), "gated block still visible");
                }
            }
            Op::PowerFail => {
                let lost = cache.power_fail();
                assert_eq!(lost as usize, reference.resident.len());
                // Baseline semantics: cached contents are gone, dirty or
                // not; memory keeps what was written back.
                reference.resident.clear();
                assert_eq!(cache.gated_blocks(), 0, "reboot re-powers frames");
            }
        }
        check_against_reference(&cache, &reference);
    }
    // Accounting sanity at the end.
    let stats = cache.stats();
    assert_eq!(stats.accesses(), stats.hits + stats.misses);
    assert!(
        stats.fills <= stats.misses,
        "write-allocate fills only on miss"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_cache_maintains_invariants(ops in proptest::collection::vec(op_strategy(8, 2), 1..300)) {
        run_ops(ReplacementPolicy::Lru, &ops);
    }

    #[test]
    fn drrip_cache_maintains_invariants(ops in proptest::collection::vec(op_strategy(8, 2), 1..300)) {
        run_ops(ReplacementPolicy::Drrip, &ops);
    }

    #[test]
    fn fifo_cache_maintains_invariants(ops in proptest::collection::vec(op_strategy(8, 2), 1..300)) {
        run_ops(ReplacementPolicy::Fifo, &ops);
    }

    #[test]
    fn data_round_trips_for_resident_blocks(
        writes in proptest::collection::vec((0u64..32, any::<u32>()), 1..64)
    ) {
        // Last-writer-wins for whatever is still resident.
        let mut cache = small_cache(ReplacementPolicy::Lru);
        let mut expected: HashMap<u64, u32> = HashMap::new();
        for (slot, value) in writes {
            let addr = slot * 16;
            if !cache.lookup(addr, AccessKind::Write, |_, _| {}).is_hit() {
                cache.fill(addr, &[0u8; 16], true);
            }
            let frame = cache.contains(addr).expect("just filled");
            cache.write_data(frame, 0, &value.to_le_bytes());
            expected.insert(addr, value);
        }
        for (addr, value) in expected {
            if let Some(frame) = cache.contains(addr) {
                let data = cache.data(frame);
                let got = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
                prop_assert_eq!(got, value, "resident block lost its data");
            }
        }
    }

    #[test]
    fn visitors_match_the_reference_with_random_data(
        accesses in proptest::collection::vec((0u64..48, any::<u32>(), any::<bool>()), 1..128)
    ) {
        // Accesses only, over more conflicting blocks than the op mix
        // uses: long runs of dirty evictions with distinct block contents.
        let ops: Vec<Op> = accesses
            .into_iter()
            .map(|(slot, value, write)| {
                if write {
                    Op::Write(slot * 16, value)
                } else {
                    Op::Read(slot * 16)
                }
            })
            .collect();
        run_ops(ReplacementPolicy::Lru, &ops);
    }

    #[test]
    fn lru_never_evicts_the_most_recent_block(
        addrs in proptest::collection::vec(0u64..16, 2..100)
    ) {
        // Single-set cache: after any access sequence, the most recently
        // accessed address must still be resident.
        let geometry = CacheGeometry::new(64, 4, 16).expect("valid"); // 1 set
        let mut cache = Cache::new(CacheConfig { geometry, policy: ReplacementPolicy::Lru });
        let mut last = None;
        for slot in addrs {
            let addr = slot * 16;
            if !cache.lookup(addr, AccessKind::Read, |_, _| {}).is_hit() {
                cache.fill(addr, &[0u8; 16], false);
            }
            last = Some(addr);
        }
        prop_assert!(cache.contains(last.expect("non-empty")).is_some());
    }
}
