//! Two-level paged direct-index shadow tables keyed by block address.
//!
//! The hot loop needs per-block-address side tables (reuse flags, zombie
//! serials, asleep sets, residency ledgers, oracle cursors). Hash maps pay a
//! hash + probe per access and allocate as they grow; the synthetic
//! workloads' address spaces are bounded and dense, so a direct-index table
//! is both faster and allocation-free once warm. [`PagedTable`] is that
//! table:
//!
//! * **Two levels.** `addr >> shift` indexes a *spine* of lazily-allocated
//!   fixed-size pages ([`PAGE_SLOTS`] entries each), so sparse regions (for
//!   example instruction addresses, which sit megabytes above data) cost one
//!   spine slot, not a dense array spanning the gap.
//! * **Epoch-tagged entries.** Each entry stores the epoch it was written
//!   in; an entry is present iff its epoch matches the table's. [`clear`]
//!   bumps the epoch — O(1), and the pages (the allocation-free guarantee)
//!   are kept.
//! * **Deterministic iteration.** [`for_each`] walks pages in address
//!   order, so drains are reproducible (no hash-order dependence).
//!
//! [`clear`]: PagedTable::clear
//! [`for_each`]: PagedTable::for_each

/// Entries per page. 1024 keeps a page of small values within a few kB and
/// the spine short for the densely-packed data segment.
const PAGE_SLOTS: usize = 1024;

#[derive(Debug, Clone)]
struct Entry<T> {
    /// Epoch this entry was last written in; present iff it matches the
    /// table's epoch (which is never 0).
    epoch: u32,
    value: T,
}

/// A two-level paged direct-index map from (block) address to `T`.
///
/// Semantically a `HashMap<u64, T>` restricted to `Clone + Default` values;
/// see the module docs for the layout. Addresses sharing `addr >> shift`
/// collide, so `shift` must not exceed the alignment of the keys (use
/// [`PagedTable::for_block_bytes`] for block-aligned addresses, or
/// [`PagedTable::new`] with shift 0 for arbitrary keys).
#[derive(Debug, Clone)]
pub struct PagedTable<T> {
    pages: Vec<Option<Box<[Entry<T>]>>>,
    /// Current epoch; entries from older epochs are absent. Never 0.
    epoch: u32,
    /// Key compression: `index = addr >> shift`.
    shift: u32,
    /// Number of present entries.
    len: usize,
}

impl<T: Clone + Default> PagedTable<T> {
    /// Creates an empty table indexing by `addr >> shift`.
    pub fn new(shift: u32) -> Self {
        assert!(shift < 64, "shift must leave address bits");
        Self {
            pages: Vec::new(),
            epoch: 1,
            shift,
            len: 0,
        }
    }

    /// Creates an empty table for block-aligned addresses of the given
    /// block size: `shift = log2(block_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn for_block_bytes(block_bytes: u32) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self::new(block_bytes.trailing_zeros())
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locate(&self, addr: u64) -> (usize, usize) {
        let index = (addr >> self.shift) as usize;
        (index / PAGE_SLOTS, index % PAGE_SLOTS)
    }

    /// Looks up `addr`.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<&T> {
        let (page, slot) = self.locate(addr);
        match self.pages.get(page) {
            Some(Some(entries)) if entries[slot].epoch == self.epoch => Some(&entries[slot].value),
            _ => None,
        }
    }

    /// Looks up `addr` mutably.
    #[inline]
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut T> {
        let epoch = self.epoch;
        let (page, slot) = self.locate(addr);
        match self.pages.get_mut(page) {
            Some(Some(entries)) if entries[slot].epoch == epoch => Some(&mut entries[slot].value),
            _ => None,
        }
    }

    /// True if `addr` is present.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.get(addr).is_some()
    }

    /// Marks `addr` present and returns its value slot, and whether it was
    /// absent (the slot then still holds a stale value for the caller to
    /// overwrite). Allocates the covering page on first touch: the only
    /// allocation site; a page is touched at most once per run.
    fn occupy(&mut self, addr: u64) -> (&mut T, bool) {
        let (page, slot) = self.locate(addr);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let entries = self.pages[page].get_or_insert_with(|| {
            vec![
                Entry {
                    epoch: 0,
                    value: T::default(),
                };
                PAGE_SLOTS
            ]
            .into_boxed_slice()
        });
        let entry = &mut entries[slot];
        let absent = entry.epoch != self.epoch;
        if absent {
            entry.epoch = self.epoch;
            self.len += 1;
        }
        (&mut entry.value, absent)
    }

    /// Inserts `value` at `addr`, returning the previous value if present.
    #[inline]
    pub fn insert(&mut self, addr: u64, value: T) -> Option<T> {
        let (slot, absent) = self.occupy(addr);
        if absent {
            *slot = value;
            None
        } else {
            Some(std::mem::replace(slot, value))
        }
    }

    /// Returns the value at `addr`, inserting `make()` first if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, addr: u64, make: impl FnOnce() -> T) -> &mut T {
        let (slot, absent) = self.occupy(addr);
        if absent {
            *slot = make();
        }
        slot
    }

    /// Removes and returns the value at `addr`.
    #[inline]
    pub fn remove(&mut self, addr: u64) -> Option<T> {
        let epoch = self.epoch;
        let (page, slot) = self.locate(addr);
        match self.pages.get_mut(page) {
            Some(Some(entries)) if entries[slot].epoch == epoch => {
                entries[slot].epoch = 0;
                self.len -= 1;
                Some(std::mem::take(&mut entries[slot].value))
            }
            _ => None,
        }
    }

    /// Removes every entry in O(1) by bumping the epoch. Pages are kept, so
    /// refilling the same address range allocates nothing.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: stale entries from epoch 1 would resurrect. Hard
            // reset every page (cold path: one wrap per 4 billion clears).
            for page in self.pages.iter_mut().flatten() {
                for entry in page.iter_mut() {
                    entry.epoch = 0;
                }
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.len = 0;
    }

    /// Visits every present `(addr, value)` in ascending address order.
    pub fn for_each(&self, mut f: impl FnMut(u64, &T)) {
        for (page_idx, page) in self.pages.iter().enumerate() {
            let Some(entries) = page else { continue };
            for (slot, entry) in entries.iter().enumerate() {
                if entry.epoch == self.epoch {
                    let addr = ((page_idx * PAGE_SLOTS + slot) as u64) << self.shift;
                    f(addr, &entry.value);
                }
            }
        }
    }
}

impl<T: Clone + Default> Default for PagedTable<T> {
    /// An empty table with shift 0 (index = address).
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = PagedTable::for_block_bytes(16);
        assert!(t.is_empty());
        assert_eq!(t.insert(0x40, 7u32), None);
        assert_eq!(t.insert(0x40, 9), Some(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0x40), Some(&9));
        assert_eq!(t.get(0x50), None);
        assert_eq!(t.remove(0x40), Some(9));
        assert_eq!(t.remove(0x40), None);
        assert!(t.is_empty());
    }

    #[test]
    fn clear_is_epoch_bump_and_keeps_pages() {
        let mut t = PagedTable::for_block_bytes(16);
        for i in 0..100u64 {
            t.insert(i * 16, i);
        }
        let pages_before = t.pages.iter().filter(|p| p.is_some()).count();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(0x40), None);
        assert_eq!(
            t.pages.iter().filter(|p| p.is_some()).count(),
            pages_before,
            "clear must keep pages allocated"
        );
        // Reinsert after clear: visible again, old values gone.
        assert_eq!(t.insert(0x40, 1), None);
        assert_eq!(t.get(0x40), Some(&1));
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut t: PagedTable<u32> = PagedTable::new(0);
        *t.get_or_insert_with(5, || 10) += 1;
        *t.get_or_insert_with(5, || 99) += 1;
        assert_eq!(t.get(5), Some(&12));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn for_each_is_in_address_order_and_reconstructs_addrs() {
        let mut t = PagedTable::for_block_bytes(16);
        // Insert out of order, spanning multiple pages (page = 1024 slots).
        for addr in [0x40_0000u64, 0x10, 0x8000, 0x40] {
            t.insert(addr, addr);
        }
        let mut seen = Vec::new();
        t.for_each(|addr, &v| {
            assert_eq!(addr, v);
            seen.push(addr);
        });
        assert_eq!(seen, vec![0x10, 0x40, 0x8000, 0x40_0000]);
    }

    #[test]
    fn sparse_high_addresses_use_one_page() {
        let mut t: PagedTable<bool> = PagedTable::for_block_bytes(16);
        t.insert(0x0100_0000, true); // instruction-segment-like address
        assert_eq!(t.get(0x0100_0000), Some(&true));
        let allocated = t.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(allocated, 1, "one page, not a dense array");
    }

    #[test]
    fn epoch_wrap_does_not_resurrect_entries() {
        let mut t: PagedTable<u8> = PagedTable::new(0);
        t.insert(3, 42);
        t.epoch = u32::MAX; // simulate 4 billion clears
        t.insert(7, 7);
        t.clear();
        assert_eq!(t.get(3), None, "epoch-1 entry must not resurrect");
        assert_eq!(t.get(7), None);
        assert!(t.is_empty());
        t.insert(3, 1);
        assert_eq!(t.get(3), Some(&1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_blocks() {
        let _ = PagedTable::<u8>::for_block_bytes(12);
    }
}

/// Property tests pinning [`PagedTable`] to `HashMap` semantics under random
/// op mixes (the same pinning pattern the cache's packed rank words use).
#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
        GetOrInsert(u64, u32),
        Clear,
    }

    /// Small address universe (block-aligned) to force collisions, plus a
    /// sparse high range to exercise multi-page spines.
    fn addr_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            (0u64..64).prop_map(|i| i * 16),
            (0u64..4).prop_map(|i| 0x0100_0000 + i * 16),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (addr_strategy(), 0u32..1000).prop_map(|(a, v)| Op::Insert(a, v)),
            2 => addr_strategy().prop_map(Op::Remove),
            3 => addr_strategy().prop_map(Op::Get),
            2 => (addr_strategy(), 0u32..1000).prop_map(|(a, v)| Op::GetOrInsert(a, v)),
            1 => Just(Op::Clear),
        ]
    }

    proptest! {
        #[test]
        fn paged_table_matches_hashmap(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut table = PagedTable::for_block_bytes(16);
            let mut model: HashMap<u64, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(a, v) => {
                        prop_assert_eq!(table.insert(a, v), model.insert(a, v));
                    }
                    Op::Remove(a) => {
                        prop_assert_eq!(table.remove(a), model.remove(&a));
                    }
                    Op::Get(a) => {
                        prop_assert_eq!(table.get(a), model.get(&a));
                        prop_assert_eq!(table.contains(a), model.contains_key(&a));
                    }
                    Op::GetOrInsert(a, v) => {
                        let got = *table.get_or_insert_with(a, || v);
                        let want = *model.entry(a).or_insert(v);
                        prop_assert_eq!(got, want);
                    }
                    Op::Clear => {
                        table.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                let mut walked: Vec<(u64, u32)> = Vec::new();
                table.for_each(|a, &v| walked.push((a, v)));
                let mut want: Vec<(u64, u32)> = model.iter().map(|(&a, &v)| (a, v)).collect();
                want.sort_unstable();
                prop_assert_eq!(walked, want, "for_each must be sorted + complete");
            }
        }
    }
}
