//! Zombie-ratio instrumentation (paper Fig. 4).
//!
//! Fig. 4 plots, as a function of the capacitor voltage, the fraction of
//! resident cache blocks that are *zombies* — blocks that will receive no
//! further access before the upcoming power outage (or their own eviction)
//! and therefore only burn leakage. Classification needs the future, so the
//! analysis is retroactive: samples are held pending and resolved when the
//! sampled block's generation ends.

use edbp_core::PagedTable;

/// Null index in the pooled sample-node arena.
const NIL: u32 = u32::MAX;

/// One resolved sample: a resident block observed at `voltage`, and whether
/// it turned out to be a zombie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZombieSample {
    /// Capacitor voltage at the sampling instant (volts).
    pub voltage: f64,
    /// True if the block received no further access before its generation
    /// ended (outage, eviction or gating).
    pub zombie: bool,
}

/// The live generation of one block address: its access count and the chain
/// of pending samples taken during it (indices into the node pool, in
/// chronological order).
#[derive(Debug, Clone, Copy)]
struct GenState {
    count: u32,
    head: u32,
    tail: u32,
}

impl Default for GenState {
    fn default() -> Self {
        Self {
            count: 0,
            head: NIL,
            tail: NIL,
        }
    }
}

/// One pending sample in the pooled chain arena.
#[derive(Debug, Clone, Copy)]
struct SampleNode {
    voltage: f64,
    /// The generation's access count at the sampling instant.
    at_sample: u32,
    /// Next node of the same chain (or the free list), [`NIL`]-terminated.
    next: u32,
}

/// Retroactive zombie classifier.
///
/// Per-address generation state lives in a paged direct-index table and
/// pending samples in one pooled node arena with an intrusive free list —
/// the steady-state hot path (fill / hit / generation end / sample) touches
/// no hash map and performs no allocation once the pools reach their
/// high-water capacity.
///
/// Resolution order is explicitly deterministic: samples resolve in
/// generation-end order while running, and both [`ZombieAnalysis::on_power_fail`]
/// and [`ZombieAnalysis::finish`] drain the remaining generations in
/// ascending address order (each generation's samples chronologically).
#[derive(Debug, Clone)]
pub struct ZombieAnalysis {
    /// Sampling period in committed instructions.
    interval: u64,
    next_sample_at: u64,
    /// Live generation per block address.
    gens: PagedTable<GenState>,
    /// Pooled pending-sample nodes (chains + free list).
    nodes: Vec<SampleNode>,
    /// Head of the free list threaded through `nodes`.
    free_head: u32,
    resolved: Vec<ZombieSample>,
}

impl ZombieAnalysis {
    /// Creates the analysis with a sampling period in committed
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        Self {
            interval,
            next_sample_at: interval,
            gens: PagedTable::new(0),
            nodes: Vec::new(),
            free_head: NIL,
            resolved: Vec::new(),
        }
    }

    /// Pre-sizes the sample pools so a bounded run performs no further
    /// growth (testing/benchmarking aid): room for `samples` resolved
    /// samples and as many in-flight pending nodes.
    pub fn reserve(&mut self, samples: usize) {
        self.resolved.reserve(samples);
        self.nodes.reserve(samples);
    }

    /// A block for `addr` was installed (or restored): new generation.
    pub fn on_fill(&mut self, addr: u64) {
        if let Some(g) = self.gens.get_mut(addr) {
            // Refill without an observed generation end — possible only
            // through direct API use, never from the simulator. The stale
            // generation's samples can no longer see a reuse, so they
            // resolve as zombies (exactly how the drain used to classify
            // a serial mismatch).
            let stale = g.head;
            *g = GenState {
                count: 1,
                head: NIL,
                tail: NIL,
            };
            self.resolve_chain(stale, None);
        } else {
            self.gens.insert(
                addr,
                GenState {
                    count: 1,
                    head: NIL,
                    tail: NIL,
                },
            );
        }
    }

    /// A lookup hit `addr`.
    pub fn on_hit(&mut self, addr: u64) {
        if let Some(g) = self.gens.get_mut(addr) {
            g.count += 1;
        }
    }

    /// The generation of `addr` ended (eviction or gating).
    pub fn on_generation_end(&mut self, addr: u64) {
        let Some(g) = self.gens.remove(addr) else {
            return;
        };
        self.resolve_chain(g.head, Some(g.count));
    }

    /// A power outage ended every resident generation. Generations resolve
    /// in ascending address order.
    pub fn on_power_fail(&mut self) {
        self.resolve_live();
        // Every chain was consumed above, so the whole pool is free.
        self.gens.clear();
        self.nodes.clear();
        self.free_head = NIL;
    }

    /// Resolves the pending samples of every live generation against its
    /// use count so far, in ascending address order. Leaves the chains in
    /// place; the caller discards them.
    fn resolve_live(&mut self) {
        let Self {
            gens,
            nodes,
            resolved,
            ..
        } = self;
        gens.for_each(|_, g| {
            let mut node = g.head;
            while node != NIL {
                let n = &nodes[node as usize];
                resolved.push(ZombieSample {
                    voltage: n.voltage,
                    zombie: n.at_sample == g.count,
                });
                node = n.next;
            }
        });
    }

    /// Resolves one pending chain and returns its nodes to the free list.
    /// `final_count == None` forces the zombie classification (stale
    /// generation that can never be reused).
    fn resolve_chain(&mut self, head: u32, final_count: Option<u32>) {
        let mut node = head;
        while node != NIL {
            let n = self.nodes[node as usize];
            self.resolved.push(ZombieSample {
                voltage: n.voltage,
                zombie: final_count.is_none_or(|c| n.at_sample == c),
            });
            self.nodes[node as usize].next = self.free_head;
            self.free_head = node;
            node = n.next;
        }
    }

    /// Whether the sampling period has elapsed. The per-cycle guard in the
    /// simulation loop: only when this returns true is it worth walking the
    /// resident set at all.
    pub fn due(&self, committed: u64) -> bool {
        committed >= self.next_sample_at
    }

    /// Takes a snapshot of every resident block. Call only when
    /// [`ZombieAnalysis::due`] returned true.
    pub fn sample(
        &mut self,
        committed: u64,
        voltage: f64,
        resident: impl IntoIterator<Item = u64>,
    ) {
        self.next_sample_at = committed + self.interval;
        for addr in resident {
            let Some(g) = self.gens.get_mut(addr) else {
                continue;
            };
            let node = SampleNode {
                voltage,
                at_sample: g.count,
                next: NIL,
            };
            let idx = if self.free_head == NIL {
                let idx = self.nodes.len() as u32;
                self.nodes.push(node);
                idx
            } else {
                let idx = self.free_head;
                self.free_head = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            };
            if g.tail == NIL {
                g.head = idx;
            } else {
                self.nodes[g.tail as usize].next = idx;
            }
            g.tail = idx;
        }
    }

    /// Finalizes: unresolved samples belong to generations that never ended
    /// (the program finished first); a block unused since its sample is
    /// classified as a zombie-to-be. Remaining generations drain in
    /// ascending address order.
    pub fn finish(mut self) -> Vec<ZombieSample> {
        self.resolve_live();
        self.resolved
    }
}

/// Bins resolved samples by voltage and returns `(bin centre, zombie ratio,
/// sample count)` rows — the series of Fig. 4.
pub fn zombie_ratio_by_voltage(
    samples: &[ZombieSample],
    v_min: f64,
    v_max: f64,
    bins: usize,
) -> Vec<(f64, f64, usize)> {
    assert!(bins > 0 && v_max > v_min);
    let width = (v_max - v_min) / bins as f64;
    let mut zombie = vec![0usize; bins];
    let mut total = vec![0usize; bins];
    for s in samples {
        if s.voltage < v_min || s.voltage >= v_max {
            continue;
        }
        let b = ((s.voltage - v_min) / width) as usize;
        let b = b.min(bins - 1);
        total[b] += 1;
        if s.zombie {
            zombie[b] += 1;
        }
    }
    (0..bins)
        .map(|b| {
            let centre = v_min + (b as f64 + 0.5) * width;
            let ratio = if total[b] == 0 {
                0.0
            } else {
                zombie[b] as f64 / total[b] as f64
            };
            (centre, ratio, total[b])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_unused_after_sample_is_zombie() {
        let mut z = ZombieAnalysis::new(1);
        z.on_fill(0x40);
        z.sample(1, 3.3, [0x40u64]);
        z.on_power_fail();
        let s = z.finish();
        assert_eq!(s.len(), 1);
        assert!(s[0].zombie);
        assert_eq!(s[0].voltage, 3.3);
    }

    #[test]
    fn block_reused_after_sample_is_live() {
        let mut z = ZombieAnalysis::new(1);
        z.on_fill(0x40);
        z.sample(1, 3.4, [0x40u64]);
        z.on_hit(0x40); // reuse after the sample
        z.on_power_fail();
        let s = z.finish();
        assert_eq!(s.len(), 1);
        assert!(!s[0].zombie);
    }

    #[test]
    fn samples_respect_interval() {
        let mut z = ZombieAnalysis::new(100);
        z.on_fill(0x40);
        // Only committed = 100 is due: 50 is too early, and 150 too early
        // again once 100 sampled.
        for committed in [50, 100, 150] {
            if z.due(committed) {
                z.sample(committed, 3.4, [0x40u64]);
            }
        }
        z.on_power_fail();
        assert_eq!(z.finish().len(), 1);
    }

    #[test]
    fn eviction_resolves_like_outage() {
        let mut z = ZombieAnalysis::new(1);
        z.on_fill(0x40);
        z.sample(1, 3.45, [0x40u64]);
        z.on_generation_end(0x40); // evicted unused
        let s = z.finish();
        assert!(s[0].zombie);
    }

    #[test]
    fn generations_do_not_leak_across_refills() {
        let mut z = ZombieAnalysis::new(1);
        z.on_fill(0x40);
        z.sample(1, 3.4, [0x40u64]);
        z.on_generation_end(0x40);
        // New generation of the same address, gets a hit.
        z.on_fill(0x40);
        z.on_hit(0x40);
        z.on_power_fail();
        let s = z.finish();
        assert_eq!(s.len(), 1);
        assert!(
            s[0].zombie,
            "sample belongs to the first, unused generation"
        );
    }

    #[test]
    fn unfinished_generation_with_later_hit_is_live() {
        let mut z = ZombieAnalysis::new(1);
        z.on_fill(0x40);
        z.sample(1, 3.4, [0x40u64]);
        z.on_hit(0x40);
        // Program ends without outage or eviction.
        let s = z.finish();
        assert!(!s[0].zombie);
    }

    #[test]
    fn binning_computes_ratios() {
        let samples = vec![
            ZombieSample {
                voltage: 3.25,
                zombie: true,
            },
            ZombieSample {
                voltage: 3.26,
                zombie: true,
            },
            ZombieSample {
                voltage: 3.27,
                zombie: false,
            },
            ZombieSample {
                voltage: 3.45,
                zombie: false,
            },
        ];
        let rows = zombie_ratio_by_voltage(&samples, 3.2, 3.5, 3);
        assert_eq!(rows.len(), 3);
        assert!((rows[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rows[0].2, 3);
        assert_eq!(rows[2].1, 0.0);
    }
}
