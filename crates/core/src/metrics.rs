//! Zombie-aware prediction accounting (paper Section IV).
//!
//! The paper redefines dead-block-prediction metrics for intermittent
//! computing: power outages are an extra eviction mechanism, so a kept block
//! can be wrong in two ways — it may die unreferenced at a normal eviction
//! (a classic **dead** block the predictor missed) or be destroyed by a
//! power outage before any reuse (a **zombie** block, "Missed Prediction" in
//! Fig. 6). The ledger classifies every block *generation* (fill → gate /
//! evict / outage) into exactly one terminal class:
//!
//! | generation ended by | condition                             | class |
//! |----------------------|---------------------------------------|-------|
//! | gating               | never re-requested before the outage  | true positive |
//! | gating               | re-requested within the power cycle   | false positive |
//! | eviction             | reused at least once since fill       | true negative |
//! | eviction             | never reused since fill               | false negative (dead, missed) |
//! | power outage         | still resident (any reuse history)    | missed prediction (zombie, missed) |
//!
//! Coverage and accuracy follow the paper's Equations 1 and 2, with both
//! kinds of missed blocks counted as false negatives.

use crate::paged::PagedTable;

/// Terminal classification of one block generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionClass {
    /// Gated, and genuinely dead or zombie: energy saved, nothing lost.
    TruePositive,
    /// Gated but re-requested before the outage: an extra miss was caused.
    FalsePositive,
    /// Kept, and reused before its eviction: keeping it was right.
    TrueNegative,
    /// Kept, but sat unreferenced from fill to eviction: a classic dead
    /// block the predictor failed to exploit.
    FalseNegativeDead,
    /// Kept, but destroyed unreferenced by a power outage: a zombie block —
    /// the failure mode conventional predictors cannot see (Fig. 6's
    /// "Missed Prediction").
    MissedZombie,
}

/// Aggregated counts with the paper's redefined coverage/accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictionSummary {
    /// Correctly deactivated dead/zombie blocks.
    pub true_positives: u64,
    /// Live blocks mistakenly deactivated.
    pub false_positives: u64,
    /// Live blocks correctly retained.
    pub true_negatives: u64,
    /// Dead blocks unnecessarily kept active until eviction.
    pub false_negatives_dead: u64,
    /// Zombie blocks unnecessarily kept active until a power outage.
    pub missed_zombies: u64,
}

impl PredictionSummary {
    /// Total classified generations.
    pub fn total(&self) -> u64 {
        self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives_dead
            + self.missed_zombies
    }

    /// All false negatives (dead + zombie).
    pub fn false_negatives(&self) -> u64 {
        self.false_negatives_dead + self.missed_zombies
    }

    /// Equation 1: `TP / (TP + FN)`, zombies included in FN.
    /// Returns 0 when there were no dead or zombie blocks at all.
    pub fn coverage(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives();
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Equation 2: `(TP + TN) / total`. Returns 0 with no predictions.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / total as f64
        }
    }

    /// Fraction of generations in each class, in declaration order
    /// (TP, FP, TN, FN-dead, missed-zombie). Zeros when empty.
    pub fn fractions(&self) -> [f64; 5] {
        let total = self.total();
        if total == 0 {
            return [0.0; 5];
        }
        let t = total as f64;
        [
            self.true_positives as f64 / t,
            self.false_positives as f64 / t,
            self.true_negatives as f64 / t,
            self.false_negatives_dead as f64 / t,
            self.missed_zombies as f64 / t,
        ]
    }

    /// Records one terminal classification.
    pub fn record(&mut self, class: PredictionClass) {
        match class {
            PredictionClass::TruePositive => self.true_positives += 1,
            PredictionClass::FalsePositive => self.false_positives += 1,
            PredictionClass::TrueNegative => self.true_negatives += 1,
            PredictionClass::FalseNegativeDead => self.false_negatives_dead += 1,
            PredictionClass::MissedZombie => self.missed_zombies += 1,
        }
    }

    /// Element-wise sum of two summaries.
    pub fn merged(&self, other: &PredictionSummary) -> PredictionSummary {
        PredictionSummary {
            true_positives: self.true_positives + other.true_positives,
            false_positives: self.false_positives + other.false_positives,
            true_negatives: self.true_negatives + other.true_negatives,
            false_negatives_dead: self.false_negatives_dead + other.false_negatives_dead,
            missed_zombies: self.missed_zombies + other.missed_zombies,
        }
    }
}

/// Tracks every in-flight block generation and classifies it when it ends.
///
/// The full-system simulator feeds it the same event stream the predictors
/// see; the ledger is exact (all sets), unlike EDBP's internal sampled FPR.
#[derive(Debug, Clone, Default)]
pub struct PredictionLedger {
    /// Hits since fill, per resident block address (paged shadow table).
    resident: PagedTable<u32>,
    /// Addresses gated this power cycle, awaiting TP/FP resolution.
    gated_pending: PagedTable<()>,
    summary: PredictionSummary,
}

impl PredictionLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty ledger whose shadow tables index block-aligned
    /// addresses densely (one slot per `block_bytes`-sized block).
    pub fn for_block_bytes(block_bytes: u32) -> Self {
        Self {
            resident: PagedTable::for_block_bytes(block_bytes),
            gated_pending: PagedTable::for_block_bytes(block_bytes),
            summary: PredictionSummary::default(),
        }
    }

    /// The running totals.
    pub fn summary(&self) -> PredictionSummary {
        self.summary
    }

    /// A block for `addr` was installed.
    pub fn on_fill(&mut self, addr: u64) {
        self.resident.insert(addr, 0);
    }

    /// A lookup hit `addr`.
    pub fn on_hit(&mut self, addr: u64) {
        if let Some(hits) = self.resident.get_mut(addr) {
            *hits += 1;
        }
    }

    /// A lookup missed on `addr`: if we gated that address earlier in this
    /// power cycle, the kill was wrong.
    pub fn on_miss(&mut self, addr: u64) {
        if self.gated_pending.remove(addr).is_some() {
            self.summary.record(PredictionClass::FalsePositive);
        }
    }

    /// A predictor gated the block at `addr`.
    pub fn on_gate(&mut self, addr: u64) {
        self.resident.remove(addr);
        self.gated_pending.insert(addr, ());
    }

    /// The block at `addr` was evicted by a miss.
    pub fn on_evict(&mut self, addr: u64) {
        if let Some(hits) = self.resident.remove(addr) {
            self.summary.record(if hits > 0 {
                PredictionClass::TrueNegative
            } else {
                PredictionClass::FalseNegativeDead
            });
        }
    }

    /// A power outage destroyed all volatile state: pending kills become
    /// true positives (their blocks would have died anyway), resident blocks
    /// become missed zombies.
    pub fn on_power_fail(&mut self) {
        // Only the counts matter (every pending kill is a TP, every resident
        // block a missed zombie), so drain by bulk `len` + O(1) epoch clear.
        self.summary.true_positives += self.gated_pending.len() as u64;
        self.gated_pending.clear();
        self.summary.missed_zombies += self.resident.len() as u64;
        self.resident.clear();
    }

    /// Blocks restored into the cache at reboot (NVSRAMCache restores
    /// checkpointed blocks) begin fresh generations.
    pub fn on_restore(&mut self, addr: u64) {
        self.resident.insert(addr, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_then_quiet_until_outage_is_tp() {
        let mut l = PredictionLedger::new();
        l.on_fill(0x40);
        l.on_gate(0x40);
        l.on_power_fail();
        let s = l.summary();
        assert_eq!(s.true_positives, 1);
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn gate_then_rerequest_is_fp() {
        let mut l = PredictionLedger::new();
        l.on_fill(0x40);
        l.on_gate(0x40);
        l.on_miss(0x40); // program wanted it back
        l.on_power_fail();
        let s = l.summary();
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.true_positives, 0);
    }

    #[test]
    fn kept_and_reused_then_evicted_is_tn() {
        let mut l = PredictionLedger::new();
        l.on_fill(0x40);
        l.on_hit(0x40);
        l.on_evict(0x40);
        assert_eq!(l.summary().true_negatives, 1);
    }

    #[test]
    fn kept_unused_until_eviction_is_dead_fn() {
        let mut l = PredictionLedger::new();
        l.on_fill(0x40);
        l.on_evict(0x40);
        assert_eq!(l.summary().false_negatives_dead, 1);
    }

    #[test]
    fn resident_at_outage_is_missed_zombie() {
        let mut l = PredictionLedger::new();
        l.on_fill(0x40);
        l.on_hit(0x40); // even reused blocks become zombies at the outage
        l.on_power_fail();
        let s = l.summary();
        assert_eq!(s.missed_zombies, 1);
        assert_eq!(s.false_negatives(), 1);
    }

    #[test]
    fn miss_on_never_gated_addr_is_ignored() {
        let mut l = PredictionLedger::new();
        l.on_miss(0x999);
        assert_eq!(l.summary().total(), 0);
    }

    #[test]
    fn fp_does_not_double_count_at_outage() {
        let mut l = PredictionLedger::new();
        l.on_fill(0x40);
        l.on_gate(0x40);
        l.on_miss(0x40);
        l.on_power_fail();
        assert_eq!(l.summary().total(), 1, "one generation, one class");
    }

    #[test]
    fn coverage_and_accuracy_match_equations() {
        let s = PredictionSummary {
            true_positives: 6,
            false_positives: 1,
            true_negatives: 2,
            false_negatives_dead: 1,
            missed_zombies: 2,
        };
        assert!((s.coverage() - 6.0 / 9.0).abs() < 1e-12);
        assert!((s.accuracy() - 8.0 / 12.0).abs() < 1e-12);
        let f = s.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_rates_are_zero() {
        let s = PredictionSummary::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.fractions(), [0.0; 5]);
    }

    #[test]
    fn merged_adds_fields() {
        let a = PredictionSummary {
            true_positives: 1,
            ..Default::default()
        };
        let b = PredictionSummary {
            missed_zombies: 2,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.missed_zombies, 2);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn restore_starts_a_fresh_generation() {
        let mut l = PredictionLedger::new();
        l.on_restore(0x40);
        l.on_hit(0x40);
        l.on_evict(0x40);
        assert_eq!(l.summary().true_negatives, 1);
    }
}
