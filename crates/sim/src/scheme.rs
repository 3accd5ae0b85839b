//! The evaluated schemes (paper Section VI-A1).

use std::fmt;

/// Which architecture/predictor combination a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// NVSRAMCache: JIT checkpoint of registers + dirty blocks, no dead
    /// block prediction. Everything is normalized to this.
    Baseline,
    /// SDBP \[44\]: reuse-filtered checkpointing — saves/restores the blocks
    /// predicted to be reused, writes dirty dead blocks back to memory.
    Sdbp,
    /// Cache Decay \[32\] on the baseline.
    Decay,
    /// EDBP alone on the baseline (the paper's contribution).
    Edbp,
    /// Cache Decay + EDBP (the paper's headline combination).
    DecayEdbp,
    /// Adaptive Mode Control \[74\] on the baseline (extension predictor).
    Amc,
    /// AMC + EDBP (Section VII-A: EDBP composes with any predictor).
    AmcEdbp,
    /// The oracle with perfect knowledge of block deaths ("Ideal").
    Ideal,
    /// Baseline with the data-cache leakage magically scaled by 0.2
    /// ("80% Leakage Off", Figs. 1 and 8).
    LeakageOff80,
}

impl Scheme {
    /// Every scheme, in declaration order. The `burst_exactness` lane
    /// matrix pins that each entry resolves to a monomorphized lane, and the
    /// benchmark's `lockstep_sweep` runs all of them as one `run_lockstep`
    /// group per app.
    pub const ALL: [Scheme; 9] = [
        Scheme::Baseline,
        Scheme::Sdbp,
        Scheme::Decay,
        Scheme::Edbp,
        Scheme::DecayEdbp,
        Scheme::Amc,
        Scheme::AmcEdbp,
        Scheme::Ideal,
        Scheme::LeakageOff80,
    ];

    /// The five schemes of the paper's headline comparison (Figs. 7–8 order).
    pub const HEADLINE: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::Sdbp,
        Scheme::Decay,
        Scheme::Edbp,
        Scheme::DecayEdbp,
    ];

    /// Everything shown in Fig. 8 (headline plus the two bounds).
    pub const FIG8: [Scheme; 7] = [
        Scheme::Baseline,
        Scheme::Sdbp,
        Scheme::Decay,
        Scheme::Edbp,
        Scheme::DecayEdbp,
        Scheme::LeakageOff80,
        Scheme::Ideal,
    ];

    /// Canonical name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "nvsramcache",
            Scheme::Sdbp => "sdbp",
            Scheme::Decay => "cache-decay",
            Scheme::Edbp => "edbp",
            Scheme::DecayEdbp => "decay+edbp",
            Scheme::Amc => "amc",
            Scheme::AmcEdbp => "amc+edbp",
            Scheme::Ideal => "ideal",
            Scheme::LeakageOff80 => "80%-leakage-off",
        }
    }

    /// Whether this scheme needs the two-pass oracle trace.
    pub fn needs_oracle_trace(self) -> bool {
        matches!(self, Scheme::Ideal)
    }

    /// Whether EDBP is part of this scheme.
    pub fn uses_edbp(self) -> bool {
        matches!(self, Scheme::Edbp | Scheme::DecayEdbp | Scheme::AmcEdbp)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let all = [
            Scheme::Baseline,
            Scheme::Sdbp,
            Scheme::Decay,
            Scheme::Edbp,
            Scheme::DecayEdbp,
            Scheme::Amc,
            Scheme::AmcEdbp,
            Scheme::Ideal,
            Scheme::LeakageOff80,
        ];
        let mut names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn flags() {
        assert!(Scheme::Ideal.needs_oracle_trace());
        assert!(!Scheme::Edbp.needs_oracle_trace());
        assert!(Scheme::DecayEdbp.uses_edbp());
        assert!(!Scheme::Decay.uses_edbp());
    }
}
