//! EDBP — power-failure-aware dead block prediction for intermittent
//! computing, plus every comparator the paper evaluates against.
//!
//! This is the *policy* crate of the reproduction of "Rethinking Dead Block
//! Prediction for Intermittent Computing" (HPCA 2025). It contains:
//!
//! * [`Edbp`] — the paper's contribution: as the capacitor voltage decays
//!   through `n-1` thresholds, progressively power-gate near-LRU **zombie**
//!   blocks (blocks that look live but will be destroyed by the imminent
//!   power outage before any reuse), preferring clean blocks, always
//!   protecting the MRU block, and adapting the thresholds online from a
//!   sampled false-positive rate (Section V).
//! * [`CacheDecay`] — Kaxiras et al.'s time-based predictor (global counter
//!   + per-block 2-bit counters), the conventional comparator.
//! * [`AdaptiveModeControl`] — Zhou et al.'s AMC, which resizes the decay
//!   interval from the observed extra-miss rate (Related Work; included as
//!   the paper's Section VII-A argues EDBP composes with any predictor).
//! * [`ReusePredictor`] — the reuse filter that powers the SDBP checkpoint
//!   scheme (which blocks are worth checkpointing across an outage).
//! * [`OracleRecorder`] / [`OraclePredictor`] — the "Ideal" scheme: perfect
//!   knowledge of each block generation's last access.
//! * [`Pair`] — composition of two predictors (Cache Decay + EDBP, AMC +
//!   EDBP).
//! * [`PredictionLedger`] — zombie-aware TP/FP/TN/FN accounting with the
//!   paper's redefined coverage and accuracy (Section IV, Eqs. 1–2).
//!
//! Predictors are *policies over a mechanism*: they observe cache events and
//! decide which frames to power-gate via [`ehs_cache::Cache::gate`]. The
//! full-system simulator (`ehs-sim`) owns the event loop and charges the
//! energy costs of whatever a predictor asks for.
//!
//! # Example
//!
//! ```
//! use edbp_core::{Edbp, EdbpConfig, LeakagePredictor};
//! use ehs_cache::{AccessKind, Cache, CacheConfig};
//! use ehs_units::Voltage;
//!
//! let mut cache = Cache::new(CacheConfig::paper_dcache());
//! let mut edbp = Edbp::new(EdbpConfig::for_cache(&cache));
//!
//! // Fill all four ways of one set (the paper cache has 64 sets of 16 B
//! // blocks, so addresses 0x400 apart collide).
//! for addr in [0x100u64, 0x500, 0x900, 0xD00] {
//!     cache.lookup(addr, AccessKind::Read);
//!     cache.fill(addr, &[0u8; 16], false);
//! }
//!
//! // Healthy voltage: EDBP stays dormant.
//! let quiet = edbp.tick(&mut cache, Voltage::from_volts(3.45), 0);
//! assert!(quiet.gated.is_empty());
//!
//! // Voltage sags toward the outage: EDBP starts killing near-LRU blocks.
//! let kill = edbp.tick(&mut cache, Voltage::from_volts(3.26), 1);
//! assert!(!kill.gated.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amc;
mod decay;
mod edbp;
pub mod fxhash;
mod metrics;
mod oracle;
mod paged;
mod predictor;
mod reuse;

pub use amc::{AdaptiveModeControl, AmcConfig};
pub use decay::{CacheDecay, DecayConfig};
pub use edbp::{Edbp, EdbpConfig};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use metrics::{PredictionClass, PredictionLedger, PredictionSummary};
pub use oracle::{GenerationTrace, OraclePredictor, OracleRecorder};
pub use paged::PagedTable;
pub use predictor::{
    GatedBlock, LeakagePredictor, NullPredictor, Pair, TickOutcome, WakeHint, WritebackArena,
};
pub use reuse::{ReusePredictor, ReusePredictorConfig};
