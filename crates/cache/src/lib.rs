//! Cycle-level set-associative cache simulator with power gating.
//!
//! This crate is the *mechanism* layer of the EDBP reproduction: a
//! set-associative cache with per-block valid/dirty/gated state, pluggable
//! replacement policies ([`ReplacementPolicy`]), data storage (so full-system
//! simulations move real bytes and crash consistency can be checked), and the
//! gate-Vdd power-gating interface [`Cache::gate`] that dead-block predictors
//! drive. Prediction *policy* (Cache Decay, EDBP, ...) lives in the
//! `edbp-core` crate; electrical costs come from `ehs-nvm`.
//!
//! # Model
//!
//! * [`Cache::lookup`] probes and updates replacement state; a miss names the
//!   victim and any dirty block that must be written back.
//! * [`Cache::fill`] installs a block after the backing store supplied it.
//! * [`Cache::gate`] powers a block down (gate-Vdd): its content — tag and
//!   data — is lost, and it stops leaking. Gating a dirty block without
//!   writing it back would lose data, so `gate` reports the dirty content
//!   for the caller to write back first.
//! * [`Cache::power_fail`] models a power outage: every block loses content
//!   and every way is re-powered (cold, active, leaking) on reboot.
//! * [`Cache::active_blocks`] drives static-energy integration: leakage is
//!   proportional to the number of non-gated ways.
//!
//! # Example
//!
//! ```
//! use ehs_cache::{AccessKind, Cache, CacheConfig, LookupOutcome, ReplacementPolicy};
//!
//! let mut cache = Cache::new(CacheConfig::paper_dcache());
//! match cache.lookup(0x1000, AccessKind::Read) {
//!     LookupOutcome::Miss(miss) => {
//!         assert!(miss.writeback.is_none()); // cold miss, no victim data
//!         cache.fill(0x1000, &[0u8; 16], false);
//!     }
//!     LookupOutcome::Hit(_) => unreachable!("cold cache cannot hit"),
//! }
//! assert!(matches!(cache.lookup(0x1000, AccessKind::Read), LookupOutcome::Hit(_)));
//! assert_eq!(cache.stats().hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod policy;
mod probe;
mod stats;

pub use cache::{
    AccessKind, BlockId, Cache, CacheConfig, GateOutcome, GateResult, HitInfo, LookupOutcome,
    LookupResult, MissInfo, MissResult, WayView, Writeback,
};
pub use policy::{ReplacementPolicy, MAX_WAYS};
pub use stats::CacheStats;

pub use ehs_nvm::{CacheGeometry, GeometryError};
