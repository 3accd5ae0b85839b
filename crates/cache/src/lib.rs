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
//! * [`Cache::lookup`] probes and updates replacement state; a miss evicts
//!   the victim and names it.
//! * [`Cache::fill`] installs a block after the backing store supplied it.
//! * [`Cache::gate`] powers a block down (gate-Vdd): its content — tag and
//!   data — is lost, and it stops leaking.
//! * [`Cache::power_fail`] models a power outage: every block loses content
//!   and every way is re-powered (cold, active, leaking) on reboot.
//! * [`Cache::active_blocks`] drives static-energy integration: leakage is
//!   proportional to the number of non-gated ways.
//!
//! A dirty block leaves the cache one way: `lookup` (evicting it) and `gate`
//! (deactivating it) hand its address and a borrow of its bytes to a
//! write-back sink the caller passes, before they return. Gating a dirty
//! block without saving it would lose data, so the sink is how the caller
//! writes it back first. Walks over the resident blocks borrow the same way
//! ([`Cache::for_each_valid`], [`Cache::for_each_dirty`],
//! [`Cache::resident_addrs_iter`], [`Cache::set_view_into`]), so accesses,
//! gating and walks never allocate.
//!
//! # Example
//!
//! ```
//! use ehs_cache::{AccessKind, Cache, CacheConfig, LookupResult};
//!
//! let mut cache = Cache::new(CacheConfig::paper_dcache());
//! let mut memory = Vec::new(); // (address, bytes) written back
//! let mut write_back = |addr: u64, data: &[u8]| memory.push((addr, data.to_vec()));
//! match cache.lookup(0x1000, AccessKind::Write, &mut write_back) {
//!     LookupResult::Miss { evicted } => {
//!         assert_eq!(evicted, None); // cold miss, no victim
//!         cache.fill(0x1000, &[0u8; 16], true);
//!     }
//!     LookupResult::Hit(_) => unreachable!("cold cache cannot hit"),
//! }
//! assert!(cache.lookup(0x1000, AccessKind::Read, &mut write_back).is_hit());
//!
//! // Gating the dirty block writes it back first.
//! let frame = cache.contains(0x1000).expect("resident");
//! cache.gate(frame, &mut write_back);
//! assert_eq!(memory, [(0x1000, vec![0u8; 16])]);
//! assert_eq!(cache.stats().writebacks, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod policy;
mod probe;
mod stats;

pub use cache::{AccessKind, BlockId, Cache, CacheConfig, GateResult, LookupResult, WayView};
pub use policy::{ReplacementPolicy, MAX_WAYS};
pub use stats::CacheStats;

pub use ehs_nvm::{CacheGeometry, GeometryError};
