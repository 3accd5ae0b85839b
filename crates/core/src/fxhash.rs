//! A tiny, deterministic, non-cryptographic hasher for the simulator's
//! per-access maps.
//!
//! Every hot map in the workspace is keyed by small integers (block
//! addresses, set indices, serial numbers). `std`'s default SipHash is
//! DoS-resistant but costs tens of cycles per lookup; the rustc-style "Fx"
//! multiply-xor hash below is a handful of instructions and — unlike
//! `RandomState` — is *seedless*, so iteration-independent map behaviour is
//! identical across runs and threads, which the determinism tests rely on.
//!
//! Not suitable for untrusted keys; everything hashed here comes from the
//! simulated program itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant from FxHash (Firefox / rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher; processes input 8 bytes at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// Seedless `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the fast deterministic hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        for addr in [0u64, 0x40, 0xFFFF_FFFF_FFFF_FFF0, 12345] {
            assert_eq!(hash_of(&addr), hash_of(&addr));
        }
        assert_eq!(hash_of(&(1u64, true)), hash_of(&(1u64, true)));
    }

    #[test]
    fn nearby_block_addresses_do_not_collide() {
        let hashes: HashSet<u64> = (0..1024u64).map(|i| hash_of(&(i * 16))).collect();
        assert_eq!(hashes.len(), 1024, "block-aligned keys must stay distinct");
    }

    #[test]
    fn byte_slices_of_different_length_differ() {
        let a = {
            let mut h = FxHasher::default();
            h.write(&[0, 0, 0]);
            h.finish()
        };
        let b = {
            let mut h = FxHasher::default();
            h.write(&[0, 0, 0, 0]);
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(0x40, 7);
        assert_eq!(m.get(&0x40), Some(&7));
    }
}
