//! A hand-rolled FNV-1a hasher for the simulator's hot-path caches.
//!
//! The reuse caches hash small fixed-shape keys ([`crate::OpSignature`],
//! [`crate::BatchSignature`]) millions of times per run. `std`'s default
//! SipHash is DoS-resistant but needlessly slow for an offline simulator
//! whose keys come from its own deterministic workload — FNV-1a is a few
//! multiplies per word and wins decisively on these short keys. The build
//! is fully offline, so this is vendored in-tree rather than pulled from
//! crates.io.

#![expect(
    clippy::disallowed_types,
    reason = "definition site of the FnvHashMap/FnvHashSet aliases every other simulation crate must use instead of the std containers"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV-1a streaming hasher.
///
/// # Examples
///
/// ```
/// use std::hash::Hasher;
///
/// let mut h = llmss_model::FnvHasher::default();
/// h.write(b"score");
/// // FNV-1a of "score" is stable across runs and platforms.
/// assert_eq!(h.finish(), {
///     let mut h2 = llmss_model::FnvHasher::default();
///     h2.write(b"score");
///     h2.finish()
/// });
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    fn write_u64(&mut self, n: u64) {
        // One whole-word round per integer keeps small struct keys at a
        // handful of multiplies instead of eight byte rounds each.
        self.0 = (self.0 ^ n).wrapping_mul(FNV_PRIME);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` producing [`FnvHasher`]s.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed through FNV-1a (drop-in for the default map on
/// trusted, short keys).
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed through FNV-1a.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn empty_input_is_offset_basis() {
        let h = FnvHasher::default();
        assert_eq!(h.finish(), FNV_OFFSET);
    }

    #[test]
    fn map_round_trips() {
        let mut m: FnvHashMap<(u32, u64), u64> = FnvHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32, i * 7), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(41, 287)), Some(&41));
    }

    #[test]
    fn integer_writes_differ_from_each_other() {
        let hash_one = |n: u64| {
            let mut h = FnvHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(hash_one(1), hash_one(2));
        assert_ne!(hash_one(0), hash_one(u64::MAX));
    }
}
