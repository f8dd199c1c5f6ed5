//! A fixed, fast hasher for the simulator's integer-id keys.
//!
//! Page ids, block ids and `(src, dst)` node pairs are small integers the
//! simulator generates itself, so the standard library's per-process
//! random SipHash buys nothing on them but cost. [`IdHasher`] is an
//! FxHash-style multiply-mix: one rotate, xor and multiply per word, no
//! random seed, so the same keys land in the same buckets in every
//! process. Code must still not let a map's iteration order reach any
//! output: hash order is arbitrary, if repeatable. Keep the standard
//! hasher for keys that come from outside the program, which could be
//! crafted to collide.

use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of FxHash (from rustc's `FxHasher`).
const MIX: u64 = 0x517c_c1b7_2722_0a95;

/// An FxHash-style hasher for integer-id keys. See the module docs.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use now_sim::IdBuildHasher;
///
/// let mut owners: HashMap<u64, u32, IdBuildHasher> = HashMap::default();
/// owners.insert(7, 3);
/// assert_eq!(owners.get(&7), Some(&3));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// Builds [`IdHasher`]s: the `S` parameter of a `HashMap` or `HashSet`
/// keyed by simulator ids.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for IdHasher {
    /// One byte per mix: correct for any key, and no id key takes this
    /// path (they hash through `write_u32` and `write_u64`).
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    /// The low bits of a product depend only on the low bits of its
    /// input, and the table takes bucket indexes from the low bits, so
    /// the high half is folded down: keys differing only in high bits
    /// still spread.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_fixed_across_hashers() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((3u32, 9u32)), hash_of((3u32, 9u32)));
        assert_ne!(hash_of((3u32, 9u32)), hash_of((9u32, 3u32)));
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_bits() {
        // 4,096 keys that share their low 32 bits: without the fold every
        // one would land in the same bucket of a table under 2^32 slots.
        let buckets: HashSet<u64> = (0..4_096u64)
            .map(|i| hash_of((i << 32) | 0x1234) & 0xfff)
            .collect();
        assert!(buckets.len() > 2_048, "{} distinct buckets", buckets.len());
    }
}
