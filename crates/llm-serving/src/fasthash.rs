//! The crate's one hasher for its internal maps.
//!
//! Every map keyed through it — the prefix trie's edge map, the batch-price
//! memo and the engine's per-iteration dedup groups — has keys made of node
//! ids, block ids, token counts and workload tags: nothing an adversary
//! picks, so SipHash's flooding resistance buys nothing. [`FastHasher`]
//! folds each integer field with one multiply-rotate instead. No decision
//! reads any of these maps' iteration order (see the `blocks` module docs),
//! so the hash values themselves never reach an output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher: one step per integer field, whatever its
/// width.
#[derive(Debug, Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest; the table indexes by them.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(value: impl Hash) -> u64 {
        let mut h = FastHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Every integer width folds as one step over its value widened to
    /// `u64`, so a field's hash does not depend on its declared type.
    #[test]
    fn integer_widths_fold_as_one_step() {
        let one_step = |x: u64| {
            let mut h = FastHasher::default();
            h.write_u64(x);
            h.finish()
        };
        for x in [0u64, 1, 7, 255, 65_537, u64::from(u32::MAX)] {
            if let Ok(b) = u8::try_from(x) {
                assert_eq!(hash_of(b), one_step(x));
            }
            if let Ok(w) = u32::try_from(x) {
                assert_eq!(hash_of(w), one_step(x));
            }
            assert_eq!(hash_of(x as usize), one_step(x));
            assert_eq!(hash_of(x), one_step(x));
        }
    }

    /// Field order matters and neighbouring keys land on different hashes.
    #[test]
    fn distinct_small_keys_hash_apart() {
        assert_ne!(hash_of((1usize, 2usize)), hash_of((2usize, 1usize)));
        let mut seen = std::collections::HashSet::new();
        for a in 0..64usize {
            for b in 0..64usize {
                assert!(seen.insert(hash_of((a, b))), "collision at ({a}, {b})");
            }
        }
    }
}
