//! The workspace's one cheap hasher.
//!
//! [`FxHasher`] is a multiply-rotate hasher in the style of rustc's
//! `FxHash`: one multiply per word, no key.  It is used only where the
//! keys cannot be chosen from outside the engine:
//!
//! * dictionary surrogates and `Nat` keys (row ids, `iter` numbers,
//!   group ids) in the kernels — the engine hands them out;
//! * the optimizer's maps, keyed by operator buckets of the plan itself.
//!
//! String keys and mixed keys stay on std's keyed SipHash
//! ([`std::collections::HashMap`]'s default).  `LOAD` and `LOADFILE` let a
//! `pathfinder-serve` client choose the text of a document, so a string
//! key can be chosen by an attacker, and an unkeyed hash would let a
//! crafted document force every key into one bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for keys the engine hands out (see the module
/// docs for where it may be used).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` over [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;
