//! Property dictionaries with surrogate sharing.
//!
//! Section 3.1 of the paper: "Actual property values (tag names, text node
//! content, etc.) are maintained in separate property BATs and kept unique
//! therein. These node properties are identified by their surrogates, where
//! nodes with identical properties share the same surrogate."
//!
//! A [`Dictionary`] is such a property BAT laid out as MonetDB lays out a
//! string column: one contiguous string heap holding every distinct value
//! back to back in surrogate order, and an offsets vector that cuts the
//! heap into values — value `s` is `heap[offsets[s]..offsets[s + 1]]`.
//! There is no allocation per value.
//!
//! Interning goes through an open-addressing table of `(hash bits,
//! surrogate)` slots.  Each [`Dictionary::intern`] hashes its argument
//! once, with std's keyed SipHash ([`RandomState`]): the values come from
//! documents a client loads, so an unkeyed hash would let a crafted
//! document force every value into one probe chain.  Growing the table
//! re-places every slot from its stored hash bits; no value is hashed
//! twice.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A table slot: the low 32 bits of the value's hash and its surrogate,
/// [`EMPTY`] when the slot is free.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// The surrogate of a free slot; never handed out.
const EMPTY: u32 = u32::MAX;

/// Slots of the first table.
const MIN_SLOTS: usize = 16;

/// An interning dictionary: maps strings to dense `u32` surrogates and back.
///
/// Surrogates are handed out in first-seen order, `0, 1, 2, …`.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Every distinct value, back to back in surrogate order.
    heap: String,
    /// `offsets[s]..offsets[s + 1]` is value `s`'s range of `heap`; one
    /// more entry than values, starting at 0.
    offsets: Vec<usize>,
    /// Open addressing with linear probing: a power-of-two number of
    /// slots (none before the first value), at most half of them taken.
    slots: Vec<Slot>,
    /// The per-dictionary SipHash keys.
    hasher: RandomState,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            heap: String::new(),
            offsets: vec![0],
            slots: Vec::new(),
            hasher: RandomState::new(),
        }
    }
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `value`, returning its surrogate.  Identical values share the
    /// same surrogate.
    ///
    /// # Panics
    ///
    /// When `value` would be the `u32::MAX`-th distinct value: surrogates
    /// are `u32`s, and the last one marks a free slot.
    pub fn intern(&mut self, value: &str) -> u32 {
        let hash = self.hasher.hash_one(value) as u32;
        if let Some(id) = self.find(hash, value) {
            return id;
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("a dictionary holds fewer than u32::MAX distinct values");
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        self.heap.push_str(value);
        self.offsets.push(self.heap.len());
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { hash, id };
        id
    }

    /// Look up a surrogate without interning.
    pub fn lookup(&self, value: &str) -> Option<u32> {
        self.find(self.hasher.hash_one(value) as u32, value)
    }

    /// The surrogate of `value`, whose hash bits are `hash`, if present.
    fn find(&self, hash: u32, value: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.hash == hash && self.resolve(slot.id) == value {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table (or make the first one), re-placing every slot
    /// from its stored hash bits.
    fn grow(&mut self) {
        let slots = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, id: EMPTY }; slots]);
        let mask = slots - 1;
        for slot in old.into_iter().filter(|slot| slot.id != EMPTY) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Resolve a surrogate back to its string.
    pub fn resolve(&self, id: u32) -> &str {
        let id = id as usize;
        &self.heap[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of string payload held by the dictionary.
    pub fn payload_bytes(&self) -> usize {
        self.heap.len()
    }

    /// Bytes the dictionary holds resident: the string payload, one
    /// `usize` offset per value and the table's slots (at most half of
    /// them taken) — what a value costs here, as opposed to the
    /// MonetDB-style heap the paper accounts.
    pub fn resident_bytes(&self) -> usize {
        self.payload_bytes()
            + self.len() * std::mem::size_of::<usize>()
            + self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Iterate over `(surrogate, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.offsets
            .windows(2)
            .enumerate()
            .map(|(i, range)| (i as u32, &self.heap[range[0]..range[1]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn interning_shares_surrogates() {
        let mut d = Dictionary::new();
        let a = d.intern("person");
        let b = d.intern("item");
        let c = d.intern("person");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a), "person");
        assert_eq!(d.lookup("item"), Some(b));
        assert_eq!(d.lookup("absent"), None);
    }

    #[test]
    fn payload_bytes_counts_unique_values_once() {
        let mut d = Dictionary::new();
        d.intern("aaaa");
        d.intern("aaaa");
        d.intern("bb");
        assert_eq!(d.payload_bytes(), 6);
    }

    #[test]
    fn iteration_in_surrogate_order() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn an_empty_dictionary_finds_nothing() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.lookup(""), None);
        assert_eq!(d.lookup("x"), None);
        assert_eq!(d.iter().count(), 0);
        assert_eq!(d.payload_bytes(), 0);
        assert_eq!(d.resident_bytes(), 0);
    }

    /// Resident bytes: payload, an offset per value and every table slot,
    /// taken or not — the table doubles at the ninth value.
    #[test]
    fn resident_bytes_count_offsets_and_slots() {
        let mut d = Dictionary::new();
        for (i, value) in ["a", "bb", "a", "é"].iter().enumerate() {
            d.intern(value);
            assert!(i > 0 || d.resident_bytes() == 1 + 8 + 16 * 8);
        }
        assert_eq!(d.resident_bytes(), 5 + 3 * 8 + 16 * 8);
        for i in 0..6 {
            d.intern(&i.to_string());
        }
        assert_eq!(d.len(), 9);
        assert_eq!(d.resident_bytes(), 11 + 9 * 8 + 32 * 8);
    }

    /// The dictionary against a `HashMap` oracle: the empty string,
    /// duplicates, multibyte UTF-8, absent lookups, first-seen order,
    /// payload bytes — and, in one case, more than 100 000 distinct
    /// values, so the table grows many times.
    fn agrees_with_a_hash_map(values: &[String], absent: &[String]) {
        let mut dict = Dictionary::new();
        let mut oracle: HashMap<&str, u32> = HashMap::new();
        let mut order: Vec<&str> = Vec::new();
        for value in values {
            let next = order.len() as u32;
            let expected = *oracle.entry(value).or_insert_with(|| {
                order.push(value);
                next
            });
            assert_eq!(dict.intern(value), expected, "intern {value:?}");
        }
        assert_eq!(dict.len(), order.len());
        assert_eq!(dict.is_empty(), order.is_empty());
        assert_eq!(
            dict.payload_bytes(),
            order.iter().map(|v| v.len()).sum::<usize>()
        );
        let pairs: Vec<(u32, &str)> = dict.iter().collect();
        let expected: Vec<(u32, &str)> = order
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, *v))
            .collect();
        assert_eq!(pairs, expected, "iter");
        for (id, value) in order.iter().enumerate() {
            assert_eq!(dict.resolve(id as u32), *value);
            assert_eq!(dict.lookup(value), Some(id as u32));
        }
        for value in absent {
            assert_eq!(dict.lookup(value), oracle.get(value.as_str()).copied());
        }
    }

    fn value() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            proptest::sample::select(vec!["a", "ab", "é", "€uro", "😀", "a\u{0}b", "person"])
                .prop_map(str::to_string),
            (0u32..300).prop_map(|n| format!("v{n}")),
            (0u32..50).prop_map(|n| "ü".repeat(n as usize)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn interning_agrees_with_a_hash_map(
            values in proptest::collection::vec(value(), 0..400),
            absent in proptest::collection::vec(value(), 0..20),
        ) {
            agrees_with_a_hash_map(&values, &absent);
        }
    }

    #[test]
    fn a_hundred_thousand_values_grow_the_table_many_times() {
        let mut values: Vec<String> = (0..120_000).map(|n| format!("{n}·{}", n % 7)).collect();
        values.extend((0..120_000).step_by(3).map(|n| format!("{n}·{}", n % 7)));
        values.push(String::new());
        let absent: Vec<String> = (120_000..120_100).map(|n| n.to_string()).collect();
        agrees_with_a_hash_map(&values, &absent);
    }
}
