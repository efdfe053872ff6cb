//! Property dictionaries with surrogate sharing.
//!
//! Section 3.1 of the paper: "Actual property values (tag names, text node
//! content, etc.) are maintained in separate property BATs and kept unique
//! therein. These node properties are identified by their surrogates, where
//! nodes with identical properties share the same surrogate."

use std::collections::HashMap;
use std::sync::Arc;

/// An interning dictionary: maps strings to dense `u32` surrogates and back.
///
/// Each distinct value is stored once, shared by the surrogate-ordered
/// list and the lookup map.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `value`, returning its surrogate.  Identical values share the
    /// same surrogate.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&id) = self.index.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        let value: Arc<str> = Arc::from(value);
        self.values.push(Arc::clone(&value));
        self.index.insert(value, id);
        id
    }

    /// Look up a surrogate without interning.
    pub fn lookup(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Resolve a surrogate back to its string.
    pub fn resolve(&self, id: u32) -> &str {
        &self.values[id as usize]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total bytes of string payload held by the dictionary (used by the
    /// storage-overhead experiment).
    pub fn payload_bytes(&self) -> usize {
        self.values.iter().map(|v| v.len()).sum()
    }

    /// Iterate over `(surrogate, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u32, &**v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
