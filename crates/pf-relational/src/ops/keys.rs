//! Borrowed, typed hash keys — the allocation-free sibling of
//! [`HashKey`](crate::ops::HashKey).
//!
//! [`HashKey::of`](crate::ops::HashKey::of) materializes a [`Value`] per row
//! (boxing, and for string columns *cloning*) before it can hash — fine for
//! the row-at-a-time operators it was written for, but a per-probe-row heap
//! allocation in the hash-join and grouping hot loops.  [`Key`] carries the
//! same equivalence classes (`Nat`/`Int`/integral `Dbl` collapse, strings
//! hash by content) while **borrowing** string payloads from the column
//! buffer, and [`KeyView`] extracts it straight from a typed column slice —
//! no `Value` is ever constructed on the typed paths.
//!
//! The mapping mirrors `HashKey::of` case for case (including the shared
//! `Bits` pocket for huge `Nat`s and non-integral doubles), so a join or a
//! grouping keyed by `Key` matches exactly the pairs the `HashKey` kernels
//! would produce.
//!
//! # Direct addressing of dense `Nat` keys
//!
//! Loop-lifting keys nearly every join, `∖`, `δ` and grouping by an
//! `iter`-like column: a `Nat` column whose values are surrogates drawn
//! from `1..=rows`, the dense `void` columns MonetDB answers by position.
//! [`NatIndex`] and a presence bitset address such keys directly — a CSR
//! index (`offsets` by key, row ids grouped by key) and one bit per key —
//! instead of hashing them.  They apply under one fixed rule: the largest
//! key is at most `4 · rows + 1024`, where `rows` is what the kernel reads
//! (both inputs of a join or difference, the one input of a grouping), so
//! the index never costs more than a few words per input row.  The answer
//! is exact either way: two `Nat` keys
//! are equal exactly when their values are, which is the `Key` class of a
//! `Nat` (`Int` below `i64::MAX`, `Bits` above — both injective), so a
//! slot lookup finds precisely the rows a [`Key`] hash lookup would.  A
//! key column of any other type (an `Int`, `Dbl` or `Item` column, even
//! one holding naturals) goes through borrowed [`Key`] rows, which carry
//! the cross-type collapse.
//!
//! # Surrogates of one dictionary
//!
//! A `Text` column holds surrogates of one document's dictionary, which
//! gives one surrogate per distinct string.  Its [`KeyView::key`] spells
//! the row ([`Key::Str`], borrowed from the dictionary), so it meets any
//! other column's keys as a string.  Where every key a kernel compares
//! comes from *one* column — the columns of δ and of a grouping, each
//! against itself — [`KeyView::local_key`] gives the surrogate instead
//! ([`Key::Sym`]), and a kernel keyed by one `Text` column hashes the
//! `u32`s with [`FxHasher`](crate::hash::FxHasher) (or addresses them
//! through a seen-bitset when they are dense).  A join compares surrogates
//! only when both key columns index the same store (see
//! [`join`](crate::ops::join)).

use std::collections::HashSet;
use std::hash::Hash;

use crate::column::{Column, Texts};
use crate::hash::FxHashSet;
use crate::value::{AttrRef, NodeRef, Value};

/// A hashable key borrowed from a column, used by the typed hash-join and
/// aggregation kernels.  Same equivalence classes as
/// [`HashKey`](crate::ops::HashKey); strings are borrowed, never cloned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key<'a> {
    /// Integral numbers (Nat, Int and integral Dbl collapse here).
    Int(i64),
    /// Non-integral doubles (by bit pattern) and `Nat`s above `i64::MAX`.
    Bits(u64),
    /// Strings, by content, borrowed from the column buffer.
    Str(&'a str),
    /// Booleans.
    Bool(bool),
    /// Nodes by (doc, pre).
    Node(u32, u32),
    /// Constructed attributes by (doc, row).
    Attr(u32, u32),
    /// A dictionary surrogate: only ever compared against keys of the
    /// same `Text` column ([`KeyView::local_key`]).
    Sym(u32),
}

impl<'a> Key<'a> {
    /// The key of a natural number (mirrors `HashKey::of` on `Value::Nat`).
    #[inline]
    pub fn of_nat(n: u64) -> Key<'a> {
        if n <= i64::MAX as u64 {
            Key::Int(n as i64)
        } else {
            Key::Bits(n)
        }
    }

    /// The key of a double (mirrors `HashKey::of` on `Value::Dbl`).
    #[inline]
    pub fn of_dbl(d: f64) -> Key<'a> {
        if d.fract() == 0.0 && d.abs() < 9.0e18 {
            Key::Int(d as i64)
        } else {
            Key::Bits(d.to_bits())
        }
    }

    /// The key of a borrowed [`Value`] (the polymorphic item column);
    /// string payloads stay borrowed.
    #[inline]
    pub fn of_value(value: &'a Value) -> Key<'a> {
        match value {
            Value::Nat(n) => Key::of_nat(*n),
            Value::Int(i) => Key::Int(*i),
            Value::Dbl(d) => Key::of_dbl(*d),
            Value::Str(s) => Key::Str(s),
            Value::Bool(b) => Key::Bool(*b),
            Value::Node(n) => Key::Node(n.doc, n.pre),
            Value::Attr(a) => Key::Attr(a.doc, a.row),
        }
    }
}

/// A borrowed, typed view of one key column: extracts the [`Key`] of any
/// row without materializing a [`Value`].
#[derive(Debug, Clone, Copy)]
pub enum KeyView<'a> {
    /// Natural numbers.
    Nat(&'a [u64]),
    /// Integers.
    Int(&'a [i64]),
    /// Doubles.
    Dbl(&'a [f64]),
    /// Strings (hashed without cloning).
    Str(&'a [String]),
    /// Dictionary surrogates, spelled by [`KeyView::key`].
    Text(&'a Texts),
    /// Booleans.
    Bool(&'a [bool]),
    /// Node references.
    Node(&'a [NodeRef]),
    /// Attribute references.
    Attr(&'a [AttrRef]),
    /// The polymorphic item column (keys borrow from the stored values).
    Item(&'a [Value]),
}

impl<'a> KeyView<'a> {
    /// Borrow a typed key view of `column`.
    pub fn of(column: &'a Column) -> KeyView<'a> {
        match column {
            Column::Nat(v) => KeyView::Nat(v),
            Column::Int(v) => KeyView::Int(v),
            Column::Dbl(v) => KeyView::Dbl(v),
            Column::Str(v) => KeyView::Str(v),
            Column::Text(t) => KeyView::Text(t),
            Column::Bool(v) => KeyView::Bool(v),
            Column::Node(v) => KeyView::Node(v),
            Column::Attr(v) => KeyView::Attr(v),
            Column::Item(v) => KeyView::Item(v),
        }
    }

    /// Number of rows in the viewed column.
    pub fn len(&self) -> usize {
        match self {
            KeyView::Nat(v) => v.len(),
            KeyView::Int(v) => v.len(),
            KeyView::Dbl(v) => v.len(),
            KeyView::Str(v) => v.len(),
            KeyView::Text(t) => t.len(),
            KeyView::Bool(v) => v.len(),
            KeyView::Node(v) => v.len(),
            KeyView::Attr(v) => v.len(),
            KeyView::Item(v) => v.len(),
        }
    }

    /// `true` when the viewed column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key of row `row` — exactly `HashKey::of(&column.get(row))`,
    /// without the `Value`.
    #[inline]
    pub fn key(&self, row: usize) -> Key<'a> {
        match self {
            KeyView::Nat(v) => Key::of_nat(v[row]),
            KeyView::Int(v) => Key::Int(v[row]),
            KeyView::Dbl(v) => Key::of_dbl(v[row]),
            KeyView::Str(v) => Key::Str(&v[row]),
            KeyView::Text(t) => Key::Str(t.spell(row)),
            KeyView::Bool(v) => Key::Bool(v[row]),
            KeyView::Node(v) => Key::Node(v[row].doc, v[row].pre),
            KeyView::Attr(v) => Key::Attr(v[row].doc, v[row].row),
            KeyView::Item(v) => Key::of_value(&v[row]),
        }
    }

    /// The key of row `row` for comparison with the keys of *this
    /// column's* rows only: a `Text` row's surrogate, [`KeyView::key`]
    /// otherwise (see the module docs).
    #[inline]
    pub fn local_key(&self, row: usize) -> Key<'a> {
        match self {
            KeyView::Text(t) => Key::Sym(t.syms()[row]),
            view => view.key(row),
        }
    }
}

/// The density rule of the direct-address kernels: keys up to `max` are
/// addressed directly when `max ≤ 4 · rows + 1024` (see the module docs).
#[inline]
pub(crate) fn dense_enough(max: u64, rows: usize) -> bool {
    max <= (rows as u64).saturating_mul(4).saturating_add(1024)
}

/// Rows grouped by a `Nat` key: a CSR index, `offsets` by group and the
/// row ids of every group, ascending within a group (the build is a
/// stable counting sort).
///
/// Two layouts answer the same lookups: the *direct-address* one, where
/// group `k` holds key `k` and a lookup is an array access, and the
/// *sorted* one for keys beyond the density rule of the module docs,
/// where a lookup binary-searches the distinct keys.
#[derive(Debug, Clone)]
pub struct NatIndex {
    /// The distinct keys, ascending, in the sorted layout; `None` in the
    /// direct-address layout, where group `k` is key `k`.
    keys: Option<Vec<u64>>,
    /// Group `g` is `rows[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    /// Row ids grouped by key.
    rows: Vec<u32>,
}

impl NatIndex {
    /// The direct-address index of `keys` (`max key + 2` offsets), or
    /// `None` when the largest key fails [`dense_enough`] against `rows`
    /// — the input rows the calling kernel reads, at least `keys.len()`.
    pub(crate) fn dense(keys: &[u64], rows: usize) -> Option<NatIndex> {
        let max = keys.iter().copied().max().unwrap_or(0);
        if !dense_enough(max, rows) || u32::try_from(keys.len()).is_err() {
            return None;
        }
        // Count key k at offsets[k + 2]; the prefix sum turns offsets[k + 1]
        // into the start of group k, and placing a row advances it to the
        // start of group k + 1 — so afterwards offsets[k] starts group k.
        let mut offsets = vec![0u32; max as usize + 3];
        for &key in keys {
            offsets[key as usize + 2] += 1;
        }
        for i in 2..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut grouped = vec![0u32; keys.len()];
        for (row, &key) in keys.iter().enumerate() {
            let at = &mut offsets[key as usize + 1];
            grouped[*at as usize] = row as u32;
            *at += 1;
        }
        offsets.pop();
        Some(NatIndex {
            keys: None,
            offsets,
            rows: grouped,
        })
    }

    /// The sorted-layout index of any `keys`: rows stably sorted by key,
    /// one group per distinct key.
    fn sorted(keys: &[u64]) -> NatIndex {
        let count = u32::try_from(keys.len()).expect("a table has fewer than 2^32 rows");
        let mut rows: Vec<u32> = (0..count).collect();
        rows.sort_by_key(|&row| keys[row as usize]);
        let mut distinct = Vec::new();
        let mut offsets = Vec::new();
        for (at, &row) in rows.iter().enumerate() {
            let key = keys[row as usize];
            if distinct.last() != Some(&key) {
                distinct.push(key);
                offsets.push(at as u32);
            }
        }
        offsets.push(rows.len() as u32);
        NatIndex {
            keys: Some(distinct),
            offsets,
            rows,
        }
    }

    /// The direct-address index when `keys` are dense against their own
    /// count, the sorted one otherwise.
    pub fn new(keys: &[u64]) -> NatIndex {
        NatIndex::dense(keys, keys.len()).unwrap_or_else(|| NatIndex::sorted(keys))
    }

    /// The rows keyed `key` (none when no row has it), ascending — or in
    /// the order [`NatIndex::sort_groups_by_key`] left them.
    #[inline]
    pub fn rows_of(&self, key: u64) -> &[u32] {
        let group = match &self.keys {
            None => usize::try_from(key)
                .ok()
                .filter(|&g| g < self.offsets.len() - 1),
            Some(keys) => keys.binary_search(&key).ok(),
        };
        group.map_or(&[], |g| {
            &self.rows[self.offsets[g] as usize..self.offsets[g + 1] as usize]
        })
    }

    /// Stably sort the rows of every group by `sort_key`, leaving groups
    /// that are already in order untouched.
    pub fn sort_groups_by_key(&mut self, sort_key: impl Fn(u32) -> u64) {
        for bounds in self.offsets.windows(2) {
            let group = &mut self.rows[bounds[0] as usize..bounds[1] as usize];
            if !group.windows(2).all(|w| sort_key(w[0]) <= sort_key(w[1])) {
                group.sort_by_key(|&row| sort_key(row));
            }
        }
    }
}

/// A presence bitset over the `Nat` keys `0..=max`.
#[derive(Debug, Clone)]
pub(crate) struct NatBits {
    words: Vec<u64>,
}

impl NatBits {
    /// An empty set for keys up to `max`, or `None` when `max` fails
    /// [`dense_enough`] against `rows`.
    pub(crate) fn dense(max: u64, rows: usize) -> Option<NatBits> {
        dense_enough(max, rows).then(|| NatBits {
            words: vec![0; (max >> 6) as usize + 1],
        })
    }

    /// Add `key` (at most the `max` the set was made for); `true` when it
    /// was not present yet.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        let word = &mut self.words[(key >> 6) as usize];
        let bit = 1u64 << (key & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Is `key` present?  Keys above the set's `max` never are.
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        usize::try_from(key >> 6)
            .ok()
            .and_then(|w| self.words.get(w))
            .is_some_and(|word| word & (1u64 << (key & 63)) != 0)
    }
}

/// δ over one `Nat` key sequence: the positions of the first occurrence
/// of every key, through a seen-bitset — or `None` when the keys fail
/// [`dense_enough`] against their count.
pub(crate) fn first_nats(keys: impl ExactSizeIterator<Item = u64> + Clone) -> Option<Vec<usize>> {
    let max = keys.clone().max().unwrap_or(0);
    let mut seen = NatBits::dense(max, keys.len())?;
    Some(
        keys.enumerate()
            .filter(|&(_, key)| seen.insert(key))
            .map(|(at, _)| at)
            .collect(),
    )
}

/// `∖` over one `Nat` key column: the rows of `left` whose key is not in
/// `right`, through a presence bitset over `right` — or `None` when
/// `right`'s keys fail [`dense_enough`] against both inputs' rows.
pub(crate) fn nats_absent(left: &[u64], right: &[u64]) -> Option<Vec<usize>> {
    let max = right.iter().copied().max().unwrap_or(0);
    let mut present = NatBits::dense(max, left.len() + right.len())?;
    for &key in right {
        present.insert(key);
    }
    Some(
        (0..left.len())
            .filter(|&row| !present.contains(left[row]))
            .collect(),
    )
}

/// δ over one `Text` key sequence: the positions of the first occurrence
/// of every surrogate, through a seen-bitset when they are dense against
/// their count ([`first_nats`]), an [`FxHashSet`](crate::hash::FxHashSet)
/// otherwise.
pub(crate) fn first_syms(syms: impl ExactSizeIterator<Item = u32> + Clone) -> Vec<usize> {
    first_nats(syms.clone().map(u64::from)).unwrap_or_else(|| {
        let mut seen = FxHashSet::with_capacity_and_hasher(syms.len(), Default::default());
        syms.enumerate()
            .filter(|&(_, sym)| seen.insert(sym))
            .map(|(at, _)| at)
            .collect()
    })
}

/// δ over composite keys: the first row among `0..rows` of every distinct
/// combination of the `columns` keys `key(column, row)`.  Rows are keyed
/// by a borrowed [`Key`], a pair of them, or a `Vec` beyond two columns;
/// the compiler's `δ`s have one or two.
pub(crate) fn first_rows<'a>(
    columns: usize,
    rows: usize,
    key: impl Fn(usize, usize) -> Key<'a>,
) -> Vec<usize> {
    fn first_by<K: Hash + Eq>(rows: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
        let mut seen = HashSet::with_capacity(rows);
        (0..rows).filter(|&row| seen.insert(key(row))).collect()
    }
    match columns {
        1 => first_by(rows, |r| key(0, r)),
        2 => first_by(rows, |r| [key(0, r), key(1, r)]),
        _ => first_by(rows, |r| {
            (0..columns).map(|c| key(c, r)).collect::<Vec<_>>()
        }),
    }
}

/// `∖` over composite keys: the rows among `0..left_rows` whose key
/// combination `left(column, row)` is not among `right`'s.  Rows are
/// keyed by a borrowed [`Key`], or a `Vec` beyond one column; the
/// compiler's `∖`s are all `loop ∖ π_iter(…)`.
pub(crate) fn rows_absent<'a>(
    columns: usize,
    left_rows: usize,
    left: impl Fn(usize, usize) -> Key<'a>,
    right_rows: usize,
    right: impl Fn(usize, usize) -> Key<'a>,
) -> Vec<usize> {
    fn absent_by<K: Hash + Eq>(
        left_rows: usize,
        left: impl Fn(usize) -> K,
        right_rows: usize,
        right: impl Fn(usize) -> K,
    ) -> Vec<usize> {
        let present: HashSet<K> = (0..right_rows).map(right).collect();
        (0..left_rows)
            .filter(|&row| !present.contains(&left(row)))
            .collect()
    }
    match columns {
        1 => absent_by(left_rows, |r| left(0, r), right_rows, |r| right(0, r)),
        _ => absent_by(
            left_rows,
            |r| (0..columns).map(|c| left(c, r)).collect::<Vec<_>>(),
            right_rows,
            |r| (0..columns).map(|c| right(c, r)).collect::<Vec<_>>(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::HashKey;

    /// The borrowed key must land in the same equivalence class as
    /// `HashKey::of` for every representation, including the edge pockets
    /// (huge nats, integral and non-integral doubles).
    #[test]
    fn key_matches_hashkey_classes() {
        let values = vec![
            Value::Nat(3),
            Value::Nat(u64::MAX),
            Value::Nat(i64::MAX as u64),
            Value::Nat(i64::MAX as u64 + 1),
            Value::Int(-7),
            Value::Dbl(3.0),
            Value::Dbl(3.5),
            Value::Dbl(-0.0),
            Value::Dbl(9.5e18),
            Value::Str("x".into()),
            Value::Str("".into()),
            Value::Bool(true),
            Value::Node(NodeRef::new(2, 9)),
        ];
        let col = Column::items(values.clone());
        let view = KeyView::of(&col);
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                assert_eq!(
                    view.key(i) == view.key(j),
                    HashKey::of(a) == HashKey::of(b),
                    "rows {i} and {j} ({a:?} vs {b:?})"
                );
            }
        }
    }

    /// Typed column views agree with the item-column view (and thereby
    /// with `HashKey::of`).
    #[test]
    fn typed_views_match_item_views() {
        let nats = Column::nats(vec![0, 5, i64::MAX as u64 + 1]);
        let items = Column::items(vec![
            Value::Nat(0),
            Value::Nat(5),
            Value::Nat(i64::MAX as u64 + 1),
        ]);
        let tv = KeyView::of(&nats);
        let iv = KeyView::of(&items);
        for row in 0..3 {
            assert_eq!(tv.key(row), iv.key(row));
        }
        let dbls = Column::dbls(vec![2.0, 2.5]);
        let dv = KeyView::of(&dbls);
        assert_eq!(dv.key(0), Key::Int(2));
        assert_eq!(dv.key(1), Key::Bits(2.5f64.to_bits()));
    }

    /// Numeric collapse across representations: Nat 3, Int 3 and Dbl 3.0
    /// share one key; the string "3" does not.
    #[test]
    fn cross_type_collapse() {
        assert_eq!(Key::of_nat(3), Key::Int(3));
        assert_eq!(Key::of_dbl(3.0), Key::Int(3));
        assert_ne!(Key::Str("3"), Key::Int(3));
        assert_ne!(Key::Bool(true), Key::Int(1));
    }

    /// The rows of every key, ascending, by a scan — what both index
    /// layouts must answer.
    fn scan(keys: &[u64], key: u64) -> Vec<u32> {
        (0..keys.len() as u32)
            .filter(|&row| keys[row as usize] == key)
            .collect()
    }

    #[test]
    fn density_rule_counts_the_rows_read() {
        assert!(dense_enough(1024, 0));
        assert!(!dense_enough(1025, 0));
        assert!(dense_enough(4 * 10 + 1024, 10));
        assert!(!dense_enough(4 * 10 + 1025, 10));
        assert!(!dense_enough(u64::MAX, 1 << 20));
    }

    #[test]
    fn both_layouts_group_rows_ascending_by_key() {
        let keys = [5u64, 1, 5, 0, 3, 1, 5];
        let dense = NatIndex::dense(&keys, keys.len()).expect("dense keys");
        let sorted = NatIndex::sorted(&keys);
        for index in [&dense, &sorted] {
            for key in 0..8 {
                assert_eq!(index.rows_of(key), scan(&keys, key).as_slice(), "key {key}");
            }
            assert_eq!(index.rows_of(u64::MAX), &[] as &[u32]);
            assert_eq!(index.rows, &[3, 1, 5, 4, 0, 2, 6]);
        }
        // A direct-address index has max key + 2 offsets.
        assert_eq!(dense.offsets.len(), 5 + 2);
        assert!(NatIndex::dense(&[], 0).unwrap().rows_of(0).is_empty());
    }

    #[test]
    fn sparse_keys_take_the_sorted_layout() {
        let keys = [u64::MAX, 7, i64::MAX as u64 + 1, 7, 100_000];
        assert!(NatIndex::dense(&keys, keys.len()).is_none());
        let index = NatIndex::new(&keys);
        assert!(index.keys.is_some());
        for &key in &keys {
            assert_eq!(index.rows_of(key), scan(&keys, key).as_slice());
        }
        assert!(index.rows_of(8).is_empty());
        // The rows of the other side count toward the rule.
        assert!(NatIndex::dense(&[4000], 1).is_none());
        assert!(NatIndex::dense(&[4000], 1000).is_some());
    }

    #[test]
    fn group_sort_is_stable_and_skips_sorted_groups() {
        let keys = [1u64, 2, 1, 1, 2];
        let order = [9u64, 0, 3, 3, 1];
        let mut index = NatIndex::new(&keys);
        index.sort_groups_by_key(|row| order[row as usize]);
        // Group 1: rows 0, 2, 3 ordered 9, 3, 3 → 2, 3, 0 (ties keep row
        // order); group 2: rows 1, 4 ordered 0, 1 → unchanged.
        assert_eq!(index.rows_of(1), &[2, 3, 0]);
        assert_eq!(index.rows_of(2), &[1, 4]);
    }

    #[test]
    fn bitset_membership() {
        let mut bits = NatBits::dense(130, 0).unwrap();
        assert!(bits.insert(0));
        assert!(bits.insert(130));
        assert!(!bits.insert(130));
        assert!(bits.contains(0) && bits.contains(130));
        assert!(!bits.contains(64) && !bits.contains(131) && !bits.contains(u64::MAX));
        assert!(NatBits::dense(5000, 10).is_none());
    }

    #[test]
    fn dense_set_kernels_match_a_scan() {
        let keys = [3u64, 1, 3, 2, 1, 9];
        assert_eq!(first_nats(keys.iter().copied()).unwrap(), vec![0, 1, 3, 5]);
        assert_eq!(nats_absent(&keys, &[1, 9, 40]).unwrap(), vec![0, 2, 3]);
        assert!(first_nats([u64::MAX].into_iter()).is_none());
        assert!(nats_absent(&[1], &[1 << 40]).is_none());
    }

    #[test]
    fn composite_keys_of_every_arity() {
        // Row r has key (r % 2, r % 3, …): with 1–4 columns the first
        // occurrences are the first 2, 6, 6, 6 rows.
        let cols: Vec<Column> = (0..4)
            .map(|c| Column::nats((0..12).map(|r| r % [2, 3, 2, 3][c]).collect()))
            .collect();
        let views: Vec<KeyView> = cols.iter().map(KeyView::of).collect();
        for (arity, firsts) in [(1, 2), (2, 6), (3, 6), (4, 6)] {
            let key = |c: usize, r: usize| views[c].key(r);
            assert_eq!(first_rows(arity, 12, key), (0..firsts).collect::<Vec<_>>());
            assert_eq!(
                rows_absent(arity, 12, key, firsts, key),
                Vec::<usize>::new()
            );
            assert_eq!(rows_absent(arity, 12, key, 1, key).len(), 12 - 12 / firsts);
        }
    }
}
