//! Typed sort keys — allocation-free comparators for sorts and row numbering.
//!
//! The first executor sorted by calling [`Column::get`] inside the
//! comparator, materializing two [`Value`]s (and, for string columns, two
//! heap allocations) per comparison — O(n log n) allocations per sort.
//! [`SortKeys`] extracts a typed, borrowed view of every key column *once*
//! and compares rows straight against the underlying buffers, reproducing
//! [`Value::sort_key_cmp`] exactly (columns are homogeneous, so the
//! same-type arms apply; the polymorphic item column compares by reference).

use std::cmp::Ordering;

use crate::column::{Column, Texts};
use crate::error::RelResult;
use crate::table::{ColId, Table};
use crate::value::{AttrRef, NodeRef, Value};

/// A borrowed, typed view of one key column.
#[derive(Debug, Clone, Copy)]
pub enum KeyCol<'a> {
    /// Natural numbers.
    Nat(&'a [u64]),
    /// Integers.
    Int(&'a [i64]),
    /// Doubles.
    Dbl(&'a [f64]),
    /// Strings (compared without cloning).
    Str(&'a [String]),
    /// Dictionary surrogates, compared spelled (a dictionary numbers its
    /// strings in first-seen order, not in sort order).
    Text(&'a Texts),
    /// Booleans.
    Bool(&'a [bool]),
    /// Node references (document order).
    Node(&'a [NodeRef]),
    /// Attribute references (constructor order).
    Attr(&'a [AttrRef]),
    /// The polymorphic item column (compared by reference via
    /// [`Value::sort_key_cmp`]).
    Item(&'a [Value]),
}

impl<'a> KeyCol<'a> {
    /// Borrow a typed view of `column`.
    pub fn of(column: &'a Column) -> KeyCol<'a> {
        match column {
            Column::Nat(v) => KeyCol::Nat(v),
            Column::Int(v) => KeyCol::Int(v),
            Column::Dbl(v) => KeyCol::Dbl(v),
            Column::Str(v) => KeyCol::Str(v),
            Column::Text(t) => KeyCol::Text(t),
            Column::Bool(v) => KeyCol::Bool(v),
            Column::Node(v) => KeyCol::Node(v),
            Column::Attr(v) => KeyCol::Attr(v),
            Column::Item(v) => KeyCol::Item(v),
        }
    }

    /// Compare rows `a` and `b` of this column — exactly
    /// [`Value::sort_key_cmp`] of the two cells, without materializing
    /// them (`NaN` doubles sort last via
    /// [`nan_last_cmp`](crate::value::nan_last_cmp), keeping the order
    /// total — a precondition for run merges matching one stable sort).
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match self {
            KeyCol::Nat(v) => v[a].cmp(&v[b]),
            KeyCol::Int(v) => v[a].cmp(&v[b]),
            KeyCol::Dbl(v) => crate::value::nan_last_cmp(v[a], v[b]),
            KeyCol::Str(v) => v[a].cmp(&v[b]),
            KeyCol::Text(t) => t.spell(a).cmp(t.spell(b)),
            KeyCol::Bool(v) => v[a].cmp(&v[b]),
            KeyCol::Node(v) => v[a].cmp(&v[b]),
            KeyCol::Attr(v) => v[a].cmp(&v[b]),
            KeyCol::Item(v) => v[a].sort_key_cmp(&v[b]),
        }
    }

    /// `true` when rows `a` and `b` carry equal keys (used for partition
    /// boundaries in row numbering).
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.cmp_rows(a, b) == Ordering::Equal
    }
}

/// The extracted key columns of one sort, in significance order, each with
/// its direction.
#[derive(Debug, Clone)]
pub struct SortKeys<'a> {
    keys: Vec<(KeyCol<'a>, bool)>,
}

impl<'a> SortKeys<'a> {
    /// Extract the keys for `specs` (`(column, descending)` pairs) from
    /// `table`.  Unknown columns error with the schema-listing message of
    /// [`Table::column`].
    pub fn for_columns(table: &'a Table, specs: &[(ColId, bool)]) -> RelResult<SortKeys<'a>> {
        let keys = specs
            .iter()
            .map(|&(id, descending)| Ok((KeyCol::of(table.column(id)?), descending)))
            .collect::<RelResult<Vec<_>>>()?;
        Ok(SortKeys { keys })
    }

    /// Compare rows `a` and `b` under the full composite key.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for (key, descending) in &self.keys {
            let mut ord = key.cmp_rows(a, b);
            if *descending {
                ord = ord.reverse();
            }
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The stable permutation sorting rows `0..rows` by these keys.
    pub fn stable_permutation(&self, rows: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_by(|&a, &b| self.cmp_rows(a, b));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::col;

    fn table() -> Table {
        Table::new(vec![
            (col("iter"), Column::nats(vec![2, 1, 2, 1, 1])),
            (col("item"), Column::ints(vec![30, 20, 40, 20, 10])),
            (
                col("mixed"),
                Column::items(vec![
                    Value::Int(1),
                    Value::Str("a".into()),
                    Value::Nat(1),
                    Value::Bool(true),
                    Value::Dbl(0.5),
                ]),
            ),
        ])
        .unwrap()
    }

    /// The typed comparator must agree with the Value-materializing one on
    /// every column representation, including the polymorphic item column.
    #[test]
    fn typed_cmp_matches_value_sort_key_cmp() {
        let t = table();
        for name in ["iter", "item", "mixed"] {
            let col = t.column(crate::table::col(name)).unwrap();
            let key = KeyCol::of(col);
            for a in 0..t.row_count() {
                for b in 0..t.row_count() {
                    assert_eq!(
                        key.cmp_rows(a, b),
                        col.get(a).sort_key_cmp(&col.get(b)),
                        "column {name}, rows ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn stable_permutation_matches_materializing_sort() {
        let t = table();
        let keys =
            SortKeys::for_columns(&t, &[(col("iter"), false), (col("item"), false)]).unwrap();
        let fast = keys.stable_permutation(t.row_count());
        let mut slow: Vec<usize> = (0..t.row_count()).collect();
        let a = t.column(col("iter")).unwrap();
        let b = t.column(col("item")).unwrap();
        slow.sort_by(|&x, &y| {
            a.get(x)
                .sort_key_cmp(&a.get(y))
                .then(b.get(x).sort_key_cmp(&b.get(y)))
        });
        assert_eq!(fast, slow);
    }

    #[test]
    fn descending_keys_reverse_but_stay_stable() {
        let t = table();
        let keys = SortKeys::for_columns(&t, &[(col("item"), true)]).unwrap();
        let order = keys.stable_permutation(t.row_count());
        // items: 30, 20, 40, 20, 10 → desc: 40, 30, 20, 20, 10; the two
        // 20s keep their original relative order (row 1 before row 3).
        assert_eq!(order, vec![2, 0, 1, 3, 4]);
    }

    #[test]
    fn nan_doubles_sort_last() {
        // NaN-as-equal-to-everything is intransitive and would leave the
        // sorted order to the sort algorithm; NaN-last keeps it total.
        let t = Table::new(vec![(
            col("d"),
            Column::dbls(vec![5.0, f64::NAN, 3.0, f64::NAN, 1.0, 4.0]),
        )])
        .unwrap();
        let keys = SortKeys::for_columns(&t, &[(col("d"), false)]).unwrap();
        assert_eq!(
            keys.stable_permutation(t.row_count()),
            vec![4, 2, 5, 0, 1, 3],
            "numbers first, NaNs last"
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = table();
        assert!(SortKeys::for_columns(&t, &[(col("missing"), false)]).is_err());
    }
}
