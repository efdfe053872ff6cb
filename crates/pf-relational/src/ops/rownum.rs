//! % — the row-numbering operator.
//!
//! "A row-numbering operator % is provided by many existing RDBMSs, e.g., in
//! terms of MonetDB's `mark` operator, or the `DENSE_RANK()` function in
//! SQL:1999."  Loop lifting uses it to (a) generate new `iter` values when a
//! `for` loop opens a new scope and (b) to restore sequence `pos` values
//! when results are mapped back to an outer scope (the `%pos1:⟨iter,pos⟩/outer`
//! node in Figure 5).
//!
//! There is **one** numbering kernel, [`row_number_by`], shared by the
//! relational layer and the plan executor: it supports descending keys and
//! sorts via the typed [`SortKeys`]
//! comparator (keys are extracted once; comparisons never materialize
//! [`Value`](crate::value::Value)s).  The sort permutation can also be
//! computed elsewhere and handed to [`row_number_permuted`], which applies
//! the numbering; both entry points produce bit-identical tables for the
//! same logical order.

use crate::column::Column;
use crate::error::RelResult;
use crate::ops::sortkeys::{KeyCol, SortKeys};
use crate::table::{ColId, Table};

/// One ordering key of a row numbering: a column and its direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderSpec {
    /// The key column.
    pub column: ColId,
    /// `true` for descending order.
    pub descending: bool,
}

impl OrderSpec {
    /// An ascending key.
    pub fn asc(column: ColId) -> OrderSpec {
        OrderSpec {
            column,
            descending: false,
        }
    }

    /// A descending key.
    pub fn desc(column: ColId) -> OrderSpec {
        OrderSpec {
            column,
            descending: true,
        }
    }
}

/// The `(column, descending)` sort specification of a row numbering: the
/// partition column (always ascending) first, then the order keys.
pub fn sort_spec(order_by: &[OrderSpec], partition_by: Option<ColId>) -> Vec<(ColId, bool)> {
    let mut specs = Vec::with_capacity(order_by.len() + 1);
    if let Some(p) = partition_by {
        specs.push((p, false));
    }
    specs.extend(order_by.iter().map(|s| (s.column, s.descending)));
    specs
}

/// Append a 1-based numbering column `target`.
///
/// Rows are numbered in the order given by `order_by` (ties keep their
/// current relative order — the sort is stable).  If `partition_by` is
/// given, numbering restarts at 1 within every partition.  The output rows
/// are re-ordered to the sort order used for numbering, which is what the
/// compiled plans expect (they immediately consume the numbering as the new
/// `iter` or `pos` column).
pub fn row_number_by(
    input: &Table,
    target: ColId,
    order_by: &[OrderSpec],
    partition_by: Option<ColId>,
) -> RelResult<Table> {
    let specs = sort_spec(order_by, partition_by);
    let keys = SortKeys::for_columns(input, &specs)?;
    let order = keys.stable_permutation(input.row_count());
    row_number_permuted(input, target, partition_by, &order)
}

/// Ascending-only convenience wrapper around [`row_number_by`].
pub fn row_number(
    input: &Table,
    target: ColId,
    order_by: &[ColId],
    partition_by: Option<ColId>,
) -> RelResult<Table> {
    let specs: Vec<OrderSpec> = order_by.iter().map(|&c| OrderSpec::asc(c)).collect();
    row_number_by(input, target, &specs, partition_by)
}

/// Apply a row numbering given a pre-computed sort permutation (`order`
/// must be the stable permutation for the [`sort_spec`] of this
/// numbering).  Gathers the rows into sort order, then numbers them —
/// restarting at each partition boundary, detected with the typed
/// [`KeyCol`] comparator, so no per-row key values are materialized.
pub fn row_number_permuted(
    input: &Table,
    target: ColId,
    partition_by: Option<ColId>,
    order: &[usize],
) -> RelResult<Table> {
    if let Some(p) = partition_by {
        input.column(p)?;
    }
    let sorted = input.gather_rows(order);
    let rows = sorted.row_count();
    let mut numbering: Vec<u64> = Vec::with_capacity(rows);
    match partition_by {
        None => numbering.extend(1..=rows as u64),
        Some(p) => {
            let key = KeyCol::of(sorted.column(p)?);
            let mut counter = 0u64;
            for row in 0..rows {
                if row == 0 || !key.rows_equal(row - 1, row) {
                    counter = 0;
                }
                counter += 1;
                numbering.push(counter);
            }
        }
    }
    let mut out = sorted;
    out.add_column(target, Column::nats(numbering))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::col;
    use crate::value::Value;

    fn table() -> Table {
        Table::new(vec![
            (col("iter"), Column::nats(vec![2, 1, 2, 1])),
            (col("pos"), Column::nats(vec![1, 2, 2, 1])),
            (col("item"), Column::ints(vec![30, 20, 40, 10])),
        ])
        .unwrap()
    }

    #[test]
    fn global_numbering_follows_order_by() {
        let t = row_number(&table(), col("rank"), &[col("item")], None).unwrap();
        let ranks: Vec<u64> = (0..4)
            .map(|r| t.value(col("rank"), r).unwrap().as_nat().unwrap())
            .collect();
        assert_eq!(ranks, vec![1, 2, 3, 4]);
        assert_eq!(t.value(col("item"), 0).unwrap(), Value::Int(10));
        assert_eq!(t.value(col("item"), 3).unwrap(), Value::Int(40));
    }

    #[test]
    fn partitioned_numbering_restarts_per_group() {
        let t = row_number(&table(), col("pos1"), &[col("pos")], Some(col("iter"))).unwrap();
        // Partitions are grouped; numbering 1..k within each iter.
        let mut by_iter: Vec<(u64, u64)> = (0..4)
            .map(|r| {
                (
                    t.value(col("iter"), r).unwrap().as_nat().unwrap(),
                    t.value(col("pos1"), r).unwrap().as_nat().unwrap(),
                )
            })
            .collect();
        by_iter.sort_unstable();
        assert_eq!(by_iter, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn numbering_generates_new_scope_iters() {
        // The "for $v in (10,20)" pattern: numbering over (iter, pos) yields
        // the per-binding iteration numbers of Figure 3(b).
        let t = Table::iter_pos_item(vec![1, 1], vec![1, 2], vec![Value::Int(10), Value::Int(20)])
            .unwrap();
        let t = row_number(&t, col("inner"), &[col("iter"), col("pos")], None).unwrap();
        assert_eq!(t.value(col("inner"), 0).unwrap(), Value::Nat(1));
        assert_eq!(t.value(col("inner"), 1).unwrap(), Value::Nat(2));
    }

    #[test]
    fn descending_keys_number_from_the_top() {
        let t = row_number_by(
            &table(),
            col("rank"),
            &[OrderSpec::desc(col("item"))],
            Some(col("iter")),
        )
        .unwrap();
        // Within iter 1: 20 before 10; within iter 2: 40 before 30.
        let rows: Vec<(u64, i64, u64)> = (0..4)
            .map(|r| {
                (
                    t.value(col("iter"), r).unwrap().as_nat().unwrap(),
                    match t.value(col("item"), r).unwrap() {
                        Value::Int(i) => i,
                        other => panic!("unexpected {other}"),
                    },
                    t.value(col("rank"), r).unwrap().as_nat().unwrap(),
                )
            })
            .collect();
        assert_eq!(rows, vec![(1, 20, 1), (1, 10, 2), (2, 40, 1), (2, 30, 2)]);
    }

    #[test]
    fn permuted_entry_matches_the_direct_kernel() {
        let t = table();
        let order_by = [OrderSpec::asc(col("pos"))];
        let direct = row_number_by(&t, col("n"), &order_by, Some(col("iter"))).unwrap();
        let specs = sort_spec(&order_by, Some(col("iter")));
        let keys = SortKeys::for_columns(&t, &specs).unwrap();
        let order = keys.stable_permutation(t.row_count());
        let permuted = row_number_permuted(&t, col("n"), Some(col("iter")), &order).unwrap();
        assert_eq!(direct, permuted);
    }

    #[test]
    fn unknown_columns_are_rejected() {
        assert!(row_number(&table(), col("r"), &[col("missing")], None).is_err());
        assert!(row_number(&table(), col("r"), &[col("item")], Some(col("missing"))).is_err());
    }

    #[test]
    fn empty_input() {
        let t = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        let t = row_number(&t, col("n"), &[col("pos")], Some(col("iter"))).unwrap();
        assert_eq!(t.row_count(), 0);
        assert!(t.has_column(col("n")));
    }
}
