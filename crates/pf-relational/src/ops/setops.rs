//! ∪̇, \ and δ — disjoint union, difference, duplicate elimination.
//!
//! Loop-lifting's `∖` is nearly always `loop ∖ π_iter(…)` and its `δ` an
//! `iter`-keyed one: a single `Nat` column whose values are bounded by the
//! row count.  Such a key is answered by a bitset: a presence bitset over
//! the right input for `∖`, a seen-bitset for `δ`, whether or not the
//! rows are sorted, whenever the largest key is at most `4 · rows + 1024`
//! (counting both inputs' rows for `∖`, the input's for `δ`; the rule of
//! [`keys`](crate::ops::keys)).  Exact, because two `Nat`s share a
//! [`Key`](crate::ops::Key) exactly when they are equal.  Any other schema
//! — several columns, or one column that is not `Column::Nat` on both
//! sides — compares rows as tuples of borrowed [`Key`](crate::ops::Key)s,
//! which collapse `Nat`, `Int` and integral `Dbl` values as every hashed
//! kernel does.  Either way no `Value` is built and no string is cloned
//! per row, and `δ` keeps the first occurrence of every row.

use crate::error::{RelError, RelResult};
use crate::ops::keys::{first_nats, first_rows, nats_absent, rows_absent, KeyView};
use crate::table::Table;

/// ∪̇ — disjoint union.
///
/// The paper's algebra guarantees that the two inputs never contain the same
/// tuple ("all unions are disjoint"), so this is a plain concatenation; the
/// schemas must agree by name and order.
pub fn union_disjoint(left: &Table, right: &Table) -> RelResult<Table> {
    if left.column_count() == 0 {
        return Ok(right.clone());
    }
    if right.column_count() == 0 {
        return Ok(left.clone());
    }
    if left.column_names() != right.column_names() {
        return Err(RelError::new(format!(
            "union of incompatible schemas {:?} and {:?}",
            left.column_names(),
            right.column_names()
        )));
    }
    // A union with an empty side shares the other side's columns (O(1)).
    if left.row_count() == 0 {
        return Ok(right.clone());
    }
    if right.row_count() == 0 {
        return Ok(left.clone());
    }
    let mut columns = Vec::with_capacity(left.column_count());
    for ((name, lcol), (_, rcol)) in left.columns().iter().zip(right.columns()) {
        let mut col = lcol.clone();
        col.append(rcol)?;
        columns.push((name.clone(), col));
    }
    Table::new(columns)
}

/// \ — difference: the rows of `left` that do not appear in `right`
/// (comparing all columns of `left`; `right` must contain those columns).
pub fn difference(left: &Table, right: &Table) -> RelResult<Table> {
    let rcols = left
        .columns()
        .iter()
        .map(|(name, _)| right.column(name))
        .collect::<RelResult<Vec<_>>>()?;
    if let ([(_, lcol)], [rcol]) = (left.columns(), &rcols[..]) {
        if let Some(keep) = lcol
            .as_nats()
            .zip(rcol.as_nats())
            .and_then(|(lnats, rnats)| nats_absent(lnats, rnats))
        {
            return Ok(left.gather_rows(&keep));
        }
    }
    let lviews: Vec<KeyView> = left.columns().iter().map(|(_, c)| KeyView::of(c)).collect();
    let rviews: Vec<KeyView> = rcols.into_iter().map(KeyView::of).collect();
    let keep = rows_absent(
        lviews.len(),
        left.row_count(),
        |c, row| lviews[c].key(row),
        right.row_count(),
        |c, row| rviews[c].key(row),
    );
    Ok(left.gather_rows(&keep))
}

/// δ — duplicate elimination over all columns, keeping the first occurrence
/// of each distinct row (so a sorted input stays sorted).
pub fn distinct(input: &Table) -> RelResult<Table> {
    distinct_on(input, &input.column_names())
}

/// δ restricted to a subset of columns: keeps the first row of every
/// distinct combination and projects nothing away (the remaining columns of
/// the surviving row are retained).
pub fn distinct_on(input: &Table, columns: &[&str]) -> RelResult<Table> {
    let cols = columns
        .iter()
        .map(|c| input.column(c))
        .collect::<RelResult<Vec<_>>>()?;
    if let [col] = cols[..] {
        if let Some(keep) = col
            .as_nats()
            .and_then(|nats| first_nats(nats.iter().copied()))
        {
            return Ok(input.gather_rows(&keep));
        }
    }
    let views: Vec<KeyView> = cols.into_iter().map(KeyView::of).collect();
    let keep = first_rows(views.len(), input.row_count(), |c, row| views[c].key(row));
    Ok(input.gather_rows(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Value;

    fn t(iters: Vec<u64>, items: Vec<i64>) -> Table {
        Table::new(vec![
            ("iter".into(), Column::nats(iters)),
            ("item".into(), Column::ints(items)),
        ])
        .unwrap()
    }

    #[test]
    fn union_concatenates() {
        let u = union_disjoint(&t(vec![1], vec![10]), &t(vec![2], vec![20])).unwrap();
        assert_eq!(u.row_count(), 2);
        assert_eq!(u.value("item", 1).unwrap(), Value::Int(20));
    }

    #[test]
    fn union_with_empty_schema_table() {
        let u = union_disjoint(&Table::empty(), &t(vec![1], vec![10])).unwrap();
        assert_eq!(u.row_count(), 1);
        let u = union_disjoint(&t(vec![1], vec![10]), &Table::empty()).unwrap();
        assert_eq!(u.row_count(), 1);
    }

    #[test]
    fn union_with_empty_side_is_zero_copy() {
        let populated = t(vec![1, 2], vec![10, 20]);
        let empty = t(vec![], vec![]);
        let u = union_disjoint(&empty, &populated).unwrap();
        assert!(u
            .column("item")
            .unwrap()
            .shares_data(populated.column("item").unwrap()));
        let u = union_disjoint(&populated, &empty).unwrap();
        assert!(u
            .column("item")
            .unwrap()
            .shares_data(populated.column("item").unwrap()));
    }

    #[test]
    fn union_rejects_mismatched_schemas() {
        let other = Table::new(vec![("x".into(), Column::nats(vec![1]))]).unwrap();
        assert!(union_disjoint(&t(vec![1], vec![1]), &other).is_err());
    }

    #[test]
    fn difference_removes_matching_rows() {
        let d = difference(
            &t(vec![1, 2, 3], vec![10, 20, 30]),
            &t(vec![2, 9], vec![20, 90]),
        )
        .unwrap();
        assert_eq!(d.row_count(), 2);
        assert_eq!(d.value("iter", 1).unwrap(), Value::Nat(3));
    }

    #[test]
    fn difference_requires_columns_present_in_right() {
        let right = Table::new(vec![("iter".into(), Column::nats(vec![1]))]).unwrap();
        assert!(difference(&t(vec![1], vec![1]), &right).is_err());
    }

    #[test]
    fn distinct_keeps_first_occurrence() {
        let d = distinct(&t(vec![1, 1, 2, 1], vec![10, 10, 20, 10])).unwrap();
        assert_eq!(d.row_count(), 2);
        assert_eq!(d.value("iter", 0).unwrap(), Value::Nat(1));
        assert_eq!(d.value("iter", 1).unwrap(), Value::Nat(2));
    }

    fn iters(keys: Vec<u64>) -> Table {
        Table::new(vec![("iter".into(), Column::nats(keys))]).unwrap()
    }

    fn nats_of(table: &Table) -> Vec<u64> {
        table.column("iter").unwrap().as_nats().unwrap().to_vec()
    }

    /// One `Nat` column: the bitset path, unsorted or sparse alike.
    #[test]
    fn single_nat_column_difference_and_distinct() {
        let loop_ = iters(vec![5, 1, 4, 2, 3, 1]);
        let d = difference(&loop_, &iters(vec![4, 1, 4, 99])).unwrap();
        assert_eq!(nats_of(&d), vec![5, 2, 3]);
        // Sparse right side: past the density rule, same answer.
        let d = difference(&loop_, &iters(vec![4, 1, u64::MAX])).unwrap();
        assert_eq!(nats_of(&d), vec![5, 2, 3]);
        assert_eq!(nats_of(&distinct(&loop_).unwrap()), vec![5, 1, 4, 2, 3]);
        let sparse = iters(vec![u64::MAX, 3, u64::MAX, 1 << 40, 3]);
        assert_eq!(
            nats_of(&distinct(&sparse).unwrap()),
            vec![u64::MAX, 3, 1 << 40]
        );
    }

    /// A `Nat` column against an `Int` or `Item` column compares by key
    /// class: 2 (Nat), 2 (Int) and 2.0 (Dbl) are one key.
    #[test]
    fn cross_type_keys_collapse() {
        let right = Table::new(vec![(
            "iter".into(),
            Column::items(vec![Value::Int(2), Value::Dbl(3.0), Value::Dbl(4.5)]),
        )])
        .unwrap();
        let d = difference(&iters(vec![1, 2, 3, 4]), &right).unwrap();
        assert_eq!(nats_of(&d), vec![1, 4]);
        let mixed = Table::new(vec![(
            "iter".into(),
            Column::items(vec![Value::Nat(2), Value::Int(2), Value::Dbl(2.0)]),
        )])
        .unwrap();
        assert_eq!(distinct(&mixed).unwrap().row_count(), 1);
    }

    #[test]
    fn distinct_on_subset_of_columns() {
        let d = distinct_on(&t(vec![1, 1, 2], vec![10, 99, 20]), &["iter"]).unwrap();
        assert_eq!(d.row_count(), 2);
        // first row of iter=1 wins
        assert_eq!(d.value("item", 0).unwrap(), Value::Int(10));
    }
}
