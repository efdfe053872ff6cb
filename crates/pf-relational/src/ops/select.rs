//! σ — row selection.

use crate::error::RelResult;
use crate::table::{ColId, Table};
use crate::value::Value;

/// Select the rows for which `predicate` returns `true`.  The predicate
/// receives the row index and may inspect any column of `input`.
pub fn select_by<F>(input: &Table, predicate: F) -> RelResult<Table>
where
    F: Fn(usize) -> RelResult<bool>,
{
    let mut keep = Vec::new();
    for row in 0..input.row_count() {
        if predicate(row)? {
            keep.push(row);
        }
    }
    Ok(input.gather_rows(&keep))
}

/// σ over a boolean column: keep the rows where `column` is `true` — the
/// form the compiled plans use after a comparison operator materialized its
/// result column.
pub fn select_true(input: &Table, column: ColId) -> RelResult<Table> {
    let col = input.column(column)?.clone();
    select_by(input, |row| col.get(row).as_bool())
}

/// σ with an equality constant predicate (`column = value`).
pub fn select_eq(input: &Table, column: ColId, value: &Value) -> RelResult<Table> {
    let col = input.column(column)?.clone();
    select_by(input, |row| Ok(col.get(row) == *value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::col;

    fn table() -> Table {
        Table::new(vec![
            (col("iter"), Column::nats(vec![1, 2, 3])),
            (col("flag"), Column::bools(vec![true, false, true])),
            (col("item"), Column::ints(vec![10, 20, 30])),
        ])
        .unwrap()
    }

    #[test]
    fn select_true_keeps_matching_rows() {
        let t = select_true(&table(), col("flag")).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(col("item"), 1).unwrap(), Value::Int(30));
    }

    #[test]
    fn select_eq_on_constant() {
        let t = select_eq(&table(), col("item"), &Value::Int(20)).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(col("iter"), 0).unwrap(), Value::Nat(2));
    }

    #[test]
    fn select_by_arbitrary_predicate() {
        let src = table();
        let t = select_by(&src, |row| {
            Ok(src.value(col("item"), row)? == Value::Int(10))
        })
        .unwrap();
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn select_true_requires_boolean_column() {
        assert!(select_true(&table(), col("item")).is_err());
        assert!(select_true(&table(), col("missing")).is_err());
    }

    #[test]
    fn selection_keeping_every_row_is_zero_copy() {
        let src = table();
        let all = select_by(&src, |_| Ok(true)).unwrap();
        // The identity gather shares the input buffers.
        assert!(all
            .column(col("item"))
            .unwrap()
            .shares_data(src.column(col("item")).unwrap()));
    }

    #[test]
    fn empty_selection_preserves_schema() {
        let t = select_eq(&table(), col("item"), &Value::Int(99)).unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column_ids(), vec![col("iter"), col("flag"), col("item")]);
    }
}
