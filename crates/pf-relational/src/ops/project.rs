//! π — column projection and renaming.

use crate::error::RelResult;
use crate::table::{ColId, Table};

/// Project (and rename) columns: each `(source, target)` pair copies column
/// `source` of `input` into the output under `target`.
///
/// As in the paper's algebra, π performs **no duplicate elimination** — that
/// restriction is one of the properties the optimizer exploits.  A source
/// column may be projected more than once under different names (the
/// compiled plans use this to duplicate `iter` into `inner`/`outer`).
pub fn project(input: &Table, columns: &[(ColId, ColId)]) -> RelResult<Table> {
    let mut out = Vec::with_capacity(columns.len());
    for &(source, target) in columns {
        out.push((target, input.column(source)?.clone()));
    }
    Table::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::col;
    use crate::value::Value;

    #[test]
    fn projects_and_renames() {
        let t = Table::iter_pos_item(vec![1, 2], vec![1, 1], vec![Value::Int(5), Value::Int(6)])
            .unwrap();
        let p = project(&t, &[(col("item"), col("res")), (col("iter"), col("iter"))]).unwrap();
        assert_eq!(p.column_ids(), vec![col("res"), col("iter")]);
        assert_eq!(p.value(col("res"), 1).unwrap(), Value::Int(6));
    }

    #[test]
    fn duplicating_a_column_is_allowed() {
        let t = Table::iter_pos_item(vec![1], vec![1], vec![Value::Int(5)]).unwrap();
        let p = project(
            &t,
            &[(col("iter"), col("inner")), (col("iter"), col("outer"))],
        )
        .unwrap();
        assert_eq!(p.column_ids(), vec![col("inner"), col("outer")]);
        assert_eq!(
            p.value(col("inner"), 0).unwrap(),
            p.value(col("outer"), 0).unwrap()
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = Table::iter_pos_item(vec![1], vec![1], vec![Value::Int(5)]).unwrap();
        assert!(project(&t, &[(col("nope"), col("x"))]).is_err());
    }

    #[test]
    fn projection_shares_input_buffers() {
        let t = Table::iter_pos_item(vec![1, 2], vec![1, 1], vec![Value::Int(5), Value::Int(6)])
            .unwrap();
        let p = project(
            &t,
            &[
                (col("iter"), col("inner")),
                (col("iter"), col("outer")),
                (col("item"), col("item")),
            ],
        )
        .unwrap();
        // π is a pure column-keeping operator: every output column is the
        // input buffer under a new name, not a copy.
        assert!(p
            .column(col("inner"))
            .unwrap()
            .shares_data(t.column(col("iter")).unwrap()));
        assert!(p
            .column(col("outer"))
            .unwrap()
            .shares_data(t.column(col("iter")).unwrap()));
        assert!(p
            .column(col("item"))
            .unwrap()
            .shares_data(t.column(col("item")).unwrap()));
    }

    #[test]
    fn projection_does_not_eliminate_duplicates() {
        let t = Table::iter_pos_item(vec![1, 1], vec![1, 2], vec![Value::Int(5), Value::Int(5)])
            .unwrap();
        let p = project(&t, &[(col("item"), col("item"))]).unwrap();
        assert_eq!(p.row_count(), 2);
    }
}
