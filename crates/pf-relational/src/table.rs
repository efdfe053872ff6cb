//! Tables: ordered collections of equal-length columns, each under a
//! [`ColId`].
//!
//! The loop-lifted representation of every XQuery subexpression is a table
//! with schema `iter|pos|item` (Figure 2/3 of the paper); intermediate
//! tables of the compiled plans carry additional columns (`inner`, `outer`,
//! `item1`, …).  A column is addressed by its plan-wide id, as MonetDB
//! addresses a BAT; the names live once, in the plan that numbered them.
//! Rows are implicitly numbered 0…n−1 — those row ids serve as MonetDB's
//! virtual OIDs.

use std::fmt;

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::value::Value;

/// A column: an index into the name table of the plan that numbered it.
/// The well-known columns of the loop-lifting scheme have fixed ids, the
/// first entries of every name table ([`ColId::WELL_KNOWN`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ColId(pub u32);

impl ColId {
    /// Iteration scope column.
    pub const ITER: ColId = ColId(0);
    /// Sequence position column.
    pub const POS: ColId = ColId(1);
    /// Item column.
    pub const ITEM: ColId = ColId(2);
    /// Inner iteration (map relation).
    pub const INNER: ColId = ColId(3);
    /// Outer iteration (map relation).
    pub const OUTER: ColId = ColId(4);
    /// The names of the well-known columns, by id.
    pub const WELL_KNOWN: [&'static str; 5] = ["iter", "pos", "item", "inner", "outer"];
}

impl fmt::Display for ColId {
    /// The name of a well-known column, `#k` for any other: only the plan
    /// that numbered a column knows its name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match ColId::WELL_KNOWN.get(self.0 as usize) {
            Some(name) => f.write_str(name),
            None => write!(f, "#{}", self.0),
        }
    }
}

/// A relational table.
///
/// Columns are [`Arc`](std::sync::Arc)-backed, so cloning a table never
/// copies cell data — a clone costs one reference-count bump per column.
/// Operators that keep columns unchanged (projection/rename, attach, …)
/// therefore share their input's buffers with their output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    columns: Vec<(ColId, Column)>,
}

impl Table {
    /// Create an empty table with no columns (and no rows).
    pub fn empty() -> Self {
        Table::default()
    }

    /// Create a table from `(id, column)` pairs.  All columns must have
    /// the same length and ids must be unique.
    pub fn new(columns: Vec<(ColId, Column)>) -> RelResult<Self> {
        if let Some(first) = columns.first() {
            let len = first.1.len();
            if columns.iter().any(|(_, c)| c.len() != len) {
                return Err(RelError::new("columns have differing lengths"));
            }
        }
        for (i, (id, _)) in columns.iter().enumerate() {
            if columns[..i].iter().any(|(other, _)| other == id) {
                return Err(RelError::new(format!("duplicate column `{id}`")));
            }
        }
        Ok(Table { columns })
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.len())
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column ids in schema order.
    pub fn column_ids(&self) -> Vec<ColId> {
        self.columns.iter().map(|&(id, _)| id).collect()
    }

    /// Does the table have column `id`?
    pub fn has_column(&self, id: ColId) -> bool {
        self.columns.iter().any(|&(c, _)| c == id)
    }

    /// Borrow column `id`.
    pub fn column(&self, id: ColId) -> RelResult<&Column> {
        self.columns
            .iter()
            .find(|&&(c, _)| c == id)
            .map(|(_, c)| c)
            .ok_or_else(|| RelError::unknown_column(id, self.columns.iter().map(|&(c, _)| c)))
    }

    /// All `(id, column)` pairs.
    pub fn columns(&self) -> &[(ColId, Column)] {
        &self.columns
    }

    /// Add a column; its length must match the current row count (unless the
    /// table has no columns yet).
    pub fn add_column(&mut self, id: ColId, column: Column) -> RelResult<()> {
        if self.has_column(id) {
            return Err(RelError::new(format!("duplicate column `{id}`")));
        }
        if !self.columns.is_empty() && column.len() != self.row_count() {
            return Err(RelError::new(format!(
                "column `{id}` has {} rows, table has {}",
                column.len(),
                self.row_count()
            )));
        }
        self.columns.push((id, column));
        Ok(())
    }

    /// Read the cell at (`row`, `column`).
    pub fn value(&self, column: ColId, row: usize) -> RelResult<Value> {
        Ok(self.column(column)?.get(row))
    }

    /// Build a new table containing only the given rows (in the given
    /// order) of this table.
    ///
    /// When `rows` is the identity permutation (every row, in order) the
    /// result shares this table's column buffers instead of copying them —
    /// selections and sorts that keep everything in place are zero-copy.
    pub fn gather_rows(&self, rows: &[usize]) -> Table {
        if rows.len() == self.row_count() && rows.iter().enumerate().all(|(i, &r)| i == r) {
            return self.clone();
        }
        Table {
            columns: self
                .columns
                .iter()
                .map(|&(id, ref c)| (id, c.gather(rows)))
                .collect(),
        }
    }

    /// Convenience constructor for the ubiquitous `iter|pos|item` tables.
    pub fn iter_pos_item(iters: Vec<u64>, poss: Vec<u64>, items: Vec<Value>) -> RelResult<Table> {
        Table::new(vec![
            (ColId::ITER, Column::nats(iters)),
            (ColId::POS, Column::nats(poss)),
            (ColId::ITEM, Column::from_values(items)),
        ])
    }

    /// Render the table as an aligned ASCII grid — used by the plan tracer
    /// ("Relational plans may be traced to reveal the result computed for
    /// any subexpression", Section 4).
    pub fn to_ascii(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|(id, _)| id.to_string()).collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.row_count());
        for r in 0..self.row_count() {
            rows.push(
                self.columns
                    .iter()
                    .map(|(_, c)| c.get(r).to_xdm_string())
                    .collect(),
            );
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Test helper: the well-known id of a well-known name, a fixed id
/// derived from the name otherwise.
#[cfg(test)]
pub(crate) fn col(name: &str) -> ColId {
    match ColId::WELL_KNOWN.iter().position(|&n| n == name) {
        Some(i) => ColId(i as u32),
        None => ColId(
            name.bytes()
                .fold(5u32, |h, b| h.wrapping_mul(31).wrapping_add(u32::from(b)))
                % 1_000_000
                + 5,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ColId = ColId(10);
    const B: ColId = ColId(11);
    const EXTRA: ColId = ColId(12);

    fn sample() -> Table {
        Table::iter_pos_item(
            vec![1, 1, 2],
            vec![1, 2, 1],
            vec![Value::Int(10), Value::Int(20), Value::Int(30)],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths_and_names() {
        assert!(Table::new(vec![
            (A, Column::nats(vec![1, 2])),
            (B, Column::nats(vec![1])),
        ])
        .is_err());
        assert!(Table::new(vec![(A, Column::nats(vec![1])), (A, Column::nats(vec![2])),]).is_err());
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 3);
        assert_eq!(t.column_ids(), vec![ColId::ITER, ColId::POS, ColId::ITEM]);
        assert_eq!(t.value(ColId::ITEM, 2).unwrap(), Value::Int(30));
        assert!(t.value(EXTRA, 0).is_err());
        assert!(t.has_column(ColId::POS));
    }

    #[test]
    fn add_column_validates() {
        let mut t = sample();
        assert!(t
            .add_column(ColId::ITER, Column::nats(vec![1, 2, 3]))
            .is_err());
        assert!(t.add_column(EXTRA, Column::nats(vec![1])).is_err());
        assert!(t.add_column(EXTRA, Column::nats(vec![1, 2, 3])).is_ok());
        assert_eq!(t.column_count(), 4);
    }

    #[test]
    fn gather_rows_reorders() {
        let t = sample();
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.row_count(), 2);
        assert_eq!(g.value(ColId::ITEM, 0).unwrap(), Value::Int(30));
        assert_eq!(g.value(ColId::ITEM, 1).unwrap(), Value::Int(10));
    }

    #[test]
    fn ascii_rendering_contains_all_cells() {
        let t = sample();
        let ascii = t.to_ascii();
        assert!(ascii.contains("iter"));
        assert!(ascii.contains("30"));
        assert_eq!(ascii.lines().count(), 2 + 3);
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.column_count(), 0);
    }
}
