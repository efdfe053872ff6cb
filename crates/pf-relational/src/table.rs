//! Tables: ordered collections of equal-length named columns.
//!
//! The loop-lifted representation of every XQuery subexpression is a table
//! with schema `iter|pos|item` (Figure 2/3 of the paper); intermediate
//! tables of the compiled plans carry additional columns (`inner`, `outer`,
//! `item1`, …).  Rows are implicitly numbered 0…n−1 — those row ids serve as
//! MonetDB's virtual OIDs.

use std::collections::HashSet;

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::value::Value;

/// Well-known column names used by the loop-lifting compilation scheme.
pub mod names {
    /// Iteration scope column.
    pub const ITER: &str = "iter";
    /// Sequence position column.
    pub const POS: &str = "pos";
    /// Item column.
    pub const ITEM: &str = "item";
    /// Inner iteration (map relation).
    pub const INNER: &str = "inner";
    /// Outer iteration (map relation).
    pub const OUTER: &str = "outer";
}

/// A relational table.
///
/// Columns are [`Arc`](std::sync::Arc)-backed, so cloning a table never
/// copies cell data — a clone costs one reference-count bump per column.
/// Operators that keep columns unchanged (projection/rename, attach, …)
/// therefore share their input's buffers with their output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    columns: Vec<(String, Column)>,
}

impl Table {
    /// Create an empty table with no columns (and no rows).
    pub fn empty() -> Self {
        Table::default()
    }

    /// Create a table from `(name, column)` pairs.  All columns must have
    /// the same length and names must be unique.
    pub fn new(columns: Vec<(String, Column)>) -> RelResult<Self> {
        if let Some(first) = columns.first() {
            let len = first.1.len();
            if columns.iter().any(|(_, c)| c.len() != len) {
                return Err(RelError::new("columns have differing lengths"));
            }
        }
        let mut seen: HashSet<&str> = HashSet::with_capacity(columns.len());
        for (name, _) in &columns {
            if !seen.insert(name.as_str()) {
                return Err(RelError::new(format!("duplicate column name `{name}`")));
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

    /// Column names in schema order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Does the table have a column called `name`?
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|(n, _)| n == name)
    }

    /// Borrow the column called `name`.
    pub fn column(&self, name: &str) -> RelResult<&Column> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| {
                RelError::unknown_column(name, self.columns.iter().map(|(n, _)| n.as_str()))
            })
    }

    /// All `(name, column)` pairs.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.columns
    }

    /// Add a column; its length must match the current row count (unless the
    /// table has no columns yet).
    pub fn add_column(&mut self, name: impl Into<String>, column: Column) -> RelResult<()> {
        let name = name.into();
        if self.has_column(&name) {
            return Err(RelError::new(format!("duplicate column name `{name}`")));
        }
        if !self.columns.is_empty() && column.len() != self.row_count() {
            return Err(RelError::new(format!(
                "column `{name}` has {} rows, table has {}",
                column.len(),
                self.row_count()
            )));
        }
        self.columns.push((name, column));
        Ok(())
    }

    /// Read the cell at (`row`, `column`).
    pub fn value(&self, column: &str, row: usize) -> RelResult<Value> {
        Ok(self.column(column)?.get(row))
    }

    /// Materialize one row as `(name, value)` pairs (debugging, tracing).
    pub fn row(&self, row: usize) -> Vec<(String, Value)> {
        self.columns
            .iter()
            .map(|(n, c)| (n.clone(), c.get(row)))
            .collect()
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
                .map(|(n, c)| (n.clone(), c.gather(rows)))
                .collect(),
        }
    }

    /// Convenience constructor for the ubiquitous `iter|pos|item` tables.
    pub fn iter_pos_item(iters: Vec<u64>, poss: Vec<u64>, items: Vec<Value>) -> RelResult<Table> {
        Table::new(vec![
            (names::ITER.to_string(), Column::nats(iters)),
            (names::POS.to_string(), Column::nats(poss)),
            (names::ITEM.to_string(), Column::from_values(items)),
        ])
    }

    /// Render the table as an aligned ASCII grid — used by the plan tracer
    /// ("Relational plans may be traced to reveal the result computed for
    /// any subexpression", Section 4).
    pub fn to_ascii(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|(n, _)| n.clone()).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

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
            ("a".into(), Column::nats(vec![1, 2])),
            ("b".into(), Column::nats(vec![1])),
        ])
        .is_err());
        assert!(Table::new(vec![
            ("a".into(), Column::nats(vec![1])),
            ("a".into(), Column::nats(vec![2])),
        ])
        .is_err());
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column_count(), 3);
        assert_eq!(t.column_names(), vec!["iter", "pos", "item"]);
        assert_eq!(t.value("item", 2).unwrap(), Value::Int(30));
        assert!(t.value("nope", 0).is_err());
        assert!(t.has_column("pos"));
    }

    #[test]
    fn add_column_validates() {
        let mut t = sample();
        assert!(t.add_column("iter", Column::nats(vec![1, 2, 3])).is_err());
        assert!(t.add_column("extra", Column::nats(vec![1])).is_err());
        assert!(t.add_column("extra", Column::nats(vec![1, 2, 3])).is_ok());
        assert_eq!(t.column_count(), 4);
    }

    #[test]
    fn gather_rows_reorders() {
        let t = sample();
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.row_count(), 2);
        assert_eq!(g.value("item", 0).unwrap(), Value::Int(30));
        assert_eq!(g.value("item", 1).unwrap(), Value::Int(10));
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
