//! Fused operator pipelines — vectorized chains without intermediates.
//!
//! The loop-lifted plans are dominated by long chains of cheap operators
//! (π, σ, attach, ⊙) whose results feed exactly one consumer.  Interpreting
//! such a chain one operator at a time allocates a full table per link;
//! the MonetDB backend of the paper avoids this because its BAT kernels
//! stream into one another (the same observation that drives MonetDB/X100's
//! vectorized pipelines and HyPer-style operator fusion).  [`run_pipeline`]
//! is the reproduction's fused kernel: it evaluates a whole chain of
//! [`FusedStep`]s over the input table's columns with **zero intermediate
//! [`Table`] allocations** and at most one gather pass per surviving shared
//! column at the very end.
//!
//! Execution model: the kernel maintains a *virtual table* — a schema of
//! named column slots plus one selection vector.  Untouched input columns
//! stay *shared* slots (an `Arc` handle onto the input buffer, indexed
//! through the selection vector); columns computed by ⊙ / attach steps are
//! *dense* value vectors aligned to the current selection.  Selections
//! never copy column data — they shrink the selection vector and compact
//! the dense slots.  Only the final materialization step builds a real
//! [`Table`], gathering each shared column once (or handing the input
//! buffer through untouched when every row survived).
//!
//! The kernel reproduces the unfused operator semantics *exactly* — same
//! values, same row order, same errors (including the schema-listing
//! unknown-column message of [`Table::column`], via
//! [`RelError::unknown_column`]) — so a fused and an unfused execution of
//! the same chain are indistinguishable from the outside.  All failure
//! paths surface as [`RelResult`] errors; the kernel has no panic paths on
//! malformed input.

use std::rc::Rc;

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::ops::keys::{first_nats, first_rows, KeyView};
use crate::ops::map::{apply_binary, apply_unary, BinaryOp, SubstringMemo, UnaryOp};
use crate::table::Table;
use crate::value::Value;

/// One fused operator of a pipeline, in execution order.
///
/// These mirror the fusable subset of the logical algebra: the unary,
/// cardinality-preserving-or-reducing operators whose output feeds a single
/// consumer.  Everything else (joins, row numbering, sorts, aggregates,
/// node constructors, …) is a pipeline breaker and never appears here.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedStep {
    /// π — keep/rename columns (`(source, target)` pairs).
    Project {
        /// `(source, target)` column pairs.
        columns: Vec<(String, String)>,
    },
    /// σ over a boolean column.
    SelectTrue {
        /// Boolean column to filter on.
        column: String,
    },
    /// σ with an equality-to-constant predicate.
    SelectEq {
        /// Column compared against the constant.
        column: String,
        /// The constant.
        value: Value,
    },
    /// Attach a constant column.
    Attach {
        /// New column name.
        target: String,
        /// The constant value.
        value: Value,
    },
    /// Unary ⊙ — append `target` = `op(source)`.
    MapUnary {
        /// Result column name.
        target: String,
        /// The operator.
        op: UnaryOp,
        /// Operand column.
        source: String,
    },
    /// Binary ⊙ — append `target` = `left op right`.
    MapBinary {
        /// Result column name.
        target: String,
        /// Left operand column.
        left: String,
        /// The operator.
        op: BinaryOp,
        /// Right operand column.
        right: String,
    },
    /// Atomization (`fn:data` / `fn:string`): replace `column` with the
    /// atomized value of each row (nodes become their string value,
    /// atomics pass through), leaving every other column untouched.
    MapAtomize {
        /// The column to atomize in place.
        column: String,
    },
    /// δ — duplicate elimination over all (current) columns, keeping the
    /// first occurrence of each distinct row.  A pure selection-vector
    /// pass, like σ.
    Distinct,
}

impl FusedStep {
    /// Short symbol used by plan renderers and profiles.
    pub fn symbol(&self) -> String {
        match self {
            FusedStep::Project { columns } => format!("π[{}]", columns.len()),
            FusedStep::SelectTrue { column } => format!("σ[{column}]"),
            FusedStep::SelectEq { column, value } => format!("σ[{column}={value}]"),
            FusedStep::Attach { target, .. } => format!("@{target}"),
            FusedStep::MapUnary { target, op, .. } => format!("⊙{target}:{op:?}"),
            FusedStep::MapBinary { target, op, .. } => format!("⊙{target}:{op:?}"),
            FusedStep::MapAtomize { column } => format!("data({column})"),
            FusedStep::Distinct => "δ".to_string(),
        }
    }
}

/// A named column slot of the virtual table.
#[derive(Debug, Clone)]
enum Slot {
    /// A (shared handle onto a) full-length input column, indexed through
    /// the selection vector.
    Shared(Column),
    /// A computed column, aligned to the current selection.  `Rc`-backed
    /// so a projection duplicating or renaming a computed column is a
    /// reference-count bump, not a value copy (the dense analogue of the
    /// `Arc` sharing `Column` clones get).
    Dense(Rc<Vec<Value>>),
}

/// The kernel's in-flight state: named slots + one selection vector over
/// the pipeline input's row space (`None` = all rows live).
#[derive(Debug)]
struct VirtualTable {
    cols: Vec<(String, Slot)>,
    sel: Option<Vec<usize>>,
    input_rows: usize,
}

impl VirtualTable {
    fn new(input: &Table) -> Self {
        VirtualTable {
            cols: input
                .columns()
                .iter()
                .map(|(n, c)| (n.clone(), Slot::Shared(c.clone())))
                .collect(),
            sel: None,
            input_rows: input.row_count(),
        }
    }

    /// Number of rows currently live.
    fn live_rows(&self) -> usize {
        self.sel.as_ref().map_or(self.input_rows, Vec::len)
    }

    /// Resolve a column name to its slot index, with the same
    /// schema-listing error as [`Table::column`].
    fn col_index(&self, name: &str) -> RelResult<usize> {
        self.cols
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| {
                RelError::unknown_column(name, self.cols.iter().map(|(n, _)| n.as_str()))
            })
    }

    /// The value of slot `col` at live-row position `at`.
    fn get(&self, col: usize, at: usize) -> Value {
        match &self.cols[col].1 {
            Slot::Shared(c) => {
                let row = self.sel.as_ref().map_or(at, |s| s[at]);
                c.get(row)
            }
            Slot::Dense(v) => v[at].clone(),
        }
    }

    /// δ's selection: the live-row positions of the first occurrence of
    /// every distinct row, compared like [`super::distinct`] compares —
    /// a seen-bitset for one dense `Nat` column, borrowed key tuples
    /// otherwise.
    fn first_occurrences(&self) -> Vec<usize> {
        let sel = self.sel.as_deref();
        if let [(_, Slot::Shared(Column::Nat(nats)))] = &self.cols[..] {
            let dense = match sel {
                None => first_nats(nats.iter().copied()),
                Some(sel) => first_nats(sel.iter().map(|&row| nats[row])),
            };
            if let Some(keep) = dense {
                return keep;
            }
        }
        // Shared slots are indexed through the selection, dense slots by
        // live-row position.
        let views: Vec<(KeyView, Option<&[usize]>)> = self
            .cols
            .iter()
            .map(|(_, slot)| match slot {
                Slot::Shared(c) => (KeyView::of(c), sel),
                Slot::Dense(values) => (KeyView::Item(values), None),
            })
            .collect();
        first_rows(views.len(), self.live_rows(), |c, at| {
            let (view, sel) = views[c];
            view.key(sel.map_or(at, |sel| sel[at]))
        })
    }

    /// Append a computed column, rejecting duplicate names exactly like
    /// [`Table::add_column`].
    fn push_dense(&mut self, name: &str, values: Vec<Value>) -> RelResult<()> {
        if self.cols.iter().any(|(n, _)| n == name) {
            return Err(RelError::new(format!("duplicate column name `{name}`")));
        }
        self.cols
            .push((name.to_string(), Slot::Dense(Rc::new(values))));
        Ok(())
    }

    /// Restrict the live rows to the given positions (indices into the
    /// current live-row space, strictly increasing): shrink the selection
    /// vector and compact every dense slot.  A selection that keeps every
    /// live row is a no-op.
    fn restrict(&mut self, keep: Vec<usize>) {
        if keep.len() == self.live_rows() {
            return;
        }
        for (_, slot) in &mut self.cols {
            if let Slot::Dense(values) = slot {
                *values = Rc::new(keep.iter().map(|&i| values[i].clone()).collect());
            }
        }
        self.sel = Some(match self.sel.take() {
            None => keep,
            Some(sel) => keep.iter().map(|&i| sel[i]).collect(),
        });
    }

    /// Materialize the result table: gather each surviving shared column
    /// through the selection vector once (zero-copy when every row
    /// survived), turn dense slots into typed columns.
    fn finish(mut self) -> RelResult<Table> {
        // An identity selection (every input row survived, in order) is the
        // same as no selection: hand the shared buffers through untouched,
        // matching the unfused σ's zero-copy identity gather.
        if let Some(sel) = &self.sel {
            if sel.len() == self.input_rows && sel.iter().enumerate().all(|(i, &r)| i == r) {
                self.sel = None;
            }
        }
        let sel = self.sel;
        let columns = self
            .cols
            .into_iter()
            .map(|(name, slot)| {
                let column = match slot {
                    Slot::Shared(c) => match &sel {
                        None => c,
                        Some(rows) => c.gather(rows),
                    },
                    Slot::Dense(values) => Column::from_values(
                        Rc::try_unwrap(values).unwrap_or_else(|shared| (*shared).clone()),
                    ),
                };
                (name, column)
            })
            .collect();
        Table::new(columns)
    }
}

/// Evaluate a whole pipeline of [`FusedStep`]s over `input`.
///
/// `atomize` is the engine's atomization hook (nodes → their string value);
/// ⊙ steps apply it to their operands exactly as the unfused interpreter
/// does — including the special case that node-to-node *comparisons* see
/// the node references themselves (identity / document-order comparisons),
/// not their atomized string values.  Pass the identity function to get the
/// plain [`super::map_binary`] / [`super::map_unary`] semantics.
///
/// The result is row- and value-identical to interpreting the same chain
/// one operator at a time; no intermediate [`Table`] is ever allocated.
pub fn run_pipeline(
    input: &Table,
    steps: &[FusedStep],
    atomize: &mut dyn FnMut(&Value) -> Value,
) -> RelResult<Table> {
    let mut vt = VirtualTable::new(input);
    apply_steps(&mut vt, steps, atomize)?;
    vt.finish()
}

/// Is every step of this pipeline row-local, i.e. may the pipeline be
/// evaluated over disjoint input-row chunks whose outputs concatenate to
/// the whole-input result?  Selections, projections, attaches and maps
/// qualify; δ does not (duplicate elimination needs to see every row).
pub fn steps_chunkable(steps: &[FusedStep]) -> bool {
    !steps.iter().any(|s| matches!(s, FusedStep::Distinct))
}

/// Evaluate a pipeline over the input rows `rows.start..rows.end` only —
/// the **morsel body** of a chunked pipeline evaluation.  For a
/// [`steps_chunkable`] pipeline, concatenating the chunk outputs in range
/// order reproduces [`run_pipeline`] over the whole input row for row
/// (chunks are processed independently, so a worker pool may evaluate them
/// concurrently; every error a chunk can hit, the whole-input run hits
/// too).
pub fn run_pipeline_range(
    input: &Table,
    steps: &[FusedStep],
    rows: std::ops::Range<usize>,
    atomize: &mut dyn FnMut(&Value) -> Value,
) -> RelResult<Table> {
    debug_assert!(rows.end <= input.row_count());
    let mut vt = VirtualTable::new(input);
    vt.sel = Some(rows.collect());
    apply_steps(&mut vt, steps, atomize)?;
    vt.finish()
}

/// The shared interpreter loop of [`run_pipeline`] / [`run_pipeline_range`].
fn apply_steps(
    vt: &mut VirtualTable,
    steps: &[FusedStep],
    atomize: &mut dyn FnMut(&Value) -> Value,
) -> RelResult<()> {
    for step in steps {
        match step {
            FusedStep::Project { columns } => {
                let mut projected = Vec::with_capacity(columns.len());
                for (source, target) in columns {
                    let idx = vt.col_index(source)?;
                    projected.push((target.clone(), vt.cols[idx].1.clone()));
                }
                // π targets must be unique — same check, same error as
                // `Table::new` performs on the unfused path.
                for (i, (name, _)) in projected.iter().enumerate() {
                    if projected[..i].iter().any(|(n, _)| n == name) {
                        return Err(RelError::new(format!("duplicate column name `{name}`")));
                    }
                }
                vt.cols = projected;
            }
            FusedStep::SelectTrue { column } => {
                let idx = vt.col_index(column)?;
                let mut keep = Vec::new();
                for at in 0..vt.live_rows() {
                    if vt.get(idx, at).as_bool()? {
                        keep.push(at);
                    }
                }
                vt.restrict(keep);
            }
            FusedStep::SelectEq { column, value } => {
                let idx = vt.col_index(column)?;
                let keep: Vec<usize> = (0..vt.live_rows())
                    .filter(|&at| vt.get(idx, at) == *value)
                    .collect();
                vt.restrict(keep);
            }
            FusedStep::Attach { target, value } => {
                let values = vec![value.clone(); vt.live_rows()];
                vt.push_dense(target, values)?;
            }
            FusedStep::MapUnary { target, op, source } => {
                let idx = vt.col_index(source)?;
                let mut values = Vec::with_capacity(vt.live_rows());
                for at in 0..vt.live_rows() {
                    let v = atomize(&vt.get(idx, at));
                    values.push(apply_unary(*op, &v)?);
                }
                vt.push_dense(target, values)?;
            }
            FusedStep::MapBinary {
                target,
                left,
                op,
                right,
            } => {
                let lidx = vt.col_index(left)?;
                let ridx = vt.col_index(right)?;
                let mut values = Vec::with_capacity(vt.live_rows());
                // Substring tests repeat few distinct dictionary-backed
                // strings; the memo evaluates each distinct pair once.
                let mut memo = SubstringMemo::new();
                for at in 0..vt.live_rows() {
                    let l = vt.get(lidx, at);
                    let r = vt.get(ridx, at);
                    // Node identity / document order compare node references
                    // directly; everything else operates on atomized values.
                    let result = match (&l, &r, op) {
                        (Value::Node(_), Value::Node(_), BinaryOp::Cmp(_)) => {
                            apply_binary(*op, &l, &r)?
                        }
                        _ => memo.apply(*op, &atomize(&l), &atomize(&r))?,
                    };
                    values.push(result);
                }
                vt.push_dense(target, values)?;
            }
            FusedStep::MapAtomize { column } => {
                let idx = vt.col_index(column)?;
                let mut values = Vec::with_capacity(vt.live_rows());
                for at in 0..vt.live_rows() {
                    values.push(atomize(&vt.get(idx, at)));
                }
                vt.cols[idx].1 = Slot::Dense(Rc::new(values));
            }
            FusedStep::Distinct => {
                let keep = vt.first_occurrences();
                vt.restrict(keep);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::map::CmpOp;
    use crate::ops::{self};
    use crate::value::ArithOp;

    fn identity() -> impl FnMut(&Value) -> Value {
        |v: &Value| v.clone()
    }

    fn input() -> Table {
        Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 2, 3, 4])),
            ("a".into(), Column::ints(vec![10, 20, 30, 40])),
            ("b".into(), Column::ints(vec![15, 15, 15, 45])),
        ])
        .unwrap()
    }

    /// Run the same chain fused and unfused; both must agree exactly.
    fn agree(steps: &[FusedStep]) -> Table {
        let t = input();
        let fused = run_pipeline(&t, steps, &mut identity()).unwrap();
        let mut unfused = t;
        for step in steps {
            unfused = match step {
                FusedStep::Project { columns } => {
                    let pairs: Vec<(&str, &str)> = columns
                        .iter()
                        .map(|(s, t)| (s.as_str(), t.as_str()))
                        .collect();
                    ops::project(&unfused, &pairs).unwrap()
                }
                FusedStep::SelectTrue { column } => ops::select_true(&unfused, column).unwrap(),
                FusedStep::SelectEq { column, value } => {
                    ops::select_eq(&unfused, column, value).unwrap()
                }
                FusedStep::Attach { target, value } => {
                    ops::map_const(&unfused, target, value).unwrap()
                }
                FusedStep::MapUnary { target, op, source } => {
                    ops::map_unary(&unfused, target, *op, source).unwrap()
                }
                FusedStep::MapBinary {
                    target,
                    left,
                    op,
                    right,
                } => ops::map_binary(&unfused, target, left, *op, right).unwrap(),
                FusedStep::MapAtomize { column } => {
                    // Identity atomizer ⇒ fn:data leaves values unchanged,
                    // but the column representation is rebuilt like the
                    // engine's unfused fn_data does.
                    let values: Vec<Value> =
                        unfused.column(column).unwrap().iter_values().collect();
                    let columns = unfused
                        .columns()
                        .iter()
                        .map(|(n, c)| {
                            if n == column {
                                (n.clone(), Column::from_values(values.clone()))
                            } else {
                                (n.clone(), c.clone())
                            }
                        })
                        .collect();
                    Table::new(columns).unwrap()
                }
                FusedStep::Distinct => ops::distinct(&unfused).unwrap(),
            };
        }
        assert_eq!(fused, unfused, "fused and unfused chains diverge");
        fused
    }

    #[test]
    fn map_select_project_chain_matches_unfused() {
        let out = agree(&[
            FusedStep::MapBinary {
                target: "cmp".into(),
                left: "a".into(),
                op: BinaryOp::Cmp(CmpOp::Gt),
                right: "b".into(),
            },
            FusedStep::SelectTrue {
                column: "cmp".into(),
            },
            FusedStep::Project {
                columns: vec![("iter".into(), "iter".into()), ("a".into(), "item".into())],
            },
        ]);
        assert_eq!(out.row_count(), 2);
        assert_eq!(out.column_names(), vec!["iter", "item"]);
        assert_eq!(out.value("item", 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn select_before_and_after_maps() {
        let out = agree(&[
            FusedStep::SelectEq {
                column: "b".into(),
                value: Value::Int(15),
            },
            FusedStep::MapBinary {
                target: "sum".into(),
                left: "a".into(),
                op: BinaryOp::Arith(ArithOp::Add),
                right: "b".into(),
            },
            FusedStep::SelectEq {
                column: "sum".into(),
                value: Value::Int(35),
            },
            FusedStep::Attach {
                target: "flag".into(),
                value: Value::Bool(true),
            },
        ]);
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.value("iter", 0).unwrap(), Value::Nat(2));
        assert_eq!(out.value("flag", 0).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unary_map_and_duplicate_projection() {
        let out = agree(&[
            FusedStep::Project {
                columns: vec![
                    ("iter".into(), "inner".into()),
                    ("iter".into(), "outer".into()),
                    ("a".into(), "a".into()),
                ],
            },
            FusedStep::MapUnary {
                target: "neg".into(),
                op: UnaryOp::Neg,
                source: "a".into(),
            },
        ]);
        assert_eq!(out.value("neg", 3).unwrap(), Value::Int(-40));
        assert_eq!(
            out.value("inner", 0).unwrap(),
            out.value("outer", 0).unwrap()
        );
    }

    #[test]
    fn distinct_and_atomize_fuse_like_their_operators() {
        let t = Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1, 2, 2, 2])),
            ("item".into(), Column::ints(vec![7, 7, 7, 8, 8])),
        ])
        .unwrap();
        let steps = [
            FusedStep::MapAtomize {
                column: "item".into(),
            },
            FusedStep::Distinct,
            FusedStep::Project {
                columns: vec![
                    ("iter".into(), "iter".into()),
                    ("item".into(), "item".into()),
                ],
            },
        ];
        let fused = run_pipeline(&t, &steps, &mut identity()).unwrap();
        let unfused = {
            let atomized = t.clone(); // identity atomizer
            let distinct = ops::distinct(&atomized).unwrap();
            ops::project(&distinct, &[("iter", "iter"), ("item", "item")]).unwrap()
        };
        assert_eq!(fused.row_count(), 3, "keeps first occurrences in order");
        assert_eq!(fused.row_count(), unfused.row_count());
        for row in 0..fused.row_count() {
            assert_eq!(fused.row(row), unfused.row(row));
        }
        // δ over all *current* columns: after projecting iter away, the
        // remaining duplicate items collapse further.
        let narrowed = run_pipeline(
            &t,
            &[
                FusedStep::Project {
                    columns: vec![("item".into(), "item".into())],
                },
                FusedStep::Distinct,
            ],
            &mut identity(),
        )
        .unwrap();
        assert_eq!(narrowed.row_count(), 2);
    }

    #[test]
    fn keeping_every_row_is_zero_copy() {
        let t = input();
        let out = run_pipeline(
            &t,
            &[FusedStep::SelectEq {
                column: "b".into(),
                value: Value::Int(15),
            }],
            &mut identity(),
        )
        .unwrap();
        assert_eq!(out.row_count(), 3);
        // A selection that keeps everything shares the input buffers.
        let all = run_pipeline(
            &t,
            &[FusedStep::SelectTrue { column: "t".into() }],
            &mut identity(),
        );
        assert!(all.is_err());
        let attached = run_pipeline(
            &t,
            &[FusedStep::Attach {
                target: "c".into(),
                value: Value::Nat(1),
            }],
            &mut identity(),
        )
        .unwrap();
        assert!(attached
            .column("iter")
            .unwrap()
            .shares_data(t.column("iter").unwrap()));
    }

    #[test]
    fn unknown_column_error_matches_table_lookup() {
        let t = input();
        let fused = run_pipeline(
            &t,
            &[FusedStep::SelectTrue {
                column: "missing".into(),
            }],
            &mut identity(),
        )
        .unwrap_err();
        let direct = t.column("missing").unwrap_err();
        assert_eq!(fused, direct, "fused kernels must report the same error");
        assert!(fused.to_string().contains("available: `iter`, `a`, `b`"));

        // …and after a projection narrowed the schema, the listing reflects
        // the *virtual* schema at that point in the pipeline.
        let narrowed = run_pipeline(
            &t,
            &[
                FusedStep::Project {
                    columns: vec![("iter".into(), "iter".into())],
                },
                FusedStep::SelectTrue { column: "a".into() },
            ],
            &mut identity(),
        )
        .unwrap_err();
        assert!(narrowed.to_string().contains("available: `iter`"));
    }

    #[test]
    fn duplicate_targets_are_errors_not_panics() {
        let t = input();
        let dup_attach = run_pipeline(
            &t,
            &[FusedStep::Attach {
                target: "a".into(),
                value: Value::Int(0),
            }],
            &mut identity(),
        )
        .unwrap_err();
        assert!(dup_attach.to_string().contains("duplicate column name `a`"));
        let dup_project = run_pipeline(
            &t,
            &[FusedStep::Project {
                columns: vec![("a".into(), "x".into()), ("b".into(), "x".into())],
            }],
            &mut identity(),
        )
        .unwrap_err();
        assert!(dup_project
            .to_string()
            .contains("duplicate column name `x`"));
    }

    #[test]
    fn type_errors_surface_as_errors() {
        let t = input();
        let err = run_pipeline(
            &t,
            &[FusedStep::MapBinary {
                target: "x".into(),
                left: "a".into(),
                op: BinaryOp::And,
                right: "b".into(),
            }],
            &mut identity(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn atomizer_is_applied_to_map_operands() {
        let t = Table::new(vec![("a".into(), Column::ints(vec![1, 2]))]).unwrap();
        // An atomizer that doubles every operand: 1+1 → 4, 2+2 → 8.
        let mut doubler = |v: &Value| match v {
            Value::Int(i) => Value::Int(i * 2),
            other => other.clone(),
        };
        let out = run_pipeline(
            &t,
            &[FusedStep::MapBinary {
                target: "s".into(),
                left: "a".into(),
                op: BinaryOp::Arith(ArithOp::Add),
                right: "a".into(),
            }],
            &mut doubler,
        )
        .unwrap();
        assert_eq!(out.value("s", 0).unwrap(), Value::Int(4));
        assert_eq!(out.value("s", 1).unwrap(), Value::Int(8));
    }

    #[test]
    fn chunked_evaluation_concatenates_to_the_whole_run() {
        let t = input();
        let steps = [
            FusedStep::MapBinary {
                target: "cmp".into(),
                left: "a".into(),
                op: BinaryOp::Cmp(CmpOp::Gt),
                right: "b".into(),
            },
            FusedStep::SelectTrue {
                column: "cmp".into(),
            },
            FusedStep::Project {
                columns: vec![("iter".into(), "iter".into()), ("a".into(), "item".into())],
            },
        ];
        assert!(steps_chunkable(&steps));
        assert!(!steps_chunkable(&[FusedStep::Distinct]));
        let whole = run_pipeline(&t, &steps, &mut identity()).unwrap();
        for chunk in 1..=t.row_count() {
            let mut pieces = Vec::new();
            let mut lo = 0;
            while lo < t.row_count() {
                let hi = (lo + chunk).min(t.row_count());
                pieces.push(run_pipeline_range(&t, &steps, lo..hi, &mut identity()).unwrap());
                lo = hi;
            }
            let merged = Table::concat_rows(pieces).unwrap();
            assert_eq!(merged, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn empty_pipeline_reproduces_the_input() {
        let t = input();
        let out = run_pipeline(&t, &[], &mut identity()).unwrap();
        assert_eq!(out, t);
    }
}
