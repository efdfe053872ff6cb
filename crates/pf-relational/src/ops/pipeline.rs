//! The fused kernel: π, σ, @, ⊙, `fn:data` and δ over typed and constant
//! columns, read in place.
//!
//! The loop-lifted plans are dominated by long chains of cheap operators
//! (π, σ, attach, ⊙) whose results feed exactly one consumer.  The paper's
//! MonetDB backend runs them column at a time: the type of each column is
//! fixed, and no operator boxes a cell.  [`run_pipeline`] is the
//! reproduction's kernel for every such operator — a chain of any length,
//! including one — with **zero intermediate [`Table`] allocations** and at
//! most one gather pass per surviving input column at the very end.
//!
//! # Slots
//!
//! The kernel keeps a *virtual table*: named slots plus one selection
//! vector over the input's rows.  A slot is one of
//!
//! * **shared** — an input column (an `Arc` handle, no copy), indexed
//!   through the selection vector;
//! * **dense** — a typed column a step computed, aligned to the current
//!   selection (a σ gathers it);
//! * **constant** — one [`Value`] for every live row: `@` costs nothing
//!   per row and is materialized only if it survives to the output.
//!
//! A step dispatches once per column representation, not once per row:
//! operands are borrowed [`Cell`]s (a string is never cloned to be
//! compared, cast or tested) or typed slices, and results are written
//! straight into a typed `Vec`.  Typed loops cover `Cmp` and `Arith` over
//! `Nat`/`Int`/`Dbl` columns and numeric constants, `Cmp`, `Contains` and
//! `StartsWith` over strings, `ToNumber` over strings, σ over a `Bool`
//! column and σ= over a typed column.  What still runs one row at a time
//! is an `Item` column and a mixed pair (a string against a number, a
//! node against an atomic): one loop over [`binary_cell`] /
//! [`unary_cell`], the same functions the typed loops' scalar helpers
//! come from, so both give the same value and the same error for the
//! first failing row.
//!
//! # Atomization
//!
//! The engine hands in a node-only hook, [`Atomizer`]: it appends the
//! string value of a node to a buffer.  ⊙ operands are atomized through
//! it, except that two nodes under a comparison compare as nodes
//! (identity, document order).  `fn:data` over a column that holds no
//! nodes changes no value; over a node column it is lazy — the slot's
//! cells read each node's string value into a reused buffer, and strings
//! are built only when the column reaches the output or δ (σ= compares
//! the buffer).  A lazily
//! atomized cell is a string, never a node, so the identity comparison
//! cannot fire on it.
//!
//! # Output
//!
//! The result is the table the same chain gives one operator at a time
//! with the value-at-a-time references of [`super::map`], [`super::select`],
//! [`super::project()`] and [`super::distinct`] — same values, same row
//! order, same errors (the schema-listing unknown-column message of
//! [`Table::column`] included, via [`RelError::unknown_column`]) — with
//! one convention for the columns the chain computes: they are built as
//! [`Column::from_values`] builds them *at the end* of the chain.  An
//! empty computed or constant column is [`Column::empty_item`] (the
//! convention `step.rs` documents), and an `Item` column that a σ left
//! homogeneous is retyped.  Input columns keep their representation, and
//! a chain that keeps every row hands their buffers through untouched.
//! The kernel has no panic paths on malformed input.

use std::sync::Arc;

use crate::column::{Column, ColumnBuilder};
use crate::error::{RelError, RelResult};
use crate::ops::keys::{first_nats, first_rows, KeyView};
use crate::ops::map::{
    binary_cell, substring_test, unary_cell, Atomizer, BinaryOp, CmpOp, UnaryOp,
};
use crate::table::Table;
use crate::value::{
    cast_double, compare_f64, dbl_arith, dbl_idiv, int_arith, ArithOp, Cell, NodeRef, Value,
};

/// One fused operator of a pipeline, in execution order, borrowing its
/// parameters from the plan operator it runs (a compiled plan stores no
/// second copy of them).
///
/// These mirror the fusable subset of the logical algebra: the unary,
/// cardinality-preserving-or-reducing operators whose output feeds a single
/// consumer.  Everything else (joins, row numbering, sorts, aggregates,
/// node constructors, …) is a pipeline breaker and never appears here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedStep<'a> {
    /// π — keep/rename columns (`(source, target)` pairs).
    Project {
        /// `(source, target)` column pairs.
        columns: &'a [(String, String)],
    },
    /// σ over a boolean column.
    SelectTrue {
        /// Boolean column to filter on.
        column: &'a str,
    },
    /// σ with an equality-to-constant predicate.
    SelectEq {
        /// Column compared against the constant.
        column: &'a str,
        /// The constant.
        value: &'a Value,
    },
    /// Attach a constant column.
    Attach {
        /// New column name.
        target: &'a str,
        /// The constant value.
        value: &'a Value,
    },
    /// Unary ⊙ — append `target` = `op(source)`.
    MapUnary {
        /// Result column name.
        target: &'a str,
        /// The operator.
        op: UnaryOp,
        /// Operand column.
        source: &'a str,
    },
    /// Binary ⊙ — append `target` = `left op right`.
    MapBinary {
        /// Result column name.
        target: &'a str,
        /// Left operand column.
        left: &'a str,
        /// The operator.
        op: BinaryOp,
        /// Right operand column.
        right: &'a str,
    },
    /// Atomization (`fn:data` / `fn:string`): replace `column` with the
    /// atomized value of each row (nodes become their string value,
    /// atomics pass through), leaving every other column untouched.
    MapAtomize {
        /// The column to atomize in place.
        column: &'a str,
    },
    /// δ — duplicate elimination over all (current) columns, keeping the
    /// first occurrence of each distinct row.  A pure selection-vector
    /// pass, like σ.
    Distinct,
}

/// How a slot's rows are held (see the module docs).
#[derive(Debug, Clone)]
enum Slot {
    /// A full-length input column, indexed through the selection vector.
    Shared(Column),
    /// A computed column, aligned to the current selection.
    Dense(Column),
    /// One value for every live row.
    Const(Value),
}

/// A named slot of the virtual table.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    slot: Slot,
    /// `fn:data` was applied to this column of nodes: its node cells read
    /// as their string values.
    data: bool,
}

/// The kernel's in-flight state: named slots + one selection vector over
/// the pipeline input's row space (`None` = all rows live).
#[derive(Debug)]
struct VirtualTable {
    cols: Vec<Entry>,
    sel: Option<Vec<usize>>,
    input_rows: usize,
}

/// Where an operand's cells come from.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// A column, through a selection when it is shared.
    Col(&'a Column, Option<&'a [usize]>),
    /// A constant.
    Const(&'a Value),
}

impl<'a> Source<'a> {
    #[inline]
    fn cell(self, at: usize) -> Cell<'a> {
        match self {
            Source::Col(column, sel) => column.cell(sel.map_or(at, |sel| sel[at])),
            Source::Const(value) => value.cell(),
        }
    }
}

/// One operand read row by row as borrowed cells — the per-row path.
struct Reader<'a> {
    source: Source<'a>,
    /// The slot's `data` flag.
    data: bool,
    /// The string value of the last node read.
    buf: String,
}

impl<'a> Reader<'a> {
    /// The cell as the slot holds it (a `data` slot's nodes atomized).
    #[inline]
    fn cell<'s>(&'s mut self, at: usize, atomize: &mut Atomizer<'_>) -> Cell<'s> {
        let cell = self.source.cell(at);
        if self.data {
            self.atomize(cell, atomize)
        } else {
            cell
        }
    }

    /// The cell atomized: a node reads as its string value.
    #[inline]
    fn atomized<'s>(&'s mut self, at: usize, atomize: &mut Atomizer<'_>) -> Cell<'s> {
        let cell = self.source.cell(at);
        self.atomize(cell, atomize)
    }

    /// The node at `at`, if the slot holds one there as a node.
    #[inline]
    fn node(&self, at: usize) -> Option<NodeRef> {
        match self.source.cell(at) {
            Cell::Node(node) if !self.data => Some(node),
            _ => None,
        }
    }

    fn atomize<'s>(&'s mut self, cell: Cell<'a>, atomize: &mut Atomizer<'_>) -> Cell<'s> {
        match cell {
            Cell::Node(node) => {
                self.buf.clear();
                atomize(node, &mut self.buf);
                Cell::Str(&self.buf)
            }
            atomic => atomic,
        }
    }
}

/// A typed operand: a column slice, through a selection when it is
/// shared, or a constant.
#[derive(Debug, Clone, Copy)]
enum Lane<'a, T> {
    Col(&'a [T], Option<&'a [usize]>),
    Const(T),
}

impl<T: Copy> Lane<'_, T> {
    #[inline]
    fn at(&self, at: usize) -> T {
        match self {
            Lane::Col(values, None) => values[at],
            Lane::Col(values, Some(sel)) => values[sel[at]],
            Lane::Const(value) => *value,
        }
    }
}

/// A numeric operand, by representation.
#[derive(Debug, Clone, Copy)]
enum NumLane<'a> {
    Nat(Lane<'a, u64>),
    Int(Lane<'a, i64>),
    Dbl(Lane<'a, f64>),
}

/// The numeric representations, as the arithmetic of [`Cell`] reads them.
trait Num: Copy {
    /// Integer arithmetic applies (`Nat` and `Int`).
    const INTEGER: bool;
    /// The integer view (only read when [`Num::INTEGER`]; `Nat`s wrap).
    fn int(self) -> i64;
    /// The double view.
    fn dbl(self) -> f64;
}

impl Num for u64 {
    const INTEGER: bool = true;
    fn int(self) -> i64 {
        self as i64
    }
    fn dbl(self) -> f64 {
        self as f64
    }
}

impl Num for i64 {
    const INTEGER: bool = true;
    fn int(self) -> i64 {
        self
    }
    fn dbl(self) -> f64 {
        self as f64
    }
}

impl Num for f64 {
    const INTEGER: bool = false;
    fn int(self) -> i64 {
        self as i64
    }
    fn dbl(self) -> f64 {
        self
    }
}

/// Run a generic numeric loop on the representations of two lanes.
macro_rules! with_nums {
    ($a:expr, $b:expr, $loop:ident($($arg:expr),*)) => {
        match ($a, $b) {
            (NumLane::Nat(a), NumLane::Nat(b)) => $loop(a, b, $($arg),*),
            (NumLane::Nat(a), NumLane::Int(b)) => $loop(a, b, $($arg),*),
            (NumLane::Nat(a), NumLane::Dbl(b)) => $loop(a, b, $($arg),*),
            (NumLane::Int(a), NumLane::Nat(b)) => $loop(a, b, $($arg),*),
            (NumLane::Int(a), NumLane::Int(b)) => $loop(a, b, $($arg),*),
            (NumLane::Int(a), NumLane::Dbl(b)) => $loop(a, b, $($arg),*),
            (NumLane::Dbl(a), NumLane::Nat(b)) => $loop(a, b, $($arg),*),
            (NumLane::Dbl(a), NumLane::Int(b)) => $loop(a, b, $($arg),*),
            (NumLane::Dbl(a), NumLane::Dbl(b)) => $loop(a, b, $($arg),*),
        }
    };
}

/// A ⊙ operand read as strings: a string column or constant, or a node
/// column read through the atomization hook.
enum StrLane<'a> {
    Col(&'a [String], Option<&'a [usize]>),
    Const(&'a str),
    Nodes(&'a [NodeRef], Option<&'a [usize]>, String),
}

impl StrLane<'_> {
    #[inline]
    fn get<'s>(&'s mut self, at: usize, atomize: &mut Atomizer<'_>) -> &'s str {
        match self {
            StrLane::Col(values, sel) => &values[sel.map_or(at, |sel| sel[at])],
            StrLane::Const(value) => value,
            StrLane::Nodes(nodes, sel, buf) => {
                buf.clear();
                atomize(nodes[sel.map_or(at, |sel| sel[at])], buf);
                buf.as_str()
            }
        }
    }
}

/// `cmp` of two numeric lanes, into `bools`.
fn cmp_nums<A: Num, B: Num>(a: Lane<A>, b: Lane<B>, rows: usize, op: CmpOp) -> RelResult<Column> {
    let mut out = Vec::with_capacity(rows);
    for at in 0..rows {
        out.push(op.matches(compare_f64(a.at(at).dbl(), b.at(at).dbl())?));
    }
    Ok(Column::bools(out))
}

/// Arithmetic on two numeric lanes: integers when both are integral and
/// the operator is not `div`, else doubles (`idiv` giving integers).
fn arith_nums<A: Num, B: Num>(
    a: Lane<A>,
    b: Lane<B>,
    rows: usize,
    op: ArithOp,
) -> RelResult<Column> {
    if A::INTEGER && B::INTEGER && op != ArithOp::Div {
        let mut out = Vec::with_capacity(rows);
        for at in 0..rows {
            out.push(int_arith(op, a.at(at).int(), b.at(at).int())?);
        }
        Ok(Column::ints(out))
    } else if op == ArithOp::IDiv {
        let mut out = Vec::with_capacity(rows);
        for at in 0..rows {
            out.push(dbl_idiv(a.at(at).dbl(), b.at(at).dbl())?);
        }
        Ok(Column::ints(out))
    } else {
        let mut out = Vec::with_capacity(rows);
        for at in 0..rows {
            out.push(dbl_arith(op, a.at(at).dbl(), b.at(at).dbl())?);
        }
        Ok(Column::dbls(out))
    }
}

/// The live-row positions whose row id (through `sel`) satisfies `keep`.
fn positions(rows: usize, sel: Option<&[usize]>, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    match sel {
        None => (0..rows).filter(|&row| keep(row)).collect(),
        Some(sel) => (0..rows).filter(|&at| keep(sel[at])).collect(),
    }
}

/// σ=: the positions where a typed column equals `value`, compared like
/// [`Value`]'s equality (a value of another type equals no row); `None`
/// for an `Item` column, which compares row by row.
fn equal_positions(
    column: &Column,
    sel: Option<&[usize]>,
    rows: usize,
    value: &Value,
) -> Option<Vec<usize>> {
    Some(match (column, value) {
        (Column::Item(_), _) => return None,
        (Column::Nat(v), Value::Nat(x)) => positions(rows, sel, |row| v[row] == *x),
        (Column::Int(v), Value::Int(x)) => positions(rows, sel, |row| v[row] == *x),
        (Column::Dbl(v), Value::Dbl(x)) => positions(rows, sel, |row| v[row] == *x),
        (Column::Str(v), Value::Str(x)) => positions(rows, sel, |row| v[row] == *x),
        (Column::Bool(v), Value::Bool(x)) => positions(rows, sel, |row| v[row] == *x),
        (Column::Node(v), Value::Node(x)) => positions(rows, sel, |row| v[row] == *x),
        _ => Vec::new(),
    })
}

/// `value` on `rows` rows, typed; no rows give [`Column::empty_item`].
fn splat(value: &Value, rows: usize) -> Column {
    if rows == 0 {
        return Column::empty_item();
    }
    match value {
        Value::Nat(x) => Column::nats(vec![*x; rows]),
        Value::Int(x) => Column::ints(vec![*x; rows]),
        Value::Dbl(x) => Column::dbls(vec![*x; rows]),
        Value::Str(x) => Column::strs(vec![x.clone(); rows]),
        Value::Bool(x) => Column::bools(vec![*x; rows]),
        Value::Node(x) => Column::nodes(vec![*x; rows]),
    }
}

/// A computed column as [`Column::from_values`] would build it from its
/// values: empty → [`Column::empty_item`], a homogeneous `Item` column
/// (one a σ thinned out) → typed.
fn computed(column: Column) -> Column {
    match column {
        column if column.is_empty() => Column::empty_item(),
        Column::Item(values)
            if values
                .windows(2)
                .all(|w| w[0].value_type() == w[1].value_type()) =>
        {
            Column::from_values(Arc::try_unwrap(values).unwrap_or_else(|shared| (*shared).clone()))
        }
        column => column,
    }
}

/// ⊙ on one row of two readers: two nodes under a comparison compare as
/// nodes, everything else atomized.
#[inline]
fn binary_row(
    op: BinaryOp,
    left: &mut Reader<'_>,
    right: &mut Reader<'_>,
    at: usize,
    atomize: &mut Atomizer<'_>,
) -> RelResult<Value> {
    if let (BinaryOp::Cmp(_), Some(l), Some(r)) = (op, left.node(at), right.node(at)) {
        return binary_cell(op, Cell::Node(l), Cell::Node(r));
    }
    let l = left.atomized(at, atomize);
    let r = right.atomized(at, atomize);
    binary_cell(op, l, r)
}

impl VirtualTable {
    fn new(input: &Table) -> Self {
        VirtualTable {
            cols: input
                .columns()
                .iter()
                .map(|(name, c)| Entry {
                    name: name.clone(),
                    slot: Slot::Shared(c.clone()),
                    data: false,
                })
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
            .position(|e| e.name == name)
            .ok_or_else(|| {
                RelError::unknown_column(name, self.cols.iter().map(|e| e.name.as_str()))
            })
    }

    /// The column of a non-constant slot with the selection its rows are
    /// read through.
    fn column<'a>(&'a self, slot: &'a Slot) -> Option<(&'a Column, Option<&'a [usize]>)> {
        match slot {
            Slot::Shared(c) => Some((c, self.sel.as_deref())),
            Slot::Dense(c) => Some((c, None)),
            Slot::Const(_) => None,
        }
    }

    fn reader(&self, idx: usize) -> Reader<'_> {
        let entry = &self.cols[idx];
        let source = match &entry.slot {
            Slot::Const(value) => Source::Const(value),
            slot => {
                let (column, sel) = self.column(slot).expect("a column slot");
                Source::Col(column, sel)
            }
        };
        Reader {
            source,
            data: entry.data,
            buf: String::new(),
        }
    }

    fn num_lane(&self, idx: usize) -> Option<NumLane<'_>> {
        match &self.cols[idx].slot {
            Slot::Const(Value::Nat(x)) => Some(NumLane::Nat(Lane::Const(*x))),
            Slot::Const(Value::Int(x)) => Some(NumLane::Int(Lane::Const(*x))),
            Slot::Const(Value::Dbl(x)) => Some(NumLane::Dbl(Lane::Const(*x))),
            slot => match self.column(slot)? {
                (Column::Nat(v), sel) => Some(NumLane::Nat(Lane::Col(v, sel))),
                (Column::Int(v), sel) => Some(NumLane::Int(Lane::Col(v, sel))),
                (Column::Dbl(v), sel) => Some(NumLane::Dbl(Lane::Col(v, sel))),
                _ => None,
            },
        }
    }

    /// A ⊙ operand whose atomized cells are all strings.
    fn str_lane(&self, idx: usize) -> Option<StrLane<'_>> {
        match &self.cols[idx].slot {
            Slot::Const(Value::Str(x)) => Some(StrLane::Const(x)),
            slot => match self.column(slot)? {
                (Column::Str(v), sel) => Some(StrLane::Col(v, sel)),
                (Column::Node(v), sel) => Some(StrLane::Nodes(v, sel, String::new())),
                _ => None,
            },
        }
    }

    fn bool_lane(&self, idx: usize) -> Option<Lane<'_, bool>> {
        match &self.cols[idx].slot {
            Slot::Const(Value::Bool(x)) => Some(Lane::Const(*x)),
            slot => match self.column(slot)? {
                (Column::Bool(v), sel) => Some(Lane::Col(v, sel)),
                _ => None,
            },
        }
    }

    /// Does the slot hold nodes *as nodes* — a node column or constant
    /// that `fn:data` has not been applied to?
    fn raw_nodes(&self, idx: usize) -> bool {
        let entry = &self.cols[idx];
        !entry.data
            && match &entry.slot {
                Slot::Const(value) => matches!(value, Value::Node(_)),
                Slot::Shared(c) | Slot::Dense(c) => matches!(c, Column::Node(_)),
            }
    }

    /// Append a computed slot, rejecting duplicate names exactly like
    /// [`Table::add_column`].
    fn push(&mut self, name: &str, slot: Slot) -> RelResult<()> {
        if self.cols.iter().any(|e| e.name == name) {
            return Err(RelError::new(format!("duplicate column name `{name}`")));
        }
        self.cols.push(Entry {
            name: name.to_string(),
            slot,
            data: false,
        });
        Ok(())
    }

    /// Restrict the live rows to the given positions (indices into the
    /// current live-row space, strictly increasing): shrink the selection
    /// vector and gather every dense slot; constants stay as they are.  A
    /// selection that keeps every live row is a no-op.
    fn restrict(&mut self, keep: Vec<usize>) {
        if keep.len() == self.live_rows() {
            return;
        }
        for entry in &mut self.cols {
            if let Slot::Dense(c) = &mut entry.slot {
                *c = c.gather(&keep);
            }
        }
        self.sel = Some(match self.sel.take() {
            None => keep,
            Some(sel) => keep.iter().map(|&i| sel[i]).collect(),
        });
    }

    /// σ over a boolean column: the live positions where it is `true`.
    fn select_true(&self, idx: usize, atomize: &mut Atomizer<'_>) -> RelResult<Vec<usize>> {
        let rows = self.live_rows();
        if let Some(lane) = self.bool_lane(idx) {
            return Ok((0..rows).filter(|&at| lane.at(at)).collect());
        }
        let mut reader = self.reader(idx);
        let mut keep = Vec::new();
        for at in 0..rows {
            if reader.cell(at, atomize).as_bool()? {
                keep.push(at);
            }
        }
        Ok(keep)
    }

    /// σ=: the live positions where the column equals `value`.
    fn select_eq(&self, idx: usize, value: &Value, atomize: &mut Atomizer<'_>) -> Vec<usize> {
        let rows = self.live_rows();
        let entry = &self.cols[idx];
        if let Some((column, sel)) = self.column(&entry.slot).filter(|_| !entry.data) {
            if let Some(keep) = equal_positions(column, sel, rows, value) {
                return keep;
            }
        }
        let target = value.cell();
        let mut reader = self.reader(idx);
        (0..rows)
            .filter(|&at| reader.cell(at, atomize) == target)
            .collect()
    }

    /// Unary ⊙ over slot `idx`.
    fn unary(&self, op: UnaryOp, idx: usize, atomize: &mut Atomizer<'_>) -> RelResult<Slot> {
        let rows = self.live_rows();
        if let (UnaryOp::ToNumber, Some(mut lane)) = (op, self.str_lane(idx)) {
            let mut out = Vec::with_capacity(rows);
            for at in 0..rows {
                out.push(cast_double(lane.get(at, atomize))?);
            }
            return Ok(Slot::Dense(Column::dbls(out)));
        }
        let mut reader = self.reader(idx);
        let mut out = ColumnBuilder::with_capacity(rows);
        for at in 0..rows {
            out.push(unary_cell(op, reader.atomized(at, atomize))?);
        }
        Ok(Slot::Dense(out.finish()))
    }

    /// Binary ⊙ over slots `left` and `right`.
    fn binary(
        &self,
        left: usize,
        op: BinaryOp,
        right: usize,
        atomize: &mut Atomizer<'_>,
    ) -> RelResult<Slot> {
        let rows = self.live_rows();
        if let Some(column) = self.binary_typed(left, op, right, atomize)? {
            return Ok(Slot::Dense(column));
        }
        let (mut l, mut r) = (self.reader(left), self.reader(right));
        let mut out = ColumnBuilder::with_capacity(rows);
        for at in 0..rows {
            out.push(binary_row(op, &mut l, &mut r, at, atomize)?);
        }
        Ok(Slot::Dense(out.finish()))
    }

    /// The typed loops of binary ⊙; `None` when the operands need the
    /// per-row path.
    fn binary_typed(
        &self,
        left: usize,
        op: BinaryOp,
        right: usize,
        atomize: &mut Atomizer<'_>,
    ) -> RelResult<Option<Column>> {
        let rows = self.live_rows();
        let nums = || self.num_lane(left).zip(self.num_lane(right));
        // Two nodes compare as nodes, so node operands are strings only
        // when at most one side holds them.
        let strs = || {
            if self.raw_nodes(left) && self.raw_nodes(right) {
                return None;
            }
            self.str_lane(left).zip(self.str_lane(right))
        };
        match op {
            BinaryOp::Cmp(cmp) => {
                if let Some((a, b)) = nums() {
                    return with_nums!(a, b, cmp_nums(rows, cmp)).map(Some);
                }
                if let Some((mut a, mut b)) = strs() {
                    let mut out = Vec::with_capacity(rows);
                    for at in 0..rows {
                        let x = a.get(at, atomize);
                        out.push(cmp.matches(x.cmp(b.get(at, atomize))));
                    }
                    return Ok(Some(Column::bools(out)));
                }
            }
            BinaryOp::Arith(arith) => {
                if let Some((a, b)) = nums() {
                    return with_nums!(a, b, arith_nums(rows, arith)).map(Some);
                }
            }
            BinaryOp::Contains | BinaryOp::StartsWith => {
                if let Some((mut a, mut b)) = strs() {
                    let mut out = Vec::with_capacity(rows);
                    for at in 0..rows {
                        let x = a.get(at, atomize);
                        out.push(substring_test(op, x, b.get(at, atomize)));
                    }
                    return Ok(Some(Column::bools(out)));
                }
            }
            BinaryOp::And | BinaryOp::Or | BinaryOp::Concat => {}
        }
        Ok(None)
    }

    /// `fn:data` over slot `idx`: lazy over nodes, no value changes
    /// otherwise.
    fn data(&mut self, idx: usize) {
        let slot = &self.cols[idx].slot;
        let holds_nodes = match slot {
            Slot::Const(value) => matches!(value, Value::Node(_)),
            Slot::Shared(c) | Slot::Dense(c) => match c {
                Column::Node(_) => true,
                Column::Item(values) => values.iter().any(|v| matches!(v, Value::Node(_))),
                _ => false,
            },
        };
        if holds_nodes {
            self.cols[idx].data = true;
        } else if let Slot::Shared(c) = slot {
            // The input column is a computed one now: it ends like one
            // (see `computed`).
            let aligned = match &self.sel {
                None => c.clone(),
                Some(sel) => c.gather(sel),
            };
            self.cols[idx].slot = Slot::Dense(aligned);
        }
    }

    /// Build the strings of every lazily atomized slot.
    fn materialize_data(&mut self, atomize: &mut Atomizer<'_>) {
        let rows = self.live_rows();
        for idx in 0..self.cols.len() {
            if self.cols[idx].data {
                let mut reader = self.reader(idx);
                let mut out = ColumnBuilder::with_capacity(rows);
                for at in 0..rows {
                    out.push(reader.cell(at, atomize).to_value());
                }
                let column = out.finish();
                self.cols[idx].slot = Slot::Dense(column);
                self.cols[idx].data = false;
            }
        }
    }

    /// δ's selection: the live-row positions of the first occurrence of
    /// every distinct row, compared like [`super::distinct`] compares —
    /// a seen-bitset for one `Nat` column, borrowed key tuples otherwise.
    /// A constant column is one key on every row, so it tells no rows
    /// apart and is left out.
    fn first_occurrences(&mut self, atomize: &mut Atomizer<'_>) -> Vec<usize> {
        self.materialize_data(atomize);
        let views: Vec<(KeyView, Option<&[usize]>)> = self
            .cols
            .iter()
            .filter_map(|e| self.column(&e.slot))
            .map(|(column, sel)| (KeyView::of(column), sel))
            .collect();
        if let [(KeyView::Nat(nats), sel)] = views[..] {
            let dense = match sel {
                None => first_nats(nats.iter().copied()),
                Some(sel) => first_nats(sel.iter().map(|&row| nats[row])),
            };
            if let Some(keep) = dense {
                return keep;
            }
        }
        first_rows(views.len(), self.live_rows(), |c, at| {
            let (view, sel) = views[c];
            view.key(sel.map_or(at, |sel| sel[at]))
        })
    }

    /// Materialize the result table: gather each surviving shared column
    /// through the selection vector once (zero-copy when every row
    /// survived), finish computed columns, spread constants.
    fn finish(mut self, atomize: &mut Atomizer<'_>) -> RelResult<Table> {
        self.materialize_data(atomize);
        // An identity selection (every input row survived, in order) is the
        // same as no selection: hand the shared buffers through untouched,
        // matching the unfused σ's zero-copy identity gather.
        if let Some(sel) = &self.sel {
            if sel.len() == self.input_rows && sel.iter().enumerate().all(|(i, &r)| i == r) {
                self.sel = None;
            }
        }
        let rows = self.live_rows();
        let sel = self.sel;
        let columns = self
            .cols
            .into_iter()
            .map(|entry| {
                let column = match entry.slot {
                    Slot::Shared(c) => match &sel {
                        None => c,
                        Some(rows) => c.gather(rows),
                    },
                    Slot::Dense(c) => computed(c),
                    Slot::Const(value) => splat(&value, rows),
                };
                (entry.name, column)
            })
            .collect();
        Table::new(columns)
    }
}

/// Evaluate a whole pipeline of [`FusedStep`]s over `input`.
///
/// `atomize` is the engine's node-only atomization hook (see the module
/// docs): it appends a node's string value to the buffer it is handed.
/// For tables without nodes any hook will do; it is never called.
///
/// The result is row- and value-identical to interpreting the same chain
/// one operator at a time; no intermediate [`Table`] is ever allocated.
pub fn run_pipeline(
    input: &Table,
    steps: &[FusedStep<'_>],
    atomize: &mut Atomizer<'_>,
) -> RelResult<Table> {
    let mut vt = VirtualTable::new(input);
    apply_steps(&mut vt, steps, atomize)?;
    vt.finish(atomize)
}

/// May the pipeline be evaluated over disjoint input-row chunks whose
/// outputs concatenate to the whole-input result, and does that pay?
/// Every step but δ is row-local (duplicate elimination needs to see
/// every row), and a chain that only renames and attaches does no
/// per-row work — chunking it would copy the input columns it otherwise
/// hands through untouched.
pub fn steps_chunkable(steps: &[FusedStep<'_>]) -> bool {
    !steps.iter().any(|s| matches!(s, FusedStep::Distinct))
        && steps
            .iter()
            .any(|s| !matches!(s, FusedStep::Project { .. } | FusedStep::Attach { .. }))
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
    steps: &[FusedStep<'_>],
    rows: std::ops::Range<usize>,
    atomize: &mut Atomizer<'_>,
) -> RelResult<Table> {
    debug_assert!(rows.end <= input.row_count());
    let mut vt = VirtualTable::new(input);
    vt.sel = Some(rows.collect());
    apply_steps(&mut vt, steps, atomize)?;
    vt.finish(atomize)
}

/// The shared interpreter loop of [`run_pipeline`] / [`run_pipeline_range`].
fn apply_steps(
    vt: &mut VirtualTable,
    steps: &[FusedStep<'_>],
    atomize: &mut Atomizer<'_>,
) -> RelResult<()> {
    for &step in steps {
        match step {
            FusedStep::Project { columns } => {
                let mut projected: Vec<Entry> = Vec::with_capacity(columns.len());
                for (source, target) in columns.iter() {
                    let idx = vt.col_index(source)?;
                    projected.push(Entry {
                        name: target.clone(),
                        ..vt.cols[idx].clone()
                    });
                }
                // π targets must be unique — same check, same error as
                // `Table::new` performs on the unfused path.
                for (i, entry) in projected.iter().enumerate() {
                    if projected[..i].iter().any(|e| e.name == entry.name) {
                        return Err(RelError::new(format!(
                            "duplicate column name `{}`",
                            entry.name
                        )));
                    }
                }
                vt.cols = projected;
            }
            FusedStep::SelectTrue { column } => {
                let idx = vt.col_index(column)?;
                let keep = vt.select_true(idx, atomize)?;
                vt.restrict(keep);
            }
            FusedStep::SelectEq { column, value } => {
                let idx = vt.col_index(column)?;
                let keep = vt.select_eq(idx, value, atomize);
                vt.restrict(keep);
            }
            FusedStep::Attach { target, value } => vt.push(target, Slot::Const(value.clone()))?,
            FusedStep::MapUnary { target, op, source } => {
                let idx = vt.col_index(source)?;
                let slot = vt.unary(op, idx, atomize)?;
                vt.push(target, slot)?;
            }
            FusedStep::MapBinary {
                target,
                left,
                op,
                right,
            } => {
                let l = vt.col_index(left)?;
                let r = vt.col_index(right)?;
                let slot = vt.binary(l, op, r, atomize)?;
                vt.push(target, slot)?;
            }
            FusedStep::MapAtomize { column } => {
                let idx = vt.col_index(column)?;
                vt.data(idx);
            }
            FusedStep::Distinct => {
                let keep = vt.first_occurrences(atomize);
                vt.restrict(keep);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::ops;

    /// A hook for tables without nodes.
    fn no_nodes() -> impl FnMut(NodeRef, &mut String) {
        |_, _| unreachable!("no node operands")
    }

    /// Atomizes node `(doc, pre)` to the decimal text of `pre`.
    fn pre_as_text(node: NodeRef, out: &mut String) {
        out.push_str(&node.pre.to_string());
    }

    fn input() -> Table {
        Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 2, 3, 4])),
            ("a".into(), Column::ints(vec![10, 20, 30, 40])),
            ("b".into(), Column::ints(vec![15, 15, 15, 45])),
        ])
        .unwrap()
    }

    /// The chain one operator at a time with the reference kernels; the
    /// columns the chain computes end as `Column::from_values` builds
    /// them (the kernel's output convention).
    fn reference(input: &Table, steps: &[FusedStep<'_>]) -> RelResult<Table> {
        let mut table = input.clone();
        let mut computed: HashSet<String> = HashSet::new();
        let hook = &mut pre_as_text;
        for &step in steps {
            table = match step {
                FusedStep::Project { columns } => {
                    let pairs: Vec<(&str, &str)> = columns
                        .iter()
                        .map(|(s, t)| (s.as_str(), t.as_str()))
                        .collect();
                    computed = columns
                        .iter()
                        .filter(|(s, _)| computed.contains(s))
                        .map(|(_, t)| t.clone())
                        .collect();
                    ops::project(&table, &pairs)?
                }
                FusedStep::SelectTrue { column } => ops::select_true(&table, column)?,
                FusedStep::SelectEq { column, value } => ops::select_eq(&table, column, value)?,
                FusedStep::Attach { target, value } => {
                    computed.insert(target.to_string());
                    ops::map_const(&table, target, value)?
                }
                FusedStep::MapUnary { target, op, source } => {
                    computed.insert(target.to_string());
                    ops::map_unary(&table, target, op, source, hook)?
                }
                FusedStep::MapBinary {
                    target,
                    left,
                    op,
                    right,
                } => {
                    computed.insert(target.to_string());
                    ops::map_binary(&table, target, left, op, right, hook)?
                }
                FusedStep::MapAtomize { column } => {
                    computed.insert(column.to_string());
                    ops::map_data(&table, column, hook)?
                }
                FusedStep::Distinct => ops::distinct(&table)?,
            };
        }
        let columns = table
            .columns()
            .iter()
            .map(|(name, c)| match computed.contains(name) {
                true => (name.clone(), Column::from_values(c.iter_values().collect())),
                false => (name.clone(), c.clone()),
            })
            .collect();
        Table::new(columns)
    }

    /// Run the same chain fused and one operator at a time; both must
    /// agree exactly, column representation included.
    fn agree(input: &Table, steps: &[FusedStep<'_>]) -> Table {
        let fused = run_pipeline(input, steps, &mut pre_as_text).unwrap();
        assert_eq!(
            fused,
            reference(input, steps).unwrap(),
            "fused and unfused diverge"
        );
        fused
    }

    #[test]
    fn map_select_project_chain_matches_unfused() {
        let out = agree(
            &input(),
            &[
                FusedStep::MapBinary {
                    target: "cmp",
                    left: "a",
                    op: BinaryOp::Cmp(CmpOp::Gt),
                    right: "b",
                },
                FusedStep::SelectTrue { column: "cmp" },
                FusedStep::Project {
                    columns: &[("iter".into(), "iter".into()), ("a".into(), "item".into())],
                },
            ],
        );
        assert_eq!(out.row_count(), 2);
        assert_eq!(out.column_names(), vec!["iter", "item"]);
        assert_eq!(out.value("item", 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn select_before_and_after_maps() {
        let out = agree(
            &input(),
            &[
                FusedStep::SelectEq {
                    column: "b",
                    value: &Value::Int(15),
                },
                FusedStep::MapBinary {
                    target: "sum",
                    left: "a",
                    op: BinaryOp::Arith(ArithOp::Add),
                    right: "b",
                },
                FusedStep::SelectEq {
                    column: "sum",
                    value: &Value::Int(35),
                },
                FusedStep::Attach {
                    target: "flag",
                    value: &Value::Bool(true),
                },
            ],
        );
        assert_eq!(out.row_count(), 1);
        assert_eq!(out.value("iter", 0).unwrap(), Value::Nat(2));
        assert_eq!(out.column("flag").unwrap(), &Column::bools(vec![true]));
    }

    #[test]
    fn unary_map_and_duplicate_projection() {
        let out = agree(
            &input(),
            &[
                FusedStep::Project {
                    columns: &[
                        ("iter".into(), "inner".into()),
                        ("iter".into(), "outer".into()),
                        ("a".into(), "a".into()),
                    ],
                },
                FusedStep::MapUnary {
                    target: "neg",
                    op: UnaryOp::Neg,
                    source: "a",
                },
            ],
        );
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
            FusedStep::MapAtomize { column: "item" },
            FusedStep::Distinct,
            FusedStep::Project {
                columns: &[
                    ("iter".into(), "iter".into()),
                    ("item".into(), "item".into()),
                ],
            },
        ];
        let fused = agree(&t, &steps);
        assert_eq!(fused.row_count(), 3, "keeps first occurrences in order");
        // δ over all *current* columns: after projecting iter away, the
        // remaining duplicate items collapse further.
        let narrowed = agree(
            &t,
            &[
                FusedStep::Project {
                    columns: &[("item".into(), "item".into())],
                },
                FusedStep::Distinct,
            ],
        );
        assert_eq!(narrowed.row_count(), 2);
        // Atomized nodes are compared as their strings: nodes 12 and 21
        // differ, the two 12s do not.
        let nodes = Table::new(vec![(
            "item".into(),
            Column::nodes(vec![
                NodeRef::new(0, 12),
                NodeRef::new(0, 21),
                NodeRef::new(1, 12),
            ]),
        )])
        .unwrap();
        let steps = [
            FusedStep::MapAtomize { column: "item" },
            FusedStep::Distinct,
        ];
        let out = agree(&nodes, &steps);
        assert_eq!(
            out.column("item").unwrap(),
            &Column::strs(vec!["12".into(), "21".into()])
        );
    }

    #[test]
    fn keeping_every_row_is_zero_copy() {
        let t = input();
        let out = run_pipeline(
            &t,
            &[FusedStep::SelectEq {
                column: "b",
                value: &Value::Int(15),
            }],
            &mut no_nodes(),
        )
        .unwrap();
        assert_eq!(out.row_count(), 3);
        // A selection that keeps everything shares the input buffers.
        let all = run_pipeline(
            &t,
            &[FusedStep::SelectEq {
                column: "iter",
                value: &Value::Int(1),
            }],
            &mut no_nodes(),
        )
        .unwrap();
        assert_eq!(all.row_count(), 0, "an Int equals no Nat");
        let all = run_pipeline(
            &t,
            &[
                FusedStep::Attach {
                    target: "t",
                    value: &Value::Bool(true),
                },
                FusedStep::SelectTrue { column: "t" },
            ],
            &mut no_nodes(),
        )
        .unwrap();
        assert!(all.column("a").unwrap().shares_data(t.column("a").unwrap()));
        let attached = run_pipeline(
            &t,
            &[FusedStep::Attach {
                target: "c",
                value: &Value::Nat(1),
            }],
            &mut no_nodes(),
        )
        .unwrap();
        for name in ["iter", "a", "b"] {
            assert!(attached
                .column(name)
                .unwrap()
                .shares_data(t.column(name).unwrap()));
        }
        assert_eq!(attached.column("c").unwrap(), &Column::nats(vec![1; 4]));
        // `fn:data` over numbers changes no value and copies nothing.
        let data = run_pipeline(
            &t,
            &[FusedStep::MapAtomize { column: "a" }],
            &mut no_nodes(),
        )
        .unwrap();
        assert!(data
            .column("a")
            .unwrap()
            .shares_data(t.column("a").unwrap()));
    }

    #[test]
    fn unknown_column_error_matches_table_lookup() {
        let t = input();
        let fused = run_pipeline(
            &t,
            &[FusedStep::SelectTrue { column: "missing" }],
            &mut no_nodes(),
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
                    columns: &[("iter".into(), "iter".into())],
                },
                FusedStep::SelectTrue { column: "a" },
            ],
            &mut no_nodes(),
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
                target: "a",
                value: &Value::Int(0),
            }],
            &mut no_nodes(),
        )
        .unwrap_err();
        assert!(dup_attach.to_string().contains("duplicate column name `a`"));
        let dup_project = run_pipeline(
            &t,
            &[FusedStep::Project {
                columns: &[("a".into(), "x".into()), ("b".into(), "x".into())],
            }],
            &mut no_nodes(),
        )
        .unwrap_err();
        assert!(dup_project
            .to_string()
            .contains("duplicate column name `x`"));
    }

    #[test]
    fn type_errors_surface_as_errors() {
        let t = input();
        let steps = [FusedStep::MapBinary {
            target: "x",
            left: "a",
            op: BinaryOp::And,
            right: "b",
        }];
        let err = run_pipeline(&t, &steps, &mut no_nodes()).unwrap_err();
        assert_eq!(err, reference(&t, &steps).unwrap_err());
        // The first failing row's error, on the typed loops too.
        let strings = Table::new(vec![(
            "s".into(),
            Column::strs(vec!["1".into(), "x".into(), "y".into()]),
        )])
        .unwrap();
        let cast = [FusedStep::MapUnary {
            target: "n",
            op: UnaryOp::ToNumber,
            source: "s",
        }];
        let err = run_pipeline(&strings, &cast, &mut no_nodes()).unwrap_err();
        assert!(err.to_string().contains("cannot cast `x` to a number"));
        let nan = Table::new(vec![("d".into(), Column::dbls(vec![1.0, f64::NAN]))]).unwrap();
        let cmp = [FusedStep::MapBinary {
            target: "c",
            left: "d",
            op: BinaryOp::Cmp(CmpOp::Lt),
            right: "d",
        }];
        let err = run_pipeline(&nan, &cmp, &mut no_nodes()).unwrap_err();
        assert!(err.to_string().contains("NaN is not comparable"));
    }

    /// Node operands go through the hook; two nodes under a comparison
    /// compare as nodes, but once `fn:data` applied they are strings.
    #[test]
    fn atomizer_is_applied_to_map_operands() {
        let t = Table::new(vec![
            (
                "n".into(),
                Column::nodes(vec![NodeRef::new(0, 9), NodeRef::new(0, 30)]),
            ),
            (
                "m".into(),
                Column::nodes(vec![NodeRef::new(0, 10), NodeRef::new(0, 4)]),
            ),
            ("k".into(), Column::ints(vec![20, 20])),
        ])
        .unwrap();
        fn lt<'a>(target: &'a str, left: &'a str, right: &'a str) -> FusedStep<'a> {
            FusedStep::MapBinary {
                target,
                left,
                op: BinaryOp::Cmp(CmpOp::Lt),
                right,
            }
        }
        // Document order: 9 < 10, 30 > 4.
        let out = agree(&t, &[lt("n<m", "n", "m")]);
        assert_eq!(
            out.column("n<m").unwrap(),
            &Column::bools(vec![true, false])
        );
        // Against a number the node's text is cast: 9 < 20, 30 > 20.
        let out = agree(&t, &[lt("n<k", "n", "k")]);
        assert_eq!(
            out.column("n<k").unwrap(),
            &Column::bools(vec![true, false])
        );
        // After fn:data the texts compare as strings: "9" > "10".
        let steps = [
            FusedStep::MapAtomize { column: "n" },
            FusedStep::MapAtomize { column: "m" },
            lt("n<m", "n", "m"),
        ];
        let out = agree(&t, &steps);
        assert_eq!(
            out.column("n<m").unwrap(),
            &Column::bools(vec![false, true])
        );
        assert_eq!(
            out.column("n").unwrap(),
            &Column::strs(vec!["9".into(), "30".into()])
        );
        let number = [
            FusedStep::MapAtomize { column: "m" },
            FusedStep::MapUnary {
                target: "x",
                op: UnaryOp::ToNumber,
                source: "m",
            },
        ];
        let out = agree(&t, &number);
        assert_eq!(out.column("x").unwrap(), &Column::dbls(vec![10.0, 4.0]));
    }

    /// Constants and computed columns end like `from_values` builds them:
    /// typed, or the untyped empty column when no row survived; a mixed
    /// `Item` column that a σ left homogeneous is retyped.
    #[test]
    fn computed_columns_end_like_from_values() {
        let t = input();
        let none = [
            FusedStep::Attach {
                target: "c",
                value: &Value::Str("s".into()),
            },
            FusedStep::MapBinary {
                target: "gt",
                left: "a",
                op: BinaryOp::Cmp(CmpOp::Gt),
                right: "b",
            },
            FusedStep::SelectEq {
                column: "a",
                value: &Value::Int(99),
            },
        ];
        let out = agree(&t, &none);
        assert_eq!(out.column("c").unwrap(), &Column::empty_item());
        assert_eq!(out.column("gt").unwrap(), &Column::empty_item());
        assert_eq!(out.column("a").unwrap(), &Column::ints(vec![]));
        let mixed = Table::new(vec![
            ("k".into(), Column::bools(vec![true, false, true])),
            (
                "v".into(),
                Column::items(vec![Value::Int(1), Value::Str("x".into()), Value::Int(3)]),
            ),
        ])
        .unwrap();
        let steps = [
            FusedStep::MapUnary {
                target: "w",
                op: UnaryOp::ToString,
                source: "v",
            },
            FusedStep::MapAtomize { column: "v" },
            FusedStep::SelectTrue { column: "k" },
        ];
        let out = agree(&mixed, &steps);
        assert_eq!(out.column("v").unwrap(), &Column::ints(vec![1, 3]));
    }

    #[test]
    fn chunked_evaluation_concatenates_to_the_whole_run() {
        let t = input();
        let steps = [
            FusedStep::MapBinary {
                target: "cmp",
                left: "a",
                op: BinaryOp::Cmp(CmpOp::Gt),
                right: "b",
            },
            FusedStep::SelectTrue { column: "cmp" },
            FusedStep::Project {
                columns: &[("iter".into(), "iter".into()), ("a".into(), "item".into())],
            },
        ];
        assert!(steps_chunkable(&steps));
        assert!(!steps_chunkable(&[FusedStep::Distinct]));
        // Renaming and attaching do no per-row work: never chunked.
        assert!(!steps_chunkable(&steps[2..]));
        let whole = run_pipeline(&t, &steps, &mut no_nodes()).unwrap();
        for chunk in 1..=t.row_count() {
            let mut pieces = Vec::new();
            let mut lo = 0;
            while lo < t.row_count() {
                let hi = (lo + chunk).min(t.row_count());
                pieces.push(run_pipeline_range(&t, &steps, lo..hi, &mut no_nodes()).unwrap());
                lo = hi;
            }
            let merged = Table::concat_rows(pieces).unwrap();
            assert_eq!(merged, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn empty_pipeline_reproduces_the_input() {
        let t = input();
        let out = run_pipeline(&t, &[], &mut no_nodes()).unwrap();
        assert_eq!(out, t);
    }
}
