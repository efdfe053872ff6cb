//! ⊙ — the arithmetic / comparison operator family of Table 1.
//!
//! The compiled plans never evaluate expressions row-at-a-time inside some
//! host language; they *materialize* the result of every arithmetic or
//! comparison operation as a new column (see the `⊕res:(item,item1)` node in
//! Figure 5).  The fused kernel of [`super::pipeline`] is the physical
//! operator that does this; [`binary_cell`] and [`unary_cell`] are the
//! operator semantics it shares with every other path, and `map_binary`,
//! `map_unary`, `map_const` and `map_data` are its value-at-a-time
//! references.

use std::cmp::Ordering;

use crate::column::Column;
use crate::error::RelResult;
use crate::table::Table;
use crate::value::{ArithOp, Cell, NodeRef, Value};

/// Comparison operators (`eq`, `ne`, `lt`, `le`, `gt`, `ge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `eq` / `=`
    Eq,
    /// `ne` / `!=`
    Ne,
    /// `lt` / `<`
    Lt,
    /// `le` / `<=`
    Le,
    /// `gt` / `>`
    Gt,
    /// `ge` / `>=`
    Ge,
}

impl CmpOp {
    /// Does `ordering` satisfy this comparison?
    pub fn matches(&self, ordering: Ordering) -> bool {
        match self {
            CmpOp::Eq => ordering == Ordering::Equal,
            CmpOp::Ne => ordering != Ordering::Equal,
            CmpOp::Lt => ordering == Ordering::Less,
            CmpOp::Le => ordering != Ordering::Greater,
            CmpOp::Gt => ordering == Ordering::Greater,
            CmpOp::Ge => ordering != Ordering::Less,
        }
    }

    /// Mirror of the operator (used when the join recognizer swaps sides).
    pub fn mirror(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The XQuery keyword spelling.
    pub fn name(&self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// A binary row-wise operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Arithmetic, producing a numeric column.
    Arith(ArithOp),
    /// Comparison, producing a boolean column.
    Cmp(CmpOp),
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// `fn:contains` — substring containment on strings.
    Contains,
    /// `fn:starts-with`.
    StartsWith,
    /// `fn:concat` (binary; the compiler folds n-ary concat).
    Concat,
}

/// A unary row-wise operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Boolean negation (`fn:not`).
    Not,
    /// Numeric negation (unary minus).
    Neg,
    /// Cast to `xs:double` (`fn:number` on atomics).
    ToNumber,
    /// Cast to `xs:string` (`fn:string` on atomics).
    ToString,
    /// `fn:string-length`.
    StrLen,
}

/// Apply `op` to two cells: the ⊙ semantics every path shares (the
/// fused kernel's per-row path, the join kernels and the reference
/// kernels below).  Comparison, arithmetic and truth
/// are [`Cell`]'s; the boolean connectives short-circuit like Rust's
/// `&&`/`||`, so a `false` left operand never checks the right one.
pub fn binary_cell(op: BinaryOp, left: Cell<'_>, right: Cell<'_>) -> RelResult<Value> {
    match op {
        BinaryOp::Arith(a) => left.arithmetic(a, right),
        BinaryOp::Cmp(c) => Ok(Value::Bool(c.matches(left.compare(right)?))),
        BinaryOp::And => Ok(Value::Bool(left.as_bool()? && right.as_bool()?)),
        BinaryOp::Or => Ok(Value::Bool(left.as_bool()? || right.as_bool()?)),
        BinaryOp::Contains | BinaryOp::StartsWith => Ok(Value::Bool(with_str(left, |l| {
            with_str(right, |r| substring_test(op, l, r))
        }))),
        BinaryOp::Concat => Ok(Value::Str(format!("{left}{right}"))),
    }
}

/// The test of `fn:starts-with` (for [`BinaryOp::StartsWith`]) or
/// `fn:contains` (for [`BinaryOp::Contains`]) on the operands' string
/// representations.
#[inline]
pub(crate) fn substring_test(op: BinaryOp, left: &str, right: &str) -> bool {
    match op {
        BinaryOp::StartsWith => left.starts_with(right),
        _ => left.contains(right),
    }
}

/// Apply `op` to one cell; see [`UnaryOp`].
pub fn unary_cell(op: UnaryOp, value: Cell<'_>) -> RelResult<Value> {
    match op {
        UnaryOp::Not => Ok(Value::Bool(!value.as_bool()?)),
        UnaryOp::Neg => value.arithmetic(ArithOp::Mul, Cell::Int(-1)),
        UnaryOp::ToNumber => value.to_number(),
        UnaryOp::ToString => Ok(Value::Str(value.to_string())),
        UnaryOp::StrLen => Ok(Value::Int(with_str(value, |s| s.chars().count()) as i64)),
    }
}

/// Run `f` on the string representation of `cell`: borrowed for a
/// string, formatted for anything else.
fn with_str<R>(cell: Cell<'_>, f: impl FnOnce(&str) -> R) -> R {
    match cell {
        Cell::Str(s) => f(s),
        other => f(&other.to_string()),
    }
}

/// [`binary_cell`] on owned values.
pub fn apply_binary(op: BinaryOp, left: &Value, right: &Value) -> RelResult<Value> {
    binary_cell(op, left.cell(), right.cell())
}

/// [`unary_cell`] on an owned value.
pub fn apply_unary(op: UnaryOp, value: &Value) -> RelResult<Value> {
    unary_cell(op, value.cell())
}

/// The node-only atomization hook the engine hands the kernels: append
/// the string value of a node to the buffer.
pub type Atomizer<'h> = dyn FnMut(NodeRef, &mut String) + 'h;

/// Atomize an owned value through `atomize`: a node becomes its string
/// value, an atomic stays as it is.
pub fn atomize_value(value: Value, atomize: &mut Atomizer<'_>) -> Value {
    match value {
        Value::Node(node) => {
            let mut text = String::new();
            atomize(node, &mut text);
            Value::Str(text)
        }
        atomic => atomic,
    }
}

// ----- value-at-a-time reference kernels --------------------------------
//
// The operators below evaluate one row at a time on owned `Value`s and
// rebuild every output with `Column::from_values` — the semantics of the
// fused kernel (`super::pipeline`), which the engine runs for every ⊙,
// attach and `fn:data`.  They are kept as the differential-testing
// reference for it, as `equi_join_generic` is for the typed join.

/// ⊙: append column `target` = `left ⊙ right` to a copy of `input`.
/// Operands are atomized through `atomize`, except that two nodes under a
/// comparison compare as nodes (identity / document order).
pub fn map_binary(
    input: &Table,
    target: &str,
    left: &str,
    op: BinaryOp,
    right: &str,
    atomize: &mut Atomizer<'_>,
) -> RelResult<Table> {
    let lcol = input.column(left)?;
    let rcol = input.column(right)?;
    let mut values = Vec::with_capacity(input.row_count());
    for row in 0..input.row_count() {
        let (l, r) = (lcol.get(row), rcol.get(row));
        values.push(match (&l, &r, op) {
            (Value::Node(_), Value::Node(_), BinaryOp::Cmp(_)) => apply_binary(op, &l, &r)?,
            _ => apply_binary(op, &atomize_value(l, atomize), &atomize_value(r, atomize))?,
        });
    }
    let mut out = input.clone();
    out.add_column(target, Column::from_values(values))?;
    Ok(out)
}

/// Unary ⊙: append column `target` = `op(source)` to a copy of `input`,
/// the operand atomized through `atomize`.
pub fn map_unary(
    input: &Table,
    target: &str,
    op: UnaryOp,
    source: &str,
    atomize: &mut Atomizer<'_>,
) -> RelResult<Table> {
    let col = input.column(source)?;
    let mut values = Vec::with_capacity(input.row_count());
    for row in 0..input.row_count() {
        values.push(apply_unary(op, &atomize_value(col.get(row), atomize))?);
    }
    let mut out = input.clone();
    out.add_column(target, Column::from_values(values))?;
    Ok(out)
}

/// Attach a constant column (the "attach" operator the loop-lifting scheme
/// uses to give literals their `iter`/`pos` columns).
pub fn map_const(input: &Table, target: &str, value: &Value) -> RelResult<Table> {
    let values = vec![value.clone(); input.row_count()];
    let mut out = input.clone();
    out.add_column(target, Column::from_values(values))?;
    Ok(out)
}

/// Atomization (`fn:data`): replace `column` with its values atomized
/// through `atomize`, leaving every other column untouched.
pub fn map_data(input: &Table, column: &str, atomize: &mut Atomizer<'_>) -> RelResult<Table> {
    let mut values: Vec<Value> = input
        .column(column)?
        .iter_values()
        .map(|value| atomize_value(value, atomize))
        .collect();
    // Column names are unique: exactly one column takes the values.
    let columns = input
        .columns()
        .iter()
        .map(|(name, c)| {
            let c = if name == column {
                Column::from_values(std::mem::take(&mut values))
            } else {
                c.clone()
            };
            (name.clone(), c)
        })
        .collect();
    Table::new(columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    /// A hook for tables that hold no nodes.
    fn no_nodes() -> impl FnMut(NodeRef, &mut String) {
        |_, _| unreachable!("no node operands")
    }

    fn table() -> Table {
        Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 2, 3])),
            ("a".into(), Column::ints(vec![10, 20, 30])),
            ("b".into(), Column::ints(vec![3, 20, 7])),
        ])
        .unwrap()
    }

    #[test]
    fn arithmetic_map() {
        let t = map_binary(
            &table(),
            "sum",
            "a",
            BinaryOp::Arith(ArithOp::Add),
            "b",
            &mut no_nodes(),
        )
        .unwrap();
        assert_eq!(t.value("sum", 0).unwrap(), Value::Int(13));
        assert_eq!(t.value("sum", 2).unwrap(), Value::Int(37));
    }

    #[test]
    fn comparison_map_produces_booleans() {
        let t = map_binary(
            &table(),
            "eq",
            "a",
            BinaryOp::Cmp(CmpOp::Eq),
            "b",
            &mut no_nodes(),
        )
        .unwrap();
        assert_eq!(t.value("eq", 0).unwrap(), Value::Bool(false));
        assert_eq!(t.value("eq", 1).unwrap(), Value::Bool(true));
        let t = map_binary(
            &table(),
            "gt",
            "a",
            BinaryOp::Cmp(CmpOp::Gt),
            "b",
            &mut no_nodes(),
        )
        .unwrap();
        assert_eq!(t.value("gt", 0).unwrap(), Value::Bool(true));
    }

    #[test]
    fn boolean_connectives() {
        let t = Table::new(vec![
            ("x".into(), Column::bools(vec![true, true, false])),
            ("y".into(), Column::bools(vec![true, false, false])),
        ])
        .unwrap();
        let t = map_binary(&t, "and", "x", BinaryOp::And, "y", &mut no_nodes()).unwrap();
        let t = map_binary(&t, "or", "x", BinaryOp::Or, "y", &mut no_nodes()).unwrap();
        assert_eq!(t.value("and", 1).unwrap(), Value::Bool(false));
        assert_eq!(t.value("or", 1).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unary_operations() {
        assert_eq!(
            apply_unary(UnaryOp::Not, &Value::Bool(true)).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            apply_unary(UnaryOp::Neg, &Value::Int(4)).unwrap(),
            Value::Int(-4)
        );
        assert_eq!(
            apply_unary(UnaryOp::ToNumber, &Value::Str(" 42.5 ".into())).unwrap(),
            Value::Dbl(42.5)
        );
        assert_eq!(
            apply_unary(UnaryOp::ToString, &Value::Int(7)).unwrap(),
            Value::Str("7".into())
        );
        assert!(apply_unary(UnaryOp::ToNumber, &Value::Str("abc".into())).is_err());
        assert!(apply_unary(UnaryOp::ToNumber, &Value::Str("infinity".into())).is_err());
        assert_eq!(
            apply_unary(UnaryOp::ToNumber, &Value::Str("-INF".into())).unwrap(),
            Value::Dbl(f64::NEG_INFINITY)
        );
    }

    /// Node operands are atomized through the hook, except that two
    /// nodes under a comparison compare in document order.
    #[test]
    fn reference_maps_atomize_node_operands() {
        let nodes = Table::new(vec![
            (
                "n".into(),
                Column::nodes(vec![NodeRef::new(0, 4), NodeRef::new(0, 9)]),
            ),
            (
                "m".into(),
                Column::nodes(vec![NodeRef::new(0, 5), NodeRef::new(0, 2)]),
            ),
        ])
        .unwrap();
        let mut pre_as_text = |node: NodeRef, out: &mut String| out.push_str(&node.pre.to_string());
        let t = map_binary(
            &nodes,
            "lt",
            "n",
            BinaryOp::Cmp(CmpOp::Lt),
            "m",
            &mut pre_as_text,
        )
        .unwrap();
        assert_eq!(t.column("lt").unwrap(), &Column::bools(vec![true, false]));
        let t = map_binary(&nodes, "c", "n", BinaryOp::Concat, "m", &mut pre_as_text).unwrap();
        assert_eq!(t.value("c", 1).unwrap(), Value::Str("92".into()));
        let t = map_unary(&nodes, "x", UnaryOp::ToNumber, "n", &mut pre_as_text).unwrap();
        assert_eq!(t.column("x").unwrap(), &Column::dbls(vec![4.0, 9.0]));
        let t = map_data(&nodes, "m", &mut pre_as_text).unwrap();
        assert_eq!(
            t.column("m").unwrap(),
            &Column::strs(vec!["5".into(), "2".into()])
        );
        assert!(t
            .column("n")
            .unwrap()
            .shares_data(nodes.column("n").unwrap()));
    }

    #[test]
    fn string_operations() {
        let a = Value::Str("hello world".into());
        let b = Value::Str("world".into());
        assert_eq!(
            apply_binary(BinaryOp::Contains, &a, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            apply_binary(BinaryOp::StartsWith, &a, &b).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            apply_binary(BinaryOp::Concat, &Value::Str("a".into()), &Value::Int(1)).unwrap(),
            Value::Str("a1".into())
        );
        assert_eq!(apply_unary(UnaryOp::StrLen, &a).unwrap(), Value::Int(11));
    }

    #[test]
    fn map_const_attaches_constant() {
        let t = map_const(&table(), "c", &Value::Nat(1)).unwrap();
        assert!(t
            .column("c")
            .unwrap()
            .iter_values()
            .all(|v| v == Value::Nat(1)));
    }

    #[test]
    fn map_shares_untouched_input_columns() {
        let t = table();
        let out = map_binary(
            &t,
            "sum",
            "a",
            BinaryOp::Arith(ArithOp::Add),
            "b",
            &mut no_nodes(),
        )
        .unwrap();
        // ⊙ appends one new column; the input columns are shared, not copied.
        for name in ["iter", "a", "b"] {
            assert!(out
                .column(name)
                .unwrap()
                .shares_data(t.column(name).unwrap()));
        }
        let out = map_const(&t, "c", &Value::Nat(1)).unwrap();
        assert!(out
            .column("iter")
            .unwrap()
            .shares_data(t.column("iter").unwrap()));
    }

    #[test]
    fn cmp_op_helpers() {
        assert!(CmpOp::Le.matches(Ordering::Equal));
        assert!(!CmpOp::Lt.matches(Ordering::Equal));
        assert_eq!(CmpOp::Lt.mirror(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.name(), "eq");
    }

    #[test]
    fn type_errors_are_reported() {
        let t = table();
        assert!(map_binary(&t, "x", "a", BinaryOp::And, "b", &mut no_nodes()).is_err());
        assert!(map_unary(&t, "x", UnaryOp::Not, "a", &mut no_nodes()).is_err());
    }
}
