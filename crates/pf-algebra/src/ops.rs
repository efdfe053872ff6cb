//! The logical operators of the Pathfinder algebra.
//!
//! Every operator corresponds to a row of Table 1 in the paper (plus the
//! handful of helpers — aggregation, document access, node construction —
//! that the loop-lifting compilation scheme needs).  Children are referenced
//! by [`crate::plan::OpId`], so plans are DAGs and common
//! subexpressions can be shared.  Columns are referenced by
//! [`ColId`]; the plan holding an operator keeps their names
//! ([`ColNames`]), which only the renderers and diagnostics read.

pub use pf_relational::ops::OrderSpec as SortSpec;
use pf_relational::ops::{AggFunc, BinaryOp, RankCount, UnaryOp};
use pf_relational::{ColId, Value, ValueType};
use pf_store::{Axis, NodeTest};

use crate::plan::{ColNames, OpId};

/// A plan constant: a known [`Value`], or a **parameter slot** — an
/// `xs:string` whose value the plan does not carry.
///
/// A plan with slots is a *template*: the compiler emits one for every
/// lifted string literal (`pf_xquery::lift`), the optimizer rewrites it
/// once, and [`crate::Plan::bind`] fills the slots in per request.  Rules
/// move, fold, hash-cons and re-attach a slot as they do any constant —
/// two occurrences of the same slot are the same value — but there is no
/// value to read, so no rewrite can depend on one.  A plan that still
/// holds a slot never runs ([`crate::verify::verify_bound`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// A known value.
    Value(Value),
    /// Parameter slot `k`, an `xs:string` bound later.
    Param(u32),
}

impl Const {
    /// The value, when it is known.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Const::Value(v) => Some(v),
            Const::Param(_) => None,
        }
    }

    /// The static type: a slot is an `xs:string`.
    pub fn value_type(&self) -> ValueType {
        match self {
            Const::Value(v) => v.value_type(),
            Const::Param(_) => ValueType::Str,
        }
    }
}

impl From<Value> for Const {
    fn from(value: Value) -> Self {
        Const::Value(value)
    }
}

impl PartialEq<Value> for Const {
    fn eq(&self, other: &Value) -> bool {
        self.value() == Some(other)
    }
}

impl std::fmt::Display for Const {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Const::Value(v) => write!(f, "{v}"),
            Const::Param(k) => write!(f, "?{k}"),
        }
    }
}

/// The inputs of one operator ([`AlgOp::children`]): at most two ids,
/// held inline.  Derefs to `[OpId]` and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Children {
    /// The ids in slot order; unused slots hold 0, so the derived
    /// equality and hash see only the used ones.
    ids: [OpId; 2],
    len: u8,
}

impl Children {
    /// No input (a leaf).
    pub(crate) const NONE: Children = Children {
        ids: [0, 0],
        len: 0,
    };

    /// One input.
    pub(crate) fn one(input: OpId) -> Children {
        Children {
            ids: [input, 0],
            len: 1,
        }
    }

    /// Two inputs, in slot order.
    pub(crate) fn two(left: OpId, right: OpId) -> Children {
        Children {
            ids: [left, right],
            len: 2,
        }
    }

    /// Each input mapped through `f`.
    pub(crate) fn map(mut self, f: impl Fn(OpId) -> OpId) -> Children {
        let len = usize::from(self.len);
        for id in &mut self.ids[..len] {
            *id = f(*id);
        }
        self
    }
}

impl std::ops::Deref for Children {
    type Target = [OpId];

    fn deref(&self) -> &[OpId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl IntoIterator for Children {
    type Item = OpId;
    type IntoIter = std::iter::Take<std::array::IntoIter<OpId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a OpId;
    type IntoIter = std::slice::Iter<'a, OpId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A logical algebra operator.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgOp {
    /// A literal (constant) relation, e.g. the initial `loop` relation
    /// `{⟨iter:1⟩}` or the encoding of a literal sequence.
    Lit {
        /// The columns.
        columns: Vec<ColId>,
        /// Row values (each row has `columns.len()` entries); a template
        /// may hold parameter slots in them.
        rows: Vec<Vec<Const>>,
    },
    /// The root node of a persistent document registered under `uri`
    /// (`fn:doc`).  Produces a single-row, single-column (`item`) table.
    Doc {
        /// Document URI as passed to `fn:doc`.
        uri: String,
    },
    /// π — projection / renaming: `(source, target)` pairs.
    Project {
        /// Input operator.
        input: OpId,
        /// `(source, target)` column pairs.
        columns: Vec<(ColId, ColId)>,
    },
    /// σ over a boolean column.
    Select {
        /// Input operator.
        input: OpId,
        /// Boolean column to filter on.
        column: ColId,
    },
    /// σ with an equality-to-constant predicate.
    SelectEq {
        /// Input operator.
        input: OpId,
        /// Column compared against the constant.
        column: ColId,
        /// The constant.
        value: Value,
    },
    /// δ — duplicate elimination over all columns.
    Distinct {
        /// Input operator.
        input: OpId,
    },
    /// ∪̇ — disjoint union.
    Union {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
    },
    /// \ — difference (rows of `left` not present in `right`).
    Difference {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
    },
    /// ⋈ — equi-join.
    EquiJoin {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
        /// Join column of the left input.
        left_col: ColId,
        /// Join column of the right input.
        right_col: ColId,
    },
    /// Theta-join with an arbitrary comparison predicate (used for the
    /// value-based joins of XMark Q11/Q12).
    ThetaJoin {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
        /// Left comparison column.
        left_col: ColId,
        /// The comparison operator.
        op: BinaryOp,
        /// Right comparison column.
        right_col: ColId,
    },
    /// Grouped *rank count* over an inequality join (introduced by the
    /// `thetacount` optimizer rule, never by the compiler): per distinct
    /// `count.group` value of `left`, the number of distinct
    /// `count.right_id` values of `right` with at least one pair
    /// `count.left_col op count.right_col` that holds.  Groups without a
    /// match are absent, like the groups of an [`AlgOp::Aggregate`] over
    /// the pair table this replaces.  Output `group|result`, groups in
    /// first-appearance order.
    ThetaCount {
        /// Left input (the counted-for side).
        left: OpId,
        /// Right input (the counted side).
        right: OpId,
        /// Columns and comparison.
        count: RankCount,
    },
    /// × — Cartesian product.
    Cross {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
    },
    /// % — row numbering (MonetDB `mark`): 1-based numbering per partition
    /// in the order given by `order_by`.
    RowNum {
        /// Input operator.
        input: OpId,
        /// The new numbering column.
        target: ColId,
        /// Ordering criteria.
        order_by: Vec<SortSpec>,
        /// Optional partitioning column.
        partition: Option<ColId>,
    },
    /// ⊙ — binary arithmetic / comparison / boolean operator, materializing
    /// its result as a new column.
    BinaryMap {
        /// Input operator.
        input: OpId,
        /// Result column.
        target: ColId,
        /// Left operand column.
        left: ColId,
        /// The operator.
        op: BinaryOp,
        /// Right operand column.
        right: ColId,
    },
    /// Unary ⊙ (negation, casts).
    UnaryMap {
        /// Input operator.
        input: OpId,
        /// Result column.
        target: ColId,
        /// The operator.
        op: UnaryOp,
        /// Operand column.
        source: ColId,
    },
    /// Attach a constant column (loop lifting of literals).
    Attach {
        /// Input operator.
        input: OpId,
        /// New column.
        target: ColId,
        /// The constant: a value, or a parameter slot of a template.
        value: Const,
    },
    /// Grouped aggregation (`fn:count`, `fn:sum`, …) — one row per group.
    Aggregate {
        /// Input operator.
        input: OpId,
        /// Grouping column (always `iter` in compiled plans).
        group: ColId,
        /// Result column.
        target: ColId,
        /// Aggregation function.
        func: AggFunc,
        /// Aggregated column.
        value: ColId,
    },
    /// The staircase join: one XPath location step applied to a context
    /// table with columns `iter|item` (items are nodes).
    Step {
        /// Context input.
        input: OpId,
        /// The XPath axis.
        axis: Axis,
        /// The node test.
        test: NodeTest,
    },
    /// `fs:distinct-doc-order`: per `iter`, sort items into document order
    /// and remove duplicates.  Steps already produce this shape, which is
    /// why the optimizer can remove most of these operators.
    DocOrder {
        /// Input operator.
        input: OpId,
    },
    /// Atomization (`fn:data` / `fn:string`): map the `item` column to the
    /// string value of each node, leaving atomic items unchanged.
    FnData {
        /// Input operator.
        input: OpId,
    },
    /// `fn:root`: map the `item` column (nodes) to the document node of the
    /// document each node belongs to.
    FnRoot {
        /// Input operator.
        input: OpId,
    },
    /// Effective boolean value per `iter`: groups the input by `iter` and
    /// reduces each group's items to one boolean (empty group → the group
    /// does not appear; the compiler completes missing iterations with
    /// `false`).  Like ε and τ, this is a shorthand for an equivalent — but
    /// much larger — algebraic expression.
    Ebv {
        /// Input operator (`iter|pos|item`).
        input: OpId,
    },
    /// ε — element construction: per `iter` of the loop relation, build one
    /// new element node named `tag` whose content is the `content` table's
    /// items (in `pos` order).
    ElemConstruct {
        /// The loop relation (one row per iteration that constructs a node).
        loop_input: OpId,
        /// Element name.
        tag: String,
        /// Content relation (`iter|pos|item`).
        content: OpId,
    },
    /// Attribute construction (companion of ε for computed attributes).
    AttrConstruct {
        /// The loop relation.
        loop_input: OpId,
        /// Attribute name.
        name: String,
        /// Value relation (`iter|pos|item`), atomized and concatenated.
        content: OpId,
    },
    /// τ — text node construction.
    TextConstruct {
        /// The loop relation.
        loop_input: OpId,
        /// Content relation.
        content: OpId,
    },
}

impl AlgOp {
    /// Children of this operator (inputs referenced by id), in slot
    /// order.  At most two, held inline: walking a plan allocates nothing
    /// per operator.
    pub fn children(&self) -> Children {
        match self {
            AlgOp::Lit { .. } | AlgOp::Doc { .. } => Children::NONE,
            AlgOp::Project { input, .. }
            | AlgOp::Select { input, .. }
            | AlgOp::SelectEq { input, .. }
            | AlgOp::Distinct { input }
            | AlgOp::RowNum { input, .. }
            | AlgOp::BinaryMap { input, .. }
            | AlgOp::UnaryMap { input, .. }
            | AlgOp::Attach { input, .. }
            | AlgOp::Aggregate { input, .. }
            | AlgOp::Step { input, .. }
            | AlgOp::DocOrder { input }
            | AlgOp::FnData { input }
            | AlgOp::FnRoot { input }
            | AlgOp::Ebv { input } => Children::one(*input),
            AlgOp::Union { left, right }
            | AlgOp::Difference { left, right }
            | AlgOp::EquiJoin { left, right, .. }
            | AlgOp::ThetaJoin { left, right, .. }
            | AlgOp::ThetaCount { left, right, .. }
            | AlgOp::Cross { left, right } => Children::two(*left, *right),
            AlgOp::ElemConstruct {
                loop_input,
                content,
                ..
            }
            | AlgOp::AttrConstruct {
                loop_input,
                content,
                ..
            }
            | AlgOp::TextConstruct {
                loop_input,
                content,
            } => Children::two(*loop_input, *content),
        }
    }

    /// Whether `self` and `other` are the same operator: `==`, except
    /// that an operator carrying an `xs:double` literal compares by its
    /// rendering, so `0.0` and `-0.0` stay different constants and two
    /// NaN literals are the same one.  Hash-consing
    /// ([`crate::optimize::dedup`]) and the analysis's canonical operators
    /// ([`crate::PlanProperties`]) merge by this.
    pub fn same_as(&self, other: &AlgOp) -> bool {
        if std::mem::discriminant(self) != std::mem::discriminant(other) {
            return false;
        }
        if self.carries_double() || other.carries_double() {
            return format!("{self:?}") == format!("{other:?}");
        }
        self == other
    }

    /// Whether a literal of this operator is an `xs:double`.
    fn carries_double(&self) -> bool {
        let double = |v: &Value| matches!(v, Value::Dbl(_));
        let constant = |c: &Const| c.value().is_some_and(double);
        match self {
            AlgOp::Lit { rows, .. } => rows.iter().flatten().any(constant),
            AlgOp::SelectEq { value, .. } => double(value),
            AlgOp::Attach { value, .. } => constant(value),
            _ => false,
        }
    }

    /// Replace the `i`-th child with `new`.
    pub fn replace_child(&mut self, index: usize, new: OpId) {
        let set = |slot: &mut OpId| *slot = new;
        match self {
            AlgOp::Lit { .. } | AlgOp::Doc { .. } => {}
            AlgOp::Project { input, .. }
            | AlgOp::Select { input, .. }
            | AlgOp::SelectEq { input, .. }
            | AlgOp::Distinct { input }
            | AlgOp::RowNum { input, .. }
            | AlgOp::BinaryMap { input, .. }
            | AlgOp::UnaryMap { input, .. }
            | AlgOp::Attach { input, .. }
            | AlgOp::Aggregate { input, .. }
            | AlgOp::Step { input, .. }
            | AlgOp::DocOrder { input }
            | AlgOp::FnData { input }
            | AlgOp::FnRoot { input }
            | AlgOp::Ebv { input } => {
                if index == 0 {
                    set(input);
                }
            }
            AlgOp::Union { left, right }
            | AlgOp::Difference { left, right }
            | AlgOp::EquiJoin { left, right, .. }
            | AlgOp::ThetaJoin { left, right, .. }
            | AlgOp::ThetaCount { left, right, .. }
            | AlgOp::Cross { left, right } => {
                if index == 0 {
                    set(left);
                } else {
                    set(right);
                }
            }
            AlgOp::ElemConstruct {
                loop_input,
                content,
                ..
            }
            | AlgOp::AttrConstruct {
                loop_input,
                content,
                ..
            }
            | AlgOp::TextConstruct {
                loop_input,
                content,
            } => {
                if index == 0 {
                    set(loop_input);
                } else {
                    set(content);
                }
            }
        }
    }

    /// Short operator name used by the plan renderers (mirrors the symbols
    /// of Table 1 where sensible), its columns named by `names`.
    pub fn symbol(&self, names: &ColNames) -> String {
        let n = |c: &ColId| names.name(*c);
        match self {
            AlgOp::Lit { rows, .. } => format!("table[{}]", rows.len()),
            AlgOp::Doc { uri } => format!("doc(\"{uri}\")"),
            AlgOp::Project { columns, .. } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|(s, t)| {
                        if s == t {
                            n(s).to_string()
                        } else {
                            format!("{}:{}", n(t), n(s))
                        }
                    })
                    .collect();
                format!("π[{}]", cols.join(","))
            }
            AlgOp::Select { column, .. } => format!("σ[{}]", n(column)),
            AlgOp::SelectEq { column, value, .. } => format!("σ[{}={value}]", n(column)),
            AlgOp::Distinct { .. } => "δ".to_string(),
            AlgOp::Union { .. } => "∪".to_string(),
            AlgOp::Difference { .. } => "\\".to_string(),
            AlgOp::EquiJoin {
                left_col,
                right_col,
                ..
            } => format!("⋈[{}={}]", n(left_col), n(right_col)),
            AlgOp::ThetaJoin {
                left_col,
                op,
                right_col,
                ..
            } => format!("⋈θ[{} {op:?} {}]", n(left_col), n(right_col)),
            AlgOp::ThetaCount { count, .. } => format!(
                "#θ[{}:=count({})/{}: {} {:?} {}]",
                n(&count.result),
                n(&count.right_id),
                n(&count.group),
                n(&count.left_col),
                count.op,
                n(&count.right_col)
            ),
            AlgOp::Cross { .. } => "×".to_string(),
            AlgOp::RowNum {
                target,
                order_by,
                partition,
                ..
            } => {
                let keys: Vec<&str> = order_by.iter().map(|s| n(&s.column)).collect();
                match partition {
                    Some(p) => format!("%{}:⟨{}⟩/{}", n(target), keys.join(","), n(p)),
                    None => format!("%{}:⟨{}⟩", n(target), keys.join(",")),
                }
            }
            AlgOp::BinaryMap {
                target,
                left,
                op,
                right,
                ..
            } => format!("⊙{}:({}{op:?}{})", n(target), n(left), n(right)),
            AlgOp::UnaryMap {
                target, op, source, ..
            } => format!("⊙{}:{op:?}({})", n(target), n(source)),
            AlgOp::Attach { target, value, .. } => format!("@{}:={value}", n(target)),
            AlgOp::Aggregate {
                target,
                func,
                value,
                ..
            } => format!("agg[{}:={}({})]", n(target), func.name(), n(value)),
            AlgOp::Step { axis, test, .. } => format!("⇝[{}::{test:?}]", axis.name()),
            AlgOp::DocOrder { .. } => "ddo".to_string(),
            AlgOp::FnData { .. } => "data".to_string(),
            AlgOp::FnRoot { .. } => "root".to_string(),
            AlgOp::Ebv { .. } => "ebv".to_string(),
            AlgOp::ElemConstruct { tag, .. } => format!("ε⟨{tag}⟩"),
            AlgOp::AttrConstruct { name, .. } => format!("α⟨@{name}⟩"),
            AlgOp::TextConstruct { .. } => "τ".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cols::{col, names};

    #[test]
    fn children_and_replace() {
        let mut op = AlgOp::EquiJoin {
            left: 3,
            right: 5,
            left_col: col("iter"),
            right_col: col("iter1"),
        };
        assert_eq!(op.children().to_vec(), vec![3, 5]);
        op.replace_child(1, 9);
        assert_eq!(op.children().to_vec(), vec![3, 9]);

        let mut p = AlgOp::Project {
            input: 1,
            columns: vec![(col("a"), col("b"))],
        };
        p.replace_child(0, 7);
        assert_eq!(p.children().to_vec(), vec![7]);

        let lit = AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        };
        assert!(lit.children().is_empty());
    }

    #[test]
    fn symbols_are_readable() {
        let op = AlgOp::RowNum {
            input: 0,
            target: col("pos1"),
            order_by: vec![SortSpec::asc(col("iter")), SortSpec::asc(col("pos"))],
            partition: Some(col("outer")),
        };
        assert_eq!(op.symbol(&names()), "%pos1:⟨iter,pos⟩/outer");
        let op = AlgOp::Project {
            input: 0,
            columns: vec![(col("iter"), col("outer")), (col("pos"), col("pos"))],
        };
        assert_eq!(op.symbol(&names()), "π[outer:iter,pos]");
    }

    #[test]
    fn sortspec_constructors() {
        assert!(!SortSpec::asc(col("x")).descending);
        assert!(SortSpec::desc(col("x")).descending);
    }
}
