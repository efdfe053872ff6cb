//! The logical operators of the Pathfinder algebra.
//!
//! Every operator corresponds to a row of Table 1 in the paper (plus the
//! handful of helpers — aggregation, document access, node construction —
//! that the loop-lifting compilation scheme needs).  Children are referenced
//! by [`crate::plan::OpId`], so plans are DAGs and common
//! subexpressions can be shared.

use pf_relational::ops::{
    AggFunc, BinaryOp, IndexMode, IndexProbe, IndexTarget, RankCount, UnaryOp,
};
use pf_relational::Value;
use pf_store::{Axis, NodeTest};

use crate::plan::OpId;

/// A sort key of the `%` (row numbering) operator.
#[derive(Debug, Clone, PartialEq)]
pub struct SortSpec {
    /// Column to order by.
    pub column: String,
    /// `true` for descending order.
    pub descending: bool,
}

impl SortSpec {
    /// Ascending sort on `column`.
    pub fn asc(column: impl Into<String>) -> Self {
        SortSpec {
            column: column.into(),
            descending: false,
        }
    }

    /// Descending sort on `column`.
    pub fn desc(column: impl Into<String>) -> Self {
        SortSpec {
            column: column.into(),
            descending: true,
        }
    }
}

/// A logical algebra operator.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgOp {
    /// A literal (constant) relation, e.g. the initial `loop` relation
    /// `{⟨iter:1⟩}` or the encoding of a literal sequence.
    Lit {
        /// Column names.
        columns: Vec<String>,
        /// Row values (each row has `columns.len()` entries).
        rows: Vec<Vec<Value>>,
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
        columns: Vec<(String, String)>,
    },
    /// σ over a boolean column.
    Select {
        /// Input operator.
        input: OpId,
        /// Boolean column to filter on.
        column: String,
    },
    /// σ with an equality-to-constant predicate.
    SelectEq {
        /// Input operator.
        input: OpId,
        /// Column compared against the constant.
        column: String,
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
        left_col: String,
        /// Join column of the right input.
        right_col: String,
    },
    /// Theta-join with an arbitrary comparison predicate (used for the
    /// value-based joins of XMark Q11/Q12).
    ThetaJoin {
        /// Left input.
        left: OpId,
        /// Right input.
        right: OpId,
        /// Left comparison column.
        left_col: String,
        /// The comparison operator.
        op: BinaryOp,
        /// Right comparison column.
        right_col: String,
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
        /// Columns and comparison — boxed, so that its five names do not
        /// widen every operator of every cached plan.
        count: Box<RankCount>,
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
        /// Name of the new numbering column.
        target: String,
        /// Ordering criteria.
        order_by: Vec<SortSpec>,
        /// Optional partitioning column.
        partition: Option<String>,
    },
    /// ⊙ — binary arithmetic / comparison / boolean operator, materializing
    /// its result as a new column.
    BinaryMap {
        /// Input operator.
        input: OpId,
        /// Result column name.
        target: String,
        /// Left operand column.
        left: String,
        /// The operator.
        op: BinaryOp,
        /// Right operand column.
        right: String,
    },
    /// Unary ⊙ (negation, casts).
    UnaryMap {
        /// Input operator.
        input: OpId,
        /// Result column name.
        target: String,
        /// The operator.
        op: UnaryOp,
        /// Operand column.
        source: String,
    },
    /// Attach a constant column (loop lifting of literals).
    Attach {
        /// Input operator.
        input: OpId,
        /// New column name.
        target: String,
        /// The constant value.
        value: Value,
    },
    /// Grouped aggregation (`fn:count`, `fn:sum`, …) — one row per group.
    Aggregate {
        /// Input operator.
        input: OpId,
        /// Grouping column (always `iter` in compiled plans).
        group: String,
        /// Result column name.
        target: String,
        /// Aggregation function.
        func: AggFunc,
        /// Aggregated column.
        value: String,
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
    /// Index-accelerated candidate filter over an axis-step output
    /// (introduced by the `indexscan` optimizer rule, never by the
    /// compiler).  Keeps only rows whose `item` can possibly satisfy
    /// `probe` according to the sidecar indexes of the document `uri`;
    /// the untouched residual predicate above keeps answers exact.
    IndexScan {
        /// The step (or doc-order over a step) being filtered.
        input: OpId,
        /// URI of the document whose indexes answer the probe.
        uri: String,
        /// The recognized predicate pattern.
        probe: IndexProbe,
        /// How the residual consumes the rows (row filter vs per-`iter`
        /// EBV — the latter may only drop singleton groups).
        mode: IndexMode,
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
    /// Explicit sort (used by `order by` back-mapping and serialization).
    Sort {
        /// Input operator.
        input: OpId,
        /// Sort keys.
        by: Vec<SortSpec>,
    },
}

impl AlgOp {
    /// Children of this operator (inputs referenced by id).
    pub fn children(&self) -> Vec<OpId> {
        match self {
            AlgOp::Lit { .. } | AlgOp::Doc { .. } => vec![],
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
            | AlgOp::IndexScan { input, .. }
            | AlgOp::DocOrder { input }
            | AlgOp::FnData { input }
            | AlgOp::FnRoot { input }
            | AlgOp::Ebv { input }
            | AlgOp::Sort { input, .. } => vec![*input],
            AlgOp::Union { left, right }
            | AlgOp::Difference { left, right }
            | AlgOp::EquiJoin { left, right, .. }
            | AlgOp::ThetaJoin { left, right, .. }
            | AlgOp::ThetaCount { left, right, .. }
            | AlgOp::Cross { left, right } => vec![*left, *right],
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
            } => vec![*loop_input, *content],
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
            | AlgOp::IndexScan { input, .. }
            | AlgOp::DocOrder { input }
            | AlgOp::FnData { input }
            | AlgOp::FnRoot { input }
            | AlgOp::Ebv { input }
            | AlgOp::Sort { input, .. } => {
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
    /// of Table 1 where sensible).
    pub fn symbol(&self) -> String {
        match self {
            AlgOp::Lit { rows, .. } => format!("table[{}]", rows.len()),
            AlgOp::Doc { uri } => format!("doc(\"{uri}\")"),
            AlgOp::Project { columns, .. } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|(s, t)| {
                        if s == t {
                            s.clone()
                        } else {
                            format!("{t}:{s}")
                        }
                    })
                    .collect();
                format!("π[{}]", cols.join(","))
            }
            AlgOp::Select { column, .. } => format!("σ[{column}]"),
            AlgOp::SelectEq { column, value, .. } => format!("σ[{column}={value}]"),
            AlgOp::Distinct { .. } => "δ".to_string(),
            AlgOp::Union { .. } => "∪".to_string(),
            AlgOp::Difference { .. } => "\\".to_string(),
            AlgOp::EquiJoin {
                left_col,
                right_col,
                ..
            } => format!("⋈[{left_col}={right_col}]"),
            AlgOp::ThetaJoin {
                left_col,
                op,
                right_col,
                ..
            } => format!("⋈θ[{left_col} {op:?} {right_col}]"),
            AlgOp::ThetaCount { count, .. } => format!(
                "#θ[{}:=count({})/{}: {} {:?} {}]",
                count.result,
                count.right_id,
                count.group,
                count.left_col,
                count.op,
                count.right_col
            ),
            AlgOp::Cross { .. } => "×".to_string(),
            AlgOp::RowNum {
                target,
                order_by,
                partition,
                ..
            } => {
                let keys: Vec<&str> = order_by.iter().map(|s| s.column.as_str()).collect();
                match partition {
                    Some(p) => format!("%{target}:⟨{}⟩/{p}", keys.join(",")),
                    None => format!("%{target}:⟨{}⟩", keys.join(",")),
                }
            }
            AlgOp::BinaryMap {
                target,
                left,
                op,
                right,
                ..
            } => format!("⊙{target}:({left}{op:?}{right})"),
            AlgOp::UnaryMap {
                target, op, source, ..
            } => format!("⊙{target}:{op:?}({source})"),
            AlgOp::Attach { target, value, .. } => format!("@{target}:={value}"),
            AlgOp::Aggregate {
                target,
                func,
                value,
                ..
            } => format!("agg[{target}:={}({value})]", func.name()),
            AlgOp::Step { axis, test, .. } => format!("⇝[{}::{test:?}]", axis.name()),
            AlgOp::IndexScan { probe, mode, .. } => {
                let tag = match mode {
                    IndexMode::Exact => "σ",
                    IndexMode::Ebv => "ebv",
                };
                match probe {
                    IndexProbe::TextContains { needle } => format!("idx[text∋\"{needle}\"]/{tag}"),
                    IndexProbe::ValueCmp {
                        target,
                        op,
                        value,
                        to_number,
                    } => {
                        let name = match target {
                            IndexTarget::ElementTag(t) => t.clone(),
                            IndexTarget::AttributeName(n) => format!("@{n}"),
                        };
                        let cast = if *to_number { "number " } else { "" };
                        format!("idx[{cast}{name} {} {value}]/{tag}", op.name())
                    }
                }
            }
            AlgOp::DocOrder { .. } => "ddo".to_string(),
            AlgOp::FnData { .. } => "data".to_string(),
            AlgOp::FnRoot { .. } => "root".to_string(),
            AlgOp::Ebv { .. } => "ebv".to_string(),
            AlgOp::ElemConstruct { tag, .. } => format!("ε⟨{tag}⟩"),
            AlgOp::AttrConstruct { name, .. } => format!("α⟨@{name}⟩"),
            AlgOp::TextConstruct { .. } => "τ".to_string(),
            AlgOp::Sort { by, .. } => {
                let keys: Vec<&str> = by.iter().map(|s| s.column.as_str()).collect();
                format!("sort[{}]", keys.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_replace() {
        let mut op = AlgOp::EquiJoin {
            left: 3,
            right: 5,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        };
        assert_eq!(op.children(), vec![3, 5]);
        op.replace_child(1, 9);
        assert_eq!(op.children(), vec![3, 9]);

        let mut p = AlgOp::Project {
            input: 1,
            columns: vec![("a".into(), "b".into())],
        };
        p.replace_child(0, 7);
        assert_eq!(p.children(), vec![7]);

        let lit = AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        };
        assert!(lit.children().is_empty());
    }

    #[test]
    fn symbols_are_readable() {
        let op = AlgOp::RowNum {
            input: 0,
            target: "pos1".into(),
            order_by: vec![SortSpec::asc("iter"), SortSpec::asc("pos")],
            partition: Some("outer".into()),
        };
        assert_eq!(op.symbol(), "%pos1:⟨iter,pos⟩/outer");
        let op = AlgOp::Project {
            input: 0,
            columns: vec![
                ("iter".into(), "outer".into()),
                ("pos".into(), "pos".into()),
            ],
        };
        assert_eq!(op.symbol(), "π[outer:iter,pos]");
    }

    #[test]
    fn sortspec_constructors() {
        assert!(!SortSpec::asc("x").descending);
        assert!(SortSpec::desc("x").descending);
    }
}
