//! Schema and property inference.
//!
//! The paper attributes much of Pathfinder's optimization potential to "a
//! careful consideration of order properties of relational operators" \[3\]
//! together with the restrictions that hold for compiled plans.  This module
//! infers, per operator, the output column set and one such property,
//! `doc_ordered`: the output is sorted by `(iter, item)` with items in
//! document order per iteration (the invariant `fs:distinct-doc-order`
//! establishes).  The peephole optimizer uses it to remove redundant `ddo`
//! operators; duplicate-freeness is a key fact of
//! [`crate::properties::PlanProperties`].

use std::collections::HashMap;

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};

/// Inferred properties of one operator's output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Properties {
    /// Output column names, in schema order.
    pub columns: Vec<String>,
    /// The output is an `iter|pos|item` table in document order per `iter`
    /// with no duplicate items per `iter`.
    pub doc_ordered: bool,
}

/// Infer properties for every operator reachable from the plan root.
pub fn infer_schema(plan: &Plan) -> HashMap<OpId, Properties> {
    let mut props: HashMap<OpId, Properties> = HashMap::new();
    for id in plan.reachable() {
        let p = infer_one(plan, id, &props);
        props.insert(id, p);
    }
    props
}

fn get(props: &HashMap<OpId, Properties>, id: OpId) -> &Properties {
    props.get(&id).expect("children inferred before parents")
}

pub(crate) fn infer_one(plan: &Plan, id: OpId, props: &HashMap<OpId, Properties>) -> Properties {
    let unordered = |columns: Vec<String>| Properties {
        columns,
        doc_ordered: false,
    };
    let iter_pos_item = || vec!["iter".into(), "pos".into(), "item".into()];
    match plan.op(id) {
        AlgOp::Lit { columns, .. } => unordered(columns.clone()),
        AlgOp::Doc { .. } => unordered(vec!["item".into()]),
        AlgOp::Project { columns, .. } => {
            unordered(columns.iter().map(|(_, t)| t.clone()).collect())
        }
        // These keep the input's columns and its `doc_ordered` flag.
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::Difference { left: input, .. }
        | AlgOp::Sort { input, .. } => get(props, *input).clone(),
        AlgOp::Union { left, .. }
        | AlgOp::FnData { input: left }
        | AlgOp::FnRoot { input: left } => unordered(get(props, *left).columns.clone()),
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => {
            let mut columns = get(props, *left).columns.clone();
            columns.extend(get(props, *right).columns.iter().cloned());
            unordered(columns)
        }
        AlgOp::RowNum { input, target, .. }
        | AlgOp::BinaryMap { input, target, .. }
        | AlgOp::UnaryMap { input, target, .. }
        | AlgOp::Attach { input, target, .. } => {
            let mut columns = get(props, *input).columns.clone();
            columns.push(target.clone());
            unordered(columns)
        }
        AlgOp::ThetaCount { count, .. } => {
            unordered(vec![count.group.clone(), count.result.clone()])
        }
        AlgOp::Aggregate { group, target, .. } => unordered(vec![group.clone(), target.clone()]),
        // The staircase join produces document order and removes
        // duplicates per iteration by construction.
        AlgOp::Step { .. } => Properties {
            columns: iter_pos_item(),
            doc_ordered: true,
        },
        AlgOp::DocOrder { input } => Properties {
            columns: get(props, *input).columns.clone(),
            doc_ordered: true,
        },
        AlgOp::Ebv { .. } => unordered(vec!["iter".into(), "item".into()]),
        AlgOp::ElemConstruct { .. } | AlgOp::TextConstruct { .. } | AlgOp::AttrConstruct { .. } => {
            unordered(iter_pos_item())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SortSpec;
    use crate::plan::PlanBuilder;
    use crate::properties::PlanProperties;
    use pf_relational::Value;
    use pf_store::{Axis, NodeTest};

    #[test]
    fn step_output_is_doc_ordered_and_distinct() {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![],
        });
        let step = b.add(AlgOp::Step {
            input: lit,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let ddo = b.add(AlgOp::DocOrder { input: step });
        let plan = b.finish(ddo);
        let props = infer_schema(&plan);
        assert!(props[&step].doc_ordered);
        let keyed = ["iter", "item"].map(String::from).into();
        assert!(PlanProperties::analyze(&plan).keyed_by(step, &keyed));
        assert_eq!(props[&step].columns, vec!["iter", "pos", "item"]);
        assert!(props[&ddo].doc_ordered);
    }

    #[test]
    fn project_tracks_renamed_columns() {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Int(5)]],
        });
        let proj = b.add(AlgOp::Project {
            input: lit,
            columns: vec![
                ("iter".into(), "outer".into()),
                ("item".into(), "item".into()),
            ],
        });
        let plan = b.finish(proj);
        let props = infer_schema(&plan);
        assert_eq!(props[&proj].columns, vec!["outer", "item"]);
    }

    #[test]
    fn join_concatenates_schemas_and_clears_order() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![],
        });
        let r = b.add(AlgOp::Lit {
            columns: vec!["inner".into(), "outer".into()],
            rows: vec![],
        });
        let j = b.add(AlgOp::EquiJoin {
            left: l,
            right: r,
            left_col: "iter".into(),
            right_col: "outer".into(),
        });
        let plan = b.finish(j);
        let props = infer_schema(&plan);
        assert_eq!(props[&j].columns, vec!["iter", "inner", "outer"]);
        assert!(!props[&j].doc_ordered);
    }

    #[test]
    fn rownum_adds_key_column() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into()],
            rows: vec![],
        });
        let r = b.add(AlgOp::RowNum {
            input: l,
            target: "inner".into(),
            order_by: vec![SortSpec::asc("iter"), SortSpec::asc("pos")],
            partition: None,
        });
        let plan = b.finish(r);
        let props = infer_schema(&plan);
        let keyed = ["inner"].map(String::from).into();
        assert!(PlanProperties::analyze(&plan).keyed_by(r, &keyed));
        assert_eq!(props[&r].columns, vec!["iter", "pos", "inner"]);
    }
}
