//! Schema and property inference.
//!
//! The paper attributes much of Pathfinder's optimization potential to "a
//! careful consideration of order properties of relational operators" \[3\]
//! together with the restrictions that hold for compiled plans.  This module
//! infers, per operator, the output column set and two such properties:
//!
//! * `distinct` — the output provably carries no duplicate rows, and
//! * `doc_ordered` — the output is sorted by `(iter, item)` with items in
//!   document order per iteration (the invariant `fs:distinct-doc-order`
//!   establishes).
//!
//! The peephole optimizer uses these to remove redundant δ / `ddo` / sort
//! operators.

use std::collections::HashMap;

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};

/// Inferred properties of one operator's output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Properties {
    /// Output column names, in schema order.
    pub columns: Vec<String>,
    /// The output provably contains no duplicate rows.
    pub distinct: bool,
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
    match plan.op(id) {
        AlgOp::Lit { columns, rows } => Properties {
            columns: columns.clone(),
            distinct: rows.len() <= 1,
            doc_ordered: false,
        },
        AlgOp::Doc { .. } => Properties {
            columns: vec!["item".into()],
            distinct: true,
            doc_ordered: false,
        },
        AlgOp::Project { input, columns } => {
            let child = get(props, *input);
            Properties {
                columns: columns.iter().map(|(_, t)| t.clone()).collect(),
                // π does not eliminate duplicates; distinctness survives only
                // if no column was dropped (a pure renaming).
                distinct: child.distinct && columns.len() >= child.columns.len(),
                doc_ordered: false,
            }
        }
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. } => {
            let child = get(props, *input);
            Properties {
                columns: child.columns.clone(),
                distinct: child.distinct,
                doc_ordered: child.doc_ordered,
            }
        }
        AlgOp::Distinct { input } => {
            let child = get(props, *input);
            Properties {
                columns: child.columns.clone(),
                distinct: true,
                doc_ordered: child.doc_ordered,
            }
        }
        AlgOp::Union { left, right: _ } => {
            let l = get(props, *left);
            Properties {
                columns: l.columns.clone(),
                distinct: false,
                doc_ordered: false,
            }
        }
        AlgOp::Difference { left, .. } => {
            let l = get(props, *left);
            Properties {
                columns: l.columns.clone(),
                distinct: l.distinct,
                doc_ordered: l.doc_ordered,
            }
        }
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => {
            let l = get(props, *left);
            let r = get(props, *right);
            let mut columns = l.columns.clone();
            columns.extend(r.columns.clone());
            Properties {
                columns,
                distinct: false,
                doc_ordered: false,
            }
        }
        AlgOp::RowNum { input, target, .. } => {
            let child = get(props, *input);
            let mut columns = child.columns.clone();
            columns.push(target.clone());
            Properties {
                // A numbering column is a key, so the output is distinct
                // (per partition the numbers are unique; together with the
                // partition column they key the row).
                columns,
                distinct: true,
                doc_ordered: false,
            }
        }
        AlgOp::BinaryMap { input, target, .. }
        | AlgOp::UnaryMap { input, target, .. }
        | AlgOp::Attach { input, target, .. } => {
            let child = get(props, *input);
            let mut columns = child.columns.clone();
            columns.push(target.clone());
            Properties {
                columns,
                distinct: child.distinct,
                doc_ordered: false,
            }
        }
        AlgOp::ThetaCount { count, .. } => Properties {
            columns: vec![count.group.clone(), count.result.clone()],
            distinct: true,
            doc_ordered: false,
        },
        AlgOp::Aggregate { group, target, .. } => Properties {
            columns: vec![group.clone(), target.clone()],
            distinct: true,
            doc_ordered: false,
        },
        AlgOp::Step { .. } => Properties {
            columns: vec!["iter".into(), "pos".into(), "item".into()],
            distinct: true,
            // The staircase join produces document order and removes
            // duplicates per iteration by construction.
            doc_ordered: true,
        },
        AlgOp::DocOrder { input } => {
            let child = get(props, *input);
            Properties {
                columns: child.columns.clone(),
                distinct: true,
                doc_ordered: true,
            }
        }
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            let child = get(props, *input);
            Properties {
                columns: child.columns.clone(),
                distinct: false,
                doc_ordered: false,
            }
        }
        AlgOp::Ebv { .. } => Properties {
            columns: vec!["iter".into(), "item".into()],
            distinct: true,
            doc_ordered: false,
        },
        AlgOp::ElemConstruct { .. } | AlgOp::TextConstruct { .. } | AlgOp::AttrConstruct { .. } => {
            Properties {
                columns: vec!["iter".into(), "pos".into(), "item".into()],
                distinct: true,
                doc_ordered: false,
            }
        }
        AlgOp::Sort { input, .. } => {
            let child = get(props, *input);
            Properties {
                columns: child.columns.clone(),
                distinct: child.distinct,
                doc_ordered: child.doc_ordered,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SortSpec;
    use crate::plan::PlanBuilder;
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
        assert!(props[&step].distinct);
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
        assert!(
            !props[&proj].distinct,
            "dropping a column may introduce duplicates"
        );
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
        assert!(props[&r].distinct);
        assert_eq!(props[&r].columns, vec!["iter", "pos", "inner"]);
    }
}
