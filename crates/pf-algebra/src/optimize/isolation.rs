//! Order-sensitivity analysis: where in the DAG does row order matter?
//!
//! XQuery is an ordered language, but the loop-lifted encoding keeps
//! order in *data* (`iter`/`pos` columns), not in physical row order —
//! mostly.  Serialization stably re-sorts the root by `pos`; axis steps
//! and `ddo` sort-normalize their inputs; `rownum` numbers rows
//! deterministically whenever its sort keys cover a key of its input.
//! Physical row order therefore only matters where a sort-tie, a
//! first-appearance rule or an order-sensitive aggregate could observe
//! it.
//!
//! The inference itself — keys, constants, value provenance, order
//! freedom — lives in the unified property pass of
//! [`crate::properties::PlanProperties`]; [`Isolation`] is the
//! order-analysis view over it, kept as a stable entry point for rules
//! and tests that only need keys and order freedom.
//!
//! Join reordering only fires inside regions where `order_free` holds:
//! there, a join's left-major output order is unobservable and the
//! equi-join cluster is just a bag-semantics join graph.

use std::collections::{BTreeMap, BTreeSet};

use pf_relational::Value;

use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;

/// Per-operator key sets, constant columns, and order-freedom for one
/// plan — a view over [`PlanProperties`].  Indexed by [`OpId`]; entries
/// for unreachable operators are empty/false.
#[derive(Debug, Clone)]
pub struct Isolation {
    props: PlanProperties,
}

impl Isolation {
    /// Analyze `plan`.
    pub fn analyze(plan: &Plan) -> Isolation {
        Isolation {
            props: PlanProperties::analyze(plan),
        }
    }

    /// `true` if some key of `id`, after removing provably constant
    /// columns, is contained in `cols` — i.e. rows of `id` are distinct
    /// on `cols`.
    pub fn keyed_by(&self, id: OpId, cols: &BTreeSet<String>) -> bool {
        self.props.keyed_by(id, cols)
    }

    /// Whether permuting the rows of `id` is unobservable in the
    /// serialized result.
    pub fn order_free(&self, id: OpId) -> bool {
        self.props.order_free(id)
    }

    /// The inferred key sets of `id` (for tests/diagnostics).
    pub fn keys(&self, id: OpId) -> Vec<BTreeSet<String>> {
        self.props.keys(id)
    }

    /// The provably constant columns of `id`, with statically known
    /// values where available (for tests/diagnostics).
    pub fn constants(&self, id: OpId) -> &BTreeMap<String, Option<Value>> {
        self.props.constants(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AlgOp;
    use crate::plan::PlanBuilder;
    use pf_relational::ops::AggFunc;
    use pf_relational::Value;
    use pf_store::{Axis, NodeTest};

    fn set(cols: &[&str]) -> BTreeSet<String> {
        cols.iter().map(|c| c.to_string()).collect()
    }

    fn doc_step(b: &mut PlanBuilder, uri: &str) -> OpId {
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(0)]],
        });
        b.add(AlgOp::Step {
            input: l,
            axis: Axis::Descendant,
            test: NodeTest::Element(uri.into()),
        })
    }

    #[test]
    fn step_output_is_keyed_and_constant_iter_shrinks_the_key() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "a");
        let plan = b.finish(s);
        let iso = Isolation::analyze(&plan);
        // iter is constant (single-iteration literal below), so {pos}
        // alone determines rows.
        assert!(iso.constants(s).contains_key("iter"));
        assert!(iso.keyed_by(s, &set(&["pos"])));
        assert!(iso.keyed_by(s, &set(&["item"])));
        assert!(!iso.keyed_by(s, &BTreeSet::new()));
        // Serialization sorts by pos, which keys the root: order-free.
        assert!(iso.order_free(s));
    }

    #[test]
    fn order_sensitive_aggregate_pins_its_input() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "a");
        let fd = b.add(AlgOp::FnData { input: s });
        let agg = b.add(AlgOp::Aggregate {
            input: fd,
            group: "iter".into(),
            target: "item".into(),
            func: AggFunc::Sum,
            value: "item".into(),
        });
        // Give the root a pos column so serialization is key-covered.
        let at = b.add(AlgOp::Attach {
            input: agg,
            target: "pos".into(),
            value: Value::Nat(1),
        });
        let plan = b.finish(at);
        let iso = Isolation::analyze(&plan);
        assert!(iso.order_free(at));
        assert!(iso.order_free(agg));
        // But everything feeding the Sum is order-pinned.
        assert!(!iso.order_free(fd));
        assert!(!iso.order_free(s));
    }

    #[test]
    fn count_aggregate_keeps_the_region_order_free() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "a");
        let agg = b.add(AlgOp::Aggregate {
            input: s,
            group: "iter".into(),
            target: "item".into(),
            func: AggFunc::Count,
            value: "item".into(),
        });
        let at = b.add(AlgOp::Attach {
            input: agg,
            target: "pos".into(),
            value: Value::Nat(1),
        });
        let plan = b.finish(at);
        let iso = Isolation::analyze(&plan);
        assert!(iso.order_free(s));
    }

    #[test]
    fn rownum_without_covering_keys_pins_its_input() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![
                vec![Value::Nat(1), Value::Int(5)],
                vec![Value::Nat(2), Value::Int(5)],
            ],
        });
        let rn = b.add(AlgOp::RowNum {
            input: l,
            target: "pos".into(),
            order_by: vec![crate::ops::SortSpec {
                column: "item".into(),
                descending: false,
            }],
            partition: None,
        });
        let plan = b.finish(rn);
        let iso = Isolation::analyze(&plan);
        // item does not key the literal (duplicate 5s): numbering order
        // observable.
        assert!(!iso.order_free(l));

        // With a key-covering order_by, the same shape is order-free.
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![
                vec![Value::Nat(1), Value::Int(5)],
                vec![Value::Nat(2), Value::Int(5)],
            ],
        });
        let rn = b.add(AlgOp::RowNum {
            input: l,
            target: "pos".into(),
            order_by: vec![crate::ops::SortSpec {
                column: "iter".into(),
                descending: false,
            }],
            partition: None,
        });
        let plan = b.finish(rn);
        let iso = Isolation::analyze(&plan);
        assert!(iso.order_free(l));
        assert!(iso.keyed_by(rn, &set(&["pos"])));
    }

    #[test]
    fn equijoin_on_keyed_side_preserves_other_side_keys() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "a");
        let lookup = b.add(AlgOp::Lit {
            columns: vec!["key".into(), "val".into()],
            rows: vec![
                vec![Value::Nat(1), Value::Int(10)],
                vec![Value::Nat(2), Value::Int(20)],
            ],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: s,
            right: lookup,
            left_col: "iter".into(),
            right_col: "key".into(),
        });
        let plan = b.finish(join);
        let iso = Isolation::analyze(&plan);
        // `key` keys the lookup side, so the step's {iter,pos} key
        // survives the join (and iter is still constant).
        assert!(iso.keyed_by(join, &set(&["pos"])));
    }

    #[test]
    fn root_without_pos_column_is_order_pinned() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Int(1)]],
        });
        let plan = b.finish(l);
        let iso = Isolation::analyze(&plan);
        assert!(!iso.order_free(l));
    }

    /// Two branches tagged with different `ord` constants: the union is
    /// keyed by {ord} ∪ (a key per side).
    #[test]
    fn constant_discriminated_union_keeps_a_key() {
        let mut b = PlanBuilder::new();
        let s1 = doc_step(&mut b, "a");
        let s2 = doc_step(&mut b, "b");
        let t1 = b.add(AlgOp::Attach {
            input: s1,
            target: "ord".into(),
            value: Value::Nat(1),
        });
        let t2 = b.add(AlgOp::Attach {
            input: s2,
            target: "ord".into(),
            value: Value::Nat(2),
        });
        let u = b.add(AlgOp::Union {
            left: t1,
            right: t2,
        });
        let plan = b.finish(u);
        let iso = Isolation::analyze(&plan);
        assert!(iso.keyed_by(u, &set(&["ord", "pos"])));
        assert!(!iso.keyed_by(u, &set(&["pos"])));

        // Same ord value on both sides: no discrimination, no key.
        let mut b = PlanBuilder::new();
        let s1 = doc_step(&mut b, "a");
        let s2 = doc_step(&mut b, "b");
        let t1 = b.add(AlgOp::Attach {
            input: s1,
            target: "ord".into(),
            value: Value::Nat(1),
        });
        let t2 = b.add(AlgOp::Attach {
            input: s2,
            target: "ord".into(),
            value: Value::Nat(1),
        });
        let u = b.add(AlgOp::Union {
            left: t1,
            right: t2,
        });
        let plan = b.finish(u);
        let iso = Isolation::analyze(&plan);
        assert!(!iso.keyed_by(u, &set(&["ord", "pos"])));
    }

    /// The compiler's default-branch plumbing: `agg ∪ (all ∖ agg)` on
    /// the iter column.  Provenance proves the sides disjoint, so the
    /// union keeps the {iter} key.
    #[test]
    fn difference_complement_union_keeps_a_key() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "a");
        // One row per item: iter column = item ids (a key).
        let all = b.add(AlgOp::Project {
            input: s,
            columns: vec![("item".into(), "iter".into())],
        });
        let agg_in = b.add(AlgOp::SelectEq {
            input: s,
            column: "pos".into(),
            value: Value::Nat(1),
        });
        let agg_iters = b.add(AlgOp::Project {
            input: agg_in,
            columns: vec![("item".into(), "iter".into())],
        });
        let agg = b.add(AlgOp::Aggregate {
            input: agg_iters,
            group: "iter".into(),
            target: "res".into(),
            func: AggFunc::Count,
            value: "iter".into(),
        });
        let hit = b.add(AlgOp::Project {
            input: agg,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("res".into(), "item".into()),
            ],
        });
        // Default branch: iters with no aggregate row.
        let agg_keys = b.add(AlgOp::Project {
            input: agg,
            columns: vec![("iter".into(), "iter".into())],
        });
        let missing = b.add(AlgOp::Difference {
            left: all,
            right: agg_keys,
        });
        let dflt = b.add(AlgOp::Attach {
            input: missing,
            target: "item".into(),
            value: Value::Int(0),
        });
        let u = b.add(AlgOp::Union {
            left: hit,
            right: dflt,
        });
        let plan = b.finish(u);
        let iso = Isolation::analyze(&plan);
        assert!(
            iso.keyed_by(u, &set(&["iter"])),
            "complement union should be keyed on iter; keys = {:?}",
            iso.keys(u)
        );
    }
}
