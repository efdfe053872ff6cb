//! Index-scan introduction: σ(content predicate over a step) → `IndexScan`.
//!
//! The loop-lifting compiler (`pf-xquery`) emits a small set of fixed
//! shapes for content predicates, and this rule recognizes exactly those:
//!
//! * **Exact** — the existential comparison: `σ_res` over
//!   `⊙res:(item ⋈cmp item1)` over an `iter`-equi-join of a step-derived
//!   side and a loop-lifted constant side.  Non-candidate step rows
//!   evaluate to `false` and are dropped by the σ anyway, so they can be
//!   filtered *before* the join.
//! * **Theta** — a θ-join whose one side is a loop-lifted literal and
//!   whose other side is a step chain (the compiled form of
//!   `number(step) <op> literal` in `where` clauses).  The join itself is
//!   the residual: it re-evaluates the comparison on every surviving
//!   pair, and every pair compares against the same literal.
//! * **Ebv** — the `ebv_bool` scaffolding of `where`/`if`/filters.  In
//!   the shape selection pushdown leaves behind, the σ sits directly on
//!   the `ebv` operator; the completed-`false` branch
//!   (`(loop \ π_iter(ebv)) @item:=false` re-filtered on `item`) hangs
//!   off the ebv's second consumer and can never emit a row.  A dropped
//!   singleton `iter` thus vanishes from both branches.  Groups of two or
//!   more rows short-circuit the effective boolean value to `true`
//!   without touching the predicate, so the executor only filters
//!   singleton groups ([`IndexMode::Ebv`]); statically we require the
//!   constant side to be keyed on its join column so group sizes at the
//!   splice point equal group sizes at the `ebv`.  The pre-pushdown
//!   variant — σ over the whole union — is matched as well.
//!
//! The spliced [`AlgOp::IndexScan`] sits directly above the step (below
//! the data/cast/projection chain), carries the probe and the document
//! URI (from the same provenance walk the cardinality estimator uses),
//! and keeps the original predicate untouched as the **residual**: index
//! candidates are a superset of the matching rows *and* of the rows on
//! which the predicate pipeline would raise an error, so answers and
//! error behavior stay byte-identical.
//!
//! The chain between the splice point and the recognized anchor must be
//! single-consumer — otherwise a third party would observe filtered
//! intermediates.  The step itself may stay shared; only the edge above
//! it is redirected.

use pf_relational::ops::{
    text_fragments, BinaryOp, CmpOp, IndexMode, IndexProbe, IndexTarget, UnaryOp,
};
use pf_relational::Value;
use pf_store::{Axis, NodeTest};

use crate::ops::AlgOp;
use crate::optimize::OptimizeReport;
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;

/// Introduce every `IndexScan` `props`, the analysis of `plan`, justifies
/// (document provenance and key sets are what the rule reads).  A splice
/// moves an edge and never changes a consumer count, and each recognized
/// chain is single-consumer, so one sweep over one set of counts finds
/// every splice: a chain already spliced no longer ends at a step.
pub(crate) fn introduce_index_scans(
    plan: &mut Plan,
    props: &PlanProperties,
    report: &mut OptimizeReport,
) -> bool {
    let consumers = plan.consumer_counts();
    let mut changed = false;
    for id in plan.reachable() {
        let rewrite = match plan.op(id) {
            AlgOp::Select { input, column } => {
                let (input, column) = (*input, column.clone());
                match_exact(plan, &consumers, props, input, &column)
                    .or_else(|| match_ebv_union(plan, &consumers, props, input, &column))
                    .or_else(|| match_ebv_pushed(plan, &consumers, props, id, input, &column))
            }
            AlgOp::ThetaJoin {
                left,
                right,
                left_col,
                op,
                right_col,
            } => trace_sides(
                plan,
                &consumers,
                id,
                (*left, left_col),
                (*right, right_col),
                *op,
            )
            .and_then(|traced| build_rewrite(plan, props, traced, IndexMode::Exact)),
            _ => continue,
        };
        let Some(rw) = rewrite else {
            continue;
        };
        let scan = AlgOp::IndexScan {
            input: rw.base,
            uri: rw.uri,
            probe: rw.probe,
            mode: rw.mode,
        };
        plan.ops_mut().push(scan);
        let scan_id = plan.ops().len() - 1;
        let slot = plan
            .op(rw.parent)
            .children()
            .iter()
            .position(|c| *c == rw.base)
            .expect("parent-child edge recorded during the walk");
        plan.ops_mut()[rw.parent].replace_child(slot, scan_id);
        report.index_scans_introduced += 1;
        changed = true;
    }
    changed
}

/// One recognized splice: redirect `parent`'s edge to `base` through a new
/// `IndexScan{input: base, uri, probe, mode}`.
struct Rewrite {
    parent: OpId,
    base: OpId,
    uri: String,
    probe: IndexProbe,
    mode: IndexMode,
}

/// The step side of a recognized predicate: the chain walked down from the
/// comparison's operand column to the step (or ddo-over-step) `base`,
/// entered from `parent`.
struct NodeSide {
    parent: OpId,
    base: OpId,
    to_number: bool,
}

/// A fully traced comparison: the step side, the (possibly mirrored)
/// operator, the literal, and the constant side's `(operator, column)` —
/// the latter so EBV matching can require the constant side to be keyed.
type Traced = (NodeSide, BinaryOp, Value, (OpId, String));

/// Pattern A: `Select{mapped, res}` with
/// `mapped = BinaryMap{joined, res, item ⊙ item1}` over an equi-join of a
/// step chain and a constant chain.
fn match_exact(
    plan: &Plan,
    consumers: &[usize],
    props: &PlanProperties,
    mapped_id: OpId,
    column: &str,
) -> Option<Rewrite> {
    let AlgOp::BinaryMap {
        input: joined,
        target,
        left,
        op,
        right,
    } = plan.op(mapped_id)
    else {
        return None;
    };
    if target != column || consumers[mapped_id] != 1 {
        return None;
    }
    let AlgOp::EquiJoin {
        left: jl,
        right: jr,
        ..
    } = plan.op(*joined)
    else {
        return None;
    };
    if consumers[*joined] != 1 {
        return None;
    }
    let traced = trace_sides(plan, consumers, *joined, (*jl, left), (*jr, right), *op)?;
    build_rewrite(plan, props, traced, IndexMode::Exact)
}

/// Pattern B: the pre-pushdown `ebv_bool` scaffolding with the σ over its
/// union: `σ_item( π[iter,item](ebv) ∪ @item:=false(loop \ π_iter(ebv)) )`.
fn match_ebv_union(
    plan: &Plan,
    consumers: &[usize],
    props: &PlanProperties,
    union_id: OpId,
    column: &str,
) -> Option<Rewrite> {
    if column != "item" {
        return None;
    }
    let AlgOp::Union {
        left: present,
        right: missing,
    } = plan.op(union_id)
    else {
        return None;
    };
    if consumers[union_id] != 1 {
        return None;
    }
    // present = π[iter,item](ebv)
    let AlgOp::Project {
        input: ebv_id,
        columns: pc,
    } = plan.op(*present)
    else {
        return None;
    };
    if consumers[*present] != 1 || !same_mapping(pc, &[("iter", "iter"), ("item", "item")]) {
        return None;
    }
    let ebv_id = *ebv_id;
    if consumers[ebv_id] != 2 {
        return None;
    }
    // missing = @item:=false (loop \ π[iter](ebv))
    let AlgOp::Attach {
        input: diff,
        target,
        value,
    } = plan.op(*missing)
    else {
        return None;
    };
    if consumers[*missing] != 1 || target != "item" || *value != Value::Bool(false) {
        return None;
    }
    let AlgOp::Difference {
        left: _loop_rel,
        right: present_iters,
    } = plan.op(*diff)
    else {
        return None;
    };
    if consumers[*diff] != 1 {
        return None;
    }
    let AlgOp::Project {
        input: ebv_again,
        columns: pic,
    } = plan.op(*present_iters)
    else {
        return None;
    };
    if consumers[*present_iters] != 1
        || *ebv_again != ebv_id
        || !same_mapping(pic, &[("iter", "iter")])
    {
        return None;
    }
    ebv_predicate(plan, consumers, props, ebv_id)
}

/// Pattern B′: the post-pushdown `ebv_bool` scaffolding — the σ sits
/// directly on the `ebv`; its second consumer is the completed-`false`
/// branch, which re-filters on the constant `false` and so never emits a
/// row whatever flows into it.
fn match_ebv_pushed(
    plan: &Plan,
    consumers: &[usize],
    props: &PlanProperties,
    anchor_id: OpId,
    ebv_id: OpId,
    column: &str,
) -> Option<Rewrite> {
    if column != "item" || !matches!(plan.op(ebv_id), AlgOp::Ebv { .. }) {
        return None;
    }
    if consumers[ebv_id] != 2 {
        return None;
    }
    // The other consumer: π[iter](ebv), the right side of a difference,
    // completed to `false` and immediately σ-filtered on `item`.
    let others: Vec<OpId> = consumers_of(plan, ebv_id)
        .into_iter()
        .filter(|&c| c != anchor_id)
        .collect();
    let [iters_id] = others[..] else {
        return None;
    };
    let AlgOp::Project {
        input: ebv_again,
        columns: pic,
    } = plan.op(iters_id)
    else {
        return None;
    };
    if consumers[iters_id] != 1 || *ebv_again != ebv_id || !same_mapping(pic, &[("iter", "iter")]) {
        return None;
    }
    let [diff_id] = consumers_of(plan, iters_id)[..] else {
        return None;
    };
    let AlgOp::Difference { right, .. } = plan.op(diff_id) else {
        return None;
    };
    if *right != iters_id || consumers[diff_id] != 1 {
        return None;
    }
    let [attach_id] = consumers_of(plan, diff_id)[..] else {
        return None;
    };
    let AlgOp::Attach { target, value, .. } = plan.op(attach_id) else {
        return None;
    };
    if target != "item" || *value != Value::Bool(false) || consumers[attach_id] != 1 {
        return None;
    }
    let [kill_id] = consumers_of(plan, attach_id)[..] else {
        return None;
    };
    if !matches!(plan.op(kill_id), AlgOp::Select { column, .. } if column == "item") {
        return None;
    }
    ebv_predicate(plan, consumers, props, ebv_id)
}

/// The shared predicate half of both EBV patterns: walk the `ebv` input
/// through single-consumer projections to the comparison, require the
/// equi-join underneath, require the constant side keyed on its join
/// column (so dropping step rows drops whole `iter` groups and group
/// sizes at the splice point equal group sizes at the `ebv`), trace both
/// sides and build the [`IndexMode::Ebv`] rewrite.
fn ebv_predicate(
    plan: &Plan,
    consumers: &[usize],
    props: &PlanProperties,
    ebv_id: OpId,
) -> Option<Rewrite> {
    let AlgOp::Ebv { input: pred } = plan.op(ebv_id) else {
        return None;
    };
    let mut col = "item".to_string();
    let mut cur = *pred;
    loop {
        match plan.op(cur) {
            AlgOp::Project { input, columns } => {
                if consumers[cur] != 1 {
                    return None;
                }
                let (src, _) = columns.iter().find(|(_, t)| *t == col)?;
                col = src.clone();
                cur = *input;
            }
            AlgOp::BinaryMap { .. } => break,
            _ => return None,
        }
    }
    let AlgOp::BinaryMap {
        input: joined,
        target,
        left,
        op,
        right,
    } = plan.op(cur)
    else {
        return None;
    };
    if *target != col || consumers[cur] != 1 {
        return None;
    }
    let AlgOp::EquiJoin {
        left: jl,
        right: jr,
        left_col: jl_col,
        right_col: jr_col,
    } = plan.op(*joined)
    else {
        return None;
    };
    if consumers[*joined] != 1 || jl == jr {
        return None;
    }
    let traced = trace_sides(plan, consumers, *joined, (*jl, left), (*jr, right), *op)?;
    // EBV group sizes must equal step fan-out: the constant side may
    // contribute at most one row per iteration, i.e. its *join* column
    // must be a key (one constant row per iteration group).
    let const_id = traced.3 .0;
    let join_col = if const_id == *jl { jl_col } else { jr_col };
    let key: std::collections::BTreeSet<String> = [join_col.clone()].into();
    if !props.keyed_by(const_id, &key) {
        return None;
    }
    build_rewrite(plan, props, traced, IndexMode::Ebv)
}

/// Try (left = step side, right = constant side); on failure, the mirror
/// with a flipped comparison operator.  Substring tests only accept the
/// needle on the right.
fn trace_sides(
    plan: &Plan,
    consumers: &[usize],
    joined: OpId,
    (jl, left): (OpId, &str),
    (jr, right): (OpId, &str),
    op: BinaryOp,
) -> Option<Traced> {
    if let (Some(node), Some(constant)) = (
        trace_node_side(plan, consumers, joined, jl, left),
        trace_const_side(plan, jr, right),
    ) {
        return Some((node, op, constant, (jr, right.to_string())));
    }
    if let BinaryOp::Cmp(cmp) = op {
        if let (Some(node), Some(constant)) = (
            trace_node_side(plan, consumers, joined, jr, right),
            trace_const_side(plan, jl, left),
        ) {
            return Some((
                node,
                BinaryOp::Cmp(cmp.mirror()),
                constant,
                (jl, left.to_string()),
            ));
        }
    }
    None
}

/// Walk one join input down to a step (or ddo) whose `item` feeds `col`.
/// Only operators that cannot raise an error on a dropped row — and whose
/// effect on the probed column the probe replicates — are crossed:
/// projections (renaming), `fn:data` (atomization to the string value the
/// indexes store), constant attaches to *other* columns, and a single
/// `fn:number` cast on the probed column (recorded in the probe so cast
/// errors keep their rows as candidates).  Every crossed operator must be
/// single-consumer; the base may stay shared.
fn trace_node_side(
    plan: &Plan,
    consumers: &[usize],
    mut parent: OpId,
    mut cur: OpId,
    col: &str,
) -> Option<NodeSide> {
    let mut col = col.to_string();
    let mut to_number = false;
    loop {
        match plan.op(cur) {
            AlgOp::Step { .. } | AlgOp::DocOrder { .. } => {
                if col != "item" {
                    return None;
                }
                return Some(NodeSide {
                    parent,
                    base: cur,
                    to_number,
                });
            }
            AlgOp::Project { input, columns } => {
                if consumers[cur] != 1 {
                    return None;
                }
                let (src, _) = columns.iter().find(|(_, t)| *t == col)?;
                col = src.clone();
                parent = cur;
                cur = *input;
            }
            AlgOp::FnData { input } => {
                if consumers[cur] != 1 {
                    return None;
                }
                parent = cur;
                cur = *input;
            }
            AlgOp::Attach { input, target, .. } => {
                if consumers[cur] != 1 || *target == col {
                    return None;
                }
                parent = cur;
                cur = *input;
            }
            AlgOp::UnaryMap {
                input,
                target,
                op,
                source,
            } => {
                if consumers[cur] != 1 || *target != col || *op != UnaryOp::ToNumber || to_number {
                    return None;
                }
                to_number = true;
                col = source.clone();
                parent = cur;
                cur = *input;
            }
            _ => return None,
        }
    }
}

/// Walk one join input down to the loop-lifted literal it carries in
/// `col`.  No consumer constraints: the constant side is never modified.
fn trace_const_side(plan: &Plan, mut cur: OpId, col: &str) -> Option<Value> {
    let mut col = col.to_string();
    loop {
        match plan.op(cur) {
            AlgOp::Project { input, columns } => {
                let (src, _) = columns.iter().find(|(_, t)| *t == col)?;
                col = src.clone();
                cur = *input;
            }
            AlgOp::FnData { input } => cur = *input, // identity on atomics
            AlgOp::Attach {
                input,
                target,
                value,
            } => {
                if *target == col {
                    return Some(value.clone());
                }
                cur = *input;
            }
            AlgOp::RowNum { input, target, .. } => {
                if *target == col {
                    return None;
                }
                cur = *input;
            }
            AlgOp::Lit { columns, rows } => {
                let idx = columns.iter().position(|c| c == &col)?;
                let first = rows.first()?[idx].clone();
                return rows.iter().all(|r| r[idx] == first).then_some(first);
            }
            _ => return None,
        }
    }
}

/// Turn a traced (step side, operator, constant) triple into a rewrite,
/// checking the probe is actually answerable: known document, supported
/// operator/constant, and a step whose rows the probe understands.
fn build_rewrite(
    plan: &Plan,
    props: &PlanProperties,
    (node, op, constant, _const_side): Traced,
    mode: IndexMode,
) -> Option<Rewrite> {
    let uri = props.doc(node.base)?.to_string();
    let probe = match op {
        BinaryOp::Contains | BinaryOp::StartsWith => {
            if node.to_number {
                return None;
            }
            // Rows must be nodes: any ddo output, or any non-attribute step.
            match plan.op(node.base) {
                AlgOp::Step {
                    axis: Axis::Attribute,
                    ..
                } => return None,
                AlgOp::Step { .. } | AlgOp::DocOrder { .. } => {}
                _ => unreachable!("trace_node_side only returns steps and ddo"),
            }
            let needle = constant.to_xdm_string();
            if text_fragments(&needle).is_empty() {
                return None; // no alphanumeric content — the token index cannot filter
            }
            IndexProbe::TextContains { needle }
        }
        BinaryOp::Cmp(cmp) => {
            if cmp == CmpOp::Ne {
                return None; // candidates would be nearly everything
            }
            if matches!(constant, Value::Dbl(d) if d.is_nan()) || matches!(constant, Value::Node(_))
            {
                return None;
            }
            // The probe target must describe *every* row of the base: a
            // named-attribute step (rows are that attribute's values) or a
            // named-element step (rows are elements of that tag).
            let target = match plan.op(node.base) {
                AlgOp::Step {
                    axis: Axis::Attribute,
                    test: NodeTest::Attribute(name),
                    ..
                } => IndexTarget::AttributeName(name.clone()),
                AlgOp::Step {
                    axis: Axis::Attribute,
                    ..
                } => return None,
                AlgOp::Step {
                    test: NodeTest::Element(tag),
                    ..
                } => IndexTarget::ElementTag(tag.clone()),
                AlgOp::DocOrder { input } => match plan.op(*input) {
                    AlgOp::Step {
                        axis,
                        test: NodeTest::Element(tag),
                        ..
                    } if *axis != Axis::Attribute => IndexTarget::ElementTag(tag.clone()),
                    _ => return None,
                },
                _ => return None,
            };
            IndexProbe::ValueCmp {
                target,
                op: cmp,
                value: constant,
                to_number: node.to_number,
            }
        }
        _ => return None,
    };
    Some(Rewrite {
        parent: node.parent,
        base: node.base,
        uri,
        probe,
        mode,
    })
}

/// Set-equality of a projection mapping against an expected set.
fn same_mapping(columns: &[(String, String)], expected: &[(&str, &str)]) -> bool {
    columns.len() == expected.len()
        && expected
            .iter()
            .all(|(s, t)| columns.iter().any(|(cs, ct)| cs == s && ct == t))
}

/// The reachable operators consuming `target` (each listed once, however
/// many of its edges point there).
fn consumers_of(plan: &Plan, target: OpId) -> Vec<OpId> {
    plan.reachable()
        .into_iter()
        .filter(|&id| plan.op(id).children().contains(&target))
        .collect()
}
