//! Static plan verification.
//!
//! With six peephole rules and the join-graph-isolation rules (pushdown,
//! reordering, index scans, rank counts, scaffolding deletion) composing
//! at fixpoint, a latent rewrite bug can only surface as a wrong query
//! answer.  This module catches it at *plan time* instead: after every
//! rule application the optimizer can check
//!
//! * **structural well-formedness** ([`verify_plan`]) — every child
//!   reference is in bounds, the plan is acyclic from the root, every
//!   column an operator references resolves in its input's inferred
//!   schema, literal rows have the declared arity, `IndexScan` sits on
//!   the step shape whose document actually backs the probed sidecar
//!   (the candidate-superset precondition), and the root produces at
//!   least one column; and
//! * **semantic invariants** ([`verify_rewrite`]) — a rewrite must
//!   preserve the root schema exactly and may only *strengthen* the
//!   statically proven key sets and constant columns captured in the
//!   pre-rewrite [`PlanDigest`], and may only narrow the proven value
//!   types of the root columns.  (A rewrite that loses a key the
//!   analysis had proven would silently disable downstream rewrites that
//!   relied on it — and usually means rows were duplicated or dropped.)
//!   Every [`AlgOp::ThetaCount`] of the rewritten plan must be one the
//!   pre-rewrite plan justifies: a count over a pair table may only be
//!   replaced where the scaffolding in between is provably row-for-row.
//!
//! The optimizer runs these checks between rule applications in debug
//! builds, which every `cargo test` run is, and skips them in release
//! (see [`crate::optimize::optimize_with_verify`]).  Error messages for
//! semantic failures embed the property-annotated plan dump
//! ([`crate::render::to_ascii_annotated`]) so a rejected rewrite is
//! debuggable from the message alone.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use pf_relational::ops::IndexProbe;
use pf_relational::Value;

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::properties::{PlanProperties, TypeSet};

/// A verification failure: which invariant broke, attributed to the
/// rewrite rule that broke it when checked via [`verify_rewrite`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The rewrite rule being checked, if the failure surfaced in
    /// [`verify_rewrite`]; `None` for a standalone [`verify_plan`] call.
    pub rule: Option<String>,
    /// What broke, with operator ids and (for semantic failures) the
    /// annotated plan dump.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.rule {
            Some(rule) => write!(
                f,
                "plan verification failed after rule `{rule}`: {}",
                self.message
            ),
            None => write!(f, "plan verification failed: {}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(message: String) -> VerifyError {
    VerifyError {
        rule: None,
        message,
    }
}

/// The root-level properties a rewrite must preserve (schema) or may
/// only strengthen (keys, constants).  Capture one with [`digest`]
/// before mutating a plan, then check the mutated plan against it with
/// [`verify_rewrite`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDigest {
    /// Root output columns, in schema order.
    pub columns: Vec<String>,
    /// Key sets proven at the root.
    pub keys: Vec<BTreeSet<String>>,
    /// Constant columns proven at the root (with statically known
    /// values where available).
    pub constants: BTreeMap<String, Option<Value>>,
    /// The value types proven for root columns.
    pub types: BTreeMap<String, TypeSet>,
    /// The [`AlgOp::ThetaCount`] operators the plan justifies, inputs
    /// erased: the ones it already contains, and one per count aggregate
    /// whose input is row-aligned with a θ-join's distinct pairs
    /// ([`crate::optimize::thetacount`]).
    pub theta_counts: Vec<AlgOp>,
}

/// Capture the root-level property digest of `plan`.  The plan must be
/// well-formed (run [`verify_plan`] first when in doubt).
pub fn digest(plan: &Plan) -> PlanDigest {
    let props = PlanProperties::analyze(plan);
    let root = plan.root();
    let justified = crate::optimize::thetacount::candidates(plan, &props);
    PlanDigest {
        columns: props.columns(root).to_vec(),
        keys: props.keys(root),
        constants: props.constants(root).clone(),
        types: props.typed_columns(root).clone(),
        theta_counts: theta_counts(plan)
            .chain(justified.iter().map(|candidate| &candidate.count))
            .map(without_inputs)
            .collect(),
    }
}

/// The reachable [`AlgOp::ThetaCount`] operators of `plan`.
fn theta_counts(plan: &Plan) -> impl Iterator<Item = &AlgOp> {
    let reachable = plan.reachable().into_iter().map(|id| plan.op(id));
    reachable.filter(|op| matches!(op, AlgOp::ThetaCount { .. }))
}

/// `op` with its inputs erased: rank counts are compared by columns and
/// comparison, not by input id — other rules may redirect inputs to equal
/// subplans, and column resolution pins them to the right schemas anyway.
fn without_inputs(op: &AlgOp) -> AlgOp {
    let mut op = op.clone();
    for slot in 0..op.children().len() {
        op.replace_child(slot, 0);
    }
    op
}

/// Check `plan` for structural well-formedness.  See the module docs
/// for the invariant list.  Cheap enough to run after every rewrite:
/// one arena scan, one DFS, and one property pass.
pub fn verify_plan(plan: &Plan) -> Result<(), VerifyError> {
    let n = plan.ops().len();
    // (a) Child bounds over the whole arena — before anything walks the
    // plan (`Plan::reachable` indexes by child id and would panic on a
    // dangling edge).
    for (id, op) in plan.ops().iter().enumerate() {
        for child in op.children() {
            if child >= n {
                return Err(err(format!(
                    "op #{id} {} references child #{child}, but the arena has {n} operators",
                    op.symbol()
                )));
            }
        }
    }
    if plan.root() >= n {
        return Err(err(format!(
            "root #{} out of bounds (arena has {n} operators)",
            plan.root()
        )));
    }
    // (b) Acyclicity from the root: iterative DFS with on-stack marks.
    const WHITE: u8 = 0;
    const ON_STACK: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![WHITE; n];
    let mut stack: Vec<(OpId, usize)> = vec![(plan.root(), 0)];
    state[plan.root()] = ON_STACK;
    while let Some((id, child_idx)) = stack.pop() {
        let children = plan.op(id).children();
        if child_idx >= children.len() {
            state[id] = DONE;
            continue;
        }
        stack.push((id, child_idx + 1));
        let child = children[child_idx];
        match state[child] {
            ON_STACK => {
                return Err(err(format!(
                    "cycle through op #{child} {} (reached again from #{id} {})",
                    plan.op(child).symbol(),
                    plan.op(id).symbol()
                )));
            }
            WHITE => {
                state[child] = ON_STACK;
                stack.push((child, 0));
            }
            _ => {}
        }
    }
    // (c) Literal-table invariants — before the property pass, which
    // scans literal rows for constants and would index out of bounds on
    // a ragged row.
    for (id, op) in plan.ops().iter().enumerate() {
        if let AlgOp::Lit { columns, rows } = op {
            let unique: HashSet<&String> = columns.iter().collect();
            if unique.len() != columns.len() {
                return Err(err(format!(
                    "op #{id} lit: duplicate column names in {columns:?}"
                )));
            }
            for (r, row) in rows.iter().enumerate() {
                if row.len() != columns.len() {
                    return Err(err(format!(
                        "op #{id} lit: row {r} has {} values for {} columns",
                        row.len(),
                        columns.len()
                    )));
                }
            }
        }
    }
    // (d) Per-operator checks over the (now provably safe to compute)
    // inferred schemas.
    let props = PlanProperties::analyze(plan);
    let resolve = |of: OpId, col: &str, what: &str, at: OpId| -> Result<(), VerifyError> {
        if props.columns(of).iter().any(|c| c == col) {
            Ok(())
        } else {
            Err(err(format!(
                "op #{at} {}: {what} column `{col}` does not resolve in input #{of} (columns: {:?})",
                plan.op(at).symbol(),
                props.columns(of)
            )))
        }
    };
    let fresh = |of: OpId, col: &str, at: OpId| -> Result<(), VerifyError> {
        if props.columns(of).iter().any(|c| c == col) {
            Err(err(format!(
                "op #{at} {}: target column `{col}` already exists in input #{of}",
                plan.op(at).symbol()
            )))
        } else {
            Ok(())
        }
    };
    let same_columns = |left: OpId, right: OpId, at: OpId| -> Result<(), VerifyError> {
        let l: BTreeSet<&String> = props.columns(left).iter().collect();
        let r: BTreeSet<&String> = props.columns(right).iter().collect();
        if l == r {
            Ok(())
        } else {
            Err(err(format!(
                "op #{at} {}: input schemas disagree ({:?} vs {:?})",
                plan.op(at).symbol(),
                props.columns(left),
                props.columns(right)
            )))
        }
    };
    for id in plan.reachable() {
        match plan.op(id) {
            // Literal invariants were checked in pass (c) above.
            AlgOp::Lit { .. } | AlgOp::Doc { .. } => {}
            AlgOp::Project { input, columns } => {
                let mut targets: HashSet<&String> = HashSet::new();
                for (src, tgt) in columns {
                    resolve(*input, src, "source", id)?;
                    if !targets.insert(tgt) {
                        return Err(err(format!("op #{id} π: duplicate target column `{tgt}`")));
                    }
                }
            }
            AlgOp::Select { input, column } | AlgOp::SelectEq { input, column, .. } => {
                resolve(*input, column, "predicate", id)?;
            }
            AlgOp::Distinct { .. } => {}
            AlgOp::Union { left, right } | AlgOp::Difference { left, right } => {
                same_columns(*left, *right, id)?;
            }
            AlgOp::EquiJoin {
                left,
                right,
                left_col,
                right_col,
            }
            | AlgOp::ThetaJoin {
                left,
                right,
                left_col,
                right_col,
                ..
            } => {
                resolve(*left, left_col, "left join", id)?;
                resolve(*right, right_col, "right join", id)?;
            }
            AlgOp::ThetaCount { left, right, count } => {
                resolve(*left, &count.group, "group", id)?;
                resolve(*left, &count.left_col, "left join", id)?;
                resolve(*right, &count.right_id, "counted", id)?;
                resolve(*right, &count.right_col, "right join", id)?;
                if count.result == count.group {
                    return Err(err(format!(
                        "op #{id} {}: count column collides with the group column",
                        plan.op(id).symbol()
                    )));
                }
            }
            AlgOp::Cross { .. } => {}
            AlgOp::RowNum {
                input,
                target,
                order_by,
                partition,
            } => {
                fresh(*input, target, id)?;
                for spec in order_by {
                    resolve(*input, &spec.column, "order-by", id)?;
                }
                if let Some(p) = partition {
                    resolve(*input, p, "partition", id)?;
                }
            }
            AlgOp::BinaryMap {
                input,
                target,
                left,
                right,
                ..
            } => {
                fresh(*input, target, id)?;
                resolve(*input, left, "left operand", id)?;
                resolve(*input, right, "right operand", id)?;
            }
            AlgOp::UnaryMap {
                input,
                target,
                source,
                ..
            } => {
                fresh(*input, target, id)?;
                resolve(*input, source, "operand", id)?;
            }
            AlgOp::Attach { input, target, .. } => {
                fresh(*input, target, id)?;
            }
            AlgOp::Aggregate {
                input,
                group,
                value,
                ..
            } => {
                resolve(*input, group, "group", id)?;
                resolve(*input, value, "aggregated", id)?;
            }
            AlgOp::Step { input, .. } => {
                resolve(*input, "iter", "context", id)?;
                resolve(*input, "item", "context", id)?;
            }
            AlgOp::IndexScan {
                input, uri, probe, ..
            } => {
                // Candidate-superset precondition: the sidecar consulted
                // must belong to the document that produced the rows
                // being filtered, and the base must be the step shape
                // whose rows the probe understands — otherwise candidate
                // sets are not supersets of the true matches and the
                // residual predicate cannot repair the loss.
                match plan.op(*input) {
                    AlgOp::Step { .. } | AlgOp::DocOrder { .. } => {}
                    other => {
                        return Err(err(format!(
                            "op #{id} idx: input #{input} is {} — an IndexScan may only \
                             filter a step or doc-order output",
                            other.symbol()
                        )));
                    }
                }
                match props.doc(*input) {
                    Some(doc) if doc == uri => {}
                    got => {
                        return Err(err(format!(
                            "op #{id} idx: probes indexes of `{uri}` but input #{input} \
                             has document provenance {got:?}"
                        )));
                    }
                }
                if let IndexProbe::ValueCmp { value, .. } = probe {
                    if matches!(value, Value::Dbl(d) if d.is_nan())
                        || matches!(value, Value::Node(_))
                    {
                        return Err(err(format!(
                            "op #{id} idx: unanswerable probe constant {value:?}"
                        )));
                    }
                }
            }
            AlgOp::DocOrder { input } => {
                resolve(*input, "iter", "ddo", id)?;
                resolve(*input, "item", "ddo", id)?;
            }
            AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
                resolve(*input, "item", "atomization", id)?;
            }
            AlgOp::Ebv { input } => {
                resolve(*input, "iter", "ebv", id)?;
                resolve(*input, "item", "ebv", id)?;
            }
            AlgOp::ElemConstruct {
                loop_input,
                content,
                ..
            } => {
                resolve(*loop_input, "iter", "loop", id)?;
                for col in ["iter", "pos", "item"] {
                    resolve(*content, col, "content", id)?;
                }
            }
            AlgOp::AttrConstruct {
                loop_input,
                content,
                ..
            }
            | AlgOp::TextConstruct {
                loop_input,
                content,
            } => {
                resolve(*loop_input, "iter", "loop", id)?;
                for col in ["iter", "pos", "item"] {
                    resolve(*content, col, "content", id)?;
                }
            }
            AlgOp::Sort { input, by } => {
                for spec in by {
                    resolve(*input, &spec.column, "sort", id)?;
                }
            }
        }
    }
    if props.columns(plan.root()).is_empty() {
        return Err(err("root produces no columns".into()));
    }
    Ok(())
}

/// Check that the (already mutated) `after` plan is well-formed and that
/// the rewrite that produced it preserved the root schema and only
/// strengthened the proven keys and constants relative to `before`
/// (captured with [`digest`] pre-rewrite).  `rule` names the rewrite for
/// the error message.
pub fn verify_rewrite(rule: &str, before: &PlanDigest, after: &Plan) -> Result<(), VerifyError> {
    let tag = |mut e: VerifyError| {
        e.rule = Some(rule.to_string());
        e
    };
    verify_plan(after).map_err(tag)?;
    let props = PlanProperties::analyze(after);
    let root = after.root();
    let semantic = |message: String| {
        tag(err(format!(
            "{message}\nannotated plan:\n{}",
            crate::render::to_ascii_annotated(after)
        )))
    };
    if props.columns(root) != before.columns.as_slice() {
        return Err(semantic(format!(
            "root schema changed: {:?} -> {:?}",
            before.columns,
            props.columns(root)
        )));
    }
    for key in &before.keys {
        if !props.keyed_by(root, key) {
            return Err(semantic(format!(
                "root key {key:?} was proven before the rewrite but not after \
                 (keys now: {:?})",
                props.keys(root)
            )));
        }
    }
    // A rank count stands for a count over a pair table, which is only
    // sound where the pre-rewrite plan justified it.
    for count in theta_counts(after) {
        if !before.theta_counts.contains(&without_inputs(count)) {
            let justified: Vec<String> = before.theta_counts.iter().map(AlgOp::symbol).collect();
            return Err(semantic(format!(
                "{} is not a count the plan before the rewrite justifies \
                 (justified: {justified:?})",
                count.symbol()
            )));
        }
    }
    let constants = props.constants(root);
    for (col, val) in &before.constants {
        match constants.get(col) {
            None => {
                return Err(semantic(format!(
                    "column `{col}` was proven constant before the rewrite but not after \
                     (constants now: {:?})",
                    constants
                )));
            }
            Some(after_val) => {
                // A rewrite may *lose track* of the value (e.g. pushdown
                // can leave an empty literal input whose columns are
                // vacuously constant with no scannable value) — that is
                // an analysis weakening, not a wrong plan.  But two
                // *known* values that disagree mean rows changed.
                if let (Some(v), Some(after)) = (val, after_val) {
                    if after != v {
                        return Err(semantic(format!(
                            "constant column `{col}` changed value: {v:?} -> {after:?}"
                        )));
                    }
                }
            }
        }
    }
    // Types may only narrow; losing track of a column's types is an
    // analysis weakening, like losing a constant's value.
    for (col, before_types) in &before.types {
        if let Some(after_types) = props.types(root, col) {
            if after_types.union(*before_types) != *before_types {
                return Err(semantic(format!(
                    "column `{col}` widened its types: {before_types:?} -> {after_types:?}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;

    fn small_lit(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Int(7)]],
        })
    }

    #[test]
    fn accepts_a_well_formed_plan() {
        let mut b = PlanBuilder::new();
        let l = small_lit(&mut b);
        let d = b.add(AlgOp::Distinct { input: l });
        let plan = b.finish(d);
        assert_eq!(verify_plan(&plan), Ok(()));
    }

    #[test]
    fn rejects_dangling_child_references() {
        let mut b = PlanBuilder::new();
        let l = small_lit(&mut b);
        b.add(AlgOp::Distinct { input: 99 });
        let plan = b.finish(l);
        let e = verify_plan(&plan).unwrap_err();
        assert!(e.message.contains("child #99"), "{e}");
    }

    #[test]
    fn rejects_cycles() {
        // A forward reference the builder happily accepts: op 0 will be
        // Distinct{input: 1}, op 1 Distinct{input: 0}.
        let mut b = PlanBuilder::new();
        let a = b.add(AlgOp::Distinct { input: 1 });
        let c = b.add(AlgOp::Distinct { input: a });
        let plan = b.finish(c);
        let e = verify_plan(&plan).unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn rejects_unresolvable_columns() {
        let mut b = PlanBuilder::new();
        let l = small_lit(&mut b);
        let s = b.add(AlgOp::Select {
            input: l,
            column: "missing".into(),
        });
        let plan = b.finish(s);
        let e = verify_plan(&plan).unwrap_err();
        assert!(e.message.contains("`missing`"), "{e}");
    }

    #[test]
    fn rewrite_digest_catches_schema_and_key_loss() {
        let mut b = PlanBuilder::new();
        let l = small_lit(&mut b);
        let plan = b.finish(l);
        let before = digest(&plan);

        // Identical plan: fine.
        assert_eq!(verify_rewrite("noop", &before, &plan), Ok(()));

        // Root schema reordered: rejected.
        let mut b = PlanBuilder::new();
        let l2 = b.add(AlgOp::Lit {
            columns: vec!["pos".into(), "iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Int(7)]],
        });
        let swapped = b.finish(l2);
        let e = verify_rewrite("swap", &before, &swapped).unwrap_err();
        assert_eq!(e.rule.as_deref(), Some("swap"));
        assert!(e.message.contains("root schema changed"), "{e}");

        // Keys weakened (two identical rows): rejected, message carries
        // the annotated dump.
        let mut b = PlanBuilder::new();
        let l3 = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into(), "item".into()],
            rows: vec![
                vec![Value::Nat(1), Value::Nat(1), Value::Int(7)],
                vec![Value::Nat(1), Value::Nat(1), Value::Int(7)],
            ],
        });
        let dup = b.finish(l3);
        let e = verify_rewrite("dup", &before, &dup).unwrap_err();
        assert!(e.message.contains("proven before the rewrite"), "{e}");
        assert!(e.message.contains("annotated plan"), "{e}");
    }
}
