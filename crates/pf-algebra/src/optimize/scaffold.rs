//! Deleting loop-lifting scaffolding with the inferred properties.
//!
//! Loop lifting wraps every expression in plumbing that keeps iterations
//! and sequence order apart: the loop relation joined back in with
//! literals attached, `ebv` with its `true`/`false` completion around every
//! `where` and predicate, and `%` renumbering after every step.  *XQuery
//! Join Graph Isolation* (Grust et al.) deletes that plumbing where the
//! inferred keys, constants and emptiness show it computes nothing.  Each
//! rewrite here replaces one operator by a subplan with the same rows, the
//! same row order and the same columns — except the mirrored join of (a),
//! which only fires where the order is unobservable:
//!
//! * **(a) constant-loop joins** — `⋈[l=r](L, R)` where `r` keys `R`, every
//!   other column of `R` is a known constant, and every `l` value occurs in
//!   `r`: each `L` row meets exactly one `R` row, so the join is `L` with
//!   `r := l` and the constants attached.
//! * **(b) known row numbers** — a `%` partitioned on a key column numbers
//!   every row 1 (`@t:=1`); a `%` whose rows are already sorted by a column
//!   that numbers them densely within `iter` reproduces that column
//!   (`π[…, t:c]`).  `%` re-sorts its output, so both need the sequence
//!   fact, not only the values.
//! * **(c) dead branches** — a provably empty operator becomes an empty
//!   literal; `∪` with an empty arm becomes the other arm; `∖` with an
//!   empty right side becomes its left side; σ over a column that is
//!   constant `true` becomes its input; `ebv` over a Boolean `item` keyed
//!   by `iter` becomes `π[iter,item]`; δ over a keyed input becomes its
//!   input.
//!
//! A rewrite that stops evaluating a subplan (the `R` of a join, a dead
//! arm) fires only when what it keeps still evaluates every operator of
//! that subplan that can raise an error, so errors stay the same errors.
//!
//! The rule is one sweep: children before parents, every rewrite the
//! analysis justifies, each in place at the rewritten operator's id.  A
//! rewritten operator keeps its relation, hence its facts, so later
//! rewrites in the same sweep read them as they are; the operators a
//! rewrite creates are never read.

use std::collections::BTreeSet;

use pf_relational::Value;

use super::OptimizeReport;
use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::properties::{opset_subset, PlanProperties};

/// What one sweep did.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Swept {
    /// Some rewrite fired.
    pub changed: bool,
    /// Some rewrite changed a row order (a mirrored join), so the
    /// sequence facts above it must be re-derived.
    pub reordered: bool,
}

/// Apply every scaffolding deletion `props` justifies on `plan`.
pub(crate) fn delete_scaffolding(
    plan: &mut Plan,
    props: &PlanProperties,
    report: &mut OptimizeReport,
) -> Swept {
    let mut swept = Swept::default();
    for id in plan.reachable() {
        let Some((rewrite, reordered)) = rewrite(plan, props, id) else {
            continue;
        };
        plan.ops_mut()[id] = rewrite;
        report.scaffolding_deleted += 1;
        swept.changed = true;
        swept.reordered |= reordered;
    }
    swept
}

/// The replacement of `id`, and whether it changes the row order.  May
/// append the inner operators of the replacement to the arena.
fn rewrite(plan: &mut Plan, props: &PlanProperties, id: OpId) -> Option<(AlgOp, bool)> {
    let columns = || props.columns(id);
    // (c) A provably empty operator that evaluates nothing that could
    // raise an error is an empty literal.
    if props.provably_empty(id)
        && props.raisers(id).iter().all(|w| *w == 0)
        && !matches!(plan.op(id), AlgOp::Lit { .. })
    {
        let columns = columns().to_vec();
        let rows = Vec::new();
        return Some((AlgOp::Lit { columns, rows }, false));
    }
    let covers =
        |kept: OpId, dropped: OpId| opset_subset(props.raisers(dropped), props.raisers(kept));
    let same = |input: OpId| Some((reorder_to(input, columns()), false));
    match plan.op(id) {
        &AlgOp::Union { left, right } => {
            if props.provably_empty(right) && covers(left, right) {
                return same(left);
            }
            if props.provably_empty(left) && covers(right, left) {
                return same(right);
            }
            None
        }
        &AlgOp::Difference { left, right } => {
            (props.provably_empty(right) && covers(left, right)).then(|| same(left))?
        }
        AlgOp::Select { input, column } => {
            let input = *input;
            (props.constant_value(input, column) == Some(&Value::Bool(true)))
                .then(|| same(input))?
        }
        &AlgOp::Ebv { input } => {
            let boolean = props.types(input, "item").is_some_and(|t| t.is_boolean());
            (boolean && props.keyed_by(input, &set("iter"))).then(|| same(input))?
        }
        // A keyed input has no duplicate rows for δ to remove.
        &AlgOp::Distinct { input } => (!props.keys(input).is_empty()).then(|| same(input))?,
        AlgOp::EquiJoin {
            left,
            right,
            left_col,
            right_col,
        } => {
            let (left, right) = (*left, *right);
            let (left_col, right_col) = (left_col.clone(), right_col.clone());
            if let Some(chain) = loop_lookup(plan, props, (left, &left_col), (right, &right_col)) {
                return Some((reorder_to(chain, columns()), false));
            }
            if !props.order_free(id) {
                return None;
            }
            let chain = loop_lookup(plan, props, (right, &right_col), (left, &left_col))?;
            Some((reorder_to(chain, columns()), true))
        }
        AlgOp::RowNum {
            input,
            target,
            order_by,
            partition,
        } => {
            let input = *input;
            let one = || AlgOp::Attach {
                input,
                target: target.clone(),
                value: Value::Nat(1),
            };
            // At most one row, or one row per partition already in
            // partition order: every row is number 1.
            if props.keyed_by(input, &BTreeSet::new()) {
                return Some((one(), false));
            }
            let seq = props.sequence(input)?;
            if partition.as_deref() == Some("iter") && props.keyed_by(input, &set("iter")) {
                return Some((one(), false));
            }
            // Numbering a dense sequence in its own order reproduces it.
            let constants = props.constants(input);
            let per_iter = match partition.as_deref() {
                Some("iter") => true,
                Some(_) => false,
                None => constants.contains_key("iter"),
            };
            let mut keys = order_by
                .iter()
                .filter(|s| !constants.contains_key(&s.column));
            let in_order = match (keys.next(), keys.next()) {
                (None, _) => true,
                (Some(key), None) => key.column == seq.column && !key.descending,
                _ => false,
            };
            if !(per_iter && seq.dense && in_order) {
                return None;
            }
            let mut columns: Vec<(String, String)> = props
                .columns(input)
                .iter()
                .map(|c| (c.clone(), c.clone()))
                .collect();
            columns.push((seq.column.clone(), target.clone()));
            Some((AlgOp::Project { input, columns }, false))
        }
        _ => None,
    }
}

/// (a): `⋈[kc=lc](kept, lookup)` where `lc` keys `lookup`, every other
/// column of `lookup` is a known constant and every `kc` value occurs in
/// `lc` — each `kept` row meets exactly one `lookup` row.  Returns the
/// top of `kept` with `lc := kc` and the constants attached (appended to
/// the arena), columns `kept …, lc, constants …`.
fn loop_lookup(
    plan: &mut Plan,
    props: &PlanProperties,
    (kept, kc): (OpId, &str),
    (lookup, lc): (OpId, &str),
) -> Option<OpId> {
    if !props.keyed_by(lookup, &set(lc)) || !props.value_subset(kept, kc, lookup, lc) {
        return None;
    }
    if !opset_subset(props.raisers(lookup), props.raisers(kept)) {
        return None;
    }
    let constants: Vec<(String, Value)> = props
        .columns(lookup)
        .iter()
        .filter(|c| *c != lc)
        .map(|c| Some((c.clone(), props.constant_value(lookup, c)?.clone())))
        .collect::<Option<_>>()?;
    let mut columns: Vec<(String, String)> = props
        .columns(kept)
        .iter()
        .map(|c| (c.clone(), c.clone()))
        .collect();
    columns.push((kc.to_string(), lc.to_string()));
    let mut top = push(
        plan,
        AlgOp::Project {
            input: kept,
            columns,
        },
    );
    for (target, value) in constants {
        top = push(
            plan,
            AlgOp::Attach {
                input: top,
                target,
                value,
            },
        );
    }
    Some(top)
}

/// `π[columns]` over `input`: the identity when `input` already has
/// them in that order (the identity-projection rule removes it).
fn reorder_to(input: OpId, columns: &[String]) -> AlgOp {
    AlgOp::Project {
        input,
        columns: columns.iter().map(|c| (c.clone(), c.clone())).collect(),
    }
}

fn push(plan: &mut Plan, op: AlgOp) -> OpId {
    plan.ops_mut().push(op);
    plan.ops().len() - 1
}

fn set(col: &str) -> BTreeSet<String> {
    std::iter::once(col.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SortSpec;
    use crate::plan::PlanBuilder;
    use crate::verify::{digest, verify_rewrite};
    use pf_relational::ops::BinaryOp;
    use pf_relational::value::ArithOp;

    fn lit(b: &mut PlanBuilder, columns: &[&str], rows: Vec<Vec<Value>>) -> OpId {
        b.add(AlgOp::Lit {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        })
    }

    fn nats(rows: &[&[u64]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|v| Value::Nat(*v)).collect())
            .collect()
    }

    /// One sweep over a fresh analysis, which must verify against the
    /// plan before it.
    fn sweep(plan: &mut Plan) {
        let before = digest(plan);
        let props = PlanProperties::analyze(plan);
        delete_scaffolding(plan, &props, &mut OptimizeReport::default());
        verify_rewrite("scaffold", &before, plan).expect("the sweep verifies");
    }

    /// `⋈[iter=iter1](L, lookup)`, the lookup side `@c:="x"(π[iter1:iter](L))`
    /// unless `rows` gives a literal instead.
    fn loop_join(rows: Option<Vec<Vec<Value>>>) -> (Plan, OpId) {
        let mut b = PlanBuilder::new();
        let l = lit(
            &mut b,
            &["iter", "item"],
            nats(&[&[1, 10], &[2, 20], &[3, 30]]),
        );
        let r = match rows {
            Some(rows) => lit(&mut b, &["iter1", "c"], rows),
            None => {
                let keys = b.add(AlgOp::Project {
                    input: l,
                    columns: vec![("iter".into(), "iter1".into())],
                });
                b.add(AlgOp::Attach {
                    input: keys,
                    target: "c".into(),
                    value: Value::Str("x".into()),
                })
            }
        };
        let j = b.add(AlgOp::EquiJoin {
            left: l,
            right: r,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        });
        (b.finish(j), j)
    }

    #[test]
    fn a_join_against_the_loop_plus_constants_becomes_a_projection() {
        let (mut plan, j) = loop_join(None);
        sweep(&mut plan);
        assert!(
            matches!(plan.op(j), AlgOp::Project { .. }),
            "{:?}",
            plan.op(j)
        );
    }

    #[test]
    fn a_lookup_with_several_rows_per_loop_row_stays_a_join() {
        // `m` repeats iter 1; the loop is δ(π[iter](m)), the lookup side
        // `@c:="x"(π[iter1:iter](m))` holds exactly the loop's values but
        // two rows for iter 1.
        let mut b = PlanBuilder::new();
        let m = lit(
            &mut b,
            &["iter", "item"],
            nats(&[&[1, 10], &[1, 11], &[2, 20]]),
        );
        let iters = b.add(AlgOp::Project {
            input: m,
            columns: vec![("iter".into(), "iter".into())],
        });
        let l = b.add(AlgOp::Distinct { input: iters });
        let keys = b.add(AlgOp::Project {
            input: m,
            columns: vec![("iter".into(), "iter1".into())],
        });
        let r = b.add(AlgOp::Attach {
            input: keys,
            target: "c".into(),
            value: Value::Str("x".into()),
        });
        let j = b.add(AlgOp::EquiJoin {
            left: l,
            right: r,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        });
        let mut plan = b.finish(j);
        sweep(&mut plan);
        assert!(matches!(plan.op(j), AlgOp::EquiJoin { .. }));
    }

    #[test]
    fn a_lookup_that_is_not_one_row_per_loop_row_stays_a_join() {
        let row = |iter: u64| vec![Value::Nat(iter), Value::Str("x".into())];
        // Two rows for iter 1 (the join duplicates a row), and no row for
        // iter 3 (the join drops one).
        for rows in [vec![row(1), row(1), row(2), row(3)], vec![row(1), row(2)]] {
            let (mut plan, j) = loop_join(Some(rows));
            sweep(&mut plan);
            assert!(matches!(plan.op(j), AlgOp::EquiJoin { .. }));
        }
    }

    /// `∪(a, π[iter,item](σ[f](@f:=false(x))))`, where `x` computes a map
    /// when `raising`.
    fn dead_arm(raising: bool) -> (Plan, OpId, OpId) {
        let mut b = PlanBuilder::new();
        let a = lit(&mut b, &["iter", "item"], nats(&[&[1, 5]]));
        let mut x = lit(&mut b, &["iter", "item"], nats(&[&[2, 6]]));
        if raising {
            x = b.add(AlgOp::BinaryMap {
                input: x,
                target: "sum".into(),
                left: "item".into(),
                op: BinaryOp::Arith(ArithOp::Add),
                right: "item".into(),
            });
        }
        let f = b.add(AlgOp::Attach {
            input: x,
            target: "f".into(),
            value: Value::Bool(false),
        });
        let none = b.add(AlgOp::Select {
            input: f,
            column: "f".into(),
        });
        let arm = b.add(AlgOp::Project {
            input: none,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("item".into(), "item".into()),
            ],
        });
        let u = b.add(AlgOp::Union {
            left: a,
            right: arm,
        });
        (b.finish(u), u, a)
    }

    #[test]
    fn an_empty_arm_goes_unless_it_evaluates_something_that_can_raise() {
        let (mut plan, u, a) = dead_arm(false);
        sweep(&mut plan);
        assert!(matches!(plan.op(u), AlgOp::Project { input, .. } if *input == a));
        let (mut plan, u, _) = dead_arm(true);
        sweep(&mut plan);
        assert!(matches!(plan.op(u), AlgOp::Union { .. }));
    }

    #[test]
    fn ebv_over_one_boolean_per_iter_becomes_a_projection() {
        for (item, deleted) in [(Value::Bool(false), true), (Value::Int(0), false)] {
            let mut b = PlanBuilder::new();
            let rows = vec![
                vec![Value::Nat(1), Value::Bool(true)],
                vec![Value::Nat(2), item],
            ];
            let l = lit(&mut b, &["iter", "item"], rows);
            let e = b.add(AlgOp::Ebv { input: l });
            let mut plan = b.finish(e);
            sweep(&mut plan);
            assert_eq!(matches!(plan.op(e), AlgOp::Project { .. }), deleted);
        }
    }

    /// `%t:⟨by⟩/iter` over `%pos:⟨item⟩/iter` (dense within iter), with
    /// `filter` applied to the numbered rows first.
    fn renumbered(filter: Option<(&str, u64)>, by: &str) -> (Plan, OpId) {
        let renumber = |input, target: &str, by: &str| AlgOp::RowNum {
            input,
            target: target.into(),
            order_by: vec![SortSpec::asc(by)],
            partition: Some("iter".into()),
        };
        let mut b = PlanBuilder::new();
        let l = lit(
            &mut b,
            &["iter", "item"],
            nats(&[&[1, 7], &[1, 8], &[2, 9]]),
        );
        let mut numbered = b.add(renumber(l, "pos", "item"));
        if let Some((column, value)) = filter {
            numbered = b.add(AlgOp::SelectEq {
                input: numbered,
                column: column.into(),
                value: Value::Nat(value),
            });
        }
        let t = b.add(renumber(numbered, "t", by));
        (b.finish(t), t)
    }

    #[test]
    fn known_row_numbers_become_a_projection_or_a_constant() {
        let kind = |op: &AlgOp| match op {
            AlgOp::Project { .. } => "π",
            AlgOp::RowNum { .. } => "%",
            AlgOp::Attach { .. } => "@",
            other => panic!("unexpected {other:?}"),
        };
        // A dense sequence renumbered in its own order is itself; after a
        // σ that keeps the order but not the density, it is not; one row
        // per iter in iter order is number 1.
        for (filter, by, expect) in [
            (None, "pos", "π"),
            (Some(("iter", 1)), "pos", "%"),
            (Some(("pos", 1)), "item", "@"),
        ] {
            let (mut plan, t) = renumbered(filter, by);
            sweep(&mut plan);
            assert_eq!(kind(plan.op(t)), expect, "{filter:?}");
        }
    }

    #[test]
    fn distinct_over_a_keyed_input_goes() {
        for (rows, deleted) in [(nats(&[&[1], &[2]]), true), (nats(&[&[1], &[1]]), false)] {
            let mut b = PlanBuilder::new();
            let l = lit(&mut b, &["iter"], rows);
            let d = b.add(AlgOp::Distinct { input: l });
            let mut plan = b.finish(d);
            sweep(&mut plan);
            assert_eq!(matches!(plan.op(d), AlgOp::Project { .. }), deleted);
        }
    }
}
