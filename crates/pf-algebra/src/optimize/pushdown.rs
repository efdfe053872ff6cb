//! Selection pushdown and literal folding.
//!
//! Selections (σ, both the boolean [`AlgOp::Select`] and the equality
//! [`AlgOp::SelectEq`]) are pushed toward the leaves: through
//! projections (renaming the predicate column back), attach and value
//! maps (when they do not compute the predicate column), below joins
//! (onto the side that owns the column), through δ, into both branches
//! of a union and into the left side of a difference.  Every rewrite
//! here preserves the *exact* row order of every operator's output —
//! selections are row-subset operators and all the hosts are
//! row-order-preserving — so unlike join reordering, pushdown needs no
//! order-freedom analysis and is safe anywhere in the DAG.
//!
//! σ/π over literal tables are additionally evaluated at compile time
//! (counted in `constants_folded`, like the existing attach folding).
//! `select_true` raises a type error on non-boolean values at runtime,
//! so the boolean σ only folds when every value in the column is a
//! boolean; the equality σ never errors and folds unconditionally.

use std::collections::HashMap;

use super::OptimizeReport;
use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::schema::{infer_one, infer_schema, Properties};
use pf_relational::Value;

/// Largest literal table the folds will copy.
const LIT_FOLD_CAP: usize = 64;

/// Push selections down and fold σ/π over literals until nothing moves.
/// Returns `true` if the plan changed.
pub fn push_selections(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut changed = false;
    while push_all(plan, report) | fold_all(plan, report) {
        changed = true;
    }
    changed
}

/// Push every selection as far down as it goes, in one sweep over one set
/// of consumer counts and schemas (the latter inferred once a push below a
/// join needs them).  A push re-targets the σ's edge and moves the σ's
/// operator id onto the host, so every count it leaves behind is still
/// right: the pushed copies are new, with one consumer each, and are
/// pushed on at once.  Returns `true` if one fired.
fn push_all(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut consumers = plan.consumer_counts();
    let mut props = None;
    let mut pushed_any = false;
    for id in plan.reachable() {
        let mut pending = vec![id];
        while let Some(sel) = pending.pop() {
            let created = push_one(plan, sel, &consumers, &mut props);
            if created.is_empty() {
                continue;
            }
            for &new in &created {
                if let Some(props) = &mut props {
                    let schema = infer_one(plan, new, props);
                    props.insert(new, schema);
                }
                consumers.push(1);
            }
            report.predicates_pushed += 1;
            pushed_any = true;
            pending.extend(created);
        }
    }
    pushed_any
}

/// Push the selection `id` one level down; returns the selections it
/// created below the host (none when it did not move).
fn push_one(
    plan: &mut Plan,
    id: OpId,
    consumers: &[usize],
    props: &mut Option<HashMap<OpId, Properties>>,
) -> Vec<OpId> {
    let (input, column) = match plan.op(id) {
        AlgOp::Select { input, column } | AlgOp::SelectEq { input, column, .. } => {
            (*input, column.clone())
        }
        _ => return Vec::new(),
    };
    // Only rewrite below exclusively-owned children: pushing under a
    // shared operator would either duplicate its work or filter rows
    // its other consumers still need.
    if consumers.get(input) != Some(&1) {
        return Vec::new();
    }
    // `sigma(new_input)`: the current σ re-targeted at `new_input`.
    let sigma = |plan: &mut Plan, new_input: OpId| -> OpId {
        let mut op = plan.op(id).clone();
        op.replace_child(0, new_input);
        plan.ops_mut().push(op);
        plan.ops_mut().len() - 1
    };
    match plan.op(input).clone() {
        AlgOp::Project { input: x, columns } => {
            // Rename the predicate column back to its source name.
            let Some((source, _)) = columns.iter().find(|(_, t)| *t == column) else {
                return Vec::new();
            };
            let source = source.clone();
            let pushed = sigma(plan, x);
            match &mut plan.ops_mut()[pushed] {
                AlgOp::Select { column, .. } | AlgOp::SelectEq { column, .. } => {
                    *column = source;
                }
                _ => unreachable!(),
            }
            plan.ops_mut()[id] = AlgOp::Project {
                input: pushed,
                columns,
            };
            vec![pushed]
        }
        AlgOp::Attach {
            input: x,
            target,
            value,
        } => {
            if target == column {
                return Vec::new();
            }
            let pushed = sigma(plan, x);
            plan.ops_mut()[id] = AlgOp::Attach {
                input: pushed,
                target,
                value,
            };
            vec![pushed]
        }
        AlgOp::UnaryMap {
            input: x,
            target,
            op,
            source,
        } => {
            if target == column {
                return Vec::new();
            }
            let pushed = sigma(plan, x);
            plan.ops_mut()[id] = AlgOp::UnaryMap {
                input: pushed,
                target,
                op,
                source,
            };
            vec![pushed]
        }
        AlgOp::BinaryMap {
            input: x,
            target,
            left,
            op,
            right,
        } => {
            if target == column {
                return Vec::new();
            }
            let pushed = sigma(plan, x);
            plan.ops_mut()[id] = AlgOp::BinaryMap {
                input: pushed,
                target,
                left,
                op,
                right,
            };
            vec![pushed]
        }
        AlgOp::Distinct { input: x } => {
            // Duplicates are whole-row, so filtering commutes with δ
            // (and keeps the same first occurrences).
            let pushed = sigma(plan, x);
            plan.ops_mut()[id] = AlgOp::Distinct { input: pushed };
            vec![pushed]
        }
        AlgOp::Union { left, right } => {
            let sl = sigma(plan, left);
            let sr = sigma(plan, right);
            plan.ops_mut()[id] = AlgOp::Union {
                left: sl,
                right: sr,
            };
            vec![sl, sr]
        }
        AlgOp::Difference { left, right } => {
            // σ(L − R) = σ(L) − R: the filter only concerns emitted
            // (left) rows.
            let pushed = sigma(plan, left);
            plan.ops_mut()[id] = AlgOp::Difference {
                left: pushed,
                right,
            };
            vec![pushed]
        }
        join @ (AlgOp::EquiJoin { .. } | AlgOp::ThetaJoin { .. } | AlgOp::Cross { .. }) => {
            let (left, right) = match &join {
                AlgOp::EquiJoin { left, right, .. }
                | AlgOp::ThetaJoin { left, right, .. }
                | AlgOp::Cross { left, right } => (*left, *right),
                _ => unreachable!(),
            };
            let props = props.get_or_insert_with(|| infer_schema(plan));
            let owns = |side: OpId| {
                props
                    .get(&side)
                    .is_some_and(|p| p.columns.contains(&column))
            };
            // The column must belong to exactly one side (a self-join
            // with colliding names is ambiguous — bail).
            let (push_left, push_right) = (owns(left), owns(right));
            if push_left == push_right {
                return Vec::new();
            }
            let mut new_join = join;
            let pushed = if push_left {
                let pushed = sigma(plan, left);
                new_join.replace_child(0, pushed);
                pushed
            } else {
                let pushed = sigma(plan, right);
                new_join.replace_child(1, pushed);
                pushed
            };
            plan.ops_mut()[id] = new_join;
            vec![pushed]
        }
        _ => Vec::new(),
    }
}

/// A row predicate compiled from a σ/σ= operator.
type KeepFn = Box<dyn Fn(&[Value]) -> bool>;

/// Evaluate every σ and π over a literal table, children first (so a π
/// over a folded σ folds too); `true` if one fired.
fn fold_all(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut folded = false;
    for id in plan.reachable() {
        let (input, keep): (usize, KeepFn) = match plan.op(id).clone() {
            AlgOp::SelectEq {
                input,
                column,
                value,
            } => {
                let Some(idx) = lit_column(plan, input, &column) else {
                    continue;
                };
                (input, Box::new(move |row: &[Value]| row[idx] == value))
            }
            AlgOp::Select { input, column } => {
                let Some(idx) = lit_column(plan, input, &column) else {
                    continue;
                };
                // select_true errors on non-booleans; only fold when the
                // whole column is boolean so behaviour cannot change.
                let AlgOp::Lit { rows, .. } = plan.op(input) else {
                    continue;
                };
                if !rows.iter().all(|r| matches!(r[idx], Value::Bool(_))) {
                    continue;
                }
                (
                    input,
                    Box::new(move |row: &[Value]| row[idx] == Value::Bool(true)),
                )
            }
            AlgOp::Project { input, columns } => {
                let AlgOp::Lit {
                    columns: lit_cols,
                    rows,
                } = plan.op(input)
                else {
                    continue;
                };
                if rows.len() > LIT_FOLD_CAP {
                    continue;
                }
                let Some(indices) = columns
                    .iter()
                    .map(|(s, _)| lit_cols.iter().position(|c| c == s))
                    .collect::<Option<Vec<_>>>()
                else {
                    continue;
                };
                let new_rows = rows
                    .iter()
                    .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
                    .collect();
                plan.ops_mut()[id] = AlgOp::Lit {
                    columns: columns.iter().map(|(_, t)| t.clone()).collect(),
                    rows: new_rows,
                };
                report.constants_folded += 1;
                folded = true;
                continue;
            }
            _ => continue,
        };
        let AlgOp::Lit { columns, rows } = plan.op(input).clone() else {
            unreachable!("lit_column checked the input is a literal");
        };
        let new_rows: Vec<Vec<Value>> = rows.into_iter().filter(|r| keep(r)).collect();
        plan.ops_mut()[id] = AlgOp::Lit {
            columns,
            rows: new_rows,
        };
        report.constants_folded += 1;
        folded = true;
    }
    folded
}

/// If `input` is a small literal containing `column`, its index.
fn lit_column(plan: &Plan, input: usize, column: &str) -> Option<usize> {
    let AlgOp::Lit { columns, rows } = plan.op(input) else {
        return None;
    };
    if rows.len() > LIT_FOLD_CAP {
        return None;
    }
    columns.iter().position(|c| c == column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpId, PlanBuilder};

    fn lit2(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "flag".into()],
            rows: vec![
                vec![Value::Nat(1), Value::Bool(true)],
                vec![Value::Nat(2), Value::Bool(false)],
            ],
        })
    }

    #[test]
    fn pushes_select_through_projection_with_rename() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["a".into(), "b".into()],
            rows: (0..100)
                .map(|i| vec![Value::Nat(i), Value::Nat(i % 7)])
                .collect(),
        });
        let d = b.add(AlgOp::Distinct { input: l });
        let p = b.add(AlgOp::Project {
            input: d,
            columns: vec![("a".into(), "x".into()), ("b".into(), "y".into())],
        });
        let s = b.add(AlgOp::SelectEq {
            input: p,
            column: "y".into(),
            value: Value::Nat(3),
        });
        let mut plan = b.finish(s);
        let mut report = OptimizeReport::default();
        assert!(push_selections(&mut plan, &mut report));
        // σ moved through π (renamed to b) and through δ.
        assert_eq!(report.predicates_pushed, 2);
        let AlgOp::Project { input, .. } = plan.op(plan.root()) else {
            panic!("root should be the hoisted projection");
        };
        let AlgOp::Distinct { input } = plan.op(*input) else {
            panic!("expected distinct under the projection");
        };
        match plan.op(*input) {
            AlgOp::SelectEq { column, .. } => assert_eq!(column, "b"),
            other => panic!("expected pushed selection, found {other:?}"),
        }
    }

    #[test]
    fn pushes_select_below_join_on_owning_side() {
        let mut b = PlanBuilder::new();
        let left = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: (0..80)
                .map(|i| vec![Value::Nat(i), Value::Nat(i)])
                .collect(),
        });
        let dl = b.add(AlgOp::Distinct { input: left });
        let right = b.add(AlgOp::Lit {
            columns: vec!["iter1".into(), "val".into()],
            rows: (0..80)
                .map(|i| vec![Value::Nat(i), Value::Nat(i * 2)])
                .collect(),
        });
        let dr = b.add(AlgOp::Distinct { input: right });
        let j = b.add(AlgOp::EquiJoin {
            left: dl,
            right: dr,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        });
        let s = b.add(AlgOp::SelectEq {
            input: j,
            column: "val".into(),
            value: Value::Nat(4),
        });
        let mut plan = b.finish(s);
        let mut report = OptimizeReport::default();
        assert!(push_selections(&mut plan, &mut report));
        // Pushed below the join (right side) and then through that δ.
        assert_eq!(report.predicates_pushed, 2);
        let AlgOp::EquiJoin { right, .. } = plan.op(plan.root()) else {
            panic!("root should be the join after the push");
        };
        let AlgOp::Distinct { input } = plan.op(*right) else {
            panic!("expected δ on the right side");
        };
        assert!(matches!(plan.op(*input), AlgOp::SelectEq { .. }));
    }

    #[test]
    fn does_not_push_under_shared_children() {
        let mut b = PlanBuilder::new();
        let l = lit2(&mut b);
        let d = b.add(AlgOp::Distinct { input: l });
        let s = b.add(AlgOp::Select {
            input: d,
            column: "flag".into(),
        });
        // Second consumer of the δ: pushing the σ below it would filter
        // rows this branch still needs.
        let u = b.add(AlgOp::Union { left: s, right: d });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        push_selections(&mut plan, &mut report);
        assert_eq!(report.predicates_pushed, 0);
    }

    #[test]
    fn folds_select_eq_and_projection_over_literals() {
        let mut b = PlanBuilder::new();
        let l = lit2(&mut b);
        let s = b.add(AlgOp::SelectEq {
            input: l,
            column: "iter".into(),
            value: Value::Nat(2),
        });
        let p = b.add(AlgOp::Project {
            input: s,
            columns: vec![("flag".into(), "f".into())],
        });
        let mut plan = b.finish(p);
        let mut report = OptimizeReport::default();
        assert!(push_selections(&mut plan, &mut report));
        assert_eq!(report.constants_folded, 2);
        match plan.op(plan.root()) {
            AlgOp::Lit { columns, rows } => {
                assert_eq!(columns, &vec!["f".to_string()]);
                assert_eq!(rows, &vec![vec![Value::Bool(false)]]);
            }
            other => panic!("expected fully folded literal, found {other:?}"),
        }
    }

    #[test]
    fn boolean_select_only_folds_all_bool_columns() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["flag".into()],
            rows: vec![vec![Value::Bool(true)], vec![Value::Nat(1)]],
        });
        let s = b.add(AlgOp::Select {
            input: l,
            column: "flag".into(),
        });
        let mut plan = b.finish(s);
        let mut report = OptimizeReport::default();
        // Folding would swallow the runtime type error: must not fire.
        push_selections(&mut plan, &mut report);
        assert_eq!(report.constants_folded, 0);
        assert!(matches!(plan.op(plan.root()), AlgOp::Select { .. }));
    }
}
