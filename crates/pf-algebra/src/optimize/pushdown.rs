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
//! σ, π and @ over literal tables of at most `LIT_FOLD_CAP` rows are
//! additionally evaluated at compile time (`fold_literals`, counted in
//! `constants_folded`).  `select_true` raises a type error on non-boolean
//! values at runtime, so the boolean σ only folds when every value in the
//! column is a boolean; the equality σ never errors and folds
//! unconditionally.

use std::collections::HashMap;

use super::OptimizeReport;
use crate::ops::{AlgOp, Const};
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;
use pf_relational::{ColId, Value};

/// Largest literal table the folds will copy.
pub(crate) const LIT_FOLD_CAP: usize = 64;

/// Push selections down, then fold σ/π/@ over literals, one sweep each.
/// `props` is the analysis of `plan`; a push below a join reads the
/// columns of the join's inputs from it.  Returns `true` if the plan
/// changed.
pub fn push_selections(
    plan: &mut Plan,
    props: &PlanProperties,
    report: &mut OptimizeReport,
) -> bool {
    let pushed = push_all(plan, props, report);
    let folded = fold_literals(plan, report);
    pushed || folded
}

/// Push every selection as far down as it goes, in one sweep over one set
/// of consumer counts.  A push re-targets the σ's edge and moves the σ's
/// operator id onto the host, so every count it leaves behind is still
/// right: the pushed copies are new, with one consumer each, and are
/// pushed on at once.  A pushed copy has the columns of the input it was
/// created over, and keeps them when a later push turns it into a host:
/// `origin` maps each copy to the analyzed operator with its columns.
/// Returns `true` if one fired.
fn push_all(plan: &mut Plan, props: &PlanProperties, report: &mut OptimizeReport) -> bool {
    let mut consumers = plan.consumer_counts();
    let mut origin: HashMap<OpId, OpId> = HashMap::new();
    let mut pushed_any = false;
    for id in plan.reachable() {
        let mut pending = vec![id];
        while let Some(sel) = pending.pop() {
            let columns = |side: OpId| props.columns(origin.get(&side).copied().unwrap_or(side));
            let created = push_one(plan, sel, &consumers, columns);
            if created.is_empty() {
                continue;
            }
            for &new in &created {
                let input = plan.op(new).children()[0];
                origin.insert(new, origin.get(&input).copied().unwrap_or(input));
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
/// created below the host (none when it did not move).  `columns` names
/// the output columns of an operator.
fn push_one<'p>(
    plan: &mut Plan,
    id: OpId,
    consumers: &[usize],
    columns: impl Fn(OpId) -> &'p [ColId],
) -> Vec<OpId> {
    let (input, column) = match plan.op(id) {
        AlgOp::Select { input, column } | AlgOp::SelectEq { input, column, .. } => {
            (*input, *column)
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
            let Some(&(source, _)) = columns.iter().find(|&&(_, t)| t == column) else {
                return Vec::new();
            };
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
            let owns = |side: OpId| columns(side).contains(&column);
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
type KeepFn = Box<dyn Fn(&[Const]) -> bool>;

/// Evaluate every σ, π and @ over a literal table of at most
/// `LIT_FOLD_CAP` rows, children first (so a π over a folded σ folds
/// too); `true` if one fired.
fn fold_literals(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut folded = false;
    for id in plan.reachable() {
        // Only an operator over a literal is cloned below.
        let over_literal = match plan.op(id) {
            AlgOp::SelectEq { input, .. }
            | AlgOp::Select { input, .. }
            | AlgOp::Project { input, .. }
            | AlgOp::Attach { input, .. } => matches!(plan.op(*input), AlgOp::Lit { .. }),
            _ => false,
        };
        if !over_literal {
            continue;
        }
        let (input, keep): (usize, KeepFn) = match plan.op(id).clone() {
            AlgOp::SelectEq {
                input,
                column,
                value,
            } => {
                let Some(idx) = lit_column(plan, input, column) else {
                    continue;
                };
                // A parameter slot may or may not equal the constant.
                let AlgOp::Lit { rows, .. } = plan.op(input) else {
                    continue;
                };
                if rows.iter().any(|r| matches!(r[idx], Const::Param(_))) {
                    continue;
                }
                let value = Const::Value(value);
                (input, Box::new(move |row: &[Const]| row[idx] == value))
            }
            AlgOp::Select { input, column } => {
                let Some(idx) = lit_column(plan, input, column) else {
                    continue;
                };
                // select_true errors on non-booleans; only fold when the
                // whole column is boolean so behaviour cannot change.
                let AlgOp::Lit { rows, .. } = plan.op(input) else {
                    continue;
                };
                if !rows
                    .iter()
                    .all(|r| matches!(r[idx], Const::Value(Value::Bool(_))))
                {
                    continue;
                }
                (
                    input,
                    Box::new(move |row: &[Const]| row[idx] == Const::Value(Value::Bool(true))),
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
                    columns: columns.iter().map(|&(_, t)| t).collect(),
                    rows: new_rows,
                };
                report.constants_folded += 1;
                folded = true;
                continue;
            }
            AlgOp::Attach {
                input,
                target,
                value,
            } => {
                let AlgOp::Lit { columns, rows } = plan.op(input) else {
                    continue;
                };
                if rows.len() > LIT_FOLD_CAP {
                    continue;
                }
                let mut columns = columns.clone();
                columns.push(target);
                let rows = rows
                    .iter()
                    .map(|r| r.iter().chain([&value]).cloned().collect())
                    .collect();
                plan.ops_mut()[id] = AlgOp::Lit { columns, rows };
                report.constants_folded += 1;
                folded = true;
                continue;
            }
            _ => continue,
        };
        let AlgOp::Lit { columns, rows } = plan.op(input).clone() else {
            unreachable!("lit_column checked the input is a literal");
        };
        let new_rows: Vec<Vec<Const>> = rows.into_iter().filter(|r| keep(r)).collect();
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
fn lit_column(plan: &Plan, input: usize, column: ColId) -> Option<usize> {
    let AlgOp::Lit { columns, rows } = plan.op(input) else {
        return None;
    };
    if rows.len() > LIT_FOLD_CAP {
        return None;
    }
    columns.iter().position(|&c| c == column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpId, PlanBuilder};
    use crate::test_cols::{builder, col};

    fn lit2(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("flag")],
            rows: vec![
                vec![Value::Nat(1).into(), Value::Bool(true).into()],
                vec![Value::Nat(2).into(), Value::Bool(false).into()],
            ],
        })
    }

    #[test]
    fn pushes_select_through_projection_with_rename() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("a"), col("b")],
            rows: (0..100)
                .map(|i| vec![Value::Nat(i).into(), Value::Nat(i % 7).into()])
                .collect(),
        });
        let d = b.add(AlgOp::Distinct { input: l });
        let p = b.add(AlgOp::Project {
            input: d,
            columns: vec![(col("a"), col("x")), (col("b"), col("y"))],
        });
        let s = b.add(AlgOp::SelectEq {
            input: p,
            column: col("y"),
            value: Value::Nat(3),
        });
        let mut plan = b.finish(s);
        let mut report = OptimizeReport::default();
        let props = PlanProperties::analyze(&plan);
        assert!(push_selections(&mut plan, &props, &mut report));
        // σ moved through π (renamed to b) and through δ.
        assert_eq!(report.predicates_pushed, 2);
        let AlgOp::Project { input, .. } = plan.op(plan.root()) else {
            panic!("root should be the hoisted projection");
        };
        let AlgOp::Distinct { input } = plan.op(*input) else {
            panic!("expected distinct under the projection");
        };
        match plan.op(*input) {
            AlgOp::SelectEq { column, .. } => assert_eq!(*column, col("b")),
            other => panic!("expected pushed selection, found {other:?}"),
        }
    }

    #[test]
    fn pushes_select_below_join_on_owning_side() {
        let mut b = builder();
        let left = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: (0..80)
                .map(|i| vec![Value::Nat(i).into(), Value::Nat(i).into()])
                .collect(),
        });
        let dl = b.add(AlgOp::Distinct { input: left });
        let right = b.add(AlgOp::Lit {
            columns: vec![col("iter1"), col("val")],
            rows: (0..80)
                .map(|i| vec![Value::Nat(i).into(), Value::Nat(i * 2).into()])
                .collect(),
        });
        let dr = b.add(AlgOp::Distinct { input: right });
        let j = b.add(AlgOp::EquiJoin {
            left: dl,
            right: dr,
            left_col: col("iter"),
            right_col: col("iter1"),
        });
        let s = b.add(AlgOp::SelectEq {
            input: j,
            column: col("val"),
            value: Value::Nat(4),
        });
        let mut plan = b.finish(s);
        let mut report = OptimizeReport::default();
        let props = PlanProperties::analyze(&plan);
        assert!(push_selections(&mut plan, &props, &mut report));
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
        let mut b = builder();
        let l = lit2(&mut b);
        let d = b.add(AlgOp::Distinct { input: l });
        let s = b.add(AlgOp::Select {
            input: d,
            column: col("flag"),
        });
        // Second consumer of the δ: pushing the σ below it would filter
        // rows this branch still needs.
        let u = b.add(AlgOp::Union { left: s, right: d });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        let props = PlanProperties::analyze(&plan);
        push_selections(&mut plan, &props, &mut report);
        assert_eq!(report.predicates_pushed, 0);
    }

    #[test]
    fn folds_select_eq_and_projection_over_literals() {
        let mut b = builder();
        let l = lit2(&mut b);
        let s = b.add(AlgOp::SelectEq {
            input: l,
            column: col("iter"),
            value: Value::Nat(2),
        });
        let p = b.add(AlgOp::Project {
            input: s,
            columns: vec![(col("flag"), col("f"))],
        });
        let mut plan = b.finish(p);
        let mut report = OptimizeReport::default();
        let props = PlanProperties::analyze(&plan);
        assert!(push_selections(&mut plan, &props, &mut report));
        assert_eq!(report.constants_folded, 2);
        match plan.op(plan.root()) {
            AlgOp::Lit { columns, rows } => {
                assert_eq!(columns, &vec![col("f")]);
                assert_eq!(rows, &vec![vec![Value::Bool(false)]]);
            }
            other => panic!("expected fully folded literal, found {other:?}"),
        }
    }

    #[test]
    fn boolean_select_only_folds_all_bool_columns() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("flag")],
            rows: vec![vec![Value::Bool(true).into()], vec![Value::Nat(1).into()]],
        });
        let s = b.add(AlgOp::Select {
            input: l,
            column: col("flag"),
        });
        let mut plan = b.finish(s);
        let mut report = OptimizeReport::default();
        // Folding would swallow the runtime type error: must not fire.
        let props = PlanProperties::analyze(&plan);
        push_selections(&mut plan, &props, &mut report);
        assert_eq!(report.constants_folded, 0);
        assert!(matches!(plan.op(plan.root()), AlgOp::Select { .. }));
    }

    /// σ, π and @ share one cap: each folds a literal of `LIT_FOLD_CAP`
    /// rows and leaves one of a row more alone.
    #[test]
    fn folds_stop_at_the_literal_cap() {
        let fold = |rows: usize, op: fn(OpId) -> AlgOp| {
            let mut b = builder();
            let l = b.add(AlgOp::Lit {
                columns: vec![col("iter"), col("flag")],
                rows: (0..rows as u64)
                    .map(|i| vec![Value::Nat(i).into(), Value::Bool(true).into()])
                    .collect(),
            });
            let top = b.add(op(l));
            let mut plan = b.finish(top);
            let mut report = OptimizeReport::default();
            let folded = fold_literals(&mut plan, &mut report);
            assert_eq!(folded, matches!(plan.op(top), AlgOp::Lit { .. }));
            folded
        };
        let ops: [fn(OpId) -> AlgOp; 4] = [
            |input| AlgOp::Attach {
                input,
                target: col("pos"),
                value: Value::Nat(1).into(),
            },
            |input| AlgOp::Project {
                input,
                columns: vec![(col("iter"), col("pos"))],
            },
            |input| AlgOp::Select {
                input,
                column: col("flag"),
            },
            |input| AlgOp::SelectEq {
                input,
                column: col("iter"),
                value: Value::Nat(3),
            },
        ];
        for op in ops {
            assert!(fold(LIT_FOLD_CAP, op), "{:?}", op(0));
            assert!(!fold(LIT_FOLD_CAP + 1, op), "{:?}", op(0));
        }
    }
}
