//! Count-over-θ-join by rank: `agg[count] / … / δ(π[outer,aid](⋈θ))` →
//! [`AlgOp::ThetaCount`].
//!
//! Join recognition compiles `count(for $o in S where K($p) θ K'($o)
//! return $o)` into a θ-join of the two key relations, a `δ` that reduces
//! the matches to distinct `(outer, aid)` pairs, and the usual scope
//! plumbing on top — a fresh `inner` numbering, the joins that fetch
//! `$o`'s items and map `inner` back to `outer`, a final `%pos1/outer` —
//! only for the aggregate to count the rows per `outer`.  Every one of
//! those operators carries the full pair table.  *XQuery Join Graph
//! Isolation* separates the value predicate from that order-maintenance
//! plumbing; here the plumbing provably changes no row count, so the
//! count is taken straight from the two key relations.
//!
//! The proof is **row alignment**.  An operator is aligned with the base
//! `δ` when its rows are in bijection with the base's rows; per column we
//! track its *origin* — the aligned operator that introduced it — so that
//! two columns of the same origin are the same function of the base row:
//!
//! * the base itself, and `π` / `@` / `%` over an aligned input;
//! * a **lookup** `⋈`: one side aligned, the other side keyed on its join
//!   column, and the aligned side's join values a provable subset of that
//!   key (value provenance), so every aligned row finds exactly one
//!   partner;
//! * a **self** `⋈`: both sides aligned, joined on columns of one origin
//!   that key them, so every base row meets itself.
//!
//! Anything else — a step, `σ`, `∪`, a map that could raise an error —
//! breaks the alignment, and with it the match (XMark Q5 returns
//! `$i/price`: a `⇝` in the body, no rewrite).  A count aggregate over an
//! aligned input, grouped on the base's left-side column, is the number of
//! distinct right-side ids per group: exactly `ThetaCount`.

use std::collections::{BTreeMap, HashMap};

use pf_relational::ops::{AggFunc, RankCount};

use crate::ops::AlgOp;
use crate::optimize::OptimizeReport;
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;

/// Replace every count aggregate [`candidates`] justifies by its
/// `ThetaCount`, renamed to the aggregate's schema by a `π`.  `props` is
/// the analysis of `plan`.
pub(crate) fn count_by_rank(
    plan: &mut Plan,
    props: &PlanProperties,
    report: &mut OptimizeReport,
) -> bool {
    let found = candidates(plan, props);
    report.theta_counts_introduced += found.len();
    for candidate in &found {
        plan.ops_mut().push(candidate.count.clone());
        plan.ops_mut()[candidate.aggregate] = AlgOp::Project {
            input: plan.ops().len() - 1,
            columns: candidate.renames.clone(),
        };
    }
    !found.is_empty()
}

/// A count aggregate and the rank count that computes the same table.
pub(crate) struct Candidate {
    aggregate: OpId,
    /// The [`AlgOp::ThetaCount`] over the θ-join's inputs.
    pub(crate) count: AlgOp,
    /// `(source, target)` pairs mapping its schema onto the aggregate's.
    renames: Vec<(String, String)>,
}

/// Every reachable count aggregate whose input is row-aligned with a
/// `δ(π(⋈θ))` base (see the module docs), given the analysis `pp` of
/// `plan`.  The verifier derives the same list from the pre-rewrite plan,
/// so a rank count the rule could not have justified is rejected.
pub(crate) fn candidates(plan: &Plan, pp: &PlanProperties) -> Vec<Candidate> {
    let order = plan.reachable();
    let mut found = Vec::new();
    for base in order.iter().filter_map(|&id| Base::at(plan, pp, id)) {
        let aligned = base.aligned(plan, &order, pp);
        for &id in &order {
            let AlgOp::Aggregate {
                input,
                group,
                target,
                func: AggFunc::Count,
                ..
            } = plan.op(id)
            else {
                continue;
            };
            let grouped_on_left = aligned
                .get(input)
                .and_then(|cols| cols.get(group))
                .is_some_and(|origin| *origin == (base.delta, base.group_out.clone()));
            // The aggregate emits groups in its input's row order, the
            // rank count in the left key relation's.
            if grouped_on_left && pp.order_free(id) && *target != base.group {
                found.push(Candidate {
                    aggregate: id,
                    count: base.count(plan, target),
                    renames: vec![
                        (base.group.clone(), group.clone()),
                        (target.clone(), target.clone()),
                    ],
                });
            }
        }
    }
    found
}

/// A column of an aligned operator: the aligned operator that introduced
/// it, and its name there.
type Origin = (OpId, String);

/// `δ(π[group_out:group, …:right_id](⋈θ))` — the distinct pairs of one
/// recognized join — or the `π` alone where its rows are keyed, so that
/// scaffolding deletion dropped the δ.
struct Base {
    delta: OpId,
    theta: OpId,
    /// The θ-join's left-side column the `π` keeps…
    group: String,
    /// …and its name at the `δ`.
    group_out: String,
    /// The right-side column the `π` keeps.
    right_id: String,
}

impl Base {
    fn at(plan: &Plan, pp: &PlanProperties, delta: OpId) -> Option<Base> {
        let pairs = match plan.op(delta) {
            AlgOp::Distinct { input } => *input,
            AlgOp::Project { .. } if !pp.keys(delta).is_empty() => delta,
            _ => return None,
        };
        let AlgOp::Project {
            input: theta,
            columns,
        } = plan.op(pairs)
        else {
            return None;
        };
        let AlgOp::ThetaJoin { left, .. } = plan.op(*theta) else {
            return None;
        };
        let [a, b] = columns.as_slice() else {
            return None;
        };
        // Join inputs have disjoint schemas, so a column that is not the
        // left side's is the right side's.
        let of_left = |c: &str| pp.columns(*left).iter().any(|l| l == c);
        let ((group, group_out), (right_id, _)) = match (of_left(&a.0), of_left(&b.0)) {
            (true, false) => (a.clone(), b.clone()),
            (false, true) => (b.clone(), a.clone()),
            _ => return None,
        };
        Some(Base {
            delta,
            theta: *theta,
            group,
            group_out,
            right_id,
        })
    }

    /// The rank count over this base's key relations.
    fn count(&self, plan: &Plan, result: &str) -> AlgOp {
        let AlgOp::ThetaJoin {
            left,
            right,
            left_col,
            op,
            right_col,
        } = plan.op(self.theta).clone()
        else {
            unreachable!("Base::at matched a theta-join");
        };
        AlgOp::ThetaCount {
            left,
            right,
            count: Box::new(RankCount {
                group: self.group.clone(),
                left_col,
                op,
                right_id: self.right_id.clone(),
                right_col,
                result: result.to_string(),
            }),
        }
    }

    /// The operators aligned with this base, each with its columns'
    /// origins.  `order` lists children before parents.
    fn aligned(
        &self,
        plan: &Plan,
        order: &[OpId],
        pp: &PlanProperties,
    ) -> HashMap<OpId, BTreeMap<String, Origin>> {
        let mut aligned: HashMap<OpId, BTreeMap<String, Origin>> = HashMap::new();
        let introduced = |id: OpId, cols: &[String]| -> BTreeMap<String, Origin> {
            cols.iter().map(|c| (c.clone(), (id, c.clone()))).collect()
        };
        let keyed =
            |id: OpId, col: &str| pp.keyed_by(id, &std::iter::once(col.to_string()).collect());
        for &id in order {
            let cols = match plan.op(id) {
                _ if id == self.delta => Some(introduced(id, pp.columns(id))),
                AlgOp::Project { input, columns } => aligned.get(input).and_then(|from| {
                    columns
                        .iter()
                        .map(|(src, tgt)| Some((tgt.clone(), from.get(src)?.clone())))
                        .collect()
                }),
                AlgOp::Attach { input, target, .. } | AlgOp::RowNum { input, target, .. } => {
                    aligned.get(input).map(|from| {
                        let mut cols = from.clone();
                        cols.insert(target.clone(), (id, target.clone()));
                        cols
                    })
                }
                AlgOp::EquiJoin {
                    left,
                    right,
                    left_col,
                    right_col,
                } => {
                    // `side` aligned, `other` looked up through its key.
                    let lookup = |side: OpId, sc: &str, other: OpId, oc: &str| {
                        let from = aligned.get(&side)?;
                        (keyed(other, oc) && pp.value_subset(side, sc, other, oc)).then(|| {
                            let mut cols = from.clone();
                            cols.extend(introduced(id, pp.columns(other)));
                            cols
                        })
                    };
                    match (aligned.get(left), aligned.get(right)) {
                        (Some(l), Some(r))
                            if l.get(left_col).is_some_and(|o| r.get(right_col) == Some(o))
                                && keyed(*left, left_col) =>
                        {
                            let mut cols = l.clone();
                            cols.extend(r.clone());
                            Some(cols)
                        }
                        _ => lookup(*left, left_col, *right, right_col)
                            .or_else(|| lookup(*right, right_col, *left, left_col)),
                    }
                }
                _ => None,
            };
            if let Some(cols) = cols {
                aligned.insert(id, cols);
            }
        }
        aligned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::SortSpec;
    use pf_relational::ops::{BinaryOp, CmpOp};
    use pf_relational::Value;

    fn nat_lit(b: &mut PlanBuilder, columns: &[&str], rows: &[&[u64]]) -> OpId {
        b.add(AlgOp::Lit {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|v| Value::Nat(*v)).collect())
                .collect(),
        })
    }

    fn project(b: &mut PlanBuilder, input: OpId, columns: &[(&str, &str)]) -> OpId {
        b.add(AlgOp::Project {
            input,
            columns: columns
                .iter()
                .map(|(s, t)| (s.to_string(), t.to_string()))
                .collect(),
        })
    }

    /// `agg[count]/outer` over the compiled scaffolding: `%inner` over the
    /// distinct pairs, the item fetch through `aid`, the self-join that
    /// maps `inner` back to `outer` — optionally with a `σ` in the body.
    fn counted_join(filter_body: bool) -> (Plan, OpId) {
        let mut b = PlanBuilder::new();
        let outer = nat_lit(&mut b, &["outer", "okey"], &[&[1, 10], &[2, 20]]);
        let items = nat_lit(&mut b, &["aid", "item"], &[&[1, 5], &[2, 15]]);
        let keyed = b.add(AlgOp::RowNum {
            input: items,
            target: "id".into(),
            order_by: vec![SortSpec::asc("aid")],
            partition: None,
        });
        let inner = project(&mut b, keyed, &[("id", "aid1"), ("item", "item1")]);
        let theta = b.add(AlgOp::ThetaJoin {
            left: outer,
            right: inner,
            left_col: "okey".into(),
            op: BinaryOp::Cmp(CmpOp::Gt),
            right_col: "item1".into(),
        });
        let pairs = project(&mut b, theta, &[("outer", "outer"), ("aid1", "aid")]);
        let delta = b.add(AlgOp::Distinct { input: pairs });
        let numbered = b.add(AlgOp::RowNum {
            input: delta,
            target: "inner".into(),
            order_by: vec![SortSpec::asc("outer"), SortSpec::asc("aid")],
            partition: None,
        });
        let by_id = project(&mut b, keyed, &[("id", "aid2"), ("item", "item")]);
        let fetched = b.add(AlgOp::EquiJoin {
            left: numbered,
            right: by_id,
            left_col: "aid".into(),
            right_col: "aid2".into(),
        });
        let mut body = project(&mut b, fetched, &[("inner", "iter"), ("item", "item")]);
        if filter_body {
            body = b.add(AlgOp::SelectEq {
                input: body,
                column: "item".into(),
                value: Value::Nat(5),
            });
        }
        let map = project(&mut b, numbered, &[("inner", "inner"), ("outer", "outer")]);
        let back = b.add(AlgOp::EquiJoin {
            left: body,
            right: map,
            left_col: "iter".into(),
            right_col: "inner".into(),
        });
        let agg = b.add(AlgOp::Aggregate {
            input: back,
            group: "outer".into(),
            target: "res".into(),
            func: AggFunc::Count,
            value: "item".into(),
        });
        // A sort on the group key makes the aggregate's own row order
        // unobservable, as the scaffolding around a compiled count does.
        let sorted = b.add(AlgOp::Sort {
            input: agg,
            by: vec![SortSpec::asc("outer")],
        });
        (b.finish(sorted), agg)
    }

    #[test]
    fn aligned_scaffolding_becomes_a_rank_count() {
        let (mut plan, agg) = counted_join(false);
        let mut report = OptimizeReport::default();
        let props = PlanProperties::analyze(&plan);
        assert!(count_by_rank(&mut plan, &props, &mut report));
        assert_eq!(report.theta_counts_introduced, 1);
        let AlgOp::Project { input, .. } = plan.op(agg) else {
            panic!("aggregate not replaced: {:?}", plan.op(agg));
        };
        match plan.op(*input) {
            AlgOp::ThetaCount { count, .. } => {
                assert_eq!(
                    (count.group.as_str(), count.right_id.as_str()),
                    ("outer", "aid1")
                );
                assert_eq!(count.op, BinaryOp::Cmp(CmpOp::Gt));
                assert_eq!(count.result, "res");
            }
            other => panic!("expected a rank count, found {other:?}"),
        }
        let props = PlanProperties::analyze(&plan);
        assert!(
            !count_by_rank(&mut plan, &props, &mut report),
            "nothing left"
        );
    }

    #[test]
    fn a_filtering_body_breaks_the_alignment() {
        let (plan, _) = counted_join(true);
        assert!(candidates(&plan, &PlanProperties::analyze(&plan)).is_empty());
    }
}
