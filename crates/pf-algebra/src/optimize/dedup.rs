//! Hash-consed subplan dedup and its late inverse, chain unsharing.
//!
//! [`hash_cons`] merges structurally identical subplans in **one**
//! bottom-up pass: children are first rewritten to their canonical
//! representatives, so a whole duplicated subtree collapses without a
//! second pass (counted in `subplans_deduped`).
//!
//! [`unshare_fusable_chains`] runs exactly once, as the optimizer's last
//! phase, and deliberately undoes a little of that sharing: a cheap
//! row-at-a-time operator whose result is consumed by several fusable
//! parents is cloned per parent, so each clone becomes a
//! single-consumer link that the physical planner fuses into its
//! consumer's pipeline instead of materializing a table that is shared
//! purely by coincidence of structure.  Recomputing a projection or a
//! selection per pipeline is cheaper than materializing it once —
//! that's the whole premise of fusion.  The two passes must never
//! alternate: they are mutual inverses.

use std::collections::hash_map::Entry;
use std::mem::Discriminant;

use pf_relational::hash::FxHashMap;

use super::OptimizeReport;
use crate::ops::{AlgOp, Children};
use crate::physical::is_fusable;
use crate::plan::{OpId, Plan};

/// Operators bucketed by kind and inputs.  Two operators can compute the
/// same relation only within one bucket, so only bucket members are ever
/// compared ([`AlgOp::same_as`]).  [`hash_cons`] keys by an operator's
/// inputs, the property analysis by its inputs' canonical operators.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct OpClasses {
    /// The first and the last member of each bucket.
    ends: FxHashMap<(Discriminant<AlgOp>, Children), (OpId, OpId)>,
    /// The member after each member of a bucket, in insertion order;
    /// [`OpClasses::END`] after the last.
    next: Vec<OpId>,
}

impl OpClasses {
    const END: OpId = OpId::MAX;

    /// The first member of the bucket of `op` over `inputs` that `same`
    /// accepts; else `id`, which joins the bucket.
    pub(crate) fn find_or_insert(
        &mut self,
        op: &AlgOp,
        inputs: Children,
        id: OpId,
        same: impl Fn(OpId) -> bool,
    ) -> OpId {
        let (first, last) = match self.ends.entry((std::mem::discriminant(op), inputs)) {
            Entry::Vacant(bucket) => {
                bucket.insert((id, id));
                return id;
            }
            Entry::Occupied(bucket) => bucket.into_mut(),
        };
        let mut member = *first;
        while member != Self::END {
            if same(member) {
                return member;
            }
            member = self.next.get(member).copied().unwrap_or(Self::END);
        }
        let tail = std::mem::replace(last, id);
        if self.next.len() <= tail {
            self.next.resize(tail + 1, Self::END);
        }
        self.next[tail] = id;
        id
    }
}

/// Merge structurally identical operators in one bottom-up pass;
/// `true` if anything merged.
pub fn hash_cons(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut classes = OpClasses::default();
    let mut rep: Vec<OpId> = (0..plan.ops().len()).collect();
    let mut merged = 0;
    for id in plan.reachable() {
        // Children first (topological order): point them at their
        // canonical representatives, then key this operator.
        for (slot, child) in plan.op(id).children().into_iter().enumerate() {
            if rep[child] != child {
                plan.ops_mut()[id].replace_child(slot, rep[child]);
            }
        }
        let op = plan.op(id);
        let found =
            classes.find_or_insert(op, op.children(), id, |member| plan.op(member).same_as(op));
        if found != id {
            rep[id] = found;
            merged += 1;
        }
    }
    let root = plan.root();
    if rep[root] != root {
        plan.set_root(rep[root]);
    }
    report.subplans_deduped += merged;
    merged > 0
}

/// Is this operator cheap enough to evaluate once per consumer?
/// `FnData` (node resolution) and `Distinct` (hashing) stay shared.
fn cheap(op: &AlgOp) -> bool {
    matches!(
        op,
        AlgOp::Project { .. }
            | AlgOp::Select { .. }
            | AlgOp::SelectEq { .. }
            | AlgOp::Attach { .. }
            | AlgOp::UnaryMap { .. }
            | AlgOp::BinaryMap { .. }
    )
}

/// Clone shared cheap operators so every fusable consumer gets its own
/// single-consumer copy; cascades down chains until sharing bottoms out
/// at a non-cheap operator (which stays materialized once).
pub fn unshare_fusable_chains(plan: &mut Plan, report: &mut OptimizeReport) {
    // Consumer edges per operator: (parent, child slot).  Rebuilt after
    // every clone, in place.
    let mut edges: Vec<Vec<(OpId, usize)>> = Vec::new();
    loop {
        edges.iter_mut().for_each(Vec::clear);
        edges.resize_with(plan.ops().len(), Vec::new);
        let reachable = plan.reachable();
        for &p in &reachable {
            for (slot, c) in plan.op(p).children().into_iter().enumerate() {
                edges[c].push((p, slot));
            }
        }
        let mut did = false;
        for &id in &reachable {
            let parents = &edges[id];
            if id == plan.root() || parents.len() < 2 || !cheap(plan.op(id)) {
                continue;
            }
            let fusable_edges: Vec<(OpId, usize)> = parents
                .iter()
                .copied()
                .filter(|&(p, _)| is_fusable(plan.op(p)))
                .collect();
            if fusable_edges.is_empty() {
                continue;
            }
            // If every consumer could fuse, the first keeps the original
            // (now single-consumer); otherwise the original stays behind
            // for the non-fusable consumers and every fusable edge gets
            // a clone.
            let clone_for: &[(OpId, usize)] = if fusable_edges.len() == parents.len() {
                &fusable_edges[1..]
            } else {
                &fusable_edges[..]
            };
            if clone_for.is_empty() {
                continue;
            }
            for &(parent, slot) in clone_for {
                let copy = plan.op(id).clone();
                plan.ops_mut().push(copy);
                let new_id = plan.ops_mut().len() - 1;
                plan.ops_mut()[parent].replace_child(slot, new_id);
                report.chains_unshared += 1;
            }
            did = true;
            break; // edge lists are stale: rescan
        }
        if !did {
            break;
        }
    }
}

/// Pairs of operators that differ only in an `xs:double` literal, under
/// one union tree: `@c := 0.0` and `@c := -0.0`, two `@c := NaN` — both
/// over one shared input — then the same as single-row literals.  `==`
/// gets both pairs wrong: `0.0 == -0.0` holds and `NaN == NaN` does not.
/// Returns the plan, the pairs and the union over each pair.
#[cfg(test)]
pub(crate) fn float_twins() -> (Plan, [(OpId, OpId); 4], [OpId; 4]) {
    use crate::plan::PlanBuilder;
    use crate::test_cols::{builder, col};
    use pf_relational::Value;

    let mut b = builder();
    let input = b.add(AlgOp::Lit {
        columns: vec![col("iter")],
        rows: vec![vec![Value::Nat(1).into()]],
    });
    let attach = |b: &mut PlanBuilder, x: f64| {
        b.add(AlgOp::Attach {
            input,
            target: col("c"),
            value: Value::Dbl(x).into(),
        })
    };
    let zeros = (attach(&mut b, 0.0), attach(&mut b, -0.0));
    let nans = (attach(&mut b, f64::NAN), attach(&mut b, f64::NAN));
    let lit = |b: &mut PlanBuilder, x: f64| {
        b.add(AlgOp::Lit {
            columns: vec![col("d")],
            rows: vec![vec![Value::Dbl(x).into()]],
        })
    };
    let lit_zeros = (lit(&mut b, 0.0), lit(&mut b, -0.0));
    let lit_nans = (lit(&mut b, f64::NAN), lit(&mut b, f64::NAN));
    let pairs = [zeros, nans, lit_zeros, lit_nans];
    let unions = pairs.map(|(left, right)| b.add(AlgOp::Union { left, right }));
    let [u1, u2, u3, u4] = unions;
    let attaches = b.add(AlgOp::Union {
        left: u1,
        right: u2,
    });
    let lits = b.add(AlgOp::Union {
        left: u3,
        right: u4,
    });
    let root = b.add(AlgOp::Cross {
        left: attaches,
        right: lits,
    });
    (b.finish(root), pairs, unions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::test_cols::{builder, col};
    use pf_relational::Value;

    /// Hash-consing keeps `0.0` and `-0.0` apart (they serialize
    /// differently) and merges two NaN literals, for `@` and for literal
    /// tables alike.
    #[test]
    fn hash_cons_tells_signed_zeros_apart_and_merges_nans() {
        let (mut plan, pairs, unions) = float_twins();
        let mut report = OptimizeReport::default();
        assert!(hash_cons(&mut plan, &mut report));
        assert_eq!(report.subplans_deduped, 2, "one merge per NaN pair");
        for (k, ((left, right), union)) in pairs.into_iter().zip(unions).enumerate() {
            let inputs = plan.op(union).children();
            if k % 2 == 0 {
                assert_eq!(inputs[..], [left, right], "0.0 and -0.0 stay apart");
            } else {
                assert_eq!(inputs[0], inputs[1], "the NaN twins merge");
                assert!([left, right].contains(&inputs[0]));
            }
        }
    }

    fn lit(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![vec![Value::Nat(1).into(), Value::Int(7).into()]],
        })
    }

    #[test]
    fn hash_cons_collapses_duplicate_subtrees_in_one_pass() {
        let mut b = builder();
        // Two copies of lit → project → select, three levels deep.
        let branch = |b: &mut PlanBuilder| {
            let l = lit(b);
            let p = b.add(AlgOp::Project {
                input: l,
                columns: vec![(col("iter"), col("iter")), (col("item"), col("v"))],
            });
            b.add(AlgOp::SelectEq {
                input: p,
                column: col("v"),
                value: Value::Int(7),
            })
        };
        let s1 = branch(&mut b);
        let s2 = branch(&mut b);
        let u = b.add(AlgOp::Union {
            left: s1,
            right: s2,
        });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        assert!(hash_cons(&mut plan, &mut report));
        // All three levels merge in a single invocation.
        assert_eq!(report.subplans_deduped, 3);
        let AlgOp::Union { left, right } = plan.op(plan.root()) else {
            panic!("root must stay a union");
        };
        assert_eq!(left, right);
        assert!(!hash_cons(&mut plan, &mut report), "second run is a no-op");
    }

    #[test]
    fn unshare_clones_shared_cheap_ops_for_fusable_consumers() {
        let mut b = builder();
        let l = lit(&mut b);
        let shared = b.add(AlgOp::Attach {
            input: l,
            target: col("flag"),
            value: Value::Bool(true).into(),
        });
        // Two fusable consumers of the shared attach.
        let c1 = b.add(AlgOp::Select {
            input: shared,
            column: col("flag"),
        });
        let c2 = b.add(AlgOp::Project {
            input: shared,
            columns: vec![(col("item"), col("item"))],
        });
        let u = b.add(AlgOp::Union {
            left: c1,
            right: c2,
        });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        unshare_fusable_chains(&mut plan, &mut report);
        assert_eq!(report.chains_unshared, 1);
        // The consumers now read different (but identical) attaches.
        let AlgOp::Select { input: i1, .. } = plan.op(c1) else {
            panic!()
        };
        let AlgOp::Project { input: i2, .. } = plan.op(c2) else {
            panic!()
        };
        assert_ne!(i1, i2);
        assert_eq!(format!("{:?}", plan.op(*i1)), format!("{:?}", plan.op(*i2)));
    }

    #[test]
    fn unshare_keeps_the_original_for_non_fusable_consumers() {
        let mut b = builder();
        let l = lit(&mut b);
        let shared = b.add(AlgOp::Project {
            input: l,
            columns: vec![(col("iter"), col("iter")), (col("item"), col("item"))],
        });
        let fuse = b.add(AlgOp::Select {
            input: shared,
            column: col("item"),
        });
        // Row numbering is a breaker: it keeps reading the original
        // operator.
        let keep = b.add(AlgOp::RowNum {
            input: shared,
            target: col("pos"),
            order_by: vec![],
            partition: None,
        });
        let u = b.add(AlgOp::Union {
            left: fuse,
            right: keep,
        });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        unshare_fusable_chains(&mut plan, &mut report);
        assert_eq!(report.chains_unshared, 1);
        let AlgOp::RowNum { input, .. } = plan.op(keep) else {
            panic!()
        };
        assert_eq!(*input, shared, "breaker consumer keeps the original");
        let AlgOp::Select { input, .. } = plan.op(fuse) else {
            panic!()
        };
        assert_ne!(*input, shared, "fusable consumer got its own clone");
    }

    #[test]
    fn unshare_leaves_expensive_ops_shared() {
        let mut b = builder();
        let l = lit(&mut b);
        let shared = b.add(AlgOp::Distinct { input: l });
        let c1 = b.add(AlgOp::Select {
            input: shared,
            column: col("item"),
        });
        let c2 = b.add(AlgOp::FnData { input: shared });
        let u = b.add(AlgOp::Union {
            left: c1,
            right: c2,
        });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        unshare_fusable_chains(&mut plan, &mut report);
        assert_eq!(report.chains_unshared, 0);
    }
}
