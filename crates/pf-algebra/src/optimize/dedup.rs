//! Hash-consed subplan dedup and its late inverse, chain unsharing.
//!
//! [`hash_cons`] merges structurally identical subplans in **one**
//! bottom-up pass: children are first rewritten to their canonical
//! representatives, so a whole duplicated subtree collapses without the
//! fixpoint iterations the string-keyed CSE of the basic level needs.
//! (Same rewrites, counted separately in `subplans_deduped`.)
//!
//! [`unshare_fusable_chains`] runs exactly once *after* the rewrite
//! fixpoint and deliberately undoes a little of that sharing: a cheap
//! row-at-a-time operator whose result is consumed by several fusable
//! parents is cloned per parent, so each clone becomes a
//! single-consumer link that the physical planner fuses into its
//! consumer's pipeline instead of materializing a table that is shared
//! purely by coincidence of structure.  Recomputing a projection or a
//! selection per pipeline is cheaper than materializing it once —
//! that's the whole premise of fusion.  The two passes must never
//! alternate inside the same loop: they are mutual inverses.

use std::collections::HashMap;

use super::OptimizeReport;
use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};

/// Merge structurally identical operators in one bottom-up pass;
/// `true` if anything merged.
pub fn hash_cons(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    // Operators are bucketed by kind and inputs; only operators sharing a
    // bucket are compared, by their full rendering (which, unlike `==`,
    // tells `0.0` from `-0.0` and equates two NaN literals).
    type Bucket = Vec<(OpId, Option<String>)>;
    let mut canonical: HashMap<(std::mem::Discriminant<AlgOp>, Vec<OpId>), Bucket> = HashMap::new();
    let mut rep: Vec<OpId> = (0..plan.ops().len()).collect();
    let mut merged = 0;
    for id in plan.reachable() {
        // Children first (topological order): point them at their
        // canonical representatives, then key this operator.
        let children = plan.op(id).children();
        for (slot, child) in children.iter().enumerate() {
            if rep[*child] != *child {
                plan.ops_mut()[id].replace_child(slot, rep[*child]);
            }
        }
        let op = plan.op(id);
        let bucket = canonical
            .entry((std::mem::discriminant(op), op.children()))
            .or_default();
        let mut key = None;
        let mut found = None;
        for (existing, rendered) in bucket.iter_mut() {
            let rendered = rendered.get_or_insert_with(|| format!("{:?}", plan.op(*existing)));
            if *key.get_or_insert_with(|| format!("{op:?}")) == *rendered {
                found = Some(*existing);
                break;
            }
        }
        match found {
            Some(existing) => {
                rep[id] = existing;
                merged += 1;
            }
            None => bucket.push((id, key)),
        }
    }
    let root = plan.root();
    if rep[root] != root {
        plan.set_root(rep[root]);
    }
    report.subplans_deduped += merged;
    merged > 0
}

/// Can this operator be fused into a pipeline at all?  Mirrors the
/// physical planner's fusable set.
fn chainable(op: &AlgOp) -> bool {
    matches!(
        op,
        AlgOp::Project { .. }
            | AlgOp::Select { .. }
            | AlgOp::SelectEq { .. }
            | AlgOp::Attach { .. }
            | AlgOp::UnaryMap { .. }
            | AlgOp::BinaryMap { .. }
            | AlgOp::FnData { .. }
            | AlgOp::Distinct { .. }
    )
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
    loop {
        let reachable = plan.reachable();
        // Consumer edges per operator: (parent, child slot).
        let mut edges: HashMap<OpId, Vec<(OpId, usize)>> = HashMap::new();
        for &p in &reachable {
            for (slot, c) in plan.op(p).children().into_iter().enumerate() {
                edges.entry(c).or_default().push((p, slot));
            }
        }
        let mut did = false;
        for &id in &reachable {
            if id == plan.root() || !cheap(plan.op(id)) {
                continue;
            }
            let Some(parents) = edges.get(&id) else {
                continue;
            };
            if parents.len() < 2 {
                continue;
            }
            let fusable_edges: Vec<(OpId, usize)> = parents
                .iter()
                .copied()
                .filter(|&(p, _)| chainable(plan.op(p)))
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
            break; // edge maps are stale: rescan
        }
        if !did {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pf_relational::Value;

    fn lit(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Int(7)]],
        })
    }

    #[test]
    fn hash_cons_collapses_duplicate_subtrees_in_one_pass() {
        let mut b = PlanBuilder::new();
        // Two copies of lit → project → select, three levels deep.
        let branch = |b: &mut PlanBuilder| {
            let l = lit(b);
            let p = b.add(AlgOp::Project {
                input: l,
                columns: vec![("iter".into(), "iter".into()), ("item".into(), "v".into())],
            });
            b.add(AlgOp::SelectEq {
                input: p,
                column: "v".into(),
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
        let mut b = PlanBuilder::new();
        let l = lit(&mut b);
        let shared = b.add(AlgOp::Attach {
            input: l,
            target: "flag".into(),
            value: Value::Bool(true),
        });
        // Two fusable consumers of the shared attach.
        let c1 = b.add(AlgOp::Select {
            input: shared,
            column: "flag".into(),
        });
        let c2 = b.add(AlgOp::Project {
            input: shared,
            columns: vec![("item".into(), "item".into())],
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
        let mut b = PlanBuilder::new();
        let l = lit(&mut b);
        let shared = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("item".into(), "item".into()),
            ],
        });
        let fuse = b.add(AlgOp::Select {
            input: shared,
            column: "item".into(),
        });
        // Sort is a breaker: it keeps reading the original operator.
        let keep = b.add(AlgOp::Sort {
            input: shared,
            by: vec![],
        });
        let u = b.add(AlgOp::Union {
            left: fuse,
            right: keep,
        });
        let mut plan = b.finish(u);
        let mut report = OptimizeReport::default();
        unshare_fusable_chains(&mut plan, &mut report);
        assert_eq!(report.chains_unshared, 1);
        let AlgOp::Sort { input, .. } = plan.op(keep) else {
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
        let mut b = PlanBuilder::new();
        let l = lit(&mut b);
        let shared = b.add(AlgOp::Distinct { input: l });
        let c1 = b.add(AlgOp::Select {
            input: shared,
            column: "item".into(),
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
