//! Statistics-driven equi-join reordering.
//!
//! A *cluster* is a maximal tree of equi-joins connected through
//! single-consumer edges — the value join graph that loop-lifting
//! buries under order-maintenance plumbing.  Edges may run through
//! single-consumer `Project`/`Attach` interposers (renames, column
//! drops, attached constants): exactly the plumbing the lifted encoding
//! wraps around every join.  Once
//! [`PlanProperties::order_free`](crate::PlanProperties::order_free)
//! proves the cluster root order-free (its left-major output order is unobservable in the
//! serialized result), the cluster is a plain bag-semantics join graph:
//! leaves are relations, the join columns are edges of a spanning tree.
//!
//! The pass rebuilds each such cluster as a left-deep chain, greedily
//! joining the smallest-estimated connected leaf next (per
//! [`PlanProperties::rows`](crate::PlanProperties::rows)).  Leaf columns are α-renamed
//! (`col__jg<i>`) so
//! self-joins and colliding rename schemes stay unambiguous, and a
//! projection on top restores the original output columns — re-attaching
//! constants the interposers contributed — so downstream operators (and
//! `union_disjoint`'s schema-order check) never see a difference.
//!
//! The greedy order is deterministic, so a cluster already in greedy
//! left-deep shape is recognized and skipped — the surrounding fixpoint
//! terminates.

use std::collections::HashMap;

use super::{redirect, OptimizeReport};
use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;
use pf_relational::Value;

/// A join predicate resolved to leaf coordinates:
/// `((leaf, col), (leaf, col))`.
type Pred = ((usize, String), (usize, String));

/// Where a column visible at a cluster edge ultimately comes from.
#[derive(Debug, Clone, PartialEq)]
enum Origin {
    /// Column `1` of cluster leaf `0`.
    Leaf(usize, String),
    /// An `Attach`ed constant.
    Const(Value),
}

/// The α-name leaf `i`'s column `col` gets inside a rebuilt chain.
fn alpha(i: usize, col: &str) -> String {
    format!("{col}__jg{i}")
}

/// Reorder every equi-join cluster `props` justifies, top-down; `true` if
/// a cluster was rewritten.  `props` is the analysis of `plan` — with
/// document statistics, since it supplies the cardinalities as well as
/// order freedom and schemas.  A rewritten cluster changes the consumers
/// of everything below its leaves, whose order freedom is then unknown:
/// clusters there wait for the next call.
pub fn reorder_join_graphs(
    plan: &mut Plan,
    props: &PlanProperties,
    report: &mut OptimizeReport,
) -> bool {
    let consumers = plan.consumer_counts();
    let reachable = plan.reachable();

    let mut sole_parent: Vec<Option<OpId>> = vec![None; plan.ops().len()];
    for &p in &reachable {
        for c in plan.op(p).children() {
            sole_parent[c] = Some(p);
        }
    }
    // An equi-join is *interior* to a cluster when its only consumer —
    // looking up through single-consumer Project/Attach interposers —
    // is another equi-join; every other equi-join roots its own cluster.
    let interior = |mut id: OpId| -> bool {
        loop {
            if consumers[id] != 1 {
                return false;
            }
            let Some(p) = sole_parent[id] else {
                return false;
            };
            match plan.op(p) {
                AlgOp::EquiJoin { .. } => return true,
                AlgOp::Project { .. } | AlgOp::Attach { .. } => id = p,
                _ => return false,
            }
        }
    };

    let roots: Vec<OpId> = reachable
        .iter()
        .rev()
        .copied()
        .filter(|&id| matches!(plan.op(id), AlgOp::EquiJoin { .. }) && !interior(id))
        .collect();
    let mut below_rewrite = vec![false; plan.ops().len()];
    let mut changed = false;
    for root in roots {
        if below_rewrite[root] || !props.order_free(root) {
            continue;
        }
        let Some(cluster) = collect_cluster(plan, root, &consumers, props) else {
            continue;
        };
        let Cluster {
            leaves,
            preds,
            colmap,
        } = cluster;
        if leaves.len() < 3 {
            continue; // a 2-way join has nothing to reorder
        }

        // Greedy order: start at the smallest leaf, then repeatedly join
        // the smallest leaf connected to the accumulated set.  Each step
        // records the predicate oriented (set side, leaf side).  Bails
        // if the predicate graph does not span the leaves (a predicate
        // between already-connected leaves starves another leaf).
        //
        // All tie-breaks compare by *collection index* (leaves are
        // collected in DFS order, predicates in bottom-up post-order).
        // That makes the fixpoint check below trivial — a left-deep
        // chain in greedy shape collects exactly so that greedy returns
        // the identity order picking predicates in index order — and it
        // is stable across rebuilds: the rebuilt chain's DFS order *is*
        // the previous greedy order, so re-running greedy reproduces it
        // instead of oscillating between equal-estimate leaves.
        let leaf_rows = |idx: usize| props.rows(leaves[idx]);
        let n = leaves.len();
        let mut in_set = vec![false; n];
        let mut pred_used = vec![false; preds.len()];
        let start = (0..n)
            .min_by(|&a, &b| leaf_rows(a).total_cmp(&leaf_rows(b)).then(a.cmp(&b)))
            .unwrap();
        in_set[start] = true;
        let mut order = vec![start];
        // ((set leaf, set col), (new leaf, leaf col)) per chain step.
        type Step = Pred;
        let mut chain: Vec<(Step, usize)> = Vec::new();
        while order.len() < n {
            // (rows, leaf idx, pred idx, step).
            let mut best: Option<(f64, usize, usize, Step)> = None;
            for (pi, ((la, ca), (lb, cb))) in preds.iter().enumerate() {
                if pred_used[pi] {
                    continue;
                }
                let (set_side, leaf_side) = match (in_set[*la], in_set[*lb]) {
                    (true, false) => ((*la, ca.clone()), (*lb, cb.clone())),
                    (false, true) => ((*lb, cb.clone()), (*la, ca.clone())),
                    _ => continue,
                };
                let leaf = leaf_side.0;
                let key = (leaf_rows(leaf), leaf, pi, (set_side, leaf_side));
                let better = match &best {
                    None => true,
                    Some(cur) => key
                        .0
                        .total_cmp(&cur.0)
                        .then(key.1.cmp(&cur.1))
                        .then(key.2.cmp(&cur.2))
                        .is_lt(),
                };
                if better {
                    best = Some(key);
                }
            }
            let Some((_, _, pi, step)) = best else {
                break;
            };
            pred_used[pi] = true;
            in_set[step.1 .0] = true;
            order.push(step.1 .0);
            chain.push((step, pi));
        }
        if order.len() < n {
            continue; // not a spanning tree
        }

        // Fixpoint: the cluster collects bottom-up, so a chain already
        // in greedy left-deep shape yields the identity order with
        // predicates picked in index order (and only such a chain can —
        // a bushy subtree's internal predicate connects leaves outside
        // the growing set and forces an out-of-order pick).
        if order.iter().enumerate().all(|(i, &l)| l == i)
            && chain.iter().enumerate().all(|(k, (_, pi))| *pi == k)
        {
            continue;
        }
        let chain: Vec<Step> = chain.into_iter().map(|(step, _)| step).collect();

        // Each leaf only needs the columns the predicates and the root
        // schema reference.
        let root_cols = props.columns(root).to_vec();
        let mut needed: Vec<Vec<String>> = vec![Vec::new(); n];
        let mut need = |leaf: usize, col: &str| {
            if !needed[leaf].iter().any(|c| c == col) {
                needed[leaf].push(col.to_string());
            }
        };
        for ((la, ca), (lb, cb)) in &preds {
            need(*la, ca);
            need(*lb, cb);
        }
        for col in &root_cols {
            if let Some(Origin::Leaf(leaf, src)) = colmap.get(col) {
                need(*leaf, src);
            }
        }

        // Rebuild: α-projected leaves, left-deep chain, restore
        // projection (re-attaching interposer constants).
        let alpha_leaf: Vec<OpId> = (0..n)
            .map(|i| {
                let columns = needed[i].iter().map(|c| (c.clone(), alpha(i, c))).collect();
                plan.ops_mut().push(AlgOp::Project {
                    input: leaves[i],
                    columns,
                });
                plan.ops_mut().len() - 1
            })
            .collect();
        let mut acc = alpha_leaf[order[0]];
        for ((sl, sc), (ll, lc)) in &chain {
            plan.ops_mut().push(AlgOp::EquiJoin {
                left: acc,
                right: alpha_leaf[*ll],
                left_col: alpha(*sl, sc),
                right_col: alpha(*ll, lc),
            });
            acc = plan.ops_mut().len() - 1;
        }
        let mut restore: Vec<(String, String)> = Vec::new();
        for col in &root_cols {
            match &colmap[col] {
                Origin::Leaf(leaf, src) => restore.push((alpha(*leaf, src), col.clone())),
                Origin::Const(value) => {
                    plan.ops_mut().push(AlgOp::Attach {
                        input: acc,
                        target: col.clone(),
                        value: value.clone(),
                    });
                    acc = plan.ops_mut().len() - 1;
                    restore.push((col.clone(), col.clone()));
                }
            }
        }
        plan.ops_mut().push(AlgOp::Project {
            input: acc,
            columns: restore,
        });
        let pi_op = plan.ops_mut().len() - 1;
        redirect(plan, root, pi_op);
        report.joins_reordered += 1;
        changed = true;
        let mut stack = leaves;
        while let Some(id) = stack.pop() {
            if id < below_rewrite.len() && !below_rewrite[id] {
                below_rewrite[id] = true;
                stack.extend(plan.op(id).children());
            }
        }
    }
    changed
}

struct Cluster {
    /// Leaf operators (the direct children where peeling stopped).
    leaves: Vec<OpId>,
    /// Join predicates resolved to leaf origins:
    /// `((leaf, col), (leaf, col))`.
    preds: Vec<Pred>,
    /// The cluster root's visible columns → their origins.
    colmap: HashMap<String, Origin>,
}

/// Collect the cluster rooted at the equi-join `root`: recurse through
/// single-consumer `Project`/`Attach` interposers into interior joins,
/// recording leaves, predicates (in leaf coordinates), and the root's
/// column origins.  `None` if any predicate resolves to a constant or a
/// column origin is ambiguous.
fn collect_cluster(
    plan: &Plan,
    root: OpId,
    consumers: &[usize],
    props: &PlanProperties,
) -> Option<Cluster> {
    let mut leaves: Vec<OpId> = Vec::new();
    let mut preds: Vec<Pred> = Vec::new();
    let colmap = collect_edge(plan, root, true, consumers, props, &mut leaves, &mut preds)?;
    Some(Cluster {
        leaves,
        preds,
        colmap,
    })
}

/// Resolve one cluster edge starting at `node` (a direct child of a
/// cluster join, or the root itself when `is_root`): peel interposers,
/// recurse into interior joins, and return the column→origin map
/// visible at `node`.
fn collect_edge(
    plan: &Plan,
    node: OpId,
    is_root: bool,
    consumers: &[usize],
    props: &PlanProperties,
    leaves: &mut Vec<OpId>,
    preds: &mut Vec<Pred>,
) -> Option<HashMap<String, Origin>> {
    // Walk the interposer chain down to a join or a leaf.
    let mut interposers: Vec<OpId> = Vec::new();
    let mut cur = node;
    let bottom = loop {
        if !is_root && consumers[cur] != 1 {
            break None; // shared chain: the direct child stays a leaf
        }
        match plan.op(cur) {
            AlgOp::EquiJoin { .. } => break Some(cur),
            AlgOp::Project { input, .. } | AlgOp::Attach { input, .. } if !is_root => {
                interposers.push(cur);
                cur = *input;
            }
            _ => break None,
        }
    };
    let mut map: HashMap<String, Origin> = match bottom {
        Some(join) => {
            let AlgOp::EquiJoin {
                left,
                right,
                left_col,
                right_col,
            } = plan.op(join)
            else {
                unreachable!("bottom of a cluster edge chain is an equi-join");
            };
            let lmap = collect_edge(plan, *left, false, consumers, props, leaves, preds)?;
            let rmap = collect_edge(plan, *right, false, consumers, props, leaves, preds)?;
            let (Some(Origin::Leaf(la, ca)), Some(Origin::Leaf(lb, cb))) =
                (lmap.get(left_col), rmap.get(right_col))
            else {
                return None; // predicate over an attached constant
            };
            preds.push(((*la, ca.clone()), (*lb, cb.clone())));
            let mut map = lmap;
            for (col, origin) in rmap {
                if map.insert(col, origin).is_some() {
                    return None; // colliding schemas: ambiguous origin
                }
            }
            map
        }
        None => {
            // A leaf: the whole chain (interposers included) stays
            // intact as one relation.
            let leaf = node;
            let idx = leaves.len();
            leaves.push(leaf);
            return Some(
                props
                    .schema(leaf)?
                    .columns
                    .iter()
                    .map(|c| (c.clone(), Origin::Leaf(idx, c.clone())))
                    .collect(),
            );
        }
    };
    // Apply the interposers bottom-up onto the join's column map.
    for &ip in interposers.iter().rev() {
        match plan.op(ip) {
            AlgOp::Project { columns, .. } => {
                let mut next = HashMap::new();
                for (src, tgt) in columns {
                    next.insert(tgt.clone(), map.get(src)?.clone());
                }
                map = next;
            }
            AlgOp::Attach { target, value, .. } => {
                map.insert(target.clone(), Origin::Const(value.clone()));
            }
            _ => unreachable!("interposers are projects or attaches"),
        }
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::schema::infer_schema;
    use pf_relational::Value;

    /// The rule over a fresh statistics-free analysis, as the driver
    /// would call it.
    fn reorder(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
        let props = PlanProperties::analyze(plan);
        reorder_join_graphs(plan, &props, report)
    }

    /// A distinct single-iteration relation with `rows` rows and columns
    /// `{key_col, val_col}`; key values are 0..rows so every column is a
    /// key and joins on shared key ranges behave like a star schema.
    fn relation(b: &mut PlanBuilder, key_col: &str, val_col: &str, rows: u64) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec![key_col.into(), val_col.into()],
            rows: (0..rows)
                .map(|i| vec![Value::Nat(i), Value::Nat(i * 10)])
                .collect(),
        })
    }

    /// root := ((A ⋈ B) ⋈ C) with A largest — greedy should restructure
    /// so the small leaves join first.
    fn three_way(b: &mut PlanBuilder) -> (OpId, OpId, OpId, OpId) {
        let a = relation(b, "a_k", "b_k", 40); // 40 rows: the big one
        let bb = relation(b, "b_k2", "c_k", 4);
        let c = relation(b, "c_k2", "c_v", 2);
        let j1 = b.add(AlgOp::EquiJoin {
            left: a,
            right: bb,
            left_col: "b_k".into(),
            right_col: "b_k2".into(),
        });
        let j2 = b.add(AlgOp::EquiJoin {
            left: j1,
            right: c,
            left_col: "c_k".into(),
            right_col: "c_k2".into(),
        });
        (a, bb, c, j2)
    }

    /// Wrap `input` so the root is order-free: attach pos, rownum-free.
    fn finish_order_free(mut b: PlanBuilder, input: OpId) -> Plan {
        // Rows are keyed by a_k (all-distinct); project it onto pos so
        // serialization's pos sort covers a key.
        let p = b.add(AlgOp::Project {
            input,
            columns: vec![("a_k".into(), "pos".into()), ("c_v".into(), "item".into())],
        });
        b.finish(p)
    }

    /// Follow a chain of α-rename projections down to the underlying
    /// relation.
    fn through_projects(plan: &Plan, mut id: OpId) -> OpId {
        while let AlgOp::Project { input, .. } = plan.op(id) {
            id = *input;
        }
        id
    }

    #[test]
    fn reorders_left_deep_by_estimate_and_restores_columns() {
        let mut b = PlanBuilder::new();
        let (_a, bb, c, root) = three_way(&mut b);
        let mut plan = finish_order_free(b, root);
        let before_props = infer_schema(&plan);
        let before_cols = before_props[&root].columns.clone();
        let mut report = OptimizeReport::default();
        assert!(reorder(&mut plan, &mut report));
        assert_eq!(report.joins_reordered, 1);
        // The restore projection feeds the old root's consumers with the
        // original column order.
        let AlgOp::Project { input, .. } = plan.op(plan.root()) else {
            panic!("root stays the outer projection");
        };
        let AlgOp::Project {
            input: restore_in,
            columns: restore_cols,
        } = plan.op(*input)
        else {
            panic!("expected the restore projection, got {:?}", plan.op(*input));
        };
        assert_eq!(
            restore_cols
                .iter()
                .map(|(_, t)| t.clone())
                .collect::<Vec<_>>(),
            before_cols
        );
        // The chain starts from the smallest leaf: C ⋈ B, then A.
        let AlgOp::EquiJoin { left, right, .. } = plan.op(*restore_in) else {
            panic!("expected the top of the rebuilt chain");
        };
        let AlgOp::EquiJoin {
            left: inner_left,
            right: inner_right,
            ..
        } = plan.op(*left)
        else {
            panic!("expected the bottom join of the chain");
        };
        assert_eq!(through_projects(&plan, *inner_left), c);
        assert_eq!(through_projects(&plan, *inner_right), bb);
        // A joins last.
        assert!(matches!(
            plan.op(through_projects(&plan, *right)),
            AlgOp::Lit { .. }
        ));
    }

    #[test]
    fn reordering_reaches_a_fixpoint() {
        let mut b = PlanBuilder::new();
        let (_a, _bb, _c, root) = three_way(&mut b);
        let mut plan = finish_order_free(b, root);
        let mut report = OptimizeReport::default();
        assert!(reorder(&mut plan, &mut report));
        let mut report2 = OptimizeReport::default();
        assert!(!reorder(&mut plan, &mut report2));
        assert_eq!(report2.joins_reordered, 0);
    }

    #[test]
    fn order_sensitive_roots_are_left_alone() {
        let mut b = PlanBuilder::new();
        let (_a, _bb, _c, root) = three_way(&mut b);
        // No pos column at the root: serialization order depends on row
        // order, so the cluster must not move.
        let p = b.add(AlgOp::Project {
            input: root,
            columns: vec![("c_v".into(), "item".into())],
        });
        let mut plan = b.finish(p);
        let mut report = OptimizeReport::default();
        assert!(!reorder(&mut plan, &mut report));
    }

    #[test]
    fn two_way_joins_are_left_alone() {
        let mut b = PlanBuilder::new();
        let a = relation(&mut b, "a_k", "b_k", 10);
        let bb = relation(&mut b, "b_k2", "c_v", 2);
        let j = b.add(AlgOp::EquiJoin {
            left: a,
            right: bb,
            left_col: "b_k".into(),
            right_col: "b_k2".into(),
        });
        let p = b.add(AlgOp::Project {
            input: j,
            columns: vec![("a_k".into(), "pos".into()), ("c_v".into(), "item".into())],
        });
        let mut plan = b.finish(p);
        let mut report = OptimizeReport::default();
        assert!(!reorder(&mut plan, &mut report));
    }

    /// The loop-lifted shape: joins separated by rename projections and
    /// attached constants.  The cluster must see through the plumbing,
    /// reorder the three leaves, and restore the renamed/attached root
    /// schema.
    #[test]
    fn clusters_reach_through_project_and_attach_interposers() {
        let mut b = PlanBuilder::new();
        let a = relation(&mut b, "a_k", "b_k", 40);
        let bb = relation(&mut b, "b_k2", "c_k", 4);
        let c = relation(&mut b, "c_k2", "c_v", 2);
        let j1 = b.add(AlgOp::EquiJoin {
            left: a,
            right: bb,
            left_col: "b_k".into(),
            right_col: "b_k2".into(),
        });
        // Interposers: rename c_k → hop, attach a constant flag.
        let ren = b.add(AlgOp::Project {
            input: j1,
            columns: vec![("a_k".into(), "a_k".into()), ("c_k".into(), "hop".into())],
        });
        let att = b.add(AlgOp::Attach {
            input: ren,
            target: "flag".into(),
            value: Value::Nat(7),
        });
        let j2 = b.add(AlgOp::EquiJoin {
            left: att,
            right: c,
            left_col: "hop".into(),
            right_col: "c_k2".into(),
        });
        let p = b.add(AlgOp::Project {
            input: j2,
            columns: vec![
                ("a_k".into(), "pos".into()),
                ("flag".into(), "flag".into()),
                ("c_v".into(), "item".into()),
            ],
        });
        let mut plan = b.finish(p);
        let mut report = OptimizeReport::default();
        assert!(
            reorder(&mut plan, &mut report),
            "interposed cluster should be reordered"
        );
        assert_eq!(report.joins_reordered, 1);
        // Fixpoint holds on the rebuilt shape.
        let mut report2 = OptimizeReport::default();
        assert!(!reorder(&mut plan, &mut report2));
        // The attached constant column survives at the root.
        let schema = infer_schema(&plan);
        assert!(schema[&plan.root()].columns.iter().any(|c| c == "flag"));
    }
}
