//! Plan DAGs and the plan builder.

use crate::ops::AlgOp;

/// Identifier of an operator within a [`Plan`] (index into the node arena).
pub type OpId = usize;

/// A query plan: a DAG of [`AlgOp`]s with a designated root.
///
/// Nodes are stored in an arena; children reference other nodes by [`OpId`].
/// The same node may be referenced by several parents (common subexpression
/// sharing), which is essential to keep the loop-lifted plans manageable —
/// the paper reports ~120 operators for XMark Q8 *with* sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    ops: Vec<AlgOp>,
    root: OpId,
}

impl Plan {
    /// Build a plan from an arena and a root id.
    pub fn new(ops: Vec<AlgOp>, root: OpId) -> Self {
        assert!(root < ops.len(), "root id out of bounds");
        Plan { ops, root }
    }

    /// The root operator id.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// The operator with id `id`.
    pub fn op(&self, id: OpId) -> &AlgOp {
        &self.ops[id]
    }

    /// All operators (including ones no longer reachable from the root).
    pub fn ops(&self) -> &[AlgOp] {
        &self.ops
    }

    /// Mutable access used by the optimizer.
    pub(crate) fn ops_mut(&mut self) -> &mut Vec<AlgOp> {
        &mut self.ops
    }

    /// Change the root.
    pub(crate) fn set_root(&mut self, root: OpId) {
        assert!(root < self.ops.len());
        self.root = root;
    }

    /// Ids of all operators reachable from the root, in a topological order
    /// (children before parents).
    pub fn reachable(&self) -> Vec<OpId> {
        let mut visited = vec![false; self.ops.len()];
        let mut order = Vec::new();
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            if visited[id] {
                continue;
            }
            visited[id] = true;
            stack.push((id, true));
            for child in self.ops[id].children() {
                if !visited[child] {
                    stack.push((child, false));
                }
            }
        }
        order
    }

    /// Number of operators reachable from the root — the "plan size" metric
    /// used for the Q8 plan-size experiment (E5).
    pub fn operator_count(&self) -> usize {
        self.reachable().len()
    }

    /// How many times each operator's result is consumed.
    ///
    /// Indexed by [`OpId`]; counts parent *edges* among reachable operators
    /// (an operator referenced twice by the same parent, e.g. a self-cross,
    /// counts twice).  The root gets one extra consumer — the final result
    /// hand-off — so its count never drops to zero during execution.
    /// Unreachable operators have count 0.
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ops.len()];
        for id in self.reachable() {
            for child in self.ops[id].children() {
                counts[child] += 1;
            }
        }
        counts[self.root] += 1;
        counts
    }

    /// The evaluation schedule with last-use annotations.
    ///
    /// Returns the reachable operators in topological order (children before
    /// parents); each entry pairs the operator to evaluate with the set of
    /// operator results that become *dead* once that step has run — i.e.
    /// results whose last consumer is this step.  An executor that frees the
    /// dead set after every step keeps only the live frontier of the DAG
    /// resident instead of every intermediate of the plan.  The root is
    /// never listed as dead (its result is the query answer).
    ///
    /// This is an *analysis* view of the logical plan (plan inspection,
    /// tests, future spill budgeting).  The engine's executor no longer
    /// walks it directly: it schedules physical nodes and evicts via the
    /// node-granular consumer counts of
    /// [`crate::PhysicalPlan::books`], which collapse onto this schedule
    /// when every operator is its own node (a plan nothing fuses in).
    pub fn last_use_schedule(&self) -> Vec<(OpId, Vec<OpId>)> {
        let mut remaining = self.consumer_counts();
        self.reachable()
            .into_iter()
            .map(|id| {
                let mut dead = Vec::new();
                for child in self.ops[id].children() {
                    remaining[child] -= 1;
                    if remaining[child] == 0 {
                        dead.push(child);
                    }
                }
                (id, dead)
            })
            .collect()
    }

    /// All the bookkeeping a ready-set scheduler needs, derived in **one
    /// pass** over the reachable operators (this is what the parallel
    /// executor calls once per query; the fine-grained accessors below
    /// delegate here).
    pub fn ready_set_books(&self) -> ReadySetBooks {
        let topo_order = self.reachable();
        let n = self.ops.len();
        let mut input_edges = vec![0usize; n];
        let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut consumer_counts = vec![0usize; n];
        let mut levels: Vec<Option<usize>> = vec![None; n];
        let mut level_widths: Vec<usize> = Vec::new();
        for &id in &topo_order {
            let children = self.ops[id].children();
            input_edges[id] = children.len();
            let mut depth = 0usize;
            for &child in &children {
                consumers[child].push(id);
                consumer_counts[child] += 1;
                // `reachable` is topological (children before parents), so
                // every child level is already computed.
                depth = depth.max(levels[child].expect("topological order") + 1);
            }
            levels[id] = Some(depth);
            if depth >= level_widths.len() {
                level_widths.resize(depth + 1, 0);
            }
            level_widths[depth] += 1;
        }
        consumer_counts[self.root] += 1;
        ReadySetBooks {
            topo_order,
            input_edges,
            consumers,
            consumer_counts,
            levels,
            level_widths,
        }
    }

    /// Unmet-input edge counts, indexed by [`OpId`].
    ///
    /// For every reachable operator this is the number of child *edges* it
    /// has (an operator referencing the same child twice, e.g. a
    /// self-cross, counts two).  Unreachable operators have count 0.  A
    /// ready-set scheduler seeds its ready queue with the reachable
    /// operators whose count is 0 (leaves) and decrements a parent's count
    /// once per edge as each child result is published; the parent becomes
    /// ready when its count reaches 0.
    pub fn input_edge_counts(&self) -> Vec<usize> {
        self.ready_set_books().input_edges
    }

    /// The consumer edges of every operator, indexed by [`OpId`]: which
    /// reachable operators read this operator's result.
    ///
    /// This is the inverse adjacency of the DAG, restricted to operators
    /// reachable from the root.  A parent referencing the same child twice
    /// appears twice in that child's list, mirroring the per-edge counting
    /// of [`Plan::consumer_counts`] and [`Plan::input_edge_counts`]: a
    /// scheduler that walks a published result's consumer list and
    /// decrements each consumer's unmet-input count once per entry keeps
    /// the two books consistent.
    pub fn consumers(&self) -> Vec<Vec<OpId>> {
        self.ready_set_books().consumers
    }

    /// The dependency level of every operator: leaves are level 0, every
    /// other operator is one more than its deepest input.
    ///
    /// Indexed by [`OpId`]; unreachable operators get `None`.  All
    /// operators of one level are mutually independent (no data flows
    /// between them), so the maximum level is the length of the critical
    /// path — the lower bound on parallel execution steps — and the widest
    /// level bounds the useful worker count.
    pub fn dependency_levels(&self) -> Vec<Option<usize>> {
        self.ready_set_books().levels
    }

    /// Length of the critical path: the number of dependency levels.
    ///
    /// A plan whose operator count greatly exceeds this value has wide
    /// levels — i.e. branches a parallel executor can evaluate
    /// concurrently.
    pub fn critical_path_len(&self) -> usize {
        self.ready_set_books().level_widths.len()
    }

    /// Count reachable operators per symbol family (for plan statistics).
    pub fn operator_histogram(&self) -> Vec<(String, usize)> {
        use std::collections::BTreeMap;
        let mut hist: BTreeMap<String, usize> = BTreeMap::new();
        for id in self.reachable() {
            let name = match self.op(id) {
                AlgOp::Lit { .. } => "table",
                AlgOp::Doc { .. } => "doc",
                AlgOp::Project { .. } => "project",
                AlgOp::Select { .. } | AlgOp::SelectEq { .. } => "select",
                AlgOp::Distinct { .. } => "distinct",
                AlgOp::Union { .. } => "union",
                AlgOp::Difference { .. } => "difference",
                AlgOp::EquiJoin { .. } => "equi-join",
                AlgOp::ThetaJoin { .. } => "theta-join",
                AlgOp::ThetaCount { .. } => "theta-count",
                AlgOp::Cross { .. } => "cross",
                AlgOp::RowNum { .. } => "rownum",
                AlgOp::BinaryMap { .. } | AlgOp::UnaryMap { .. } => "map",
                AlgOp::Attach { .. } => "attach",
                AlgOp::Aggregate { .. } => "aggregate",
                AlgOp::Step { .. } => "step",
                AlgOp::IndexScan { .. } => "index-scan",
                AlgOp::DocOrder { .. } => "ddo",
                AlgOp::FnData { .. } => "data",
                AlgOp::FnRoot { .. } => "root",
                AlgOp::Ebv { .. } => "ebv",
                AlgOp::ElemConstruct { .. }
                | AlgOp::AttrConstruct { .. }
                | AlgOp::TextConstruct { .. } => "construct",
                AlgOp::Sort { .. } => "sort",
            };
            *hist.entry(name.to_string()).or_default() += 1;
        }
        hist.into_iter().collect()
    }
}

/// The complete bookkeeping of a ready-set scheduler over one [`Plan`],
/// produced by [`Plan::ready_set_books`] in a single topological pass.
///
/// All per-operator vectors are indexed by [`OpId`]; entries of
/// unreachable operators are zero / empty / `None`.  Duplicate edges (a
/// parent referencing the same child twice) are counted per edge
/// throughout, so decrementing `input_edges` once per `consumers` entry
/// keeps the books consistent.
#[derive(Debug, Clone)]
pub struct ReadySetBooks {
    /// Reachable operators in topological order (children before parents).
    pub topo_order: Vec<OpId>,
    /// Unmet input edges per operator (ready when 0) —
    /// [`Plan::input_edge_counts`].
    pub input_edges: Vec<usize>,
    /// Consumer edges per operator (inverse adjacency) —
    /// [`Plan::consumers`].
    pub consumers: Vec<Vec<OpId>>,
    /// Remaining consumer edges per operator, including the synthetic
    /// final consumer of the root — [`Plan::consumer_counts`].
    pub consumer_counts: Vec<usize>,
    /// Dependency level per operator (leaves are 0) —
    /// [`Plan::dependency_levels`].
    pub levels: Vec<Option<usize>>,
    /// Number of operators per dependency level; its length is the
    /// critical path, its maximum the width a worker pool can exploit.
    pub level_widths: Vec<usize>,
}

impl ReadySetBooks {
    /// The widest dependency level: an upper bound (up to antichain
    /// effects) on how many operators can usefully evaluate concurrently.
    pub fn width(&self) -> usize {
        self.level_widths.iter().copied().max().unwrap_or(0)
    }
}

/// Incremental plan builder used by the compiler.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    ops: Vec<AlgOp>,
}

impl PlanBuilder {
    /// Start with an empty arena.
    pub fn new() -> Self {
        PlanBuilder::default()
    }

    /// Append an operator and return its id.
    pub fn add(&mut self, op: AlgOp) -> OpId {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Number of operators added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operators were added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Peek at an operator.
    pub fn op(&self, id: OpId) -> &AlgOp {
        &self.ops[id]
    }

    /// Finish building, designating `root` as the plan root.
    pub fn finish(self, root: OpId) -> Plan {
        Plan::new(self.ops, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_relational::Value;

    fn small_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Int(10)]],
        });
        let p1 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("item".into(), "item".into()),
            ],
        });
        let p2 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![
                ("iter".into(), "iter1".into()),
                ("item".into(), "item1".into()),
            ],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: p1,
            right: p2,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        });
        b.finish(join)
    }

    #[test]
    fn reachable_is_topological() {
        let plan = small_plan();
        let order = plan.reachable();
        assert_eq!(order.len(), 4);
        // children appear before parents
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
        assert_eq!(*order.last().unwrap(), plan.root());
    }

    #[test]
    fn operator_count_ignores_unreachable_nodes() {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![],
        });
        let _orphan = b.add(AlgOp::Distinct { input: lit });
        let keep = b.add(AlgOp::Distinct { input: lit });
        let plan = b.finish(keep);
        assert_eq!(plan.ops().len(), 3);
        assert_eq!(plan.operator_count(), 2);
    }

    #[test]
    fn histogram_counts_shared_nodes_once() {
        let plan = small_plan();
        let hist = plan.operator_histogram();
        let get = |name: &str| {
            hist.iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        assert_eq!(get("table"), 1);
        assert_eq!(get("project"), 2);
        assert_eq!(get("equi-join"), 1);
    }

    #[test]
    #[should_panic(expected = "root id out of bounds")]
    fn invalid_root_panics() {
        Plan::new(vec![], 0);
    }

    #[test]
    fn consumer_counts_count_edges_and_protect_the_root() {
        let plan = small_plan();
        let counts = plan.consumer_counts();
        // The literal feeds both projections; each projection feeds the
        // join; the join (root) gets the synthetic final consumer.
        assert_eq!(counts, vec![2, 1, 1, 1]);

        // A self-cross references its child twice.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let cross = b.add(AlgOp::Cross {
            left: lit,
            right: lit,
        });
        let plan = b.finish(cross);
        assert_eq!(plan.consumer_counts(), vec![2, 1]);
    }

    #[test]
    fn consumer_counts_ignore_unreachable_operators() {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![],
        });
        let orphan = b.add(AlgOp::Distinct { input: lit });
        let keep = b.add(AlgOp::Distinct { input: lit });
        let plan = b.finish(keep);
        assert_eq!(plan.consumer_counts()[orphan], 0);
        // Only the reachable consumer of the literal is counted.
        assert_eq!(plan.consumer_counts()[lit], 1);
    }

    #[test]
    fn input_edge_counts_count_edges_and_skip_unreachable() {
        let plan = small_plan();
        // literal: leaf; projections: one input each; join: two inputs.
        assert_eq!(plan.input_edge_counts(), vec![0, 1, 1, 2]);

        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let orphan = b.add(AlgOp::Distinct { input: lit });
        let cross = b.add(AlgOp::Cross {
            left: lit,
            right: lit,
        });
        let plan = b.finish(cross);
        let counts = plan.input_edge_counts();
        assert_eq!(counts[orphan], 0, "unreachable operators have no edges");
        assert_eq!(counts[cross], 2, "a self-cross has two input edges");
    }

    #[test]
    fn consumers_is_the_inverse_adjacency() {
        let plan = small_plan();
        let consumers = plan.consumers();
        let mut of_lit = consumers[0].clone();
        of_lit.sort_unstable();
        assert_eq!(of_lit, vec![1, 2]);
        assert_eq!(consumers[1], vec![3]);
        assert_eq!(consumers[2], vec![3]);
        assert!(consumers[3].is_empty(), "the root has no consumers");
        // Consumer list lengths agree with consumer_counts (minus the
        // synthetic root consumer).
        let counts = plan.consumer_counts();
        for (id, list) in consumers.iter().enumerate() {
            let expected = if id == plan.root() {
                counts[id] - 1
            } else {
                counts[id]
            };
            assert_eq!(list.len(), expected);
        }
    }

    #[test]
    fn consumers_repeat_duplicate_edges() {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let cross = b.add(AlgOp::Cross {
            left: lit,
            right: lit,
        });
        let plan = b.finish(cross);
        assert_eq!(plan.consumers()[lit], vec![cross, cross]);
    }

    #[test]
    fn dependency_levels_follow_the_longest_input_path() {
        let plan = small_plan();
        let levels = plan.dependency_levels();
        assert_eq!(levels, vec![Some(0), Some(1), Some(1), Some(2)]);
        assert_eq!(plan.critical_path_len(), 3);

        // The two projections sit on the same level: they are independent
        // and may evaluate concurrently.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![],
        });
        let _orphan = b.add(AlgOp::Distinct { input: lit });
        let plan = b.finish(lit);
        assert_eq!(plan.dependency_levels(), vec![Some(0), None]);
        assert_eq!(plan.critical_path_len(), 1);
    }

    #[test]
    fn ready_set_books_agree_with_the_individual_accessors() {
        let plan = small_plan();
        let books = plan.ready_set_books();
        assert_eq!(books.topo_order, plan.reachable());
        assert_eq!(books.input_edges, plan.input_edge_counts());
        assert_eq!(books.consumers, plan.consumers());
        assert_eq!(books.consumer_counts, plan.consumer_counts());
        assert_eq!(books.levels, plan.dependency_levels());
        assert_eq!(books.level_widths.len(), plan.critical_path_len());
        // Two operators (the projections) share level 1 → width 2.
        assert_eq!(books.level_widths, vec![1, 2, 1]);
        assert_eq!(books.width(), 2);
    }

    #[test]
    fn last_use_schedule_frees_results_at_their_last_consumer() {
        let plan = small_plan();
        let schedule = plan.last_use_schedule();
        // Same order as `reachable`, with last-use annotations.
        let order: Vec<OpId> = schedule.iter().map(|(id, _)| *id).collect();
        assert_eq!(order, plan.reachable());
        let dead_at = |id: OpId| -> Vec<OpId> {
            schedule
                .iter()
                .find(|(step, _)| *step == id)
                .map(|(_, dead)| dead.clone())
                .unwrap()
        };
        // The literal (op 0) dies once the *second* projection has run; the
        // two projections die at the join; the root never dies.
        let second_projection = order[order.iter().position(|&i| i == 3).unwrap() - 1];
        assert!(dead_at(second_projection).contains(&0));
        let mut at_join = dead_at(3);
        at_join.sort_unstable();
        assert_eq!(at_join, vec![1, 2]);
        assert!(!schedule.iter().any(|(_, dead)| dead.contains(&plan.root())));
    }
}
