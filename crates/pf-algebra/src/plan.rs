//! Plan DAGs, their column names and the plan builder.

use std::fmt;
use std::sync::{Arc, OnceLock};

use pf_relational::{ColId, Value};

use crate::ops::{AlgOp, Const};

/// Identifier of an operator within a [`Plan`] (index into the node arena).
pub type OpId = usize;

/// The column names of one plan, indexed by [`ColId`]: every operator,
/// schema and table of the plan addresses its columns by id, and this is
/// the one place that keeps the names.  The well-known columns take
/// their fixed ids ([`ColId::WELL_KNOWN`]); every other name is numbered
/// in the order it is first interned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColNames(Vec<String>);

impl Default for ColNames {
    fn default() -> Self {
        ColNames(ColId::WELL_KNOWN.iter().map(|n| n.to_string()).collect())
    }
}

impl ColNames {
    /// The id of `name`, numbering it if it is new.  A plan has a few
    /// dozen names, so a scan finds one.
    pub fn col(&mut self, name: &str) -> ColId {
        match self.0.iter().position(|n| n == name) {
            Some(i) => ColId(i as u32),
            None => {
                self.0.push(name.to_string());
                ColId(self.0.len() as u32 - 1)
            }
        }
    }

    /// The name of `col`.
    ///
    /// # Panics
    ///
    /// If `col` was not numbered here.
    pub fn name(&self, col: ColId) -> &str {
        &self.0[col.0 as usize]
    }
}

/// A query plan: a DAG of [`AlgOp`]s with a designated root.
///
/// Nodes are stored in an arena; children reference other nodes by [`OpId`].
/// The same node may be referenced by several parents (common subexpression
/// sharing), which is essential to keep the loop-lifted plans manageable —
/// the paper reports ~120 operators for XMark Q8 *with* sharing.
///
/// The topological order of the reachable operators is computed once per
/// plan version, on first demand ([`Plan::reachable`]); the optimizer's
/// two mutation paths, its arena access and its root change, drop it.
/// [`Plan::bind`] keeps it: binding changes no edge.  Equality and
/// `Debug` look at the arena, the root and the column names only.
///
/// The plan owns its [`ColNames`], behind an [`Arc`]: a bound template
/// shares its template's names.
#[derive(Clone)]
pub struct Plan {
    ops: Vec<AlgOp>,
    root: OpId,
    names: Arc<ColNames>,
    /// The reachable operators, children before parents.
    order: OnceLock<Vec<OpId>>,
}

impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        self.root == other.root && self.ops == other.ops && self.names == other.names
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plan")
            .field("ops", &self.ops)
            .field("root", &self.root)
            .field("names", &self.names)
            .finish()
    }
}

impl Plan {
    /// Build a plan from an arena, a root id and the names of the
    /// arena's columns.
    pub fn new(ops: Vec<AlgOp>, root: OpId, names: ColNames) -> Self {
        assert!(root < ops.len(), "root id out of bounds");
        Plan {
            ops,
            root,
            names: Arc::new(names),
            order: OnceLock::new(),
        }
    }

    /// The plan's column names.
    pub fn names(&self) -> &ColNames {
        &self.names
    }

    /// The name of column `col`.
    pub fn name(&self, col: ColId) -> &str {
        self.names.name(col)
    }

    /// The id of column `name`, numbering it if the plan has no such
    /// column yet.
    pub fn col(&mut self, name: &str) -> ColId {
        Arc::make_mut(&mut self.names).col(name)
    }

    /// The renderers' symbol of operator `id`, its columns named.
    pub fn symbol(&self, id: OpId) -> String {
        self.ops[id].symbol(&self.names)
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

    /// Mutable access used by the optimizer.  Drops the cached order.
    pub(crate) fn ops_mut(&mut self) -> &mut Vec<AlgOp> {
        self.order.take();
        &mut self.ops
    }

    /// Change the root.  Drops the cached order.
    pub(crate) fn set_root(&mut self, root: OpId) {
        assert!(root < self.ops.len());
        self.order.take();
        self.root = root;
    }

    /// Ids of all operators reachable from the root, in a topological order
    /// (children before parents).
    ///
    /// The order is walked once per plan version and kept in the plan, so
    /// every sweep, analysis update and estimate refresh over an unchanged
    /// plan shares one walk; this returns a copy, for callers that rewrite
    /// the plan while they walk it.  Debug builds check the kept order
    /// against a fresh walk on every call.
    pub fn reachable(&self) -> Vec<OpId> {
        self.order().to_vec()
    }

    /// [`Plan::reachable`], borrowed from the plan.
    pub(crate) fn order(&self) -> &[OpId] {
        let order = self.order.get_or_init(|| self.walk());
        debug_assert_eq!(*order, self.walk(), "the cached topological order is stale");
        order
    }

    /// The reachable operators, children before parents: one depth-first
    /// walk from the root.
    fn walk(&self) -> Vec<OpId> {
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

    /// This template with every parameter slot `k` bound to the
    /// `xs:string` `values[k]`: in attached constants and literal rows.
    /// Arena, ids and root stay as they are, so a bound template is the
    /// plan the optimizer produced for the slots, with the values written
    /// in.
    ///
    /// # Panics
    ///
    /// If a slot of the plan has no value in `values`.
    pub fn bind(&self, values: &[String]) -> Plan {
        let bind = |slot: &mut Const| {
            if let Const::Param(k) = *slot {
                let value = values
                    .get(k as usize)
                    .unwrap_or_else(|| panic!("no value for parameter slot {k}"));
                *slot = Const::Value(Value::Str(value.clone()));
            }
        };
        let mut plan = self.clone();
        for op in &mut plan.ops {
            match op {
                AlgOp::Attach { value: slot, .. } => bind(slot),
                AlgOp::Lit { rows, .. } => rows.iter_mut().flatten().for_each(bind),
                _ => {}
            }
        }
        plan
    }

    /// Number of operators reachable from the root — the "plan size" metric
    /// used for the Q8 plan-size experiment (E5).
    pub fn operator_count(&self) -> usize {
        self.order().len()
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
        for &id in self.order() {
            for child in self.ops[id].children() {
                counts[child] += 1;
            }
        }
        counts[self.root] += 1;
        counts
    }

    /// The consumer edges of every operator, indexed by [`OpId`]: which
    /// reachable operators read this operator's result.
    ///
    /// This is the inverse adjacency of the DAG, restricted to operators
    /// reachable from the root.  A parent referencing the same child twice
    /// appears twice in that child's list, mirroring the per-edge counting
    /// of [`Plan::consumer_counts`] (which also counts the root's synthetic
    /// final consumer; this list does not).
    pub fn consumers(&self) -> Vec<Vec<OpId>> {
        let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); self.ops.len()];
        for &id in self.order() {
            for child in self.ops[id].children() {
                consumers[child].push(id);
            }
        }
        consumers
    }

    /// Count reachable operators per symbol family (for plan statistics).
    pub fn operator_histogram(&self) -> Vec<(String, usize)> {
        use std::collections::BTreeMap;
        let mut hist: BTreeMap<String, usize> = BTreeMap::new();
        for &id in self.order() {
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
                AlgOp::DocOrder { .. } => "ddo",
                AlgOp::FnData { .. } => "data",
                AlgOp::FnRoot { .. } => "root",
                AlgOp::Ebv { .. } => "ebv",
                AlgOp::ElemConstruct { .. }
                | AlgOp::AttrConstruct { .. }
                | AlgOp::TextConstruct { .. } => "construct",
            };
            *hist.entry(name.to_string()).or_default() += 1;
        }
        hist.into_iter().collect()
    }
}

/// Incremental plan builder used by the compiler.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    ops: Vec<AlgOp>,
    names: ColNames,
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

    /// The id of column `name`, numbering it if it is new.
    pub fn col(&mut self, name: &str) -> ColId {
        self.names.col(name)
    }

    /// Finish building, designating `root` as the plan root.
    pub fn finish(self, root: OpId) -> Plan {
        Plan::new(self.ops, root, self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cols::{builder, col, names};
    use pf_relational::Value;

    fn small_plan() -> Plan {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos"), col("item")],
            rows: vec![vec![
                Value::Nat(1).into(),
                Value::Nat(1).into(),
                Value::Int(10).into(),
            ]],
        });
        let p1 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![(col("iter"), col("iter")), (col("item"), col("item"))],
        });
        let p2 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![(col("iter"), col("iter1")), (col("item"), col("item1"))],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: p1,
            right: p2,
            left_col: col("iter"),
            right_col: col("iter1"),
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
    fn mutation_drops_the_cached_order() {
        let mut plan = small_plan();
        assert_eq!(plan.reachable(), [0, 2, 1, 3]);
        assert!(plan.order.get().is_some(), "the walk is kept");
        plan.ops_mut();
        assert!(plan.order.get().is_none(), "ops_mut drops the order");
        plan.reachable();
        plan.set_root(1);
        assert!(plan.order.get().is_none(), "set_root drops the order");
        assert_eq!(plan.reachable(), [0, 1]);
    }

    #[test]
    fn binding_keeps_the_cached_order() {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: col("item"),
            value: Const::Param(0),
        });
        let template = b.finish(attach);
        template.reachable();
        let bound = template.bind(&["x".to_string()]);
        assert_eq!(
            bound.order.get().map(Vec::as_slice),
            Some(&[lit, attach][..]),
            "binding changes no edge, so the order carries over"
        );
        assert_eq!(bound.reachable(), template.reachable());
    }

    #[test]
    fn the_cached_order_is_invisible_to_equality_and_debug() {
        let walked = small_plan();
        walked.reachable();
        let fresh = small_plan();
        assert!(walked.order.get().is_some() && fresh.order.get().is_none());
        assert_eq!(walked, fresh);
        assert_eq!(format!("{walked:?}"), format!("{fresh:?}"));
        assert!(format!("{fresh:?}").starts_with("Plan { ops: ["));
    }

    #[test]
    fn operator_count_ignores_unreachable_nodes() {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
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
        Plan::new(vec![], 0, names());
    }

    #[test]
    fn consumer_counts_count_edges_and_protect_the_root() {
        let plan = small_plan();
        let counts = plan.consumer_counts();
        // The literal feeds both projections; each projection feeds the
        // join; the join (root) gets the synthetic final consumer.
        assert_eq!(counts, vec![2, 1, 1, 1]);

        // A self-cross references its child twice.
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
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
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
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
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let cross = b.add(AlgOp::Cross {
            left: lit,
            right: lit,
        });
        let plan = b.finish(cross);
        assert_eq!(plan.consumers()[lit], vec![cross, cross]);
    }
}
