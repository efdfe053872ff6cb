//! The physical plan layer: fused operator pipelines over the logical DAG.
//!
//! A [`Plan`] is a DAG of *logical* operators; interpreting it one operator
//! at a time materializes a table per node.  The loop-lifting compilation
//! scheme deliberately emits long chains of cheap operators (π, σ, attach,
//! ⊙) whose intermediate exists only to feed a single consumer — the
//! paper's MonetDB backend wins because its BAT kernels stream through such
//! chains without materialization.  [`PhysicalPlan::compile`] recovers that
//! property: it walks the scheduler books once and greedily groups maximal
//! single-consumer chains of *fusable* operators into [`Pipeline`] nodes,
//! which the executor evaluates with `pf-relational`'s fused kernel in one
//! pass — zero intermediate tables.
//!
//! **Fusable** operators (all unary, all cheap): π (project/rename), σ
//! (both select forms), attach, the ⊙ maps, atomization (`fn:data`), and
//! δ (distinct — a pure keep-first selection-vector pass).  Everything
//! else is a **pipeline breaker**: joins, cross products, row numbering,
//! sorts, aggregates, union/difference, steps, document order, `fn:root`,
//! `ebv`, the node constructors, and the leaves.  A fusable operator whose
//! result has more than one consumer ends its chain — the shared
//! intermediate must materialize so both consumers can read it (the plan
//! root likewise always materializes: its table *is* the query result).
//! The fused kernel is the only implementation of the fusable operators:
//! a chain of one is a one-step pipeline.
//!
//! The physical plan is compiled **once per (cached) logical plan** and is
//! itself scheduler-ready: [`PhysicalPlan::books`] derives the ready-set
//! bookkeeping at node granularity, so the executor dispatches whole
//! pipelines as single work units on both its sequential and parallel
//! paths.
//!
//! [`Pipeline`]: PhysKind::Pipeline

use pf_relational::ops::FusedStep;

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};

/// Identifier of a node within a [`PhysicalPlan`] (index into the node
/// list, which is stored in topological order).
pub type PhysNodeId = usize;

/// What a physical node does.
#[derive(Debug, Clone)]
pub enum PhysKind {
    /// A pipeline breaker: one logical operator, interpreted as before.
    Breaker,
    /// A fused chain of single-consumer fusable operators (one or more).
    /// `ops` lists the covered logical operators in execution order (head
    /// first, tail last — the tail is the node's [`output`](PhysNode::output));
    /// [`PhysNode::steps`] reads the kernel program for
    /// [`pf_relational::ops::run_pipeline`] off them.
    Pipeline {
        /// Covered logical operators, head → tail.
        ops: Vec<OpId>,
    },
}

/// One schedulable unit of a [`PhysicalPlan`].
#[derive(Debug, Clone)]
pub struct PhysNode {
    /// Breaker or fused pipeline.
    pub kind: PhysKind,
    /// External input operators (with multiplicity — a self-cross breaker
    /// lists its child twice).  For a pipeline this is the head's single
    /// input; interior chain edges are internal and never appear.
    pub inputs: Vec<OpId>,
    /// The operator whose result this node publishes (the breaker's own id
    /// / the pipeline's tail).
    pub output: OpId,
}

impl PhysNode {
    /// Number of logical operators this node covers.
    pub fn op_count(&self) -> usize {
        match &self.kind {
            PhysKind::Breaker => 1,
            PhysKind::Pipeline { ops, .. } => ops.len(),
        }
    }

    /// `true` for fused pipelines.
    pub fn is_pipeline(&self) -> bool {
        matches!(self.kind, PhysKind::Pipeline { .. })
    }

    /// The fused kernel program of a pipeline: one step per covered
    /// operator, borrowing its parameters from `plan` (the plan this node
    /// was compiled from); empty for a breaker.
    pub fn steps<'p>(&self, plan: &'p Plan) -> Vec<FusedStep<'p>> {
        match &self.kind {
            PhysKind::Breaker => Vec::new(),
            PhysKind::Pipeline { ops } => ops
                .iter()
                .filter_map(|&op| fused_step(plan.op(op)))
                .collect(),
        }
    }
}

/// A compiled physical plan: the logical DAG regrouped into schedulable
/// nodes (pipeline breakers + fused pipelines) in topological order.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    nodes: Vec<PhysNode>,
    /// Producing node per operator id (`None` for unreachable operators
    /// and for pipeline interiors, whose results never materialize).
    producer: Vec<Option<PhysNodeId>>,
    /// The node publishing the plan root's result.
    root_node: PhysNodeId,
    /// Total logical operators covered (= reachable plan size).
    op_count: usize,
    /// Operators that run inside pipelines of two or more.
    fused_ops: usize,
    /// Intermediate tables the pipelines never allocate (Σ len−1).
    tables_elided: usize,
    /// Arena size of the logical plan this was compiled from (sanity
    /// checked by the executor).
    logical_len: usize,
}

/// Is `op` eligible for fusion into a pipeline?
fn is_fusable(op: &AlgOp) -> bool {
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

/// The kernel step of a fusable operator, borrowing its parameters
/// (`None` for breakers).
fn fused_step(op: &AlgOp) -> Option<FusedStep<'_>> {
    Some(match op {
        AlgOp::Project { columns, .. } => FusedStep::Project { columns },
        AlgOp::Select { column, .. } => FusedStep::SelectTrue { column },
        AlgOp::SelectEq { column, value, .. } => FusedStep::SelectEq { column, value },
        AlgOp::Attach { target, value, .. } => FusedStep::Attach { target, value },
        AlgOp::UnaryMap {
            target, op, source, ..
        } => FusedStep::MapUnary {
            target,
            op: *op,
            source,
        },
        AlgOp::BinaryMap {
            target,
            left,
            op,
            right,
            ..
        } => FusedStep::MapBinary {
            target,
            left,
            op: *op,
            right,
        },
        AlgOp::FnData { .. } => FusedStep::MapAtomize { column: "item" },
        AlgOp::Distinct { .. } => FusedStep::Distinct,
        _ => return None,
    })
}

impl PhysicalPlan {
    /// Compile `plan` into a physical plan: maximal single-consumer chains
    /// of fusable operators — of any length, one included — become
    /// [`PhysKind::Pipeline`] nodes; everything else is a
    /// [`PhysKind::Breaker`].
    pub fn compile(plan: &Plan) -> PhysicalPlan {
        let books = plan.ready_set_books();
        let n = plan.ops().len();
        let mut absorbed = vec![false; n];
        let mut producer: Vec<Option<PhysNodeId>> = vec![None; n];
        let mut nodes: Vec<PhysNode> = Vec::new();
        let mut fused_ops = 0usize;
        let mut tables_elided = 0usize;

        for &id in &books.topo_order {
            if absorbed[id] {
                continue;
            }
            let op = plan.op(id);
            if is_fusable(op) {
                // `id` is a chain head: its input is either a breaker or a
                // shared / already-absorbed fusable result (otherwise this
                // op would have been absorbed when its child was visited —
                // children precede parents in topological order).  Extend
                // the chain upward while the current tail's result has
                // exactly one consumer and that consumer is fusable.  The
                // root never extends a chain as an interior link: its
                // result is the query answer (the count check sees its
                // synthetic final consumer, which may be its only one —
                // never look up a consumer edge for it).
                let mut ops = vec![id];
                let mut tail = id;
                while tail != plan.root() && books.consumer_counts[tail] == 1 {
                    let parent = books.consumers[tail][0];
                    if !is_fusable(plan.op(parent)) {
                        break;
                    }
                    absorbed[parent] = true;
                    ops.push(parent);
                    tail = parent;
                }
                if ops.len() > 1 {
                    fused_ops += ops.len();
                    tables_elided += ops.len() - 1;
                }
                producer[tail] = Some(nodes.len());
                nodes.push(PhysNode {
                    kind: PhysKind::Pipeline { ops },
                    inputs: op.children(),
                    output: tail,
                });
                continue;
            }
            producer[id] = Some(nodes.len());
            nodes.push(PhysNode {
                kind: PhysKind::Breaker,
                inputs: op.children(),
                output: id,
            });
        }

        let root_node = producer[plan.root()].expect("the root is always reachable");
        PhysicalPlan {
            nodes,
            producer,
            root_node,
            op_count: books.topo_order.len(),
            fused_ops,
            tables_elided,
            logical_len: n,
        }
    }

    /// The schedulable nodes, in topological order (a node's inputs are
    /// published by earlier nodes).
    pub fn nodes(&self) -> &[PhysNode] {
        &self.nodes
    }

    /// The node that publishes the plan root's result.
    pub fn root_node(&self) -> PhysNodeId {
        self.root_node
    }

    /// The node publishing operator `id`'s result (`None` for unreachable
    /// operators and pipeline interiors).
    pub fn producer_of(&self, id: OpId) -> Option<PhysNodeId> {
        self.producer.get(id).copied().flatten()
    }

    /// Total logical operators covered (= reachable plan size).
    pub fn op_count(&self) -> usize {
        self.op_count
    }

    /// Logical operators that run inside pipelines of two or more (the
    /// ones fusion saves a table for).
    pub fn fused_ops(&self) -> usize {
        self.fused_ops
    }

    /// Intermediate tables fusion elides (one per interior chain edge).
    pub fn tables_elided(&self) -> usize {
        self.tables_elided
    }

    /// Number of physical pipelines covering two or more operators.
    pub fn pipeline_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op_count() > 1).count()
    }

    /// Arena size of the logical plan this was compiled from — executors
    /// cross-check it against the plan they are handed.
    pub fn logical_len(&self) -> usize {
        self.logical_len
    }

    /// Is this physical plan a valid compilation of `plan`?
    ///
    /// Checks the complete wiring structurally: every breaker's recorded
    /// inputs are its operator's children in `plan` and it is no fusable
    /// operator, every pipeline is a genuine chain of fusable operators in
    /// `plan`.  A plan that passes is safe to execute against this
    /// physical plan — breakers evaluate `plan`'s own operators, and the
    /// fused steps are read off them.  Executors call this per run; it is
    /// O(operators) with no allocations beyond the children lists.
    pub fn matches(&self, plan: &Plan) -> bool {
        if self.logical_len != plan.ops().len() {
            return false;
        }
        self.nodes.iter().all(|node| match &node.kind {
            PhysKind::Breaker => {
                !is_fusable(plan.op(node.output)) && plan.op(node.output).children() == node.inputs
            }
            PhysKind::Pipeline { ops } => {
                ops.last() == Some(&node.output)
                    && plan.op(ops[0]).children() == node.inputs
                    && ops.windows(2).all(|w| plan.op(w[1]).children() == [w[0]])
                    && ops.iter().all(|&op| is_fusable(plan.op(op)))
            }
        })
    }

    /// The ready-set bookkeeping at physical-node granularity, derived in
    /// one pass (the node-level analogue of [`Plan::ready_set_books`]).
    pub fn books(&self) -> PhysicalBooks {
        let n = self.nodes.len();
        let mut input_edges = vec![0usize; n];
        let mut consumers: Vec<Vec<PhysNodeId>> = vec![Vec::new(); n];
        let mut result_consumers = vec![0usize; self.producer.len()];
        let mut levels = vec![0usize; n];
        let mut level_widths: Vec<usize> = Vec::new();
        for (node_id, node) in self.nodes.iter().enumerate() {
            input_edges[node_id] = node.inputs.len();
            let mut depth = 0usize;
            for &input in &node.inputs {
                let producer =
                    self.producer[input].expect("node inputs are published by earlier nodes");
                consumers[producer].push(node_id);
                result_consumers[input] += 1;
                depth = depth.max(levels[producer] + 1);
            }
            levels[node_id] = depth;
            if depth >= level_widths.len() {
                level_widths.resize(depth + 1, 0);
            }
            level_widths[depth] += 1;
        }
        // The synthetic final consumer: the root's result is the query
        // answer and must never be evicted.
        result_consumers[self.nodes[self.root_node].output] += 1;
        PhysicalBooks {
            input_edges,
            consumers,
            result_consumers,
            levels,
            level_widths,
        }
    }
}

/// Scheduler bookkeeping over one [`PhysicalPlan`], node-granular: the
/// executor's work units are physical nodes, but eviction still happens
/// per published *result* (operator id), because that is what the slot
/// arena holds.
#[derive(Debug, Clone)]
pub struct PhysicalBooks {
    /// Unmet input edges per node (ready when 0).
    pub input_edges: Vec<usize>,
    /// Consumer edges per node: which nodes read this node's output (per
    /// edge — a self-cross consumer appears twice).
    pub consumers: Vec<Vec<PhysNodeId>>,
    /// Remaining consumer edges per published operator result, indexed by
    /// [`OpId`], including the synthetic final consumer of the root.
    pub result_consumers: Vec<usize>,
    /// Dependency level per node (leaves are 0).
    pub levels: Vec<usize>,
    /// Nodes per dependency level; the maximum bounds the useful worker
    /// count, exactly like [`crate::ReadySetBooks::width`].
    pub level_widths: Vec<usize>,
}

impl PhysicalBooks {
    /// The widest dependency level — an upper bound on how many nodes can
    /// usefully evaluate concurrently.
    pub fn width(&self) -> usize {
        self.level_widths.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pf_relational::ops::{BinaryOp, CmpOp};
    use pf_relational::Value;

    /// lit → attach → map → select → project → sort(root): the four
    /// middle operators form one pipeline between two breakers.
    fn chain_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Int(10)]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: "limit".into(),
            value: Value::Int(5),
        });
        let map = b.add(AlgOp::BinaryMap {
            input: attach,
            target: "keep".into(),
            left: "item".into(),
            op: BinaryOp::Cmp(CmpOp::Gt),
            right: "limit".into(),
        });
        let select = b.add(AlgOp::Select {
            input: map,
            column: "keep".into(),
        });
        let project = b.add(AlgOp::Project {
            input: select,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("item".into(), "item".into()),
            ],
        });
        let sort = b.add(AlgOp::Sort {
            input: project,
            by: vec![crate::SortSpec::asc("iter")],
        });
        b.finish(sort)
    }

    #[test]
    fn single_consumer_chains_fuse_between_breakers() {
        let plan = chain_plan();
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.nodes().len(), 3, "lit + pipeline + sort");
        assert_eq!(phys.pipeline_count(), 1);
        assert_eq!(phys.fused_ops(), 4);
        assert_eq!(phys.tables_elided(), 3);
        assert_eq!(phys.op_count(), 6);
        let pipeline = &phys.nodes()[1];
        assert!(pipeline.is_pipeline());
        assert_eq!(pipeline.inputs, vec![0], "external input is the literal");
        assert_eq!(pipeline.output, 4, "tail is the projection");
        let PhysKind::Pipeline { ops } = &pipeline.kind else {
            panic!("expected a pipeline");
        };
        assert_eq!(ops, &vec![1, 2, 3, 4]);
        let steps = pipeline.steps(&plan);
        assert_eq!(steps.len(), 4);
        assert!(matches!(steps[0], FusedStep::Attach { .. }));
        assert!(matches!(steps[3], FusedStep::Project { .. }));
    }

    #[test]
    fn shared_results_break_chains() {
        // lit → project; the projection feeds TWO selects that join back:
        // the projection's result is shared, so nothing fuses with it from
        // above, and each single fusable op is a one-step pipeline.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Bool(true)]],
        });
        let project = b.add(AlgOp::Project {
            input: lit,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("item".into(), "item".into()),
            ],
        });
        let s1 = b.add(AlgOp::Select {
            input: project,
            column: "item".into(),
        });
        let s2 = b.add(AlgOp::SelectEq {
            input: project,
            column: "item".into(),
            value: Value::Bool(true),
        });
        let cross = b.add(AlgOp::Cross {
            left: s1,
            right: s2,
        });
        let plan = b.finish(cross);
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.pipeline_count(), 0);
        assert_eq!(phys.tables_elided(), 0);
        assert_eq!(phys.fused_ops(), 0);
        assert_eq!(phys.nodes().len(), 5);
        let one_step: Vec<bool> = phys.nodes().iter().map(PhysNode::is_pipeline).collect();
        assert_eq!(one_step, [false, true, true, true, false]);
        assert!(phys.matches(&plan));
    }

    #[test]
    fn the_root_can_be_a_pipeline_tail_but_not_an_interior() {
        // lit → attach → project(root): attach+project fuse, the root is
        // the tail and its result materializes.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: "pos".into(),
            value: Value::Nat(1),
        });
        let project = b.add(AlgOp::Project {
            input: attach,
            columns: vec![("iter".into(), "iter".into()), ("pos".into(), "pos".into())],
        });
        let plan = b.finish(project);
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.pipeline_count(), 1);
        assert_eq!(phys.nodes()[phys.root_node()].output, project);
        assert!(phys.nodes()[phys.root_node()].is_pipeline());

        // Same chain, but the root is the *attach*: nothing may fuse
        // through the root (its table is the query answer).
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: "pos".into(),
            value: Value::Nat(1),
        });
        let _orphan = b.add(AlgOp::Project {
            input: attach,
            columns: vec![("iter".into(), "iter".into())],
        });
        let plan = b.finish(attach);
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.pipeline_count(), 0);
        assert_eq!(phys.nodes()[phys.root_node()].op_count(), 1);
    }

    #[test]
    fn books_agree_with_node_structure() {
        let plan = chain_plan();
        let phys = PhysicalPlan::compile(&plan);
        let books = phys.books();
        assert_eq!(books.input_edges, vec![0, 1, 1]);
        assert_eq!(books.consumers[0], vec![1]);
        assert_eq!(books.consumers[1], vec![2]);
        assert!(books.consumers[2].is_empty());
        // Result consumers: the literal feeds the pipeline, the pipeline
        // tail feeds the sort, the root gets the synthetic consumer.
        assert_eq!(books.result_consumers[0], 1);
        assert_eq!(books.result_consumers[4], 1);
        assert_eq!(books.result_consumers[plan.root()], 1);
        // Interior chain results never materialize → no consumers.
        assert_eq!(books.result_consumers[1], 0);
        assert_eq!(books.result_consumers[2], 0);
        assert_eq!(books.levels, vec![0, 1, 2]);
        assert_eq!(books.width(), 1);
    }

    #[test]
    fn matches_accepts_its_source_plan_and_rejects_others() {
        let plan = chain_plan();
        let phys = PhysicalPlan::compile(&plan);
        assert!(phys.matches(&plan));

        // A same-size plan with a fused operator turned into a breaker is
        // rejected; its parameters are read off the plan at run time.
        let mut other = chain_plan();
        other.ops_mut()[1] = AlgOp::Cross { left: 0, right: 0 };
        assert!(
            !phys.matches(&other),
            "a breaker inside a pipeline must not match"
        );
        let mut other = chain_plan();
        other.ops_mut()[5] = AlgOp::Distinct { input: 4 };
        assert!(!phys.matches(&other), "a fusable breaker must not match");

        // A same-size plan with different wiring is rejected.
        let mut rewired = chain_plan();
        rewired.ops_mut()[3].replace_child(0, 1);
        assert!(!phys.matches(&rewired), "rewired child must not match");

        // A different arena size is rejected outright.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![],
        });
        assert!(!phys.matches(&b.finish(lit)));
    }

    #[test]
    fn self_referencing_breakers_count_edges_twice() {
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
        let phys = PhysicalPlan::compile(&plan);
        let books = phys.books();
        assert_eq!(books.input_edges[1], 2);
        assert_eq!(books.consumers[0], vec![1, 1]);
        assert_eq!(books.result_consumers[lit], 2);
    }
}
