//! The physical plan layer: fused operator pipelines over the logical DAG.
//!
//! A [`Plan`] is a DAG of *logical* operators; interpreting it one operator
//! at a time materializes a table per node.  The loop-lifting compilation
//! scheme deliberately emits long chains of cheap operators (π, σ, attach,
//! ⊙) whose intermediate exists only to feed a single consumer — the
//! paper's MonetDB backend wins because its BAT kernels stream through such
//! chains without materialization.  [`PhysicalPlan::compile`] recovers that
//! property: it walks the plan in topological order once and greedily
//! groups maximal single-consumer chains of *fusable* operators into
//! [`Pipeline`] nodes, which the executor evaluates with `pf-relational`'s
//! fused kernel in one pass — zero intermediate tables.
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
//! The physical plan is compiled **once per (cached) logical plan**; the
//! executor runs its nodes in topological order, a whole pipeline as one
//! unit, and evicts each result after its last consumer
//! ([`PhysicalPlan::result_consumers`]).
//!
//! [`Pipeline`]: PhysKind::Pipeline

use pf_relational::ops::FusedStep;
use pf_relational::ColId;

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

/// Is `op` eligible for fusion into a pipeline?  The optimizer's unshare
/// pass clones shared operators only for consumers this accepts.
pub(crate) fn is_fusable(op: &AlgOp) -> bool {
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
        AlgOp::Select { column, .. } => FusedStep::SelectTrue { column: *column },
        AlgOp::SelectEq { column, value, .. } => FusedStep::SelectEq {
            column: *column,
            value,
        },
        AlgOp::Attach { target, value, .. } => FusedStep::Attach {
            target: *target,
            value: value
                .value()
                .expect("plans are verified bound before they run"),
        },
        AlgOp::UnaryMap {
            target, op, source, ..
        } => FusedStep::MapUnary {
            target: *target,
            op: *op,
            source: *source,
        },
        AlgOp::BinaryMap {
            target,
            left,
            op,
            right,
            ..
        } => FusedStep::MapBinary {
            target: *target,
            left: *left,
            op: *op,
            right: *right,
        },
        AlgOp::FnData { .. } => FusedStep::MapAtomize {
            column: ColId::ITEM,
        },
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
        let order = plan.order();
        let consumers = plan.consumers();
        let n = plan.ops().len();
        let mut absorbed = vec![false; n];
        let mut nodes: Vec<PhysNode> = Vec::new();
        let mut fused_ops = 0usize;
        let mut tables_elided = 0usize;

        for &id in order {
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
                // result is the query answer, whatever reads it.
                let mut ops = vec![id];
                let mut tail = id;
                while tail != plan.root() && consumers[tail].len() == 1 {
                    let parent = consumers[tail][0];
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
                nodes.push(PhysNode {
                    kind: PhysKind::Pipeline { ops },
                    inputs: op.children().to_vec(),
                    output: tail,
                });
                continue;
            }
            nodes.push(PhysNode {
                kind: PhysKind::Breaker,
                inputs: op.children().to_vec(),
                output: id,
            });
        }

        let root_node = nodes
            .iter()
            .position(|node| node.output == plan.root())
            .expect("the root is always reachable");
        PhysicalPlan {
            nodes,
            root_node,
            op_count: order.len(),
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
    /// O(operators) and allocation-free: child lists are inline.
    pub fn matches(&self, plan: &Plan) -> bool {
        if self.logical_len != plan.ops().len() {
            return false;
        }
        self.nodes.iter().all(|node| match &node.kind {
            PhysKind::Breaker => {
                !is_fusable(plan.op(node.output))
                    && plan.op(node.output).children()[..] == node.inputs[..]
            }
            PhysKind::Pipeline { ops } => {
                ops.last() == Some(&node.output)
                    && plan.op(ops[0]).children()[..] == node.inputs[..]
                    && ops
                        .windows(2)
                        .all(|w| plan.op(w[1]).children()[..] == [w[0]])
                    && ops.iter().all(|&op| is_fusable(plan.op(op)))
            }
        })
    }

    /// The number of consuming node edges per published operator result,
    /// indexed by [`OpId`], plus a synthetic final consumer for the root
    /// (whose result is the query answer and must never be evicted).  The
    /// executor frees a result when its count reaches zero.  Pipeline
    /// interiors never materialize and count zero.
    pub fn result_consumers(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.logical_len];
        for node in &self.nodes {
            for &input in &node.inputs {
                counts[input] += 1;
            }
        }
        counts[self.nodes[self.root_node].output] += 1;
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cols::{builder, col};
    use pf_relational::ops::{BinaryOp, CmpOp};
    use pf_relational::Value;

    /// lit → attach → map → select → project → sort(root): the four
    /// middle operators form one pipeline between two breakers.
    fn chain_plan() -> Plan {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![vec![Value::Nat(1).into(), Value::Int(10).into()]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: col("limit"),
            value: Value::Int(5).into(),
        });
        let map = b.add(AlgOp::BinaryMap {
            input: attach,
            target: col("keep"),
            left: col("item"),
            op: BinaryOp::Cmp(CmpOp::Gt),
            right: col("limit"),
        });
        let select = b.add(AlgOp::Select {
            input: map,
            column: col("keep"),
        });
        let project = b.add(AlgOp::Project {
            input: select,
            columns: vec![(col("iter"), col("iter")), (col("item"), col("item"))],
        });
        let rownum = b.add(AlgOp::RowNum {
            input: project,
            target: col("pos"),
            order_by: vec![crate::SortSpec::asc(col("iter"))],
            partition: None,
        });
        b.finish(rownum)
    }

    #[test]
    fn single_consumer_chains_fuse_between_breakers() {
        let plan = chain_plan();
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.nodes().len(), 3, "lit + pipeline + rownum");
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
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![vec![Value::Nat(1).into(), Value::Bool(true).into()]],
        });
        let project = b.add(AlgOp::Project {
            input: lit,
            columns: vec![(col("iter"), col("iter")), (col("item"), col("item"))],
        });
        let s1 = b.add(AlgOp::Select {
            input: project,
            column: col("item"),
        });
        let s2 = b.add(AlgOp::SelectEq {
            input: project,
            column: col("item"),
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
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: col("pos"),
            value: Value::Nat(1).into(),
        });
        let project = b.add(AlgOp::Project {
            input: attach,
            columns: vec![(col("iter"), col("iter")), (col("pos"), col("pos"))],
        });
        let plan = b.finish(project);
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.pipeline_count(), 1);
        assert_eq!(phys.nodes()[phys.root_node()].output, project);
        assert!(phys.nodes()[phys.root_node()].is_pipeline());

        // Same chain, but the root is the *attach*: nothing may fuse
        // through the root (its table is the query answer).
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: col("pos"),
            value: Value::Nat(1).into(),
        });
        let _orphan = b.add(AlgOp::Project {
            input: attach,
            columns: vec![(col("iter"), col("iter"))],
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
        let counts = phys.result_consumers();
        // Result consumers: the literal feeds the pipeline, the pipeline
        // tail feeds the sort, the root gets the synthetic consumer.
        assert_eq!(counts[0], 1);
        assert_eq!(counts[4], 1);
        assert_eq!(counts[plan.root()], 1);
        // Interior chain results never materialize → no consumers.
        assert_eq!(counts[1], 0);
        assert_eq!(counts[2], 0);
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
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![],
        });
        assert!(!phys.matches(&b.finish(lit)));
    }

    #[test]
    fn self_referencing_breakers_count_edges_twice() {
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
        let phys = PhysicalPlan::compile(&plan);
        assert_eq!(phys.nodes()[1].inputs, vec![lit, lit]);
        assert_eq!(phys.result_consumers()[lit], 2);
    }
}
