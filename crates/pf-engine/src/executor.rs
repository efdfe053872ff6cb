//! The plan executor: runs compiled physical plans over the column store.
//!
//! The executor no longer interprets the logical [`Plan`] one operator at a
//! time: it executes a [`PhysicalPlan`] — the logical DAG regrouped into
//! *pipeline breakers* (joins, steps, sorts, constructors, …) and *fused
//! pipelines* (single-consumer chains of π/σ/attach/⊙/`fn:data`/δ, one
//! operator long or more, evaluated in one pass by `pf-relational`'s
//! fused kernel with **zero intermediate table allocations**; it is the
//! only implementation of those operators).  The physical plan is
//! compiled once per (cached) logical plan; [`ExecStats::fused_ops`] /
//! [`ExecStats::tables_elided`] report what fusion saved.
//!
//! **One dispatch loop.**  Physical nodes run in topological order on the
//! calling thread, children before parents — the paper's model of one
//! algebraic plan evaluated bottom-up, one operator after another.
//! Shared subexpressions are computed exactly once.  The node
//! constructors (ε element, α attribute and τ text construction) create
//! transient documents and take their document ids from the registry as
//! they run, so ids — and with them document order across transient
//! fragments — follow the topological order.  α writes its attributes as
//! rows of its fragment's attribute table and emits [`AttrRef`]s to them;
//! ε reads a referenced row's name and value in place, and atomization
//! reads the value through the same store hook that atomizes nodes, so no
//! string is made per attribute on the way.  A panicking operator is
//! caught once, around the loop, and surfaces as an [`EngineError`].
//!
//! **One thread per query.**  Every kernel runs over its whole input on
//! the calling thread; concurrency comes from the callers (the server
//! runs one OS thread per connection).  An equi-join builds its hash
//! index once over the smaller input (typed borrowed keys — see
//! `pf_relational::ops::JoinPlan`) and probes it with the larger one; an
//! aggregation takes a hash-free segmented scan over an ascending
//! `Nat`/`Int` group column.
//!
//! **One accounting path.**  Every node is published through
//! `RunState::publish`, the one place a run is accounted: it appends a
//! [`NodeRun`] record (the node, its kind, its input and output rows, its
//! output cells and its wall time — one clock reading per node, a node
//! ending where the next one starts) on every run, behind no switch.  At
//! the end of the run [`ExecStats`] and [`OpProfile`] are folded from the
//! records; the kernel counters ([`ExecStats::join_build_rows`],
//! [`ExecStats::join_probe_rows`], [`ExecStats::agg_input_rows`]) follow
//! from the join and aggregate nodes' input sizes.
//!
//! Intermediate results are held behind [`Arc`]s and evicted at their last
//! use: `RunState::publish` also decrements the per-result consumer
//! counts of [`PhysicalPlan::result_consumers`] (consuming *node* edges
//! plus a synthetic final consumer protecting the root) and frees a result
//! the moment its count reaches zero — peak resident rows track the live
//! frontier of the DAG, not the whole plan.  Operators are borrowed from
//! the plan, never cloned.

use std::borrow::Cow;
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_algebra::{verify_bound, AlgOp, OpId, PhysKind, PhysNode, PhysicalPlan, Plan, SortSpec};
use pf_relational::ops::{self, KeyCol, SortKeys};
use pf_relational::{AttrRef, Cell, ColId, Column, NodeRef, Table, Value};
use pf_store::{DocStore, FragmentBuilder};

use crate::error::{EngineError, EngineResult};
use crate::registry::DocRegistry;

/// Memory-discipline statistics of one plan execution, folded from its
/// [`NodeRun`] records.
///
/// Rows are counted logically: every live table at its full row count,
/// ignoring buffer sharing.  `rows_produced` is what an executor that
/// retained every operator result until the end of the query would hold
/// resident when the query finished; `peak_resident_rows` is what this one
/// held at its worst moment.
///
/// Nodes run one at a time in the plan's topological order, so every
/// counter and the peak are determined by the plan and the data alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Operators evaluated (= reachable plan size).
    pub operators_evaluated: usize,
    /// Total rows produced across all operators (logical accounting).
    pub rows_produced: usize,
    /// Maximum live table rows at any step (logical accounting: shared
    /// buffers are counted once per table that references them).
    pub peak_resident_rows: usize,
    /// Total column cells produced across all operators, as if every
    /// output column were materialized (the pre-refactor memory model).
    pub cells_produced: usize,
    /// Intermediate results freed before the end of the query.
    pub evicted_results: usize,
    /// Logical operators that ran inside fused pipelines.
    pub fused_ops: usize,
    /// Intermediate tables fusion elided — one per interior pipeline edge
    /// that the unfused interpreter would have materialized.
    pub tables_elided: usize,
    /// Rows hashed into join build sides: the smaller input of each
    /// equi-join, the right input of each θ-join and rank count.
    pub join_build_rows: usize,
    /// Rows probed against join indexes: the larger input of each
    /// equi-join, the left input of each θ-join and rank count.
    pub join_probe_rows: usize,
    /// Rows consumed by grouped aggregation kernels.
    pub agg_input_rows: usize,
    /// Always 0: plans hold no index scans.  Kept because the benchmark
    /// harness reads it.
    pub index_candidate_rows: usize,
    /// Always 0: plans hold no index scans.  Kept because the benchmark
    /// harness reads it.
    pub index_residual_rows: usize,
}

/// Per-operator-kind wall-clock accounting of one plan execution, folded
/// from its [`NodeRun`] records.  Timings vary from run to run; the
/// *shape* (kinds, node and row counts) does not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// One entry per operator kind that ran, sorted by kind name.
    pub entries: Vec<OpTiming>,
}

/// Accumulated timing of one operator kind (see [`OpProfile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTiming {
    /// Operator kind (`"step"`, `"rownum"`, `"pipeline"`, …).
    pub kind: &'static str,
    /// Physical nodes of this kind evaluated.
    pub nodes: usize,
    /// Output rows those nodes produced.
    pub rows: usize,
    /// Total wall time spent evaluating them.
    pub total: Duration,
}

/// What one physical node did in one run: recorded for every node, in the
/// order the nodes ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRun {
    /// The operator whose result the node published
    /// ([`PhysNode::output`]).
    pub output: OpId,
    /// The node's kind: `"pipeline"` for a fused pipeline, the operator
    /// otherwise (the key of [`OpTiming::kind`]).
    pub kind: &'static str,
    /// Logical operators the node covers ([`PhysNode::op_count`]).
    pub ops: usize,
    /// Rows of the node's inputs, in [`PhysNode::inputs`] order; 0 past
    /// its last input (no operator has more than two).
    pub input_rows: [usize; 2],
    /// Rows of the node's output.
    pub rows: usize,
    /// Cells of the node's output (rows times columns).
    pub cells: usize,
    /// Wall time from the end of the previous node to the end of this
    /// one.
    pub elapsed: Duration,
}

/// The outcome of [`Executor::run`]: the root table, the record of every
/// node, and the statistics and profile folded from the records.
#[derive(Debug, Clone)]
pub struct Run {
    /// The root operator's table.
    pub table: Arc<Table>,
    /// One record per physical node, in the order the nodes ran.
    pub nodes: Vec<NodeRun>,
    /// The run's statistics.
    pub stats: ExecStats,
    /// The run's per-kind profile.
    pub ops: OpProfile,
}

/// The kind of one physical node: `"pipeline"` for the fused kernel
/// (which runs every fusable operator), the operator otherwise.
fn node_kind(plan: &Plan, node: &PhysNode) -> &'static str {
    match plan.op(node.output) {
        AlgOp::Project { .. }
        | AlgOp::Select { .. }
        | AlgOp::SelectEq { .. }
        | AlgOp::Distinct { .. }
        | AlgOp::BinaryMap { .. }
        | AlgOp::UnaryMap { .. }
        | AlgOp::Attach { .. }
        | AlgOp::FnData { .. } => "pipeline",
        AlgOp::Lit { .. } => "lit",
        AlgOp::Doc { .. } => "doc",
        AlgOp::Union { .. } => "union",
        AlgOp::Difference { .. } => "difference",
        AlgOp::EquiJoin { .. } => "equi_join",
        AlgOp::ThetaJoin { .. } | AlgOp::ThetaCount { .. } => "theta_join",
        AlgOp::Cross { .. } => "cross",
        AlgOp::RowNum { .. } => "rownum",
        AlgOp::Aggregate { .. } => "aggregate",
        AlgOp::Step { .. } => "step",
        AlgOp::DocOrder { .. } => "doc_order",
        AlgOp::FnRoot { .. } => "fn_root",
        AlgOp::Ebv { .. } => "ebv",
        AlgOp::ElemConstruct { .. } => "elem_construct",
        AlgOp::AttrConstruct { .. } => "attr_construct",
        AlgOp::TextConstruct { .. } => "text_construct",
    }
}

/// The published result of operator `id` in the slot arena.
fn slot(slots: &[Option<Arc<Table>>], id: OpId) -> EngineResult<&Table> {
    slots
        .get(id)
        .and_then(|slot| slot.as_deref())
        .ok_or_else(|| EngineError::msg("operator evaluated before its input"))
}

/// The message of a caught panic payload (a `&str` or `String` in
/// practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Per-operator memo of resolved document stores: one registry lock
/// acquisition (and `Arc` clone) per distinct document id instead of one
/// per row in atomizing loops.  Safe to hold across an operator evaluation
/// because a document id's store never changes while a query runs — loads
/// require `&mut DocRegistry`, and constructors only append fresh ids.
/// An operator reads few documents, so the memo is a short list.
struct StoreCache<'a> {
    registry: &'a DocRegistry,
    memo: Vec<(u32, Option<Arc<DocStore>>)>,
}

impl<'a> StoreCache<'a> {
    fn new(registry: &'a DocRegistry) -> Self {
        StoreCache {
            registry,
            memo: Vec::new(),
        }
    }

    /// The store for `doc`, resolved through the registry at most once.
    fn store(&mut self, doc: u32) -> Option<&DocStore> {
        let at = match self.memo.iter().position(|(id, _)| *id == doc) {
            Some(at) => at,
            None => {
                self.memo.push((doc, self.registry.store(doc)));
                self.memo.len() - 1
            }
        };
        self.memo[at].1.as_deref()
    }

    /// The store for `doc`, if [`StoreCache::store`] has resolved it.
    fn resolved(&self, doc: u32) -> Option<&DocStore> {
        self.memo
            .iter()
            .find(|(id, _)| *id == doc)
            .and_then(|(_, store)| store.as_deref())
    }

    /// Resolve the store of every attribute `column` references, so that
    /// [`StoreCache::resolved`] finds it; an unknown document is an error.
    fn resolve_attributes(&mut self, column: &Column) -> EngineResult<()> {
        let mut last = None;
        for row in 0..column.len() {
            if let Cell::Attr(attr) = column.cell(row) {
                if last != Some(attr.doc) {
                    self.store(attr.doc)
                        .ok_or_else(|| unknown_document(attr.doc))?;
                    last = Some(attr.doc);
                }
            }
        }
        Ok(())
    }

    /// Append the string value of `item` to `out` — the store hook of the
    /// fused kernel and the constructors' atomization.  A node appends its
    /// string value and a constructed attribute its value, both read in
    /// place (an unknown document contributes nothing); an atomic is
    /// written in its lexical form, without a string of its own.
    fn push_string_value(&mut self, item: Cell<'_>, out: &mut String) {
        match item {
            Cell::Node(node) => {
                if let Some(store) = self.store(node.doc) {
                    store.push_string_value(node.pre, out);
                }
            }
            Cell::Attr(attr) => {
                if let Some(store) = self.store(attr.doc) {
                    out.push_str(store.attr_value_of(attr.row as usize));
                }
            }
            Cell::Str(s) => out.push_str(s),
            atomic => write!(out, "{atomic}").expect("writing into a String cannot fail"),
        }
    }
}

/// The error of a reference into a document the registry does not hold.
fn unknown_document(doc: u32) -> EngineError {
    EngineError::msg(format!("unknown document id {doc}"))
}

/// The content rows of a constructor operator, grouped by iteration in
/// **one pass** and sorted by `pos` within each group.
///
/// The rows are grouped by a [`ops::NatIndex`] over `iter` (direct
/// address for the dense `iter`s loop-lifting produces) and each group is
/// sorted stably by `pos` unless it already is in order;
/// [`ContentIndex::content_of`] reads a group's items in place, as
/// [`Cell`]s.
struct ContentIndex<'t> {
    groups: ops::NatIndex,
    items: &'t Column,
}

impl<'t> ContentIndex<'t> {
    fn build(content: &'t Table) -> EngineResult<ContentIndex<'t>> {
        let iters = nat_keys(content.column(ColId::ITER)?)?;
        let poss = nat_keys(content.column(ColId::POS)?)?;
        let items = content.column(ColId::ITEM)?;
        let mut groups = ops::NatIndex::new(&iters);
        // Stable by pos: equal positions keep table order.
        groups.sort_groups_by_key(|row| poss[row as usize]);
        Ok(ContentIndex { groups, items })
    }

    /// The content items of `iter`, in `pos` order.
    fn content_of(&self, iter: u64) -> impl Iterator<Item = Cell<'t>> + '_ {
        let items = self.items;
        self.groups
            .rows_of(iter)
            .iter()
            .map(move |&row| items.cell(row as usize))
    }

    /// Append the atomized content of `iter` to `out`, items separated by
    /// single spaces: a node or an attribute contributes its string value,
    /// read in place, an atomic its lexical form.
    fn push_atomized(&self, iter: u64, cache: &mut StoreCache<'_>, out: &mut String) {
        for (i, item) in self.content_of(iter).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            cache.push_string_value(item, out);
        }
    }
}

/// The effective boolean value of the single item at `row`, read in place.
fn item_truth(column: &Column, row: usize) -> bool {
    match column {
        Column::Bool(v) => v[row],
        Column::Int(v) => v[row] != 0,
        Column::Nat(v) => v[row] != 0,
        Column::Dbl(v) => v[row] != 0.0,
        Column::Str(v) => !v[row].is_empty(),
        Column::Node(_) | Column::Attr(_) => true,
        Column::Item(v) => match &v[row] {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Nat(n) => *n != 0,
            Value::Dbl(d) => *d != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Node(_) | Value::Attr(_) => true,
        },
    }
}

/// A `Nat` key column as `u64`s: borrowed from a `Nat` column, converted
/// row by row (with [`Value::as_nat`]'s errors) from any other.
fn nat_keys(column: &Column) -> EngineResult<Cow<'_, [u64]>> {
    match column.as_nats() {
        Some(nats) => Ok(Cow::Borrowed(nats)),
        None => Ok(Cow::Owned(
            column
                .iter_values()
                .map(|value| value.as_nat())
                .collect::<Result<_, _>>()?,
        )),
    }
}

/// The published results of one run and the record of every node.
///
/// The dispatch loop hands every evaluated node to [`RunState::publish`]
/// in topological order.
struct RunState {
    slots: Vec<Option<Arc<Table>>>,
    /// Remaining consumer edges per published result, by [`OpId`] (evict
    /// when 0).
    remaining: Vec<usize>,
    nodes: Vec<NodeRun>,
    resident_rows: usize,
    peak_resident_rows: usize,
    evicted_results: usize,
}

impl RunState {
    fn new(plan: &Plan, physical: &PhysicalPlan) -> Self {
        RunState {
            slots: vec![None; plan.ops().len()],
            remaining: physical.result_consumers(),
            nodes: Vec::with_capacity(physical.nodes().len()),
            resident_rows: 0,
            peak_resident_rows: 0,
            evicted_results: 0,
        }
    }

    /// Record `node`'s run, publish its result, and evict the inputs that
    /// lost their last consumer — the one place a run is accounted.
    fn publish(&mut self, plan: &Plan, node: &PhysNode, table: Table, elapsed: Duration) {
        let mut input_rows = [0; 2];
        for (rows, &input) in input_rows.iter_mut().zip(&node.inputs) {
            *rows = self.slots[input].as_ref().map_or(0, |t| t.row_count());
        }
        let rows = table.row_count();
        self.nodes.push(NodeRun {
            output: node.output,
            kind: node_kind(plan, node),
            ops: node.op_count(),
            input_rows,
            rows,
            cells: rows * table.column_count(),
            elapsed,
        });

        self.resident_rows += rows;
        self.slots[node.output] = Some(Arc::new(table));
        // The node's inputs and its output coexist while it runs, so the
        // peak is sampled before the inputs are released.
        self.peak_resident_rows = self.peak_resident_rows.max(self.resident_rows);
        for &input in &node.inputs {
            self.remaining[input] -= 1;
            if self.remaining[input] == 0 {
                if let Some(freed) = self.slots[input].take() {
                    self.resident_rows -= freed.row_count();
                    self.evicted_results += 1;
                }
            }
        }
    }

    /// The root table, the records, and the statistics and profile folded
    /// from them.  A node's kernel counters follow from its input sizes:
    /// an equi-join builds its smaller input and probes its larger one, a
    /// θ-join or rank count builds its right input and probes its left
    /// one, an aggregate reads its input.
    fn finish(mut self, plan: &Plan) -> EngineResult<Run> {
        let table = self.slots[plan.root()]
            .take()
            .ok_or_else(|| EngineError::msg("plan produced no result"))?;
        let mut stats = ExecStats {
            peak_resident_rows: self.peak_resident_rows,
            evicted_results: self.evicted_results,
            ..ExecStats::default()
        };
        let mut entries: Vec<OpTiming> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            stats.operators_evaluated += node.ops;
            if node.ops > 1 {
                stats.fused_ops += node.ops;
                stats.tables_elided += node.ops - 1;
            }
            stats.rows_produced += node.rows;
            stats.cells_produced += node.cells;
            let [left, right] = node.input_rows;
            match node.kind {
                "equi_join" => {
                    stats.join_build_rows += left.min(right);
                    stats.join_probe_rows += left.max(right);
                }
                "theta_join" => {
                    stats.join_build_rows += right;
                    stats.join_probe_rows += left;
                }
                "aggregate" => stats.agg_input_rows += left,
                _ => {}
            }
            match entries.iter_mut().find(|entry| entry.kind == node.kind) {
                Some(entry) => {
                    entry.nodes += 1;
                    entry.rows += node.rows;
                    entry.total += node.elapsed;
                }
                None => entries.push(OpTiming {
                    kind: node.kind,
                    nodes: 1,
                    rows: node.rows,
                    total: node.elapsed,
                }),
            }
        }
        entries.sort_by_key(|entry| entry.kind);
        Ok(Run {
            table,
            nodes: self.nodes,
            stats,
            ops: OpProfile { entries },
        })
    }
}

/// Plan interpreter bound to a document registry.
///
/// The registry is only ever read-shared during execution (node
/// constructors append transient documents through its interior lock), so
/// the executor borrows it immutably.
#[derive(Debug)]
pub struct Executor<'a> {
    registry: &'a DocRegistry,
}

impl<'a> Executor<'a> {
    /// Create an executor over `registry` (constructed nodes are registered
    /// there).
    pub fn new(registry: &'a DocRegistry) -> Self {
        Executor { registry }
    }

    /// Run `physical`, compiled from this very `plan` by
    /// [`PhysicalPlan::compile`] (the engine caches one per cached logical
    /// plan): physical nodes in topological order on the calling thread,
    /// with last-use eviction.  A plan with an unbound parameter slot is
    /// refused.
    ///
    /// A panicking operator must not take its caller down — the server
    /// runs every query on a connection thread — so the loop runs under
    /// one `catch_unwind`, and the panic surfaces as an [`EngineError`].
    pub fn run(&self, plan: &Plan, physical: &PhysicalPlan) -> EngineResult<Run> {
        if !physical.matches(plan) {
            return Err(EngineError::msg(
                "physical plan was compiled from a different logical plan",
            ));
        }
        verify_bound(plan).map_err(|e| EngineError::msg(e.to_string()))?;
        catch_unwind(AssertUnwindSafe(|| {
            let mut run = RunState::new(plan, physical);
            let mut started = Instant::now();
            for node in physical.nodes() {
                let table = self.eval_node(plan, node, &run.slots)?;
                // A node ends where the next one starts.
                let ended = Instant::now();
                run.publish(plan, node, table, ended - started);
                started = ended;
            }
            run.finish(plan)
        }))
        .unwrap_or_else(|payload| {
            Err(EngineError::msg(format!(
                "operator panicked: {}",
                panic_message(&*payload)
            )))
        })
    }

    /// Evaluate one physical node: breakers go through the single-operator
    /// interpreter, pipelines through the fused kernel (with node
    /// atomization wired in via a [`StoreCache`]).
    fn eval_node(
        &self,
        plan: &Plan,
        node: &PhysNode,
        slots: &[Option<Arc<Table>>],
    ) -> EngineResult<Table> {
        match &node.kind {
            PhysKind::Breaker => self.eval(plan, node.output, slots),
            PhysKind::Pipeline { .. } => {
                let input = slot(slots, node.inputs[0])?;
                let mut cache = StoreCache::new(self.registry);
                Ok(ops::run_pipeline(
                    input,
                    &node.steps(plan),
                    &mut |item, out| cache.push_string_value(item, out),
                )?)
            }
        }
    }

    /// Evaluate one logical operator as a pipeline breaker.  The fusable
    /// operators are not breakers: the fused kernel runs them (see
    /// [`PhysicalPlan::compile`]).
    fn eval(&self, plan: &Plan, id: OpId, slots: &[Option<Arc<Table>>]) -> EngineResult<Table> {
        let table = match plan.op(id) {
            AlgOp::EquiJoin {
                left,
                right,
                left_col,
                right_col,
            } => ops::equi_join(
                slot(slots, *left)?,
                slot(slots, *right)?,
                *left_col,
                *right_col,
            )?,
            AlgOp::ThetaJoin {
                left,
                right,
                left_col,
                op,
                right_col,
            } => ops::theta_join(
                slot(slots, *left)?,
                slot(slots, *right)?,
                *left_col,
                *op,
                *right_col,
            )?,
            AlgOp::ThetaCount { left, right, count } => {
                ops::theta_count(slot(slots, *left)?, slot(slots, *right)?, count)?
            }
            AlgOp::Aggregate {
                input,
                group,
                target,
                func,
                value,
            } => ops::aggregate_by(slot(slots, *input)?, *group, *target, *func, *value)?,
            AlgOp::Lit { columns, rows } => {
                let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); columns.len()];
                for row in rows {
                    for (i, v) in row.iter().enumerate() {
                        let v = v.value().expect("plans are verified bound before they run");
                        cols[i].push(v.clone());
                    }
                }
                Table::new(
                    columns
                        .iter()
                        .zip(cols)
                        .map(|(&id, values)| (id, Column::from_values(values)))
                        .collect(),
                )?
            }
            AlgOp::Doc { uri } => {
                let doc_id = self.registry.id_of(uri).ok_or_else(|| {
                    EngineError::msg(format!("no document registered under `{uri}`"))
                })?;
                Table::new(vec![(
                    ColId::ITEM,
                    Column::nodes(vec![NodeRef::new(doc_id, 0)]),
                )])?
            }
            AlgOp::Project { .. }
            | AlgOp::Select { .. }
            | AlgOp::SelectEq { .. }
            | AlgOp::Distinct { .. }
            | AlgOp::BinaryMap { .. }
            | AlgOp::UnaryMap { .. }
            | AlgOp::Attach { .. }
            | AlgOp::FnData { .. } => {
                return Err(EngineError::msg(format!(
                    "{} runs in a fused pipeline, not as a breaker",
                    plan.symbol(id)
                )))
            }
            AlgOp::Union { left, right } => {
                ops::union_disjoint(slot(slots, *left)?, slot(slots, *right)?)?
            }
            AlgOp::Difference { left, right } => {
                ops::difference(slot(slots, *left)?, slot(slots, *right)?)?
            }
            AlgOp::Cross { left, right } => ops::cross(slot(slots, *left)?, slot(slots, *right)?)?,
            AlgOp::RowNum {
                input,
                target,
                order_by,
                partition,
            } => self.row_number(slot(slots, *input)?, *target, order_by, *partition)?,
            AlgOp::Step { input, axis, test } => {
                ops::staircase_step(slot(slots, *input)?, self.registry, *axis, test)?
            }
            AlgOp::DocOrder { input } => self.doc_order(slot(slots, *input)?)?,
            AlgOp::FnRoot { input } => self.fn_root(slot(slots, *input)?)?,
            AlgOp::Ebv { input } => self.ebv(slot(slots, *input)?)?,
            AlgOp::ElemConstruct {
                loop_input,
                tag,
                content,
            } => self.construct_elements(
                slot(slots, *loop_input)?,
                tag,
                slot(slots, *content)?,
                self.registry.reserve_constructed(1),
            )?,
            AlgOp::AttrConstruct {
                loop_input,
                name,
                content,
            } => self.construct_attributes(
                slot(slots, *loop_input)?,
                name,
                slot(slots, *content)?,
                self.registry.reserve_constructed(1),
            )?,
            AlgOp::TextConstruct {
                loop_input,
                content,
            } => self.construct_texts(
                slot(slots, *loop_input)?,
                slot(slots, *content)?,
                self.registry.reserve_constructed(1),
            )?,
        };
        Ok(table)
    }

    // ----- value helpers --------------------------------------------------

    fn fn_root(&self, table: &Table) -> EngineResult<Table> {
        let item = table.column(ColId::ITEM)?;
        let mut values = Vec::with_capacity(table.row_count());
        for row in 0..table.row_count() {
            match item.get(row) {
                Value::Node(node) => values.push(Value::Node(NodeRef::new(node.doc, 0))),
                other => {
                    return Err(EngineError::msg(format!(
                        "fn:root applied to a non-node value {other}"
                    )))
                }
            }
        }
        let mut columns = Vec::new();
        for &(id, ref col) in table.columns() {
            if id == ColId::ITEM {
                columns.push((id, Column::from_values(values.clone())));
            } else {
                columns.push((id, col.clone()));
            }
        }
        Ok(Table::new(columns)?)
    }

    /// Effective boolean value per iteration, in first-appearance order of
    /// the iterations: `true` for more than one item, otherwise the
    /// truth of the single item (a node is `true`).
    fn ebv(&self, table: &Table) -> EngineResult<Table> {
        let iters = nat_keys(table.column(ColId::ITER)?)?;
        let item_col = table.column(ColId::ITEM)?;
        let groups = ops::NatIndex::new(&iters);
        let mut out_iters = Vec::new();
        let mut bools = Vec::new();
        for (row, &iter) in iters.iter().enumerate() {
            let group = groups.rows_of(iter);
            // Rows ascend within a group: its first row opens it.
            if group[0] as usize == row {
                out_iters.push(iter);
                bools.push(group.len() > 1 || item_truth(item_col, row));
            }
        }
        // No rows: an untyped item column, like any empty
        // `Column::from_values`.
        let item = if bools.is_empty() {
            Column::empty_item()
        } else {
            Column::bools(bools)
        };
        Ok(Table::new(vec![
            (ColId::ITER, Column::nats(out_iters)),
            (ColId::ITEM, item),
        ])?)
    }

    /// `fs:distinct-doc-order`: per iteration, sort items into document
    /// order and drop duplicates, numbering `pos` in the same pass over
    /// the sorted rows.
    fn doc_order(&self, table: &Table) -> EngineResult<Table> {
        let (iter, item) = (table.column(ColId::ITER)?, table.column(ColId::ITEM)?);
        let (iters, items) = (KeyCol::of(iter), KeyCol::of(item));
        let mut order: Vec<usize> = (0..table.row_count()).collect();
        order.sort_by(|&a, &b| iters.cmp_rows(a, b).then_with(|| items.cmp_rows(a, b)));
        let mut keep: Vec<usize> = Vec::with_capacity(order.len());
        let mut poss: Vec<u64> = Vec::with_capacity(order.len());
        for row in order {
            let pos = match (keep.last(), poss.last()) {
                (Some(&prev), Some(&pos)) if iters.rows_equal(prev, row) => {
                    if items.rows_equal(prev, row) {
                        continue;
                    }
                    pos + 1
                }
                _ => 1,
            };
            keep.push(row);
            poss.push(pos);
        }
        Ok(Table::new(vec![
            (ColId::ITER, iter.gather(&keep)),
            (ColId::POS, Column::nats(poss)),
            (ColId::ITEM, item.gather(&keep)),
        ])?)
    }

    /// Row numbering with ascending/descending keys and optional
    /// partitioning (the physical `%` operator).
    ///
    /// One kernel with `pf_relational::ops::row_number_by`: the typed sort
    /// keys are extracted once ([`SortKeys`] — the comparator never
    /// materializes per-row [`Value`]s), and [`ops::row_number_permuted`]
    /// applies the numbering to their stable permutation.
    fn row_number(
        &self,
        table: &Table,
        target: ColId,
        order_by: &[SortSpec],
        partition: Option<ColId>,
    ) -> EngineResult<Table> {
        // The partition-first sort-spec convention lives in ONE place —
        // `rownum::sort_spec` — so the permutation computed here always
        // matches what `row_number_permuted`'s numbering expects.
        let specs = ops::rownum::sort_spec(order_by, partition);
        let order = SortKeys::for_columns(table, &specs)?.stable_permutation(table.row_count());
        Ok(ops::row_number_permuted(table, target, partition, &order)?)
    }

    // ----- node construction (ε, α, τ) ------------------------------------

    /// ε: one element per iteration of `loop_table`.  All elements one
    /// operator constructs share a single transient fragment (like
    /// MonetDB/XQuery's transient fragments), written straight into its
    /// `pre|size|level` columns: each element is a child of the fragment's
    /// document node, and its pre rank identifies it.
    fn construct_elements(
        &self,
        loop_table: &Table,
        tag: &str,
        content: &Table,
        doc_id: u32,
    ) -> EngineResult<Table> {
        let iters = nat_keys(loop_table.column(ColId::ITER)?)?;
        let index = ContentIndex::build(content)?;
        let mut cache = StoreCache::new(self.registry);
        // The attribute lists below read the constructed attributes' rows
        // in place, from stores resolved here once.
        cache.resolve_attributes(index.items)?;
        let mut fragment = FragmentBuilder::new(format!("#constructed-{doc_id}"));
        let tag = fragment.tag(tag);
        let mut nodes = Vec::with_capacity(iters.len());
        for &iter in iters.iter() {
            // Constructed attributes, wherever they sit in the content,
            // become the element's attributes; the rest its children.
            let attributes = index.content_of(iter).filter_map(|item| match item {
                Cell::Attr(attr) => {
                    let store = cache.resolved(attr.doc)?;
                    let row = attr.row as usize;
                    Some((store.attr_name_of(row), store.attr_value_of(row)))
                }
                _ => None,
            });
            let element = fragment.start_element(tag, attributes);
            let mut previous_was_atomic = false;
            for item in index.content_of(iter) {
                match item {
                    Cell::Node(node) => {
                        let store = cache
                            .store(node.doc)
                            .ok_or_else(|| unknown_document(node.doc))?;
                        fragment.copy_subtree(store, node.pre);
                        previous_was_atomic = false;
                    }
                    Cell::Attr(_) => {}
                    atomic => {
                        if previous_was_atomic {
                            fragment.text(" ");
                        }
                        match atomic {
                            Cell::Str(s) => fragment.text(s),
                            _ => write!(fragment, "{atomic}")
                                .expect("writing into a fragment cannot fail"),
                        }
                        previous_was_atomic = true;
                    }
                }
            }
            fragment.end_element();
            nodes.push(NodeRef::new(doc_id, element));
        }
        self.registry.fill_constructed(doc_id, fragment.finish());
        constructor_output(iters, Column::nodes(nodes))
    }

    /// α: one attribute per iteration, its value the atomized content
    /// joined by spaces.  All attributes one operator constructs are rows
    /// of one transient fragment's attribute table, owned by its document
    /// node; the item is an [`AttrRef`] to the row, whose name and value
    /// the element constructor, atomization and serialization read in
    /// place.
    fn construct_attributes(
        &self,
        loop_table: &Table,
        name: &str,
        content: &Table,
        doc_id: u32,
    ) -> EngineResult<Table> {
        let iters = nat_keys(loop_table.column(ColId::ITER)?)?;
        let index = ContentIndex::build(content)?;
        let mut cache = StoreCache::new(self.registry);
        let mut fragment = FragmentBuilder::new(format!("#attributes-{doc_id}"));
        let name = fragment.tag(name);
        let mut value = String::new();
        let mut attrs = Vec::with_capacity(iters.len());
        for &iter in iters.iter() {
            value.clear();
            index.push_atomized(iter, &mut cache, &mut value);
            let row = u32::try_from(fragment.attribute(name, &value))
                .map_err(|_| EngineError::msg("an attribute constructor made 2^32 attributes"))?;
            attrs.push(AttrRef::new(doc_id, row));
        }
        self.registry.fill_constructed(doc_id, fragment.finish());
        constructor_output(iters, Column::attrs(attrs))
    }

    /// τ: one text node per iteration with content, holding the atomized
    /// content joined by spaces; an iteration whose content is the empty
    /// sequence constructs no node.  The nodes share one transient
    /// fragment, each under an element of its own, so the text of
    /// neighbouring iterations never merges; the item is the text node,
    /// the wrapper's pre + 1.
    fn construct_texts(
        &self,
        loop_table: &Table,
        content: &Table,
        doc_id: u32,
    ) -> EngineResult<Table> {
        let iters = nat_keys(loop_table.column(ColId::ITER)?)?;
        let index = ContentIndex::build(content)?;
        let mut cache = StoreCache::new(self.registry);
        let mut fragment = FragmentBuilder::new(format!("#text-{doc_id}"));
        let wrapper = fragment.tag("#text-wrapper");
        let mut out_iters = Vec::with_capacity(iters.len());
        let mut nodes = Vec::with_capacity(iters.len());
        let mut text = String::new();
        for &iter in iters.iter() {
            if index.content_of(iter).next().is_none() {
                continue;
            }
            text.clear();
            index.push_atomized(iter, &mut cache, &mut text);
            let element = fragment.start_element(wrapper, []);
            fragment.text(&text);
            fragment.end_element();
            out_iters.push(iter);
            nodes.push(NodeRef::new(doc_id, element + 1));
        }
        self.registry.fill_constructed(doc_id, fragment.finish());
        constructor_output(Cow::Owned(out_iters), Column::nodes(nodes))
    }
}

/// The `iter|pos|item` output of a constructor: one item per iteration,
/// each at position 1.  An empty output keeps the untyped item column.
fn constructor_output(iters: Cow<'_, [u64]>, item: Column) -> EngineResult<Table> {
    let item = if item.is_empty() {
        Column::empty_item()
    } else {
        item
    };
    let poss = vec![1; iters.len()];
    Ok(Table::new(vec![
        (ColId::ITER, Column::nats(iters.into_owned())),
        (ColId::POS, Column::nats(poss)),
        (ColId::ITEM, item),
    ])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use pf_algebra::PlanBuilder;
    use pf_relational::ops::{AggFunc, BinaryOp};
    use pf_store::{Axis, NodeTest};

    /// The columns the tests name, after the well-known ones: every plan
    /// of [`builder`] numbers them in this order, so [`col`] names them.
    const NAMES: &[&str] = &[
        "a", "b", "c", "d", "flag", "item1", "iter1", "iter2", "keep", "limit", "n", "rank",
        "weight",
    ];

    fn col(name: &str) -> ColId {
        let at = ColId::WELL_KNOWN
            .iter()
            .chain(NAMES)
            .position(|&n| n == name);
        ColId(at.unwrap_or_else(|| panic!("test column `{name}` is not in `NAMES`")) as u32)
    }

    fn builder() -> PlanBuilder {
        let mut b = PlanBuilder::new();
        NAMES.iter().for_each(|&n| {
            b.col(n);
        });
        b
    }

    /// [`Executor::run`] over `plan`'s own physical compilation.
    fn run(exec: &Executor<'_>, plan: &Plan) -> EngineResult<Run> {
        exec.run(plan, &PhysicalPlan::compile(plan))
    }

    fn registry() -> DocRegistry {
        let reg = DocRegistry::new();
        reg.load_xml("doc.xml", "<a><b>1</b><b>2</b><c>x</c></a>")
            .unwrap();
        reg
    }

    #[test]
    fn executes_doc_and_step() {
        let reg = registry();
        let mut b = builder();
        let loop0 = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let doc = b.add(AlgOp::Doc {
            uri: "doc.xml".into(),
        });
        let crossed = b.add(AlgOp::Cross {
            left: loop0,
            right: doc,
        });
        let step = b.add(AlgOp::Step {
            input: crossed,
            axis: Axis::Descendant,
            test: NodeTest::Element("b".into()),
        });
        let plan = b.finish(step);
        let table = run(&Executor::new(&reg), &plan).unwrap().table;
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn ebv_semantics() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let t = Table::iter_pos_item(
            vec![1, 2, 3, 4],
            vec![1, 1, 1, 1],
            vec![
                Value::Bool(false),
                Value::Int(0),
                Value::Str("x".into()),
                Value::Node(NodeRef::new(0, 1)),
            ],
        )
        .unwrap();
        let b = exec.ebv(&t).unwrap();
        let flags: Vec<Value> = b.column(col("item")).unwrap().iter_values().collect();
        assert_eq!(
            flags,
            vec![
                Value::Bool(false),
                Value::Bool(false),
                Value::Bool(true),
                Value::Bool(true)
            ]
        );
    }

    /// Groups in first-appearance order whether the `iter`s are unsorted,
    /// repeated or sparse; a group of several items is `true` whatever
    /// they are; every item representation reads like its `Value`.
    #[test]
    fn ebv_groups_unsorted_duplicate_and_sparse_iters() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let iter_item = |iters: Vec<u64>, items: Column| {
            Table::new(vec![
                (col("iter"), Column::nats(iters)),
                (col("item"), items),
            ])
            .unwrap()
        };
        let as_rows = |t: &Table| -> Vec<(u64, Value)> {
            (0..t.row_count())
                .map(|r| {
                    let iter = t.value(col("iter"), r).unwrap().as_nat().unwrap();
                    (iter, t.value(col("item"), r).unwrap())
                })
                .collect()
        };
        let t = iter_item(
            vec![7, 3, 7, u64::MAX, 5, 3],
            Column::ints(vec![0, 0, 0, 2, 0, 0]),
        );
        let out = exec.ebv(&t).unwrap();
        assert_eq!(
            as_rows(&out),
            vec![
                (7, Value::Bool(true)),
                (3, Value::Bool(true)),
                (u64::MAX, Value::Bool(true)),
                (5, Value::Bool(false)),
            ]
        );
        assert_eq!(
            out.column(col("item")).unwrap().as_bools().unwrap().len(),
            4
        );
        for (items, expected) in [
            (Column::nats(vec![0, 4]), [false, true]),
            (Column::dbls(vec![0.0, f64::NAN]), [false, true]),
            (Column::strs(vec!["".into(), "x".into()]), [false, true]),
            (Column::bools(vec![false, true]), [false, true]),
            (Column::nodes(vec![NodeRef::new(0, 1); 2]), [true, true]),
            (
                Column::items(vec![Value::Str(String::new()), Value::Dbl(-0.5)]),
                [false, true],
            ),
        ] {
            let out = exec.ebv(&iter_item(vec![2, 1], items)).unwrap();
            let flags: Vec<bool> = out
                .column(col("item"))
                .unwrap()
                .iter_values()
                .map(|v| v.as_bool().unwrap())
                .collect();
            assert_eq!(flags, expected);
        }
        // A non-`Nat` iter column of naturals groups alike; one that is not
        // natural fails as before.
        let items = Table::new(vec![
            (col("iter"), Column::ints(vec![4, 4])),
            (col("item"), Column::ints(vec![0, 0])),
        ])
        .unwrap();
        assert_eq!(
            as_rows(&exec.ebv(&items).unwrap()),
            vec![(4, Value::Bool(true))]
        );
        let bad = Table::new(vec![
            (col("iter"), Column::ints(vec![1, -1])),
            (col("item"), Column::ints(vec![0, 0])),
        ])
        .unwrap();
        assert!(exec
            .ebv(&bad)
            .unwrap_err()
            .to_string()
            .contains("expected nat"));
    }

    /// An empty input keeps its output column types: `Nat` iters and the
    /// untyped item column.
    #[test]
    fn ebv_of_an_empty_input_keeps_its_column_types() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let t = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        let out = exec.ebv(&t).unwrap();
        assert_eq!(out.row_count(), 0);
        assert!(out.column(col("iter")).unwrap().as_nats().is_some());
        assert!(out.column(col("item")).unwrap().as_items().is_some());
    }

    /// The content of an iteration is its rows in `pos` order, ties in
    /// table order — for unsorted, repeated and sparse `iter`s and
    /// out-of-order `pos`; an absent iteration has none.
    #[test]
    fn content_index_groups_by_iter_in_pos_order() {
        let iters = vec![9, 2, 9, 2, 1 << 50, 9, 2];
        let poss = vec![3, 2, 1, 1, 1, 1, 2];
        let items: Vec<Value> = (0..7).map(Value::Int).collect();
        let content = Table::iter_pos_item(iters.clone(), poss.clone(), items).unwrap();
        let index = ContentIndex::build(&content).unwrap();
        let content_of = |iter: u64| index.content_of(iter).collect::<Vec<_>>();
        let ints =
            |values: &[i64]| -> Vec<Cell<'_>> { values.iter().map(|&i| Cell::Int(i)).collect() };
        // The old per-iteration gather, stable by pos.
        let gather = |iter: u64| -> Vec<i64> {
            let mut rows: Vec<usize> = (0..iters.len()).filter(|&r| iters[r] == iter).collect();
            rows.sort_by_key(|&r| poss[r]);
            rows.into_iter().map(|r| r as i64).collect()
        };
        for iter in [9, 2, 1 << 50, 0, 3, u64::MAX] {
            assert_eq!(content_of(iter), ints(&gather(iter)), "iter {iter}");
        }
        assert_eq!(content_of(9), ints(&[2, 5, 0]));
        assert_eq!(content_of(2), ints(&[3, 1, 6]));
        let empty = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        assert_eq!(
            ContentIndex::build(&empty).unwrap().content_of(1).count(),
            0
        );
    }

    /// The store hook appends a node's string value, an attribute's
    /// value and an atomic's lexical form, and nothing for a node or an
    /// attribute of an unknown document.
    #[test]
    fn atomization_resolves_node_string_values() {
        let reg = registry();
        let mut fragment = FragmentBuilder::new("attrs");
        let name = fragment.tag("k");
        fragment.attribute(name, "v");
        fragment.attribute(name, "w é");
        let attrs = reg.register_constructed(fragment.finish());
        let mut cache = StoreCache::new(&reg);
        let mut out = String::from(">");
        // node 2 is the first <b>; its string value is "1"; node 1 is <a>
        cache.push_string_value(Cell::Node(NodeRef::new(0, 2)), &mut out);
        cache.push_string_value(Cell::Node(NodeRef::new(0, 1)), &mut out);
        cache.push_string_value(Cell::Node(NodeRef::new(99, 0)), &mut out);
        cache.push_string_value(Cell::Attr(AttrRef::new(attrs, 1)), &mut out);
        cache.push_string_value(Cell::Attr(AttrRef::new(99, 0)), &mut out);
        cache.push_string_value(Cell::Dbl(2.5), &mut out);
        cache.push_string_value(Cell::Str("s"), &mut out);
        assert_eq!(out, ">112xw é2.5s");
        assert_eq!(cache.memo.len(), 3, "one lookup per document");
    }

    #[test]
    fn descending_row_number() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let t = Table::iter_pos_item(
            vec![1, 1, 1],
            vec![1, 2, 3],
            vec![Value::Int(5), Value::Int(9), Value::Int(7)],
        )
        .unwrap();
        let numbered = exec
            .row_number(
                &t,
                col("rank"),
                &[SortSpec::desc(col("item"))],
                Some(col("iter")),
            )
            .unwrap();
        assert_eq!(numbered.value(col("item"), 0).unwrap(), Value::Int(9));
        assert_eq!(numbered.value(col("rank"), 0).unwrap(), Value::Nat(1));
        assert_eq!(numbered.value(col("item"), 2).unwrap(), Value::Int(5));
    }

    /// Strings, nodes and attributes are read in place from typed and
    /// untyped item columns alike.
    #[test]
    fn content_items_are_borrowed_views() {
        let node = NodeRef::new(0, 2);
        let attr = AttrRef::new(3, 4);
        let mixed = Table::iter_pos_item(
            vec![1, 1, 1, 1],
            vec![1, 2, 3, 4],
            vec![
                Value::Str("s".into()),
                Value::Node(node),
                Value::Bool(true),
                Value::Attr(attr),
            ],
        )
        .unwrap();
        let index = ContentIndex::build(&mixed).unwrap();
        assert_eq!(
            index.content_of(1).collect::<Vec<_>>(),
            vec![
                Cell::Str("s"),
                Cell::Node(node),
                Cell::Bool(true),
                Cell::Attr(attr)
            ]
        );
    }

    /// α writes one attribute-table row per iteration into one fragment
    /// and emits references to the rows; an iteration's content is
    /// atomized and joined by spaces, empty content gives "".
    #[test]
    fn attribute_construction_writes_rows_of_one_fragment() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let loop_table = Table::new(vec![(col("iter"), Column::nats(vec![1, 2, 3]))]).unwrap();
        let content = Table::iter_pos_item(
            vec![1, 3, 1],
            vec![1, 1, 2],
            vec![
                Value::Node(NodeRef::new(0, 2)), // <b>1</b>
                Value::Str("é".into()),
                Value::Dbl(2.5),
            ],
        )
        .unwrap();
        let doc_id = reg.reserve_constructed(1);
        let out = exec
            .construct_attributes(&loop_table, "k", &content, doc_id)
            .unwrap();
        assert_eq!(
            out.column(col("item")).unwrap().as_attrs().unwrap(),
            &[0, 1, 2].map(|row| AttrRef::new(doc_id, row))
        );
        let store = reg.store(doc_id).unwrap();
        let pairs: Vec<(&str, &str)> = (0..store.attribute_count())
            .map(|row| (store.attr_name_of(row), store.attr_value_of(row)))
            .collect();
        assert_eq!(pairs, [("k", "1 2.5"), ("k", ""), ("k", "é")]);
        assert_eq!(store.node_count(), 1, "the document node owns the rows");
    }

    /// Attributes, copied nodes, atomics with the " " between adjacent
    /// ones, and text merging, in one constructed element; the fragment
    /// holds one element per iteration and an empty loop yields the
    /// untyped empty item column.
    #[test]
    fn element_construction_writes_one_fragment_per_operator() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let one = Table::new(vec![(col("iter"), Column::nats(vec![1]))]).unwrap();
        let value = Table::iter_pos_item(vec![1], vec![1], vec![Value::Str("v".into())]).unwrap();
        let attrs = exec
            .construct_attributes(&one, "k", &value, reg.reserve_constructed(1))
            .unwrap();
        let attr = attrs.value(col("item"), 0).unwrap();
        let loop_table = Table::new(vec![(col("iter"), Column::nats(vec![1, 2]))]).unwrap();
        let content = Table::iter_pos_item(
            vec![1, 1, 1, 1, 1, 2, 1],
            vec![1, 2, 3, 4, 5, 1, 6],
            vec![
                Value::Int(1),
                attr,
                Value::Dbl(2.5),
                Value::Node(NodeRef::new(0, 3)), // the text "1"
                Value::Node(NodeRef::new(0, 4)), // <b>2</b>
                Value::Str("x".into()),
                Value::Bool(true),
            ],
        )
        .unwrap();
        let doc_id = reg.reserve_constructed(1);
        let out = exec
            .construct_elements(&loop_table, "e", &content, doc_id)
            .unwrap();
        let nodes = out
            .column(col("item"))
            .unwrap()
            .as_nodes()
            .unwrap()
            .to_vec();
        assert_eq!(
            nodes,
            vec![NodeRef::new(doc_id, 1), NodeRef::new(doc_id, 6)]
        );
        let store = reg.store(doc_id).unwrap();
        assert_eq!(
            store.subtree_to_xml(0),
            "<e k=\"v\">1 2.51<b>2</b>true</e><e>x</e>"
        );
        // "1 2.5" and the copied "1" merged into one text node: the
        // document, two elements, <b> and four text nodes.
        assert_eq!(store.node_count(), 8);
        let empty = Table::new(vec![(col("iter"), Column::nats(vec![]))]).unwrap();
        let out = exec
            .construct_elements(&empty, "e", &content, reg.reserve_constructed(1))
            .unwrap();
        assert_eq!(out.row_count(), 0);
        assert!(out.column(col("item")).unwrap().as_items().is_some());
    }

    /// τ over empty and multi-item content: one text node per iteration
    /// with content, never merged across iterations; none for an
    /// iteration whose content is empty.
    #[test]
    fn text_construction_keeps_one_node_per_iteration() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let loop_table = Table::new(vec![(col("iter"), Column::nats(vec![1, 2, 3]))]).unwrap();
        let content = Table::iter_pos_item(
            vec![1, 1, 3],
            vec![1, 2, 1],
            vec![
                Value::Node(NodeRef::new(0, 1)),
                Value::Int(7),
                Value::Str("z".into()),
            ],
        )
        .unwrap();
        let doc_id = reg.reserve_constructed(1);
        let out = exec.construct_texts(&loop_table, &content, doc_id).unwrap();
        let store = reg.store(doc_id).unwrap();
        let texts: Vec<&str> = out
            .column(col("item"))
            .unwrap()
            .as_nodes()
            .unwrap()
            .iter()
            .map(|node| store.content_of(node.pre))
            .collect();
        assert_eq!(texts, ["12x 7", "z"]);
        assert_eq!(out.column(col("iter")).unwrap().as_nats().unwrap(), &[1, 3]);
    }

    #[test]
    fn element_construction_copies_subtrees() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let loop_table = Table::new(vec![(col("iter"), Column::nats(vec![1]))]).unwrap();
        let content = Table::iter_pos_item(
            vec![1, 1],
            vec![1, 2],
            vec![Value::Node(NodeRef::new(0, 2)), Value::Str("done".into())],
        )
        .unwrap();
        let doc_id = reg.reserve_constructed(1);
        let out = exec
            .construct_elements(&loop_table, "wrap", &content, doc_id)
            .unwrap();
        assert_eq!(out.row_count(), 1);
        let Value::Node(node) = out.value(col("item"), 0).unwrap() else {
            panic!()
        };
        let store = reg.store(node.doc).unwrap();
        assert_eq!(store.subtree_to_xml(node.pre), "<wrap><b>1</b>done</wrap>");
    }

    /// A linear 4-operator chain over the sample document: each result is
    /// dead as soon as its single consumer has run.
    fn chain_plan() -> Plan {
        let mut b = builder();
        let loop0 = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let doc = b.add(AlgOp::Doc {
            uri: "doc.xml".into(),
        });
        let crossed = b.add(AlgOp::Cross {
            left: loop0,
            right: doc,
        });
        let step = b.add(AlgOp::Step {
            input: crossed,
            axis: Axis::Descendant,
            test: NodeTest::Element("b".into()),
        });
        b.finish(step)
    }

    #[test]
    fn executor_evicts_dead_intermediates() {
        let reg = registry();
        let plan = chain_plan();
        let Run { table, stats, .. } = run(&Executor::new(&reg), &plan).unwrap();
        assert_eq!(table.row_count(), 2);
        assert_eq!(stats.operators_evaluated, 4);
        // Every non-root result is freed at its last use…
        assert_eq!(stats.evicted_results, 3);
        // …so the peak resident rows stay below the retain-everything total.
        assert!(stats.peak_resident_rows < stats.rows_produced);
        assert!(stats.peak_resident_rows > 0);
    }

    /// lit → project(rename) → project(rename) over 8 rows.
    fn projection_chain_plan() -> Plan {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: (1..=8)
                .map(|i| vec![Value::Nat(i).into(), Value::Int(i as i64 * 10).into()])
                .collect(),
        });
        let p1 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![(col("iter"), col("a")), (col("item"), col("b"))],
        });
        let p2 = b.add(AlgOp::Project {
            input: p1,
            columns: vec![(col("a"), col("c")), (col("b"), col("d"))],
        });
        b.finish(p2)
    }

    /// The unfused reference: every reachable operator interpreted on its
    /// own in topological order, every intermediate materialized — the
    /// fusable ones through `pf-relational`'s value-at-a-time reference
    /// kernels (these plans hold no nodes).
    fn run_unfused(exec: &Executor<'_>, plan: &Plan) -> EngineResult<Table> {
        let mut slots: Vec<Option<Arc<Table>>> = vec![None; plan.ops().len()];
        let no_nodes = &mut |_: Cell<'_>, _: &mut String| unreachable!("no node operands");
        for id in plan.reachable() {
            let input = |input: &OpId| slots[*input].as_deref().expect("inputs ran first");
            let table = match plan.op(id) {
                AlgOp::Project { input: i, columns } => ops::project(input(i), columns)?,
                AlgOp::Select { input: i, column } => ops::select_true(input(i), *column)?,
                AlgOp::Distinct { input: i } => ops::distinct(input(i))?,
                AlgOp::Attach {
                    input: i,
                    target,
                    value,
                } => ops::map_const(input(i), *target, value.value().unwrap())?,
                AlgOp::BinaryMap {
                    input: i,
                    target,
                    left,
                    op,
                    right,
                } => ops::map_binary(input(i), *target, *left, *op, *right, no_nodes)?,
                _ => exec.eval(plan, id, &slots)?,
            };
            slots[id] = Some(Arc::new(table));
        }
        Ok((*slots[plan.root()].take().expect("the root ran")).clone())
    }

    #[test]
    fn logical_accounting_counts_both_live_tables() {
        // lit → pipeline(project, project): the logical accounting sees
        // both tables live when the pipeline publishes, although the
        // pipeline output shares the literal's buffers.
        let plan = projection_chain_plan();
        let reg = registry();
        let stats = run(&Executor::new(&reg), &plan).unwrap().stats;
        assert_eq!(stats.peak_resident_rows, 16);
        assert_eq!(stats.cells_produced, 32); // 2 tables × 2 columns × 8 rows
    }

    #[test]
    fn fusion_elides_the_interior_projection() {
        // The two projections fuse into one pipeline, the interior table
        // is never allocated, and the result is the unfused one.
        let plan = projection_chain_plan();
        let reg = registry();
        let exec = Executor::new(&reg);
        let Run { table, stats, .. } = run(&exec, &plan).unwrap();
        assert_eq!(*table, run_unfused(&exec, &plan).unwrap());
        assert_eq!(stats.fused_ops, 2);
        assert_eq!(stats.tables_elided, 1);
        assert_eq!(stats.operators_evaluated, 3);
        // Only two tables materialize: the literal and the pipeline output.
        assert_eq!(stats.cells_produced, 32);
        assert_eq!(stats.evicted_results, 1);
    }

    #[test]
    fn fused_and_unfused_runs_agree_on_selective_chains() {
        // lit → attach → map(>) → select → project → distinct: everything
        // above the literal fuses into one pipeline (δ is a fusable
        // selection-vector pass); values, schema and row order must match
        // the operator-at-a-time interpretation exactly.
        let reg = registry();
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: (1..=6)
                .map(|i| vec![Value::Nat(i).into(), Value::Int(i as i64).into()])
                .collect(),
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: col("limit"),
            value: Value::Int(3).into(),
        });
        let map = b.add(AlgOp::BinaryMap {
            input: attach,
            target: col("keep"),
            left: col("item"),
            op: ops::BinaryOp::Cmp(ops::CmpOp::Gt),
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
        let distinct = b.add(AlgOp::Distinct { input: project });
        let plan = b.finish(distinct);
        let exec = Executor::new(&reg);
        let Run {
            table: fused,
            stats: on,
            ..
        } = run(&exec, &plan).unwrap();
        assert_eq!(*fused, run_unfused(&exec, &plan).unwrap());
        assert_eq!(fused.row_count(), 3);
        assert_eq!(on.fused_ops, 5);
        assert_eq!(on.tables_elided, 4);
        assert_eq!(on.operators_evaluated, 6);
    }

    #[test]
    fn fused_pipelines_surface_operator_errors_not_panics() {
        // A select over a non-boolean column sits inside a fused chain;
        // the fused kernel must report the same error as the unfused path.
        let reg = registry();
        let build = || {
            let mut b = builder();
            let lit = b.add(AlgOp::Lit {
                columns: vec![col("iter"), col("item")],
                rows: vec![vec![Value::Nat(1).into(), Value::Int(5).into()]],
            });
            let attach = b.add(AlgOp::Attach {
                input: lit,
                target: col("flag"),
                value: Value::Int(7).into(),
            });
            let select = b.add(AlgOp::Select {
                input: attach,
                column: col("flag"),
            });
            let distinct = b.add(AlgOp::Distinct { input: select });
            b.finish(distinct)
        };
        let exec = Executor::new(&reg);
        let fused = run(&exec, &build()).unwrap_err();
        let unfused = run_unfused(&exec, &build()).unwrap_err();
        assert_eq!(fused.to_string(), unfused.to_string());
    }

    #[test]
    fn shared_subexpressions_stay_live_until_their_last_consumer() {
        // A diamond: the literal feeds two projections that join back
        // together.  The literal must survive until the second projection
        // has run, then be evicted.
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![
                vec![Value::Nat(1).into(), Value::Int(10).into()],
                vec![Value::Nat(2).into(), Value::Int(20).into()],
            ],
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
        let plan = b.finish(join);
        let reg = registry();
        let Run { table, stats, .. } = run(&Executor::new(&reg), &plan).unwrap();
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.value(col("item1"), 1).unwrap(), Value::Int(20));
        assert_eq!(stats.evicted_results, 3);
    }

    #[test]
    fn operator_panics_become_errors() {
        // A malformed literal (row wider than the schema) panics inside
        // eval.  The panic must surface as an error instead of unwinding
        // into the caller.
        let reg = registry();
        let mut b = builder();
        let bad = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into(), Value::Nat(2).into()]],
        });
        let good = b.add(AlgOp::Lit {
            columns: vec![col("item")],
            rows: vec![vec![Value::Int(7).into()]],
        });
        let crossed = b.add(AlgOp::Cross {
            left: bad,
            right: good,
        });
        let plan = b.finish(crossed);
        let err = run(&Executor::new(&reg), &plan).unwrap_err().to_string();
        assert!(err.contains("operator panicked"), "{err}");
    }

    /// A join + aggregation plan: 200 probe rows against a 40-row build
    /// side, counted per group.
    fn join_agg_plan() -> Plan {
        join_agg_plan_with(|left, right| AlgOp::EquiJoin {
            left,
            right,
            left_col: col("iter"),
            right_col: col("iter2"),
        })
    }

    /// [`join_agg_plan`] with the join `join` builds over the two
    /// literals.
    fn join_agg_plan_with(join: impl FnOnce(OpId, OpId) -> AlgOp) -> Plan {
        let mut b = builder();
        let left = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: (0..200u64)
                .map(|i| vec![Value::Nat(i % 40).into(), Value::Int(i as i64 % 13).into()])
                .collect(),
        });
        let right = b.add(AlgOp::Lit {
            columns: vec![col("iter2"), col("weight")],
            rows: (0..40u64)
                .map(|i| vec![Value::Nat(i).into(), Value::Int(i as i64).into()])
                .collect(),
        });
        let join = b.add(join(left, right));
        let counted = b.add(AlgOp::Aggregate {
            input: join,
            group: col("iter"),
            target: col("n"),
            func: ops::AggFunc::Count,
            value: col("item"),
        });
        b.finish(counted)
    }

    #[test]
    fn generic_kernels_reproduce_the_typed_results() {
        // The value-at-a-time reference kernels of `pf-relational`, run by
        // hand over the plan's two literals.
        let reg = registry();
        let plan = join_agg_plan();
        let exec = Executor::new(&reg);
        let lit = |id| exec.eval(&plan, id, &[]).unwrap();
        let joined = ops::equi_join_generic(&lit(0), &lit(1), col("iter"), col("iter2")).unwrap();
        let generic =
            ops::aggregate_by_generic(&joined, col("iter"), col("n"), AggFunc::Count, col("item"))
                .unwrap();
        assert_eq!(*run(&exec, &plan).unwrap().table, generic);
    }

    /// The kernel counters follow from the input sizes the records hold:
    /// the smaller side of an equi-join builds and the larger probes, a
    /// θ-join builds its right input and probes its left one, and an
    /// aggregation reads its whole input.
    #[test]
    fn kernel_counters_report_join_and_aggregate_sizes() {
        let reg = registry();
        let stats = run(&Executor::new(&reg), &join_agg_plan()).unwrap().stats;
        // Smaller side (40 rows) builds, larger (200 rows) probes; the
        // aggregation consumes the 200 join output rows.
        assert_eq!(stats.join_build_rows, 40);
        assert_eq!(stats.join_probe_rows, 200);
        assert_eq!(stats.agg_input_rows, 200);
        let theta = join_agg_plan_with(|right, left| AlgOp::ThetaJoin {
            left,
            right,
            left_col: col("weight"),
            op: BinaryOp::Cmp(ops::CmpOp::Gt),
            right_col: col("item"),
        });
        let Run { table, stats, .. } = run(&Executor::new(&reg), &theta).unwrap();
        assert_eq!(stats.join_build_rows, 200);
        assert_eq!(stats.join_probe_rows, 40);
        assert!(table.row_count() > 0);
    }

    /// Each physical node is recorded once, under its own kind, with the
    /// rows of its inputs and its output: an equi-join's build and probe,
    /// or a θ-join's probe, are not timed again apart from the node, and
    /// the profile's nodes and rows are the records' sums.
    #[test]
    fn a_traced_run_times_each_physical_node_once() {
        let reg = registry();
        let theta = join_agg_plan_with(|left, right| AlgOp::ThetaJoin {
            left,
            right,
            left_col: col("item"),
            op: BinaryOp::Cmp(ops::CmpOp::Lt),
            right_col: col("weight"),
        });
        for plan in [join_agg_plan(), theta] {
            let physical = PhysicalPlan::compile(&plan);
            let Run { nodes, ops, .. } = Executor::new(&reg).run(&plan, &physical).unwrap();
            assert_eq!(nodes.len(), physical.nodes().len());
            for (record, node) in nodes.iter().zip(physical.nodes()) {
                assert_eq!(record.output, node.output);
                assert_eq!(record.kind, node_kind(&plan, node));
            }
            let join = nodes
                .iter()
                .find(|n| n.kind != "lit" && n.kind != "aggregate");
            assert_eq!(join.map(|n| n.input_rows), Some([200, 40]));
            let kinds: HashSet<&str> = nodes.iter().map(|n| n.kind).collect();
            assert_eq!(ops.entries.len(), kinds.len());
            let timed: usize = ops.entries.iter().map(|e| e.nodes).sum();
            assert_eq!(timed, physical.nodes().len());
            let rows: usize = ops.entries.iter().map(|e| e.rows).sum();
            assert_eq!(rows, nodes.iter().map(|n| n.rows).sum::<usize>());
        }
    }

    /// ddo sorts by `(iter, item)`, drops repeated items of an iteration
    /// and numbers `pos` from 1 per iteration, whatever the input order.
    #[test]
    fn doc_order_sorts_dedups_and_numbers_positions() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let node = |pre| NodeRef::new(0, pre);
        let t = Table::new(vec![
            (col("iter"), Column::nats(vec![2, 1, 2, 1, 2, 1])),
            (col("pos"), Column::nats(vec![9, 9, 9, 9, 9, 9])),
            (
                col("item"),
                Column::nodes(vec![node(5), node(3), node(4), node(3), node(5), node(1)]),
            ),
        ])
        .unwrap();
        let out = exec.doc_order(&t).unwrap();
        assert_eq!(out.column_ids(), [col("iter"), col("pos"), col("item")]);
        assert_eq!(
            out.column(col("iter")).unwrap().as_nats().unwrap(),
            &[1, 1, 2, 2]
        );
        assert_eq!(
            out.column(col("pos")).unwrap().as_nats().unwrap(),
            &[1, 2, 1, 2]
        );
        assert_eq!(
            out.column(col("item")).unwrap().as_nodes().unwrap(),
            &[node(1), node(3), node(4), node(5)]
        );
        let empty = exec
            .doc_order(&Table::iter_pos_item(vec![], vec![], vec![]).unwrap())
            .unwrap();
        assert_eq!(empty.row_count(), 0);
        assert!(empty.column(col("item")).unwrap().as_items().is_some());
    }
}
