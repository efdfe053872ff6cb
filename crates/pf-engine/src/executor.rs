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
//! Physical nodes are evaluated in **ready-set order**: the executor
//! keeps, for every node, the number of inputs that are not yet
//! materialized; nodes whose count is zero form the *ready set* and may
//! run in any order — or concurrently.  With one thread the ready set is
//! drained in the classic topological order (children before parents,
//! identical to the pre-parallel executor, bit for bit); with more threads
//! every ready node streams onto the persistent worker pool as a node job.
//! A whole pipeline is one work unit.  Shared subexpressions are still
//! computed exactly once — this is the "single algebraic query" execution
//! model of the paper, now exploiting the plan's join-graph independence.
//!
//! **Constructors are ordinary jobs.**  The node-constructing operators
//! (ε, attribute and τ text construction) create transient documents and
//! thereby consume document ids, which must be reproducible across thread
//! counts.  Rather than serializing them on a coordinator thread, the
//! executor **reserves** every constructor's doc id up front — one
//! [`DocRegistry::reserve_constructed`] block in topological plan order at
//! schedule time — and each constructor fills its pre-assigned slot
//! whenever its pool job happens to run.  Ids (and with them document
//! order across transient fragments) are identical at every thread count,
//! and constructor-heavy plans parallelize like any other.  Every operator
//! is thus *pure* with respect to scheduling: it reads the registry (which
//! hands out [`Arc`] store snapshots from behind a lock) and its inputs,
//! so any worker may evaluate it as soon as its inputs are published, and
//! every thread count produces the same result table.
//!
//! **Joins and aggregates are morsel-parallel.**  An equi-join builds its
//! hash index once over the smaller input (typed borrowed keys — see
//! `pf_relational::ops::JoinPlan`), then partitions the probe side into
//! morsels on the pool; per-morsel pair buffers concatenate in range
//! order, so the output is bit-identical to the sequential probe.  An
//! aggregation pre-aggregates input chunks into partials and merges them
//! in chunk order — but only for the functions where that is bit-exact
//! (`AggPlan::chunk_parallel_safe`); `sum`/`avg` stay sequential, and
//! ascending `Nat`/`Int` group columns take a hash-free segmented scan.
//! [`ExecStats::join_build_rows`] / [`ExecStats::join_probe_rows`] /
//! [`ExecStats::agg_input_rows`] count what the kernels processed.
//!
//! Intermediate results are held behind [`Arc`]s and evicted at their last
//! use: both dispatch loops publish every node through one
//! `RunState::publish`, which decrements the per-result consumer counts of
//! [`PhysicalPlan::books`] (`result_consumers`, which count consuming
//! *node* edges plus a synthetic final consumer protecting the root) and
//! frees a result the moment its count reaches zero — peak resident rows
//! track the live frontier of the DAG, not the whole plan.  Physical cell accounting is incremental (per
//! [`Column::buffer_id`] refcounts, updated on publish/evict), so profiling
//! no longer rescans the live slots after every operator.  Operators are
//! borrowed from the plan, never cloned.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pf_algebra::{
    AlgOp, OpId, PhysKind, PhysNode, PhysNodeId, PhysicalBooks, PhysicalPlan, Plan, SortSpec,
};
use pf_relational::ops::{self, AggFunc, BinaryOp, SortKeys};
use pf_relational::{Cell, Column, NodeRef, Table, Value};
use pf_store::{Axis, DocStore, FragmentBuilder, NodeTest};

use crate::error::{EngineError, EngineResult};
use crate::pool::{QuerySession, WorkerPool};
use crate::registry::DocRegistry;

/// Marker prefix used to smuggle constructed attributes through the `item`
/// column as `marker name \u{1} value` (they are consumed by the enclosing
/// element constructor and never escape the engine).
///
/// No data can forge one: U+0001 is outside XML 1.0's `Char` production,
/// which `pf-xml` enforces on raw characters and character references
/// alike, and outside XQuery's string-literal grammar, which the
/// `pf-xquery` lexer enforces — so no document and no query can put the
/// marker into a string item.
const ATTR_MARKER: &str = "\u{1}attr\u{1}";

/// The `(name, value)` of a constructed attribute item, borrowed from its
/// marker string; `None` for any other string.
fn constructed_attribute(item: &str) -> Option<(&str, &str)> {
    let rest = item.strip_prefix(ATTR_MARKER)?;
    Some(rest.split_once('\u{1}').unwrap_or((rest, "")))
}

/// Memory-discipline statistics of one plan execution.
///
/// Two accountings are reported side by side:
///
/// * **Logical** (`rows_produced`, `peak_resident_rows`) counts every live
///   table at its full row count, ignoring buffer sharing — `rows_produced`
///   is what the pre-refactor executor (deep-copying columns and retaining
///   every operator result until the end of the query) held resident when
///   the query finished.
/// * **Physical** (`cells_produced`, `peak_resident_cells`) counts column
///   *cells* and counts each shared buffer exactly once (via
///   [`Column::buffer_id`]), so zero-copy outputs (projection, attach, …)
///   do not inflate the numbers.  `peak_resident_cells` is what this
///   executor actually held at its worst moment; `cells_produced` is the
///   retain-everything, share-nothing total it is compared against.
///
/// The totals (`operators_evaluated`, `rows_produced`, `cells_produced`,
/// `evicted_results`) are identical at every thread count; the two peaks
/// depend on which branches happened to be resident together, so parallel
/// runs may report higher peaks than `threads = 1` (which reproduces the
/// sequential numbers exactly).
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
    /// Maximum physically resident column cells at any step — each shared
    /// buffer counted once, however many live tables reference it.
    pub peak_resident_cells: usize,
    /// Intermediate results freed before the end of the query.
    pub evicted_results: usize,
    /// Logical operators that ran inside fused pipelines.
    pub fused_ops: usize,
    /// Intermediate tables fusion elided — one per interior pipeline edge
    /// that the unfused interpreter would have materialized.
    pub tables_elided: usize,
    /// Rows hashed into join build sides (the smaller input of each
    /// equi-join, plus the materialized inner side of each theta-join).
    /// Data-determined, identical at every thread count and morsel size.
    pub join_build_rows: usize,
    /// Rows probed against join indexes (the larger input of each
    /// equi-join, plus the outer side of each theta-join).
    pub join_probe_rows: usize,
    /// Rows consumed by grouped aggregation kernels.
    pub agg_input_rows: usize,
    /// Sidecar index probes evaluated (one per `IndexScan` operator that
    /// found its index; pass-through scans do not count).
    pub index_lookups: usize,
    /// Candidate entries the probes returned — postings for text probes,
    /// matching pre ranks for value probes.  Data-determined.
    pub index_candidate_rows: usize,
    /// Rows the index scans passed on to their residual predicates (the
    /// scan output; the untouched σ above re-verifies them exactly).
    pub index_residual_rows: usize,
}

/// The thread count the executor uses when none is requested explicitly:
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Default morsel size (input rows per partitioned-operator chunk) when
/// `EngineOptions::morsel_rows` does not say otherwise.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Per-operator-kind wall-clock accounting of one plan execution, collected
/// when [`Executor::with_op_profile`] asks for it.  Unlike [`ExecStats`],
/// timings are inherently schedule-dependent; the *shape* (kinds, node and
/// row counts) is not.
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
    /// Total wall time spent evaluating them (summed across threads).
    pub total: Duration,
}

/// Accumulator behind [`OpProfile`].
type OpTimes = HashMap<&'static str, (usize, usize, Duration)>;

fn record_op_time(times: &mut OpTimes, kind: &'static str, rows: usize, elapsed: Duration) {
    let entry = times.entry(kind).or_insert((0, 0, Duration::ZERO));
    entry.0 += 1;
    entry.1 += rows;
    entry.2 += elapsed;
}

/// The profile key of one physical node: `"pipeline"` for the fused
/// kernel (which runs every fusable operator), the operator otherwise.
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
        AlgOp::IndexScan { .. } => "index_scan",
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
        AlgOp::Sort { .. } => "sort",
    }
}

/// Pre-assigned transient document ids, one per constructor operator
/// ([`AlgOp::ElemConstruct`] / [`AlgOp::TextConstruct`]), reserved in
/// topological plan order before any node runs — what lets constructors
/// run as ordinary parallel pool jobs with deterministic ids.
type DocIds = HashMap<OpId, u32>;

/// Per-evaluation kernel counters and sub-phase timings, returned by
/// `eval_node` alongside the result table and folded into [`ExecStats`] /
/// [`OpProfile`] at publish.  The row counters are data-determined
/// (schedule-independent); the timings are only collected under
/// [`Executor::with_op_profile`].
#[derive(Debug, Default)]
struct KernelStats {
    join_build_rows: usize,
    join_probe_rows: usize,
    agg_input_rows: usize,
    index_lookups: usize,
    index_candidate_rows: usize,
    index_residual_rows: usize,
    /// Sub-phase timings (`("join_build", rows, elapsed)`, …); empty unless
    /// profiling is on.
    timings: Vec<(&'static str, usize, Duration)>,
}

/// The materialized inputs an operator evaluation may read.
///
/// The sequential path hands the whole slot arena over; the parallel path
/// gathers [`Arc`] clones of exactly the operator's inputs when the
/// operator is claimed (the arena itself stays behind the scheduler lock).
enum Inputs<'t> {
    /// Borrow of the sequential executor's slot arena.
    Slots(&'t [Option<Arc<Table>>]),
    /// The claimed operator's inputs, gathered under the scheduler lock.
    Gathered(&'t [(OpId, Arc<Table>)]),
}

impl Inputs<'_> {
    /// Fetch a previously computed operator result.
    fn get(&self, id: OpId) -> EngineResult<&Table> {
        match self {
            Inputs::Slots(slots) => slots.get(id).and_then(|slot| slot.as_deref()),
            Inputs::Gathered(list) => list.iter().find(|(i, _)| *i == id).map(|(_, t)| &**t),
        }
        .ok_or_else(|| EngineError::msg("operator evaluated before its input"))
    }
}

/// Incremental physical-cell accounting: reference counts per column
/// buffer.  `publish`/`evict` are O(columns of the table), replacing the
/// former O(live slots × columns) rescan after every operator.
#[derive(Debug, Default)]
struct CellLedger {
    /// `buffer_id → (live tables referencing it, cell count)`.
    buffers: HashMap<usize, (usize, usize)>,
    /// Physically resident cells right now (each buffer counted once).
    resident: usize,
}

impl CellLedger {
    fn publish(&mut self, table: &Table) {
        for (_, col) in table.columns() {
            let entry = self
                .buffers
                .entry(col.buffer_id())
                .or_insert((0, col.len()));
            entry.0 += 1;
            if entry.0 == 1 {
                self.resident += entry.1;
            }
        }
    }

    fn evict(&mut self, table: &Table) {
        for (_, col) in table.columns() {
            let id = col.buffer_id();
            let entry = self
                .buffers
                .get_mut(&id)
                .expect("evicted buffer was never published");
            entry.0 -= 1;
            if entry.0 == 0 {
                self.resident -= entry.1;
                // Remove so a later allocation reusing the address starts
                // fresh (buffer ids are derived from heap addresses).
                self.buffers.remove(&id);
            }
        }
    }
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

    /// Append the string value of `node` to `out` — the atomization hook
    /// of the fused kernel (an unknown document contributes nothing).
    fn push_string_value(&mut self, node: NodeRef, out: &mut String) {
        if let Some(store) = self.store(node.doc) {
            store.push_string_value(node.pre, out);
        }
    }
}

/// The content rows of a constructor operator, grouped by iteration in
/// **one pass** and sorted by `pos` within each group.
///
/// The rows are grouped by a [`ops::NatIndex`] over `iter` (direct
/// address for the dense `iter`s loop-lifting produces) and each group is
/// sorted stably by `pos` unless it already is in order;
/// [`ContentIndex::content_of`] reads a group's items in place.
struct ContentIndex<'t> {
    groups: ops::NatIndex,
    items: &'t Column,
}

/// One content item, read in place: a node, a borrowed string, or any
/// other atomic (which owns no heap data).
#[derive(Debug, PartialEq)]
enum ContentItem<'t> {
    Node(NodeRef),
    Str(&'t str),
    Atomic(Value),
}

impl<'t> ContentItem<'t> {
    fn at(column: &'t Column, row: usize) -> ContentItem<'t> {
        match column {
            Column::Node(nodes) => ContentItem::Node(nodes[row]),
            Column::Str(strs) => ContentItem::Str(&strs[row]),
            Column::Item(items) => match &items[row] {
                Value::Node(node) => ContentItem::Node(*node),
                Value::Str(s) => ContentItem::Str(s),
                atomic => ContentItem::Atomic(atomic.clone()),
            },
            typed => ContentItem::Atomic(typed.get(row)),
        }
    }
}

impl<'t> ContentIndex<'t> {
    fn build(content: &'t Table) -> EngineResult<ContentIndex<'t>> {
        let iters = nat_keys(content.column("iter")?)?;
        let poss = nat_keys(content.column("pos")?)?;
        let items = content.column("item")?;
        let mut groups = ops::NatIndex::new(&iters);
        // Stable by pos: equal positions keep table order.
        groups.sort_groups_by_key(|row| poss[row as usize]);
        Ok(ContentIndex { groups, items })
    }

    /// The content items of `iter`, in `pos` order.
    fn content_of(&self, iter: u64) -> impl Iterator<Item = ContentItem<'t>> + '_ {
        let items = self.items;
        self.groups
            .rows_of(iter)
            .iter()
            .map(move |&row| ContentItem::at(items, row as usize))
    }

    /// Append the atomized content of `iter` to `out`, items separated by
    /// single spaces: a node contributes its string value, read in place.
    fn push_atomized(&self, iter: u64, cache: &mut StoreCache<'_>, out: &mut String) {
        for (i, item) in self.content_of(iter).enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match item {
                ContentItem::Node(node) => cache.push_string_value(node, out),
                ContentItem::Str(s) => out.push_str(s),
                ContentItem::Atomic(atomic) => out.push_str(&atomic.to_xdm_string()),
            }
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
        Column::Node(_) => true,
        Column::Item(v) => match &v[row] {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Nat(n) => *n != 0,
            Value::Dbl(d) => *d != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Node(_) => true,
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

/// The published results of one run and everything accounted about them.
///
/// Both dispatch loops hand every evaluated node to [`RunState::publish`],
/// so the work totals, peaks, evictions and timings come from one piece
/// of code and are schedule-independent by construction (only the peaks
/// depend on which branches happened to be resident together).
struct RunState {
    slots: Vec<Option<Arc<Table>>>,
    /// Remaining consumer edges per published result, by [`OpId`] (evict
    /// when 0).
    remaining: Vec<usize>,
    stats: ExecStats,
    resident_rows: usize,
    ledger: CellLedger,
    op_times: Option<OpTimes>,
}

impl RunState {
    fn new(plan: &Plan, remaining: Vec<usize>, profile_ops: bool) -> Self {
        RunState {
            slots: vec![None; plan.ops().len()],
            remaining,
            stats: ExecStats::default(),
            resident_rows: 0,
            ledger: CellLedger::default(),
            op_times: profile_ops.then(HashMap::new),
        }
    }

    /// Record `node`'s result: time and account it, publish it, and evict
    /// the inputs that lost their last consumer.  A breaker contributes
    /// one evaluated operator, a pipeline all the operators it covers plus
    /// the intermediate tables it never allocated.
    fn publish(
        &mut self,
        plan: &Plan,
        node: &PhysNode,
        table: Table,
        kernel: &KernelStats,
        elapsed: Option<Duration>,
    ) {
        if let (Some(times), Some(elapsed)) = (&mut self.op_times, elapsed) {
            record_op_time(times, node_kind(plan, node), table.row_count(), elapsed);
            for &(kind, rows, spent) in &kernel.timings {
                record_op_time(times, kind, rows, spent);
            }
        }
        let stats = &mut self.stats;
        stats.operators_evaluated += node.op_count();
        if node.op_count() > 1 {
            stats.fused_ops += node.op_count();
            stats.tables_elided += node.op_count() - 1;
        }
        stats.rows_produced += table.row_count();
        stats.cells_produced += table.columns().iter().map(|(_, c)| c.len()).sum::<usize>();
        stats.join_build_rows += kernel.join_build_rows;
        stats.join_probe_rows += kernel.join_probe_rows;
        stats.agg_input_rows += kernel.agg_input_rows;
        stats.index_lookups += kernel.index_lookups;
        stats.index_candidate_rows += kernel.index_candidate_rows;
        stats.index_residual_rows += kernel.index_residual_rows;

        self.resident_rows += table.row_count();
        let table = Arc::new(table);
        self.ledger.publish(&table);
        self.slots[node.output] = Some(table);
        // The node's inputs and its output coexist while it runs, so the
        // peaks are sampled before the inputs are released.
        stats.peak_resident_rows = stats.peak_resident_rows.max(self.resident_rows);
        stats.peak_resident_cells = stats.peak_resident_cells.max(self.ledger.resident);
        for &input in &node.inputs {
            self.remaining[input] -= 1;
            if self.remaining[input] == 0 {
                if let Some(freed) = self.slots[input].take() {
                    self.resident_rows -= freed.row_count();
                    self.ledger.evict(&freed);
                    stats.evicted_results += 1;
                }
            }
        }
    }

    /// The root table, the statistics and the timing profile of the run.
    fn finish(mut self, plan: &Plan) -> EngineResult<(Arc<Table>, ExecStats, OpProfile)> {
        let root = self.slots[plan.root()]
            .take()
            .ok_or_else(|| EngineError::msg("plan produced no result"))?;
        let mut entries: Vec<OpTiming> = self
            .op_times
            .unwrap_or_default()
            .into_iter()
            .map(|(kind, (nodes, rows, total))| OpTiming {
                kind,
                nodes,
                rows,
                total,
            })
            .collect();
        entries.sort_by_key(|e| e.kind);
        Ok((root, self.stats, OpProfile { entries }))
    }
}

/// Mutable scheduler state shared by the coordinator and the workers.
struct ParState {
    run: RunState,
    /// Unmet input edges per physical node (ready when 0).
    waiting: Vec<usize>,
    /// Nodes published so far.
    completed: usize,
    error: Option<EngineError>,
}

/// Immutable context of one parallel run.
///
/// Ready nodes are streamed to the worker pool as **node jobs**
/// ([`ParCtx::spawn_node`]) — constructors included, since their document
/// ids were reserved up front (`doc_ids`).  There is no per-query thread:
/// the persistent pool's workers pull node jobs (and the morsel jobs
/// partitioned operators submit) from one queue pair, and any thread that
/// has to wait — the coordinator for the root, a morsel submitter for its
/// chunks — helps execute queued jobs instead of blocking.
struct ParCtx<'e, 'p> {
    exec: &'e Executor<'e>,
    plan: &'p Plan,
    physical: &'p PhysicalPlan,
    pool: Arc<WorkerPool>,
    /// Pre-reserved transient document ids per constructor operator.
    doc_ids: DocIds,
    /// Consumer edges (inverse adjacency) per node.
    consumers: Vec<Vec<PhysNodeId>>,
    state: Mutex<ParState>,
}

impl ParCtx<'_, '_> {
    /// `true` once every physical node has published or a branch failed.
    fn finished(&self, state: &ParState) -> bool {
        state.error.is_some() || state.completed == self.physical.nodes().len()
    }

    /// Submit node `id` to the pool (called when its inputs are complete).
    #[allow(unsafe_code)] // unsafe `submit` call; see the SAFETY comment below
    fn spawn_node<'s>(&'s self, session: &'s QuerySession, id: PhysNodeId) {
        // SAFETY: the session is drained before `self` (and the session
        // itself) go out of scope in `execute_parallel`, so the borrows
        // this job captures outlive every possible execution of it.
        unsafe {
            session.submit(Box::new(move || self.run_node(session, id)));
        }
    }

    /// Evaluate one ready node and publish its result — the body of every
    /// node job.
    fn run_node(&self, session: &QuerySession, node_id: PhysNodeId) {
        let node = &self.physical.nodes()[node_id];
        let gathered: Vec<(OpId, Arc<Table>)> = {
            let state = self.state.lock().expect("scheduler lock poisoned");
            if state.error.is_some() {
                // A sibling already failed; don't start new work (the
                // queued jobs drain as no-ops).
                return;
            }
            node.inputs
                .iter()
                .map(|&input| {
                    let table = state.run.slots[input]
                        .clone()
                        .expect("ready node with unpublished input");
                    (input, table)
                })
                .collect()
        };
        let started = self.exec.profile_ops.then(Instant::now);
        // A panicking operator must not strand its peers: without the
        // catch, the panicking thread would die before publishing and
        // every other thread would wait forever (the sequential path
        // propagates panics; here they surface as an engine error).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.exec
                .eval_node(self.plan, node, &Inputs::Gathered(&gathered), &self.doc_ids)
        }))
        .unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(EngineError::msg(format!("operator panicked: {message}")))
        });
        let elapsed = started.map(|s| s.elapsed());
        drop(gathered);
        let newly_ready = {
            let mut guard = self.state.lock().expect("scheduler lock poisoned");
            let state = &mut *guard;
            match outcome {
                Ok((table, kernel)) => {
                    state.run.publish(self.plan, node, table, &kernel, elapsed);
                    state.completed += 1;
                    let mut newly_ready = Vec::new();
                    for &parent in &self.consumers[node_id] {
                        state.waiting[parent] -= 1;
                        if state.waiting[parent] == 0 {
                            newly_ready.push(parent);
                        }
                    }
                    // Node ids are topological positions; submitting the
                    // smallest first approximates the sequential order.
                    // (No duplicates: `waiting` counts edges, so even a
                    // parent consuming this result twice hits zero once.)
                    newly_ready.sort_unstable();
                    newly_ready
                }
                Err(e) => {
                    // First failure wins; everyone drains on the flag.
                    state.error.get_or_insert(e);
                    Vec::new()
                }
            }
        };
        for id in newly_ready {
            self.spawn_node(session, id);
        }
        // Publishing may have completed the plan or recorded an error —
        // wake whoever waits on that.
        self.pool.bump();
    }
}

/// Plan interpreter bound to a document registry.
///
/// The registry is only ever read-shared during execution (node
/// constructors append transient documents through its interior lock), so
/// the executor borrows it immutably and may be shared across the worker
/// threads of a parallel run.
#[derive(Debug)]
pub struct Executor<'a> {
    registry: &'a DocRegistry,
    threads: usize,
    /// Input rows per morsel for partitioned operators (`usize::MAX`
    /// disables intra-operator partitioning).
    morsel_rows: usize,
    /// Collect per-operator-kind timings ([`OpProfile`]).
    profile_ops: bool,
    /// The fair-scheduling lane this executor's pool jobs queue on (the
    /// engine stamps each query execution with a fresh tag; standalone
    /// executors run on tag 0).
    query_tag: u64,
    /// The engine's persistent pool, when one was handed in
    /// ([`Executor::with_pool`] — `Pathfinder` creates one pool and
    /// reuses it for every query).
    shared_pool: Option<Arc<WorkerPool>>,
    /// Fallback pool for standalone executors (spawned lazily, at most
    /// once per executor).
    own_pool: OnceLock<Arc<WorkerPool>>,
}

impl<'a> Executor<'a> {
    /// Create an executor over `registry` (constructed nodes are registered
    /// there) using the default thread count ([`default_threads`]).
    pub fn new(registry: &'a DocRegistry) -> Self {
        Executor::with_threads(registry, 0)
    }

    /// Create an executor with an explicit worker thread count.
    ///
    /// `1` selects the sequential path; `0` resolves to
    /// [`default_threads`].  The morsel size starts at
    /// [`DEFAULT_MORSEL_ROWS`]; override it with
    /// [`Executor::with_morsel_rows`].
    pub fn with_threads(registry: &'a DocRegistry, threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        Executor {
            registry,
            threads,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            profile_ops: false,
            query_tag: 0,
            shared_pool: None,
            own_pool: OnceLock::new(),
        }
    }

    /// Set the morsel size (input rows per chunk) for partitioned
    /// operators; `0` resolves to [`DEFAULT_MORSEL_ROWS`], `usize::MAX`
    /// disables intra-operator partitioning.  Results and work totals are
    /// identical at every setting.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = if rows == 0 { DEFAULT_MORSEL_ROWS } else { rows };
        self
    }

    /// Evaluate plans on `pool` instead of lazily spawning one.  This is
    /// how the persistent, per-engine pool reaches the executor: the
    /// engine constructs one executor per query but hands every one the
    /// same pool, so no query ever spawns a thread.
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// Collect a per-operator-kind timing profile ([`OpProfile`], returned
    /// by [`Executor::run_physical_profiled`]).
    pub fn with_op_profile(mut self, profile: bool) -> Self {
        self.profile_ops = profile;
        self
    }

    /// Tag every pool job this executor submits with `tag` (see
    /// [`crate::pool::QueryTag`]): jobs of distinct tags are scheduled
    /// round-robin, which is how concurrent queries sharing one engine
    /// pool get fair treatment.
    pub fn with_query_tag(mut self, tag: u64) -> Self {
        self.query_tag = tag;
        self
    }

    /// The number of threads this executor evaluates plans with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker pool this executor runs on (the shared one when
    /// provided, else an own pool spawned on first use).  Only meaningful
    /// when `threads > 1`.
    fn pool(&self) -> &Arc<WorkerPool> {
        if let Some(pool) = &self.shared_pool {
            return pool;
        }
        self.own_pool
            .get_or_init(|| Arc::new(WorkerPool::new(self.threads.saturating_sub(1))))
    }

    /// The chunk size for a morselizable operator over `rows` input rows,
    /// or `None` to run it sequentially.  Depends only on the executor
    /// configuration and the row count — never on scheduling — so the
    /// partitioning (and with it every merge) is deterministic.
    fn morsel_chunk_rows(&self, rows: usize) -> Option<usize> {
        if self.threads <= 1 || self.morsel_rows == usize::MAX || rows <= self.morsel_rows {
            return None;
        }
        Some(self.morsel_rows)
    }

    /// Evaluate `plan` and return the root operator's table.
    pub fn run(&self, plan: &Plan) -> EngineResult<Table> {
        Ok(self.run_with_stats(plan)?.0)
    }

    /// Evaluate `plan`, returning the root table and the memory-discipline
    /// statistics of the run.
    pub fn run_with_stats(&self, plan: &Plan) -> EngineResult<(Table, ExecStats)> {
        let (table, stats) = self.execute(plan)?;
        Ok((
            Arc::try_unwrap(table).unwrap_or_else(|shared| (*shared).clone()),
            stats,
        ))
    }

    /// Evaluate a pre-compiled physical plan (see [`PhysicalPlan::compile`];
    /// the engine caches one per cached logical plan), returning the root
    /// table behind its [`Arc`], the statistics of the run and the
    /// per-operator timing profile (only populated under
    /// [`Executor::with_op_profile`]).  `physical` must have been compiled
    /// from this very `plan`.
    pub fn run_physical_profiled(
        &self,
        plan: &Plan,
        physical: &PhysicalPlan,
    ) -> EngineResult<(Arc<Table>, ExecStats, OpProfile)> {
        if !physical.matches(plan) {
            return Err(EngineError::msg(
                "physical plan was compiled from a different logical plan",
            ));
        }
        self.execute_physical(plan, physical)
    }

    fn execute(&self, plan: &Plan) -> EngineResult<(Arc<Table>, ExecStats)> {
        let physical = PhysicalPlan::compile(plan);
        let (table, stats, _) = self.execute_physical(plan, &physical)?;
        Ok((table, stats))
    }

    fn execute_physical(
        &self,
        plan: &Plan,
        physical: &PhysicalPlan,
    ) -> EngineResult<(Arc<Table>, ExecStats, OpProfile)> {
        // One pass over the physical nodes derives every scheduler book.
        let books = physical.books();
        // Reserve every constructor's transient doc id up front, in
        // topological plan order — ids are then identical under any
        // schedule, and constructors run as ordinary (parallel) jobs.
        let doc_ids = self.reserve_doc_ids(plan, physical);
        if self.threads <= 1 {
            return self.execute_sequential(plan, physical, books, doc_ids);
        }
        // A chain-shaped plan (width 1) has no *branch* parallelism to fan
        // out, so the scheduler itself stays sequential — but its big
        // operators still run their morsels on the pool.  (Level width
        // slightly under-estimates the maximum antichain of exotic DAG
        // shapes, but it is the right order of magnitude and comes free
        // with the books.)
        if books.width() <= 1 {
            self.execute_sequential(plan, physical, books, doc_ids)
        } else {
            self.execute_parallel(plan, physical, books, doc_ids)
        }
    }

    /// Pre-assign transient document ids to the plan's element and text
    /// constructors (attribute constructors never register documents), in
    /// the order the sequential executor would have registered them.
    fn reserve_doc_ids(&self, plan: &Plan, physical: &PhysicalPlan) -> DocIds {
        let ctors: Vec<OpId> = physical
            .nodes()
            .iter()
            .filter(|node| matches!(node.kind, PhysKind::Breaker))
            .map(|node| node.output)
            .filter(|&id| {
                matches!(
                    plan.op(id),
                    AlgOp::ElemConstruct { .. } | AlgOp::TextConstruct { .. }
                )
            })
            .collect();
        if ctors.is_empty() {
            return DocIds::new();
        }
        let first = self.registry.reserve_constructed(ctors.len());
        ctors
            .into_iter()
            .enumerate()
            .map(|(i, op)| (op, first + i as u32))
            .collect()
    }

    /// The sequential dispatch path: physical nodes in topological order
    /// with last-use eviction.  With more than one thread, individual
    /// operators still partition onto the pool (morsels); only the
    /// dispatch order is sequential.
    fn execute_sequential(
        &self,
        plan: &Plan,
        physical: &PhysicalPlan,
        books: PhysicalBooks,
        doc_ids: DocIds,
    ) -> EngineResult<(Arc<Table>, ExecStats, OpProfile)> {
        let mut run = RunState::new(plan, books.result_consumers, self.profile_ops);
        for node in physical.nodes() {
            let started = self.profile_ops.then(Instant::now);
            let (table, kernel) =
                self.eval_node(plan, node, &Inputs::Slots(&run.slots), &doc_ids)?;
            run.publish(plan, node, table, &kernel, started.map(|s| s.elapsed()));
        }
        run.finish(plan)
    }

    /// The ready-set scheduler on the persistent pool: every node
    /// (breakers, whole fused pipelines, and constructors — their doc ids
    /// are pre-reserved) streams to the pool as a node job the moment its
    /// inputs are published; this (coordinator) thread helps execute
    /// queued jobs until the plan completes.  No thread is spawned — the
    /// pool outlives the query.
    fn execute_parallel(
        &self,
        plan: &Plan,
        physical: &PhysicalPlan,
        books: PhysicalBooks,
        doc_ids: DocIds,
    ) -> EngineResult<(Arc<Table>, ExecStats, OpProfile)> {
        let PhysicalBooks {
            input_edges: waiting,
            consumers,
            result_consumers: remaining,
            ..
        } = books;
        let seed: Vec<PhysNodeId> = (0..physical.nodes().len())
            .filter(|&id| waiting[id] == 0)
            .collect();
        let pool = Arc::clone(self.pool());
        let ctx = ParCtx {
            exec: self,
            plan,
            physical,
            pool: Arc::clone(&pool),
            doc_ids,
            consumers,
            state: Mutex::new(ParState {
                run: RunState::new(plan, remaining, self.profile_ops),
                waiting,
                completed: 0,
                error: None,
            }),
        };
        // The session is dropped (and thereby drained) before `ctx` goes
        // out of scope — the safety contract of the erased node jobs.
        let session = QuerySession::new(Arc::clone(&pool), self.query_tag);
        for id in &seed {
            ctx.spawn_node(&session, *id);
        }
        // Help the pool with queued node and morsel jobs (or sleep until a
        // publish changes the picture) until the plan completes or fails.
        pool.help_until(false, || {
            let state = ctx.state.lock().expect("scheduler lock poisoned");
            ctx.finished(&state)
        });
        session.drain();
        if let Some(payload) = session.take_panic() {
            // A scheduler-level bug (operator panics are converted to
            // errors inside the job); surface it like the sequential path
            // would.
            std::panic::resume_unwind(payload);
        }
        drop(session);
        let state = ctx.state.into_inner().expect("scheduler lock poisoned");
        match state.error {
            Some(error) => Err(error),
            None => state.run.finish(plan),
        }
    }

    /// Evaluate one physical node: breakers go through the single-operator
    /// interpreter, pipelines through the fused kernel (with node
    /// atomization wired in via a [`StoreCache`]).  Pipelines over large
    /// inputs run as morsels when the executor is parallel and
    /// [`ops::steps_chunkable`] says chunking is exact and pays; joins and
    /// aggregates go through the typed
    /// morsel kernels (see [`Executor::equi_join_node`] and friends), which
    /// also report the kernel counters folded into [`ExecStats`].
    fn eval_node(
        &self,
        plan: &Plan,
        node: &PhysNode,
        inputs: &Inputs<'_>,
        doc_ids: &DocIds,
    ) -> EngineResult<(Table, KernelStats)> {
        match &node.kind {
            PhysKind::Breaker => self.eval(plan, node.output, inputs, doc_ids),
            PhysKind::Pipeline { .. } => {
                let input = inputs.get(node.inputs[0])?;
                let steps = node.steps(plan);
                let table = match self.morsel_chunk_rows(input.row_count()) {
                    Some(chunk) if ops::steps_chunkable(&steps) => {
                        self.run_pipeline_morsels(input, &steps, chunk)?
                    }
                    _ => {
                        let mut cache = StoreCache::new(self.registry);
                        ops::run_pipeline(input, &steps, &mut |node, out| {
                            cache.push_string_value(node, out)
                        })?
                    }
                };
                Ok((table, KernelStats::default()))
            }
        }
    }

    /// Evaluate `work` on every `chunk`-row range of `0..rows` as morsels
    /// on the pool; the results come back in range order.
    fn map_morsels<T: Send>(
        &self,
        rows: usize,
        chunk: usize,
        work: impl Fn(Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let ranges = (0..rows)
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(rows));
        let mut results: Vec<Option<T>> = ranges.clone().map(|_| None).collect();
        let work = &work;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .zip(ranges)
            .map(|(slot, range)| {
                Box::new(move || *slot = Some(work(range))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.pool().run_scoped_tagged(self.query_tag, tasks);
        results
            .into_iter()
            .map(|result| result.expect("every morsel ran"))
            .collect()
    }

    /// Morsel-parallel equi-join: build the hash index once over the
    /// smaller side (typed keys straight off the column buffers — no
    /// per-row [`Value`]), then probe in chunk ranges on the pool.  The
    /// per-range pair vectors concatenate in range order, so the output is
    /// bit-identical to the sequential probe.
    fn equi_join_node(
        &self,
        left: &Table,
        right: &Table,
        left_col: &str,
        right_col: &str,
    ) -> EngineResult<(Table, KernelStats)> {
        let mut kernel = KernelStats::default();
        let build_started = self.profile_ops.then(Instant::now);
        let join = ops::JoinPlan::new(left, right, left_col, right_col)?;
        kernel.join_build_rows = join.build_rows();
        kernel.join_probe_rows = join.probe_rows();
        if let Some(started) = build_started {
            kernel
                .timings
                .push(("join_build", join.build_rows(), started.elapsed()));
        }
        let probe_started = self.profile_ops.then(Instant::now);
        let rows = join.probe_rows();
        let pairs = match self.morsel_chunk_rows(rows) {
            None => join.probe_range(0..rows),
            Some(chunk) => self
                .map_morsels(rows, chunk, |range| join.probe_range(range))
                .into_iter()
                .flatten()
                .collect(),
        };
        if let Some(started) = probe_started {
            kernel.timings.push(("join_probe", rows, started.elapsed()));
        }
        Ok((join.materialize(pairs)?, kernel))
    }

    /// Theta-join with the inner-side values hoisted out of the scan loop,
    /// morselized over left-row ranges.  Ranges are disjoint and ordered,
    /// so the first error in range order IS the sequential first error —
    /// no re-run is needed for deterministic messages.
    fn theta_join_node(
        &self,
        left: &Table,
        right: &Table,
        left_col: &str,
        op: BinaryOp,
        right_col: &str,
    ) -> EngineResult<(Table, KernelStats)> {
        let mut kernel = KernelStats {
            join_build_rows: right.row_count(),
            join_probe_rows: left.row_count(),
            ..KernelStats::default()
        };
        let join = ops::ThetaPlan::new(left, right, left_col, op, right_col)?;
        let rows = join.left_rows();
        let started = self.profile_ops.then(Instant::now);
        let pairs = match self.morsel_chunk_rows(rows) {
            None => join.probe_range(0..rows)?,
            Some(chunk) => {
                let mut pairs = Vec::new();
                for morsel in self.map_morsels(rows, chunk, |range| join.probe_range(range)) {
                    pairs.extend(morsel?);
                }
                pairs
            }
        };
        if let Some(started) = started {
            kernel.timings.push(("join_probe", rows, started.elapsed()));
        }
        Ok((join.materialize(pairs)?, kernel))
    }

    /// Grouped rank count over an inequality join ([`AlgOp::ThetaCount`]):
    /// both sides are reduced once, then group ranges — left-row ranges
    /// when the group column keys the left input — are counted as
    /// morsels.  Every failing range reports the nested loop's first
    /// error, so the message does not depend on the morsel size.
    fn theta_count_node(
        &self,
        left: &Table,
        right: &Table,
        count: &ops::RankCount,
    ) -> EngineResult<(Table, KernelStats)> {
        let mut kernel = KernelStats {
            join_build_rows: right.row_count(),
            join_probe_rows: left.row_count(),
            ..KernelStats::default()
        };
        let started = self.profile_ops.then(Instant::now);
        let plan = ops::ThetaCountPlan::new(left, right, count)?;
        let groups = plan.groups();
        let counts = match self.morsel_chunk_rows(groups) {
            None => plan.count_range(0..groups)?,
            Some(chunk) => {
                let mut counts = Vec::with_capacity(groups);
                for morsel in self.map_morsels(groups, chunk, |range| plan.count_range(range)) {
                    counts.extend(morsel?);
                }
                counts
            }
        };
        if let Some(started) = started {
            kernel
                .timings
                .push(("join_probe", left.row_count(), started.elapsed()));
        }
        Ok((plan.finish(counts)?, kernel))
    }

    /// Grouped aggregation through the typed kernels: the segmented
    /// (hash-free) scan when the group column is ascending, per-chunk
    /// pre-aggregation merged in chunk order when the function tolerates
    /// it (see [`AggPlan::chunk_parallel_safe`]), the sequential typed
    /// loop otherwise.
    ///
    /// When a chunk errors, the plan re-runs sequentially and THAT error
    /// is surfaced, keeping messages independent of the morsel size.
    ///
    /// [`AggPlan::chunk_parallel_safe`]: ops::AggPlan::chunk_parallel_safe
    fn aggregate_node(
        &self,
        input: &Table,
        group: &str,
        target: &str,
        func: AggFunc,
        value: &str,
    ) -> EngineResult<(Table, KernelStats)> {
        let mut kernel = KernelStats {
            agg_input_rows: input.row_count(),
            ..KernelStats::default()
        };
        let agg = ops::AggPlan::new(input, group, target, func, value)?;
        let rows = agg.input_rows();
        let started = self.profile_ops.then(Instant::now);
        let chunk = match self.morsel_chunk_rows(rows) {
            Some(chunk) if agg.chunk_parallel_safe() && !agg.segmented() => chunk,
            _ => {
                let table = agg.run()?;
                if let Some(started) = started {
                    kernel
                        .timings
                        .push(("agg_partial", rows, started.elapsed()));
                }
                return Ok((table, kernel));
            }
        };
        let results = self.map_morsels(rows, chunk, |range| agg.partial(range));
        let mut partials = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(partial) => partials.push(partial),
                Err(chunk_error) => {
                    // Canonical error: the sequential pass (cheap — errors
                    // are exceptional), falling back to the chunk error.
                    return match agg.run() {
                        Err(whole_error) => Err(whole_error.into()),
                        Ok(_) => Err(chunk_error.into()),
                    };
                }
            }
        }
        let table = agg.finish(agg.merge(partials)?)?;
        if let Some(started) = started {
            kernel
                .timings
                .push(("agg_partial", rows, started.elapsed()));
        }
        Ok((table, kernel))
    }

    /// Chunked pipeline evaluation: every `chunk`-row input range runs the
    /// whole fused chain on a pool task; the per-range outputs concatenate
    /// (in range order) to exactly the whole-input result.  When any chunk
    /// errors, the pipeline is re-run unchunked and *that* error is
    /// surfaced: a chunk can fail at a later step than the whole-input
    /// pass would (it only sees its own rows at each step), so the
    /// re-run — cheap, an error path — is what keeps error messages
    /// independent of the morsel size and thread count.
    fn run_pipeline_morsels(
        &self,
        input: &Table,
        steps: &[ops::FusedStep<'_>],
        chunk: usize,
    ) -> EngineResult<Table> {
        let registry = self.registry;
        let results = self.map_morsels(input.row_count(), chunk, |range| {
            let mut cache = StoreCache::new(registry);
            ops::run_pipeline_range(input, steps, range, &mut |node, out| {
                cache.push_string_value(node, out)
            })
        });
        let mut chunks = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(table) => chunks.push(table),
                Err(chunk_error) => {
                    // Canonical error: the whole-input pass.  It cannot
                    // succeed where a chunk failed — steps are row-local,
                    // so the failing row reaches the same step with the
                    // same value — but keep the chunk error as a fallback.
                    let mut cache = StoreCache::new(self.registry);
                    let mut atomize = |node, out: &mut String| cache.push_string_value(node, out);
                    return match ops::run_pipeline(input, steps, &mut atomize) {
                        Err(whole_error) => Err(whole_error.into()),
                        Ok(_) => Err(chunk_error.into()),
                    };
                }
            }
        }
        Ok(Table::concat_rows(chunks)?)
    }

    /// The stable sort permutation of `table` under `specs`, chunk-sorted
    /// on the pool and merged when the input is large enough to morselize
    /// (bit-identical to the sequential sort either way).
    fn sort_permutation(&self, table: &Table, specs: &[(&str, bool)]) -> EngineResult<Vec<usize>> {
        let keys = SortKeys::for_columns(table, specs)?;
        let rows = table.row_count();
        match self.morsel_chunk_rows(rows) {
            None => Ok(keys.stable_permutation(rows)),
            Some(chunk) => {
                let mut perm: Vec<usize> = (0..rows).collect();
                let keys_ref = &keys;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = perm
                    .chunks_mut(chunk)
                    .map(|run| {
                        Box::new(move || keys_ref.sort_run(run)) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                self.pool().run_scoped_tagged(self.query_tag, tasks);
                Ok(keys.merge_sorted_runs(perm, chunk))
            }
        }
    }

    /// Sort `table` by the given ascending columns (the `Sort` operator
    /// and `fs:distinct-doc-order`'s pre-sort), morsel-parallel when
    /// worthwhile.
    fn sort_table(&self, table: &Table, columns: &[&str]) -> EngineResult<Table> {
        let specs: Vec<(&str, bool)> = columns.iter().map(|&c| (c, false)).collect();
        let order = self.sort_permutation(table, &specs)?;
        Ok(table.gather_rows(&order))
    }

    /// The staircase step, partitioned into context-range shards on the
    /// pool when the total context is large enough (shard evaluation is
    /// infallible once the plan is built; the merge re-establishes the
    /// per-iteration `pos` numbering deterministically).
    fn step(&self, table: &Table, axis: Axis, test: &NodeTest) -> EngineResult<Table> {
        let plan = ops::plan_step(table, self.registry, axis)?;
        match self.morsel_chunk_rows(plan.context_rows()) {
            None => {
                let shards = plan.shards(usize::MAX);
                let chunk = plan.eval_shards(&shards, test);
                Ok(plan.merge(vec![chunk])?)
            }
            Some(target) => {
                let runs = plan.shard_runs(target);
                let mut results: Vec<Option<ops::StepChunk>> = runs.iter().map(|_| None).collect();
                let plan_ref = &plan;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
                    .iter_mut()
                    .zip(&runs)
                    .map(|(slot, run)| {
                        Box::new(move || *slot = Some(plan_ref.eval_shards(run, test)))
                            as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                self.pool().run_scoped_tagged(self.query_tag, tasks);
                let chunks: Vec<ops::StepChunk> = results
                    .into_iter()
                    .map(|c| c.expect("every step morsel ran"))
                    .collect();
                Ok(plan.merge(chunks)?)
            }
        }
    }

    /// Evaluate one `IndexScan`: probe the one index the probe names
    /// ([`DocStore::text_index`], [`DocStore::element_index`] or
    /// [`DocStore::attribute_index`] — built on first use and shared by
    /// all sessions) and keep only candidate rows — a provable *superset* of
    /// what the residual predicate upstream accepts or errors on, so the
    /// untouched residual keeps answers and error behavior byte-identical.
    /// Rows the index cannot speak for (other documents, atomic values
    /// under a node probe, comment/PI nodes) always stay candidates.  When
    /// the document or the specific index is unavailable the scan degrades
    /// to a pass-through and the residual does all the work, exactly as
    /// without the rewrite.
    fn index_scan_node(
        &self,
        table: &Table,
        uri: &str,
        probe: &ops::IndexProbe,
        mode: ops::IndexMode,
    ) -> EngineResult<(Table, KernelStats)> {
        let mut kernel = KernelStats::default();
        let Some(doc_id) = self.registry.id_of(uri) else {
            return Ok((table.clone(), kernel));
        };
        let Some(store) = self.registry.store(doc_id) else {
            return Ok((table.clone(), kernel));
        };
        let started = self.profile_ops.then(Instant::now);
        let item = table.column("item")?;
        let rows = table.row_count();
        let candidate: Vec<bool> = match probe {
            ops::IndexProbe::TextContains { needle } => {
                let Some(cands) = ops::evaluate_text_probe(store.text_index(), needle) else {
                    return Ok((table.clone(), kernel));
                };
                kernel.index_lookups = 1;
                kernel.index_candidate_rows = cands.posting_rows();
                (0..rows)
                    .map(|row| match item.cell(row) {
                        Cell::Node(n) if n.doc == doc_id => {
                            ops::text_row_is_candidate(store.as_ref(), &cands, n.pre)
                        }
                        _ => true,
                    })
                    .collect()
            }
            ops::IndexProbe::ValueCmp {
                target,
                op,
                value,
                to_number,
            } => {
                let index = match target {
                    ops::IndexTarget::ElementTag(tag) => store.element_index(tag),
                    ops::IndexTarget::AttributeName(name) => store.attribute_index(name),
                };
                let Some(index) = index else {
                    return Ok((table.clone(), kernel));
                };
                let cands = ops::evaluate_value_probe(index, &store.texts, *op, value, *to_number);
                kernel.index_lookups = 1;
                kernel.index_candidate_rows = cands.pres.len();
                match target {
                    ops::IndexTarget::ElementTag(_) => (0..rows)
                        .map(|row| match item.cell(row) {
                            Cell::Node(n) if n.doc == doc_id => cands.contains_pre(n.pre),
                            _ => true,
                        })
                        .collect(),
                    ops::IndexTarget::AttributeName(_) => {
                        // Attribute steps yield the attribute *values* as
                        // strings; membership is on the value itself.
                        let values: HashSet<&str> = cands.values(index, &store.texts).collect();
                        (0..rows)
                            .map(|row| match item.cell(row) {
                                Cell::Str(s) => values.contains(s),
                                _ => true,
                            })
                            .collect()
                    }
                }
            }
        };
        let keep: Vec<usize> = match mode {
            ops::IndexMode::Exact => (0..rows).filter(|&r| candidate[r]).collect(),
            ops::IndexMode::Ebv => {
                // EBV groups of two or more rows short-circuit to `true`
                // without ever evaluating the predicate, so every row of a
                // multi-row iteration must survive; only singleton groups
                // may be filtered on candidacy.
                let iters = nat_keys(table.column("iter")?)?;
                let mut keep = Vec::with_capacity(rows);
                if iters.windows(2).all(|w| w[0] <= w[1]) {
                    // Iterations are grouped (the common case: the join
                    // emits probe order): group sizes fall out of one
                    // run-length pass, no hashing.
                    let mut row = 0;
                    while row < rows {
                        let mut end = row + 1;
                        while end < rows && iters[end] == iters[row] {
                            end += 1;
                        }
                        let multi = end - row > 1;
                        keep.extend((row..end).filter(|&r| candidate[r] || multi));
                        row = end;
                    }
                } else {
                    let mut counts: HashMap<u64, usize> = HashMap::new();
                    for &iter in iters.iter() {
                        *counts.entry(iter).or_insert(0) += 1;
                    }
                    keep.extend((0..rows).filter(|&r| candidate[r] || counts[&iters[r]] > 1));
                }
                keep
            }
        };
        kernel.index_residual_rows = keep.len();
        if let Some(started) = started {
            kernel
                .timings
                .push(("index_probe", keep.len(), started.elapsed()));
        }
        let out = if keep.len() == rows {
            table.clone()
        } else {
            table.gather_rows(&keep)
        };
        Ok((out, kernel))
    }

    /// Evaluate one logical operator as a pipeline breaker.  The join,
    /// aggregate and index kernels report their counters; every other
    /// operator reports none.  The fusable operators are not breakers:
    /// the fused kernel runs them (see [`PhysicalPlan::compile`]).
    fn eval(
        &self,
        plan: &Plan,
        id: OpId,
        inputs: &Inputs<'_>,
        doc_ids: &DocIds,
    ) -> EngineResult<(Table, KernelStats)> {
        let table = match plan.op(id) {
            AlgOp::EquiJoin {
                left,
                right,
                left_col,
                right_col,
            } => {
                return self.equi_join_node(
                    inputs.get(*left)?,
                    inputs.get(*right)?,
                    left_col,
                    right_col,
                )
            }
            AlgOp::ThetaJoin {
                left,
                right,
                left_col,
                op,
                right_col,
            } => {
                return self.theta_join_node(
                    inputs.get(*left)?,
                    inputs.get(*right)?,
                    left_col,
                    *op,
                    right_col,
                )
            }
            AlgOp::ThetaCount { left, right, count } => {
                return self.theta_count_node(inputs.get(*left)?, inputs.get(*right)?, count)
            }
            AlgOp::Aggregate {
                input,
                group,
                target,
                func,
                value,
            } => return self.aggregate_node(inputs.get(*input)?, group, target, *func, value),
            AlgOp::IndexScan {
                input,
                uri,
                probe,
                mode,
            } => return self.index_scan_node(inputs.get(*input)?, uri, probe, *mode),
            AlgOp::Lit { columns, rows } => {
                let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); columns.len()];
                for row in rows {
                    for (i, v) in row.iter().enumerate() {
                        cols[i].push(v.clone());
                    }
                }
                Table::new(
                    columns
                        .iter()
                        .zip(cols)
                        .map(|(name, values)| (name.clone(), Column::from_values(values)))
                        .collect(),
                )?
            }
            AlgOp::Doc { uri } => {
                let doc_id = self.registry.id_of(uri).ok_or_else(|| {
                    EngineError::msg(format!("no document registered under `{uri}`"))
                })?;
                Table::new(vec![(
                    "item".into(),
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
                    plan.op(id).symbol()
                )))
            }
            AlgOp::Union { left, right } => {
                ops::union_disjoint(inputs.get(*left)?, inputs.get(*right)?)?
            }
            AlgOp::Difference { left, right } => {
                ops::difference(inputs.get(*left)?, inputs.get(*right)?)?
            }
            AlgOp::Cross { left, right } => ops::cross(inputs.get(*left)?, inputs.get(*right)?)?,
            AlgOp::RowNum {
                input,
                target,
                order_by,
                partition,
            } => self.row_number(inputs.get(*input)?, target, order_by, partition.as_deref())?,
            AlgOp::Step { input, axis, test } => self.step(inputs.get(*input)?, *axis, test)?,
            AlgOp::DocOrder { input } => self.doc_order(inputs.get(*input)?)?,
            AlgOp::FnRoot { input } => self.fn_root(inputs.get(*input)?)?,
            AlgOp::Ebv { input } => self.ebv(inputs.get(*input)?)?,
            AlgOp::ElemConstruct {
                loop_input,
                tag,
                content,
            } => self.construct_elements(
                inputs.get(*loop_input)?,
                tag,
                inputs.get(*content)?,
                self.doc_id_for(doc_ids, id),
            )?,
            AlgOp::AttrConstruct {
                loop_input,
                name,
                content,
            } => {
                self.construct_attributes(inputs.get(*loop_input)?, name, inputs.get(*content)?)?
            }
            AlgOp::TextConstruct {
                loop_input,
                content,
            } => self.construct_texts(
                inputs.get(*loop_input)?,
                inputs.get(*content)?,
                self.doc_id_for(doc_ids, id),
            )?,
            AlgOp::Sort { input, by } => {
                let columns: Vec<&str> = by.iter().map(|s| s.column.as_str()).collect();
                self.sort_table(inputs.get(*input)?, &columns)?
            }
        };
        Ok((table, KernelStats::default()))
    }

    // ----- value helpers --------------------------------------------------

    fn fn_root(&self, table: &Table) -> EngineResult<Table> {
        let item = table.column("item")?;
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
        for (name, col) in table.columns() {
            if name == "item" {
                columns.push((name.clone(), Column::from_values(values.clone())));
            } else {
                columns.push((name.clone(), col.clone()));
            }
        }
        Ok(Table::new(columns)?)
    }

    /// Effective boolean value per iteration, in first-appearance order of
    /// the iterations: `true` for more than one item, otherwise the
    /// truth of the single item (a node is `true`).
    fn ebv(&self, table: &Table) -> EngineResult<Table> {
        let iters = nat_keys(table.column("iter")?)?;
        let item_col = table.column("item")?;
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
            ("iter".into(), Column::nats(out_iters)),
            ("item".into(), item),
        ])?)
    }

    /// `fs:distinct-doc-order`: per iteration, sort items into document
    /// order and drop duplicates, renumbering `pos`.
    fn doc_order(&self, table: &Table) -> EngineResult<Table> {
        let sorted = self.sort_table(table, &["iter", "item"])?;
        let distinct = ops::setops::distinct_on(&sorted, &["iter", "item"])?;
        let numbered =
            self.row_number(&distinct, "pos_ddo", &[SortSpec::asc("item")], Some("iter"))?;
        Ok(ops::project(
            &numbered,
            &[("iter", "iter"), ("pos_ddo", "pos"), ("item", "item")],
        )?)
    }

    /// Row numbering with ascending/descending keys and optional
    /// partitioning (the physical `%` operator).
    ///
    /// One kernel with `pf_relational::ops::row_number_by`: the typed sort
    /// keys are extracted once ([`SortKeys`] — the comparator never
    /// materializes per-row [`Value`]s), the permutation is chunk-sorted
    /// on the pool when the input is large enough, and
    /// [`ops::row_number_permuted`] applies the numbering.
    fn row_number(
        &self,
        table: &Table,
        target: &str,
        order_by: &[SortSpec],
        partition: Option<&str>,
    ) -> EngineResult<Table> {
        // The partition-first sort-spec convention lives in ONE place —
        // `rownum::sort_spec` — so the permutation computed here always
        // matches what `row_number_permuted`'s numbering expects.
        let order_by: Vec<ops::OrderSpec> = order_by
            .iter()
            .map(|s| ops::OrderSpec {
                column: s.column.clone(),
                descending: s.descending,
            })
            .collect();
        let specs = ops::rownum::sort_spec(&order_by, partition);
        let order = self.sort_permutation(table, &specs)?;
        Ok(ops::row_number_permuted(table, target, partition, &order)?)
    }

    // ----- node construction (ε, τ) ---------------------------------------

    /// The transient document id pre-reserved for constructor `id`, or a
    /// fresh reservation when the operator was not scheduled through
    /// [`Executor::execute_physical`] (direct `eval` in tests).
    fn doc_id_for(&self, doc_ids: &DocIds, id: OpId) -> u32 {
        doc_ids
            .get(&id)
            .copied()
            .unwrap_or_else(|| self.registry.reserve_constructed(1))
    }

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
        let iters = nat_keys(loop_table.column("iter")?)?;
        let index = ContentIndex::build(content)?;
        let mut cache = StoreCache::new(self.registry);
        let mut fragment = FragmentBuilder::new(format!("#constructed-{doc_id}"));
        let tag = fragment.tag(tag);
        let mut nodes = Vec::with_capacity(iters.len());
        for &iter in iters.iter() {
            // Constructed attributes, wherever they sit in the content,
            // become the element's attributes; the rest its children.
            let attributes = index.content_of(iter).filter_map(|item| match item {
                ContentItem::Str(s) => constructed_attribute(s),
                _ => None,
            });
            let element = fragment.start_element(tag, attributes);
            let mut previous_was_atomic = false;
            for item in index.content_of(iter) {
                let text = match item {
                    ContentItem::Node(node) => {
                        let store = cache.store(node.doc).ok_or_else(|| {
                            EngineError::msg(format!("unknown document id {}", node.doc))
                        })?;
                        fragment.copy_subtree(store, node.pre);
                        previous_was_atomic = false;
                        continue;
                    }
                    ContentItem::Str(s) if constructed_attribute(s).is_some() => continue,
                    ContentItem::Str(s) => Cow::Borrowed(s),
                    ContentItem::Atomic(atomic) => Cow::Owned(atomic.to_xdm_string()),
                };
                if previous_was_atomic {
                    fragment.text(" ");
                }
                fragment.text(&text);
                previous_was_atomic = true;
            }
            fragment.end_element();
            nodes.push(NodeRef::new(doc_id, element));
        }
        self.registry.fill_constructed(doc_id, fragment.finish());
        constructor_output(iters, Column::nodes(nodes))
    }

    /// Attribute construction: one `marker name \u{1} value` string per
    /// iteration, the value the atomized content joined by spaces.
    fn construct_attributes(
        &self,
        loop_table: &Table,
        name: &str,
        content: &Table,
    ) -> EngineResult<Table> {
        let iters = nat_keys(loop_table.column("iter")?)?;
        let index = ContentIndex::build(content)?;
        let mut cache = StoreCache::new(self.registry);
        let mut items = Vec::with_capacity(iters.len());
        for &iter in iters.iter() {
            let mut item = format!("{ATTR_MARKER}{name}\u{1}");
            index.push_atomized(iter, &mut cache, &mut item);
            items.push(item);
        }
        constructor_output(iters, Column::strs(items))
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
        let iters = nat_keys(loop_table.column("iter")?)?;
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
        ("iter".into(), Column::nats(iters.into_owned())),
        ("pos".into(), Column::nats(poss)),
        ("item".into(), item),
    ])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_algebra::PlanBuilder;
    use pf_store::{Axis, NodeTest};

    fn registry() -> DocRegistry {
        let reg = DocRegistry::new();
        reg.load_xml("doc.xml", "<a><b>1</b><b>2</b><c>x</c></a>")
            .unwrap();
        reg
    }

    #[test]
    fn executes_doc_and_step() {
        let reg = registry();
        let mut b = PlanBuilder::new();
        let loop0 = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
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
        let table = Executor::new(&reg).run(&plan).unwrap();
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
        let flags: Vec<Value> = b.column("item").unwrap().iter_values().collect();
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
                ("iter".into(), Column::nats(iters)),
                ("item".into(), items),
            ])
            .unwrap()
        };
        let as_rows = |t: &Table| -> Vec<(u64, Value)> {
            (0..t.row_count())
                .map(|r| {
                    let iter = t.value("iter", r).unwrap().as_nat().unwrap();
                    (iter, t.value("item", r).unwrap())
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
        assert_eq!(out.column("item").unwrap().as_bools().unwrap().len(), 4);
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
                .column("item")
                .unwrap()
                .iter_values()
                .map(|v| v.as_bool().unwrap())
                .collect();
            assert_eq!(flags, expected);
        }
        // A non-`Nat` iter column of naturals groups alike; one that is not
        // natural fails as before.
        let items = Table::new(vec![
            ("iter".into(), Column::ints(vec![4, 4])),
            ("item".into(), Column::ints(vec![0, 0])),
        ])
        .unwrap();
        assert_eq!(
            as_rows(&exec.ebv(&items).unwrap()),
            vec![(4, Value::Bool(true))]
        );
        let bad = Table::new(vec![
            ("iter".into(), Column::ints(vec![1, -1])),
            ("item".into(), Column::ints(vec![0, 0])),
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
        assert!(out.column("iter").unwrap().as_nats().is_some());
        assert!(out.column("item").unwrap().as_items().is_some());
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
        let ints = |values: &[i64]| -> Vec<ContentItem<'_>> {
            values
                .iter()
                .map(|&i| ContentItem::Atomic(Value::Int(i)))
                .collect()
        };
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

    /// The fused kernel's atomization hook appends a node's string value
    /// and nothing for a node of an unknown document.
    #[test]
    fn atomization_resolves_node_string_values() {
        let reg = registry();
        let mut cache = StoreCache::new(&reg);
        let mut out = String::from(">");
        // node 2 is the first <b>; its string value is "1"; node 1 is <a>
        cache.push_string_value(NodeRef::new(0, 2), &mut out);
        cache.push_string_value(NodeRef::new(0, 1), &mut out);
        cache.push_string_value(NodeRef::new(99, 0), &mut out);
        assert_eq!(out, ">112x");
        assert_eq!(cache.memo.len(), 2, "one lookup per document");
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
            .row_number(&t, "rank", &[SortSpec::desc("item")], Some("iter"))
            .unwrap();
        assert_eq!(numbered.value("item", 0).unwrap(), Value::Int(9));
        assert_eq!(numbered.value("rank", 0).unwrap(), Value::Nat(1));
        assert_eq!(numbered.value("item", 2).unwrap(), Value::Int(5));
    }

    /// Strings and nodes are read in place from typed and untyped item
    /// columns alike.
    #[test]
    fn content_items_are_borrowed_views() {
        let node = NodeRef::new(0, 2);
        let mixed = Table::iter_pos_item(
            vec![1, 1, 1],
            vec![1, 2, 3],
            vec![Value::Str("s".into()), Value::Node(node), Value::Bool(true)],
        )
        .unwrap();
        let index = ContentIndex::build(&mixed).unwrap();
        assert_eq!(
            index.content_of(1).collect::<Vec<_>>(),
            vec![
                ContentItem::Str("s"),
                ContentItem::Node(node),
                ContentItem::Atomic(Value::Bool(true))
            ]
        );
        assert_eq!(
            ContentItem::at(&Column::strs(vec!["t".into()]), 0),
            ContentItem::Str("t")
        );
        assert_eq!(
            ContentItem::at(&Column::nodes(vec![node]), 0),
            ContentItem::Node(node)
        );
        assert_eq!(
            constructed_attribute("\u{1}attr\u{1}k\u{1}v w"),
            Some(("k", "v w"))
        );
        assert_eq!(constructed_attribute("attr k v"), None);
    }

    /// Attributes, copied nodes, atomics with the " " between adjacent
    /// ones, and text merging, in one constructed element; the fragment
    /// holds one element per iteration and an empty loop yields the
    /// untyped empty item column.
    #[test]
    fn element_construction_writes_one_fragment_per_operator() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let loop_table = Table::new(vec![("iter".into(), Column::nats(vec![1, 2]))]).unwrap();
        let content = Table::iter_pos_item(
            vec![1, 1, 1, 1, 1, 2, 1],
            vec![1, 2, 3, 4, 5, 1, 6],
            vec![
                Value::Int(1),
                Value::Str("\u{1}attr\u{1}k\u{1}v".into()),
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
        let nodes = out.column("item").unwrap().as_nodes().unwrap().to_vec();
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
        let empty = Table::new(vec![("iter".into(), Column::nats(vec![]))]).unwrap();
        let out = exec
            .construct_elements(&empty, "e", &content, reg.reserve_constructed(1))
            .unwrap();
        assert_eq!(out.row_count(), 0);
        assert!(out.column("item").unwrap().as_items().is_some());
    }

    /// τ over empty and multi-item content: one text node per iteration
    /// with content, never merged across iterations; none for an
    /// iteration whose content is empty.
    #[test]
    fn text_construction_keeps_one_node_per_iteration() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let loop_table = Table::new(vec![("iter".into(), Column::nats(vec![1, 2, 3]))]).unwrap();
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
            .column("item")
            .unwrap()
            .as_nodes()
            .unwrap()
            .iter()
            .map(|node| store.content_of(node.pre))
            .collect();
        assert_eq!(texts, ["12x 7", "z"]);
        assert_eq!(out.column("iter").unwrap().as_nats().unwrap(), &[1, 3]);
    }

    #[test]
    fn element_construction_copies_subtrees() {
        let reg = registry();
        let exec = Executor::new(&reg);
        let loop_table = Table::new(vec![("iter".into(), Column::nats(vec![1]))]).unwrap();
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
        let Value::Node(node) = out.value("item", 0).unwrap() else {
            panic!()
        };
        let store = reg.store(node.doc).unwrap();
        assert_eq!(store.subtree_to_xml(node.pre), "<wrap><b>1</b>done</wrap>");
    }

    /// A linear 4-operator chain over the sample document: each result is
    /// dead as soon as its single consumer has run.
    fn chain_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let loop0 = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
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
        let (table, stats) = Executor::new(&reg).run_with_stats(&plan).unwrap();
        assert_eq!(table.row_count(), 2);
        assert_eq!(stats.operators_evaluated, 4);
        // Every non-root result is freed at its last use…
        assert_eq!(stats.evicted_results, 3);
        // …so the peak resident rows stay below the retain-everything total.
        assert!(stats.peak_resident_rows < stats.rows_produced);
        assert!(stats.peak_resident_rows > 0);
        assert!(stats.peak_resident_cells < stats.cells_produced);
        assert!(stats.peak_resident_cells > 0);
    }

    /// lit → project(rename) → project(rename) over 8 rows.
    fn projection_chain_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: (1..=8)
                .map(|i| vec![Value::Nat(i), Value::Int(i as i64 * 10)])
                .collect(),
        });
        let p1 = b.add(AlgOp::Project {
            input: lit,
            columns: vec![("iter".into(), "a".into()), ("item".into(), "b".into())],
        });
        let p2 = b.add(AlgOp::Project {
            input: p1,
            columns: vec![("a".into(), "c".into()), ("b".into(), "d".into())],
        });
        b.finish(p2)
    }

    /// The unfused reference: every reachable operator interpreted on its
    /// own in topological order, every intermediate materialized — the
    /// fusable ones through `pf-relational`'s value-at-a-time reference
    /// kernels (these plans hold no nodes).
    fn run_unfused(exec: &Executor<'_>, plan: &Plan) -> EngineResult<Table> {
        let mut slots: Vec<Option<Arc<Table>>> = vec![None; plan.ops().len()];
        let no_nodes = &mut |_: NodeRef, _: &mut String| unreachable!("no node operands");
        for id in plan.reachable() {
            let input = |input: &OpId| slots[*input].as_deref().expect("inputs ran first");
            let table = match plan.op(id) {
                AlgOp::Project { input: i, columns } => {
                    let pairs: Vec<(&str, &str)> = columns
                        .iter()
                        .map(|(s, t)| (s.as_str(), t.as_str()))
                        .collect();
                    ops::project(input(i), &pairs)?
                }
                AlgOp::Select { input: i, column } => ops::select_true(input(i), column)?,
                AlgOp::Distinct { input: i } => ops::distinct(input(i))?,
                AlgOp::Attach {
                    input: i,
                    target,
                    value,
                } => ops::map_const(input(i), target, value)?,
                AlgOp::BinaryMap {
                    input: i,
                    target,
                    left,
                    op,
                    right,
                } => ops::map_binary(input(i), target, left, *op, right, no_nodes)?,
                _ => {
                    exec.eval(plan, id, &Inputs::Slots(&slots), &DocIds::new())?
                        .0
                }
            };
            slots[id] = Some(Arc::new(table));
        }
        Ok((*slots[plan.root()].take().expect("the root ran")).clone())
    }

    #[test]
    fn physical_accounting_counts_shared_buffers_once() {
        // lit → pipeline(project, project): the pipeline output shares the
        // literal's buffers, so the physically resident cells never exceed
        // one copy of the data while the logical accounting sees both
        // tables live when the pipeline publishes.
        let plan = projection_chain_plan();
        let reg = registry();
        let (_, stats) = Executor::new(&reg).run_with_stats(&plan).unwrap();
        assert_eq!(stats.peak_resident_rows, 16);
        assert_eq!(stats.peak_resident_cells, 16); // 8 rows × 2 unique buffers
        assert_eq!(stats.cells_produced, 32); // 2 tables × 2 columns × 8 rows
    }

    #[test]
    fn fusion_elides_the_interior_projection() {
        // The two projections fuse into one pipeline, the interior table
        // is never allocated, and the result is the unfused one.
        let plan = projection_chain_plan();
        let reg = registry();
        let exec = Executor::new(&reg);
        let (fused, stats) = exec.run_with_stats(&plan).unwrap();
        assert_eq!(fused, run_unfused(&exec, &plan).unwrap());
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
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: (1..=6)
                .map(|i| vec![Value::Nat(i), Value::Int(i as i64)])
                .collect(),
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: "limit".into(),
            value: Value::Int(3),
        });
        let map = b.add(AlgOp::BinaryMap {
            input: attach,
            target: "keep".into(),
            left: "item".into(),
            op: ops::BinaryOp::Cmp(ops::CmpOp::Gt),
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
        let distinct = b.add(AlgOp::Distinct { input: project });
        let plan = b.finish(distinct);
        let exec = Executor::new(&reg);
        let (fused, on) = exec.run_with_stats(&plan).unwrap();
        assert_eq!(fused, run_unfused(&exec, &plan).unwrap());
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
            let mut b = PlanBuilder::new();
            let lit = b.add(AlgOp::Lit {
                columns: vec!["iter".into(), "item".into()],
                rows: vec![vec![Value::Nat(1), Value::Int(5)]],
            });
            let attach = b.add(AlgOp::Attach {
                input: lit,
                target: "flag".into(),
                value: Value::Int(7),
            });
            let select = b.add(AlgOp::Select {
                input: attach,
                column: "flag".into(),
            });
            let distinct = b.add(AlgOp::Distinct { input: select });
            b.finish(distinct)
        };
        let exec = Executor::new(&reg);
        let fused = exec.run(&build()).unwrap_err();
        let unfused = run_unfused(&exec, &build()).unwrap_err();
        assert_eq!(fused.to_string(), unfused.to_string());
    }

    #[test]
    fn shared_subexpressions_stay_live_until_their_last_consumer() {
        // A diamond: the literal feeds two projections that join back
        // together.  The literal must survive until the second projection
        // has run, then be evicted.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![
                vec![Value::Nat(1), Value::Int(10)],
                vec![Value::Nat(2), Value::Int(20)],
            ],
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
        let plan = b.finish(join);
        let reg = registry();
        let (table, stats) = Executor::new(&reg).run_with_stats(&plan).unwrap();
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.value("item1", 1).unwrap(), Value::Int(20));
        assert_eq!(stats.evicted_results, 3);
    }

    #[test]
    fn run_matches_run_with_stats() {
        let reg = registry();
        let plan = chain_plan();
        let plain = Executor::new(&reg).run(&plan).unwrap();
        let reg2 = registry();
        let (profiled, _) = Executor::new(&reg2).run_with_stats(&plan).unwrap();
        assert_eq!(plain, profiled);
    }

    // ----- ready-set / parallel scheduler ---------------------------------

    /// A diamond over the sample document whose two branches are
    /// independent (a `b`-step and a `c`-step) joined by a cross product.
    fn diamond_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let loop0 = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let doc = b.add(AlgOp::Doc {
            uri: "doc.xml".into(),
        });
        let crossed = b.add(AlgOp::Cross {
            left: loop0,
            right: doc,
        });
        let left = b.add(AlgOp::Step {
            input: crossed,
            axis: Axis::Descendant,
            test: NodeTest::Element("b".into()),
        });
        let right = b.add(AlgOp::Step {
            input: crossed,
            axis: Axis::Descendant,
            test: NodeTest::Element("c".into()),
        });
        let lcount = b.add(AlgOp::Aggregate {
            input: left,
            group: "iter".into(),
            target: "n_b".into(),
            func: ops::AggFunc::Count,
            value: "item".into(),
        });
        let rcount = b.add(AlgOp::Aggregate {
            input: right,
            group: "iter".into(),
            target: "n_c".into(),
            func: ops::AggFunc::Count,
            value: "item".into(),
        });
        let renamed = b.add(AlgOp::Project {
            input: rcount,
            columns: vec![
                ("iter".into(), "iter2".into()),
                ("n_c".into(), "n_c".into()),
            ],
        });
        let joined = b.add(AlgOp::Cross {
            left: lcount,
            right: renamed,
        });
        b.finish(joined)
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let reg = registry();
        let plan = diamond_plan();
        let sequential = Executor::with_threads(&reg, 1).run(&plan).unwrap();
        for threads in [2, 4, 8] {
            let parallel = Executor::with_threads(&reg, threads).run(&plan).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_totals_match_sequential_totals() {
        let reg = registry();
        let plan = diamond_plan();
        let (_, seq) = Executor::with_threads(&reg, 1)
            .run_with_stats(&plan)
            .unwrap();
        let (_, par) = Executor::with_threads(&reg, 4)
            .run_with_stats(&plan)
            .unwrap();
        // Work totals are schedule-independent; only the peaks may differ.
        assert_eq!(seq.operators_evaluated, par.operators_evaluated);
        assert_eq!(seq.rows_produced, par.rows_produced);
        assert_eq!(seq.cells_produced, par.cells_produced);
        assert_eq!(seq.evicted_results, par.evicted_results);
        assert!(par.peak_resident_rows >= seq.peak_resident_rows);
    }

    #[test]
    fn unpinned_constructors_get_identical_doc_ids_at_any_thread_count() {
        // Two constructor operators: their transient document ids are
        // reserved in plan order at schedule time, so even though the
        // constructors run as ordinary pool jobs in any order, the result
        // tables (which embed document ids in node refs) are equal.
        let build = || {
            let mut b = PlanBuilder::new();
            let loop0 = b.add(AlgOp::Lit {
                columns: vec!["iter".into()],
                rows: vec![vec![Value::Nat(1)]],
            });
            let content_a = b.add(AlgOp::Lit {
                columns: vec!["iter".into(), "pos".into(), "item".into()],
                rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Str("x".into())]],
            });
            let content_b = b.add(AlgOp::Lit {
                columns: vec!["iter".into(), "pos".into(), "item".into()],
                rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Str("y".into())]],
            });
            let ea = b.add(AlgOp::ElemConstruct {
                loop_input: loop0,
                tag: "a".into(),
                content: content_a,
            });
            let eb = b.add(AlgOp::ElemConstruct {
                loop_input: loop0,
                tag: "b".into(),
                content: content_b,
            });
            let union = b.add(AlgOp::Union {
                left: ea,
                right: eb,
            });
            b.finish(union)
        };
        let reg1 = registry();
        let sequential = Executor::with_threads(&reg1, 1).run(&build()).unwrap();
        let reg4 = registry();
        let parallel = Executor::with_threads(&reg4, 4).run(&build()).unwrap();
        // Node refs (including transient document ids) agree because both
        // registries assigned ids in the same order.
        assert_eq!(sequential, parallel);
        assert_eq!(reg1.constructed_count(), 2);
        assert_eq!(reg4.constructed_count(), 2);
    }

    #[test]
    fn parallel_errors_propagate_without_hanging() {
        let reg = registry();
        let mut b = PlanBuilder::new();
        let ok = b.add(AlgOp::Doc {
            uri: "doc.xml".into(),
        });
        let missing = b.add(AlgOp::Doc {
            uri: "missing.xml".into(),
        });
        let crossed = b.add(AlgOp::Cross {
            left: ok,
            right: missing,
        });
        let plan = b.finish(crossed);
        let err = Executor::with_threads(&reg, 4).run(&plan);
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("missing.xml"));
    }

    #[test]
    fn parallel_operator_panics_become_errors_not_hangs() {
        // A malformed literal (row wider than the schema) panics inside
        // eval; a second leaf widens the plan so the parallel path runs.
        // The panic must surface as an error on every thread count instead
        // of stranding the worker pool on the condvar.
        let reg = registry();
        let mut b = PlanBuilder::new();
        let bad = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(2)]],
        });
        let good = b.add(AlgOp::Lit {
            columns: vec!["item".into()],
            rows: vec![vec![Value::Int(7)]],
        });
        let crossed = b.add(AlgOp::Cross {
            left: bad,
            right: good,
        });
        let plan = b.finish(crossed);
        let err = Executor::with_threads(&reg, 4).run(&plan);
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("panicked"));
    }

    // ----- morsel-parallel operators ---------------------------------------

    /// A plan whose hot operators are all morselizable: a 64-row literal
    /// through a fusable chain (attach + compare + select), a row
    /// numbering, a sort, and a staircase step over the sample document.
    fn morsel_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: (1..=64)
                .map(|i| vec![Value::Nat(i), Value::Int((i as i64 * 37) % 29)])
                .collect(),
        });
        let attach = b.add(AlgOp::Attach {
            input: lit,
            target: "limit".into(),
            value: Value::Int(10),
        });
        let map = b.add(AlgOp::BinaryMap {
            input: attach,
            target: "keep".into(),
            left: "item".into(),
            op: ops::BinaryOp::Cmp(ops::CmpOp::Gt),
            right: "limit".into(),
        });
        let select = b.add(AlgOp::Select {
            input: map,
            column: "keep".into(),
        });
        let rownum = b.add(AlgOp::RowNum {
            input: select,
            target: "rank".into(),
            order_by: vec![SortSpec::desc("item"), SortSpec::asc("iter")],
            partition: None,
        });
        let sorted = b.add(AlgOp::Sort {
            input: rownum,
            by: vec![SortSpec::asc("iter")],
        });
        b.finish(sorted)
    }

    #[test]
    fn morselized_operators_reproduce_the_sequential_tables_exactly() {
        let reg = registry();
        let plan = morsel_plan();
        let reference = Executor::with_threads(&reg, 1).run(&plan).unwrap();
        for threads in [2, 4] {
            for morsel in [1, 2, 7, 4096, usize::MAX] {
                let table = Executor::with_threads(&reg, threads)
                    .with_morsel_rows(morsel)
                    .run(&plan)
                    .unwrap();
                assert_eq!(table, reference, "threads {threads}, morsel {morsel}");
            }
        }
    }

    #[test]
    fn morselized_step_matches_the_sequential_step() {
        // Context = every <b> and <c> across many iterations; a tiny
        // morsel size forces context-range shards through the pool.
        let reg = registry();
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: (1..=32)
                .map(|i| vec![Value::Nat(i), Value::Node(NodeRef::new(0, 1))])
                .collect(),
        });
        let step = b.add(AlgOp::Step {
            input: lit,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let plan = b.finish(step);
        let reference = Executor::with_threads(&reg, 1).run(&plan).unwrap();
        assert!(reference.row_count() > 0);
        let morselized = Executor::with_threads(&reg, 4)
            .with_morsel_rows(2)
            .run(&plan)
            .unwrap();
        assert_eq!(morselized, reference);
    }

    #[test]
    fn morselized_pipeline_errors_match_the_sequential_error() {
        // A fused select over a non-boolean column, forced through the
        // chunked path: the lowest-range error must surface, identical to
        // the sequential message.
        let build = || {
            let mut b = PlanBuilder::new();
            let lit = b.add(AlgOp::Lit {
                columns: vec!["iter".into(), "item".into()],
                rows: (1..=16)
                    .map(|i| vec![Value::Nat(i), Value::Int(i as i64)])
                    .collect(),
            });
            let attach = b.add(AlgOp::Attach {
                input: lit,
                target: "flag".into(),
                value: Value::Int(7),
            });
            let select = b.add(AlgOp::Select {
                input: attach,
                column: "flag".into(),
            });
            let sort = b.add(AlgOp::Sort {
                input: select,
                by: vec![SortSpec::asc("iter")],
            });
            b.finish(sort)
        };
        let reg = registry();
        let sequential = Executor::with_threads(&reg, 1).run(&build()).unwrap_err();
        let morselized = Executor::with_threads(&reg, 4)
            .with_morsel_rows(2)
            .run(&build())
            .unwrap_err();
        assert_eq!(sequential.to_string(), morselized.to_string());
    }

    #[test]
    fn standalone_executors_spawn_their_own_pool_at_most_once() {
        let reg = registry();
        let exec = Executor::with_threads(&reg, 4).with_morsel_rows(2);
        let plan = morsel_plan();
        let first = exec.run(&plan).unwrap();
        let generation = exec.pool().generation();
        for _ in 0..3 {
            assert_eq!(exec.run(&plan).unwrap(), first);
        }
        assert_eq!(
            exec.pool().generation(),
            generation,
            "one pool per executor"
        );
    }

    /// A join + aggregation plan large enough to morselize: 200 probe rows
    /// against a 40-row build side, counted and summed per group.
    fn join_agg_plan() -> Plan {
        let mut b = PlanBuilder::new();
        let left = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: (0..200u64)
                .map(|i| vec![Value::Nat(i % 40), Value::Int(i as i64 % 13)])
                .collect(),
        });
        let right = b.add(AlgOp::Lit {
            columns: vec!["iter2".into(), "weight".into()],
            rows: (0..40u64)
                .map(|i| vec![Value::Nat(i), Value::Int(i as i64)])
                .collect(),
        });
        let join = b.add(AlgOp::EquiJoin {
            left,
            right,
            left_col: "iter".into(),
            right_col: "iter2".into(),
        });
        let counted = b.add(AlgOp::Aggregate {
            input: join,
            group: "iter".into(),
            target: "n".into(),
            func: ops::AggFunc::Count,
            value: "item".into(),
        });
        b.finish(counted)
    }

    #[test]
    fn morselized_join_and_aggregate_match_sequential() {
        let reg = registry();
        let plan = join_agg_plan();
        let reference = Executor::with_threads(&reg, 1).run(&plan).unwrap();
        assert!(reference.row_count() > 0);
        for threads in [2, 4] {
            for morsel in [3, 64, usize::MAX] {
                let table = Executor::with_threads(&reg, threads)
                    .with_morsel_rows(morsel)
                    .run(&plan)
                    .unwrap();
                assert_eq!(table, reference, "threads {threads}, morsel {morsel}");
            }
        }
    }

    #[test]
    fn generic_kernels_reproduce_the_typed_results() {
        // The value-at-a-time reference kernels of `pf-relational`, run by
        // hand over the plan's two literals.
        let reg = registry();
        let plan = join_agg_plan();
        let exec = Executor::new(&reg);
        let lit = |id| {
            exec.eval(&plan, id, &Inputs::Slots(&[]), &DocIds::new())
                .unwrap()
                .0
        };
        let joined = ops::equi_join_generic(&lit(0), &lit(1), "iter", "iter2").unwrap();
        let generic =
            ops::aggregate_by_generic(&joined, "iter", "n", AggFunc::Count, "item").unwrap();
        assert_eq!(exec.run(&plan).unwrap(), generic);
    }

    #[test]
    fn kernel_counters_report_join_and_aggregate_sizes() {
        let reg = registry();
        let plan = join_agg_plan();
        let (_, stats) = Executor::new(&reg).run_with_stats(&plan).unwrap();
        // Smaller side (40 rows) builds, larger (200 rows) probes; the
        // aggregation consumes the 200 join output rows.
        assert_eq!(stats.join_build_rows, 40);
        assert_eq!(stats.join_probe_rows, 200);
        assert_eq!(stats.agg_input_rows, 200);
        // The counters are schedule-independent.
        let (_, par) = Executor::with_threads(&reg, 4)
            .with_morsel_rows(16)
            .run_with_stats(&plan)
            .unwrap();
        assert_eq!(par.join_build_rows, 40);
        assert_eq!(par.join_probe_rows, 200);
        assert_eq!(par.agg_input_rows, 200);
    }

    #[test]
    fn with_threads_zero_resolves_to_a_positive_count() {
        let reg = registry();
        assert!(Executor::with_threads(&reg, 0).threads() >= 1);
        assert_eq!(Executor::with_threads(&reg, 3).threads(), 3);
    }
}
