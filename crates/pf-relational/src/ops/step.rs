//! The staircase-join *plan operator*.
//!
//! [`pf_store::StepKernel`] evaluates one axis step for one context of one
//! document; this module lifts it to the loop-lifted plan level: the input
//! is an `iter|item` table whose `item` column holds context *nodes*, the
//! output is the `iter|pos|item` table of step results per iteration, in
//! document order and duplicate-free within each iteration — exactly the
//! contract of `fs:distinct-doc-order` applied after an XPath step.
//!
//! The evaluation is split into three phases so the executor can run the
//! scan phase as **morsels** on a worker pool:
//!
//! 1. [`plan_step`] reads the context rows as `(iter, doc, pre)` triples,
//!    sorts and dedups them unless they already ascend strictly (they do
//!    when the input is a previous step's output), cuts them into one
//!    *sorted run* per `(iter, doc)`, resolves every document store once
//!    and — for the descendant axes — pre-prunes each run
//!    ([`pf_store::descendant_prune_into`]), producing a flat
//!    [`StepPlan`]: one context arena plus `(iter, doc slot, range)` items;
//! 2. [`StepPlan::shards`] partitions the work into row-bounded shards
//!    ([`StepPlan::eval_shards`] evaluates any subset; shards of a
//!    descendant context are sub-ranges of the pruned context, whose
//!    subtree scans are disjoint);
//! 3. [`StepPlan::merge`] concatenates the shard outputs in plan order and
//!    assigns the per-iteration `pos` numbering.
//!
//! Evaluating all shards in one go and merging reproduces the single-pass
//! evaluation **bit for bit**, so [`staircase_step`] (the sequential entry
//! point) is just phases 1–3 run back to back.

use std::borrow::Cow;
use std::sync::Arc;

use pf_store::{descendant_prune_into, Axis, DocStore, NodeTest, PreRank, StepKernel};

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::table::Table;
use crate::value::{NodeRef, Value};

/// Resolves document ids found in [`NodeRef`]s to their stores.
///
/// Stores are handed out as [`Arc`] handles rather than borrows so that a
/// resolver may keep its store table behind a lock (documents constructed
/// mid-query are registered concurrently with readers on other threads):
/// the caller holds the snapshot it resolved, independent of the
/// resolver's internal state.
pub trait DocResolver {
    /// The store for document `doc`, if registered.
    fn resolve(&self, doc: u32) -> Option<Arc<DocStore>>;
}

impl DocResolver for [Arc<DocStore>] {
    fn resolve(&self, doc: u32) -> Option<Arc<DocStore>> {
        self.get(doc as usize).cloned()
    }
}

impl DocResolver for Vec<Arc<DocStore>> {
    fn resolve(&self, doc: u32) -> Option<Arc<DocStore>> {
        self.get(doc as usize).cloned()
    }
}

/// One independent unit of a planned step: the sorted run of one
/// `(iter, doc)` group, as a range of the plan's context arena.
#[derive(Debug)]
struct StepItem {
    iter: u64,
    /// Index into [`StepPlan::docs`].
    slot: usize,
    lo: usize,
    hi: usize,
}

/// A store-resolved step evaluation over sorted-run contexts, ready to be
/// sharded across workers (or evaluated in one piece).  Shared immutably
/// across threads.
#[derive(Debug)]
pub struct StepPlan {
    axis: Axis,
    /// The documents the context touches, each resolved once.
    docs: Vec<(u32, Arc<DocStore>)>,
    /// Every item's context nodes, back to back in `(iter, doc, pre)`
    /// order; pre-pruned for the descendant axes.
    contexts: Vec<PreRank>,
    items: Vec<StepItem>,
}

/// One shard of a [`StepPlan`]: a context sub-range of one work item.
#[derive(Debug, Clone)]
pub struct StepShard {
    item: usize,
    lo: usize,
    hi: usize,
}

/// The rows one shard (or shard run) produced, in plan order.  `pos` is
/// assigned later, by [`StepPlan::merge`], because a partitioned iteration
/// spans shards.
#[derive(Debug, Default)]
pub struct StepChunk {
    iters: Vec<u64>,
    nodes: Vec<NodeRef>,
    strs: Vec<String>,
}

/// View `column` as a slice of `T`: borrowed when it is stored that way
/// (`typed`), otherwise converted cell by cell in one pass.  A failure
/// carries the row of the first bad cell.
fn typed_cells<'a, T: Copy>(
    column: &'a Column,
    typed: Option<&'a [T]>,
    cell: impl Fn(&Value) -> RelResult<T>,
) -> Result<Cow<'a, [T]>, (usize, RelError)> {
    if let Some(cells) = typed {
        return Ok(Cow::Borrowed(cells));
    }
    let converted: Result<Vec<T>, _> = match column.as_items() {
        Some(items) => items
            .iter()
            .enumerate()
            .map(|(row, value)| cell(value).map_err(|e| (row, e)))
            .collect(),
        None => (0..column.len())
            .map(|row| cell(&column.get(row)).map_err(|e| (row, e)))
            .collect(),
    };
    converted.map(Cow::Owned)
}

/// Phase 1: order, cut and resolve the context rows of `input` (see the
/// module docs).  `input` must have an `iter` column and a node-valued
/// `item` column; the first offending row (then the first unknown document
/// in `(iter, doc)` order) is reported here.
pub fn plan_step<R: DocResolver + ?Sized>(
    input: &Table,
    docs: &R,
    axis: Axis,
) -> RelResult<StepPlan> {
    let iter_col = input.column("iter")?;
    let item_col = input.column("item")?;
    let iters = typed_cells(iter_col, iter_col.as_nats(), Value::as_nat);
    let nodes = typed_cells(item_col, item_col.as_nodes(), Value::as_node);
    let (iters, nodes) = match (iters, nodes) {
        (Ok(iters), Ok(nodes)) => (iters, nodes),
        // Row order decides between two bad columns, `iter` first in a row.
        (Err((iter_row, _)), Err((node_row, e))) if node_row < iter_row => return Err(e),
        (Err((_, e)), _) | (_, Err((_, e))) => return Err(e),
    };

    let mut triples: Vec<(u64, u32, PreRank)> = iters
        .iter()
        .zip(nodes.iter())
        .map(|(&iter, node)| (iter, node.doc, node.pre))
        .collect();
    if !triples.is_sorted_by(|a, b| a < b) {
        triples.sort_unstable();
        triples.dedup();
    }

    let prune = matches!(axis, Axis::Descendant | Axis::DescendantOrSelf);
    let mut plan = StepPlan {
        axis,
        docs: Vec::new(),
        contexts: Vec::with_capacity(triples.len()),
        items: Vec::new(),
    };
    for run in triples.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (iter, doc, _) = run[0];
        // Resolve each document once per plan, not once per run — a
        // resolver may sit behind a lock, and a step typically touches one
        // document across thousands of runs.
        let slot = match plan.docs.iter().position(|(id, _)| *id == doc) {
            Some(slot) => slot,
            None => {
                let store = docs
                    .resolve(doc)
                    .ok_or_else(|| RelError::new(format!("unknown document id {doc}")))?;
                plan.docs.push((doc, store));
                plan.docs.len() - 1
            }
        };
        let lo = plan.contexts.len();
        let pres = run.iter().map(|&(_, _, pre)| pre);
        if prune {
            // Pre-prune so shards scan disjoint subtrees, whatever the
            // shard boundaries.
            descendant_prune_into(&plan.docs[slot].1, pres, &mut plan.contexts);
        } else {
            plan.contexts.extend(pres);
        }
        plan.items.push(StepItem {
            iter,
            slot,
            lo,
            hi: plan.contexts.len(),
        });
    }
    Ok(plan)
}

impl StepPlan {
    /// Total context rows across all work items — the morsel weight of
    /// this step.
    pub fn context_rows(&self) -> usize {
        self.contexts.len()
    }

    /// May an item's context be split across shards?  `true` for the
    /// descendant axes (pruned contexts root disjoint subtrees) and the
    /// attribute axis (per-context-node lookups); the remaining axes are
    /// evaluated whole.
    fn splittable(&self) -> bool {
        matches!(
            self.axis,
            Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute
        )
    }

    /// Phase 2: partition the work into shards of at most `target_rows`
    /// context nodes each (splittable items are cut into context
    /// sub-ranges; the rest stay whole).  Pass `usize::MAX` for one shard
    /// per item.  The shard list depends only on the plan and
    /// `target_rows`, never on scheduling.
    pub fn shards(&self, target_rows: usize) -> Vec<StepShard> {
        let target = target_rows.max(1);
        let splittable = self.splittable();
        let mut shards = Vec::with_capacity(self.items.len());
        for (item_idx, item) in self.items.iter().enumerate() {
            let mut lo = item.lo;
            while splittable && item.hi - lo > target {
                shards.push(StepShard {
                    item: item_idx,
                    lo,
                    hi: lo + target,
                });
                lo += target;
            }
            shards.push(StepShard {
                item: item_idx,
                lo,
                hi: item.hi,
            });
        }
        shards
    }

    /// Group consecutive shards into runs of roughly `target_rows` context
    /// nodes (one task per run keeps tiny morsel sizes from exploding into
    /// thousands of jobs).
    pub fn shard_runs(&self, target_rows: usize) -> Vec<Vec<StepShard>> {
        let shards = self.shards(target_rows);
        let mut runs: Vec<Vec<StepShard>> = Vec::new();
        let mut current: Vec<StepShard> = Vec::new();
        let mut weight = 0usize;
        for shard in shards {
            let w = shard.hi - shard.lo;
            if !current.is_empty() && weight + w > target_rows {
                runs.push(std::mem::take(&mut current));
                weight = 0;
            }
            weight += w;
            current.push(shard);
        }
        if !current.is_empty() {
            runs.push(current);
        }
        runs
    }

    /// Phase 3a: evaluate a run of shards (any thread; `&self` is shared
    /// immutably), appending straight into the chunk's output buffers.
    /// One [`StepKernel`] per document serves the whole run: the node test
    /// is resolved once, and its cursors carry over from shard to shard.
    /// Infallible: contexts and stores were validated by [`plan_step`].
    pub fn eval_shards(&self, shards: &[StepShard], test: &NodeTest) -> StepChunk {
        let mut chunk = StepChunk::default();
        let mut kernels: Vec<Option<StepKernel>> = self.docs.iter().map(|_| None).collect();
        for shard in shards {
            let item = &self.items[shard.item];
            let (doc, store) = &self.docs[item.slot];
            let kernel =
                kernels[item.slot].get_or_insert_with(|| StepKernel::new(store, self.axis, test));
            let context = &self.contexts[shard.lo..shard.hi];
            if self.axis == Axis::Attribute {
                // Attribute *values* are returned, as strings.
                let strs = &mut chunk.strs;
                kernel.attributes(context, |row| {
                    strs.push(store.attr_value_of(row).to_string())
                });
                chunk.iters.resize(chunk.strs.len(), item.iter);
            } else {
                let nodes = &mut chunk.nodes;
                kernel.run(context, |pre| nodes.push(NodeRef::new(*doc, pre)));
                chunk.iters.resize(chunk.nodes.len(), item.iter);
            }
        }
        chunk
    }

    /// Phase 3b: concatenate shard-run outputs (in shard order) into the
    /// `iter|pos|item` result table, assigning the per-iteration `pos`
    /// numbering.  Deterministic: depends only on the chunks' contents and
    /// order.
    pub fn merge(&self, chunks: Vec<StepChunk>) -> RelResult<Table> {
        let mut chunks = chunks.into_iter();
        let mut all = chunks.next().unwrap_or_default();
        for chunk in chunks {
            all.iters.extend(chunk.iters);
            all.nodes.extend(chunk.nodes);
            all.strs.extend(chunk.strs);
        }
        // Iterations are contiguous (work items are sorted by iter), so
        // `pos` restarts exactly at iteration boundaries.
        let mut poss: Vec<u64> = Vec::with_capacity(all.iters.len());
        let mut previous = None;
        let mut pos = 0u64;
        for &iter in &all.iters {
            if previous.replace(iter) != Some(iter) {
                pos = 0;
            }
            pos += 1;
            poss.push(pos);
        }
        // An empty step keeps the polymorphic representation `from_values`
        // would have produced, so downstream unions see the same column
        // kinds as before this fast path existed.
        let item_col = if all.iters.is_empty() {
            Column::empty_item()
        } else if self.axis == Axis::Attribute {
            Column::strs(all.strs)
        } else {
            Column::nodes(all.nodes)
        };
        Table::new(vec![
            ("iter".into(), Column::nats(all.iters)),
            ("pos".into(), Column::nats(poss)),
            ("item".into(), item_col),
        ])
    }
}

/// Evaluate one XPath location step for every iteration of a loop-lifted
/// context table (the sequential entry point: plan, evaluate every shard
/// in one run, merge).
///
/// * `input` must have an `iter` column and a node-valued `item` column.
/// * The result has schema `iter|pos|item`, where `pos` re-establishes
///   sequence order (document order) within each iteration.
/// * The attribute axis is handled here as well (it reads the attribute
///   table rather than the node table); attribute *values* are returned as
///   strings, mirroring how the engine consumes `@attr` steps.
pub fn staircase_step<R: DocResolver + ?Sized>(
    input: &Table,
    docs: &R,
    axis: Axis,
    test: &NodeTest,
) -> RelResult<Table> {
    let plan = plan_step(input, docs, axis)?;
    let shards = plan.shards(usize::MAX);
    let chunk = plan.eval_shards(&shards, test);
    plan.merge(vec![chunk])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vec<Arc<DocStore>>, Table) {
        let store = DocStore::from_xml(
            "t",
            "<site><people><person id=\"p0\"><name>Ann</name></person><person id=\"p1\"><name>Bo</name></person></people></site>",
        )
        .unwrap();
        // context: the root element in iterations 1 and 2
        let table = Table::iter_pos_item(
            vec![1, 2],
            vec![1, 1],
            vec![
                Value::Node(NodeRef::new(0, 1)),
                Value::Node(NodeRef::new(0, 1)),
            ],
        )
        .unwrap();
        (vec![Arc::new(store)], table)
    }

    #[test]
    fn descendant_step_per_iteration() {
        let (docs, table) = setup();
        let result = staircase_step(
            &table,
            docs.as_slice(),
            Axis::Descendant,
            &NodeTest::Element("person".into()),
        )
        .unwrap();
        assert_eq!(result.row_count(), 4); // 2 persons × 2 iterations
                                           // Each iteration gets pos 1..2 in document order.
        assert_eq!(result.value("pos", 0).unwrap(), Value::Nat(1));
        assert_eq!(result.value("pos", 1).unwrap(), Value::Nat(2));
        assert_eq!(result.value("iter", 2).unwrap(), Value::Nat(2));
    }

    #[test]
    fn sharded_evaluation_matches_the_sequential_entry_point() {
        // Many context nodes in one iteration plus a second iteration:
        // shard the plan at every context-row target and check the merged
        // result is bit-identical to the one-pass evaluation.
        let store = Arc::new(
            DocStore::from_xml(
                "t",
                "<r><a><b/><b/></a><a><b/></a><a/><a><b/><b/><b/></a></r>",
            )
            .unwrap(),
        );
        let n = store.node_count() as u32;
        let all: Vec<Value> = (0..n).map(|p| Value::Node(NodeRef::new(0, p))).collect();
        let iters: Vec<u64> = (0..n as usize).map(|i| 1 + (i as u64 % 2)).collect();
        let table = Table::iter_pos_item(iters, vec![1; n as usize], all).unwrap();
        let docs = vec![store];
        for axis in [
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Child,
            Axis::Ancestor,
            Axis::Following,
        ] {
            let whole =
                staircase_step(&table, docs.as_slice(), axis, &NodeTest::AnyElement).unwrap();
            let plan = plan_step(&table, docs.as_slice(), axis).unwrap();
            for target in [1usize, 2, 3, 7, usize::MAX] {
                let chunks: Vec<StepChunk> = plan
                    .shard_runs(target)
                    .iter()
                    .map(|run| plan.eval_shards(run, &NodeTest::AnyElement))
                    .collect();
                let merged = plan.merge(chunks).unwrap();
                assert_eq!(merged, whole, "axis {axis:?}, target {target}");
            }
        }
    }

    #[test]
    fn duplicate_context_nodes_are_removed_per_iteration() {
        let (docs, _) = setup();
        let table = Table::iter_pos_item(
            vec![1, 1],
            vec![1, 2],
            vec![
                Value::Node(NodeRef::new(0, 1)),
                Value::Node(NodeRef::new(0, 1)),
            ],
        )
        .unwrap();
        let result = staircase_step(
            &table,
            docs.as_slice(),
            Axis::Descendant,
            &NodeTest::Element("name".into()),
        )
        .unwrap();
        assert_eq!(result.row_count(), 2);
    }

    #[test]
    fn attribute_step_returns_values() {
        let (docs, _) = setup();
        let table = Table::iter_pos_item(
            vec![1, 1],
            vec![1, 2],
            vec![
                Value::Node(NodeRef::new(0, 3)),
                Value::Node(NodeRef::new(0, 6)),
            ],
        )
        .unwrap();
        let result = staircase_step(
            &table,
            docs.as_slice(),
            Axis::Attribute,
            &NodeTest::Attribute("id".into()),
        )
        .unwrap();
        assert_eq!(result.row_count(), 2);
        assert_eq!(result.value("item", 0).unwrap(), Value::Str("p0".into()));
        assert_eq!(result.value("item", 1).unwrap(), Value::Str("p1".into()));
    }

    #[test]
    fn unknown_document_is_an_error() {
        let (docs, _) = setup();
        let table =
            Table::iter_pos_item(vec![1], vec![1], vec![Value::Node(NodeRef::new(7, 1))]).unwrap();
        assert!(staircase_step(&table, docs.as_slice(), Axis::Child, &NodeTest::AnyNode).is_err());
    }

    #[test]
    fn non_node_items_are_an_error() {
        let (docs, _) = setup();
        let table = Table::iter_pos_item(vec![1], vec![1], vec![Value::Int(1)]).unwrap();
        assert!(staircase_step(&table, docs.as_slice(), Axis::Child, &NodeTest::AnyNode).is_err());
    }

    #[test]
    fn empty_context_produces_empty_result() {
        let (docs, _) = setup();
        let table = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        let result =
            staircase_step(&table, docs.as_slice(), Axis::Child, &NodeTest::AnyNode).unwrap();
        assert_eq!(result.row_count(), 0);
        assert_eq!(result.column_names(), vec!["iter", "pos", "item"]);
    }
}
