//! The staircase-join *plan operator*.
//!
//! [`pf_store::StepKernel`] evaluates one axis step for one context of one
//! document; this module lifts it to the loop-lifted plan level: the input
//! is an `iter|item` table whose `item` column holds context *nodes*, the
//! output is the `iter|pos|item` table of step results per iteration, in
//! document order and duplicate-free within each iteration — exactly the
//! contract of `fs:distinct-doc-order` applied after an XPath step.
//!
//! The evaluation has two phases:
//!
//! 1. `plan_step` reads the context rows as `(iter, doc, pre)` triples,
//!    sorts and dedups them unless they already ascend strictly (they do
//!    when the input is a previous step's output), cuts them into one
//!    *sorted run* per `(iter, doc)`, resolves every document store once
//!    and — for the descendant axes — pre-prunes each run
//!    ([`pf_store::descendant_prune_into`]), producing a flat `StepPlan`:
//!    one context arena plus `(iter, doc slot, range)` work items;
//! 2. `StepPlan::eval` runs the staircase kernel over every work item in
//!    order, one [`StepKernel`] per document, and assigns the
//!    per-iteration `pos` numbering.

use std::borrow::Cow;
use std::sync::Arc;

use pf_store::{descendant_prune_into, Axis, DocStore, NodeTest, PreRank, StepKernel};

use crate::column::{Column, Texts};
use crate::error::{RelError, RelResult};
use crate::table::{ColId, Table};
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

/// A store-resolved step evaluation over sorted-run contexts.
#[derive(Debug)]
struct StepPlan {
    axis: Axis,
    /// The documents the context touches, each resolved once.
    docs: Vec<(u32, Arc<DocStore>)>,
    /// Every item's context nodes, back to back in `(iter, doc, pre)`
    /// order; pre-pruned for the descendant axes.
    contexts: Vec<PreRank>,
    items: Vec<StepItem>,
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
fn plan_step<R: DocResolver + ?Sized>(input: &Table, docs: &R, axis: Axis) -> RelResult<StepPlan> {
    let iter_col = input.column(ColId::ITER)?;
    let item_col = input.column(ColId::ITEM)?;
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
            // Pre-prune so the kernel scans disjoint subtrees.
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
    /// Phase 2: evaluate every work item in order, appending straight into
    /// the output buffers, then number `pos` per iteration.  One
    /// [`StepKernel`] per document serves all its items: the node test is
    /// resolved once, and its cursors carry over from item to item.
    /// Contexts and stores were validated by [`plan_step`].
    ///
    /// The attribute axis returns attribute *values*, as surrogates of
    /// the document's dictionary: a [`Column::Text`] over the one store
    /// the step reads, with no string built per row.  A step over the
    /// attributes of several documents spells them into a `Str` column,
    /// since one `Text` column indexes one dictionary.
    fn eval(&self, test: &NodeTest) -> RelResult<Table> {
        let mut iters: Vec<u64> = Vec::new();
        let mut nodes: Vec<NodeRef> = Vec::new();
        // Attribute values: the surrogate of each row, and its store slot
        // when the step reads several documents.
        let mut syms: Vec<u32> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        let several = self.docs.len() > 1;
        let mut kernels: Vec<Option<StepKernel>> = self.docs.iter().map(|_| None).collect();
        for item in &self.items {
            let (doc, store) = &self.docs[item.slot];
            let kernel =
                kernels[item.slot].get_or_insert_with(|| StepKernel::new(store, self.axis, test));
            let context = &self.contexts[item.lo..item.hi];
            if self.axis == Axis::Attribute {
                kernel.attributes(context, |row| syms.push(store.attr_value[row]));
                if several {
                    slots.resize(syms.len(), item.slot);
                }
                iters.resize(syms.len(), item.iter);
            } else {
                kernel.run(context, |pre| nodes.push(NodeRef::new(*doc, pre)));
                iters.resize(nodes.len(), item.iter);
            }
        }
        // Iterations are contiguous (work items are sorted by iter), so
        // `pos` restarts exactly at iteration boundaries.
        let mut poss: Vec<u64> = Vec::with_capacity(iters.len());
        let mut previous = None;
        let mut pos = 0u64;
        for &iter in &iters {
            if previous.replace(iter) != Some(iter) {
                pos = 0;
            }
            pos += 1;
            poss.push(pos);
        }
        // An empty step keeps the polymorphic representation `from_values`
        // would have produced, so downstream unions see the same column
        // kinds as before this fast path existed.
        let item_col = if iters.is_empty() {
            Column::empty_item()
        } else if self.axis == Axis::Attribute {
            let first = slots.first().copied().unwrap_or(0);
            if slots.iter().all(|&slot| slot == first) {
                Column::Text(Texts::new(self.docs[first].1.clone(), syms))
            } else {
                let spell =
                    |(&sym, &slot): (&u32, &usize)| self.docs[slot].1.texts.resolve(sym).to_owned();
                Column::strs(syms.iter().zip(&slots).map(spell).collect())
            }
        } else {
            Column::nodes(nodes)
        };
        Table::new(vec![
            (ColId::ITER, Column::nats(iters)),
            (ColId::POS, Column::nats(poss)),
            (ColId::ITEM, item_col),
        ])
    }
}

/// Evaluate one XPath location step for every iteration of a loop-lifted
/// context table.
///
/// * `input` must have an `iter` column and a node-valued `item` column.
/// * The result has schema `iter|pos|item`, where `pos` re-establishes
///   sequence order (document order) within each iteration.
/// * The attribute axis is handled here as well (it reads the attribute
///   table rather than the node table); attribute *values* are returned
///   as surrogates of the document's dictionary (a [`Column::Text`]),
///   mirroring how the engine consumes `@attr` steps.
pub fn staircase_step<R: DocResolver + ?Sized>(
    input: &Table,
    docs: &R,
    axis: Axis,
    test: &NodeTest,
) -> RelResult<Table> {
    plan_step(input, docs, axis)?.eval(test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::col;

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
        assert_eq!(result.value(col("pos"), 0).unwrap(), Value::Nat(1));
        assert_eq!(result.value(col("pos"), 1).unwrap(), Value::Nat(2));
        assert_eq!(result.value(col("iter"), 2).unwrap(), Value::Nat(2));
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
        assert_eq!(
            result.value(col("item"), 0).unwrap(),
            Value::Str("p0".into())
        );
        assert_eq!(
            result.value(col("item"), 1).unwrap(),
            Value::Str("p1".into())
        );
    }

    /// An attribute step hands out the store's surrogates: its `item`
    /// column is `Text` over the resolver's very store, holding the
    /// attribute table's value surrogates — no string is built per row.
    #[test]
    fn attribute_step_returns_surrogates_of_the_store() {
        let (docs, _) = setup();
        let table = Table::iter_pos_item(
            vec![1, 2],
            vec![1, 1],
            vec![
                Value::Node(NodeRef::new(0, 3)),
                Value::Node(NodeRef::new(0, 6)),
            ],
        )
        .unwrap();
        let test = NodeTest::Attribute("id".into());
        let result = staircase_step(&table, docs.as_slice(), Axis::Attribute, &test).unwrap();
        let texts = result
            .column(col("item"))
            .unwrap()
            .as_texts()
            .expect("a Text column");
        assert!(Arc::ptr_eq(texts.store(), &docs[0]));
        let store = &docs[0];
        let expected: Vec<u32> = [3, 6]
            .iter()
            .map(|&pre| {
                let row = store.attributes_of(pre).next().unwrap();
                store.attr_value[row]
            })
            .collect();
        assert_eq!(texts.syms(), expected.as_slice());
        assert_eq!((texts.spell(0), texts.spell(1)), ("p0", "p1"));
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
        assert_eq!(
            result.column_ids(),
            vec![col("iter"), col("pos"), col("item")]
        );
    }
}
