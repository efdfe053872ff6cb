//! Query results and their serialization back to the XQuery data model.
//!
//! "A simple post-processor then serializes the relational result to form a
//! response in terms of the XQuery data model" (Section 2, "MonetDB").  The
//! relational result is the root operator's `iter|pos|item` table in the
//! top-level scope; serialization walks the items in `pos` order, printing
//! atomic values (space separated) and serializing node items to XML.
//!
//! Serialization **streams straight out of the root table's columns**: a
//! [`QueryResult`] keeps the executor's [`Arc<Table>`] handle (plus a
//! handle on each document store it references) and [`QueryResult::to_xml`] /
//! [`QueryResult::write_xml`] walk the `pos`-ordered rows, writing node
//! subtrees via [`pf_store::DocStore::write_subtree_xml`] — no
//! item-value vector is ever built for serialization.  The classic
//! [`QueryResult::items`] view is materialized lazily, only when it is
//! actually asked for.  [`serialize_table`] is the free-standing streaming
//! entry point for callers that hold a table and a registry themselves.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use pf_algebra::OptimizeReport;
use pf_relational::{Cell, ColId, Column, Table, Value};
use pf_store::DocStore;

use crate::error::{EngineError, EngineResult};
use crate::registry::DocRegistry;

/// Wall-clock timings of the three pipeline stages, plus the plan-cache
/// counters of the engine that ran the query.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Parse + literal lifting + normalize + loop-lifting compilation
    /// ([`Duration::ZERO`] on an exact-text plan-cache hit; parse and
    /// lifting alone on a shape hit).
    pub compile: Duration,
    /// Peephole optimization, literal binding and physical-plan
    /// compilation ([`Duration::ZERO`] on an exact-text plan-cache hit;
    /// binding and physical compilation alone on a shape hit).
    pub optimize: Duration,
    /// Plan execution (including result serialization inputs).
    pub execute: Duration,
    /// Cumulative plan-cache hits of the engine, as of this query.
    pub plan_cache_hits: usize,
    /// Cumulative plan-cache misses of the engine, as of this query.
    pub plan_cache_misses: usize,
    /// What the optimizer did to this query's plan (per-rule rewrite
    /// counters).  On a plan-cache hit this is the report recorded when
    /// the plan was first compiled — the rewrites still describe the plan
    /// that ran.
    pub optimizer: OptimizeReport,
}

impl Timings {
    /// Total elapsed time.
    pub fn total(&self) -> Duration {
        self.compile + self.optimize + self.execute
    }
}

/// The result of a query.
///
/// Holds the root table behind the executor's [`Arc`] handle; the
/// serialized form streams out of the columns on demand and the item
/// vector is built lazily (see the module docs).
#[derive(Debug, Clone)]
pub struct QueryResult {
    table: Arc<Table>,
    /// The document stores the result actually references, resolved when
    /// the query finished and keyed by document id.  Node items resolve
    /// against these without touching the registry lock again, and the
    /// map holds exactly the referenced stores — a result referencing one
    /// high transient document id costs one entry, not `id + 1` slots of a
    /// dense table, and results that contain no nodes retain no stores at
    /// all.
    stores: HashMap<u32, Arc<DocStore>>,
    /// Row permutation bringing the table into `pos` order (`None` when
    /// the rows already are — the common case).
    order: Option<Vec<usize>>,
    /// The classic materialized item view, built on first use.
    items: OnceLock<Vec<Value>>,
    timings: Timings,
}

impl QueryResult {
    /// Build a result from the root operator's table.
    ///
    /// Validates the result shape eagerly — the `pos`/`item` columns must
    /// exist, positions must be naturals, and every node item must point
    /// at a registered document — so the lazy accessors cannot fail later.
    pub fn from_table(
        table: Arc<Table>,
        registry: &DocRegistry,
        timings: Timings,
    ) -> EngineResult<Self> {
        let order = pos_order(&table)?;
        let stores = resolve_stores(table.column(ColId::ITEM)?, registry)?;
        Ok(QueryResult {
            table,
            stores,
            order,
            items: OnceLock::new(),
            timings,
        })
    }

    /// The result items in sequence order (materialized on first call).
    pub fn items(&self) -> &[Value] {
        self.items.get_or_init(|| {
            let item_col = self
                .table
                .column(ColId::ITEM)
                .expect("item column validated at construction");
            match &self.order {
                None => item_col.iter_values().collect(),
                Some(order) => order.iter().map(|&row| item_col.get(row)).collect(),
            }
        })
    }

    /// Number of items in the result sequence.
    pub fn len(&self) -> usize {
        self.table.row_count()
    }

    /// `true` for the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.table.row_count() == 0
    }

    /// The result table itself (one row per item, in table order).
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The serialized result.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out)
            .expect("streaming into a String cannot fail");
        out
    }

    /// Stream the serialized result into `out` without building any
    /// intermediate item vector or string.
    pub fn write_xml(&self, out: &mut impl fmt::Write) -> EngineResult<()> {
        let item_col = self
            .table
            .column(ColId::ITEM)
            .expect("item column validated at construction");
        write_rows(item_col, self.order.as_deref(), &self.stores, out)
    }

    /// Pipeline timings for this query.
    pub fn timings(&self) -> Timings {
        self.timings
    }
}

/// Serialize a result table straight out of its columns, in `pos` order:
/// nodes as XML subtrees (streamed via
/// [`pf_store::DocStore::write_subtree_xml`]), atomics as their lexical
/// form, with a single space between adjacent atomic values.  No item
/// vector is materialized.
pub fn serialize_table(
    table: &Table,
    registry: &DocRegistry,
    out: &mut impl fmt::Write,
) -> EngineResult<()> {
    let order = pos_order(table)?;
    let item_col = table.column(ColId::ITEM)?;
    let stores = resolve_stores(item_col, registry)?;
    write_rows(item_col, order.as_deref(), &stores, out)
}

/// The row permutation bringing `table` into `pos` order, or `None` when
/// the rows already are.  Ties keep table order (stable sort), matching
/// the materializing serializer this replaces.
fn pos_order(table: &Table) -> EngineResult<Option<Vec<usize>>> {
    fn sorted_order(keys: &[u64]) -> Option<Vec<usize>> {
        if keys.windows(2).all(|w| w[0] <= w[1]) {
            return None;
        }
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&row| keys[row]);
        Some(order)
    }
    let pos_col = table.column(ColId::POS)?;
    match pos_col.as_nats() {
        // The typed fast path sorts indices against the borrowed buffer.
        Some(nats) => Ok(sorted_order(nats)),
        None => {
            let keys: Vec<u64> = (0..pos_col.len())
                .map(|row| pos_col.get(row).as_nat())
                .collect::<Result<_, pf_relational::RelError>>()?;
            Ok(sorted_order(&keys))
        }
    }
}

/// Resolve every document store the item column references — done once at
/// result construction, so the streaming serializer has no failure paths
/// left and the result retains only the stores it actually needs (a map,
/// not a dense id-indexed table: transient document ids can be arbitrarily
/// high after a run of constructor-heavy queries).
fn resolve_stores(
    item_col: &Column,
    registry: &DocRegistry,
) -> EngineResult<HashMap<u32, Arc<DocStore>>> {
    let mut stores: HashMap<u32, Arc<DocStore>> = HashMap::new();
    let mut resolve = |doc: u32| -> EngineResult<()> {
        if let std::collections::hash_map::Entry::Vacant(slot) = stores.entry(doc) {
            slot.insert(
                registry
                    .store(doc)
                    .ok_or_else(|| EngineError::msg(format!("unknown document id {doc}")))?,
            );
        }
        Ok(())
    };
    if let Some(nodes) = item_col.as_nodes() {
        for node in nodes {
            resolve(node.doc)?;
        }
    } else if let Some(attrs) = item_col.as_attrs() {
        for attr in attrs {
            resolve(attr.doc)?;
        }
    } else if let Some(items) = item_col.as_items() {
        for item in items {
            match item {
                Value::Node(node) => resolve(node.doc)?,
                Value::Attr(attr) => resolve(attr.doc)?,
                _ => {}
            }
        }
    }
    // Other typed representations cannot contain nodes or attributes.
    Ok(stores)
}

/// The shared streaming core: walk the item column in the given row
/// order, writing nodes as XML, constructed attributes as `name="value"`
/// (as `pf-baseline` writes them) and atomics space-separated.
fn write_rows(
    item_col: &Column,
    order: Option<&[usize]>,
    stores: &HashMap<u32, Arc<DocStore>>,
    out: &mut impl fmt::Write,
) -> EngineResult<()> {
    let mut previous_was_atomic = false;
    let mut write_item = |item: Cell<'_>, out: &mut dyn fmt::Write| -> fmt::Result {
        match item {
            Cell::Node(node) => {
                let store = stores
                    .get(&node.doc)
                    .expect("referenced stores resolved at construction");
                store.write_subtree_xml(node.pre, out)?;
                previous_was_atomic = false;
            }
            Cell::Attr(attr) => {
                let store = stores
                    .get(&attr.doc)
                    .expect("referenced stores resolved at construction");
                let row = attr.row as usize;
                out.write_str(store.attr_name_of(row))?;
                out.write_str("=\"")?;
                out.write_str(&pf_xml::escape::escape_attribute(store.attr_value_of(row)))?;
                out.write_char('"')?;
                previous_was_atomic = false;
            }
            atomic => {
                if previous_was_atomic {
                    out.write_char(' ')?;
                }
                // A string (spelled from a dictionary or not) is written
                // as it is stored, other atomics in their lexical form.
                write!(out, "{atomic}")?;
                previous_was_atomic = true;
            }
        }
        Ok(())
    };
    // Cells are read in place: no value is cloned per row.
    let result = match order {
        None => (0..item_col.len()).try_for_each(|row| write_item(item_col.cell(row), out)),
        Some(order) => order
            .iter()
            .try_for_each(|&row| write_item(item_col.cell(row), out)),
    };
    result.map_err(|_| EngineError::msg("serialization sink failed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_relational::{AttrRef, NodeRef};

    fn result_of(table: Table, registry: &DocRegistry) -> QueryResult {
        QueryResult::from_table(Arc::new(table), registry, Timings::default()).unwrap()
    }

    #[test]
    fn serializes_atomics_with_spaces_and_nodes_inline() {
        let registry = DocRegistry::new();
        registry.load_xml("d", "<x><y>7</y></x>").unwrap();
        let table = Table::iter_pos_item(
            vec![1, 1, 1],
            vec![2, 1, 3],
            vec![
                Value::Node(NodeRef::new(0, 2)),
                Value::Int(1),
                Value::Str("z".into()),
            ],
        )
        .unwrap();
        let result = result_of(table, &registry);
        // pos order: 1 (int), 2 (node <y>), 3 ("z")
        assert_eq!(result.to_xml(), "1<y>7</y>z");
        assert_eq!(result.len(), 3);
        assert!(!result.is_empty());
    }

    /// A constructed attribute serializes as `name="value"`, its value
    /// escaped, from an `Item` and from an `Attr` column alike; an
    /// attribute of an unknown document fails at construction.
    #[test]
    fn constructed_attributes_serialize_as_name_value_pairs() {
        let registry = DocRegistry::new();
        let mut fragment = pf_store::FragmentBuilder::new("attributes");
        let name = fragment.tag("n");
        fragment.attribute(name, "a<\"b\"");
        let doc = registry.register_constructed(fragment.finish());
        let attr = AttrRef::new(doc, 0);
        let table = Table::iter_pos_item(
            vec![1; 4],
            vec![1, 2, 3, 4],
            vec![
                Value::Int(1),
                Value::Attr(attr),
                Value::Int(2),
                Value::Attr(attr),
            ],
        )
        .unwrap();
        let pair = "n=\"a&lt;&quot;b&quot;\"";
        assert_eq!(
            result_of(table, &registry).to_xml(),
            format!("1{pair}2{pair}")
        );
        let table = Table::new(vec![
            (ColId::ITER, Column::nats(vec![1, 1])),
            (ColId::POS, Column::nats(vec![2, 1])),
            (ColId::ITEM, Column::attrs(vec![attr; 2])),
        ])
        .unwrap();
        assert_eq!(
            result_of(table, &registry).to_xml(),
            format!("{pair}{pair}")
        );
        let table =
            Table::iter_pos_item(vec![1], vec![1], vec![Value::Attr(AttrRef::new(9, 0))]).unwrap();
        let err = QueryResult::from_table(Arc::new(table), &registry, Timings::default());
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("unknown document id 9"));
    }

    #[test]
    fn empty_result() {
        let registry = DocRegistry::new();
        let table = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        let result = result_of(table, &registry);
        assert!(result.is_empty());
        assert_eq!(result.to_xml(), "");
        assert!(result.items().is_empty());
    }

    #[test]
    fn items_are_lazy_and_pos_ordered() {
        let registry = DocRegistry::new();
        let table = Table::iter_pos_item(
            vec![1, 1, 1],
            vec![3, 1, 2],
            vec![Value::Int(30), Value::Int(10), Value::Int(20)],
        )
        .unwrap();
        let result = result_of(table, &registry);
        // Serialization never builds the item vector…
        assert_eq!(result.to_xml(), "10 20 30");
        assert!(result.items.get().is_none(), "to_xml materialized items");
        // …which appears, in pos order, only when asked for.
        assert_eq!(
            result.items(),
            &[Value::Int(10), Value::Int(20), Value::Int(30)]
        );
        assert!(result.items.get().is_some());
    }

    #[test]
    fn write_xml_streams_into_any_sink() {
        let registry = DocRegistry::new();
        let table =
            Table::iter_pos_item(vec![1, 1], vec![1, 2], vec![Value::Int(4), Value::Int(2)])
                .unwrap();
        let result = result_of(table, &registry);
        let mut sink = String::new();
        result.write_xml(&mut sink).unwrap();
        assert_eq!(sink, "4 2");
    }

    #[test]
    fn serialize_table_streams_without_a_query_result() {
        let registry = DocRegistry::new();
        registry.load_xml("d", "<x><y>7</y></x>").unwrap();
        let table = Table::iter_pos_item(
            vec![1, 1],
            vec![2, 1],
            vec![Value::Node(NodeRef::new(0, 2)), Value::Str("n".into())],
        )
        .unwrap();
        let mut out = String::new();
        serialize_table(&table, &registry, &mut out).unwrap();
        assert_eq!(out, "n<y>7</y>");
    }

    #[test]
    fn unknown_document_ids_fail_at_construction() {
        let registry = DocRegistry::new();
        let table =
            Table::iter_pos_item(vec![1], vec![1], vec![Value::Node(NodeRef::new(9, 0))]).unwrap();
        let err = QueryResult::from_table(Arc::new(table), &registry, Timings::default());
        assert!(err.is_err());
        assert!(err
            .unwrap_err()
            .to_string()
            .contains("unknown document id 9"));
    }

    #[test]
    fn timings_total() {
        let t = Timings {
            compile: Duration::from_millis(2),
            optimize: Duration::from_millis(3),
            execute: Duration::from_millis(5),
            ..Timings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }
}
