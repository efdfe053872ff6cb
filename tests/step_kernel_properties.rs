//! Property tests for the loop-lifted staircase step.
//!
//! [`staircase_step`] — sorted-run contexts, surrogate node tests, sibling
//! hopping, the path-stack cursor, the attribute merge walk — must equal
//! the per-`(iter, doc)` oracle built from [`naive_axis_step`] and the
//! attribute table, on
//!
//! * random documents with elements, text, comments, processing
//!   instructions and attributes, deep and wide,
//! * all twelve axes and every [`NodeTest`] variant, including names that
//!   occur nowhere in the document or only as an attribute name,
//! * random context tables that are unsorted, contain duplicates, span
//!   several iterations and two documents, with `Node`- and `Item`-typed
//!   `item` columns.
//!
//! On top of that: merged shard runs equal the whole for every morsel
//! target, the error cases report the errors they always did, and the
//! [`StaircaseStats`] counters show that skipping actually skips.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use pathfinder::relational::ops::{plan_step, staircase_step};
use pathfinder::relational::{Column, NodeRef, Table, Value};
use pathfinder::store::{
    naive_axis_step, staircase_join_counted, Axis, DocStore, NodeTest, PreRank, StaircaseStats,
};
use pathfinder::xml::{Attribute, DocumentBuilder};

const AXES: [Axis; 12] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::SelfAxis,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::Following,
    Axis::Preceding,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::Attribute,
];

/// Every variant; `k` is an attribute name and a PI target but never a
/// tag, `absent` is in no dictionary.
fn node_tests() -> Vec<NodeTest> {
    vec![
        NodeTest::AnyElement,
        NodeTest::Element("a".into()),
        NodeTest::Element("item".into()),
        NodeTest::Element("k".into()),
        NodeTest::Element("absent".into()),
        NodeTest::Text,
        NodeTest::Comment,
        NodeTest::Pi,
        NodeTest::AnyNode,
        NodeTest::Attribute("k".into()),
        NodeTest::Attribute("id".into()),
        NodeTest::Attribute("absent".into()),
        NodeTest::AnyAttribute,
    ]
}

/// Interpret `script` as a nesting script.  `deep` biases it towards
/// opening elements (a narrow, deep tree), otherwise towards leaves and
/// closes (a wide, shallow one).
fn random_store(name: &str, script: &[(u8, u8)], deep: bool) -> DocStore {
    let tags = ["a", "b", "item", "person"];
    let attr_names = ["id", "k"];
    let mut builder = DocumentBuilder::new();
    builder.start_element("root", vec![]);
    for &(op, arg) in script {
        let op = if deep { op % 5 } else { op % 10 };
        match op {
            0..=2 => {
                let attributes = attr_names[..arg as usize % 3]
                    .iter()
                    .map(|&name| Attribute {
                        name: name.into(),
                        value: format!("v{}", arg % 7),
                    })
                    .collect();
                builder.start_element(tags[arg as usize % tags.len()], attributes);
            }
            3 => {
                builder.text(format!("t{}", arg % 4));
            }
            4 | 5 => {
                if builder.open_elements() > 1 {
                    builder.end_element();
                }
            }
            6 => {
                builder.comment(format!("c{}", arg % 4));
            }
            7 => {
                builder.processing_instruction("k", format!("d{}", arg % 4));
            }
            _ => {
                builder.start_element(tags[arg as usize % tags.len()], vec![]);
                builder.end_element();
            }
        }
    }
    while builder.open_elements() > 0 {
        builder.end_element();
    }
    DocStore::from_document(name, &builder.finish())
}

fn script() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..250, 0u8..250), 1..70)
}

/// Raw context rows `(iter, doc, pre)`; `pre` is reduced modulo the
/// document's node count once the documents exist.
fn raw_rows() -> impl Strategy<Value = Vec<(u64, u32, u32)>> {
    proptest::collection::vec((1u64..5, 0u32..2, 0u32..1000), 0..40)
}

fn context_rows(docs: &[Arc<DocStore>], raw: &[(u64, u32, u32)]) -> (Vec<u64>, Vec<NodeRef>) {
    raw.iter()
        .map(|&(iter, doc, pre)| {
            let n = docs[doc as usize].node_count() as u32;
            (iter, NodeRef::new(doc, pre % n))
        })
        .unzip()
}

/// The context table, with a `Node`-typed or a polymorphic `item` column.
fn context_table(iters: &[u64], nodes: &[NodeRef], item_typed: bool) -> Table {
    let item = if item_typed {
        Column::items(nodes.iter().map(|&n| Value::Node(n)).collect())
    } else {
        Column::nodes(nodes.to_vec())
    };
    Table::new(vec![
        ("iter".into(), Column::nats(iters.to_vec())),
        ("item".into(), item),
    ])
    .unwrap()
}

/// The step result by definition: per `(iter, doc)` group in that order,
/// the naive region evaluation (or the attribute table look-up) of the
/// group's sorted, duplicate-free context.
fn oracle(
    docs: &[Arc<DocStore>],
    iters: &[u64],
    nodes: &[NodeRef],
    axis: Axis,
    test: &NodeTest,
) -> Table {
    let mut groups: BTreeMap<(u64, u32), Vec<PreRank>> = BTreeMap::new();
    for (&iter, node) in iters.iter().zip(nodes) {
        groups.entry((iter, node.doc)).or_default().push(node.pre);
    }
    let (mut out_iters, mut out_nodes, mut out_strs) = (Vec::new(), Vec::new(), Vec::new());
    for ((iter, doc), mut context) in groups {
        let store = &docs[doc as usize];
        context.sort_unstable();
        context.dedup();
        if axis == Axis::Attribute {
            for &ctx in &context {
                for row in store.attributes_of(ctx) {
                    let qualifies = match test {
                        NodeTest::Attribute(name) => store.attr_name_of(row) == name,
                        NodeTest::AnyAttribute | NodeTest::AnyNode => true,
                        _ => false,
                    };
                    if qualifies {
                        out_iters.push(iter);
                        out_strs.push(store.attr_value_of(row).to_string());
                    }
                }
            }
        } else {
            for pre in naive_axis_step(store, &context, axis, test) {
                out_iters.push(iter);
                out_nodes.push(NodeRef::new(doc, pre));
            }
        }
    }
    let mut poss = Vec::with_capacity(out_iters.len());
    for (row, iter) in out_iters.iter().enumerate() {
        let restarts = row == 0 || out_iters[row - 1] != *iter;
        poss.push(if restarts { 1 } else { poss[row - 1] + 1 });
    }
    let item = if out_iters.is_empty() {
        Column::empty_item()
    } else if axis == Axis::Attribute {
        Column::strs(out_strs)
    } else {
        Column::nodes(out_nodes)
    };
    Table::new(vec![
        ("iter".into(), Column::nats(out_iters)),
        ("pos".into(), Column::nats(poss)),
        ("item".into(), item),
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn staircase_step_equals_the_naive_oracle(
        script_a in script(),
        script_b in script(),
        deep in proptest::bool::ANY,
        raw in raw_rows(),
        item_typed in proptest::bool::ANY,
    ) {
        let docs = vec![
            Arc::new(random_store("a.xml", &script_a, deep)),
            Arc::new(random_store("b.xml", &script_b, !deep)),
        ];
        let (iters, nodes) = context_rows(&docs, &raw);
        let table = context_table(&iters, &nodes, item_typed);
        for axis in AXES {
            for test in node_tests() {
                let expected = oracle(&docs, &iters, &nodes, axis, &test);
                let whole = staircase_step(&table, docs.as_slice(), axis, &test).unwrap();
                prop_assert_eq!(&whole, &expected, "axis {:?} test {:?}", axis, test);
            }
        }
    }

    #[test]
    fn merged_shard_runs_equal_the_whole(
        script_a in script(),
        script_b in script(),
        raw in raw_rows(),
    ) {
        let docs = vec![
            Arc::new(random_store("a.xml", &script_a, true)),
            Arc::new(random_store("b.xml", &script_b, false)),
        ];
        let (iters, nodes) = context_rows(&docs, &raw);
        let table = context_table(&iters, &nodes, false);
        let tests = [NodeTest::AnyNode, NodeTest::Element("a".into()), NodeTest::AnyAttribute];
        for axis in AXES {
            for test in &tests {
                let whole = staircase_step(&table, docs.as_slice(), axis, test).unwrap();
                let plan = plan_step(&table, docs.as_slice(), axis).unwrap();
                for target in [1usize, 2, 3, 7, usize::MAX] {
                    let chunks = plan
                        .shard_runs(target)
                        .iter()
                        .map(|run| plan.eval_shards(run, test))
                        .collect();
                    let merged = plan.merge(chunks).unwrap();
                    prop_assert_eq!(&merged, &whole, "axis {:?} test {:?} target {}", axis, test, target);
                }
            }
        }
    }

    #[test]
    fn errors_are_the_first_bad_row_then_the_first_unknown_document(
        script_a in script(),
        raw in raw_rows(),
        bad_cells in proptest::collection::vec((0usize..40, proptest::bool::ANY), 0..3),
        unknown_docs in proptest::collection::vec((0usize..40, 5u32..9), 0..3),
    ) {
        let docs = vec![Arc::new(random_store("a.xml", &script_a, false))];
        let raw: Vec<(u64, u32, u32)> = raw.into_iter().map(|(i, _, p)| (i, 0, p)).collect();
        let (iters, mut nodes) = context_rows(&docs, &raw);
        prop_assume!(!iters.is_empty());
        for &(row, doc) in &unknown_docs {
            nodes[row % iters.len()].doc = doc;
        }
        let mut iter_cells: Vec<Value> = iters.iter().map(|&i| Value::Nat(i)).collect();
        let mut item_cells: Vec<Value> = nodes.iter().map(|&n| Value::Node(n)).collect();
        for &(row, in_iter) in &bad_cells {
            let row = row % iters.len();
            if in_iter {
                iter_cells[row] = Value::Str(format!("iter{row}"));
            } else {
                item_cells[row] = Value::Int(row as i64);
            }
        }
        // What the step has always reported: rows in order, `iter` before
        // `item`; only then documents, in `(iter, doc)` order.
        let bad_row = (0..iters.len()).find_map(|row| {
            iter_cells[row]
                .as_nat()
                .and_then(|_| item_cells[row].as_node())
                .err()
        });
        let expected = bad_row.or_else(|| {
            let mut keys: Vec<(u64, u32)> =
                iters.iter().zip(&nodes).map(|(&i, n)| (i, n.doc)).collect();
            keys.sort_unstable();
            keys.iter()
                .find(|(_, doc)| *doc != 0)
                .map(|(_, doc)| pathfinder::relational::RelError::new(format!("unknown document id {doc}")))
        });
        let table = Table::new(vec![
            ("iter".into(), Column::items(iter_cells)),
            ("item".into(), Column::items(item_cells)),
        ])
        .unwrap();
        for axis in [Axis::Child, Axis::Descendant, Axis::Parent, Axis::Attribute] {
            let result = staircase_step(&table, docs.as_slice(), axis, &NodeTest::AnyNode);
            prop_assert_eq!(result.err(), expected.clone(), "axis {:?}", axis);
        }
    }
}

fn counted(store: &DocStore, context: &[PreRank], axis: Axis) -> (Vec<PreRank>, StaircaseStats) {
    let (out, stats) = staircase_join_counted(store, context, axis, &NodeTest::AnyElement);
    assert_eq!(stats.results, out.len());
    (out, stats)
}

#[test]
fn child_step_visits_children_not_subtrees() {
    // A root with 60 children, each a chain 25 levels deep.
    let chain = format!("{}{}", "<d>".repeat(25), "</d>".repeat(25));
    let store = DocStore::from_xml("t", &format!("<r>{}</r>", chain.repeat(60))).unwrap();
    let root = store.root_element().unwrap();
    let (out, stats) = counted(&store, &[root], Axis::Child);
    assert_eq!(out.len(), 60);
    assert!(stats.rows_scanned <= 60, "{stats:?}");
    assert_eq!(
        stats.rows_scanned + stats.rows_skipped,
        store.size_of(root) as usize
    );
    // Nested context nodes still visit each child once.
    let (_, stats) = counted(&store, &[root, root + 1, root + 2], Axis::Child);
    assert_eq!(stats.rows_scanned, 60 + 1 + 1, "{stats:?}");
}

#[test]
fn upward_and_sideways_steps_are_linear_in_contexts_plus_children() {
    let store = DocStore::from_xml(
        "t",
        &format!("<r><p>{}</p></r>", "<c><x/></c>".repeat(5000)),
    )
    .unwrap();
    let context = store.children_of(2);
    assert_eq!(context.len(), 5000);
    let (out, stats) = counted(&store, &context, Axis::Parent);
    assert_eq!(out, vec![2]);
    // The document node, r, p, and each child once.
    assert_eq!(stats.rows_scanned, 3 + 5000, "{stats:?}");
    let (out, stats) = counted(&store, &context, Axis::Ancestor);
    assert_eq!(out, vec![1, 2]);
    assert_eq!(stats.rows_scanned, 3 + 5000, "{stats:?}");
    // Siblings: the same walk to find the parent, then one more hop over
    // its children.
    for axis in [Axis::FollowingSibling, Axis::PrecedingSibling] {
        let (out, stats) = counted(&store, &context, axis);
        let expected = match axis {
            Axis::FollowingSibling => &context[1..],
            _ => &context[..4999],
        };
        assert_eq!(out, expected);
        assert!(stats.rows_scanned <= 3 + 2 * 5000, "{axis:?} {stats:?}");
    }
}
