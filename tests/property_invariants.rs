//! Property-based tests over the core data structures and invariants:
//!
//! * the `pre|size|level` encoding of randomly generated trees,
//! * equivalence of the staircase join and the naive region evaluation on
//!   every recursive axis,
//! * XML escape/parse/serialize round trips,
//! * algebraic properties of the relational operators, and
//! * stability of query results under the peephole optimizer for randomly
//!   shaped (small) FLWOR queries.

use proptest::prelude::*;

use pathfinder::relational::ops::{distinct, equi_join, row_number, union_disjoint};
use pathfinder::relational::{ColId, Column, Table};
use pathfinder::store::{naive_axis_step, staircase_join, Axis, DocStore, NodeTest};
use pathfinder::xml::{parse, Document, DocumentBuilder};

/// The columns these tests name besides the well-known ones; [`col`]
/// gives each a fixed id.
const NAMES: &[&str] = &["item2", "iter2", "rank"];

fn col(name: &str) -> ColId {
    let at = ColId::WELL_KNOWN
        .iter()
        .chain(NAMES)
        .position(|&n| n == name);
    ColId(at.unwrap_or_else(|| panic!("test column `{name}` is not in `NAMES`")) as u32)
}

/// Build a random tree with `spec` interpreted as a nesting script: numbers
/// push children, `true` closes the current element.
fn random_document(script: &[(u8, bool)]) -> Document {
    let mut builder = DocumentBuilder::new();
    let tags = ["a", "b", "c", "item", "person"];
    builder.start_element("root", vec![]);
    let mut depth = 1;
    for (tag_index, close) in script {
        if *close && depth > 1 {
            builder.end_element();
            depth -= 1;
        } else {
            builder.start_element(tags[*tag_index as usize % tags.len()], vec![]);
            depth += 1;
        }
    }
    while depth > 0 {
        builder.end_element();
        depth -= 1;
    }
    builder.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pre_size_level_invariants(script in proptest::collection::vec((0u8..5, proptest::bool::ANY), 1..60)) {
        let doc = random_document(&script);
        let store = DocStore::from_document("t", &doc);
        let n = store.node_count() as u32;
        // The document node covers every other node.
        prop_assert_eq!(store.size_of(0) + 1, n);
        for pre in 0..n {
            let size = store.size_of(pre);
            let level = store.level_of(pre);
            // Subtrees fit inside the document.
            prop_assert!(pre + size < n);
            // Children of pre lie within its subtree and are one level deeper.
            for child in store.children_of(pre) {
                prop_assert!(child > pre && child <= pre + size);
                prop_assert_eq!(store.level_of(child), level + 1);
                prop_assert_eq!(store.parent_of(child), Some(pre));
            }
            // size(v) equals the sum of the children's sizes plus the child count.
            let children = store.children_of(pre);
            let sum: u32 = children.iter().map(|&c| store.size_of(c) + 1).sum();
            prop_assert_eq!(size, sum);
        }
    }

    #[test]
    fn staircase_join_equals_naive_evaluation(
        script in proptest::collection::vec((0u8..5, proptest::bool::ANY), 1..60),
        raw_context in proptest::collection::vec(0u32..60, 1..10),
    ) {
        let doc = random_document(&script);
        let store = DocStore::from_document("t", &doc);
        let n = store.node_count() as u32;
        let mut context: Vec<u32> = raw_context.into_iter().map(|c| c % n).collect();
        context.sort_unstable();
        context.dedup();
        for axis in [Axis::Descendant, Axis::DescendantOrSelf, Axis::Ancestor, Axis::AncestorOrSelf, Axis::Following, Axis::Preceding] {
            for test in [NodeTest::AnyNode, NodeTest::AnyElement, NodeTest::Element("item".into())] {
                let fast = staircase_join(&store, &context, axis, &test);
                let slow = naive_axis_step(&store, &context, axis, &test);
                prop_assert_eq!(fast, slow, "axis {:?} test {:?}", axis, test);
            }
        }
    }

    #[test]
    fn xml_roundtrip_is_stable(script in proptest::collection::vec((0u8..5, proptest::bool::ANY), 1..40), text in "[ a-zA-Z0-9<>&']{0,12}") {
        let mut builder = DocumentBuilder::new();
        builder.start_element("root", vec![pathfinder::xml::Attribute { name: "t".into(), value: text.clone() }]);
        builder.text(text.clone());
        builder.end_element();
        let doc = builder.finish();
        let xml = doc.node_to_xml(doc.root());
        let reparsed = parse(&xml);
        // Whitespace-only text nodes are stripped by the default parser
        // options, so only compare when the text survives.
        if !text.trim().is_empty() {
            let reparsed = reparsed.unwrap();
            prop_assert_eq!(reparsed.node_to_xml(reparsed.root()), xml);
        }
        // Random structural documents always round-trip.
        let doc = random_document(&script);
        let xml = doc.node_to_xml(doc.root());
        let reparsed = parse(&xml).unwrap();
        prop_assert_eq!(reparsed.node_to_xml(reparsed.root()), xml);
    }

    #[test]
    fn relational_operator_properties(
        keys in proptest::collection::vec(0u64..20, 1..40),
        values in proptest::collection::vec(0i64..100, 1..40),
    ) {
        let n = keys.len().min(values.len());
        let table = Table::new(vec![
            (col("iter"), Column::nats(keys[..n].to_vec())),
            (col("item"), Column::ints(values[..n].to_vec())),
        ]).unwrap();

        // distinct is idempotent.
        let d1 = distinct(&table).unwrap();
        let d2 = distinct(&d1).unwrap();
        prop_assert_eq!(d1.row_count(), d2.row_count());
        prop_assert!(d1.row_count() <= table.row_count());

        // union with an empty relation of the same schema is identity.
        let empty = Table::new(vec![
            (col("iter"), Column::nats(vec![])),
            (col("item"), Column::ints(vec![])),
        ]).unwrap();
        let u = union_disjoint(&table, &empty).unwrap();
        prop_assert_eq!(u.row_count(), table.row_count());

        // row numbering assigns 1..k within every partition.
        let numbered = row_number(&table, col("rank"), &[col("item")], Some(col("iter"))).unwrap();
        for row in 0..numbered.row_count() {
            let rank = numbered.value(col("rank"), row).unwrap().as_nat().unwrap();
            prop_assert!(rank >= 1 && rank as usize <= table.row_count());
        }

        // joining on a key with itself (renamed) yields at least the row count
        // of the distinct keys, and every output row has matching key columns.
        let renamed = Table::new(vec![
            (col("iter2"), table.column(col("iter")).unwrap().clone()),
            (col("item2"), table.column(col("item")).unwrap().clone()),
        ]).unwrap();
        let joined = equi_join(&table, &renamed, col("iter"), col("iter2")).unwrap();
        prop_assert!(joined.row_count() >= table.row_count());
        for row in 0..joined.row_count() {
            prop_assert_eq!(
                joined.value(col("iter"), row).unwrap().as_nat().unwrap(),
                joined.value(col("iter2"), row).unwrap().as_nat().unwrap()
            );
        }
    }

    #[test]
    fn optimizer_preserves_results_on_random_arithmetic_flwors(
        items in proptest::collection::vec(-50i64..50, 1..6),
        offset in -100i64..100,
    ) {
        use pathfinder::engine::{EngineOptions, Pathfinder};

        let sequence = items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
        let query = format!("for $v in ({sequence}) return $v + {offset}");
        let optimized = Pathfinder::new();
        let unoptimized = Pathfinder::with_options(EngineOptions { optimize: false, ..Default::default() });
        let a = optimized.session().query(&query).unwrap().to_xml();
        let b = unoptimized.session().query(&query).unwrap().to_xml();
        prop_assert_eq!(&a, &b);
        let expected = items.iter().map(|i| (i + offset).to_string()).collect::<Vec<_>>().join(" ");
        prop_assert_eq!(a, expected);
    }
}
