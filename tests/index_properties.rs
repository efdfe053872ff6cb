//! Property tests for the index sidecar: on *random* documents the
//! index-accelerated path must agree with the scan path, and the raw
//! candidate sets must be supersets of the true matches.
//!
//! Two layers are pinned:
//!
//! * **Engine agreement** — a random shop document is queried with the
//!   three rewrite shapes (`contains`, attribute equality, numeric
//!   range) optimized, with index scans, and unoptimized, without; results
//!   (or errors) must be byte-identical.  The generator deliberately
//!   covers empty documents, repeated attribute values, non-numeric
//!   price strings and `Nat` values above `i64::MAX`.
//! * **Candidate supersets** — `evaluate_text_probe` /
//!   `evaluate_value_probe` over the sidecar of a random document must
//!   mark every truly-matching (or erroring) node as a candidate; the
//!   residual predicate can only ever *narrow* a candidate set, so a
//!   missed candidate would silently drop a result row.
//! * **Per-name builds** — each index a store builds on demand equals the
//!   all-at-once `DocIndexes::build` entry, and a query probing only
//!   `@id` builds only that index (shared by the store's clones).

use std::sync::Arc;

use proptest::prelude::*;

use pathfinder::engine::{EngineOptions, Pathfinder};
use pathfinder::relational::ops::{self, CmpOp, UnaryOp};
use pathfinder::relational::Value;
use pathfinder::store::{DocIndexes, DocStore, NodeKindCode};

/// A word pool small enough that repeats (and shared substrings) are
/// common: `goldfish` contains `gold`, `dusty` contains `dust`.
fn word() -> impl Strategy<Value = String> {
    proptest::sample::select(vec!["gold", "goldfish", "dust", "dusty", "red", "bag"])
        .prop_map(str::to_string)
}

/// A price string: small integers, two-decimal doubles, `Nat`s beyond
/// `i64::MAX`, and a non-numeric value (whose `fn:number` cast errors —
/// the index must keep it as a candidate so the error surfaces).
fn price() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..60).prop_map(|n| n.to_string()),
        (0i64..6000).prop_map(|c| format!("{}.{:02}", c / 100, c % 100)),
        (i64::MAX as u64 + 1..u64::MAX).prop_map(|n| n.to_string()),
        Just("n/a".to_string()),
    ]
}

/// A random shop document: zero or more items, ids repeating modulo 4.
fn document() -> impl Strategy<Value = String> {
    proptest::collection::vec((word(), word(), price()), 0..10).prop_map(|items| {
        let mut xml = String::from("<site>");
        for (i, (w1, w2, p)) in items.iter().enumerate() {
            xml.push_str(&format!(
                "<item id=\"id{}\"><name>{w1} {w2}</name><price>{p}</price></item>",
                i % 4
            ));
        }
        xml.push_str("</site>");
        xml
    })
}

fn engine(doc: &Arc<pathfinder::xml::Document>, optimize: bool) -> Pathfinder {
    let pf = Pathfinder::with_options(
        EngineOptions::builder()
            .optimize(optimize)
            .threads(1)
            .build(),
    );
    pf.load_parsed("d.xml", doc)
        .expect("shredding cannot fail on a parsed document");
    pf
}

/// Run `query` with and without the index path (the unoptimized plan has
/// no index scan); fold each outcome to a comparable
/// `Result<String, String>`.
fn both_paths(xml: &str, query: &str) -> (Result<String, String>, Result<String, String>) {
    let doc = Arc::new(pathfinder::xml::parse(xml).expect("generated document is well-formed"));
    let run = |optimize| {
        engine(&doc, optimize)
            .session()
            .query(query)
            .map(|r| r.to_xml())
            .map_err(|e| e.to_string())
    };
    (run(false), run(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `contains()` over random documents: indexed == scan, including
    /// needles that match nothing, match everything, differ only in
    /// case (the token index is case-folded, `fn:contains` is not), or
    /// are substrings of longer tokens.
    #[test]
    fn contains_agrees_between_index_and_scan(
        xml in document(),
        needle in proptest::sample::select(vec!["gold", "GOLD", "old", "dust fish", "zzz", "d"]),
    ) {
        let query = format!(
            "for $i in doc(\"d.xml\")/site//item \
             where contains(string($i/name), \"{needle}\") \
             return $i/price/text()"
        );
        let (scan, indexed) = both_paths(&xml, &query);
        prop_assert_eq!(scan, indexed);
    }

    /// Attribute equality over repeated values: indexed == scan.
    #[test]
    fn attribute_equality_agrees_between_index_and_scan(
        xml in document(),
        id in proptest::sample::select(vec!["id0", "id3", "id9", ""]),
    ) {
        let query = format!(
            "for $i in doc(\"d.xml\")/site/item[@id = \"{id}\"] return $i/name/text()"
        );
        let (scan, indexed) = both_paths(&xml, &query);
        prop_assert_eq!(scan, indexed);
    }

    /// Numeric range predicates: indexed == scan, including bounds that
    /// only huge `Nat` prices exceed and documents whose `n/a` price
    /// makes `fn:number` error on both paths identically.
    #[test]
    fn numeric_range_agrees_between_index_and_scan(
        xml in document(),
        bound in prop_oneof![
            (0i64..80).prop_map(|b| b.to_string()),
            Just((i64::MAX as u64 + 2).to_string()),
        ],
        op in proptest::sample::select(vec![">=", "<", "="]),
    ) {
        let query = format!(
            "count(for $i in doc(\"d.xml\")/site/item \
             where number($i/price) {op} {bound} \
             return $i/price)"
        );
        let (scan, indexed) = both_paths(&xml, &query);
        prop_assert_eq!(scan, indexed);
    }

    /// Every node whose string value case-sensitively contains the
    /// needle must be a text-index candidate (the candidate set is a
    /// case-folded superset; the residual only narrows).
    #[test]
    fn text_candidates_are_a_superset_of_contains_matches(
        xml in document(),
        needle in proptest::sample::select(vec!["gold", "old", "dust fish", "zzz", "d", "Gold"]),
    ) {
        let store = DocStore::from_xml("d.xml", &xml).unwrap();
        let Some(cands) = ops::evaluate_text_probe(store.text_index(), needle) else {
            // No alphanumeric fragment: the executor keeps every row.
            return;
        };
        for pre in 0..store.node_count() as u32 {
            if store.string_value(pre).contains(needle) {
                prop_assert!(
                    ops::text_row_is_candidate(&store, &cands, pre),
                    "node {pre} ({:?}) matches {needle:?} but is not a candidate",
                    store.string_value(pre)
                );
            }
        }
    }

    /// Every element whose content matches — or errors under — the
    /// replicated `fn:number` + compare pipeline must be a value-index
    /// candidate.
    #[test]
    fn value_candidates_are_a_superset_of_range_matches(
        xml in document(),
        bound in prop_oneof![
            (0u64..80).prop_map(Value::Nat),
            Just(Value::Nat(i64::MAX as u64 + 2)),
            (0.0f64..60.0).prop_map(Value::Dbl),
        ],
        op in proptest::sample::select(vec![CmpOp::Ge, CmpOp::Lt, CmpOp::Eq]),
    ) {
        let store = DocStore::from_xml("d.xml", &xml).unwrap();
        let Some(index) = store.element_index("price") else {
            // No <price> element in this document: nothing to check.
            return;
        };
        let cands = ops::evaluate_value_probe(index, &store.texts, op, &bound, true);
        for pre in 0..store.node_count() as u32 {
            if store.kind_of(pre) != NodeKindCode::Element || store.tag_of(pre) != "price" {
                continue;
            }
            let content = store.string_value(pre);
            let must_keep = match ops::map::apply_unary(UnaryOp::ToNumber, &Value::Str(content.clone())) {
                Err(_) => true, // cast error must surface in the residual
                Ok(n) => match n.compare(&bound) {
                    Err(_) => true,
                    Ok(ordering) => op.matches(ordering),
                },
            };
            if must_keep {
                prop_assert!(
                    cands.contains_pre(pre),
                    "price node {pre} ({content:?}) matches {op:?} {bound:?} but is not a candidate"
                );
            }
        }
    }

    /// Attribute equality candidates: every attribute value equal to the
    /// probed literal must appear in the candidate value set (attribute
    /// steps test membership on the *string*, not the pre rank).
    #[test]
    fn attribute_candidates_cover_equal_values(
        xml in document(),
        id in proptest::sample::select(vec!["id0", "id3", ""]),
    ) {
        let store = DocStore::from_xml("d.xml", &xml).unwrap();
        let Some(index) = store.attribute_index("id") else {
            return;
        };
        let cands = ops::evaluate_value_probe(
            index,
            &store.texts,
            CmpOp::Eq,
            &Value::Str(id.to_string()),
            false,
        );
        for attr in 0..store.attribute_count() {
            if store.attr_name_of(attr) == "id" && store.attr_value_of(attr) == id {
                prop_assert!(
                    cands.values(index, &store.texts).any(|v| v == id),
                    "attribute value {id:?} exists but is missing from the candidates"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every index a store builds on demand, one name at a time, equals
    /// that name's entry of the all-at-once bundle — and so does the text
    /// index.
    #[test]
    fn per_name_indexes_equal_the_bundle(xml in document()) {
        let store = DocStore::from_xml("d.xml", &xml).unwrap();
        let bundle = DocIndexes::build(&store);
        for (name, tag) in store.qnames.iter() {
            prop_assert_eq!(store.element_index(tag), bundle.elem_values.get(&name), "{}", tag);
            prop_assert_eq!(store.attribute_index(tag), bundle.attr_values.get(&name), "@{}", tag);
        }
        prop_assert_eq!(store.text_index(), &bundle.text);
    }

    /// A query whose only index probe is `@id` leaves the registered
    /// store (and every clone of it) with the `@id` index built and no
    /// other: no text index, no element index.
    #[test]
    fn an_id_probe_builds_only_the_id_index(
        xml in document(),
        id in proptest::sample::select(vec!["id0", "id3"]),
    ) {
        let pf = engine(
            &Arc::new(pathfinder::xml::parse(&xml).unwrap()),
            true,
        );
        let registry = pf.registry();
        let store = registry.store(registry.id_of("d.xml").unwrap()).unwrap();
        let clone = DocStore::clone(&store);
        pf.session()
            .query(&format!("for $i in doc(\"d.xml\")/site/item[@id = \"{id}\"] return $i/name/text()"))
            .unwrap();
        let expected: Vec<String> = match store.qnames.lookup("id") {
            Some(_) => vec!["@id".to_string()],
            None => Vec::new(), // no item: the name is unknown, nothing to build
        };
        prop_assert_eq!(store.built_indexes(), expected.clone());
        prop_assert_eq!(clone.built_indexes(), expected);
    }
}

/// The degenerate corners outside the generator's reach: a document with
/// no items at all and a document whose every value collides.
#[test]
fn empty_and_all_equal_documents_agree() {
    for xml in [
        "<site></site>",
        "<site><item id=\"a\"><name>gold</name><price>42</price></item>\
         <item id=\"a\"><name>gold</name><price>42</price></item>\
         <item id=\"a\"><name>gold</name><price>42</price></item></site>",
    ] {
        for query in [
            "for $i in doc(\"d.xml\")/site//item \
             where contains(string($i/name), \"gold\") return $i/price/text()",
            "for $i in doc(\"d.xml\")/site/item[@id = \"a\"] return $i/name/text()",
            "count(for $i in doc(\"d.xml\")/site/item \
             where number($i/price) >= 40 return $i/price)",
        ] {
            let (scan, indexed) = both_paths(xml, query);
            assert_eq!(scan, indexed, "query {query:?} diverges on {xml:?}");
        }
    }
}
