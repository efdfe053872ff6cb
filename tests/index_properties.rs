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
//! * **Rental** — a probe builds its index only once the rows its scans
//!   passed through reach the build cost (`pf_store::index`): agreement
//!   holds on the scanning run, the run that builds and the run after it;
//!   concurrent sessions build an index once;
//!   probes that cannot use an index never build one.

use std::sync::Arc;

use proptest::prelude::*;

use pathfinder::engine::{EngineOptions, Pathfinder, Profile};
use pathfinder::relational::ops::{self, CmpOp, UnaryOp};
use pathfinder::relational::Value;
use pathfinder::store::{DocIndexes, DocStore, NodeKindCode, ValueIndex};

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
    let pf = Pathfinder::with_options(EngineOptions::builder().optimize(optimize).build());
    pf.load_parsed("d.xml", doc)
        .expect("shredding cannot fail on a parsed document");
    pf
}

/// The store registered as `d.xml` (its clones share its index table).
fn registered(pf: &Pathfinder) -> Arc<DocStore> {
    let registry = pf.registry();
    registry
        .store(registry.id_of("d.xml").expect("d.xml is loaded"))
        .expect("d.xml has a store")
}

/// One run folded to a comparable `Result<String, String>`.
fn run(pf: &Pathfinder, query: &str) -> Result<String, String> {
    pf.session()
        .query(query)
        .map(|r| r.to_xml())
        .map_err(|e| e.to_string())
}

/// Run `query` without the index path (the unoptimized plan has no index
/// scan) and with it: every run that scans
/// while the probe's index is unpaid for, the run that builds it and the
/// run after.  Every optimized outcome must equal the unoptimized one;
/// the panic names the run.
fn assert_all_paths_agree(xml: &str, query: &str) {
    let doc = Arc::new(pathfinder::xml::parse(xml).expect("generated document is well-formed"));
    let reference = run(&engine(&doc, false), query);
    let agrees = |label: String, outcome| {
        assert_eq!(
            reference, outcome,
            "{label} of {query:?} diverges on {xml:?}"
        );
    };
    let pf = engine(&doc, true);
    let store = registered(&pf);
    agrees("scanning run 1".to_string(), run(&pf, query));
    // Every deferred run charges at least one row, so an index that
    // can be built is built within `cost` runs.
    let cost = store.node_count().max(store.attribute_count());
    for n in 2..=cost + 1 {
        let outcome = run(&pf, query);
        let built = !store.built_indexes().is_empty();
        let kind = if built { "building" } else { "scanning" };
        agrees(format!("{kind} run {n}"), outcome);
        if built {
            agrees("run after the build".to_string(), run(&pf, query));
            break;
        }
    }
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
        assert_all_paths_agree(&xml, &query);
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
        assert_all_paths_agree(&xml, &query);
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
        assert_all_paths_agree(&xml, &query);
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

    /// A query whose only index probe is `@id` scans until the rows it
    /// passed through reach the attribute count, then builds the `@id`
    /// index and no other — no text index, no element index — in the
    /// registered store and every clone of it.  `pad` attributes on `site`
    /// raise the cost above one run's rows, so run 1 scans.
    #[test]
    fn an_id_probe_builds_only_the_id_index(
        xml in document(),
        pad in 0usize..12,
        id in proptest::sample::select(vec!["id0", "id3"]),
    ) {
        let padding: String = (0..pad).map(|i| format!(" p{i}=\"x\"")).collect();
        let xml = xml.replacen("<site>", &format!("<site{padding}>"), 1);
        let items = xml.matches("<item ").count();
        let pf = engine(&Arc::new(pathfinder::xml::parse(&xml).unwrap()), true);
        let store = registered(&pf);
        let clone = DocStore::clone(&store);
        let query = format!("for $i in doc(\"d.xml\")/site/item[@id = \"{id}\"] return $i/name/text()");
        if items == 0 {
            // The name is unknown: nothing is charged, nothing is built.
            for _ in 0..=pad {
                let stats = pf.session().query_with(&query, Profile::Stats).unwrap().stats.unwrap();
                prop_assert_eq!((stats.index_lookups, stats.index_probes_deferred), (0, 0));
            }
            prop_assert!(store.built_indexes().is_empty());
            return;
        }
        // Each run hands on one `@id` row per item.
        let break_even = store.attribute_count().div_ceil(items);
        prop_assert_eq!(break_even, (items + pad).div_ceil(items));
        for n in 1..break_even + 2 {
            let stats = pf.session().query_with(&query, Profile::Stats).unwrap().stats.unwrap();
            if n < break_even {
                prop_assert_eq!((stats.index_lookups, stats.index_probes_deferred), (0, 1), "run {}", n);
                prop_assert!(store.built_indexes().is_empty(), "run {} scans", n);
            } else {
                prop_assert_eq!((stats.index_lookups, stats.index_probes_deferred), (1, 0), "run {}", n);
                prop_assert_eq!(store.built_indexes(), vec!["@id".to_string()], "run {}", n);
                prop_assert_eq!(clone.built_indexes(), vec!["@id".to_string()], "run {}", n);
            }
        }
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
            assert_all_paths_agree(xml, query);
        }
    }
}

/// Probes that cannot use an index charge nothing and build nothing,
/// however often they run: a `contains` needle without alphanumeric
/// content (the shape-keyed plan cache binds it into a plan whose index
/// scan was built for a slot), a value test on a tag with complex content
/// and one on an attribute name the document never uses.
#[test]
fn probes_that_cannot_use_an_index_never_build_one() {
    let xml = "<site><item id=\"a\"><name>gold <b>ring</b></name><price>42</price></item>\
               <item id=\"b\"><name>dust</name><price>7</price></item></site>";
    let doc = Arc::new(pathfinder::xml::parse(xml).unwrap());
    let pf = engine(&doc, true);
    let store = registered(&pf);
    for query in [
        "for $i in doc(\"d.xml\")/site/item where contains(string($i/name), \"...\") return $i/price/text()",
        "for $i in doc(\"d.xml\")/site/item[name = \"dust\"] return $i/price/text()",
        "for $i in doc(\"d.xml\")/site/item[@nope = \"a\"] return $i/name/text()",
    ] {
        let explain = pf.explain(query).unwrap();
        assert!(
            explain.report.index_scans_introduced > 0,
            "{query:?} plans no index scan, so it tests nothing"
        );
        let reference = run(&engine(&doc, false), query);
        // Charged rows would reach any build cost within this many runs.
        for n in 0..=store.node_count() {
            let outcome = pf.session().query_with(query, Profile::Stats);
            let stats = outcome.as_ref().ok().map(|o| o.stats.unwrap());
            let outcome = outcome.map(|o| o.to_xml()).map_err(|e| e.to_string());
            assert_eq!(outcome, reference, "run {n} of {query:?}");
            if let Some(stats) = stats {
                assert_eq!(
                    (stats.index_lookups, stats.index_probes_deferred),
                    (0, 0),
                    "run {n} of {query:?}"
                );
            }
        }
        assert!(store.built_indexes().is_empty(), "{query:?} built an index");
    }
}

/// Four sessions probing one unbuilt index at once build it exactly once:
/// the four runs' rows add up to the cost, so exactly one probe — the one
/// whose charge reaches it — builds and uses the index, and the other
/// three scan.  Every clone of the store sees that one build.
#[test]
fn concurrent_sessions_build_a_rented_index_once() {
    // Four `@id` rows per run against twelve padding attributes: a cost of
    // sixteen rows, paid by four runs.
    let padding: String = (0..12).map(|i| format!(" p{i}=\"x\"")).collect();
    let items: String = (0..4)
        .map(|i| {
            format!(
                "<item id=\"id{}\"><name>n{i}</name><price>{i}</price></item>",
                i % 2
            )
        })
        .collect();
    let xml = format!("<site{padding}>{items}</site>");
    let query = "for $i in doc(\"d.xml\")/site/item[@id = \"id1\"] return $i/name/text()";
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());
    let reference = run(&engine(&doc, false), query);
    for round in 0..8 {
        let pf = engine(&doc, true);
        let store = registered(&pf);
        let clone = DocStore::clone(&store);
        let barrier = std::sync::Barrier::new(4);
        let runs: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let session = pf.session();
                        barrier.wait();
                        session.query_with(query, Profile::Stats).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for outcome in &runs {
            assert_eq!(Ok(outcome.to_xml()), reference, "round {round}");
        }
        let lookups: usize = runs.iter().map(|o| o.stats.unwrap().index_lookups).sum();
        let deferred: usize = runs
            .iter()
            .map(|o| o.stats.unwrap().index_probes_deferred)
            .sum();
        assert_eq!((lookups, deferred), (1, 3), "round {round}");
        assert_eq!(store.built_indexes(), ["@id"], "round {round}");
        assert_eq!(clone.built_indexes(), ["@id"], "round {round}");
        let built: *const ValueIndex = store.attribute_index("id").unwrap();
        assert!(std::ptr::eq(built, clone.attribute_index("id").unwrap()));
    }
}
