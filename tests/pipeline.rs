//! Integration tests of the full stack: storage, compilation stages,
//! staircase-join statistics, the XMark kit and the engine façade.

use pathfinder::engine::{EngineOptions, Pathfinder};
use pathfinder::store::{staircase_join_counted, Axis, DocStore, NodeTest, StorageStats};
use pathfinder::xmark::{generate, generate_stats, queries, GeneratorConfig, QueryClass};
use pathfinder::xquery::CompileOptions;

#[test]
fn xmark_documents_shred_and_account_storage() {
    let config = GeneratorConfig {
        scale: 0.01,
        seed: 99,
    };
    let xml = generate(&config);
    let stats = generate_stats(&config);
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    // Structural sanity of the shredded document.
    assert!(store.node_count() > 10 * stats.persons);
    assert_eq!(store.level_of(0), 0);
    assert_eq!(store.tag_of(store.root_element().unwrap()), "site");
    // Storage accounting reports a complete breakdown.
    let storage = StorageStats::measure(&store);
    assert_eq!(storage.source_bytes, xml.len());
    assert!(storage.total_bytes() > 0);
    let overhead = storage.overhead_percent().unwrap();
    assert!(
        overhead > 50.0 && overhead < 300.0,
        "implausible overhead {overhead}"
    );
}

#[test]
fn staircase_join_prunes_and_skips_on_xmark_documents() {
    let xml = generate(&GeneratorConfig {
        scale: 0.01,
        seed: 3,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let everything: Vec<u32> = (0..store.node_count() as u32).collect();
    let (result, stats) =
        staircase_join_counted(&store, &everything, Axis::Descendant, &NodeTest::AnyElement);
    // With every node as context, pruning must collapse the context to the
    // document node and scan each row at most once.
    assert_eq!(stats.pruned_context, 1);
    assert!(stats.rows_scanned <= store.node_count());
    assert_eq!(
        result.len(),
        (0..store.node_count() as u32)
            .filter(|&p| NodeTest::AnyElement.matches(&store, p))
            .count()
    );
}

#[test]
fn explain_exposes_the_compilation_stages() {
    let xml = generate(&GeneratorConfig {
        scale: 0.005,
        seed: 5,
    });
    let pf = Pathfinder::new();
    pf.load_document("auction.xml", &xml).unwrap();
    for q in queries() {
        let explain = pf.explain(q.text).unwrap();
        assert!(
            explain.report.operators_after <= explain.report.operators_before,
            "Q{}",
            q.id
        );
        assert!(explain.unoptimized.operator_count() >= explain.optimized.operator_count());
        if q.class == QueryClass::Join {
            assert!(
                explain.joins_recognized >= 1,
                "Q{} should compile into a join plan",
                q.id
            );
        }
        // Plans render in both formats.
        assert!(explain.plan_ascii().lines().count() > 1);
        assert!(explain.plan_dot().contains("digraph"));
    }
}

#[test]
fn join_recognition_avoids_quadratic_intermediates() {
    // Structural ablation: with join recognition the Q8 plan contains an
    // equi-join between the two key relations; without it the inner
    // sequence is lifted through a cross product with the outer loop.
    let q8 = pathfinder::xmark::query(8).unwrap();
    let with = Pathfinder::new().explain(q8.text).unwrap();
    let without = Pathfinder::with_options(EngineOptions {
        compile: CompileOptions {
            join_recognition: false,
        },
        optimize: true,
        ..Default::default()
    })
    .explain(q8.text)
    .unwrap();
    assert!(with.joins_recognized > without.joins_recognized);
    let histogram = |plan: &pathfinder::algebra::Plan, name: &str| {
        plan.operator_histogram()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .unwrap_or(0)
    };
    // The unrecognized plan needs one more staircase step chain (the inner
    // document path is compiled under the outer loop).
    assert!(histogram(&without.optimized, "step") >= histogram(&with.optimized, "step"));
}

#[test]
fn timings_are_reported_and_queries_are_repeatable() {
    let xml = generate(&GeneratorConfig {
        scale: 0.005,
        seed: 11,
    });
    let pf = Pathfinder::new();
    pf.load_document("auction.xml", &xml).unwrap();
    let q = pathfinder::xmark::query(8).unwrap();
    let first = pf.session().query(q.text).unwrap();
    let second = pf.session().query(q.text).unwrap();
    assert_eq!(first.to_xml(), second.to_xml(), "repeated runs must agree");
    assert!(first.timings().total().as_nanos() > 0);
    assert!(!first.is_empty());
}

#[test]
fn engine_reports_errors_for_bad_input() {
    let pf = Pathfinder::new();
    assert!(pf.load_document("bad.xml", "<a><b></a>").is_err());
    assert!(pf.session().query("for $x in").is_err());
    assert!(pf.session().query("frobnicate(1)").is_err());
    assert!(pf.session().query("$undefined + 1").is_err());
    assert!(pf.session().query("fn:doc(\"missing.xml\")//a").is_err());
}

#[test]
fn scale_factors_change_document_and_query_results_monotonically() {
    let small = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 1,
    });
    let large = generate(&GeneratorConfig {
        scale: 0.02,
        seed: 1,
    });
    let pf_small = Pathfinder::new();
    pf_small.load_document("auction.xml", &small).unwrap();
    let pf_large = Pathfinder::new();
    pf_large.load_document("auction.xml", &large).unwrap();
    let count_query = "fn:count(fn:doc(\"auction.xml\")/site/people/person)";
    let small_count: i64 = pf_small
        .session()
        .query(count_query)
        .unwrap()
        .to_xml()
        .parse()
        .unwrap();
    let large_count: i64 = pf_large
        .session()
        .query(count_query)
        .unwrap()
        .to_xml()
        .parse()
        .unwrap();
    assert!(large_count > 3 * small_count);
}
