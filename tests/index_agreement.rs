//! Index-scan vs. full-scan agreement through `pf-engine`.
//!
//! The `indexscan` optimizer rule replaces recognized content predicates
//! with sidecar-index candidate filters plus the untouched residual
//! predicate.  The rewrite is required to be byte-invisible: every XMark
//! query must serialize identically to the unoptimized plan, which scans,
//! at every thread count.  A second test pins the rule's coverage — the
//! queries it is designed for must actually rewrite — and a third checks
//! that the executor reports index telemetry when a rewritten plan runs.

use std::sync::Arc;

use pathfinder::engine::{EngineOptions, Pathfinder, Profile};
use pathfinder::xmark::{generate, queries, GeneratorConfig};

fn engine(doc: &Arc<pathfinder::xml::Document>, optimize: bool, threads: usize) -> Pathfinder {
    let pf = Pathfinder::with_options(
        EngineOptions::builder()
            .optimize(optimize)
            .threads(threads)
            .build(),
    );
    pf.load_parsed("auction.xml", doc)
        .expect("shredding cannot fail on a parsed document");
    pf
}

#[test]
fn index_scans_serialize_identically_to_full_scans_on_all_xmark_queries() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());

    // Reference: the unoptimized plan (no index scans), sequential.
    let reference = engine(&doc, false, 1);
    let mut expected: Vec<String> = Vec::new();
    for q in queries() {
        let result = reference
            .session()
            .query(q.text)
            .unwrap_or_else(|e| panic!("Q{} failed on the reference engine: {e}", q.id));
        expected.push(result.to_xml());
    }

    for optimize in [false, true] {
        for threads in [1, 4] {
            let pf = engine(&doc, optimize, threads);
            for (q, expected) in queries().iter().zip(&expected) {
                let result = pf.session().query(q.text).unwrap_or_else(|e| {
                    panic!(
                        "Q{} failed (optimize = {optimize}, threads = {threads}): {e}",
                        q.id
                    )
                });
                assert_eq!(
                    *expected,
                    result.to_xml(),
                    "Q{} diverges from the scan reference (optimize = {optimize}, \
                     threads = {threads})",
                    q.id
                );
            }
        }
    }
}

#[test]
fn index_scan_rule_fires_on_the_predicate_queries() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());
    let pf = engine(&doc, true, 1);

    let mut fired: Vec<u8> = Vec::new();
    for q in queries() {
        let explain = pf
            .explain(q.text)
            .unwrap_or_else(|e| panic!("Q{} explain failed: {e}", q.id));
        if explain.report.index_scans_introduced > 0 {
            fired.push(q.id);
        }
    }
    // Q14's contains() predicate is the rewrite's flagship; Q5's numeric
    // range is the value-index counterpart.
    for must in [5, 14] {
        assert!(
            fired.contains(&must),
            "the indexscan rule no longer fires on Q{must} (fired on {fired:?})"
        );
    }
}

#[test]
fn executors_report_index_telemetry_for_rewritten_plans() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());
    let q14 = queries().into_iter().find(|q| q.id == 14).unwrap();

    let on = engine(&doc, true, 1);
    let outcome = on.query_with(q14.text, Profile::Stats).unwrap();
    let stats = outcome.stats.unwrap();
    assert!(
        stats.index_lookups > 0,
        "Q14 ran without a single index probe: {stats:?}"
    );
}
