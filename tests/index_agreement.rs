//! Index-scan vs. full-scan agreement through `pf-engine`.
//!
//! The `indexscan` optimizer rule replaces recognized content predicates
//! with sidecar-index candidate filters plus the untouched residual
//! predicate.  The rewrite is required to be byte-invisible: every XMark
//! query must serialize identically with indexes on and off, across
//! optimizer levels and thread counts.  A second test pins the rule's
//! coverage — the queries it is designed for must actually rewrite — and a
//! third checks that the executor reports index telemetry when a rewritten
//! plan runs.

use std::sync::Arc;

use pathfinder::engine::{EngineOptions, OptimizerLevel, Pathfinder, Profile};
use pathfinder::xmark::{generate, queries, GeneratorConfig};

fn engine(
    doc: &Arc<pathfinder::xml::Document>,
    level: OptimizerLevel,
    indexes: bool,
    threads: usize,
) -> Pathfinder {
    let level = if indexes {
        level
    } else {
        OptimizerLevel {
            indexscan: false,
            ..level
        }
    };
    let pf = Pathfinder::with_options(
        EngineOptions::builder()
            .optimizer_level(level)
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

    // Reference: no indexes, basic level, sequential.
    let reference = engine(&doc, OptimizerLevel::BASIC, false, 1);
    let mut expected: Vec<String> = Vec::new();
    for q in queries() {
        let result = reference
            .session()
            .query(q.text)
            .unwrap_or_else(|e| panic!("Q{} failed on the reference engine: {e}", q.id));
        expected.push(result.to_xml());
    }

    for level in [OptimizerLevel::BASIC, OptimizerLevel::FULL] {
        for indexes in [false, true] {
            for threads in [1, 4] {
                let pf = engine(&doc, level, indexes, threads);
                for (q, expected) in queries().iter().zip(&expected) {
                    let result = pf.session().query(q.text).unwrap_or_else(|e| {
                        panic!(
                            "Q{} failed (level = {level}, indexes = {indexes}, \
                             threads = {threads}): {e}",
                            q.id
                        )
                    });
                    assert_eq!(
                        *expected,
                        result.to_xml(),
                        "Q{} diverges from the scan reference (level = {level}, \
                         indexes = {indexes}, threads = {threads})",
                        q.id
                    );
                }
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
    let pf = engine(&doc, OptimizerLevel::FULL, true, 1);

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

    // With the rule switched off the same engine configuration must not
    // introduce a single scan.
    let off = engine(&doc, OptimizerLevel::FULL, false, 1);
    for q in queries() {
        let explain = off.explain(q.text).unwrap();
        assert_eq!(
            explain.report.index_scans_introduced, 0,
            "Q{} rewrote despite indexes being disabled",
            q.id
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

    let on = engine(&doc, OptimizerLevel::FULL, true, 1);
    let outcome = on.query_with(q14.text, Profile::Stats).unwrap();
    let stats = outcome.stats.unwrap();
    assert!(
        stats.index_lookups > 0,
        "Q14 ran without a single index probe: {stats:?}"
    );

    let off = engine(&doc, OptimizerLevel::FULL, false, 1);
    let outcome = off.query_with(q14.text, Profile::Stats).unwrap();
    let stats = outcome.stats.unwrap();
    assert_eq!(
        stats.index_lookups, 0,
        "indexes are disabled, yet the executor probed one"
    );
}
