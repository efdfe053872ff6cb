//! Index-scan vs. full-scan agreement through `pf-engine`.
//!
//! The `indexscan` optimizer rule replaces recognized content predicates
//! with sidecar-index candidate filters plus the untouched residual
//! predicate.  The rewrite is required to be byte-invisible: every XMark
//! query must serialize identically to the unoptimized plan, which
//! scans.  A second test pins the rule's coverage — the
//! queries it is designed for must actually rewrite — and a third checks
//! that the executor reports index telemetry when a rewritten plan runs.
//!
//! An index is rented (`pf_store::index`): it is built only once the rows
//! its scans passed through reach its build cost.  So the telemetry test
//! pins the run that builds, and a fourth test checks agreement on the
//! scanning run, the building run and the run after it.

use std::sync::Arc;

use pathfinder::engine::{EngineOptions, Pathfinder, Profile, QueryOutcome};
use pathfinder::store::DocStore;
use pathfinder::xmark::{generate, queries, GeneratorConfig};

fn engine(doc: &Arc<pathfinder::xml::Document>, optimize: bool) -> Pathfinder {
    let pf = Pathfinder::with_options(EngineOptions::builder().optimize(optimize).build());
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
    let reference = engine(&doc, false);
    let mut expected: Vec<String> = Vec::new();
    for q in queries() {
        let result = reference
            .session()
            .query(q.text)
            .unwrap_or_else(|e| panic!("Q{} failed on the reference engine: {e}", q.id));
        expected.push(result.to_xml());
    }

    for optimize in [false, true] {
        let pf = engine(&doc, optimize);
        for (q, expected) in queries().iter().zip(&expected) {
            let result = pf
                .session()
                .query(q.text)
                .unwrap_or_else(|e| panic!("Q{} failed (optimize = {optimize}): {e}", q.id));
            assert_eq!(
                *expected,
                result.to_xml(),
                "Q{} diverges from the scan reference (optimize = {optimize})",
                q.id
            );
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
    let pf = engine(&doc, true);

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

/// The store registered as `auction.xml` (its clones share its indexes).
fn registered(pf: &Pathfinder) -> Arc<DocStore> {
    let registry = pf.registry();
    registry
        .store(
            registry
                .id_of("auction.xml")
                .expect("auction.xml is loaded"),
        )
        .expect("auction.xml has a store")
}

/// Rows the index scans of a run handed on, from its operator profile:
/// on a run whose scans all passed through, the rows charged to the rent.
fn scanned_rows(outcome: &QueryOutcome) -> usize {
    let ops = outcome.ops.as_ref().expect("run under Profile::Ops");
    ops.entries
        .iter()
        .find(|e| e.kind == "index_scan")
        .map_or(0, |e| e.rows)
}

/// Q14's text index is rented: run 1 scans and builds nothing; every run
/// scans until the rows charged reach the node count, the run that
/// reaches it builds the text index and probes it, and every later run
/// probes it too.
#[test]
fn executors_report_index_telemetry_for_rewritten_plans() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());
    let q14 = queries().into_iter().find(|q| q.id == 14).unwrap();

    let on = engine(&doc, true);
    let store = registered(&on);
    let first = on.query_with(q14.text, Profile::Ops).unwrap();
    let stats = first.stats.unwrap();
    assert_eq!(
        (stats.index_lookups, stats.index_probes_deferred),
        (0, 1),
        "Q14's first run must scan: {stats:?}"
    );
    assert!(store.built_indexes().is_empty(), "run 1 built an index");
    let rows = scanned_rows(&first);
    assert!(rows > 0, "Q14's index scan handed on no rows");
    let break_even = store.node_count().div_ceil(rows);
    assert!(
        break_even > 2,
        "the document must be large enough to scan twice"
    );
    for run in 2..break_even + 3 {
        let stats = on
            .query_with(q14.text, Profile::Stats)
            .unwrap()
            .stats
            .unwrap();
        if run < break_even {
            assert_eq!(
                (stats.index_lookups, stats.index_probes_deferred),
                (0, 1),
                "run {run} of Q14 must scan (break-even at run {break_even}): {stats:?}"
            );
            assert!(store.built_indexes().is_empty(), "run {run} built an index");
        } else {
            assert!(
                stats.index_lookups > 0 && stats.index_probes_deferred == 0,
                "run {run} of Q14 must probe the index (break-even at run {break_even}): {stats:?}"
            );
            assert_eq!(store.built_indexes(), ["text"], "run {run}");
        }
    }
}

/// Q1, Q5, Q14 and Q20 agree byte for byte with the unoptimized plan on
/// the run that scans while the index is unpaid for, on the run that
/// builds it and on the first run after.
#[test]
fn scanning_and_indexed_runs_agree_with_the_unoptimized_plan() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());
    let run = |pf: &Pathfinder, text: &str| {
        pf.session()
            .query(text)
            .map(|r| r.to_xml())
            .map_err(|e| e.to_string())
    };
    for q in queries()
        .into_iter()
        .filter(|q| [1, 5, 14, 20].contains(&q.id))
    {
        let reference = run(&engine(&doc, false), q.text);
        let pf = engine(&doc, true);
        let store = registered(&pf);
        assert_eq!(run(&pf, q.text), reference, "Q{} scanning", q.id);
        assert!(store.built_indexes().is_empty(), "Q{} run 1 built", q.id);
        let mut runs = 1;
        while store.built_indexes().is_empty() {
            runs += 1;
            assert!(
                runs <= store.node_count(),
                "Q{} never builds its index",
                q.id
            );
            let outcome = run(&pf, q.text);
            let label = if store.built_indexes().is_empty() {
                "scanning"
            } else {
                "building"
            };
            assert_eq!(outcome, reference, "Q{} {label} run {runs}", q.id);
        }
        let after = pf.query_with(q.text, Profile::Stats).unwrap();
        assert!(
            after.stats.unwrap().index_lookups > 0,
            "Q{} probes after the build",
            q.id
        );
        assert_eq!(Ok(after.to_xml()), reference, "Q{} after the build", q.id);
    }
}
