//! Concurrent serving must be invisible in the results.
//!
//! One engine serves many queries at once: sessions share the plan cache
//! and the document registry, each query runs on its session's thread,
//! and every admitted query reads a frozen registry snapshot.  None of
//! that may change a single byte of output.  This suite pins down the
//! three contracts:
//!
//! * **Agreement** — N sessions running the whole XMark set concurrently
//!   (each in a different order) serialize byte-identically to a
//!   sequential run on a fresh engine.
//! * **Snapshot isolation** — documents reloaded *while queries are in
//!   flight* never tear an admitted query's reads: a query that scans the
//!   same document twice always sees one version, even though the
//!   registry flips between versions under it.
//! * **Admission control** — with the memory budget saturated, the next
//!   query with a known footprint demonstrably queues (it is *waiting*,
//!   not running) and completes once budget frees up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pathfinder::engine::{EngineOptions, Pathfinder, Profile};
use pathfinder::xmark::{generate, queries, GeneratorConfig};

const SESSIONS: usize = 4;

#[test]
fn concurrent_sessions_agree_with_a_sequential_run() {
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).expect("generated XML is well-formed"));

    // Sequential reference on its own engine.
    let reference_engine = Pathfinder::new();
    reference_engine.load_parsed("auction.xml", &doc).unwrap();
    let reference: Vec<String> = queries()
        .iter()
        .map(|q| {
            reference_engine
                .session()
                .query(q.text)
                .unwrap_or_else(|e| panic!("Q{} failed sequentially: {e}", q.id))
                .to_xml()
        })
        .collect();

    // N sessions on one shared engine, all running the whole set
    // concurrently — each starting at a different offset so the in-flight
    // mix differs the whole time.
    let pf = Pathfinder::new();
    pf.load_parsed("auction.xml", &doc).unwrap();
    std::thread::scope(|scope| {
        for offset in 0..SESSIONS {
            let session = pf.session();
            let reference = &reference;
            scope.spawn(move || {
                let qs = queries();
                for i in 0..qs.len() {
                    let q = &qs[(i + offset * 5) % qs.len()];
                    let result = session
                        .query(q.text)
                        .unwrap_or_else(|e| panic!("Q{} failed concurrently: {e}", q.id));
                    assert_eq!(
                        reference[(i + offset * 5) % qs.len()],
                        result.to_xml(),
                        "Q{} diverges under concurrent serving (session offset {offset})",
                        q.id
                    );
                }
            });
        }
    });
}

/// Four sessions bind one cached template at once, each with its own
/// literals: every reply is the one a plan-cache-free engine gives, and
/// no request compiles anything.
#[test]
fn sessions_binding_one_shape_at_once_agree() {
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 30,
    });
    let query = |person: usize| {
        format!(
            r#"for $b in doc("auction.xml")/site/people/person[@id = "person{person}"] return $b/name/text()"#
        )
    };
    let rounds = 6;
    let reference_engine =
        Pathfinder::with_options(EngineOptions::builder().plan_cache_capacity(0).build());
    reference_engine.load_document("auction.xml", &xml).unwrap();
    let reference = |person: usize| {
        reference_engine
            .session()
            .query(&query(person))
            .unwrap()
            .to_xml()
    };

    let shared = Pathfinder::new();
    shared.load_document("auction.xml", &xml).unwrap();
    shared.session().query(&query(999)).unwrap();
    let barrier = std::sync::Barrier::new(SESSIONS);
    let replies: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let session = shared.session();
                let barrier = &barrier;
                let query = &query;
                scope.spawn(move || {
                    barrier.wait();
                    (0..rounds)
                        .map(|round| {
                            let person = s * rounds + round;
                            (person, session.query(&query(person)).unwrap().to_xml())
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (person, reply) in replies.into_iter().flatten() {
        assert_eq!(reply, reference(person), "person{person}");
    }
    assert_eq!(shared.plan_shape_hits(), SESSIONS * rounds);
    assert_eq!(shared.plan_cache_stats(), (SESSIONS * rounds, 1));
}

#[test]
fn reloads_during_in_flight_queries_do_not_tear_snapshots() {
    // Version A has 1 <b>, version B has 3: a query that counts twice in
    // one evaluation must see the *same* version both times, so the only
    // possible answers are 11 and 33 — a 13 or 31 is a torn snapshot.
    let torn_detector = "fn:count(fn:doc(\"d.xml\")//b) * 10 + fn:count(fn:doc(\"d.xml\")//b)";
    let pf = Pathfinder::new();
    pf.load_document("d.xml", "<a><b/></a>").unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let pf = &pf;
        let stop = &stop;
        // The loader flips the document between the two versions.
        scope.spawn(move || {
            let mut version = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let xml = if version.is_multiple_of(2) {
                    "<a><b/><b/><b/></a>"
                } else {
                    "<a><b/></a>"
                };
                pf.load_document("d.xml", xml).unwrap();
                version += 1;
            }
        });
        for _ in 0..2 {
            let session = pf.session();
            scope.spawn(move || {
                for _ in 0..150 {
                    let out = session.query(torn_detector).unwrap().to_xml();
                    assert!(
                        out == "11" || out == "33",
                        "torn snapshot: both counts must see one version, got {out}"
                    );
                }
            });
        }
        // Scoped: the query threads finish first in program order below.
        scope.spawn(move || {
            // Give the queriers a moment against the loader, then stop it.
            std::thread::sleep(std::time::Duration::from_millis(200));
            stop.store(true, Ordering::Relaxed);
        });
    });
    stop.store(true, Ordering::Relaxed);
}

#[test]
fn a_query_with_a_known_footprint_queues_when_the_budget_is_saturated() {
    let pf = Pathfinder::with_options(EngineOptions::builder().memory_budget_rows(1_000).build());
    pf.load_document("d.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
        .unwrap();
    let q = "for $b in fn:doc(\"d.xml\")//b return fn:string($b)";

    // Warm run: records the plan's real peak_resident_rows, so the next
    // run is admitted against a non-zero estimate.
    let warm = pf.query_with(q, Profile::Stats).unwrap();
    let peak = warm.stats.unwrap().peak_resident_rows;
    assert!(peak > 0, "the FLWOR holds intermediate rows");
    let expected = warm.to_xml();

    // Saturate the budget from the outside (standing in for a running
    // heavy query), then submit the warm query from another session.
    let saturating = pf.admission().admit(1_000);
    let finished = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pf = &pf;
        let finished = &finished;
        let expected = &expected;
        scope.spawn(move || {
            let out = pf.session().query(q).unwrap();
            assert_eq!(&out.to_xml(), expected);
            finished.store(true, Ordering::SeqCst);
        });
        // The query registers as waiting — it is queued, not running.
        while pf.admission().stats().waiting == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !finished.load(Ordering::SeqCst),
            "query ran although the budget was saturated"
        );
        let stats = pf.admission().stats();
        assert_eq!(stats.waiting, 1);
        assert_eq!(stats.running, 1);
        assert_eq!(stats.charged_rows, 1_000);
        // Free the budget: the queued query is admitted and completes.
        drop(saturating);
    });
    assert!(finished.load(Ordering::SeqCst));
    let stats = pf.admission().stats();
    assert_eq!(stats.waited, 1);
    assert_eq!(stats.waiting, 0);
    assert_eq!(stats.running, 0);
}

#[test]
fn a_cold_plan_queues_on_its_shape_estimate() {
    // A plan that has NEVER executed has no recorded peak — it used to be
    // admitted at estimate 0 and sail past a saturated budget.  The cold
    // estimate is now seeded from the plan shape (the referenced
    // document's node count), so the very first run queues like a warm
    // one.
    let pf = Pathfinder::with_options(EngineOptions::builder().memory_budget_rows(1_000).build());
    pf.load_document("d.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
        .unwrap();
    let q = "for $b in fn:doc(\"d.xml\")//b return fn:string($b)";
    // Reference output from a separate engine, so `pf`'s plan cache stays
    // cold (a run on `pf` itself would record a peak).
    let reference = {
        let fresh = Pathfinder::new();
        fresh
            .load_document("d.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
            .unwrap();
        fresh.session().query(q).unwrap().to_xml()
    };

    let saturating = pf.admission().admit(1_000);
    let finished = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let pf = &pf;
        let finished = &finished;
        let reference = &reference;
        scope.spawn(move || {
            let out = pf.session().query(q).unwrap();
            assert_eq!(&out.to_xml(), reference);
            finished.store(true, Ordering::SeqCst);
        });
        // The cold query registers as waiting instead of slipping through
        // at estimate 0.
        while pf.admission().stats().waiting == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !finished.load(Ordering::SeqCst),
            "cold query ran although the budget was saturated"
        );
        assert_eq!(pf.admission().stats().waiting, 1);
        drop(saturating);
    });
    assert!(finished.load(Ordering::SeqCst));
    assert_eq!(pf.admission().stats().waited, 1);
}

#[test]
fn q11_counted_by_rank_fits_a_budget_its_pair_table_does_not() {
    // Admission charges a warm plan its measured peak_resident_rows.  With
    // the count taken by rank Q11 never holds the (outer, aid) pair table,
    // so under a budget of four times its footprint it runs beside another
    // query at once — where the same query, unoptimized (θ-join, δ,
    // scaffolding, count), has to wait for the budget.
    let xml = generate(&GeneratorConfig {
        scale: 0.05,
        seed: 17,
    });
    let q11 = queries().into_iter().find(|q| q.id == 11).unwrap().text;
    let engine = |optimize: bool, budget: usize| {
        let options = EngineOptions::builder()
            .optimize(optimize)
            .memory_budget_rows(budget);
        let pf = Pathfinder::with_options(options.build());
        pf.load_document("auction.xml", &xml).unwrap();
        // Warm run: records the plan's measured peak.
        let warm = pf.query_with(q11, Profile::Stats).unwrap();
        (pf, warm.stats.unwrap().peak_resident_rows, warm.to_xml())
    };
    let (_, ranked_peak, expected) = engine(true, usize::MAX);
    let budget = 4 * ranked_peak;
    let (ranked, _, _) = engine(true, budget);
    let (pairs, pairs_peak, pairs_xml) = engine(false, budget);
    assert_eq!(pairs_xml, expected);
    assert!(
        pairs_peak > budget,
        "the pair table ({pairs_peak} rows) dwarfs the ranked plan ({ranked_peak} rows)"
    );

    // Ranked: admitted beside a running query, never waits.
    let running = ranked.admission().admit(1);
    assert_eq!(ranked.session().query(q11).unwrap().to_xml(), expected);
    assert_eq!(ranked.admission().stats().waited, 0);
    drop(running);

    // Pairs: queues until the running query releases its share.
    let running = pairs.admission().admit(1);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| pairs.session().query(q11).unwrap().to_xml());
        while pairs.admission().stats().waiting == 0 {
            std::thread::yield_now();
        }
        drop(running);
        assert_eq!(worker.join().unwrap(), expected);
    });
    assert_eq!(pairs.admission().stats().waited, 1);
}

#[test]
fn admitted_queries_keep_their_snapshot_across_a_reload() {
    // Deterministic version of the isolation contract: admission happens
    // at query start, so a load *between* two queries is visible, but the
    // engine registry changing *after* admission is not.  We simulate the
    // in-flight case directly through the registry snapshot the engine
    // takes per query.
    let pf = Pathfinder::new();
    pf.load_document("d.xml", "<a><b/></a>").unwrap();
    let before = pf.registry().snapshot();
    pf.load_document("d.xml", "<a><b/><b/><b/></a>").unwrap();
    // The pre-reload snapshot still resolves the old version (document
    // node + <a> + one <b>)…
    assert_eq!(before.store(0).unwrap().node_count(), 3);
    // …while new queries see the reload.
    assert_eq!(
        pf.session()
            .query("fn:count(fn:doc(\"d.xml\")//b)")
            .unwrap()
            .to_xml(),
        "3"
    );
}
