//! Determinism of the morsel-parallel executor on the persistent pool.
//!
//! Intra-operator parallelism must be invisible: partitioned sorts, row
//! numberings, staircase shards and chunked fused pipelines merge
//! deterministically, and plan nodes run in one topological order at
//! every setting, so the serialized result, the row counts, the
//! [`ExecStats`] totals and the resident-row peak of every query are
//! **byte-identical** across
//!
//! * thread counts (`1` — no pool — vs `4`), and
//! * morsel sizes (tiny — every big operator splits into many chunks —
//!   vs the default vs `∞` — no intra-operator partitioning at all).
//!
//! This suite pins that down for all 20 XMark queries plus a
//! constructor-heavy query, comparing every configuration against the
//! single-threaded, unpartitioned reference; the totals include the
//! fusion savings (`fused_ops`, `tables_elided`), so they too are pinned
//! across settings.

use std::sync::Arc;

use pathfinder::engine::{
    EngineOptions, EngineResult, ExecStats, Pathfinder, Profile, QueryResult,
};
use pathfinder::xmark::{generate, queries, GeneratorConfig};

const CONSTRUCTOR_QUERY: &str = r#"for $p in doc("auction.xml")/site/people/person
return element card {
    attribute id { $p/@id },
    element who { $p/name/text() },
    element mail { element inner { $p/emailaddress/text() } },
    text { "person-card" }
}"#;

struct Config {
    threads: usize,
    morsel_rows: usize,
    label: &'static str,
}

const CONFIGS: &[Config] = &[
    Config {
        threads: 1,
        morsel_rows: usize::MAX,
        label: "t1/∞",
    },
    Config {
        threads: 1,
        morsel_rows: 0,
        label: "t1/default",
    },
    Config {
        threads: 1,
        morsel_rows: 2,
        label: "t1/tiny",
    },
    Config {
        threads: 4,
        morsel_rows: usize::MAX,
        label: "t4/∞",
    },
    Config {
        threads: 4,
        morsel_rows: 0,
        label: "t4/default",
    },
    Config {
        threads: 4,
        morsel_rows: 2,
        label: "t4/tiny",
    },
];

fn profiled(pf: &Pathfinder, query: &str) -> EngineResult<(QueryResult, ExecStats)> {
    let outcome = pf.query_with(query, Profile::Stats)?;
    let stats = outcome.stats.expect("Profile::Stats returns stats");
    Ok((outcome.result, stats))
}

fn engine(xml_doc: &Arc<pathfinder::xml::Document>, config: &Config) -> Pathfinder {
    let pf = Pathfinder::with_options(EngineOptions {
        threads: config.threads,
        morsel_rows: config.morsel_rows,
        ..EngineOptions::default()
    });
    pf.load_parsed("auction.xml", xml_doc).unwrap();
    pf
}

/// The setting-independent slice of [`ExecStats`].  The join/aggregate
/// kernel counters are included: build/probe/input row counts depend only
/// on the tables, never on how the probe was morselized.  So is the
/// resident-row peak, because nodes publish and evict in one order; the
/// cell peak is not, because a morselized operator concatenates fresh
/// buffers where the unpartitioned one shares its input's.
type Totals = (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

fn totals(stats: &ExecStats) -> Totals {
    (
        stats.operators_evaluated,
        stats.rows_produced,
        stats.cells_produced,
        stats.evicted_results,
        stats.fused_ops,
        stats.tables_elided,
        stats.join_build_rows,
        stats.join_probe_rows,
        stats.agg_input_rows,
        stats.peak_resident_rows,
    )
}

#[test]
fn all_queries_agree_across_threads_and_morsels() {
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).expect("generated XML is well-formed"));

    let mut query_texts: Vec<(String, String)> = queries()
        .iter()
        .map(|q| (format!("Q{}", q.id), q.text.to_string()))
        .collect();
    query_texts.push(("constructor".into(), CONSTRUCTOR_QUERY.into()));

    // Reference: one thread, unpartitioned.
    let reference_engine = engine(&doc, &CONFIGS[0]);
    let references: Vec<(String, usize, Totals)> = query_texts
        .iter()
        .map(|(name, text)| {
            let (result, stats) = profiled(&reference_engine, text)
                .unwrap_or_else(|e| panic!("{name} failed on the reference: {e}"));
            (result.to_xml(), result.len(), totals(&stats))
        })
        .collect();
    let (_, constructed, _) = references.last().expect("the constructor query ran");
    assert!(*constructed > 0, "constructor query produced no items");
    let tables_elided = |t: &Totals| t.5;
    assert!(
        references.iter().any(|(_, _, t)| tables_elided(t) > 0),
        "fusion never elided a table across the whole XMark set"
    );

    for config in &CONFIGS[1..] {
        let pf = engine(&doc, config);
        for ((name, text), (ref_xml, ref_len, ref_totals)) in query_texts.iter().zip(&references) {
            let (result, stats) = profiled(&pf, text)
                .unwrap_or_else(|e| panic!("{name} failed at {}: {e}", config.label));
            assert_eq!(
                *ref_xml,
                result.to_xml(),
                "{name}: serialization diverges at {}",
                config.label
            );
            assert_eq!(
                *ref_len,
                result.len(),
                "{name}: row count diverges at {}",
                config.label
            );
            assert_eq!(
                *ref_totals,
                totals(&stats),
                "{name}: work totals diverge at {}",
                config.label
            );
        }
        // One pool, however many queries this configuration ran.
        if config.threads > 1 {
            assert_eq!(pf.worker_pool_spawns(), 1, "{}", config.label);
        } else {
            assert_eq!(pf.worker_pool_spawns(), 0, "{}", config.label);
        }
    }
}

#[test]
fn join_heavy_queries_agree_across_the_full_matrix() {
    // Q8–Q12 are the join- and aggregate-heavy XMark queries; their
    // equi-joins build typed hash indexes and probe in morsels, and their
    // counts pre-aggregate per chunk.  The full cross product of thread
    // count × morsel size must serialize byte-identically, and
    // the kernel counters (join build/probe rows, aggregate input rows)
    // must be schedule-independent and non-zero.
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).expect("generated XML is well-formed"));

    for id in 8..=12u8 {
        let q = pathfinder::xmark::query(id).unwrap();
        let mut ref_xml: Option<String> = None;
        let mut ref_kernel: Option<(usize, usize, usize)> = None;
        for threads in [1usize, 4] {
            for morsel_rows in [2usize, 0, usize::MAX] {
                let pf = Pathfinder::with_options(EngineOptions {
                    threads,
                    morsel_rows,
                    ..EngineOptions::default()
                });
                pf.load_parsed("auction.xml", &doc).unwrap();
                let (result, stats) = profiled(&pf, q.text)
                    .unwrap_or_else(|e| panic!("Q{id} failed at t{threads}/m{morsel_rows}: {e}"));
                let xml_out = result.to_xml();
                match &ref_xml {
                    None => ref_xml = Some(xml_out),
                    Some(reference) => assert_eq!(
                        *reference, xml_out,
                        "Q{id}: serialization diverges at t{threads}/m{morsel_rows}"
                    ),
                }
                let kernel = (
                    stats.join_build_rows,
                    stats.join_probe_rows,
                    stats.agg_input_rows,
                );
                match &ref_kernel {
                    None => {
                        assert!(
                            kernel.1 > 0,
                            "Q{id}: a join-heavy query counted no probe rows"
                        );
                        ref_kernel = Some(kernel);
                    }
                    Some(reference) => assert_eq!(
                        *reference, kernel,
                        "Q{id}: kernel counters diverge at t{threads}/m{morsel_rows}"
                    ),
                }
            }
        }
    }
}

#[test]
fn repeated_morselized_runs_are_stable() {
    // Re-running the same query on the same engine (same pool, hot plan
    // cache) must serialize identically every time.
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 7,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).unwrap());
    let pf = Pathfinder::with_options(EngineOptions {
        threads: 4,
        morsel_rows: 2,
        ..EngineOptions::default()
    });
    pf.load_parsed("auction.xml", &doc).unwrap();
    let q8 = pathfinder::xmark::query(8).unwrap();
    let first = pf.session().query(q8.text).expect("first morselized run");
    for _ in 0..3 {
        let again = pf
            .session()
            .query(q8.text)
            .expect("repeated morselized run");
        assert_eq!(first.to_xml(), again.to_xml());
    }
    assert_eq!(pf.worker_pool_spawns(), 1);
}
