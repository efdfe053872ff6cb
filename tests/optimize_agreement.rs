//! Optimized vs. unoptimized plan agreement through `pf-engine`.
//!
//! The existing suites compare the relational engine against the
//! navigational baseline; this one closes the remaining gap by executing
//! the *same* compiled plan twice — once as the loop-lifting compiler
//! produced it and once after peephole optimization — through the plan
//! executor, and asserting that both runs produce identical results for
//! every XMark query.  Both plans run against one shared document registry,
//! so the comparison exercises exactly the executor path (including
//! last-use eviction on the much larger unoptimized DAGs).
//!
//! The join-graph-isolation half of the suite pins the `full` optimizer
//! level: every XMark query must serialize **byte-identically** under
//! `basic` and `full` at 1 and 4 threads (plus morsel sizes on the
//! join-heavy queries), the full level's *unshare* must never lower the
//! fused share, and each isolation rule — pushdown, dedup/unshare,
//! reorder — carries its own property test over randomized literal-table
//! plans.

use std::sync::Arc;

use proptest::prelude::*;

use pathfinder::algebra::{
    optimize, optimize_analyzed, optimize_with, optimize_with_verify, AlgOp, CardEstimate, NoStats,
    OpId, OptimizerLevel, Plan, PlanBuilder, StatsSource,
};
use pathfinder::engine::{
    DocRegistry, EngineOptions, ExecStats, Executor, Pathfinder, Profile, QueryResult, Timings,
};
use pathfinder::relational::Value;
use pathfinder::store::{DocStatistics, DocStore};
use pathfinder::xmark::{generate, queries, GeneratorConfig};
use pathfinder::xquery::{compile, normalize, parse_query, CompileOptions};

#[test]
fn optimized_and_unoptimized_plans_agree_on_all_xmark_queries() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let registry = DocRegistry::new();
    registry.load_xml("auction.xml", &xml).unwrap();

    for q in queries() {
        let ast = parse_query(q.text).unwrap_or_else(|e| panic!("Q{} parse failed: {e}", q.id));
        let core = normalize(&ast).unwrap_or_else(|e| panic!("Q{} normalize failed: {e}", q.id));
        let compiled = compile(&core, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("Q{} compile failed: {e}", q.id));

        let unoptimized = compiled.plan.clone();
        let mut optimized = compiled.plan;
        optimize(&mut optimized);
        assert!(
            optimized.operator_count() <= unoptimized.operator_count(),
            "Q{}: optimization grew the plan",
            q.id
        );

        let raw_table = Executor::new(&registry)
            .run(&unoptimized)
            .unwrap_or_else(|e| panic!("Q{} unoptimized plan failed: {e}", q.id));
        let opt_table = Executor::new(&registry)
            .run(&optimized)
            .unwrap_or_else(|e| panic!("Q{} optimized plan failed: {e}", q.id));

        // Identical shape…
        assert_eq!(
            raw_table.row_count(),
            opt_table.row_count(),
            "Q{}: row counts diverge between optimized and unoptimized plans",
            q.id
        );
        // …and identical serialized content (constructed nodes get fresh
        // transient document ids per run, so the tables are compared through
        // the serializer, which resolves node references).
        let raw = QueryResult::from_table(Arc::new(raw_table), &registry, Timings::default())
            .unwrap_or_else(|e| panic!("Q{} unoptimized serialization failed: {e}", q.id));
        let opt = QueryResult::from_table(Arc::new(opt_table), &registry, Timings::default())
            .unwrap_or_else(|e| panic!("Q{} optimized serialization failed: {e}", q.id));
        assert_eq!(
            raw.to_xml(),
            opt.to_xml(),
            "Q{}: optimized and unoptimized plans disagree",
            q.id
        );
        assert_eq!(raw.len(), opt.len(), "Q{}: item counts diverge", q.id);
    }
}

#[test]
fn eviction_does_not_change_results_on_shared_dags() {
    // The unoptimized Q8 plan is the paper's 120-operator showcase; running
    // it with stats exercises eviction on a heavily shared DAG.
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 7,
    });
    let registry = DocRegistry::new();
    registry.load_xml("auction.xml", &xml).unwrap();
    let q = pathfinder::xmark::query(8).unwrap();
    let ast = parse_query(q.text).unwrap();
    let core = normalize(&ast).unwrap();
    let plan = compile(&core, &CompileOptions::default()).unwrap().plan;

    let (table, stats) = Executor::new(&registry).run_with_stats(&plan).unwrap();
    assert!(stats.evicted_results > 0, "no intermediate was evicted");
    assert!(
        stats.peak_resident_rows <= stats.rows_produced,
        "peak exceeds the retain-everything total"
    );
    let (again, _) = Executor::new(&registry).run_with_stats(&plan).unwrap();
    let a = QueryResult::from_table(Arc::new(table), &registry, Timings::default()).unwrap();
    let b = QueryResult::from_table(Arc::new(again), &registry, Timings::default()).unwrap();
    assert_eq!(a.to_xml(), b.to_xml());
}

/// One engine per (level, threads) cell, all sharing the parsed document.
fn level_engines(xml: &str) -> Vec<((OptimizerLevel, usize), Pathfinder)> {
    let doc = Arc::new(pathfinder::xml::parse(xml).expect("generated XML is well-formed"));
    let mut engines = Vec::new();
    for level in [OptimizerLevel::BASIC, OptimizerLevel::FULL] {
        for threads in [1usize, 4] {
            let pf = Pathfinder::with_options(
                EngineOptions::builder()
                    .optimizer_level(level)
                    .threads(threads)
                    .build(),
            );
            pf.load_parsed("auction.xml", &doc).unwrap();
            engines.push(((level, threads), pf));
        }
    }
    engines
}

#[test]
fn full_and_basic_levels_agree_on_all_xmark_queries() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let engines = level_engines(&xml);
    let mut pushed = 0usize;
    let mut deduped = 0usize;
    let mut unshared = 0usize;
    for q in queries() {
        let mut reference: Option<String> = None;
        for ((level, threads), pf) in &engines {
            let outcome = pf.query_with(q.text, Profile::None).unwrap_or_else(|e| {
                panic!(
                    "Q{} failed at level = {level}, threads = {threads}: {e}",
                    q.id
                )
            });
            let xml_out = outcome.to_xml();
            match &reference {
                None => reference = Some(xml_out),
                Some(expected) => assert_eq!(
                    *expected, xml_out,
                    "Q{}: serialization diverges at level = {level}, threads = {threads}",
                    q.id
                ),
            }
            let report = outcome.timings().optimizer;
            if *level == OptimizerLevel::FULL {
                pushed += report.predicates_pushed;
                deduped += report.subplans_deduped;
                unshared += report.chains_unshared;
            } else {
                assert_eq!(
                    report.predicates_pushed, 0,
                    "Q{}: basic level pushed σ",
                    q.id
                );
                assert_eq!(
                    report.joins_reordered, 0,
                    "Q{}: basic level reordered",
                    q.id
                );
            }
        }
    }
    // The full level must actually do something across the XMark set —
    // otherwise this suite pins nothing beyond the basic one.
    assert!(pushed > 0, "no predicate was ever pushed across XMark");
    assert!(
        deduped > 0,
        "hash-consing never merged a subplan across XMark"
    );
    assert!(unshared > 0, "unsharing never cloned a chain across XMark");
}

#[test]
fn full_optimizer_never_decreases_the_fused_share_on_fusable_queries() {
    // The full level's *unshare* pass exists for exactly this: cloning
    // cheap shared operators so fusion sees single-consumer chains.  On
    // every query where the basic level fuses at all, the full level's
    // tables-elided share (elided / operators evaluated) must be at least
    // as high — and the results must stay byte-identical.
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).expect("generated XML is well-formed"));
    // Index scans are pinned off: an IndexScan rewrite splices an extra
    // breaker into the plan, which shifts the share denominator exactly
    // like reordering does (byte-agreement with and without index scans
    // is pinned by tests/index_agreement.rs).
    let mk = |level: OptimizerLevel| {
        let pf = Pathfinder::with_options(
            EngineOptions::builder()
                .optimizer_level(OptimizerLevel {
                    indexscan: false,
                    ..level
                })
                .threads(1)
                .build(),
        );
        pf.load_parsed("auction.xml", &doc).unwrap();
        pf
    };
    let basic = mk(OptimizerLevel::BASIC);
    let full = mk(OptimizerLevel::FULL);
    let mut fusable = 0usize;
    for q in queries() {
        let out_basic = basic
            .query_with(q.text, Profile::Stats)
            .unwrap_or_else(|e| panic!("Q{} basic failed: {e}", q.id));
        let out_full = full
            .query_with(q.text, Profile::Stats)
            .unwrap_or_else(|e| panic!("Q{} full failed: {e}", q.id));
        assert_eq!(
            out_basic.result.to_xml(),
            out_full.result.to_xml(),
            "Q{}: levels disagree",
            q.id
        );
        let (s_basic, s_full) = (
            out_basic.stats.expect("Profile::Stats returns stats"),
            out_full.stats.expect("Profile::Stats returns stats"),
        );
        if s_basic.tables_elided == 0 {
            continue;
        }
        // The share invariant is about *unshare*: cloning shared cheap
        // chains can only create fusion opportunities.  Once the
        // reorderer restructures a join cluster the physical plan is a
        // different shape and its fused share is incomparable, so only
        // byte-agreement is asserted on reordered queries.
        if out_full.timings().optimizer.joins_reordered > 0 {
            continue;
        }
        fusable += 1;
        let share = |s: &ExecStats| s.tables_elided as f64 / s.operators_evaluated.max(1) as f64;
        assert!(
            share(&s_full) >= share(&s_basic) - 1e-9,
            "Q{}: fused share decreased under the full level \
             ({:.3} = {}/{} basic vs {:.3} = {}/{} full)",
            q.id,
            share(&s_basic),
            s_basic.tables_elided,
            s_basic.operators_evaluated,
            share(&s_full),
            s_full.tables_elided,
            s_full.operators_evaluated,
        );
    }
    assert!(
        fusable >= 5,
        "expected at least 5 fusable XMark queries, saw {fusable}"
    );
}

#[test]
fn full_level_agrees_across_morsel_sizes_on_join_heavy_queries() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let doc = Arc::new(pathfinder::xml::parse(&xml).expect("generated XML is well-formed"));
    // The value-join and aggregation queries: the ones whose plans the
    // reorder/pushdown rules actually touch.
    for id in [8u8, 9, 10, 11, 12] {
        let q = pathfinder::xmark::query(id).unwrap();
        let mut reference: Option<String> = None;
        for morsel_rows in [2usize, 0, usize::MAX] {
            for level in [OptimizerLevel::BASIC, OptimizerLevel::FULL] {
                let pf = Pathfinder::with_options(
                    EngineOptions::builder()
                        .optimizer_level(level)
                        .threads(4)
                        .morsel_rows(morsel_rows)
                        .build(),
                );
                pf.load_parsed("auction.xml", &doc).unwrap();
                let out = pf
                    .query_with(q.text, Profile::None)
                    .unwrap_or_else(|e| {
                        panic!("Q{id} failed at level = {level}, morsel = {morsel_rows}: {e}")
                    })
                    .to_xml();
                match &reference {
                    None => reference = Some(out),
                    Some(expected) => assert_eq!(
                        *expected, out,
                        "Q{id}: diverges at level = {level}, morsel = {morsel_rows}"
                    ),
                }
            }
        }
    }
}

/// The document statistics of one generated auction, as the engine
/// serves them to the optimizer.
struct AuctionStats(Arc<DocStatistics>);

impl StatsSource for AuctionStats {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        (uri == "auction.xml").then(|| Arc::clone(&self.0))
    }
}

/// One property analysis per plan version: on every XMark query, with the
/// document's statistics, the optimizer analyzes the plan at most once
/// more than the number of rule applications that changed it (each
/// verified change is one verifier pass after the input plan's), and the
/// analysis it hands back prices the cold plan exactly as a separate
/// statistics pass over the optimized plan does.
#[test]
fn property_analyses_are_shared_per_plan_version() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let stats = AuctionStats(Arc::new(DocStatistics::measure(&store)));
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let plan = compile(&core, &CompileOptions::default()).unwrap().plan;

        let mut verified = plan.clone();
        let report = optimize_with_verify(&mut verified, OptimizerLevel::FULL, &stats, true);
        assert!(report.verified, "Q{}", q.id);
        let changes = report.verify_passes - 1;
        assert!(
            report.property_passes <= 1 + changes,
            "Q{}: {} analyses for {changes} changing rule applications",
            q.id,
            report.property_passes
        );

        let mut analyzed = plan;
        let (final_report, props) = optimize_analyzed(&mut analyzed, OptimizerLevel::FULL, &stats);
        assert_eq!(analyzed, verified, "Q{}: the same rewrites", q.id);
        assert!(final_report.property_passes <= 1 + changes, "Q{}", q.id);
        assert_eq!(
            props.peak_rows(&analyzed),
            CardEstimate::analyze(&analyzed, &stats).peak_rows(&analyzed),
            "Q{}: the cold admission estimate",
            q.id
        );
    }
}

// ---------------------------------------------------------------------------
// Per-rule property tests: each isolation rule, applied alone, preserves
// the executed result of randomized literal-table plans.
// ---------------------------------------------------------------------------

/// Execute `plan` against an empty registry and render every row (these
/// plans are literal-only).
fn run_rows(plan: &Plan) -> Vec<String> {
    let registry = DocRegistry::new();
    let table = Executor::new(&registry)
        .run(plan)
        .expect("literal plan executes");
    (0..table.row_count())
        .map(|r| format!("{:?}", table.row(r)))
        .collect()
}

fn nat_rows(cols: usize, values: &[Vec<u64>]) -> Vec<Vec<Value>> {
    values
        .iter()
        .map(|row| (0..cols).map(|c| Value::Nat(row[c])).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// σ-pushdown (through π, below ⋈, folding over literals) preserves
    /// rows *and row order* exactly: every pushdown rewrite is
    /// order-preserving.
    #[test]
    fn pushdown_preserves_rows_and_order(
        left in proptest::collection::vec((0u64..5, 0u64..40), 1..12),
        right in proptest::collection::vec((0u64..5, 0u64..6), 1..12),
        pick in 0u64..6,
    ) {
        let mut b = PlanBuilder::new();
        let lrows: Vec<Vec<u64>> = left
            .iter()
            .enumerate()
            .map(|(i, (a, p))| vec![i as u64 + 1, *p, *a])
            .collect();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into(), "a".into()],
            rows: nat_rows(3, &lrows),
        });
        let rrows: Vec<Vec<u64>> = right.iter().map(|(k, v)| vec![*k, *v]).collect();
        let r = b.add(AlgOp::Lit {
            columns: vec!["k".into(), "v".into()],
            rows: nat_rows(2, &rrows),
        });
        let j = b.add(AlgOp::EquiJoin {
            left: l,
            right: r,
            left_col: "a".into(),
            right_col: "k".into(),
        });
        let p = b.add(AlgOp::Project {
            input: j,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("pos".into(), "pos".into()),
                ("v".into(), "val".into()),
            ],
        });
        let s = b.add(AlgOp::SelectEq {
            input: p,
            column: "val".into(),
            value: Value::Nat(pick),
        });
        let plan = b.finish(s);

        let raw = run_rows(&plan);
        let mut optimized = plan.clone();
        let report = optimize_with(
            &mut optimized,
            OptimizerLevel { pushdown: true, ..OptimizerLevel::BASIC },
            &NoStats,
        );
        prop_assert!(
            report.predicates_pushed + report.constants_folded > 0,
            "the σ-over-π-over-⋈ shape must trigger the rule"
        );
        prop_assert_eq!(run_rows(&optimized), raw);
    }

    /// Hash-consed dedup (and the post-fixpoint unshare) preserve rows and
    /// row order on plans with duplicated subtrees.
    #[test]
    fn dedup_and_unshare_preserve_rows_and_order(
        rows in proptest::collection::vec((0u64..4, 0u64..4), 1..10),
        sel in 0u64..4,
    ) {
        let build_branch = |b: &mut PlanBuilder, rows: &[(u64, u64)], sel: u64| -> OpId {
            let lit_rows: Vec<Vec<u64>> = rows.iter().map(|(a, v)| vec![*a, *v]).collect();
            let l = b.add(AlgOp::Lit {
                columns: vec!["a".into(), "v".into()],
                rows: nat_rows(2, &lit_rows),
            });
            let p = b.add(AlgOp::Project {
                input: l,
                columns: vec![("a".into(), "a".into()), ("v".into(), "w".into())],
            });
            b.add(AlgOp::SelectEq {
                input: p,
                column: "w".into(),
                value: Value::Nat(sel),
            })
        };
        let mut b = PlanBuilder::new();
        let s1 = build_branch(&mut b, &rows, sel);
        let s2 = build_branch(&mut b, &rows, sel);
        let u = b.add(AlgOp::Union { left: s1, right: s2 });
        let plan = b.finish(u);

        let raw = run_rows(&plan);
        for level in [
            OptimizerLevel { dedup: true, ..OptimizerLevel::BASIC },
            OptimizerLevel { dedup: true, unshare: true, ..OptimizerLevel::BASIC },
        ] {
            let mut optimized = plan.clone();
            let report = optimize_with(&mut optimized, level, &NoStats);
            prop_assert!(
                report.subplans_deduped > 0,
                "identical branches must hash-cons"
            );
            prop_assert_eq!(run_rows(&optimized), raw.clone());
        }
    }

    /// Statistics-driven join reordering preserves the row *multiset* of
    /// order-free join clusters (the rewrite only fires where row order is
    /// provably insignificant, so order itself is not pinned here).
    #[test]
    fn reorder_preserves_row_multisets(
        a_vals in proptest::collection::vec(0u64..8, 1..12),
        b_vals in proptest::collection::vec(0u64..8, 1..10),
        c_vals in proptest::collection::vec(0u64..30, 1..8),
    ) {
        let mut b = PlanBuilder::new();
        // A: arbitrary join values under a distinct key (posk).
        let arows: Vec<Vec<u64>> = a_vals
            .iter()
            .enumerate()
            .map(|(i, v)| vec![i as u64, *v])
            .collect();
        let a = b.add(AlgOp::Lit {
            columns: vec!["posk".into(), "j1".into()],
            rows: nat_rows(2, &arows),
        });
        // B and C: keyed on their join columns (0..n distinct), so the
        // joins preserve A's key and the root region stays order-free.
        let brows: Vec<Vec<u64>> = b_vals
            .iter()
            .enumerate()
            .map(|(i, v)| vec![i as u64, *v])
            .collect();
        let bb = b.add(AlgOp::Lit {
            columns: vec!["j1b".into(), "j2".into()],
            rows: nat_rows(2, &brows),
        });
        let crows: Vec<Vec<u64>> = c_vals
            .iter()
            .enumerate()
            .map(|(i, v)| vec![i as u64, *v])
            .collect();
        let c = b.add(AlgOp::Lit {
            columns: vec!["j2c".into(), "val".into()],
            rows: nat_rows(2, &crows),
        });
        let j1 = b.add(AlgOp::EquiJoin {
            left: a,
            right: bb,
            left_col: "j1".into(),
            right_col: "j1b".into(),
        });
        let j2 = b.add(AlgOp::EquiJoin {
            left: j1,
            right: c,
            left_col: "j2".into(),
            right_col: "j2c".into(),
        });
        let p = b.add(AlgOp::Project {
            input: j2,
            columns: vec![("posk".into(), "pos".into()), ("val".into(), "item".into())],
        });
        let plan = b.finish(p);

        let mut raw = run_rows(&plan);
        let mut optimized = plan.clone();
        optimize_with(
            &mut optimized,
            OptimizerLevel { reorder: true, ..OptimizerLevel::BASIC },
            &NoStats,
        );
        let mut opt = run_rows(&optimized);
        prop_assert_eq!(raw.len(), opt.len());
        raw.sort_unstable();
        opt.sort_unstable();
        prop_assert_eq!(raw, opt);
    }
}
