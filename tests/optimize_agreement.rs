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
//! The join-graph-isolation half of the suite pins the optimizer through
//! the engine: every XMark query must serialize **byte-identically** with
//! the optimizer on and off at 1 and 4 threads (plus morsel sizes on the
//! join-heavy queries), *unshare* must never lower the fused share, and
//! each isolation rule — pushdown, dedup/unshare, reorder — applied alone
//! through its public function carries its own property test over
//! randomized literal-table plans.

use std::sync::Arc;

use proptest::prelude::*;

use pathfinder::algebra::optimize::{dedup, pushdown, reorder};
use pathfinder::algebra::{
    optimize, optimize_analyzed, optimize_with_verify, AlgOp, OpId, OptimizeReport, Plan,
    PlanBuilder, PlanProperties, StatsSource,
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

/// One engine per (optimize, threads) cell, all sharing the parsed
/// document.
fn optimizer_engines(xml: &str) -> Vec<((bool, usize), Pathfinder)> {
    let doc = Arc::new(pathfinder::xml::parse(xml).expect("generated XML is well-formed"));
    let mut engines = Vec::new();
    for optimize in [false, true] {
        for threads in [1usize, 4] {
            let pf = Pathfinder::with_options(
                EngineOptions::builder()
                    .optimize(optimize)
                    .threads(threads)
                    .build(),
            );
            pf.load_parsed("auction.xml", &doc).unwrap();
            engines.push(((optimize, threads), pf));
        }
    }
    engines
}

#[test]
fn optimizer_on_and_off_agree_across_threads_on_all_xmark_queries() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let engines = optimizer_engines(&xml);
    let mut pushed = 0usize;
    let mut deduped = 0usize;
    let mut unshared = 0usize;
    for q in queries() {
        let mut reference: Option<String> = None;
        for ((optimize, threads), pf) in &engines {
            let outcome = pf.query_with(q.text, Profile::None).unwrap_or_else(|e| {
                panic!(
                    "Q{} failed at optimize = {optimize}, threads = {threads}: {e}",
                    q.id
                )
            });
            let xml_out = outcome.to_xml();
            match &reference {
                None => reference = Some(xml_out),
                Some(expected) => assert_eq!(
                    *expected, xml_out,
                    "Q{}: serialization diverges at optimize = {optimize}, threads = {threads}",
                    q.id
                ),
            }
            let report = outcome.timings().optimizer;
            if *optimize {
                pushed += report.predicates_pushed;
                deduped += report.subplans_deduped;
                unshared += report.chains_unshared;
            } else {
                assert_eq!(
                    report,
                    OptimizeReport::default(),
                    "Q{}: the optimizer ran although it is off",
                    q.id
                );
            }
        }
    }
    // The optimizer must actually do something across the XMark set —
    // otherwise this suite compares two identical plans.
    assert!(pushed > 0, "no predicate was ever pushed across XMark");
    assert!(
        deduped > 0,
        "hash-consing never merged a subplan across XMark"
    );
    assert!(unshared > 0, "unsharing never cloned a chain across XMark");
}

#[test]
fn full_optimizer_never_decreases_the_fused_share_on_fusable_queries() {
    // The optimizer's *unshare* pass exists for exactly this: cloning
    // cheap shared operators so fusion sees single-consumer chains.  On
    // every optimized plan where unshare cloned a chain, re-sharing the
    // clones (hash-consing the final plan again) gives the plan fusion
    // would see without unshare; the optimized plan's tables-elided
    // share (elided / operators evaluated) must be at least as high, and
    // the results must stay byte-identical.
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let registry = DocRegistry::new();
    registry.load_xml("auction.xml", &xml).unwrap();
    let run = |plan: &Plan| {
        let (table, stats) = Executor::new(&registry)
            .run_with_stats(plan)
            .expect("XMark plans execute");
        let result = QueryResult::from_table(Arc::new(table), &registry, Timings::default())
            .expect("XMark results serialize");
        (result.to_xml(), stats)
    };
    let mut fusable = 0usize;
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let mut unshared = compile(&core, &CompileOptions::default()).unwrap().plan;
        let report = optimize(&mut unshared);
        if report.chains_unshared == 0 {
            continue;
        }
        let mut shared = unshared.clone();
        assert!(
            dedup::hash_cons(&mut shared, &mut OptimizeReport::default()),
            "Q{}: the unshared clones must hash-cons back",
            q.id
        );
        let (xml_shared, s_shared) = run(&shared);
        let (xml_unshared, s_unshared) = run(&unshared);
        assert_eq!(
            xml_shared, xml_unshared,
            "Q{}: unshare changed the result",
            q.id
        );
        if s_shared.tables_elided == 0 {
            continue;
        }
        fusable += 1;
        let share = |s: &ExecStats| s.tables_elided as f64 / s.operators_evaluated.max(1) as f64;
        assert!(
            share(&s_unshared) >= share(&s_shared) - 1e-9,
            "Q{}: fused share decreased under unshare \
             ({:.3} = {}/{} shared vs {:.3} = {}/{} unshared)",
            q.id,
            share(&s_shared),
            s_shared.tables_elided,
            s_shared.operators_evaluated,
            share(&s_unshared),
            s_unshared.tables_elided,
            s_unshared.operators_evaluated,
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
            for optimize in [false, true] {
                let pf = Pathfinder::with_options(
                    EngineOptions::builder()
                        .optimize(optimize)
                        .threads(4)
                        .morsel_rows(morsel_rows)
                        .build(),
                );
                pf.load_parsed("auction.xml", &doc).unwrap();
                let out = pf
                    .query_with(q.text, Profile::None)
                    .unwrap_or_else(|e| {
                        panic!("Q{id} failed at optimize = {optimize}, morsel = {morsel_rows}: {e}")
                    })
                    .to_xml();
                match &reference {
                    None => reference = Some(out),
                    Some(expected) => assert_eq!(
                        *expected, out,
                        "Q{id}: diverges at optimize = {optimize}, morsel = {morsel_rows}"
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
        let report = optimize_with_verify(&mut verified, &stats, true);
        assert!(report.verified, "Q{}", q.id);
        let changes = report.verify_passes - 1;
        assert!(
            report.property_passes <= 1 + changes,
            "Q{}: {} analyses for {changes} changing rule applications",
            q.id,
            report.property_passes
        );

        let mut analyzed = plan;
        let (final_report, props) = optimize_analyzed(&mut analyzed, &stats);
        assert_eq!(analyzed, verified, "Q{}: the same rewrites", q.id);
        assert!(final_report.property_passes <= 1 + changes, "Q{}", q.id);
        assert_eq!(
            props.peak_rows(&analyzed),
            PlanProperties::analyze_with(&analyzed, &stats).peak_rows(&analyzed),
            "Q{}: the cold admission estimate",
            q.id
        );
    }
}

// ---------------------------------------------------------------------------
// Per-rule property tests: each isolation rule, applied alone through its
// public function, preserves the executed result of randomized
// literal-table plans.
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
        let mut report = OptimizeReport::default();
        pushdown::push_selections(&mut optimized, &mut report);
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
        let mut optimized = plan.clone();
        let mut report = OptimizeReport::default();
        prop_assert!(
            dedup::hash_cons(&mut optimized, &mut report),
            "identical branches must hash-cons"
        );
        prop_assert_eq!(run_rows(&optimized), raw.clone());
        dedup::unshare_fusable_chains(&mut optimized, &mut report);
        prop_assert_eq!(run_rows(&optimized), raw);
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
        let props = PlanProperties::analyze(&plan);
        reorder::reorder_join_graphs(&mut optimized, &props, &mut OptimizeReport::default());
        let mut opt = run_rows(&optimized);
        prop_assert_eq!(raw.len(), opt.len());
        raw.sort_unstable();
        opt.sort_unstable();
        prop_assert_eq!(raw, opt);
    }
}
