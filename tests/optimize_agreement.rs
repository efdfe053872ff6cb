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
//! the optimizer on and off, *unshare* must never lower the fused share, and
//! each isolation rule — pushdown, dedup/unshare, reorder — applied alone
//! through its public function carries its own property test over
//! randomized literal-table plans.
//!
//! Content predicates (`contains`, attribute equality, numeric ranges) run
//! on random documents with the optimizer on and off and through
//! pf-baseline.

use std::sync::Arc;

use proptest::prelude::*;

use pathfinder::algebra::optimize::{dedup, pushdown, reorder};
use pathfinder::algebra::{
    optimize, optimize_analyzed, optimize_with_verify, to_ascii, AlgOp, Const, NoStats, OpId,
    OptimizeReport, PhysicalPlan, Plan, PlanBuilder, PlanProperties, StatsSource,
};
use pathfinder::baseline::BaselineEngine;
use pathfinder::engine::{
    DocRegistry, EngineOptions, EngineResult, ExecStats, Executor, Pathfinder, Profile,
    QueryResult, Run, Timings,
};
use pathfinder::relational::{ColId, Value};
use pathfinder::store::{DocStatistics, DocStore};
use pathfinder::xmark::{generate, queries, GeneratorConfig};
use pathfinder::xquery::{compile, normalize, parse_query, CompileOptions};

/// The columns these tests name besides the well-known ones, numbered in
/// this order by every plan of [`builder`]; [`col`]
/// gives each a fixed id.
const NAMES: &[&str] = &["a", "j1", "j1b", "j2", "j2c", "k", "posk", "v", "val", "w"];

fn col(name: &str) -> ColId {
    let at = ColId::WELL_KNOWN
        .iter()
        .chain(NAMES)
        .position(|&n| n == name);
    ColId(at.unwrap_or_else(|| panic!("test column `{name}` is not in `NAMES`")) as u32)
}

/// Run `plan` over `registry` through its own physical compilation.
fn execute(registry: &DocRegistry, plan: &Plan) -> EngineResult<Run> {
    Executor::new(registry).run(plan, &PhysicalPlan::compile(plan))
}

fn builder() -> PlanBuilder {
    let mut b = PlanBuilder::new();
    NAMES.iter().for_each(|&n| {
        b.col(n);
    });
    b
}

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

        let raw_table = execute(&registry, &unoptimized)
            .unwrap_or_else(|e| panic!("Q{} unoptimized plan failed: {e}", q.id))
            .table;
        let opt_table = execute(&registry, &optimized)
            .unwrap_or_else(|e| panic!("Q{} optimized plan failed: {e}", q.id))
            .table;

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
        let raw = QueryResult::from_table(raw_table, &registry, Timings::default())
            .unwrap_or_else(|e| panic!("Q{} unoptimized serialization failed: {e}", q.id));
        let opt = QueryResult::from_table(opt_table, &registry, Timings::default())
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

    let Run { table, stats, .. } = execute(&registry, &plan).unwrap();
    assert!(stats.evicted_results > 0, "no intermediate was evicted");
    assert!(
        stats.peak_resident_rows <= stats.rows_produced,
        "peak exceeds the retain-everything total"
    );
    let again = execute(&registry, &plan).unwrap().table;
    let a = QueryResult::from_table(table, &registry, Timings::default()).unwrap();
    let b = QueryResult::from_table(again, &registry, Timings::default()).unwrap();
    assert_eq!(a.to_xml(), b.to_xml());
}

/// One engine with the optimizer off and one with it on, both sharing the
/// parsed document.
fn optimizer_engines(xml: &str) -> Vec<(bool, Pathfinder)> {
    let doc = Arc::new(pathfinder::xml::parse(xml).expect("generated XML is well-formed"));
    [false, true]
        .into_iter()
        .map(|optimize| {
            let pf = Pathfinder::with_options(EngineOptions::builder().optimize(optimize).build());
            pf.load_parsed("auction.xml", &doc).unwrap();
            (optimize, pf)
        })
        .collect()
}

#[test]
fn optimizer_on_and_off_agree_on_all_xmark_queries() {
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
        for (optimize, pf) in &engines {
            let outcome = pf
                .query_with(q.text, Profile::None)
                .unwrap_or_else(|e| panic!("Q{} failed at optimize = {optimize}: {e}", q.id));
            let xml_out = outcome.to_xml();
            match &reference {
                None => reference = Some(xml_out),
                Some(expected) => assert_eq!(
                    *expected, xml_out,
                    "Q{}: serialization diverges at optimize = {optimize}",
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
        let Run { table, stats, .. } = execute(&registry, plan).expect("XMark plans execute");
        let result = QueryResult::from_table(table, &registry, Timings::default())
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

/// The document statistics of one generated auction, as the engine
/// serves them to the optimizer.
struct AuctionStats(Arc<DocStatistics>);

impl StatsSource for AuctionStats {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        (uri == "auction.xml").then(|| Arc::clone(&self.0))
    }
}

/// One property analysis per optimization: every XMark query, optimized
/// with and without the statistics of a loaded document, runs exactly one
/// whole-plan analysis, however many rewrites change the plan.
#[test]
fn every_xmark_optimization_runs_one_property_analysis() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let with_stats = AuctionStats(store.statistics());
    let sources: [(&str, &dyn StatsSource); 2] =
        [("no statistics", &NoStats), ("statistics", &with_stats)];
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let plan = compile(&core, &CompileOptions::default()).unwrap().plan;
        for (label, stats) in sources {
            let report = optimize_with_verify(&mut plan.clone(), stats, true);
            assert!(report.verify_passes > 1, "Q{} ({label}): no rewrite", q.id);
            assert_eq!(report.property_passes, 1, "Q{} ({label})", q.id);
            let (report, _) = optimize_analyzed(&mut plan.clone(), stats);
            assert_eq!(report.property_passes, 1, "Q{} ({label})", q.id);
        }
    }
}

/// The analysis the optimizer hands back is the kept one: on every XMark
/// query, with the document's statistics, it prices the cold plan exactly
/// as a separate statistics pass over the optimized plan does.
#[test]
fn property_analyses_are_shared_per_plan_version() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let stats = AuctionStats(store.statistics());
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let plan = compile(&core, &CompileOptions::default()).unwrap().plan;

        let mut verified = plan.clone();
        let report = optimize_with_verify(&mut verified, &stats, true);
        assert!(report.verified, "Q{}", q.id);

        let mut analyzed = plan;
        let (_, props) = optimize_analyzed(&mut analyzed, &stats);
        assert_eq!(analyzed, verified, "Q{}: the same rewrites", q.id);
        assert_eq!(
            props.peak_rows(&analyzed),
            PlanProperties::analyze_with(&analyzed, &stats).peak_rows(&analyzed),
            "Q{}: the cold admission estimate",
            q.id
        );
    }
}

/// The optimizer's phases run once each, with no loop to a fixpoint, yet
/// their output is one: on every XMark query, with the statistics of a
/// loaded document, optimizing the optimized plan again leaves its
/// rendering unchanged.
#[test]
fn optimizing_an_optimized_plan_changes_nothing() {
    let xml = generate(&GeneratorConfig {
        scale: 0.05,
        seed: 20050831,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let stats = AuctionStats(store.statistics());
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let mut plan = compile(&core, &CompileOptions::default()).unwrap().plan;
        optimize_with_verify(&mut plan, &stats, true);
        let once = to_ascii(&plan);
        let report = optimize_with_verify(&mut plan, &stats, true);
        assert!(report.verified, "Q{}", q.id);
        assert_eq!(
            to_ascii(&plan),
            once,
            "Q{}: a second run changed the plan",
            q.id
        );
    }
}

/// A public rule, applied through its public function to a plan with a
/// fresh analysis under `stats`; `true` if it changed the plan.
type Rule = fn(&mut Plan, &dyn StatsSource, &mut OptimizeReport) -> bool;

/// Every rule the optimizer exports is idempotent: on every XMark query,
/// with and without document statistics, applied to the compiled and to
/// the optimized plan, a second application right after a first reports
/// no change and leaves the plan's rendering as it was.  Each rule's
/// first application changes some plan, so none passes by doing nothing.
#[test]
fn every_public_rule_is_idempotent() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let auction = AuctionStats(store.statistics());
    let rules: [(&str, Rule); 4] = [
        ("hash_cons", |p, _, r| dedup::hash_cons(p, r)),
        ("push_selections", |p, s, r| {
            let props = PlanProperties::analyze_with(p, s);
            pushdown::push_selections(p, &props, r)
        }),
        ("reorder_join_graphs", |p, s, r| {
            let props = PlanProperties::analyze_with(p, s);
            reorder::reorder_join_graphs(p, &props, r)
        }),
        ("unshare_fusable_chains", |p, _, r| {
            dedup::unshare_fusable_chains(p, r);
            r.chains_unshared > 0
        }),
    ];
    let sources: [(&str, &dyn StatsSource); 2] = [
        ("without statistics", &NoStats),
        ("with statistics", &auction),
    ];
    let mut fired = [false; 4];
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let compiled = compile(&core, &CompileOptions::default()).unwrap().plan;
        for (label, stats) in sources {
            let mut optimized = compiled.clone();
            optimize_with_verify(&mut optimized, stats, true);
            for (stage, plan) in [("compiled", &compiled), ("optimized", &optimized)] {
                for ((name, rule), fired) in rules.iter().zip(&mut fired) {
                    let mut plan = plan.clone();
                    *fired |= rule(&mut plan, stats, &mut OptimizeReport::default());
                    let once = to_ascii(&plan);
                    let changed = rule(&mut plan, stats, &mut OptimizeReport::default());
                    let context = format!("Q{} {label}, {stage} plan: a second {name}", q.id);
                    assert!(!changed, "{context} reported a change");
                    assert_eq!(to_ascii(&plan), once, "{context} changed the plan");
                }
            }
        }
    }
    for ((name, _), fired) in rules.iter().zip(fired) {
        assert!(fired, "{name} changed no plan");
    }
}

/// Pushdown moves every σ off a single-consumer ∪, and it runs right
/// before the index-scan rule, so the rule never sees a σ over the union
/// of the `ebv_bool` scaffolding.  On every XMark query, with and without
/// document statistics, no optimized plan has a σ reading a ∪ that has
/// one consumer.
#[test]
fn no_selection_reads_a_single_consumer_union_after_optimization() {
    let xml = generate(&GeneratorConfig {
        scale: 0.004,
        seed: 20050831,
    });
    let store = DocStore::from_xml("auction.xml", &xml).unwrap();
    let stats = AuctionStats(store.statistics());
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let compiled = compile(&core, &CompileOptions::default()).unwrap().plan;
        let mut without = compiled.clone();
        optimize(&mut without);
        let mut with = compiled;
        optimize_with_verify(&mut with, &stats, true);
        for (label, plan) in [("without statistics", &without), ("with statistics", &with)] {
            let consumers = plan.consumer_counts();
            for id in plan.reachable() {
                let (AlgOp::Select { input, .. } | AlgOp::SelectEq { input, .. }) = plan.op(id)
                else {
                    continue;
                };
                assert!(
                    !matches!(plan.op(*input), AlgOp::Union { .. }) || consumers[*input] != 1,
                    "Q{} {label}: σ #{id} reads the single-consumer ∪ #{input}",
                    q.id
                );
            }
        }
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
    let table = execute(&registry, plan)
        .expect("literal plan executes")
        .table;
    (0..table.row_count())
        .map(|r| {
            let row: Vec<_> = table
                .columns()
                .iter()
                .map(|(id, c)| (id, c.get(r)))
                .collect();
            format!("{row:?}")
        })
        .collect()
}

fn nat_rows(cols: usize, values: &[Vec<u64>]) -> Vec<Vec<Const>> {
    values
        .iter()
        .map(|row| (0..cols).map(|c| Value::Nat(row[c]).into()).collect())
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
        let mut b = builder();
        let lrows: Vec<Vec<u64>> = left
            .iter()
            .enumerate()
            .map(|(i, (a, p))| vec![i as u64 + 1, *p, *a])
            .collect();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos"), col("a")],
            rows: nat_rows(3, &lrows),
        });
        let rrows: Vec<Vec<u64>> = right.iter().map(|(k, v)| vec![*k, *v]).collect();
        let r = b.add(AlgOp::Lit {
            columns: vec![col("k"), col("v")],
            rows: nat_rows(2, &rrows),
        });
        let j = b.add(AlgOp::EquiJoin {
            left: l,
            right: r,
            left_col: col("a"),
            right_col: col("k"),
        });
        let p = b.add(AlgOp::Project {
            input: j,
            columns: vec![
                (col("iter"), col("iter")),
                (col("pos"), col("pos")),
                (col("v"), col("val")),
            ],
        });
        let s = b.add(AlgOp::SelectEq {
            input: p,
            column: col("val"),
            value: Value::Nat(pick),
        });
        let plan = b.finish(s);

        let raw = run_rows(&plan);
        let mut optimized = plan.clone();
        let mut report = OptimizeReport::default();
        let props = PlanProperties::analyze(&optimized);
        pushdown::push_selections(&mut optimized, &props, &mut report);
        prop_assert!(
            report.predicates_pushed + report.constants_folded > 0,
            "the σ-over-π-over-⋈ shape must trigger the rule"
        );
        prop_assert_eq!(run_rows(&optimized), raw);
    }

    /// Hash-consed dedup (and the final unshare) preserve rows and
    /// row order on plans with duplicated subtrees.
    #[test]
    fn dedup_and_unshare_preserve_rows_and_order(
        rows in proptest::collection::vec((0u64..4, 0u64..4), 1..10),
        sel in 0u64..4,
    ) {
        let build_branch = |b: &mut PlanBuilder, rows: &[(u64, u64)], sel: u64| -> OpId {
            let lit_rows: Vec<Vec<u64>> = rows.iter().map(|(a, v)| vec![*a, *v]).collect();
            let l = b.add(AlgOp::Lit {
                columns: vec![col("a"), col("v")],
                rows: nat_rows(2, &lit_rows),
            });
            let p = b.add(AlgOp::Project {
                input: l,
                columns: vec![(col("a"), col("a")), (col("v"), col("w"))],
            });
            b.add(AlgOp::SelectEq {
                input: p,
                column: col("w"),
                value: Value::Nat(sel),
            })
        };
        let mut b = builder();
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
        let mut b = builder();
        // A: arbitrary join values under a distinct key (posk).
        let arows: Vec<Vec<u64>> = a_vals
            .iter()
            .enumerate()
            .map(|(i, v)| vec![i as u64, *v])
            .collect();
        let a = b.add(AlgOp::Lit {
            columns: vec![col("posk"), col("j1")],
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
            columns: vec![col("j1b"), col("j2")],
            rows: nat_rows(2, &brows),
        });
        let crows: Vec<Vec<u64>> = c_vals
            .iter()
            .enumerate()
            .map(|(i, v)| vec![i as u64, *v])
            .collect();
        let c = b.add(AlgOp::Lit {
            columns: vec![col("j2c"), col("val")],
            rows: nat_rows(2, &crows),
        });
        let j1 = b.add(AlgOp::EquiJoin {
            left: a,
            right: bb,
            left_col: col("j1"),
            right_col: col("j1b"),
        });
        let j2 = b.add(AlgOp::EquiJoin {
            left: j1,
            right: c,
            left_col: col("j2"),
            right_col: col("j2c"),
        });
        let p = b.add(AlgOp::Project {
            input: j2,
            columns: vec![(col("posk"), col("pos")), (col("val"), col("item"))],
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

// ---------------------------------------------------------------------------
// Content predicates on random documents: `contains`, attribute equality
// and numeric ranges, optimized vs. unoptimized vs. pf-baseline.
// ---------------------------------------------------------------------------

/// A word pool small enough that repeats (and shared substrings) are
/// common: `goldfish` contains `gold`, `dusty` contains `dust`.
fn word() -> impl Strategy<Value = String> {
    proptest::sample::select(vec!["gold", "goldfish", "dust", "dusty", "red", "bag"])
        .prop_map(str::to_string)
}

/// A price string: small integers, two-decimal doubles, `Nat`s beyond
/// `i64::MAX`, and a non-numeric value (whose `fn:number` cast raises in
/// the engine).
fn price() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..60).prop_map(|n| n.to_string()),
        (0i64..6000).prop_map(|c| format!("{}.{:02}", c / 100, c % 100)),
        (i64::MAX as u64 + 1..u64::MAX).prop_map(|n| n.to_string()),
        Just("n/a".to_string()),
    ]
}

/// A random shop document: zero or more items, ids repeating modulo 4.
fn shop() -> impl Strategy<Value = String> {
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

/// Run `query` over `xml` with the optimizer on and off, and through
/// pf-baseline.  The two engine runs must agree byte for byte, results
/// and errors; pf-baseline must give every answer the engine gives.  It
/// is not asked to raise where the engine does: its `fn:number` returns
/// `()` for a non-number, where the engine raises.
fn assert_engines_agree(xml: &str, query: &str) {
    let run = |optimize: bool| {
        let pf = Pathfinder::with_options(EngineOptions::builder().optimize(optimize).build());
        pf.load_document("d.xml", xml).unwrap();
        pf.session()
            .query(query)
            .map(|r| r.to_xml())
            .map_err(|e| e.to_string())
    };
    let optimized = run(true);
    assert_eq!(
        optimized,
        run(false),
        "optimized vs unoptimized {query:?} on {xml:?}"
    );
    if let Ok(answer) = optimized {
        let mut baseline = BaselineEngine::new();
        baseline.load_document("d.xml", xml).unwrap();
        let navigational = baseline.query(query).map(|r| r.to_xml());
        assert_eq!(
            Ok(answer),
            navigational,
            "engine vs pf-baseline {query:?} on {xml:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `contains()` with needles that match nothing, match everything,
    /// differ only in case, or are substrings of longer words.
    #[test]
    fn contains_agrees_on_random_documents(
        xml in shop(),
        needle in proptest::sample::select(vec!["gold", "GOLD", "old", "dust fish", "zzz", "d"]),
    ) {
        let query = format!(
            "for $i in doc(\"d.xml\")/site//item \
             where contains(string($i/name), \"{needle}\") \
             return $i/price/text()"
        );
        assert_engines_agree(&xml, &query);
    }

    /// Attribute equality over repeated values.
    #[test]
    fn attribute_equality_agrees_on_random_documents(
        xml in shop(),
        id in proptest::sample::select(vec!["id0", "id3", "id9", ""]),
    ) {
        let query = format!(
            "for $i in doc(\"d.xml\")/site/item[@id = \"{id}\"] return $i/name/text()"
        );
        assert_engines_agree(&xml, &query);
    }

    /// Numeric range predicates, including bounds that only huge `Nat`
    /// prices exceed and documents whose `n/a` price makes `fn:number`
    /// raise.
    #[test]
    fn numeric_range_agrees_on_random_documents(
        xml in shop(),
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
        assert_engines_agree(&xml, &query);
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
            assert_engines_agree(xml, query);
        }
    }
}
