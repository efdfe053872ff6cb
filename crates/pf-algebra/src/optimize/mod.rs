//! Peephole-style plan optimization.
//!
//! "Query plans can become quite large (XMark query Q8, e.g., prior to
//! optimization, compiles to a plan DAG of 120 operators).  This complexity
//! may significantly be reduced by peep-hole style optimization \[5\]."
//!
//! The rewrites implemented here are local (peephole) and exploit the
//! algebra's restrictions and the inferred properties of
//! [`crate::schema`]:
//!
//! 1. **Projection merging** — π(π(q)) ⇒ π(q) with composed renaming.
//! 2. **Identity projection removal** — a π that keeps every column of its
//!    input under the same name is dropped.
//! 3. **Redundant `ddo` removal** — `fs:distinct-doc-order` applied to an
//!    input that is already in distinct document order (e.g. directly after
//!    a staircase-join step) is dropped.
//! 4. **Redundant δ removal** — duplicate elimination over a provably
//!    duplicate-free input is dropped.
//! 5. **Common subexpression elimination** — structurally identical
//!    operators are merged, turning the plan into a maximally shared DAG.
//! 6. **Attach/constant folding into literals** — attaching a constant
//!    column to a literal table is evaluated at compile time.
//!
//! These six are the basic level; the `full` level adds the rules below,
//! including the property-driven deletions of [`scaffold`].
//!
//! The optimizer runs the rewrites to a fixpoint and reports what it did;
//! the `plan_size` harness binary uses that report to reproduce the paper's
//! plan-complexity claim (experiment E5).
//!
//! ## Join-graph isolation (the `full` level)
//!
//! On top of the basic peephole pass, [`optimize_with`] untangles the
//! order-maintenance scaffolding (rownum / `iter`-plumbing) from the value
//! predicates — the rewrite "XQuery Join Graph Isolation" (Grust et al.)
//! describes for exactly these plan DAGs:
//!
//! * [`isolation`] — infers, per operator, key sets, constant columns and
//!   whether the operator's *row order* can influence the serialized
//!   result at all.  Serialization stably re-sorts the root by `pos` and
//!   most order-maintenance operators either normalize their input
//!   (steps, `ddo`) or number it deterministically when their sort keys
//!   cover a key (rownum), so large plan regions are provably order-free.
//! * [`pushdown`] — pushes σ below joins and through
//!   projections/attach/maps (order-preserving rewrites, safe
//!   everywhere), and folds σ/π over literal tables at compile time.
//! * [`reorder`] — reorders equi-join clusters inside order-free regions,
//!   greedily joining the smallest-estimated leaves first per
//!   [`cardinality::CardEstimate`] (document statistics from
//!   `pf-store`).
//! * [`thetacount`] — replaces a count aggregate over the distinct pairs
//!   of a θ-join by one [`AlgOp::ThetaCount`] when the scaffolding in
//!   between provably changes no row count (runs with `reorder`).
//! * [`dedup`] — hash-consed common-subplan elimination in one bottom-up
//!   pass (replaces the fixpoint string-keyed CSE of the basic level),
//!   plus a post-fixpoint *unshare* pass that clones cheap shared
//!   operators so each copy fuses into its consumer's pipeline.
//! * [`scaffold`] — deletes loop-lifting scaffolding with the inferred
//!   keys, constants, emptiness, types and sequence facts (runs with
//!   `reorder`): (a) a join against the loop plus constants becomes a π
//!   with the constants attached; (b) a `%` partitioned on a key column
//!   becomes `@t:=1`, and a `%` over rows already numbered densely within
//!   `iter` in sort order becomes a π of that column; (c) a provably empty
//!   operator becomes an empty literal, `∪` with an empty arm its other
//!   arm, `∖` with an empty right side its left side, σ over a
//!   constant-`true` column its input, and `ebv` over a Boolean `item`
//!   keyed by `iter` a π.  A subplan stops being evaluated only when what
//!   stays evaluates every operator in it that can raise an error.
//!
//! ## One analysis per plan, sweeps, one schema per iteration
//!
//! The rules that read [`PlanProperties`] (`reorder`, `indexscan`,
//! `scaffold`, `thetacount`) share one analysis, computed when a rule
//! first asks for it and then *kept*.  The sweep contract: every rewrite
//! replaces an operator by a subplan with the same rows, the same row
//! order and the same columns, so the bottom-up facts of every operator
//! the rewrite did not create — keys, constants, emptiness, provenance,
//! types, sequences, raisers — stay true.  A rule therefore applies every
//! rewrite its analysis justifies in one sweep, reading only the facts of
//! operators it did not create; between rules the kept analysis infers
//! facts for the created operators, re-estimates cardinalities and
//! re-resolves the top-down `order_free`, which any change of a consumer
//! can invalidate.  Rewrites that keep rows but not their order (join
//! reordering, the rank count, a mirrored join deletion) re-derive the
//! sequence facts; `indexscan` filters intermediate rows and is the one
//! rule after which the next reader gets a new analysis.  The cheap
//! peephole rules share one [`infer_schema`] per fixpoint iteration, and
//! `pushdown` keeps its consumer counts and schemas across one sweep of
//! pushes.
//!
//! Every rule is independently toggleable via [`OptimizerLevel`]; the
//! engine exposes them through `EngineOptions::optimizer_level`.  All
//! full-level rewrites preserve the serialized result byte for byte
//! (pinned by `tests/optimize_agreement.rs` across the whole
//! threads × morsel matrix).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use pf_store::DocStatistics;

pub mod cardinality;
pub mod dedup;
pub mod indexscan;
pub mod isolation;
pub mod pushdown;
pub mod reorder;
pub mod scaffold;
pub mod thetacount;

pub use cardinality::{CardEstimate, NoStats, StatsSource};
pub use isolation::Isolation;

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;
use crate::schema::{infer_schema, Properties};

/// Which rewrite rules [`optimize_with`] runs: the basic peephole pass is
/// always on; each join-graph-isolation rule has its own toggle so rules
/// can be measured (and property-tested) in isolation.
///
/// [`OptimizerLevel::BASIC`] is exactly the pre-isolation optimizer;
/// [`OptimizerLevel::FULL`] (the default) enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimizerLevel {
    /// Push selections below joins / through π, attach and maps, and fold
    /// σ/π over literal tables.
    pub pushdown: bool,
    /// The join-graph rewrites: reorder equi-join clusters in order-free
    /// regions by cardinality estimate, and count over a θ-join's distinct
    /// pairs by rank instead of materializing them
    /// ([`thetacount`]).
    pub reorder: bool,
    /// Hash-consed subplan dedup (one-pass replacement for the string CSE).
    pub dedup: bool,
    /// Clone cheap shared operators after the fixpoint so pipeline fusion
    /// sees single-consumer chains.
    pub unshare: bool,
    /// Rewrite recognized content predicates over axis steps into
    /// [`AlgOp::IndexScan`] candidate filters backed by the sidecar
    /// document indexes (the residual predicate stays in place, so
    /// answers are exact).
    pub indexscan: bool,
}

impl OptimizerLevel {
    /// Today's peephole pass, nothing else.
    pub const BASIC: OptimizerLevel = OptimizerLevel {
        pushdown: false,
        reorder: false,
        dedup: false,
        unshare: false,
        indexscan: false,
    };

    /// Every rule on (the engine default).
    pub const FULL: OptimizerLevel = OptimizerLevel {
        pushdown: true,
        reorder: true,
        dedup: true,
        unshare: true,
        indexscan: true,
    };

    /// `true` if no isolation rule is enabled.
    pub fn is_basic(self) -> bool {
        self == OptimizerLevel::BASIC
    }

    /// Stable textual tag, distinct per level; the engine embeds this in
    /// plan-cache keys so plans compiled at different levels never alias.
    pub fn tag(self) -> String {
        if self == OptimizerLevel::FULL {
            return "full".into();
        }
        if self == OptimizerLevel::BASIC {
            return "basic".into();
        }
        let mut rules = Vec::new();
        if self.pushdown {
            rules.push("pushdown");
        }
        if self.reorder {
            rules.push("reorder");
        }
        if self.dedup {
            rules.push("dedup");
        }
        if self.unshare {
            rules.push("unshare");
        }
        if self.indexscan {
            rules.push("indexscan");
        }
        rules.join(",")
    }
}

impl Default for OptimizerLevel {
    fn default() -> Self {
        OptimizerLevel::FULL
    }
}

impl std::fmt::Display for OptimizerLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.tag())
    }
}

/// Statistics of one [`optimize`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// Reachable operators before optimization.
    pub operators_before: usize,
    /// Reachable operators after optimization.
    pub operators_after: usize,
    /// Number of merged projection pairs.
    pub projections_merged: usize,
    /// Number of identity projections removed.
    pub identity_projections_removed: usize,
    /// Number of redundant `ddo` operators removed.
    pub doc_orders_removed: usize,
    /// Number of redundant δ operators removed.
    pub distincts_removed: usize,
    /// Number of operators merged by common-subexpression elimination.
    pub cse_merged: usize,
    /// Number of constant attaches folded into literal tables.
    pub constants_folded: usize,
    /// Number of equi-join clusters rewritten by statistics-driven
    /// reordering (`full` level only).
    pub joins_reordered: usize,
    /// Number of selections pushed below joins or through
    /// π/attach/maps (`full` level only).
    pub predicates_pushed: usize,
    /// Number of operators merged by hash-consed subplan dedup (`full`
    /// level only; supersedes `cse_merged` when enabled).
    pub subplans_deduped: usize,
    /// Number of cheap shared operators cloned after the fixpoint so
    /// pipeline fusion sees single-consumer chains (`full` level only).
    pub chains_unshared: usize,
    /// Number of `IndexScan` candidate filters spliced above axis steps
    /// (`full` level only).
    pub index_scans_introduced: usize,
    /// Number of count aggregates over a θ-join's pair table replaced by
    /// [`AlgOp::ThetaCount`] (`full` level only).
    pub theta_counts_introduced: usize,
    /// Number of loop-lifting scaffolding operators replaced by cheaper
    /// equivalent subplans ([`scaffold`]; `full` level only).
    pub scaffolding_deleted: usize,
    /// Number of fixpoint iterations the optimizer ran.
    pub iterations: usize,
    /// `true` when the plan verifier ran for this optimization and every
    /// rule application passed ([`crate::verify`]).
    pub verified: bool,
    /// Number of verifier passes run (one for the input plan plus one per
    /// rule application that changed the plan).
    pub verify_passes: usize,
    /// Number of whole-plan property analyses the rules asked for: one,
    /// plus one after each `indexscan` application that changed the plan
    /// (every other rewrite keeps the analysis).
    pub property_passes: usize,
    /// Nanoseconds spent verifying after each rule, indexed like
    /// [`OptimizeReport::RULE_NAMES`].
    pub verify_rule_nanos: [u64; Self::RULE_NAMES.len()],
}

impl OptimizeReport {
    /// Rule names indexing [`OptimizeReport::verify_rule_nanos`] (and
    /// naming rules in [`crate::verify::VerifyError`]).
    pub const RULE_NAMES: [&'static str; 11] = [
        "merge_projections",
        "identity_projections",
        "order_ops",
        "fold_attach",
        "dedup",
        "pushdown",
        "reorder",
        "indexscan",
        "unshare",
        "thetacount",
        "scaffold",
    ];

    /// Fraction of operators removed, in percent.
    pub fn reduction_percent(&self) -> f64 {
        if self.operators_before == 0 {
            return 0.0;
        }
        100.0 * (self.operators_before - self.operators_after) as f64 / self.operators_before as f64
    }
}

/// Optimize `plan` in place with the basic peephole pass (no statistics
/// needed) and report what happened.  Equivalent to [`optimize_with`] at
/// [`OptimizerLevel::BASIC`].
pub fn optimize(plan: &mut Plan) -> OptimizeReport {
    optimize_with(plan, OptimizerLevel::BASIC, &NoStats)
}

/// Optimize `plan` in place at `level`, using `stats` for cardinality
/// estimates, and report what happened.
///
/// The basic peephole rules always run.  Enabled isolation rules join the
/// fixpoint loop, except *unshare* which runs exactly once afterwards —
/// unshare and dedup are mutual inverses and must never alternate.  When
/// dedup is on, the one-pass hash-consing replaces the fixpoint string
/// CSE (same rewrites, counted in `subplans_deduped`).  Debug builds
/// verify every rewrite ([`optimize_with_verify`]); release builds do not.
///
/// The property-reading rules (`reorder`, `indexscan`, `scaffold`,
/// `thetacount`) share one [`PlanProperties`] analysis, computed when a
/// rule first asks for it and kept across rewrites (see the module docs;
/// [`OptimizeReport::property_passes`] counts the whole-plan analyses).
pub fn optimize_with(
    plan: &mut Plan,
    level: OptimizerLevel,
    stats: &dyn StatsSource,
) -> OptimizeReport {
    optimize_with_verify(plan, level, stats, cfg!(debug_assertions))
}

/// [`optimize_with`] that also returns the property analysis of the
/// optimized plan — the kept analysis brought up to date, so a caller that
/// needs the final plan's properties (the engine's cold admission
/// estimate reads [`PlanProperties::peak_rows`]) runs no extra pass.
pub fn optimize_analyzed(
    plan: &mut Plan,
    level: OptimizerLevel,
    stats: &dyn StatsSource,
) -> (OptimizeReport, PlanProperties) {
    let mut optimizer = Optimizer::new(plan, stats, cfg!(debug_assertions));
    optimizer.run(plan, level);
    optimizer.analysis.of(plan);
    let mut report = optimizer.report;
    report.property_passes = optimizer.analysis.passes;
    let props = optimizer.analysis.current.expect("analyzed just above");
    (report, props)
}

/// [`optimize_with`] with explicit control over plan verification.
///
/// When `verify` is set, the input plan is checked for structural
/// well-formedness and every rule application that changed the plan is
/// re-checked against the pre-rule [`crate::verify::PlanDigest`]
/// (schema preserved, keys/constants only strengthened).  A rejected
/// rewrite is rolled back to the pre-rule snapshot, panics in debug
/// builds (`debug_assert!`), and clears `report.verified` in release —
/// the query still runs, on the last plan that verified clean.
pub fn optimize_with_verify(
    plan: &mut Plan,
    level: OptimizerLevel,
    stats: &dyn StatsSource,
    verify: bool,
) -> OptimizeReport {
    let mut optimizer = Optimizer::new(plan, stats, verify);
    optimizer.run(plan, level);
    optimizer.report
}

/// The property analysis of the plan the optimizer currently holds:
/// computed on first demand, then kept across rewrites.
///
/// Every rewrite but one replaces a subplan by one with the same rows, so
/// the bottom-up facts of every operator stay true; the analysis only
/// infers facts for the operators a rule created, re-estimates
/// cardinalities and re-resolves the top-down `order_free`.  A rewrite that keeps the rows but not their
/// order (join reordering, a rank count, a mirrored join deletion) also
/// re-derives the sequence facts.  Only `indexscan`, which filters the
/// rows between the step it splices above and the predicate, drops the
/// analysis.
struct Analysis<'s> {
    stats: PinnedStats<'s>,
    current: Option<PlanProperties>,
    /// Whole-plan analyses computed so far.
    passes: usize,
    /// The plan changed since `order_free` was resolved.
    order_stale: bool,
    /// A rewrite changed a row order since the sequences were derived.
    sequences_stale: bool,
}

/// How a rule application changed the plan, as far as the analysis is
/// concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    /// Same rows, same order, same columns wherever a relation survived.
    Equivalent,
    /// Same rows and columns; some row orders changed.
    Reordered,
    /// Some intermediate relations lost rows.
    Filtered,
}

/// The statistics one optimization run sees: each document's fetched
/// once, so every analysis of the run estimates from the same version
/// even while a concurrent reload replaces the document.
struct PinnedStats<'s> {
    source: &'s dyn StatsSource,
    fetched: RefCell<HashMap<String, Option<Arc<DocStatistics>>>>,
}

impl StatsSource for PinnedStats<'_> {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        if let Some(stats) = self.fetched.borrow().get(uri) {
            return stats.clone();
        }
        let stats = self.source.doc_statistics(uri);
        self.fetched
            .borrow_mut()
            .insert(uri.to_string(), stats.clone());
        stats
    }
}

impl Analysis<'_> {
    /// The analysis of `plan`: the kept one brought up to date, or a new
    /// whole-plan pass.  Debug builds check that every operator's columns
    /// agree with a fresh schema inference — a rewrite that changed a
    /// relation's columns broke the equivalence the kept facts rely on.
    fn of(&mut self, plan: &Plan) -> &PlanProperties {
        let stats = &self.stats;
        match &mut self.current {
            None => {
                self.passes += 1;
                self.current = Some(PlanProperties::analyze_with(plan, stats));
            }
            Some(kept) => {
                kept.extend(plan, stats);
                if self.sequences_stale {
                    kept.refresh_sequences(plan);
                }
                if self.order_stale || self.sequences_stale {
                    kept.refresh_estimates(plan, stats);
                    kept.resolve_order_free(plan);
                }
                if cfg!(debug_assertions) {
                    let fresh = infer_schema(plan);
                    for (id, schema) in &fresh {
                        debug_assert_eq!(
                            kept.columns(*id),
                            schema.columns.as_slice(),
                            "a rewrite changed the columns of op #{id}"
                        );
                    }
                }
            }
        }
        self.order_stale = false;
        self.sequences_stale = false;
        self.current.as_ref().expect("analyzed just above")
    }

    fn changed(&mut self, change: Change) {
        match change {
            Change::Equivalent => self.order_stale = true,
            Change::Reordered => self.sequences_stale = true,
            Change::Filtered => self.current = None,
        }
    }
}

/// One optimization run: the report, the shared analysis, and the
/// verification state.
struct Optimizer<'s> {
    report: OptimizeReport,
    analysis: Analysis<'s>,
    verify: bool,
    /// A rewrite failed verification: stop verifying, keep optimizing.
    failed: bool,
}

impl<'s> Optimizer<'s> {
    fn new(plan: &Plan, stats: &'s dyn StatsSource, verify: bool) -> Optimizer<'s> {
        let mut optimizer = Optimizer {
            report: OptimizeReport {
                operators_before: plan.operator_count(),
                ..Default::default()
            },
            analysis: Analysis {
                stats: PinnedStats {
                    source: stats,
                    fetched: RefCell::default(),
                },
                current: None,
                passes: 0,
                order_stale: false,
                sequences_stale: false,
            },
            verify,
            failed: false,
        };
        if verify {
            optimizer.report.verify_passes += 1;
            if let Err(e) = crate::verify::verify_plan(plan) {
                debug_assert!(false, "optimizer input plan is malformed: {e}");
                optimizer.failed = true;
            }
        }
        optimizer
    }

    /// One rule application: snapshot, run, verify on change, roll back
    /// on rejection.  The digest is computed from the snapshot only when
    /// the rule actually changed the plan, so an idle fixpoint iteration
    /// costs one arena clone and nothing else.  A change is reported to
    /// the analysis as the rule's `change`; a rollback drops it.
    fn apply(
        &mut self,
        plan: &mut Plan,
        rule_idx: usize,
        rule: impl FnOnce(&mut Plan, &mut Analysis<'s>, &mut OptimizeReport) -> Option<Change>,
    ) -> bool {
        let snapshot = (self.verify && !self.failed).then(|| plan.clone());
        let Some(change) = rule(plan, &mut self.analysis, &mut self.report) else {
            return false;
        };
        self.analysis.changed(change);
        let Some(snapshot) = snapshot else {
            return true;
        };
        let start = std::time::Instant::now();
        let before = crate::verify::digest(&snapshot);
        let outcome =
            crate::verify::verify_rewrite(OptimizeReport::RULE_NAMES[rule_idx], &before, plan);
        self.report.verify_rule_nanos[rule_idx] += start.elapsed().as_nanos() as u64;
        self.report.verify_passes += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                debug_assert!(false, "{e}");
                *plan = snapshot;
                self.analysis.current = None;
                self.failed = true;
                false
            }
        }
    }

    fn run(&mut self, plan: &mut Plan, level: OptimizerLevel) {
        let equivalent = |changed: bool| changed.then_some(Change::Equivalent);
        // Run to a fixpoint; each pass is cheap (linear in plan size).
        loop {
            self.report.iterations += 1;
            let mut changed = false;
            changed |= self.apply(plan, 0, |p, _, r| equivalent(merge_projections(p, r)));
            // One schema for the iteration: the rules below only redirect
            // consumers to equivalent operators, which leaves the schema
            // of every operator they read valid.
            let schema = infer_schema(plan);
            changed |= self.apply(plan, 1, |p, _, r| {
                equivalent(remove_identity_projections(p, &schema, r))
            });
            changed |= self.apply(plan, 2, |p, _, r| {
                equivalent(remove_redundant_order_ops(p, &schema, r))
            });
            changed |= self.apply(plan, 3, |p, _, r| equivalent(fold_constant_attach(p, r)));
            if level.dedup {
                changed |= self.apply(plan, 4, |p, _, r| equivalent(dedup::hash_cons(p, r)));
            } else {
                changed |= self.apply(plan, 4, |p, _, r| equivalent(common_subexpressions(p, r)));
            }
            if level.pushdown {
                changed |= self.apply(plan, 5, |p, _, r| {
                    equivalent(pushdown::push_selections(p, r))
                });
            }
            if level.reorder {
                changed |= self.apply(plan, 6, |p, a, r| {
                    let props = a.of(p);
                    reorder::reorder_join_graphs(p, props, r).then_some(Change::Reordered)
                });
            }
            if level.indexscan {
                changed |= self.apply(plan, 7, |p, a, r| {
                    let props = a.of(p);
                    indexscan::introduce_index_scans(p, props, r).then_some(Change::Filtered)
                });
            }
            // Scaffolding deletion runs after the index scans are in, so
            // it never takes apart a predicate shape they match.
            if level.reorder {
                changed |= self.apply(plan, 10, |p, a, r| {
                    let props = a.of(p);
                    let swept = scaffold::delete_scaffolding(p, props, r);
                    match (swept.changed, swept.reordered) {
                        (false, _) => None,
                        (true, false) => Some(Change::Equivalent),
                        (true, true) => Some(Change::Reordered),
                    }
                });
            }
            // Count-by-rank matches the settled shape: try it once the
            // other rules are done (a hit sends the plan round the loop
            // again to clean up).
            if level.reorder && !changed {
                changed |= self.apply(plan, 9, |p, a, r| {
                    let props = a.of(p);
                    thetacount::count_by_rank(p, props, r).then_some(Change::Reordered)
                });
            }
            if !changed {
                break;
            }
        }
        if level.unshare {
            self.apply(plan, 8, |p, _, r| {
                let before = r.chains_unshared;
                dedup::unshare_fusable_chains(p, r);
                equivalent(r.chains_unshared != before)
            });
        }
        self.report.verified = self.verify && !self.failed;
        self.report.operators_after = plan.operator_count();
        self.report.property_passes = self.analysis.passes;
    }
}

/// Redirect every reference to `from` so that it points to `to`.
pub(crate) fn redirect(plan: &mut Plan, from: OpId, to: OpId) {
    if plan.root() == from {
        plan.set_root(to);
    }
    let n = plan.ops().len();
    for id in 0..n {
        let children = plan.op(id).children();
        for (idx, child) in children.iter().enumerate() {
            if *child == from {
                plan.ops_mut()[id].replace_child(idx, to);
            }
        }
    }
}

/// Rewrite π(π(q)) into a single π with composed column mapping.
fn merge_projections(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let AlgOp::Project { input, columns } = plan.op(id).clone() else {
            continue;
        };
        let AlgOp::Project {
            input: inner_input,
            columns: inner_columns,
        } = plan.op(input).clone()
        else {
            continue;
        };
        // Compose: outer (source→target) looks up source in the inner map.
        let inner_map: HashMap<&str, &str> = inner_columns
            .iter()
            .map(|(s, t)| (t.as_str(), s.as_str()))
            .collect();
        let Some(composed) = columns
            .iter()
            .map(|(source, target)| {
                inner_map
                    .get(source.as_str())
                    .map(|orig| (orig.to_string(), target.clone()))
            })
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        plan.ops_mut()[id] = AlgOp::Project {
            input: inner_input,
            columns: composed,
        };
        report.projections_merged += 1;
        changed = true;
    }
    changed
}

/// Remove projections that keep all input columns under unchanged names.
fn remove_identity_projections(
    plan: &mut Plan,
    props: &HashMap<OpId, Properties>,
    report: &mut OptimizeReport,
) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let AlgOp::Project { input, columns } = plan.op(id) else {
            continue;
        };
        let Some(child_props) = props.get(input) else {
            continue;
        };
        let identity = columns.len() == child_props.columns.len()
            && columns
                .iter()
                .zip(&child_props.columns)
                .all(|((s, t), c)| s == t && s == c);
        if identity {
            let input = *input;
            redirect(plan, id, input);
            report.identity_projections_removed += 1;
            changed = true;
        }
    }
    changed
}

/// Remove `ddo` over already document-ordered inputs and δ over already
/// distinct inputs.
fn remove_redundant_order_ops(
    plan: &mut Plan,
    props: &HashMap<OpId, Properties>,
    report: &mut OptimizeReport,
) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        match plan.op(id) {
            AlgOp::DocOrder { input }
                if props.get(input).map(|p| p.doc_ordered).unwrap_or(false) =>
            {
                let input = *input;
                redirect(plan, id, input);
                report.doc_orders_removed += 1;
                changed = true;
            }
            AlgOp::Distinct { input } if props.get(input).map(|p| p.distinct).unwrap_or(false) => {
                let input = *input;
                redirect(plan, id, input);
                report.distincts_removed += 1;
                changed = true;
            }
            _ => {}
        }
    }
    changed
}

/// Evaluate `Attach` over a literal table at compile time.
fn fold_constant_attach(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let AlgOp::Attach {
            input,
            target,
            value,
        } = plan.op(id).clone()
        else {
            continue;
        };
        let AlgOp::Lit { columns, rows } = plan.op(input).clone() else {
            continue;
        };
        let mut new_columns = columns.clone();
        new_columns.push(target.clone());
        let new_rows = rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.push(value.clone());
                r
            })
            .collect();
        plan.ops_mut()[id] = AlgOp::Lit {
            columns: new_columns,
            rows: new_rows,
        };
        report.constants_folded += 1;
        changed = true;
    }
    changed
}

/// Merge structurally identical operators (after children have been merged —
/// processing in topological order guarantees this converges).
fn common_subexpressions(plan: &mut Plan, report: &mut OptimizeReport) -> bool {
    let mut changed = false;
    let mut canonical: HashMap<String, OpId> = HashMap::new();
    for id in plan.reachable() {
        // The Debug representation includes child ids, which at this point
        // already reference canonical representatives.
        let key = format!("{:?}", plan.op(id));
        match canonical.get(&key) {
            Some(&existing) if existing != id => {
                redirect(plan, id, existing);
                report.cse_merged += 1;
                changed = true;
            }
            Some(_) => {}
            None => {
                canonical.insert(key, id);
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pf_relational::Value;
    use pf_store::{Axis, NodeTest};

    fn lit(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into(), "item".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(1), Value::Int(1)]],
        })
    }

    #[test]
    fn merges_stacked_projections() {
        let mut b = PlanBuilder::new();
        let l = lit(&mut b);
        let p1 = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                ("iter".into(), "outer".into()),
                ("item".into(), "item".into()),
            ],
        });
        let p2 = b.add(AlgOp::Project {
            input: p1,
            columns: vec![("outer".into(), "iter".into())],
        });
        let mut plan = b.finish(p2);
        let report = optimize(&mut plan);
        assert!(report.projections_merged >= 1);
        // The root is now a single projection straight over the literal.
        match plan.op(plan.root()) {
            AlgOp::Project { input, columns } => {
                assert_eq!(*input, l);
                assert_eq!(columns, &vec![("iter".to_string(), "iter".to_string())]);
            }
            other => panic!("expected projection, found {other:?}"),
        }
    }

    #[test]
    fn removes_identity_projection() {
        let mut b = PlanBuilder::new();
        let l = lit(&mut b);
        let p = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("pos".into(), "pos".into()),
                ("item".into(), "item".into()),
            ],
        });
        let d = b.add(AlgOp::Distinct { input: p });
        let mut plan = b.finish(d);
        let report = optimize(&mut plan);
        assert_eq!(report.identity_projections_removed, 1);
    }

    #[test]
    fn removes_redundant_doc_order_after_step() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![],
        });
        let step = b.add(AlgOp::Step {
            input: l,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let ddo = b.add(AlgOp::DocOrder { input: step });
        let mut plan = b.finish(ddo);
        let report = optimize(&mut plan);
        assert_eq!(report.doc_orders_removed, 1);
        assert_eq!(plan.root(), step);
    }

    #[test]
    fn removes_redundant_distinct() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "item".into()],
            rows: vec![],
        });
        let step = b.add(AlgOp::Step {
            input: l,
            axis: Axis::Child,
            test: NodeTest::AnyNode,
        });
        let d = b.add(AlgOp::Distinct { input: step });
        let mut plan = b.finish(d);
        let report = optimize(&mut plan);
        assert_eq!(report.distincts_removed, 1);
    }

    #[test]
    fn cse_merges_identical_subplans() {
        let mut b = PlanBuilder::new();
        let l1 = lit(&mut b);
        let l2 = lit(&mut b);
        let p1 = b.add(AlgOp::Project {
            input: l1,
            columns: vec![("iter".into(), "iter".into()), ("item".into(), "a".into())],
        });
        let p2 = b.add(AlgOp::Project {
            input: l2,
            columns: vec![("iter".into(), "iter1".into()), ("item".into(), "b".into())],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: p1,
            right: p2,
            left_col: "iter".into(),
            right_col: "iter1".into(),
        });
        let mut plan = b.finish(join);
        let before = plan.operator_count();
        let report = optimize(&mut plan);
        assert!(report.cse_merged >= 1, "duplicate literals should merge");
        assert!(plan.operator_count() < before);
    }

    #[test]
    fn folds_constant_attach_into_literal() {
        let mut b = PlanBuilder::new();
        let l = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)], vec![Value::Nat(2)]],
        });
        let a = b.add(AlgOp::Attach {
            input: l,
            target: "pos".into(),
            value: Value::Nat(1),
        });
        let mut plan = b.finish(a);
        let report = optimize(&mut plan);
        assert_eq!(report.constants_folded, 1);
        match plan.op(plan.root()) {
            AlgOp::Lit { columns, rows } => {
                assert_eq!(columns, &vec!["iter".to_string(), "pos".to_string()]);
                assert_eq!(rows[1], vec![Value::Nat(2), Value::Nat(1)]);
            }
            other => panic!("expected folded literal, found {other:?}"),
        }
    }

    #[test]
    fn optimization_reaches_a_fixpoint_and_shrinks() {
        let mut b = PlanBuilder::new();
        let l = lit(&mut b);
        let p = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("pos".into(), "pos".into()),
                ("item".into(), "item".into()),
            ],
        });
        let ddo = b.add(AlgOp::DocOrder { input: p });
        let d = b.add(AlgOp::Distinct { input: ddo });
        let mut plan = b.finish(d);
        let report = optimize(&mut plan);
        assert!(report.operators_after <= report.operators_before);
        assert!(report.reduction_percent() >= 0.0);
        // A second run must be a no-op.
        let report2 = optimize(&mut plan);
        assert_eq!(report2.operators_before, report2.operators_after);
    }
}
