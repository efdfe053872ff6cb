//! Peephole-style plan optimization.
//!
//! "Query plans can become quite large (XMark query Q8, e.g., prior to
//! optimization, compiles to a plan DAG of 120 operators).  This complexity
//! may significantly be reduced by peep-hole style optimization \[5\]."
//!
//! The rewrites implemented here are local (peephole) and exploit the
//! algebra's restrictions and the facts [`PlanProperties`] infers:
//!
//! 1. **Projection merging** — π(π(q)) ⇒ π(q) with composed renaming.
//! 2. **Identity projection removal** — a π that keeps every column of its
//!    input under the same name is dropped.
//!
//! These two are the *cleanup* phase.  The optimizer has one rule set:
//! cleanup plus the join-graph-isolation rules below, including the
//! property-driven deletions of [`scaffold`] (which also drops an
//! `fs:distinct-doc-order` over an input already in distinct document
//! order) and the literal folds of [`pushdown`].
//!
//! ## The phases
//!
//! The optimizer runs one fixed sequence of phases, each rule one sweep
//! over the plan, and reports what it did; the `plan_size` harness binary
//! uses that report to reproduce the paper's plan-complexity claim
//! (experiment E5).  No rule runs until nothing changes:
//!
//! 1. hash-cons, pushdown, reorder, scaffold, cleanup;
//! 2. the **second pass**: pushdown, reorder, scaffold, cleanup.
//!    Scaffold replaces joins, numberings and δ by π and @, which
//!    pushdown and scaffold then match again; without this pass XMark Q1,
//!    Q17 and Q20 keep operators;
//! 3. thetacount, then merge π when it fired;
//! 4. unshare.
//!
//! That is 13 sweeps, 14 after a rank count.  A phase is on the list only
//! if leaving it out changes some XMark plan: a cleanup before the first
//! pass, a literal fold of its own in cleanup (pushdown folds in the same
//! sweep), a hash-cons in the second pass or right before unshare, and an
//! identity-π sweep after a rank count changed none.
//!
//! A second run of the whole sequence over its own output changes nothing
//! on the XMark queries (pinned by `tests/optimize_agreement.rs`).
//!
//! ## Join-graph isolation
//!
//! On top of the peephole rules, [`optimize_with`] untangles the
//! order-maintenance scaffolding (rownum / `iter`-plumbing) from the value
//! predicates — the rewrite "XQuery Join Graph Isolation" (Grust et al.)
//! describes for exactly these plan DAGs.  [`PlanProperties`] infers, per
//! operator, key sets, constant columns and whether the operator's *row
//! order* can influence the serialized result at all.  Serialization
//! stably re-sorts the root by `pos` and most order-maintenance operators
//! either normalize their input (steps, `ddo`) or number it
//! deterministically when their sort keys cover a key (rownum), so large
//! plan regions are provably order-free.  The rules:
//!
//! * [`pushdown`] — pushes σ below equi-joins and through π, @, ∪ and δ
//!   (order-preserving rewrites, safe everywhere), and folds σ/π/@ over
//!   literal tables at compile time.
//! * [`reorder`] — reorders equi-join clusters inside order-free regions,
//!   greedily joining the smallest-estimated leaves first per
//!   [`PlanProperties::rows`] (document statistics from `pf-store`).
//! * [`thetacount`] — replaces a count aggregate over the distinct pairs
//!   of a θ-join by one [`AlgOp::ThetaCount`] when the scaffolding in
//!   between provably changes no row count.
//! * [`dedup`] — hash-consed common-subplan elimination in one bottom-up
//!   pass, turning the plan into a maximally shared DAG, plus a final
//!   *unshare* pass that clones cheap shared operators so each copy fuses
//!   into its consumer's pipeline.
//! * [`scaffold`] — deletes loop-lifting scaffolding with the inferred
//!   keys, constants, emptiness, types and sequence facts: (a) a join
//!   against the loop plus constants becomes a π with the constants
//!   attached; (b) a `%` partitioned on a key column becomes `@t:=1`, and
//!   a `%` over rows already numbered densely within `iter` in sort order
//!   becomes a π of that column; (c) a provably empty operator becomes an
//!   empty literal, `∪` with an empty arm its other arm, `∖` with an empty
//!   right side its left side, σ over a constant-`true` column its input,
//!   `ebv` over a Boolean `item` keyed by `iter` a π, δ over a keyed
//!   input its input, and `ddo` over an input in distinct document order
//!   its input.  A subplan stops being evaluated only when what
//!   stays evaluates every operator in it that can raise an error.
//!
//! ## One analysis per plan, sweeps
//!
//! The rules that read properties — identity-π removal, `pushdown`,
//! `reorder`, `scaffold`, `thetacount` — share one [`PlanProperties`]
//! analysis, computed when a rule first asks for it and then *kept*:
//! each optimization runs exactly one whole-plan analysis.  The sweep contract: every rewrite replaces an
//! operator by a subplan with the same rows, the same row order and the
//! same columns, so the bottom-up facts of every operator the rewrite did
//! not create — columns, document order, keys, constants, emptiness,
//! provenance, types, sequences, raisers — stay true.  A rule therefore
//! applies every rewrite its analysis justifies in one sweep, reading only
//! the facts of operators it did not create; between rules the kept analysis infers
//! facts for the created operators, re-estimates cardinalities and
//! re-resolves the top-down `order_free`, which any change of a consumer
//! can invalidate.  Rewrites that keep rows but not their order (join
//! reordering, the rank count, a mirrored join deletion) re-derive the
//! sequence facts.  `pushdown` keeps its consumer counts across one
//! sweep of pushes.
//!
//! The rule set is fixed: the engine either runs all of it or, with
//! `EngineOptions::optimize` off, none.  Every rewrite preserves the
//! serialized result byte for byte (pinned by
//! `tests/optimize_agreement.rs` against the unoptimized plan).

use std::cell::RefCell;
use std::sync::Arc;

use pf_relational::hash::FxHashMap;
use pf_store::DocStatistics;

pub mod dedup;
pub mod pushdown;
pub mod reorder;
pub mod scaffold;
pub mod thetacount;

pub use crate::properties::{NoStats, StatsSource};

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::properties::PlanProperties;

/// The optimizer's rule set.  It carries no choice: there is one rule
/// set, and [`optimize_with`] runs all of it.  The type exists for that
/// function's signature, which the benchmark harness calls with the
/// engine's default level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerLevel;

impl OptimizerLevel {
    /// The one rule set.
    pub const FULL: OptimizerLevel = OptimizerLevel;
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
    /// Number of `ddo` operators over an input already in distinct
    /// document order removed (by [`scaffold`]).
    pub doc_orders_removed: usize,
    /// Number of δ operators over a keyed input removed (by
    /// [`scaffold`]).
    pub distincts_removed: usize,
    /// Always 0: common subplans are merged by hash-consing and counted
    /// in `subplans_deduped`.  Kept so readers of the report's fields
    /// (the benchmark harness sums them) keep compiling.
    pub cse_merged: usize,
    /// Number of σ, π and @ over literal tables folded into literals.
    pub constants_folded: usize,
    /// Number of equi-join clusters rewritten by statistics-driven
    /// reordering.
    pub joins_reordered: usize,
    /// Number of selections pushed below equi-joins or through π, @, ∪
    /// and δ.
    pub predicates_pushed: usize,
    /// Number of operators merged by hash-consed subplan dedup.
    pub subplans_deduped: usize,
    /// Number of cheap shared operators cloned by the final unshare pass
    /// so pipeline fusion sees single-consumer chains.
    pub chains_unshared: usize,
    /// Always 0: the optimizer introduces no index scans.  Kept because
    /// the benchmark harness reads it.
    pub index_scans_introduced: usize,
    /// Number of count aggregates over a θ-join's pair table replaced by
    /// [`AlgOp::ThetaCount`].
    pub theta_counts_introduced: usize,
    /// Number of loop-lifting scaffolding operators other than δ and
    /// `ddo` replaced by cheaper equivalent subplans ([`scaffold`]).
    pub scaffolding_deleted: usize,
    /// `true` when the plan verifier ran for this optimization and every
    /// rule application passed ([`crate::verify`]).
    pub verified: bool,
    /// Number of verifier passes run (one for the input plan plus one per
    /// rule application that changed the plan).
    pub verify_passes: usize,
    /// Number of whole-plan property analyses the rules asked for: one
    /// (every rewrite keeps the analysis).
    pub property_passes: usize,
    /// Number of per-operator inferences the analyses ran: every operator
    /// of each whole-plan analysis, plus each operator a kept analysis
    /// inferred facts for after a rewrite created it.
    pub operators_analyzed: usize,
}

impl OptimizeReport {
    /// Fraction of operators removed, in percent; negative when the plan
    /// grew (unshare clones shared operators).
    pub fn reduction_percent(&self) -> f64 {
        if self.operators_before == 0 {
            return 0.0;
        }
        let (before, after) = (self.operators_before as f64, self.operators_after as f64);
        100.0 * (before - after) / before
    }
}

/// Optimize `plan` in place without document statistics and report what
/// happened.  Equivalent to [`optimize_with`] over [`NoStats`].
pub fn optimize(plan: &mut Plan) -> OptimizeReport {
    optimize_with(plan, OptimizerLevel::FULL, &NoStats)
}

/// Optimize `plan` in place, using `stats` for cardinality estimates, and
/// report what happened.  `level` carries no choice (see
/// [`OptimizerLevel`]).
///
/// The rules run as the fixed phase sequence of the module docs; unshare
/// runs exactly once, last — unshare and hash-consing are mutual inverses
/// and must never alternate.  Debug builds verify every rewrite
/// ([`optimize_with_verify`]); release builds do not.
///
/// The property-reading rules share one [`PlanProperties`] analysis,
/// computed when a rule first asks for it and kept across rewrites (see
/// the module docs; [`OptimizeReport::property_passes`] counts the
/// whole-plan analyses).
pub fn optimize_with(
    plan: &mut Plan,
    _level: OptimizerLevel,
    stats: &dyn StatsSource,
) -> OptimizeReport {
    optimize_with_verify(plan, stats, cfg!(debug_assertions))
}

/// [`optimize_with`] that also returns the property analysis of the
/// optimized plan — the kept analysis brought up to date, so a caller that
/// needs the final plan's properties (the engine's cold admission
/// estimate reads [`PlanProperties::peak_rows`]) runs no extra pass.
pub fn optimize_analyzed(
    plan: &mut Plan,
    stats: &dyn StatsSource,
) -> (OptimizeReport, PlanProperties) {
    let mut optimizer = Optimizer::new(plan, stats, cfg!(debug_assertions));
    optimizer.run(plan);
    optimizer.analysis.of(plan);
    let mut report = optimizer.report;
    report.property_passes = optimizer.analysis.passes;
    report.operators_analyzed = optimizer.analysis.inferred;
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
    stats: &dyn StatsSource,
    verify: bool,
) -> OptimizeReport {
    let mut optimizer = Optimizer::new(plan, stats, verify);
    optimizer.run(plan);
    optimizer.report
}

/// The property analysis of the plan the optimizer currently holds:
/// computed on first demand, then kept across rewrites.
///
/// Every rewrite replaces a subplan by one with the same rows, so the
/// bottom-up facts of every operator stay true; the analysis only infers
/// facts for the operators a rule created, re-estimates cardinalities and
/// re-resolves the top-down `order_free`.  A rewrite that keeps the rows
/// but not their order (join reordering, a rank count, a mirrored join
/// deletion) also re-derives the sequence facts.
struct Analysis<'s> {
    stats: PinnedStats<'s>,
    current: Option<PlanProperties>,
    /// Whole-plan analyses computed so far.
    passes: usize,
    /// Per-operator inferences run so far, over all analyses.
    inferred: usize,
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
}

/// The statistics one optimization run sees: each document's fetched
/// once, so every analysis of the run estimates from the same version
/// even while a concurrent reload replaces the document.
struct PinnedStats<'s> {
    source: &'s dyn StatsSource,
    fetched: RefCell<FxHashMap<String, Option<Arc<DocStatistics>>>>,
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
    /// whole-plan pass.  After a change, debug builds check that every
    /// operator's columns agree with a fresh analysis — a rewrite that
    /// changed a relation's columns broke the equivalence the kept facts
    /// rely on.
    fn of(&mut self, plan: &Plan) -> &PlanProperties {
        let stats = &self.stats;
        match &mut self.current {
            None => {
                self.passes += 1;
                let mut fresh = PlanProperties::empty();
                self.inferred += fresh.extend(plan, stats);
                fresh.resolve_order_free(plan);
                self.current = Some(fresh);
            }
            Some(kept) => {
                self.inferred += kept.extend(plan, stats);
                if self.sequences_stale {
                    kept.refresh_sequences(plan);
                }
                if self.order_stale || self.sequences_stale {
                    kept.refresh_estimates(plan, stats);
                    kept.resolve_order_free(plan);
                    if cfg!(debug_assertions) {
                        let fresh = PlanProperties::analyze(plan);
                        for &id in plan.order() {
                            debug_assert_eq!(
                                kept.columns(id),
                                fresh.columns(id),
                                "a rewrite changed the columns of op #{id}"
                            );
                        }
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
                inferred: 0,
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

    /// One application of the rule named `name` (the name a
    /// [`crate::verify::VerifyError`] reports): snapshot, run, verify on
    /// change, roll back on rejection.  The digest is computed from the
    /// snapshot only when the rule actually changed the plan, so an idle
    /// rule costs one arena clone and nothing else.  A change is reported
    /// to the analysis as the rule's `change`; a rollback drops it.
    fn apply(
        &mut self,
        plan: &mut Plan,
        name: &str,
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
        let before = crate::verify::digest(&snapshot);
        let outcome = crate::verify::verify_rewrite(name, &before, plan);
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

    /// The phases, each rule one sweep: the first rewrite pass; the
    /// **second pass** (pushdown, reorder, scaffold, cleanup), which
    /// exists because scaffold's π and @ feed pushdown and scaffold again
    /// — without it XMark Q1, Q17 and Q20 keep operators; thetacount, with
    /// a merge-π sweep on a hit; unshare.
    fn run(&mut self, plan: &mut Plan) {
        self.rewrite_pass(plan, true);
        self.rewrite_pass(plan, false);
        // Count-by-rank matches the settled shape; a hit leaves stacked
        // projections to merge (and no identity π).
        let counted = self.apply(plan, "thetacount", |p, a, r| {
            let props = a.of(p);
            thetacount::count_by_rank(p, props, r).then_some(Change::Reordered)
        });
        if counted {
            self.merge_projections(plan);
        }
        self.apply(plan, "unshare", |p, _, r| {
            let before = r.chains_unshared;
            dedup::unshare_fusable_chains(p, r);
            equivalent(r.chains_unshared != before)
        });
        self.report.verified = self.verify && !self.failed;
        self.report.operators_after = plan.operator_count();
        self.report.property_passes = self.analysis.passes;
        self.report.operators_analyzed = self.analysis.inferred;
    }

    /// The first pass (`first`): hash-cons, pushdown, reorder, scaffold,
    /// cleanup.  The second: pushdown, reorder, scaffold,
    /// cleanup.
    fn rewrite_pass(&mut self, plan: &mut Plan, first: bool) {
        if first {
            self.apply(plan, "dedup", |p, _, r| equivalent(dedup::hash_cons(p, r)));
        }
        self.apply(plan, "pushdown", |p, a, r| {
            let props = a.of(p);
            equivalent(pushdown::push_selections(p, props, r))
        });
        self.apply(plan, "reorder", |p, a, r| {
            let props = a.of(p);
            reorder::reorder_join_graphs(p, props, r).then_some(Change::Reordered)
        });
        self.apply(plan, "scaffold", |p, a, r| {
            let props = a.of(p);
            let swept = scaffold::delete_scaffolding(p, props, r);
            match (swept.changed, swept.reordered) {
                (false, _) => None,
                (true, false) => Some(Change::Equivalent),
                (true, true) => Some(Change::Reordered),
            }
        });
        self.cleanup(plan);
    }

    /// Merge π, drop identity π.
    fn cleanup(&mut self, plan: &mut Plan) {
        self.merge_projections(plan);
        self.apply(plan, "identity_projections", |p, a, r| {
            let props = a.of(p);
            equivalent(remove_identity_projections(p, props, r))
        });
    }

    /// Merge stacked π.
    fn merge_projections(&mut self, plan: &mut Plan) {
        self.apply(plan, "merge_projections", |p, _, r| {
            equivalent(merge_projections(p, r))
        });
    }
}

/// A rule's outcome as an equivalence-preserving change.
fn equivalent(changed: bool) -> Option<Change> {
    changed.then_some(Change::Equivalent)
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
        let AlgOp::Project { input, columns } = plan.op(id) else {
            continue;
        };
        let AlgOp::Project {
            input: inner_input,
            columns: inner_columns,
        } = plan.op(*input)
        else {
            continue;
        };
        // Compose: outer (source→target) looks up source in the inner map.
        let Some(composed) = columns
            .iter()
            .map(|&(source, target)| {
                let &(orig, _) = inner_columns.iter().rfind(|&&(_, t)| t == source)?;
                Some((orig, target))
            })
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let input = *inner_input;
        plan.ops_mut()[id] = AlgOp::Project {
            input,
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
    props: &PlanProperties,
    report: &mut OptimizeReport,
) -> bool {
    let mut changed = false;
    for id in plan.reachable() {
        let AlgOp::Project { input, columns } = plan.op(id) else {
            continue;
        };
        let input_columns = props.columns(*input);
        let identity = columns.len() == input_columns.len()
            && columns
                .iter()
                .zip(input_columns)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::test_cols::{builder, col};
    use pf_relational::Value;
    use pf_store::{Axis, NodeTest};

    fn lit(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos"), col("item")],
            rows: vec![vec![
                Value::Nat(1).into(),
                Value::Nat(1).into(),
                Value::Int(1).into(),
            ]],
        })
    }

    #[test]
    fn merges_stacked_projections() {
        let mut b = builder();
        let l = big_lit(&mut b);
        let p1 = b.add(AlgOp::Project {
            input: l,
            columns: vec![(col("iter"), col("outer")), (col("item"), col("item"))],
        });
        let p2 = b.add(AlgOp::Project {
            input: p1,
            columns: vec![(col("outer"), col("iter"))],
        });
        let mut plan = b.finish(p2);
        let report = optimize(&mut plan);
        assert_eq!(report.projections_merged, 1);
        // One π over the literal keeps `iter` under its own name.
        assert_eq!(
            plan.op(plan.root()),
            &AlgOp::Project {
                input: l,
                columns: vec![(col("iter"), col("iter"))],
            }
        );
    }

    #[test]
    fn removes_identity_projection() {
        let mut b = builder();
        let l = big_lit(&mut b);
        let p = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                (col("iter"), col("iter")),
                (col("pos"), col("pos")),
                (col("item"), col("item")),
            ],
        });
        let mut plan = b.finish(p);
        let report = optimize(&mut plan);
        assert_eq!(report.identity_projections_removed, 1);
        assert_eq!(plan.root(), l);
    }

    #[test]
    fn removes_redundant_doc_order_after_step() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let d = b.add(AlgOp::Doc {
            uri: "doc.xml".into(),
        });
        let x = b.add(AlgOp::Cross { left: l, right: d });
        let step = b.add(AlgOp::Step {
            input: x,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let ddo = b.add(AlgOp::DocOrder { input: step });
        let mut plan = b.finish(ddo);
        let report = optimize(&mut plan);
        assert_eq!(report.doc_orders_removed, 1);
        assert_eq!(report.scaffolding_deleted, 0);
        assert_eq!(plan.root(), step);
    }

    #[test]
    fn removes_redundant_distinct() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
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

    /// An `iter|pos|item` literal one row past the fold cap, so cleanup
    /// leaves the operators over it in place.
    fn big_lit(b: &mut PlanBuilder) -> OpId {
        b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos"), col("item")],
            rows: (0..=pushdown::LIT_FOLD_CAP as u64)
                .map(|i| {
                    vec![
                        Value::Nat(i).into(),
                        Value::Nat(1).into(),
                        Value::Int(i as i64).into(),
                    ]
                })
                .collect(),
        })
    }

    #[test]
    fn cse_merges_identical_subplans() {
        let mut b = builder();
        let l1 = big_lit(&mut b);
        let l2 = big_lit(&mut b);
        let p1 = b.add(AlgOp::Project {
            input: l1,
            columns: vec![(col("iter"), col("iter")), (col("item"), col("a"))],
        });
        let p2 = b.add(AlgOp::Project {
            input: l2,
            columns: vec![(col("iter"), col("iter1")), (col("item"), col("b"))],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: p1,
            right: p2,
            left_col: col("iter"),
            right_col: col("iter1"),
        });
        let mut plan = b.finish(join);
        let before = plan.operator_count();
        let report = optimize(&mut plan);
        assert!(
            report.subplans_deduped >= 1,
            "duplicate literals should merge"
        );
        assert_eq!(report.cse_merged, 0);
        assert!(plan.operator_count() < before);
    }

    #[test]
    fn folds_constant_attach_into_literal() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()], vec![Value::Nat(2).into()]],
        });
        let a = b.add(AlgOp::Attach {
            input: l,
            target: col("pos"),
            value: Value::Nat(1).into(),
        });
        let mut plan = b.finish(a);
        let report = optimize(&mut plan);
        assert_eq!(report.constants_folded, 1);
        match plan.op(plan.root()) {
            AlgOp::Lit { columns, rows } => {
                assert_eq!(columns, &vec![col("iter"), col("pos")]);
                assert_eq!(rows[1], vec![Value::Nat(2), Value::Nat(1)]);
            }
            other => panic!("expected folded literal, found {other:?}"),
        }
    }

    /// A `Doc`×`Lit` step under a `UnaryMap` that a σ and a π share, the
    /// two meeting in a ⋈: nothing shrinks, and unshare clones the map for
    /// one of its consumers, so the plan grows from 8 operators to 9.
    #[test]
    fn reduction_is_negative_when_the_plan_grows() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let d = b.add(AlgOp::Doc {
            uri: "doc.xml".into(),
        });
        let x = b.add(AlgOp::Cross { left: l, right: d });
        let step = b.add(AlgOp::Step {
            input: x,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let map = b.add(AlgOp::UnaryMap {
            input: step,
            target: col("s"),
            op: pf_relational::ops::UnaryOp::ToString,
            source: col("item"),
        });
        let sel = b.add(AlgOp::SelectEq {
            input: map,
            column: col("pos"),
            value: Value::Nat(1),
        });
        let proj = b.add(AlgOp::Project {
            input: map,
            columns: vec![
                (col("iter"), col("iter1")),
                (col("pos"), col("pos1")),
                (col("s"), col("s1")),
            ],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: sel,
            right: proj,
            left_col: col("iter"),
            right_col: col("iter1"),
        });
        let mut plan = b.finish(join);
        let report = optimize(&mut plan);
        assert_eq!(report.operators_before, 8);
        assert_eq!(report.operators_after, 9);
        assert_eq!(report.chains_unshared, 1);
        assert!((report.reduction_percent() + 12.5).abs() < 1e-9);
    }

    #[test]
    fn optimization_reaches_a_fixpoint_and_shrinks() {
        let mut b = builder();
        let l = lit(&mut b);
        let p = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                (col("iter"), col("iter")),
                (col("pos"), col("pos")),
                (col("item"), col("item")),
            ],
        });
        let ddo = b.add(AlgOp::DocOrder { input: p });
        let d = b.add(AlgOp::Distinct { input: ddo });
        let mut plan = b.finish(d);
        let report = optimize(&mut plan);
        assert!(report.operators_after < report.operators_before);
        assert!(report.reduction_percent() > 0.0);
        // A second run of the phases must be a no-op.
        let once = plan.clone();
        let report2 = optimize(&mut plan);
        assert_eq!(report2.operators_before, report2.operators_after);
        assert_eq!(plan, once);
    }
}
