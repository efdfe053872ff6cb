//! Mutation testing for the static plan verifier (`pf_algebra::verify`).
//!
//! A verifier that accepts everything is worse than none — it buys false
//! confidence.  This suite injects deliberately broken plans and broken
//! "rewrites" (the kinds of bugs an optimizer rule could realistically
//! introduce: dangling edges, dropped predicates, swapped join inputs,
//! dedup of non-equal subplans, mis-targeted index probes) and asserts
//! that [`verify_plan`] / [`verify_rewrite`] reject **every single one**
//! — while accepting all twenty XMark query plans at every optimizer
//! level, with and without index scans.
//!
//! The mutations call the verifier directly rather than going through
//! `optimize_with_verify`, whose debug builds `debug_assert!` on a
//! rejected rewrite (exactly what these tests want to provoke).

use pathfinder::algebra::{
    digest, optimize_with_verify, verify_plan, verify_rewrite, AlgOp, NoStats, Plan, PlanBuilder,
    SortSpec,
};
use pathfinder::relational::ops::{
    AggFunc, BinaryOp, CmpOp, IndexMode, IndexProbe, IndexTarget, RankCount,
};
use pathfinder::relational::{ColId, Value};
use pathfinder::store::{Axis, NodeTest};
use pathfinder::xmark::queries;
use pathfinder::xquery::{compile, normalize, parse_query, CompileOptions};

/// The columns these tests name besides the well-known ones, numbered in
/// this order by every plan of [`builder`]; [`col`]
/// gives each a fixed id.
const NAMES: &[&str] = &[
    "a", "b", "c", "gone", "iter1", "k", "loop", "missing", "n", "t", "val", "x", "y", "z",
];

fn col(name: &str) -> ColId {
    let at = ColId::WELL_KNOWN
        .iter()
        .chain(NAMES)
        .position(|&n| n == name);
    ColId(at.unwrap_or_else(|| panic!("test column `{name}` is not in `NAMES`")) as u32)
}

fn builder() -> PlanBuilder {
    let mut b = PlanBuilder::new();
    NAMES.iter().for_each(|&n| {
        b.col(n);
    });
    b
}

fn nat_lit(b: &mut PlanBuilder, columns: &[&str], rows: &[&[u64]]) -> usize {
    b.add(AlgOp::Lit {
        columns: columns.iter().map(|c| col(c)).collect(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(|v| Value::Nat(*v).into()).collect())
            .collect(),
    })
}

/// A well-formed `doc → attach iter → step` base for IndexScan mutations.
fn step_base(b: &mut PlanBuilder, uri: &str) -> usize {
    let doc = b.add(AlgOp::Doc { uri: uri.into() });
    let ctx = b.add(AlgOp::Attach {
        input: doc,
        target: col("iter"),
        value: Value::Nat(1).into(),
    });
    b.add(AlgOp::Step {
        input: ctx,
        axis: Axis::Descendant,
        test: NodeTest::Element("item".into()),
    })
}

fn text_probe() -> IndexProbe {
    IndexProbe::TextContains {
        needle: "gold".into(),
    }
}

/// Assert the mutated plan is rejected and the error message mentions
/// each `needles` fragment (so failures stay attributable).
fn assert_rejected(plan: &Plan, needles: &[&str]) {
    let err = verify_plan(plan).expect_err("mutation must be rejected");
    let msg = err.to_string();
    for needle in needles {
        assert!(msg.contains(needle), "`{needle}` not in error: {msg}");
    }
}

// ---------------------------------------------------------------------------
// Structural mutations: verify_plan must reject each.
// ---------------------------------------------------------------------------

#[test]
fn mutation_dangling_child_reference() {
    let mut b = builder();
    let broken = b.add(AlgOp::Distinct { input: 99 });
    assert_rejected(&b.finish(broken), &["child #99"]);
}

#[test]
fn mutation_cycle_through_forward_reference() {
    // PlanBuilder does not validate forward references, so a cycle is
    // constructible: #0 → #1 → #0.
    let mut b = builder();
    let a = b.add(AlgOp::Distinct { input: 1 });
    let _bk = b.add(AlgOp::Distinct { input: a });
    assert_rejected(&b.finish(a), &["cycle"]);
}

#[test]
fn mutation_unresolvable_select_column() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "item"], &[&[1, 10]]);
    let sel = b.add(AlgOp::Select {
        input: lit,
        column: col("missing"),
    });
    assert_rejected(&b.finish(sel), &["missing", "does not resolve"]);
}

#[test]
fn mutation_ragged_literal_rows() {
    let mut b = builder();
    let lit = b.add(AlgOp::Lit {
        columns: vec![col("a"), col("b")],
        rows: vec![
            vec![Value::Nat(1).into(), Value::Nat(2).into()],
            vec![Value::Nat(3).into()],
        ],
    });
    assert_rejected(&b.finish(lit), &["row 1", "1 values for 2 columns"]);
}

#[test]
fn mutation_duplicate_literal_columns() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["a", "a"], &[&[1, 2]]);
    assert_rejected(&b.finish(lit), &["duplicate column"]);
}

#[test]
fn mutation_duplicate_projection_targets() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["a", "b"], &[&[1, 2]]);
    let proj = b.add(AlgOp::Project {
        input: lit,
        columns: vec![(col("a"), col("x")), (col("b"), col("x"))],
    });
    assert_rejected(&b.finish(proj), &["duplicate target column `x`"]);
}

#[test]
fn mutation_projection_source_missing() {
    // The classic broken rewrite: a rule renames a column but forgets to
    // patch a consumer's source list.
    let mut b = builder();
    let lit = nat_lit(&mut b, &["a"], &[&[1]]);
    let proj = b.add(AlgOp::Project {
        input: lit,
        columns: vec![(col("gone"), col("a"))],
    });
    assert_rejected(&b.finish(proj), &["gone", "does not resolve"]);
}

#[test]
fn mutation_union_schema_mismatch() {
    let mut b = builder();
    let l = nat_lit(&mut b, &["a", "b"], &[&[1, 2]]);
    let r = nat_lit(&mut b, &["a", "c"], &[&[1, 2]]);
    let u = b.add(AlgOp::Union { left: l, right: r });
    assert_rejected(&b.finish(u), &["input schemas disagree"]);
}

#[test]
fn mutation_attach_target_collision() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["a"], &[&[1]]);
    let at = b.add(AlgOp::Attach {
        input: lit,
        target: col("a"),
        value: Value::Nat(7).into(),
    });
    assert_rejected(&b.finish(at), &["target column `a` already exists"]);
}

#[test]
fn mutation_rownum_target_collision() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "pos"], &[&[1, 1]]);
    let rn = b.add(AlgOp::RowNum {
        input: lit,
        target: col("pos"),
        order_by: vec![SortSpec::asc(col("iter"))],
        partition: None,
    });
    assert_rejected(&b.finish(rn), &["target column `pos` already exists"]);
}

#[test]
fn mutation_aggregate_group_unresolvable() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "item"], &[&[1, 10]]);
    let agg = b.add(AlgOp::Aggregate {
        input: lit,
        group: col("loop"),
        target: col("n"),
        func: AggFunc::Count,
        value: col("item"),
    });
    assert_rejected(&b.finish(agg), &["group column `loop`"]);
}

#[test]
fn mutation_sort_column_unresolvable() {
    // The sort key of a row numbering names a column its input lacks.
    let mut b = builder();
    let lit = nat_lit(&mut b, &["a"], &[&[1]]);
    let rn = b.add(AlgOp::RowNum {
        input: lit,
        target: col("n"),
        order_by: vec![SortSpec::asc(col("z"))],
        partition: None,
    });
    assert_rejected(&b.finish(rn), &["order-by column `z`"]);
}

#[test]
fn mutation_step_over_iterless_input() {
    let mut b = builder();
    let doc = b.add(AlgOp::Doc {
        uri: "auction.xml".into(),
    });
    // Doc produces only `item`; a step also needs `iter`.
    let step = b.add(AlgOp::Step {
        input: doc,
        axis: Axis::Child,
        test: NodeTest::AnyElement,
    });
    assert_rejected(&b.finish(step), &["context column `iter`"]);
}

#[test]
fn mutation_indexscan_over_non_step_input() {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "item"], &[&[1, 10]]);
    let idx = b.add(AlgOp::IndexScan {
        input: lit,
        uri: "auction.xml".into(),
        probe: text_probe(),
        mode: IndexMode::Exact,
        param: None,
    });
    assert_rejected(&b.finish(idx), &["only", "filter a step"]);
}

#[test]
fn mutation_indexscan_uri_provenance_mismatch() {
    // The candidate-superset precondition: probing document B's sidecar
    // to filter rows that came out of document A keeps *wrong* rows out
    // of the candidate set — rows the residual predicate can never
    // restore.
    let mut b = builder();
    let step = step_base(&mut b, "auction.xml");
    let idx = b.add(AlgOp::IndexScan {
        input: step,
        uri: "other.xml".into(),
        probe: text_probe(),
        mode: IndexMode::Exact,
        param: None,
    });
    assert_rejected(&b.finish(idx), &["other.xml", "provenance"]);
}

#[test]
fn mutation_indexscan_unanswerable_nan_probe() {
    let mut b = builder();
    let step = step_base(&mut b, "auction.xml");
    let idx = b.add(AlgOp::IndexScan {
        input: step,
        uri: "auction.xml".into(),
        probe: IndexProbe::ValueCmp {
            target: IndexTarget::ElementTag("price".into()),
            op: CmpOp::Lt,
            value: Value::Dbl(f64::NAN),
            to_number: true,
        },
        mode: IndexMode::Exact,
        param: None,
    });
    assert_rejected(&b.finish(idx), &["unanswerable probe"]);
}

#[test]
fn mutation_root_produces_no_columns() {
    let mut b = builder();
    let lit = b.add(AlgOp::Lit {
        columns: vec![],
        rows: vec![],
    });
    assert_rejected(&b.finish(lit), &["root produces no columns"]);
}

// ---------------------------------------------------------------------------
// Semantic mutations: a digest captured before the "rewrite" must make
// verify_rewrite reject the broken after-plan.
// ---------------------------------------------------------------------------

/// `lit(iter, val) → σ[val = pick]` — proves `val` constant at the root.
fn selected_plan(pick: u64) -> Plan {
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "val"], &[&[1, 1], &[2, 2], &[3, 1]]);
    let sel = b.add(AlgOp::SelectEq {
        input: lit,
        column: col("val"),
        value: Value::Nat(pick),
    });
    b.finish(sel)
}

#[test]
fn mutation_swapped_join_inputs_change_root_schema() {
    let build = |swap: bool| -> Plan {
        let mut b = builder();
        let l = nat_lit(&mut b, &["a", "x"], &[&[1, 10]]);
        let r = nat_lit(&mut b, &["k", "y"], &[&[1, 20]]);
        let (left, right, lc, rc) = if swap {
            (r, l, "k", "a")
        } else {
            (l, r, "a", "k")
        };
        let j = b.add(AlgOp::EquiJoin {
            left,
            right,
            left_col: col(lc),
            right_col: col(rc),
        });
        b.finish(j)
    };
    let before = digest(&build(false));
    // Swapping join inputs without re-projecting reverses the output
    // column order — a schema change every consumer above would see.
    let err = verify_rewrite("mutated-join-swap", &before, &build(true))
        .expect_err("swapped join inputs must be rejected");
    assert!(err.to_string().contains("root schema changed"), "{err}");
    assert!(err.to_string().contains("mutated-join-swap"), "{err}");
}

#[test]
fn mutation_dropped_residual_predicate_loses_constant() {
    let before = digest(&selected_plan(1));
    // "Optimize away" the selection entirely: `val` is no longer
    // constant, which is exactly how a dropped residual predicate shows
    // up in the digest.
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "val"], &[&[1, 1], &[2, 2], &[3, 1]]);
    let after = b.finish(lit);
    let err = verify_rewrite("mutated-drop-predicate", &before, &after)
        .expect_err("dropped predicate must be rejected");
    assert!(err.to_string().contains("proven constant"), "{err}");
}

#[test]
fn mutation_constant_value_flip() {
    let before = digest(&selected_plan(1));
    let err = verify_rewrite("mutated-value-flip", &before, &selected_plan(2))
        .expect_err("flipped constant value must be rejected");
    assert!(err.to_string().contains("changed value"), "{err}");
}

#[test]
fn mutation_dedup_of_non_equal_subplans() {
    // before: both union branches select val = 1 (root: val constant 1).
    // after: a broken hash-cons merged the σ[val=1] branch into a
    // σ[val=2] branch — non-equal subplans dedup'd.
    let union_of = |p1: u64, p2: u64| -> Plan {
        let mut b = builder();
        let mk = |b: &mut PlanBuilder, pick: u64| {
            let lit = nat_lit(b, &["iter", "val"], &[&[1, 1], &[2, 2]]);
            b.add(AlgOp::SelectEq {
                input: lit,
                column: col("val"),
                value: Value::Nat(pick),
            })
        };
        let s1 = mk(&mut b, p1);
        let s2 = mk(&mut b, p2);
        let u = b.add(AlgOp::Union {
            left: s1,
            right: s2,
        });
        b.finish(u)
    };
    let before = digest(&union_of(1, 1));
    let err = verify_rewrite("mutated-dedup", &before, &union_of(2, 2))
        .expect_err("dedup of non-equal subplans must be rejected");
    assert!(err.to_string().contains("changed value"), "{err}");
}

#[test]
fn mutation_duplicating_rows_loses_root_key() {
    let single = |dup: bool| -> Plan {
        let mut b = builder();
        let rows: &[&[u64]] = if dup { &[&[1, 7], &[1, 7]] } else { &[&[1, 7]] };
        let lit = nat_lit(&mut b, &["iter", "item"], rows);
        b.finish(lit)
    };
    let before = digest(&single(false));
    let err = verify_rewrite("mutated-duplicate-rows", &before, &single(true))
        .expect_err("duplicated rows must be rejected");
    assert!(err.to_string().contains("key"), "{err}");
    // Semantic failures embed the annotated dump for debuggability.
    assert!(err.to_string().contains("annotated plan"), "{err}");
}

#[test]
fn mutation_after_plan_structurally_broken() {
    // verify_rewrite must also catch a rewrite that left the plan
    // structurally broken (it re-runs verify_plan on the after-plan).
    let before = digest(&selected_plan(1));
    let mut b = builder();
    let broken = b.add(AlgOp::Distinct { input: 42 });
    let err = verify_rewrite("mutated-structure", &before, &b.finish(broken))
        .expect_err("structurally broken after-plan must be rejected");
    assert!(err.to_string().contains("child #42"), "{err}");
}

// ---------------------------------------------------------------------------
// Scaffolding-deletion mutations: the broken replacement of a loop join, a
// dead arm or a row numbering is rejected where it reaches the root.
// ---------------------------------------------------------------------------

/// `⋈[iter=iter1](L, @c:=c(π[iter1:iter](L)))` — the join `scaffold`
/// deletes — or, with `deleted`, its replacement attaching `deleted`.
fn loop_join(deleted: Option<Value>) -> Plan {
    let mut b = builder();
    let l = nat_lit(&mut b, &["iter", "item"], &[&[1, 10], &[2, 20]]);
    let keys = b.add(AlgOp::Project {
        input: l,
        columns: vec![(col("iter"), col("iter1"))],
    });
    let root = match deleted {
        None => {
            let lookup = b.add(AlgOp::Attach {
                input: keys,
                target: col("c"),
                value: Value::Str("x".into()).into(),
            });
            b.add(AlgOp::EquiJoin {
                left: l,
                right: lookup,
                left_col: col("iter"),
                right_col: col("iter1"),
            })
        }
        Some(value) => {
            let copied = b.add(AlgOp::Project {
                input: l,
                columns: vec![
                    (col("iter"), col("iter")),
                    (col("item"), col("item")),
                    (col("iter"), col("iter1")),
                ],
            });
            b.add(AlgOp::Attach {
                input: copied,
                target: col("c"),
                value: value.into(),
            })
        }
    };
    b.finish(root)
}

#[test]
fn loop_join_deletion_is_accepted_and_a_wrong_constant_rejected() {
    let before = digest(&loop_join(None));
    verify_rewrite(
        "scaffold",
        &before,
        &loop_join(Some(Value::Str("x".into()))),
    )
    .expect("the faithful deletion verifies");
    let err = verify_rewrite(
        "mutated-loop-join",
        &before,
        &loop_join(Some(Value::Str("y".into()))),
    )
    .expect_err("a deletion attaching the wrong constant must be rejected");
    assert!(err.to_string().contains("changed value"), "{err}");
}

#[test]
fn mutation_dead_arm_deletion_keeping_the_empty_arm() {
    // ∪(σ[val=1](lit), σ[val=2](lit)) where `val` is constant 1: the right
    // arm is provably empty.  Keeping it instead of the left one changes
    // the root's constant.
    let arm = |b: &mut PlanBuilder, pick: u64| {
        let lit = nat_lit(b, &["iter", "val"], &[&[1, 1], &[2, 1]]);
        b.add(AlgOp::SelectEq {
            input: lit,
            column: col("val"),
            value: Value::Nat(pick),
        })
    };
    let mut b = builder();
    let live = arm(&mut b, 1);
    let dead = arm(&mut b, 2);
    let u = b.add(AlgOp::Union {
        left: live,
        right: dead,
    });
    let before = digest(&b.finish(u));
    let mut b = builder();
    let kept = arm(&mut b, 2);
    let err = verify_rewrite("mutated-dead-arm", &before, &b.finish(kept))
        .expect_err("keeping the empty arm must be rejected");
    assert!(err.to_string().contains("changed value"), "{err}");
}

#[test]
fn mutation_row_number_deletion_copying_the_wrong_column() {
    // `%t:⟨pos⟩/iter` over a dense `pos` is `π[…, t:pos]`; copying `item`
    // into `t` instead widens `t` from naturals to strings.
    let lit = |b: &mut PlanBuilder| {
        b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![
                vec![Value::Nat(1).into(), Value::Str("a".into()).into()],
                vec![Value::Nat(1).into(), Value::Str("b".into()).into()],
            ],
        })
    };
    let numbered = |b: &mut PlanBuilder| {
        let l = lit(b);
        b.add(AlgOp::RowNum {
            input: l,
            target: col("pos"),
            order_by: vec![SortSpec::asc(col("item"))],
            partition: Some(col("iter")),
        })
    };
    let mut b = builder();
    let input = numbered(&mut b);
    let t = b.add(AlgOp::RowNum {
        input,
        target: col("t"),
        order_by: vec![SortSpec::asc(col("pos"))],
        partition: Some(col("iter")),
    });
    let before = digest(&b.finish(t));
    let mut b = builder();
    let input = numbered(&mut b);
    let copied = b.add(AlgOp::Project {
        input,
        columns: ["iter", "item", "pos"]
            .iter()
            .map(|c| (col(c), col(c)))
            .chain(std::iter::once((col("item"), col("t"))))
            .collect(),
    });
    let err = verify_rewrite("mutated-row-number", &before, &b.finish(copied))
        .expect_err("copying the wrong column must be rejected");
    assert!(err.to_string().contains("widened its types"), "{err}");
}

// ---------------------------------------------------------------------------
// Count-by-rank mutations: a `ThetaCount` stands for a count over a pair
// table, so it is only accepted where the plan before the rewrite justifies
// exactly that count.
// ---------------------------------------------------------------------------

/// XMark query `id`, compiled, and optimized.
fn xmark_plans(id: u8) -> (Plan, Plan) {
    let q = queries().into_iter().find(|q| q.id == id).unwrap();
    let core = normalize(&parse_query(q.text).unwrap()).unwrap();
    let compiled = compile(&core, &CompileOptions::default()).unwrap().plan;
    let mut optimized = compiled.clone();
    optimize_with_verify(&mut optimized, &NoStats, true);
    (compiled, optimized)
}

/// `plan` with operator `at` replaced by `op(at's current value)`.
fn with_op(plan: &Plan, at: usize, op: impl FnOnce(&AlgOp) -> AlgOp) -> Plan {
    let mut ops = plan.ops().to_vec();
    ops[at] = op(&ops[at]);
    Plan::new(ops, plan.root(), plan.names().clone())
}

fn find_op(plan: &Plan, pick: impl Fn(&AlgOp) -> bool) -> usize {
    plan.reachable()
        .into_iter()
        .find(|&id| pick(plan.op(id)))
        .expect("operator present in the plan")
}

fn is_theta_count(op: &AlgOp) -> bool {
    matches!(op, AlgOp::ThetaCount { .. })
}

#[test]
fn rank_count_rewrite_of_q11_is_accepted() {
    let (compiled, optimized) = xmark_plans(11);
    find_op(&optimized, is_theta_count);
    verify_rewrite("thetacount", &digest(&compiled), &optimized)
        .expect("the compiled Q11 justifies its rank count");
}

#[test]
fn mutation_rank_count_with_mirrored_comparison() {
    let (compiled, optimized) = xmark_plans(11);
    let at = find_op(&optimized, is_theta_count);
    let mirrored = with_op(&optimized, at, |op| {
        let mut op = op.clone();
        match &mut op {
            AlgOp::ThetaCount { count, .. } => match &mut count.op {
                BinaryOp::Cmp(cmp) => *cmp = cmp.mirror(),
                other => panic!("Q11 counts over a comparison, found {other:?}"),
            },
            other => panic!("expected the rank count, found {other:?}"),
        }
        op
    });
    let err = verify_rewrite("mutated-mirror", &digest(&compiled), &mirrored)
        .expect_err("a mirrored comparison counts different pairs");
    assert!(err.to_string().contains("justifies"), "{err}");
}

#[test]
fn mutation_rank_count_grouped_on_the_right_input() {
    let (_, optimized) = xmark_plans(11);
    let at = find_op(&optimized, is_theta_count);
    let regrouped = with_op(&optimized, at, |op| {
        let mut op = op.clone();
        if let AlgOp::ThetaCount { count, .. } = &mut op {
            count.group = count.right_id;
        }
        op
    });
    assert_rejected(&regrouped, &["group column"]);
}

#[test]
fn mutation_rank_count_across_a_step_in_the_body() {
    // Q5 counts `$i/price` per qualifying auction: the ⇝[child::price]
    // between the pairs and the aggregate is not row-for-row, so the
    // distinct-pair count is not the answer.
    let (_, optimized) = xmark_plans(5);
    assert!(
        !optimized.ops().iter().any(is_theta_count),
        "the rule must not fire on Q5"
    );
    let agg = find_op(&optimized, |op| {
        matches!(
            op,
            AlgOp::Aggregate {
                func: AggFunc::Count,
                ..
            }
        )
    });
    let theta = find_op(&optimized, |op| matches!(op, AlgOp::ThetaJoin { .. }));
    let (
        AlgOp::Aggregate { group, target, .. },
        AlgOp::ThetaJoin {
            left,
            right,
            left_col,
            op,
            right_col,
        },
    ) = (optimized.op(agg).clone(), optimized.op(theta).clone())
    else {
        unreachable!();
    };
    let mut ops = optimized.ops().to_vec();
    let aid1 = optimized.clone().col("aid1");
    ops.push(AlgOp::ThetaCount {
        left,
        right,
        count: RankCount {
            group: ColId::OUTER,
            left_col,
            op,
            right_id: aid1,
            right_col,
            result: target,
        },
    });
    ops[agg] = AlgOp::Project {
        input: ops.len() - 1,
        columns: vec![(ColId::OUTER, group), (target, target)],
    };
    let forced = Plan::new(ops, optimized.root(), optimized.names().clone());
    verify_plan(&forced).expect("the forced plan is well-formed");
    let err = verify_rewrite("mutated-across-step", &digest(&optimized), &forced)
        .expect_err("a count across a step must be rejected");
    assert!(err.to_string().contains("justifies"), "{err}");
}

// ---------------------------------------------------------------------------
// Positive controls: the verifier accepts what it should accept.
// ---------------------------------------------------------------------------

#[test]
fn well_formed_bases_pass_including_indexscan() {
    let mut b = builder();
    let step = step_base(&mut b, "auction.xml");
    let idx = b.add(AlgOp::IndexScan {
        input: step,
        uri: "auction.xml".into(),
        probe: text_probe(),
        mode: IndexMode::Exact,
        param: None,
    });
    verify_plan(&b.finish(idx)).expect("well-formed IndexScan plan verifies");
    verify_plan(&selected_plan(1)).expect("well-formed selection plan verifies");
}

#[test]
fn strengthening_rewrites_are_accepted() {
    // Adding a Distinct proves a *new* key — strictly more knowledge,
    // which the monotonicity check must allow.
    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "item"], &[&[1, 7], &[1, 7]]);
    let weak = b.finish(lit);
    let before = digest(&weak);

    let mut b = builder();
    let lit = nat_lit(&mut b, &["iter", "item"], &[&[1, 7], &[1, 7]]);
    let d = b.add(AlgOp::Distinct { input: lit });
    let strong = b.finish(d);
    verify_rewrite("strengthen", &before, &strong).expect("strengthening must pass");
    // And a no-op rewrite trivially passes.
    verify_rewrite("noop", &before, &weak).expect("identical plan must pass");
}

// ---------------------------------------------------------------------------
// Acceptance: every XMark query plan verifies clean, unoptimized and
// after every rewrite of the optimizer.
// ---------------------------------------------------------------------------

#[test]
fn all_xmark_plans_verify_at_every_level() {
    for q in queries() {
        let ast = parse_query(q.text).unwrap_or_else(|e| panic!("Q{} parse: {e}", q.id));
        let core = normalize(&ast).unwrap_or_else(|e| panic!("Q{} normalize: {e}", q.id));
        let compiled = compile(&core, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("Q{} compile: {e}", q.id));
        verify_plan(&compiled.plan)
            .unwrap_or_else(|e| panic!("Q{} unoptimized plan rejected: {e}", q.id));
        let mut plan = compiled.plan.clone();
        let report = optimize_with_verify(&mut plan, &NoStats, true);
        assert!(report.verified, "Q{} did not verify clean", q.id);
        assert!(report.verify_passes > 0, "Q{}: verifier never ran", q.id);
        verify_plan(&plan).unwrap_or_else(|e| panic!("Q{} optimized plan rejected: {e}", q.id));
        // Only Q11 and Q12 count over an inequality join.
        let expected = usize::from(matches!(q.id, 11 | 12));
        assert_eq!(report.theta_counts_introduced, expected, "Q{}", q.id);
    }
}
