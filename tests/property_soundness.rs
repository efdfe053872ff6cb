//! Soundness of the static property inference (`PlanProperties`).
//!
//! The plan verifier's semantic checks only mean something if the
//! properties they compare are *true*: a key set the analysis claims
//! must actually hold no duplicates in the executed output, a column it
//! claims constant must actually carry one value, and the inferred
//! schema must be the executed table's schema — column for column, in
//! order.  This suite generates randomized literal-table plans (the
//! shapes the isolation rules rewrite: projections, selections, joins,
//! unions, distinct, attach, rank counts) and named attribute steps over
//! randomized documents, executes them, and checks every claim the
//! analysis makes against the actual table — both on the raw plan and
//! after an optimization pass.  The same checks run on every
//! operator of the compiled XMark plans.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pathfinder::algebra::{optimize, AlgOp, Const, OpId, Plan, PlanBuilder, PlanProperties};
use pathfinder::engine::{DocRegistry, Executor};
use pathfinder::relational::ops::{BinaryOp, CmpOp, RankCount};
use pathfinder::relational::{ColId, Table, Value};
use pathfinder::store::{Axis, NodeTest};
use pathfinder::xmark::{generate, queries, GeneratorConfig};
use pathfinder::xquery::{compile, normalize, parse_query, CompileOptions};

/// The columns these tests name besides the well-known ones, numbered in
/// this order by every plan of [`builder`]; [`col`]
/// gives each a fixed id.
const NAMES: &[&str] = &["a", "g", "id", "k", "n", "tag", "v", "val"];

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

/// Assert every property claimed at the root of a literal-only plan
/// against the executed table.
fn assert_sound(plan: &Plan, label: &str) {
    assert_sound_over(&DocRegistry::new(), plan, label);
}

/// [`assert_sound`] for a plan that reads the documents of `registry`.
fn assert_sound_over(registry: &DocRegistry, plan: &Plan, label: &str) {
    let props = PlanProperties::analyze(plan);
    let table: Table = Executor::new(registry).run(plan).expect("plan executes");
    assert_claims(&props, plan.root(), &table, label);
}

/// Assert every property `props` claims for operator `id` against `table`,
/// the executed output of the sub-plan rooted at `id`.
fn assert_claims(props: &PlanProperties, id: OpId, table: &Table, label: &str) {
    let root = id;

    // Schema: the claimed columns are the table's columns, in order.
    let claimed = props.columns(root).to_vec();
    prop_assert_eq!(
        claimed.clone(),
        table.column_ids(),
        "{}: inferred schema diverges from executed schema",
        label
    );

    // Keys: projecting the rows onto a claimed key set must not produce
    // duplicates (an empty key set claims at most one row).
    for key in props.keys(root) {
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        for r in 0..table.row_count() {
            let tuple: Vec<String> = key
                .iter()
                .map(|&col| format!("{:?}", table.value(col, r).expect("key column exists")))
                .collect();
            prop_assert!(
                seen.insert(tuple),
                "{}: claimed key {:?} has duplicate rows",
                label,
                key
            );
        }
    }

    // Constants: a claimed constant column carries one value across all
    // rows; a statically known value must be that value.
    for (&col, known) in props.constants(root) {
        let mut first: Option<Value> = None;
        for r in 0..table.row_count() {
            let v = table.value(col, r).expect("constant column exists");
            if let Some(expected) = known.as_ref().and_then(Const::value) {
                prop_assert_eq!(
                    &v,
                    expected,
                    "{}: column `{}` claimed constant {:?}",
                    label,
                    col,
                    known
                );
            }
            match &first {
                None => first = Some(v),
                Some(f) => prop_assert_eq!(
                    &v,
                    f,
                    "{}: column `{}` claimed constant but varies",
                    label,
                    col
                ),
            }
        }
    }

    // Emptiness is a guarantee, not an estimate.
    if props.provably_empty(root) {
        prop_assert_eq!(table.row_count(), 0, "{}: claimed empty", label);
    }

    // Types: every value of a typed column has one of the claimed types.
    for (&col, types) in props.typed_columns(root) {
        for r in 0..table.row_count() {
            let v = table.value(col, r).expect("typed column exists");
            prop_assert!(
                types.contains(v.value_type()),
                "{}: column `{}` holds {:?}, outside its claimed types {:?}",
                label,
                col,
                v,
                types
            );
        }
    }

    // Sequence: rows sorted by (iter, column); dense ⇒ 1..k per iter.
    if let Some(seq) = props.sequence(root) {
        let nat = |col: ColId, r: usize| match table.value(col, r).expect("sequence column") {
            Value::Nat(n) => n,
            other => panic!("{label}: sequence column `{col}` holds {other:?}"),
        };
        let mut previous: Option<(u64, u64)> = None;
        for r in 0..table.row_count() {
            let row = (nat(ColId::ITER, r), nat(seq.column, r));
            if let Some(prev) = previous {
                prop_assert!(
                    prev <= row,
                    "{}: rows not sorted by (iter, {}): {:?} before {:?}",
                    label,
                    seq.column,
                    prev,
                    row
                );
            }
            if seq.dense {
                let expected = match previous {
                    Some((iter, n)) if iter == row.0 => n + 1,
                    _ => 1,
                };
                prop_assert_eq!(
                    row.1,
                    expected,
                    "{}: `{}` claimed dense within iter",
                    label,
                    seq.column
                );
            }
            previous = Some(row);
        }
    }

    // Row estimate: not a correctness claim, but it must at least be a
    // finite, non-negative number.
    let rows = props.rows(root);
    prop_assert!(
        rows.is_finite() && rows >= 0.0,
        "{}: nonsensical row estimate {}",
        label,
        rows
    );
}

/// Every claim about every operator of the 20 compiled XMark plans — with
/// join recognition on and off, unoptimized and optimized — holds for
/// the table that operator produces on a small auction document.
#[test]
fn xmark_plan_properties_are_sound_at_every_operator() {
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 11,
    });
    let registry = DocRegistry::new();
    registry.load_xml("auction.xml", &xml).unwrap();
    let executor = Executor::new(&registry);
    for join_recognition in [true, false] {
        let options = CompileOptions { join_recognition };
        for q in queries() {
            let core = normalize(&parse_query(q.text).unwrap()).unwrap();
            let compiled = compile(&core, &options).unwrap().plan;
            for (name, optimized) in [("unoptimized", false), ("optimized", true)] {
                let mut plan = compiled.clone();
                if optimized {
                    optimize(&mut plan);
                }
                let props = PlanProperties::analyze(&plan);
                for id in plan.reachable() {
                    let sub = Plan::new(plan.ops().to_vec(), id, plan.names().clone());
                    let table = executor.run(&sub).expect("every sub-plan executes");
                    let label = format!(
                        "Q{} ({name}, join recognition {join_recognition}) op #{id} {}",
                        q.id,
                        plan.symbol(id)
                    );
                    assert_claims(&props, id, &table, &label);
                }
            }
        }
    }
}

fn nat_rows(cols: usize, values: &[Vec<u64>]) -> Vec<Vec<Const>> {
    values
        .iter()
        .map(|row| (0..cols).map(|c| Value::Nat(row[c]).into()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// σ over π over ⋈ with an attached constant — the pushdown shape.
    #[test]
    fn selection_join_shapes_are_sound(
        left in proptest::collection::vec((0u64..5, 0u64..40), 1..12),
        right in proptest::collection::vec((0u64..5, 0u64..6), 0..12),
        pick in 0u64..6,
        tag in 0u64..100,
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
        let at = b.add(AlgOp::Attach {
            input: j,
            target: col("tag"),
            value: Value::Nat(tag).into(),
        });
        let p = b.add(AlgOp::Project {
            input: at,
            columns: vec![
                (col("iter"), col("iter")),
                (col("pos"), col("pos")),
                (col("v"), col("val")),
                (col("tag"), col("tag")),
            ],
        });
        let s = b.add(AlgOp::SelectEq {
            input: p,
            column: col("val"),
            value: Value::Nat(pick),
        });
        let plan = b.finish(s);

        assert_sound(&plan, "raw");
        let mut optimized = plan;
        optimize(&mut optimized);
        assert_sound(&optimized, "optimized");
    }

    /// ∪ / distinct over shared branches — the dedup/unshare shape.
    #[test]
    fn union_distinct_shapes_are_sound(
        rows in proptest::collection::vec((0u64..4, 0u64..4), 0..10),
        sel in 0u64..4,
        dedup_branches in proptest::bool::ANY,
    ) {
        let mut b = builder();
        let mk = |b: &mut PlanBuilder, rows: &[(u64, u64)], sel: u64| {
            let lit_rows: Vec<Vec<u64>> = rows.iter().map(|(a, v)| vec![*a, *v]).collect();
            let l = b.add(AlgOp::Lit {
                columns: vec![col("a"), col("v")],
                rows: nat_rows(2, &lit_rows),
            });
            b.add(AlgOp::SelectEq {
                input: l,
                column: col("v"),
                value: Value::Nat(sel),
            })
        };
        let s1 = mk(&mut b, &rows, sel);
        let s2 = if dedup_branches { s1 } else { mk(&mut b, &rows, sel) };
        let u = b.add(AlgOp::Union { left: s1, right: s2 });
        let d = b.add(AlgOp::Distinct { input: u });
        let plan = b.finish(d);

        assert_sound(&plan, "raw");
        let mut optimized = plan;
        optimize(&mut optimized);
        assert_sound(&optimized, "optimized");
    }

    /// Row numbering and aggregation — the key-introducing operators.
    #[test]
    fn rownum_aggregate_shapes_are_sound(
        vals in proptest::collection::vec((1u64..4, 0u64..9), 1..14),
    ) {
        let mut b = builder();
        let rows: Vec<Vec<u64>> = vals.iter().map(|(g, v)| vec![*g, *v]).collect();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: nat_rows(2, &rows),
        });
        let rn = b.add(AlgOp::RowNum {
            input: lit,
            target: col("pos"),
            order_by: vec![pathfinder::algebra::SortSpec::asc(col("item"))],
            partition: Some(col("iter")),
        });
        let plan = b.finish(rn);
        assert_sound(&plan, "rownum");

        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: nat_rows(2, &rows),
        });
        let agg = b.add(AlgOp::Aggregate {
            input: lit,
            group: col("iter"),
            target: col("n"),
            func: pathfinder::relational::ops::AggFunc::Count,
            value: col("item"),
        });
        let plan = b.finish(agg);
        assert_sound(&plan, "aggregate");
    }

    /// A named attribute step over one context node per iteration claims
    /// the key `{iter}`; `@*` must not.
    #[test]
    fn attribute_step_shapes_are_sound(
        elems in proptest::collection::vec((proptest::bool::ANY, proptest::bool::ANY), 0..9),
        any_attribute in proptest::bool::ANY,
    ) {
        let body: String = elems
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let a = if *a { format!(" a=\"{i}\"") } else { String::new() };
                let b = if *b { " b=\"x\"" } else { "" };
                format!("<e{a}{b}/>")
            })
            .collect();
        let registry = DocRegistry::new();
        registry.load_xml("d.xml", &format!("<r>{body}</r>")).unwrap();

        let mut b = builder();
        let doc = b.add(AlgOp::Doc { uri: "d.xml".into() });
        let root_ctx = b.add(AlgOp::Attach {
            input: doc,
            target: col("iter"),
            value: Value::Nat(1).into(),
        });
        let elements = b.add(AlgOp::Step {
            input: root_ctx,
            axis: Axis::Descendant,
            test: NodeTest::Element("e".into()),
        });
        // One iteration per element: `iter` is constant below, so `pos`
        // keys the step output and becomes the new `iter`.
        let per_element = b.add(AlgOp::Project {
            input: elements,
            columns: vec![(col("pos"), col("iter")), (col("item"), col("item"))],
        });
        let test = if any_attribute {
            NodeTest::AnyAttribute
        } else {
            NodeTest::Attribute("a".into())
        };
        let attrs = b.add(AlgOp::Step {
            input: per_element,
            axis: Axis::Attribute,
            test,
        });
        let plan = b.finish(attrs);
        let claimed = PlanProperties::analyze(&plan).keyed_by(attrs, &[ColId::ITER]);
        prop_assert_eq!(claimed, !any_attribute, "key {{iter}} claimed for the wrong test");
        assert_sound_over(&registry, &plan, "attribute step");
    }

    /// The rank count emits one row per group value, whatever the keys of
    /// its inputs.
    #[test]
    fn rank_count_shapes_are_sound(
        left in proptest::collection::vec((0u64..4, 0u64..9), 0..10),
        right in proptest::collection::vec((0u64..4, 0u64..9), 0..10),
        greater in proptest::bool::ANY,
    ) {
        let mut b = builder();
        let lrows: Vec<Vec<u64>> = left.iter().map(|(g, k)| vec![*g, *k]).collect();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("g"), col("k")],
            rows: nat_rows(2, &lrows),
        });
        let rrows: Vec<Vec<u64>> = right.iter().map(|(id, v)| vec![*id, *v]).collect();
        let r = b.add(AlgOp::Lit {
            columns: vec![col("id"), col("v")],
            rows: nat_rows(2, &rrows),
        });
        let count = b.add(AlgOp::ThetaCount {
            left: l,
            right: r,
            count: RankCount {
                group: col("g"),
                left_col: col("k"),
                op: BinaryOp::Cmp(if greater { CmpOp::Gt } else { CmpOp::Le }),
                right_id: col("id"),
                right_col: col("v"),
                result: col("n"),
            },
        });
        let plan = b.finish(count);
        prop_assert!(PlanProperties::analyze(&plan).keyed_by(count, &[col("g")]));
        assert_sound(&plan, "rank count");
    }
}
