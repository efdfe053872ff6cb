//! Count-over-θ-join by rank: the kernel, the rewrite and the growth.
//!
//! `count(for $o in S where K($p) θ K'($o) return $o)` used to count the
//! rows of a materialized pair table; the `thetacount` rule replaces that
//! by one `ThetaCount` operator.  Three layers are pinned:
//!
//! * **Kernel** — `ThetaCountPlan` against the pipeline it replaces
//!   (nested-loop θ-join → π → δ → count) on random tables: duplicate
//!   groups and ids, ties, `NaN`, empty sides, Nat/Int/Dbl mixes, string
//!   and incomparable keys, all comparison operators, both operand orders,
//!   every chunking of the groups — same rows, or the same error.
//! * **Engine** — generated count-over-θ queries on random documents:
//!   the rewritten plan agrees with the `basic`-level plan (answers *and*
//!   errors) and with the `pf-baseline` tree walker.
//! * **Growth** — XMark Q11's `rows_produced` and `peak_resident_rows`
//!   grow linearly with the document, not with the pair table.

use proptest::prelude::*;

use pathfinder::baseline::BaselineEngine;
use pathfinder::engine::{EngineOptions, OptimizerLevel, Pathfinder, Profile};
use pathfinder::relational::ops::{self, AggFunc, BinaryOp, CmpOp, RankCount, ThetaCountPlan};
use pathfinder::relational::{Column, RelResult, Table, Value};
use pathfinder::xmark::{generate, query, GeneratorConfig};

// ---------------------------------------------------------------------------
// (i) Kernel vs. the nested-loop-plus-distinct pipeline.
// ---------------------------------------------------------------------------

/// How a generated key column is typed.
#[derive(Debug, Clone, Copy)]
enum Keys {
    Nat,
    Int,
    /// Halves, so ties with the integer kinds happen; `NaN` where the raw
    /// draw says so.
    Dbl,
    /// A polymorphic column of Nat/Int/Dbl values.
    Numbers,
    Str,
    /// Numbers, numeric-looking and other strings, and a boolean that no
    /// number compares with.
    Anything,
}

fn keys() -> impl Strategy<Value = Keys> {
    proptest::sample::select(vec![
        Keys::Nat,
        Keys::Int,
        Keys::Dbl,
        Keys::Numbers,
        Keys::Str,
        Keys::Anything,
    ])
}

/// One raw row: `(group or id, key value, variant selector)`.
type RawRow = (u64, i64, u8);

fn raw_rows() -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec((0u64..4, -3i64..6, 0u8..12), 0..9)
}

fn key_column(kind: Keys, rows: &[RawRow], nan: bool) -> Column {
    let number = |v: i64, pick: u8| match pick % 3 {
        0 => Value::Nat(v.unsigned_abs()),
        1 => Value::Int(v),
        _ => Value::Dbl(v as f64 / 2.0),
    };
    match kind {
        Keys::Nat => Column::nats(rows.iter().map(|r| r.1.unsigned_abs()).collect()),
        Keys::Int => Column::ints(rows.iter().map(|r| r.1).collect()),
        Keys::Dbl => Column::dbls(
            rows.iter()
                .map(|r| {
                    if nan && r.2 == 0 {
                        f64::NAN
                    } else {
                        r.1 as f64 / 2.0
                    }
                })
                .collect(),
        ),
        Keys::Numbers => Column::items(rows.iter().map(|r| number(r.1, r.2)).collect()),
        Keys::Str => Column::strs(rows.iter().map(|r| format!("s{}", r.1)).collect()),
        Keys::Anything => Column::items(
            rows.iter()
                .map(|r| match r.2 {
                    0 => Value::Bool(true),
                    1 | 2 => Value::Str(r.1.to_string()),
                    3 => Value::Str("x".into()),
                    pick => number(r.1, pick),
                })
                .collect(),
        ),
    }
}

fn side(names: (&str, &str), kind: Keys, rows: &[RawRow], nan: bool) -> Table {
    Table::new(vec![
        (
            names.0.to_string(),
            Column::nats(rows.iter().map(|r| r.0).collect()),
        ),
        (names.1.to_string(), key_column(kind, rows, nan)),
    ])
    .unwrap()
}

/// The `(group, count)` rows of a result, sorted by group: the pair-table
/// pipeline emits a group where its first *match* is, the kernel where its
/// first row is (the rule only fires where that order is unobservable).
fn rows_of(table: &Table, group: &str, count: &str) -> Vec<(Value, Value)> {
    let mut rows: Vec<(Value, Value)> = (0..table.row_count())
        .map(|r| {
            (
                table.value(group, r).unwrap(),
                table.value(count, r).unwrap(),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.0.sort_key_cmp(&b.0));
    rows
}

/// What the compiled plan computes without the rule: the θ-join's pairs,
/// reduced to distinct `(group, id)` rows, counted per group.
fn pair_table_count(left: &Table, right: &Table, c: &RankCount) -> RelResult<Vec<(Value, Value)>> {
    let (group, id) = (c.group.as_str(), c.right_id.as_str());
    let pairs = ops::theta_join(left, right, &c.left_col, c.op, &c.right_col)?;
    let distinct = ops::distinct(&ops::project(&pairs, &[(group, group), (id, id)])?)?;
    let counted = ops::aggregate_by(&distinct, group, &c.result, AggFunc::Count, id)?;
    Ok(rows_of(&counted, group, &c.result))
}

fn errors_as_text<T>(result: RelResult<T>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_the_pair_table_pipeline(
        left_rows in raw_rows(),
        right_rows in raw_rows(),
        left_kind in keys(),
        right_kind in keys(),
        nan in proptest::bool::ANY,
        cmp in proptest::sample::select(vec![
            CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne, CmpOp::Eq,
        ]),
    ) {
        let left = side(("g", "k"), left_kind, &left_rows, nan);
        let right = side(("id", "v"), right_kind, &right_rows, nan);
        // Both operand orders: groups of the left counted over ids of the
        // right under `k cmp v`, and the roles swapped under the mirrored
        // comparison.
        let orders = [
            (&left, &right, "g", "k", cmp, "id", "v"),
            (&right, &left, "id", "v", cmp.mirror(), "g", "k"),
        ];
        for (l, r, group, lc, cmp, id, rc) in orders {
            let count = RankCount {
                group: group.into(),
                left_col: lc.into(),
                op: BinaryOp::Cmp(cmp),
                right_id: id.into(),
                right_col: rc.into(),
                result: "n".into(),
            };
            let expected = errors_as_text(pair_table_count(l, r, &count));
            let kernel = errors_as_text(
                ops::theta_count(l, r, &count).map(|t| rows_of(&t, group, "n")),
            );
            prop_assert_eq!(&kernel, &expected, "{:?} {:?} {:?}", left_kind, cmp, right_kind);

            // Any chunking of the groups concatenates to the whole — and
            // fails with the whole's error.
            let Ok(plan) = ThetaCountPlan::new(l, r, &count) else {
                continue;
            };
            for chunk in 1..=plan.groups().max(1) {
                let mut counts = Ok(Vec::new());
                for lo in (0..plan.groups()).step_by(chunk) {
                    let part = plan.count_range(lo..(lo + chunk).min(plan.groups()));
                    counts = counts.and_then(|mut all: Vec<u64>| {
                        all.extend(part?);
                        Ok(all)
                    });
                }
                let chunked = errors_as_text(
                    counts.and_then(|c| plan.finish(c)).map(|t| rows_of(&t, group, "n")),
                );
                prop_assert_eq!(&chunked, &expected, "chunk {}", chunk);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (ii) Engine: rewritten plan vs. basic plan vs. the tree walker.
// ---------------------------------------------------------------------------

/// `<r>` with `<p>` and `<o>` children carrying zero to three `<k>` / `<v>`
/// key elements each (several keys per binding make the comparison
/// existential) and a name attribute.
fn document(values: &'static [&'static str]) -> impl Strategy<Value = String> {
    let value = move || proptest::sample::select(values.to_vec());
    let keys = move || proptest::collection::vec(value(), 0..4);
    (
        proptest::collection::vec((keys(), value()), 0..7),
        proptest::collection::vec((keys(), value()), 0..7),
    )
        .prop_map(|(ps, os)| {
            let mut xml = String::from("<r>");
            for (tag, key, rows) in [("p", "k", &ps), ("o", "v", &os)] {
                for (keys, name) in rows {
                    xml.push_str(&format!("<{tag} name=\"{name}\">"));
                    for k in keys {
                        xml.push_str(&format!("<{key}>{k}</{key}>"));
                    }
                    xml.push_str(&format!("</{tag}>"));
                }
            }
            xml.push_str("</r>");
            xml
        })
}

/// Numbers only: what both engines read the same way.
const NUMBERS: &[&str] = &["0", "1", "2", "2.5", "3", "10", "-1", "7.25"];
/// Plus a `NaN`: comparing it is an error.
const WITH_NAN: &[&str] = &["0", "1", "2.5", "3", "10", "NaN"];
/// Plus a string `fn:number` rejects.
const WITH_TEXT: &[&str] = &["0", "1", "2.5", "3", "10", "n/a"];

fn comparison() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["<", "<=", ">", ">=", "!="])
}

/// The shape of a generated query: the inner key written first, and the
/// outer `for` itself a recognized join (XMark Q12's shape).
type Shape = (bool, bool);

fn shape() -> impl Strategy<Value = Shape> {
    (proptest::bool::ANY, proptest::bool::ANY)
}

fn count_query(shape: Shape, outer_key: &str, op: &str, inner_key: &str) -> String {
    let (inner_first, filtered) = shape;
    let predicate = if inner_first {
        format!("{inner_key} {op} {outer_key}")
    } else {
        format!("{outer_key} {op} {inner_key}")
    };
    let filter = if filtered {
        "where number($p/k) > 1 "
    } else {
        ""
    };
    format!(
        "for $p in doc(\"d.xml\")/r/p {filter}return element n {{ attribute of {{ $p/@name }}, \
         count(for $o in doc(\"d.xml\")/r/o where {predicate} return $o) }}"
    )
}

fn engine(xml: &str, level: OptimizerLevel) -> Pathfinder {
    let pf = Pathfinder::with_options(EngineOptions::builder().optimizer_level(level).build());
    pf.load_document("d.xml", xml).unwrap();
    pf
}

/// Run `query` with the rule (`full`) and without (`basic`), asserting the
/// rule fired exactly once.
fn ranked_and_basic(xml: &str, query: &str) -> (Result<String, String>, Result<String, String>) {
    let full = engine(xml, OptimizerLevel::FULL);
    assert_eq!(
        full.explain(query).unwrap().report.theta_counts_introduced,
        1,
        "the rule must fire on {query}"
    );
    let run = |pf: &Pathfinder| {
        pf.session()
            .query(query)
            .map(|r| r.to_xml())
            .map_err(|e| e.to_string())
    };
    (run(&full), run(&engine(xml, OptimizerLevel::BASIC)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn numeric_keys_agree_with_the_basic_plan_and_the_tree_walker(
        xml in document(NUMBERS),
        shape in shape(),
        op in comparison(),
    ) {
        let query = count_query(shape, "number($p/k)", op, "number($o/v)");
        let (ranked, basic) = ranked_and_basic(&xml, &query);
        prop_assert_eq!(&ranked, &basic);
        let mut walker = BaselineEngine::new();
        walker.load_document("d.xml", &xml).unwrap();
        prop_assert_eq!(ranked, Ok(walker.query(&query).unwrap().to_xml()));
    }

    /// Untyped string keys take the counting loop.  (The tree walker
    /// compares numeric-looking strings as numbers, the relational engine
    /// does not, so only the two plans are compared.)
    #[test]
    fn string_keys_agree_with_the_basic_plan(
        xml in document(NUMBERS),
        shape in shape(),
        op in comparison(),
    ) {
        let query = count_query(shape, "$p/@name", op, "$o/@name");
        let (ranked, basic) = ranked_and_basic(&xml, &query);
        prop_assert_eq!(ranked, basic);
    }

    /// A string key against a number key, over values that make the
    /// comparison (`NaN`) or the cast (`n/a`) fail: the same error — or
    /// the same answer — with the rule and without.  One kind of failure
    /// per document: which of two *independent* failing operators reports
    /// first is up to the parallel scheduler, with or without the rule.
    #[test]
    fn hostile_keys_raise_the_same_error_as_the_basic_plan(
        xml in proptest::sample::select(vec![WITH_NAN, WITH_TEXT]).prop_flat_map(document),
        shape in shape(),
        op in comparison(),
        cast_outer in proptest::bool::ANY,
    ) {
        let outer = if cast_outer { "number($p/k)" } else { "$p/@name" };
        let query = count_query(shape, outer, op, "number($o/v)");
        let (ranked, basic) = ranked_and_basic(&xml, &query);
        prop_assert_eq!(ranked, basic);
    }
}

/// The hostile generator really reaches the θ error path, not only the
/// cast's: a `NaN` key fails the comparison itself, identically.
#[test]
fn a_nan_key_fails_the_comparison_with_and_without_the_rule() {
    let xml = "<r><p name=\"NaN\"><k>NaN</k></p><o name=\"a\"><v>1</v></o></r>";
    for outer in ["number($p/k)", "$p/@name"] {
        let query = count_query((false, false), outer, ">", "number($o/v)");
        let (ranked, basic) = ranked_and_basic(xml, &query);
        assert_eq!(ranked, basic);
        assert!(ranked.unwrap_err().contains("NaN is not comparable"));
    }
}

// ---------------------------------------------------------------------------
// (iii) Growth: linear in the document, not in the pair table.
// ---------------------------------------------------------------------------

#[test]
fn q11_rows_grow_with_the_document_not_with_the_pair_table() {
    let q11 = query(11).unwrap().text;
    let stats_at = |scale: f64| {
        let options = EngineOptions::builder()
            .optimizer_level(OptimizerLevel::FULL)
            .threads(1);
        let pf = Pathfinder::with_options(options.build());
        let xml = generate(&GeneratorConfig { scale, seed: 11 });
        pf.load_document("auction.xml", &xml).unwrap();
        pf.query_with(q11, Profile::Stats).unwrap().stats.unwrap()
    };
    let (small, large) = (stats_at(0.1), stats_at(0.2));
    // Doubling the document doubles both key relations; the pair table
    // would quadruple.
    for (what, small, large) in [
        ("rows_produced", small.rows_produced, large.rows_produced),
        (
            "peak_resident_rows",
            small.peak_resident_rows,
            large.peak_resident_rows,
        ),
    ] {
        assert!(
            (large as f64) <= 2.5 * small as f64,
            "{what} grew {small} -> {large} from scale 0.1 to 0.2"
        );
    }
}
