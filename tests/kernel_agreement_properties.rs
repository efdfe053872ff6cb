//! Property tests for the typed join/aggregation kernels: the
//! borrowed-key hash join ([`JoinPlan`]) and the typed accumulators of
//! [`AggPlan`] must agree with the value-at-a-time reference paths
//! (`equi_join_generic` / `aggregate_by_generic`) on *random* tables —
//! including the corners where the typed key extraction could plausibly
//! diverge:
//!
//! * `Nat` values above `i64::MAX` (the `Bits` key class),
//! * non-integral doubles (also `Bits`) and integral doubles (which
//!   collapse onto the integer key class),
//! * mixed-type `Item` columns (per-row `Value` dispatch),
//! * empty inputs on either side.
//!
//! On top of plain agreement, the chunked evaluation contracts are pinned
//! property-style: probe ranges concatenate to the full probe, and for
//! the chunk-safe aggregation functions, per-chunk partials merged in
//! order equal the sequential run — for every chunk size.
//!
//! The direct-address paths (`Nat` keys looked up by value instead of
//! hashed) get key columns in three regimes — dense ascending, dense
//! unsorted with duplicates, and sparse up to `u64::MAX` (the `Bits`
//! class) — and `Nat` columns against `Int`/`Dbl`/`Item` ones, which must
//! take the borrowed-key path.  `equi_join` must equal `equi_join_generic`
//! under every chunking of the probe; `difference`, `distinct` and
//! `distinct_on` must equal a `HashKey` oracle (the owned-key loops they
//! replaced); a fused δ must equal the operator.
//!
//! The fused kernel, finally, runs random chains of all eight
//! [`FusedStep`] kinds over random tables — typed, `Item` and empty
//! columns, `NaN`, strings that are and are not numbers, nodes of a small
//! document atomized through the node-only hook — and must give the table
//! (column representation included) or the error that the value-at-a-time
//! reference kernels give applied one operator at a time, whole and at
//! every chunk size.
//!
//! [`JoinPlan`]: pathfinder::relational::ops::JoinPlan
//! [`AggPlan`]: pathfinder::relational::ops::AggPlan

use std::collections::HashSet;

use proptest::prelude::*;

use pathfinder::engine::{DocRegistry, Executor};
use pathfinder::relational::ops::{
    self, AggFunc, AggPlan, BinaryOp, CmpOp, FusedStep, HashKey, JoinPlan, UnaryOp,
};
use pathfinder::relational::value::ArithOp;
use pathfinder::relational::{Cell, Column, NodeRef, RelResult, Table, Value};
use pathfinder::store::DocStore;

/// Random scalar values spanning every key class: small colliding
/// integers, huge `Nat`s beyond `i64::MAX`, integral and fractional
/// doubles, short strings (some of which parse as numbers — the string
/// sum path), and booleans.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..4).prop_map(Value::Int),
        (i64::MIN..i64::MAX).prop_map(Value::Int),
        (0u64..4).prop_map(Value::Nat),
        (0u64..u64::MAX).prop_map(Value::Nat),
        (-4i64..4).prop_map(|i| Value::Dbl(i as f64)),
        (-100.0f64..100.0).prop_map(Value::Dbl),
        "[a-b0-9]{0,2}".prop_map(Value::Str),
        proptest::bool::ANY.prop_map(Value::Bool),
    ]
}

/// A random column of exactly `len` rows: homogeneous typed columns (so
/// the typed `KeyView` slices are exercised) or a mixed `Item` column.
fn column_strategy(len: usize) -> BoxedStrategy<Column> {
    let exactly = len..len + 1;
    prop_oneof![
        proptest::collection::vec(prop_oneof![0u64..6, 0u64..u64::MAX], exactly.clone())
            .prop_map(Column::nats),
        proptest::collection::vec(-6i64..6, exactly.clone()).prop_map(Column::ints),
        proptest::collection::vec(
            prop_oneof![(-4i64..4).prop_map(|i| i as f64), -50.0f64..50.0],
            exactly.clone()
        )
        .prop_map(Column::dbls),
        proptest::collection::vec("[a-b0-9]{0,2}", exactly.clone()).prop_map(Column::strs),
        proptest::collection::vec(value_strategy(), exactly).prop_map(Column::from_values),
    ]
    .boxed()
}

/// Two same-length random columns (a key and a payload).
fn table_columns(max_rows: usize) -> impl Strategy<Value = (Column, Column)> {
    (0..max_rows + 1).prop_flat_map(|n| (column_strategy(n), column_strategy(n)))
}

fn agg_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn typed_join_agrees_with_the_generic_join(
        (lkey, lval) in table_columns(24),
        (rkey, rval) in table_columns(24),
    ) {
        let left = Table::new(vec![("k".into(), lkey), ("v".into(), lval)]).unwrap();
        let right = Table::new(vec![("k2".into(), rkey), ("w".into(), rval)]).unwrap();
        let typed = ops::equi_join(&left, &right, "k", "k2").unwrap();
        let generic = ops::equi_join_generic(&left, &right, "k", "k2").unwrap();
        prop_assert_eq!(typed, generic);
    }

    #[test]
    fn chunked_probe_ranges_concatenate_to_the_full_probe(
        (lkey, lval) in table_columns(24),
        (rkey, rval) in table_columns(24),
        chunk in 1usize..9,
    ) {
        let left = Table::new(vec![("k".into(), lkey), ("v".into(), lval)]).unwrap();
        let right = Table::new(vec![("k2".into(), rkey), ("w".into(), rval)]).unwrap();
        let plan = JoinPlan::new(&left, &right, "k", "k2").unwrap();
        let rows = plan.probe_rows();
        let full = plan.probe_range(0..rows);
        let mut chunked = Vec::new();
        let mut lo = 0;
        while lo < rows {
            let hi = (lo + chunk).min(rows);
            chunked.extend(plan.probe_range(lo..hi));
            lo = hi;
        }
        prop_assert_eq!(&full, &chunked);
        prop_assert_eq!(
            plan.materialize(full).unwrap(),
            ops::equi_join_generic(&left, &right, "k", "k2").unwrap()
        );
    }

    #[test]
    fn typed_aggregation_agrees_with_the_generic_aggregation(
        (group, value) in table_columns(32),
        func in agg_func(),
    ) {
        let table = Table::new(vec![("g".into(), group), ("v".into(), value)]).unwrap();
        let typed = ops::aggregate_by(&table, "g", "out", func, "v");
        let generic = ops::aggregate_by_generic(&table, "g", "out", func, "v");
        match (typed, generic) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "typed ok = {}, generic ok = {} — one path errored where the other succeeded",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    #[test]
    fn segmented_aggregation_agrees_with_the_generic_hash_path(
        mut keys in proptest::collection::vec(0u64..8, 0..40),
        value in (0..41usize).prop_flat_map(column_strategy),
        func in agg_func(),
    ) {
        // An ascending Nat group column takes the hash-free segmented scan
        // (exactly what iter-grouped loop-lifted tables look like).
        keys.sort_unstable();
        let n = keys.len().min(value.len());
        keys.truncate(n);
        let rows: Vec<usize> = (0..n).collect();
        let value = value.gather(&rows);
        let table = Table::new(vec![("g".into(), Column::nats(keys)), ("v".into(), value)]).unwrap();
        let plan = AggPlan::new(&table, "g", "out", func, "v").unwrap();
        prop_assert!(plan.segmented());
        let typed = ops::aggregate_by(&table, "g", "out", func, "v");
        let generic = ops::aggregate_by_generic(&table, "g", "out", func, "v");
        match (typed, generic) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false,
                "segmented ok = {}, generic ok = {}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    #[test]
    fn chunked_partials_merge_to_the_sequential_aggregate(
        (group, value) in table_columns(32),
        func in agg_func(),
        chunk in 1usize..9,
    ) {
        let table = Table::new(vec![("g".into(), group), ("v".into(), value)]).unwrap();
        let plan = AggPlan::new(&table, "g", "out", func, "v").unwrap();
        prop_assume!(plan.chunk_parallel_safe());
        let rows = plan.input_rows();
        let mut partials = Vec::new();
        let mut lo = 0;
        let mut failed = false;
        while lo < rows {
            let hi = (lo + chunk).min(rows);
            match plan.partial(lo..hi) {
                Ok(p) => partials.push(p),
                Err(_) => {
                    failed = true;
                    break;
                }
            }
            lo = hi;
        }
        let sequential = plan.run();
        if failed {
            // A chunk error implies the sequential pass errors too (the
            // executor re-runs sequentially for the canonical message).
            prop_assert!(sequential.is_err());
        } else {
            let merged = plan.finish(plan.merge(partials).unwrap()).unwrap();
            prop_assert_eq!(merged, sequential.unwrap());
        }
    }
}

/// `Nat` key columns in the three regimes the direct-address paths see:
/// dense ascending (loop-lifted `iter`s), dense unsorted with duplicates
/// (a union's `iter`s), and sparse up to `u64::MAX`.
fn nat_keys(max_rows: usize) -> BoxedStrategy<Vec<u64>> {
    let len = 0..max_rows + 1;
    prop_oneof![
        proptest::collection::vec(0u64..12, len.clone()).prop_map(|mut keys| {
            keys.sort_unstable();
            keys
        }),
        proptest::collection::vec(0u64..12, len.clone()),
        proptest::collection::vec(
            prop_oneof![
                0u64..6,
                5_000u64..1 << 40,
                (i64::MAX as u64)..u64::MAX,
                Just(u64::MAX)
            ],
            len
        ),
    ]
    .boxed()
}

/// A key column: `Nat` in one of the three regimes, or the same small
/// keys as `Int`, `Dbl` (some non-integral) or a mixed `Item` column — a
/// `Nat` joined or compared against those must take the borrowed-key path.
fn key_column(max_rows: usize) -> BoxedStrategy<Column> {
    prop_oneof![
        nat_keys(max_rows).prop_map(Column::nats),
        nat_keys(max_rows).prop_map(Column::nats),
        proptest::collection::vec(0i64..12, 0..max_rows + 1).prop_map(Column::ints),
        proptest::collection::vec(
            prop_oneof![(0i64..12).prop_map(|i| i as f64), 0.0f64..12.0],
            0..max_rows + 1
        )
        .prop_map(Column::dbls),
        proptest::collection::vec(
            prop_oneof![
                (0u64..12).prop_map(Value::Nat),
                (0i64..12).prop_map(Value::Int),
                (0i64..12).prop_map(|i| Value::Dbl(i as f64)),
                (i64::MAX as u64..u64::MAX).prop_map(Value::Nat),
                "[0-9]{1,1}".prop_map(Value::Str),
            ],
            0..max_rows + 1
        )
        .prop_map(Column::items),
    ]
    .boxed()
}

/// A table of `key` plus a payload column of matching length, named
/// `key_name` / `payload_name`.
fn keyed(key: Column, key_name: &str, payload_name: &str) -> Table {
    let payload = Column::ints((0..key.len() as i64).collect());
    Table::new(vec![(key_name.into(), key), (payload_name.into(), payload)]).unwrap()
}

/// The owned-key δ the direct-address and borrowed-key kernels replaced.
fn oracle_distinct_on(input: &Table, columns: &[&str]) -> Table {
    let mut seen: HashSet<Vec<HashKey>> = HashSet::new();
    let keep: Vec<usize> = (0..input.row_count())
        .filter(|&row| {
            seen.insert(
                columns
                    .iter()
                    .map(|c| HashKey::of(&input.value(c, row).unwrap()))
                    .collect(),
            )
        })
        .collect();
    input.gather_rows(&keep)
}

/// The owned-key `∖` the direct-address and borrowed-key kernels replaced.
fn oracle_difference(left: &Table, right: &Table) -> Table {
    let columns = left.column_names();
    let row_key = |table: &Table, row: usize| -> Vec<HashKey> {
        columns
            .iter()
            .map(|c| HashKey::of(&table.value(c, row).unwrap()))
            .collect()
    };
    let exclude: HashSet<Vec<HashKey>> =
        (0..right.row_count()).map(|r| row_key(right, r)).collect();
    let keep: Vec<usize> = (0..left.row_count())
        .filter(|&row| !exclude.contains(&row_key(left, row)))
        .collect();
    left.gather_rows(&keep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dense_key_joins_agree_with_the_generic_join_under_every_chunking(
        lkey in key_column(40),
        rkey in key_column(40),
    ) {
        let left = keyed(lkey, "k", "v");
        let right = keyed(rkey, "k2", "w");
        let generic = ops::equi_join_generic(&left, &right, "k", "k2").unwrap();
        prop_assert_eq!(&ops::equi_join(&left, &right, "k", "k2").unwrap(), &generic);
        let plan = JoinPlan::new(&left, &right, "k", "k2").unwrap();
        let rows = plan.probe_rows();
        let full = plan.probe_range(0..rows);
        for chunk in 1..=rows.max(1) {
            let mut chunked = Vec::new();
            let mut lo = 0;
            while lo < rows {
                let hi = (lo + chunk).min(rows);
                chunked.extend(plan.probe_range(lo..hi));
                lo = hi;
            }
            prop_assert_eq!(&chunked, &full, "chunk {}", chunk);
        }
        prop_assert_eq!(plan.materialize(full).unwrap(), generic);
    }

    #[test]
    fn difference_agrees_with_the_owned_key_oracle(
        lkey in key_column(40),
        rkey in key_column(40),
        two_columns in proptest::bool::ANY,
    ) {
        // One key column (the bitset path when both are dense `Nat`s), or
        // the key plus a payload that matches on some rows.
        let project = |table: Table, payload: Column| {
            let key = table.column("iter").unwrap().clone();
            if two_columns {
                Table::new(vec![("iter".into(), key), ("p".into(), payload)]).unwrap()
            } else {
                Table::new(vec![("iter".into(), key)]).unwrap()
            }
        };
        let left = keyed(lkey, "iter", "v");
        let right = keyed(rkey, "iter", "v");
        let lpay = Column::ints((0..left.row_count() as i64).map(|i| i % 3).collect());
        let rpay = Column::ints((0..right.row_count() as i64).map(|i| i % 2).collect());
        let (left, right) = (project(left, lpay), project(right, rpay));
        prop_assert_eq!(
            ops::difference(&left, &right).unwrap(),
            oracle_difference(&left, &right)
        );
    }

    #[test]
    fn distinct_agrees_with_the_owned_key_oracle(
        key in key_column(40),
        other in nat_keys(40),
    ) {
        let n = key.len().min(other.len());
        let rows: Vec<usize> = (0..n).collect();
        let table = Table::new(vec![
            ("iter".into(), key.gather(&rows)),
            ("item".into(), Column::nats(other[..n].iter().map(|k| k % 3).collect())),
        ])
        .unwrap();
        let only_key = Table::new(vec![("iter".into(), key)]).unwrap();
        prop_assert_eq!(ops::distinct(&only_key).unwrap(), oracle_distinct_on(&only_key, &["iter"]));
        prop_assert_eq!(ops::distinct(&table).unwrap(), oracle_distinct_on(&table, &["iter", "item"]));
        for columns in [&["iter"][..], &["item"], &["item", "iter"]] {
            prop_assert_eq!(
                ops::setops::distinct_on(&table, columns).unwrap(),
                oracle_distinct_on(&table, columns)
            );
        }
    }

    #[test]
    fn fused_distinct_agrees_with_the_operator(
        key in key_column(40),
        keep in proptest::collection::vec(proptest::bool::ANY, 41..42),
        select_first in proptest::bool::ANY,
        with_computed_column in proptest::bool::ANY,
    ) {
        // δ over the shared key column — through a selection vector when a
        // σ runs first — alone or next to a computed (dense) column.
        let mut table = Table::new(vec![("iter".into(), key)]).unwrap();
        table
            .add_column("keep", Column::bools(keep[..table.row_count()].to_vec()))
            .unwrap();
        let kept = if with_computed_column { vec!["iter", "c"] } else { vec!["iter"] };
        let columns: Vec<(String, String)> =
            kept.iter().map(|c| (c.to_string(), c.to_string())).collect();
        let mut steps = Vec::new();
        if select_first {
            steps.push(FusedStep::SelectTrue { column: "keep" });
        }
        steps.push(FusedStep::Attach { target: "c", value: &Value::Int(7) });
        steps.push(FusedStep::Project { columns: &columns });
        steps.push(FusedStep::Distinct);
        let fused = ops::run_pipeline(&table, &steps, &mut |_, _| unreachable!()).unwrap();
        let selected = if select_first { ops::select_true(&table, "keep").unwrap() } else { table };
        let attached = ops::map_const(&selected, "c", &Value::Int(7)).unwrap();
        let pairs: Vec<(&str, &str)> = kept.iter().map(|c| (*c, *c)).collect();
        let projected = ops::project(&attached, &pairs).unwrap();
        prop_assert_eq!(&fused, &ops::distinct(&projected).unwrap());
        prop_assert_eq!(fused, oracle_distinct_on(&projected, &kept));
    }
}

// ----- the fused kernel against the operator-at-a-time reference ---------

/// The document node columns point into.  Pre ranks: 1 `<r>`, 2 and 4
/// `<a>`, 3 and 5 their texts, 6 and 8 `<b>`, 10 `<c/>`.
const DOC: &str = "<r><a>1</a><a>x</a><b>2.5</b><b>INF</b><c/></r>";

/// Node cells: elements and texts of [`DOC`], and a node of a document
/// the hook does not know (its string value is empty).
const NODES: [(u32, u32); 8] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (0, 6),
    (0, 8),
    (0, 10),
    (7, 0),
];

/// Strings that are numbers, are not, and are only to Rust's parser.
const STRINGS: [&str; 10] = [
    "1", " 2.5 ", "abc", "INF", "-INF", "NaN", "infinity", "", "10", "x",
];

const DOUBLES: [f64; 7] = [-1.5, 0.0, 2.0, 2.5, f64::NAN, f64::INFINITY, 10.0];

/// What a column holds, as far as the chain generator cares.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Num,
    Str,
    Bool,
    Node,
    Mixed,
}

fn class_of(value: &Value) -> Class {
    match value {
        Value::Nat(_) | Value::Int(_) | Value::Dbl(_) => Class::Num,
        Value::Str(_) => Class::Str,
        Value::Bool(_) => Class::Bool,
        Value::Node(_) => Class::Node,
    }
}

/// Constants for σ=, attach and `Item` cells.
fn constants() -> Vec<Value> {
    vec![
        Value::Nat(1),
        Value::Nat(3),
        Value::Int(2),
        Value::Int(-1),
        Value::Dbl(2.5),
        Value::Dbl(f64::NAN),
        Value::Str("1".into()),
        Value::Str("x".into()),
        Value::Str("INF".into()),
        Value::Bool(true),
        Value::Bool(false),
        Value::Node(NodeRef::new(0, 2)),
        Value::Node(NodeRef::new(0, 8)),
    ]
}

/// The generator's choices, read off a random tape (zeros once it runs
/// out).
struct Tape<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self, choices: usize) -> usize {
        let byte = self.bytes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        byte as usize % choices
    }

    fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.next(options.len())].clone()
    }
}

/// A random input table of `rows` rows: `Nat` keys, integers, doubles,
/// strings, booleans (random, all true or all false), two mixed `Item`
/// columns (any constant; nodes and strings) and nodes.
fn kernel_input(tape: &mut Tape<'_>, rows: usize) -> (Table, Vec<(String, Class)>) {
    let mut nats = Vec::new();
    let mut ints = Vec::new();
    let mut dbls = Vec::new();
    let mut strs = Vec::new();
    let mut items = Vec::new();
    let mut texts = Vec::new();
    let mut nodes = Vec::new();
    for _ in 0..rows {
        nats.push(tape.next(4) as u64);
        ints.push(tape.next(7) as i64 - 3);
        dbls.push(tape.pick(&DOUBLES));
        strs.push(tape.pick(&STRINGS).to_string());
        items.push(tape.pick(&constants()));
        let (doc, pre) = tape.pick(&NODES);
        nodes.push(NodeRef::new(doc, pre));
        texts.push(match tape.next(3) {
            0 => Value::Str(tape.pick(&STRINGS).to_string()),
            _ => Value::Node(*nodes.last().expect("just pushed")),
        });
    }
    let bools: Vec<bool> = match tape.next(3) {
        0 => (0..rows).map(|_| tape.next(2) == 1).collect(),
        mode => vec![mode == 1; rows],
    };
    let columns = vec![
        ("k", Column::nats(nats), Class::Num),
        ("i", Column::ints(ints), Class::Num),
        ("f", Column::dbls(dbls), Class::Num),
        ("s", Column::strs(strs), Class::Str),
        ("t", Column::bools(bools), Class::Bool),
        ("x", Column::items(items), Class::Mixed),
        ("y", Column::items(texts), Class::Mixed),
        ("n", Column::nodes(nodes), Class::Node),
    ];
    let schema = columns
        .iter()
        .map(|(n, _, c)| (n.to_string(), *c))
        .collect();
    let table = Table::new(columns.into_iter().map(|(n, c, _)| (n.into(), c)).collect()).unwrap();
    (table, schema)
}

/// A column name of the current schema: of one of the `wanted` classes
/// seven times in eight, and then the newest such column (a computed or
/// constant one, once the chain has added some) a third of the time.
fn column(tape: &mut Tape<'_>, schema: &[(String, Class)], wanted: &[Class]) -> (String, Class) {
    let fitting: Vec<(String, Class)> = schema
        .iter()
        .filter(|(_, class)| wanted.contains(class))
        .cloned()
        .collect();
    match (tape.next(8), fitting.last()) {
        (0, _) | (_, None) => tape.pick(schema),
        (1..=2, Some(newest)) => newest.clone(),
        _ => tape.pick(&fitting),
    }
}

/// One step of a generated chain, owning what its [`FusedStep`] borrows.
#[derive(Debug)]
enum Step {
    Project(Vec<(String, String)>),
    SelectTrue(String),
    SelectEq(String, Value),
    Attach(String, Value),
    MapUnary(String, UnaryOp, String),
    MapBinary(String, String, BinaryOp, String),
    MapAtomize(String),
    Distinct,
}

impl Step {
    fn fused(&self) -> FusedStep<'_> {
        match self {
            Step::Project(columns) => FusedStep::Project { columns },
            Step::SelectTrue(column) => FusedStep::SelectTrue { column },
            Step::SelectEq(column, value) => FusedStep::SelectEq { column, value },
            Step::Attach(target, value) => FusedStep::Attach { target, value },
            Step::MapUnary(target, op, source) => FusedStep::MapUnary {
                target,
                op: *op,
                source,
            },
            Step::MapBinary(target, left, op, right) => FusedStep::MapBinary {
                target,
                left,
                op: *op,
                right,
            },
            Step::MapAtomize(column) => FusedStep::MapAtomize { column },
            Step::Distinct => FusedStep::Distinct,
        }
    }
}

/// A random chain over `schema`, tracking the schema as it goes: often
/// `fn:data` of a node-bearing column and an attached constant first (the
/// shape loop-lifted plans start with), then one to six steps of any
/// kind, ⊙ the likeliest.  Operands mostly fit the operator; the rest
/// exercise the errors.
fn kernel_chain(tape: &mut Tape<'_>, mut schema: Vec<(String, Class)>) -> Vec<Step> {
    const NUMS: &[Class] = &[Class::Num];
    const ANY: &[Class] = &[
        Class::Num,
        Class::Str,
        Class::Bool,
        Class::Node,
        Class::Mixed,
    ];
    const TEXTS: &[Class] = &[Class::Str, Class::Node];
    let constants = constants();
    let mut steps = Vec::new();
    let prefix = [8, 3].map(|kind| (tape.next(2) == 0).then_some(kind));
    let kinds: Vec<usize> = (0..1 + tape.next(6)).map(|_| tape.next(10)).collect();
    for (fresh, kind) in prefix.into_iter().flatten().chain(kinds).enumerate() {
        let target = format!("c{fresh}");
        let step = match kind {
            0 => {
                let mut columns: Vec<(String, String)> = Vec::new();
                let mut projected = Vec::new();
                for p in 0..1 + tape.next(schema.len().min(4)) {
                    let (source, class) = tape.pick(&schema);
                    let clash = columns.iter().any(|(_, t)| *t == source);
                    let name = if (clash && tape.next(8) > 0) || tape.next(3) == 0 {
                        format!("p{fresh}_{p}")
                    } else {
                        source.clone()
                    };
                    columns.push((source, name.clone()));
                    projected.push((name, class));
                }
                schema = projected;
                Step::Project(columns)
            }
            1 => Step::SelectTrue(column(tape, &schema, &[Class::Bool]).0),
            2 => {
                let (column, class) = column(tape, &schema, ANY);
                let fitting: Vec<Value> = constants
                    .iter()
                    .filter(|v| class_of(v) == class)
                    .cloned()
                    .collect();
                let value = match fitting.is_empty() || tape.next(4) == 0 {
                    true => tape.pick(&constants),
                    false => tape.pick(&fitting),
                };
                Step::SelectEq(column, value)
            }
            3 => {
                let value = tape.pick(&constants);
                schema.push((target.clone(), class_of(&value)));
                Step::Attach(target, value)
            }
            4 => {
                let (op, wanted, class) = tape.pick(&[
                    (UnaryOp::Not, &[Class::Bool][..], Class::Bool),
                    (UnaryOp::Neg, NUMS, Class::Num),
                    (
                        UnaryOp::ToNumber,
                        &[Class::Str, Class::Node, Class::Num][..],
                        Class::Num,
                    ),
                    (UnaryOp::ToNumber, TEXTS, Class::Num),
                    (UnaryOp::ToString, ANY, Class::Str),
                    (UnaryOp::StrLen, TEXTS, Class::Num),
                ]);
                let source = column(tape, &schema, wanted).0;
                schema.push((target.clone(), class));
                Step::MapUnary(target, op, source)
            }
            5..=7 => {
                let arith = [
                    ArithOp::Add,
                    ArithOp::Sub,
                    ArithOp::Mul,
                    ArithOp::Div,
                    ArithOp::IDiv,
                    ArithOp::Mod,
                ];
                let cmp = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ];
                let mixed = &[Class::Str, Class::Node, Class::Mixed][..];
                let (op, wanted, class) = match tape.next(8) {
                    0 | 1 => (BinaryOp::Arith(tape.pick(&arith)), NUMS, Class::Num),
                    2 => (BinaryOp::Cmp(tape.pick(&cmp)), NUMS, Class::Bool),
                    // Strings against numbers.
                    3 => (
                        BinaryOp::Cmp(tape.pick(&cmp)),
                        &[Class::Num, Class::Str, Class::Mixed][..],
                        Class::Bool,
                    ),
                    // Strings, nodes and atomized nodes against each other.
                    4 => (BinaryOp::Cmp(tape.pick(&cmp)), mixed, Class::Bool),
                    5 => (
                        tape.pick(&[BinaryOp::Contains, BinaryOp::StartsWith, BinaryOp::Concat]),
                        TEXTS,
                        Class::Bool,
                    ),
                    6 => (
                        tape.pick(&[BinaryOp::Contains, BinaryOp::StartsWith]),
                        mixed,
                        Class::Bool,
                    ),
                    _ => (
                        tape.pick(&[BinaryOp::And, BinaryOp::Or]),
                        &[Class::Bool][..],
                        Class::Bool,
                    ),
                };
                let class = if op == BinaryOp::Concat {
                    Class::Str
                } else {
                    class
                };
                let left = column(tape, &schema, wanted).0;
                let right = column(tape, &schema, wanted).0;
                schema.push((target.clone(), class));
                Step::MapBinary(target, left, op, right)
            }
            8 => {
                let (column, class) = column(tape, &schema, &[Class::Node, Class::Mixed]);
                if class == Class::Node {
                    if let Some(entry) = schema.iter_mut().find(|(n, _)| *n == column) {
                        entry.1 = Class::Str;
                    }
                }
                Step::MapAtomize(column)
            }
            _ => Step::Distinct,
        };
        steps.push(step);
    }
    steps
}

/// The chain one operator at a time with the value-at-a-time reference
/// kernels; the columns the chain computes end as `Column::from_values`
/// builds them, the fused kernel's output convention.
fn reference_chain(
    input: &Table,
    steps: &[FusedStep<'_>],
    atomize: &mut dyn FnMut(NodeRef, &mut String),
) -> RelResult<Table> {
    let mut table = input.clone();
    let mut computed: HashSet<String> = HashSet::new();
    for &step in steps {
        table = match step {
            FusedStep::Project { columns } => {
                let pairs: Vec<(&str, &str)> = columns
                    .iter()
                    .map(|(s, t)| (s.as_str(), t.as_str()))
                    .collect();
                computed = columns
                    .iter()
                    .filter(|(s, _)| computed.contains(s))
                    .map(|(_, t)| t.clone())
                    .collect();
                ops::project(&table, &pairs)?
            }
            FusedStep::SelectTrue { column } => ops::select_true(&table, column)?,
            FusedStep::SelectEq { column, value } => ops::select_eq(&table, column, value)?,
            FusedStep::Attach { target, value } => {
                computed.insert(target.to_string());
                ops::map_const(&table, target, value)?
            }
            FusedStep::MapUnary { target, op, source } => {
                computed.insert(target.to_string());
                ops::map_unary(&table, target, op, source, atomize)?
            }
            FusedStep::MapBinary {
                target,
                left,
                op,
                right,
            } => {
                computed.insert(target.to_string());
                ops::map_binary(&table, target, left, op, right, atomize)?
            }
            FusedStep::MapAtomize { column } => {
                computed.insert(column.to_string());
                ops::map_data(&table, column, atomize)?
            }
            FusedStep::Distinct => ops::distinct(&table)?,
        };
    }
    let columns = table
        .columns()
        .iter()
        .map(|(name, c)| match computed.contains(name) {
            true => (name.clone(), Column::from_values(c.iter_values().collect())),
            false => (name.clone(), c.clone()),
        })
        .collect();
    Table::new(columns)
}

/// Table equality with `NaN` equal to `NaN`: the same names, column
/// representations and cells.
fn same_table(a: &Table, b: &Table) -> bool {
    let same_cell = |x: Cell<'_>, y: Cell<'_>| match (x, y) {
        (Cell::Dbl(x), Cell::Dbl(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => x == y,
    };
    a.column_names() == b.column_names()
        && a.row_count() == b.row_count()
        && a.columns().iter().zip(b.columns()).all(|((_, x), (_, y))| {
            std::mem::discriminant(x) == std::mem::discriminant(y)
                && (0..x.len()).all(|row| same_cell(x.cell(row), y.cell(row)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn fused_chains_agree_with_the_operator_at_a_time_reference(
        rows in 0usize..9,
        tape in proptest::collection::vec(0u8..255, 96..256),
    ) {
        let store = DocStore::from_xml("d.xml", DOC).unwrap();
        let mut atomize = |node: NodeRef, out: &mut String| {
            if node.doc == 0 {
                store.push_string_value(node.pre, out);
            }
        };
        let mut tape = Tape { bytes: &tape, at: 0 };
        let (input, schema) = kernel_input(&mut tape, rows);
        let chain = kernel_chain(&mut tape, schema);
        let steps: Vec<FusedStep> = chain.iter().map(Step::fused).collect();
        let fused = ops::run_pipeline(&input, &steps, &mut atomize);
        let reference = reference_chain(&input, &steps, &mut atomize);
        match (&fused, &reference) {
            (Ok(f), Ok(r)) => prop_assert!(same_table(f, r), "{steps:?}\n{f:?}\n{r:?}"),
            (Err(f), Err(r)) => prop_assert_eq!(f, r, "{:?}", steps),
            _ => prop_assert!(false, "{steps:?}: fused {fused:?}, reference {reference:?}"),
        }
        if !ops::steps_chunkable(&steps) {
            return;
        }
        // Every chunking concatenates to the whole run; a chunk fails
        // exactly when the whole run does (the executor then reports the
        // whole run's error).
        for chunk in 1..=rows {
            let pieces: Vec<RelResult<Table>> = (0..rows)
                .step_by(chunk)
                .map(|lo| {
                    ops::run_pipeline_range(&input, &steps, lo..(lo + chunk).min(rows), &mut atomize)
                })
                .collect();
            match &fused {
                Ok(whole) => {
                    let pieces: Vec<Table> = pieces.into_iter().map(Result::unwrap).collect();
                    let merged = Table::concat_rows(pieces).unwrap();
                    prop_assert!(same_table(&merged, whole), "chunk {chunk}: {steps:?}");
                }
                Err(_) => prop_assert!(pieces.iter().any(Result::is_err), "chunk {chunk}: {steps:?}"),
            }
        }
    }
}

/// A chain that only renames hands the input buffers through: the kernel
/// never chunks it, and the executor keeps it zero-copy at 4 threads with
/// 2-row morsels (the physically resident cells count one copy).
#[test]
fn projection_pipelines_stay_zero_copy_at_four_threads() {
    use pathfinder::algebra::{AlgOp, PlanBuilder};

    let input = Table::new(vec![
        ("iter".into(), Column::nats((0..64).collect())),
        (
            "item".into(),
            Column::strs((0..64).map(|i| i.to_string()).collect()),
        ),
    ])
    .unwrap();
    let rename = FusedStep::Project {
        columns: &[("iter".into(), "a".into()), ("item".into(), "b".into())],
    };
    assert!(!ops::steps_chunkable(&[rename]));
    let out = ops::run_pipeline(&input, &[rename], &mut |_, _| unreachable!()).unwrap();
    assert!(out
        .column("a")
        .unwrap()
        .shares_data(input.column("iter").unwrap()));
    assert!(out
        .column("b")
        .unwrap()
        .shares_data(input.column("item").unwrap()));

    let mut b = PlanBuilder::new();
    let lit = b.add(AlgOp::Lit {
        columns: vec!["iter".into(), "item".into()],
        rows: (0..64u64)
            .map(|i| vec![Value::Nat(i), Value::Str(i.to_string())])
            .collect(),
    });
    let renamed = b.add(AlgOp::Project {
        input: lit,
        columns: vec![("iter".into(), "a".into()), ("item".into(), "b".into())],
    });
    let plan = b.finish(renamed);
    let registry = DocRegistry::new();
    let (table, stats) = Executor::with_threads(&registry, 4)
        .with_morsel_rows(2)
        .run_with_stats(&plan)
        .unwrap();
    assert_eq!(table.row_count(), 64);
    assert_eq!(stats.cells_produced, 4 * 64, "two tables of two columns");
    assert_eq!(stats.peak_resident_cells, 2 * 64, "one copy of the cells");
}
