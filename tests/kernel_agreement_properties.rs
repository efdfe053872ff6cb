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
//! The direct-address paths (`Nat` keys looked up by value instead of
//! hashed) get key columns in three regimes — dense ascending, dense
//! unsorted with duplicates, and sparse up to `u64::MAX` (the `Bits`
//! class) — and `Nat` columns against `Int`/`Dbl`/`Item` ones, which must
//! take the borrowed-key path.  `equi_join` must equal `equi_join_generic`;
//! `difference`, `distinct` and
//! `distinct_on` must equal a `HashKey` oracle (the owned-key loops they
//! replaced); a fused δ must equal the operator.
//!
//! The fused kernel, finally, runs random chains of all eight
//! [`FusedStep`] kinds over random tables — typed, `Item` and empty
//! columns, `NaN`, strings that are and are not numbers, nodes of a small
//! document and constructed attributes atomized through the store hook —
//! and must give the table
//! (column representation included) or the error that the value-at-a-time
//! reference kernels give applied one operator at a time.
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
use pathfinder::relational::{AttrRef, Cell, ColId, Column, NodeRef, RelResult, Table, Value};
use pathfinder::store::{DocStore, FragmentBuilder};

thread_local! {
    /// The column names [`col`] has numbered on this thread.
    static NAMES: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The id of column `name` in these tests' tables: the well-known id of a
/// well-known name, the next free one for a name seen the first time.
fn col(name: &str) -> ColId {
    if let Some(at) = ColId::WELL_KNOWN.iter().position(|&n| n == name) {
        return ColId(at as u32);
    }
    NAMES.with_borrow_mut(|names| {
        let at = names.iter().position(|n| n == name).unwrap_or_else(|| {
            names.push(name.to_string());
            names.len() - 1
        });
        ColId((ColId::WELL_KNOWN.len() + at) as u32)
    })
}

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
        let left = Table::new(vec![(col("k"), lkey), (col("v"), lval)]).unwrap();
        let right = Table::new(vec![(col("k2"), rkey), (col("w"), rval)]).unwrap();
        let typed = ops::equi_join(&left, &right, col("k"), col("k2")).unwrap();
        let generic = ops::equi_join_generic(&left, &right, col("k"), col("k2")).unwrap();
        prop_assert_eq!(typed, generic);
    }

    #[test]
    fn typed_aggregation_agrees_with_the_generic_aggregation(
        (group, value) in table_columns(32),
        func in agg_func(),
    ) {
        let table = Table::new(vec![(col("g"), group), (col("v"), value)]).unwrap();
        let typed = ops::aggregate_by(&table, col("g"), col("out"), func, col("v"));
        let generic = ops::aggregate_by_generic(&table, col("g"), col("out"), func, col("v"));
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
        let table = Table::new(vec![(col("g"), Column::nats(keys)), (col("v"), value)]).unwrap();
        let plan = AggPlan::new(&table, col("g"), col("out"), func, col("v")).unwrap();
        prop_assert!(plan.segmented());
        let typed = ops::aggregate_by(&table, col("g"), col("out"), func, col("v"));
        let generic = ops::aggregate_by_generic(&table, col("g"), col("out"), func, col("v"));
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
    Table::new(vec![(col(key_name), key), (col(payload_name), payload)]).unwrap()
}

/// The owned-key δ the direct-address and borrowed-key kernels replaced.
fn oracle_distinct_on(input: &Table, columns: &[&str]) -> Table {
    let mut seen: HashSet<Vec<HashKey>> = HashSet::new();
    let keep: Vec<usize> = (0..input.row_count())
        .filter(|&row| {
            seen.insert(
                columns
                    .iter()
                    .map(|c| HashKey::of(&input.value(col(c), row).unwrap()))
                    .collect(),
            )
        })
        .collect();
    input.gather_rows(&keep)
}

/// The owned-key `∖` the direct-address and borrowed-key kernels replaced.
fn oracle_difference(left: &Table, right: &Table) -> Table {
    let columns = left.column_ids();
    let row_key = |table: &Table, row: usize| -> Vec<HashKey> {
        columns
            .iter()
            .map(|&c| HashKey::of(&table.value(c, row).unwrap()))
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
    fn dense_key_joins_agree_with_the_generic_join(
        lkey in key_column(40),
        rkey in key_column(40),
    ) {
        let left = keyed(lkey, "k", "v");
        let right = keyed(rkey, "k2", "w");
        let generic = ops::equi_join_generic(&left, &right, col("k"), col("k2")).unwrap();
        prop_assert_eq!(&ops::equi_join(&left, &right, col("k"), col("k2")).unwrap(), &generic);
        let plan = JoinPlan::new(&left, &right, col("k"), col("k2")).unwrap();
        prop_assert_eq!(plan.materialize(plan.probe()).unwrap(), generic);
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
            let key = table.column(col("iter")).unwrap().clone();
            if two_columns {
                Table::new(vec![(col("iter"), key), (col("p"), payload)]).unwrap()
            } else {
                Table::new(vec![(col("iter"), key)]).unwrap()
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
            (col("iter"), key.gather(&rows)),
            (col("item"), Column::nats(other[..n].iter().map(|k| k % 3).collect())),
        ])
        .unwrap();
        let only_key = Table::new(vec![(col("iter"), key)]).unwrap();
        prop_assert_eq!(ops::distinct(&only_key).unwrap(), oracle_distinct_on(&only_key, &["iter"]));
        prop_assert_eq!(ops::distinct(&table).unwrap(), oracle_distinct_on(&table, &["iter", "item"]));
        for columns in [&["iter"][..], &["item"], &["item", "iter"]] {
            prop_assert_eq!(
                ops::setops::distinct_on(&table, &columns.iter().map(|c| col(c)).collect::<Vec<_>>()).unwrap(),
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
        let mut table = Table::new(vec![(col("iter"), key)]).unwrap();
        table
            .add_column(col("keep"), Column::bools(keep[..table.row_count()].to_vec()))
            .unwrap();
        let kept = if with_computed_column { vec!["iter", "c"] } else { vec!["iter"] };
        let columns: Vec<(ColId, ColId)> = kept.iter().map(|c| (col(c), col(c))).collect();
        let mut steps = Vec::new();
        if select_first {
            steps.push(FusedStep::SelectTrue { column: col("keep") });
        }
        steps.push(FusedStep::Attach { target: col("c"), value: &Value::Int(7) });
        steps.push(FusedStep::Project { columns: &columns });
        steps.push(FusedStep::Distinct);
        let fused = ops::run_pipeline(&table, &steps, &mut |_, _| unreachable!()).unwrap();
        let selected = if select_first { ops::select_true(&table, col("keep")).unwrap() } else { table };
        let attached = ops::map_const(&selected, col("c"), &Value::Int(7)).unwrap();
        let projected = ops::project(&attached, &columns).unwrap();
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
/// The attribute rows of document 1, and a row of a document the hook
/// does not know (its value is empty).
const ATTRS: [(u32, u32); 4] = [(1, 0), (1, 1), (1, 2), (9, 0)];

/// The values of document 1's attribute rows.
const ATTR_VALUES: [&str; 3] = ["2.5", "x", ""];

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
        // Both atomize through the store hook.
        Value::Node(_) | Value::Attr(_) => Class::Node,
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
        Value::Attr(AttrRef::new(1, 0)),
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
/// columns (any constant; nodes, attributes and strings), nodes and
/// attributes.
fn kernel_input(tape: &mut Tape<'_>, rows: usize) -> (Table, Vec<(String, Class)>) {
    let mut nats = Vec::new();
    let mut ints = Vec::new();
    let mut dbls = Vec::new();
    let mut strs = Vec::new();
    let mut items = Vec::new();
    let mut texts = Vec::new();
    let mut nodes = Vec::new();
    let mut attrs = Vec::new();
    for _ in 0..rows {
        nats.push(tape.next(4) as u64);
        ints.push(tape.next(7) as i64 - 3);
        dbls.push(tape.pick(&DOUBLES));
        strs.push(tape.pick(&STRINGS).to_string());
        items.push(tape.pick(&constants()));
        let (doc, pre) = tape.pick(&NODES);
        nodes.push(NodeRef::new(doc, pre));
        let (doc, row) = tape.pick(&ATTRS);
        attrs.push(AttrRef::new(doc, row));
        texts.push(match tape.next(4) {
            0 => Value::Str(tape.pick(&STRINGS).to_string()),
            1 => Value::Attr(*attrs.last().expect("just pushed")),
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
        ("a", Column::attrs(attrs), Class::Node),
    ];
    let schema = columns
        .iter()
        .map(|(n, _, c)| (n.to_string(), *c))
        .collect();
    let table = Table::new(columns.into_iter().map(|(n, c, _)| (col(n), c)).collect()).unwrap();
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
    Project(Vec<(ColId, ColId)>),
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
            Step::SelectTrue(column) => FusedStep::SelectTrue {
                column: col(column),
            },
            Step::SelectEq(column, value) => FusedStep::SelectEq {
                column: col(column),
                value,
            },
            Step::Attach(target, value) => FusedStep::Attach {
                target: col(target),
                value,
            },
            Step::MapUnary(target, op, source) => FusedStep::MapUnary {
                target: col(target),
                op: *op,
                source: col(source),
            },
            Step::MapBinary(target, left, op, right) => FusedStep::MapBinary {
                target: col(target),
                left: col(left),
                op: *op,
                right: col(right),
            },
            Step::MapAtomize(column) => FusedStep::MapAtomize {
                column: col(column),
            },
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
                let mut columns: Vec<(ColId, ColId)> = Vec::new();
                let mut projected = Vec::new();
                for p in 0..1 + tape.next(schema.len().min(4)) {
                    let (source, class) = tape.pick(&schema);
                    let clash = columns.iter().any(|&(_, t)| t == col(&source));
                    let name = if (clash && tape.next(8) > 0) || tape.next(3) == 0 {
                        format!("p{fresh}_{p}")
                    } else {
                        source.clone()
                    };
                    columns.push((col(&source), col(&name)));
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
    atomize: &mut dyn FnMut(Cell<'_>, &mut String),
) -> RelResult<Table> {
    let mut table = input.clone();
    let mut computed: HashSet<ColId> = HashSet::new();
    for &step in steps {
        table = match step {
            FusedStep::Project { columns } => {
                computed = columns
                    .iter()
                    .filter(|(s, _)| computed.contains(s))
                    .map(|&(_, t)| t)
                    .collect();
                ops::project(&table, columns)?
            }
            FusedStep::SelectTrue { column } => ops::select_true(&table, column)?,
            FusedStep::SelectEq { column, value } => ops::select_eq(&table, column, value)?,
            FusedStep::Attach { target, value } => {
                computed.insert(target);
                ops::map_const(&table, target, value)?
            }
            FusedStep::MapUnary { target, op, source } => {
                computed.insert(target);
                ops::map_unary(&table, target, op, source, atomize)?
            }
            FusedStep::MapBinary {
                target,
                left,
                op,
                right,
            } => {
                computed.insert(target);
                ops::map_binary(&table, target, left, op, right, atomize)?
            }
            FusedStep::MapAtomize { column } => {
                computed.insert(column);
                ops::map_data(&table, column, atomize)?
            }
            FusedStep::Distinct => ops::distinct(&table)?,
        };
    }
    let columns = table
        .columns()
        .iter()
        .map(|&(id, ref c)| match computed.contains(&id) {
            true => (id, Column::from_values(c.iter_values().collect())),
            false => (id, c.clone()),
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
    a.column_ids() == b.column_ids()
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
        let mut fragment = FragmentBuilder::new("attributes");
        let name = fragment.tag("n");
        for value in ATTR_VALUES {
            fragment.attribute(name, value);
        }
        let attributes = fragment.finish();
        let mut atomize = |item: Cell<'_>, out: &mut String| match item {
            Cell::Node(node) if node.doc == 0 => store.push_string_value(node.pre, out),
            Cell::Attr(attr) if attr.doc == 1 => {
                out.push_str(attributes.attr_value_of(attr.row as usize))
            }
            Cell::Node(_) | Cell::Attr(_) => {}
            atomic => panic!("atomic {atomic} handed to the store hook"),
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
    }
}

/// A chain that only renames hands the input buffers through: the kernel
/// and the executor keep it zero-copy (a column and its renamed copy share
/// one buffer).
#[test]
fn projection_pipelines_stay_zero_copy() {
    use pathfinder::algebra::{AlgOp, PlanBuilder};

    let input = Table::new(vec![
        (col("iter"), Column::nats((0..64).collect())),
        (
            col("item"),
            Column::strs((0..64).map(|i| i.to_string()).collect()),
        ),
    ])
    .unwrap();
    let rename = FusedStep::Project {
        columns: &[(col("iter"), col("a")), (col("item"), col("b"))],
    };
    let out = ops::run_pipeline(&input, &[rename], &mut |_, _| unreachable!()).unwrap();
    assert!(out
        .column(col("a"))
        .unwrap()
        .shares_data(input.column(col("iter")).unwrap()));
    assert!(out
        .column(col("b"))
        .unwrap()
        .shares_data(input.column(col("item")).unwrap()));

    let mut b = PlanBuilder::new();
    let (iter, item, a, bb) = (b.col("iter"), b.col("item"), b.col("a"), b.col("b"));
    let lit = b.add(AlgOp::Lit {
        columns: vec![iter, item],
        rows: (0..64u64)
            .map(|i| vec![Value::Nat(i).into(), Value::Str(i.to_string()).into()])
            .collect(),
    });
    let renamed = b.add(AlgOp::Project {
        input: lit,
        columns: vec![(iter, iter), (item, item), (iter, a), (item, bb)],
    });
    let plan = b.finish(renamed);
    let registry = DocRegistry::new();
    let physical = pathfinder::algebra::PhysicalPlan::compile(&plan);
    let run = Executor::new(&registry).run(&plan, &physical).unwrap();
    let (table, stats) = (run.table, run.stats);
    assert_eq!(table.row_count(), 64);
    assert_eq!(
        stats.cells_produced,
        6 * 64,
        "a table of two and one of four columns"
    );
    let column = |c| table.column(c).unwrap();
    assert!(column(a).shares_data(column(iter)), "one copy of `iter`");
    assert!(column(bb).shares_data(column(item)), "one copy of `item`");
}
