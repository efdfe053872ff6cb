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
//! [`JoinPlan`]: pathfinder::relational::ops::JoinPlan
//! [`AggPlan`]: pathfinder::relational::ops::AggPlan

use std::collections::HashSet;

use proptest::prelude::*;

use pathfinder::relational::ops::{self, AggFunc, AggPlan, FusedStep, HashKey, JoinPlan};
use pathfinder::relational::{Column, Table, Value};

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
        let mut steps = Vec::new();
        if select_first {
            steps.push(FusedStep::SelectTrue { column: "keep".into() });
        }
        steps.push(FusedStep::Attach { target: "c".into(), value: Value::Int(7) });
        steps.push(FusedStep::Project {
            columns: kept.iter().map(|c| (c.to_string(), c.to_string())).collect(),
        });
        steps.push(FusedStep::Distinct);
        let fused = ops::run_pipeline(&table, &steps, &mut |v: &Value| v.clone()).unwrap();
        let selected = if select_first { ops::select_true(&table, "keep").unwrap() } else { table };
        let attached = ops::map_const(&selected, "c", &Value::Int(7)).unwrap();
        let pairs: Vec<(&str, &str)> = kept.iter().map(|c| (*c, *c)).collect();
        let projected = ops::project(&attached, &pairs).unwrap();
        prop_assert_eq!(&fused, &ops::distinct(&projected).unwrap());
        prop_assert_eq!(fused, oracle_distinct_on(&projected, &kept));
    }
}
