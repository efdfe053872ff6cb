//! Grouped aggregation (`fn:count`, `fn:sum`, `fn:max`, `fn:min`, `fn:avg`).
//!
//! The loop-lifted encoding makes aggregation a grouping over the `iter`
//! column: `fn:count($s)` in iteration scope `s_i` is simply "count the rows
//! of the relation encoding `$s`, grouped by `iter`".
//!
//! [`AggPlan`] is the columnar kernel behind [`aggregate_by`]: group keys
//! come from a borrowed [`KeyView`] (no `Value` boxed per row) and the
//! accumulators are native (`i64`/`f64` running sums, row-index min/max) —
//! [`aggregate_by_generic`] keeps the old value-at-a-time loop as the
//! differential-testing reference.  When the group column is an ascending
//! `Nat`/`Int` column — which `iter`-grouped loop-lifted tables always
//! are — groups are exactly the runs of equal values, and [`AggPlan::run`]
//! skips the hash table entirely.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::hash::FxHasher;
use crate::ops::keys::{Key, KeyView};
use crate::ops::HashKey;
use crate::table::{ColId, Table};
use crate::value::{compare_f64, parse_double, ArithOp, Value};

/// Aggregation functions supported by the dialect of Table 2
/// (`fn:count`, `fn:sum`) plus the obvious companions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `fn:count`
    Count,
    /// `fn:sum`
    Sum,
    /// `fn:max`
    Max,
    /// `fn:min`
    Min,
    /// `fn:avg`
    Avg,
    /// `fn:zero-or-one`: the group's one value; a group of more raises
    /// XPTY0004 (what an `order by` key of several items raises).
    ZeroOrOne,
}

/// The error a [`AggFunc::ZeroOrOne`] group of more than one value raises.
const MORE_THAN_ONE: &str =
    "XPTY0004: a sequence of more than one item where at most one is allowed";

impl AggFunc {
    /// The XQuery function name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
            AggFunc::Avg => "avg",
            AggFunc::ZeroOrOne => "zero-or-one",
        }
    }
}

/// The running sum of one group: native `i64` until a double enters, then
/// `f64` — exactly the promotion `Value::arithmetic` applies when folding
/// `Int(0) + v₁ + v₂ + …` one row at a time.
#[derive(Debug, Clone, Copy)]
enum NumAcc {
    Int(i64),
    Dbl(f64),
}

impl NumAcc {
    fn add_i64(&mut self, v: i64) -> RelResult<()> {
        match self {
            NumAcc::Int(a) => {
                *a = a
                    .checked_add(v)
                    .ok_or_else(|| RelError::new("integer overflow in arithmetic"))?;
            }
            NumAcc::Dbl(a) => *a += v as f64,
        }
        Ok(())
    }

    fn add_f64(&mut self, v: f64) {
        match self {
            NumAcc::Int(a) => *self = NumAcc::Dbl(*a as f64 + v),
            NumAcc::Dbl(a) => *a += v,
        }
    }
}

/// One group's accumulated state.
#[derive(Debug, Clone)]
struct GroupState<'t> {
    key: Key<'t>,
    /// First input row of the group (its representative for the output).
    first_row: usize,
    count: u64,
    sum: NumAcc,
    /// Row holding the current min/max winner (keep-first on ties).
    best: Option<usize>,
}

impl<'t> GroupState<'t> {
    fn new(key: Key<'t>, first_row: usize) -> GroupState<'t> {
        GroupState {
            key,
            first_row,
            count: 0,
            sum: NumAcc::Int(0),
            best: None,
        }
    }
}

/// A prepared grouped aggregation over one input table: typed group keys,
/// native accumulators and a segmented fast path (see the module docs).
pub struct AggPlan<'t> {
    group_col: ColId,
    target: ColId,
    func: AggFunc,
    gcol: &'t Column,
    gkeys: KeyView<'t>,
    vcol: Option<&'t Column>,
}

impl<'t> AggPlan<'t> {
    /// Resolve the columns and borrow the typed key view.
    pub fn new(
        input: &'t Table,
        group_col: ColId,
        target: ColId,
        func: AggFunc,
        value_col: ColId,
    ) -> RelResult<AggPlan<'t>> {
        let gcol = input.column(group_col)?;
        let vcol = if func == AggFunc::Count {
            None
        } else {
            Some(input.column(value_col)?)
        };
        Ok(AggPlan {
            group_col,
            target,
            func,
            gcol,
            gkeys: KeyView::of(gcol),
            vcol,
        })
    }

    /// `true` when the group column is an ascending `Nat`/`Int` column, so
    /// groups are exactly the runs of equal values and [`AggPlan::run`] can
    /// skip the hash table.
    pub fn segmented(&self) -> bool {
        match self.gkeys {
            KeyView::Nat(v) => v.windows(2).all(|w| w[0] <= w[1]),
            KeyView::Int(v) => v.windows(2).all(|w| w[0] <= w[1]),
            _ => false,
        }
    }

    /// Aggregate the whole input — via the segmented run-length scan when
    /// the group column is sorted, the hash table otherwise.  Groups come
    /// out in first-appearance order either way.
    pub fn run(&self) -> RelResult<Table> {
        let mut groups: Vec<GroupState<'t>> = Vec::new();
        if self.segmented() {
            for row in 0..self.gkeys.len() {
                let key = self.gkeys.key(row);
                match groups.last_mut() {
                    Some(last) if last.key == key => {}
                    _ => groups.push(GroupState::new(key, row)),
                }
                let last = groups.last_mut().expect("pushed above");
                self.accumulate(last, row)?;
            }
        } else if let KeyView::Text(texts) = self.gkeys {
            let syms = texts.syms();
            self.hashed::<_, BuildHasherDefault<FxHasher>>(&mut groups, |row| syms[row])?;
        } else {
            self.hashed::<_, RandomState>(&mut groups, |row| self.gkeys.key(row))?;
        }
        self.finish_states(&groups)
    }

    /// The hash-table path of [`AggPlan::run`]: group the rows by
    /// `key(row)`, the surrogate of a `Text` group column or the borrowed
    /// [`Key`] of any other.
    fn hashed<K: Hash + Eq, S: BuildHasher + Default>(
        &self,
        groups: &mut Vec<GroupState<'t>>,
        key: impl Fn(usize) -> K,
    ) -> RelResult<()> {
        let mut index: HashMap<K, usize, S> = HashMap::default();
        for row in 0..self.gkeys.len() {
            let idx = *index.entry(key(row)).or_insert_with(|| {
                groups.push(GroupState::new(self.gkeys.local_key(row), row));
                groups.len() - 1
            });
            self.accumulate(&mut groups[idx], row)?;
        }
        Ok(())
    }

    /// Fold row `row` into `group` (count always; sum or min/max winner
    /// depending on the function).
    fn accumulate(&self, group: &mut GroupState<'t>, row: usize) -> RelResult<()> {
        group.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::ZeroOrOne if group.count > 1 => return Err(RelError::new(MORE_THAN_ONE)),
            AggFunc::ZeroOrOne => group.best = Some(row),
            AggFunc::Sum | AggFunc::Avg => self.add_row(&mut group.sum, row)?,
            AggFunc::Min | AggFunc::Max => {
                let replace = match group.best {
                    None => true,
                    Some(best) => {
                        let want = if self.func == AggFunc::Min {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        };
                        self.cmp_rows(row, best)? == want
                    }
                };
                if replace {
                    group.best = Some(row);
                }
            }
        }
        Ok(())
    }

    /// Add the value at `row` into the running sum, replicating
    /// `Value::arithmetic(Add)` over `coerce_numeric`-ed values without
    /// materializing either.
    fn add_row(&self, sum: &mut NumAcc, row: usize) -> RelResult<()> {
        let vcol = self.vcol.expect("sum/avg have a value column");
        match vcol {
            Column::Int(v) => sum.add_i64(v[row]),
            // `Value::arithmetic` funnels Nat through `as i64` (wrapping).
            Column::Nat(v) => sum.add_i64(v[row] as i64),
            Column::Dbl(v) => {
                sum.add_f64(v[row]);
                Ok(())
            }
            Column::Str(v) => self.add_str(sum, &v[row]),
            Column::Text(t) => self.add_str(sum, t.spell(row)),
            Column::Item(v) => match &v[row] {
                Value::Int(i) => sum.add_i64(*i),
                Value::Nat(n) => sum.add_i64(*n as i64),
                Value::Dbl(d) => {
                    sum.add_f64(*d);
                    Ok(())
                }
                Value::Str(s) => self.add_str(sum, s),
                other => Err(RelError::new(format!("cannot aggregate value {other}"))),
            },
            Column::Bool(_) | Column::Node(_) | Column::Attr(_) => {
                let other = vcol.get(row);
                Err(RelError::new(format!("cannot aggregate value {other}")))
            }
        }
    }

    /// The `fn:sum` coercion for untyped content: integer if it parses as
    /// one, double otherwise (mirrors `coerce_numeric`).
    fn add_str(&self, sum: &mut NumAcc, s: &str) -> RelResult<()> {
        if let Ok(i) = s.trim().parse::<i64>() {
            sum.add_i64(i)
        } else {
            match parse_double(s) {
                Some(d) => {
                    sum.add_f64(d);
                    Ok(())
                }
                None => Err(RelError::new(format!("cannot sum non-numeric value `{s}`"))),
            }
        }
    }

    /// Compare the values at two rows of the value column, replicating
    /// `Value::compare` per column type (numeric columns compare through
    /// `f64`, strings byte-wise, item columns via the full dynamic rules).
    fn cmp_rows(&self, a: usize, b: usize) -> RelResult<Ordering> {
        let vcol = self.vcol.expect("min/max have a value column");
        match vcol {
            Column::Nat(v) => compare_f64(v[a] as f64, v[b] as f64),
            Column::Int(v) => compare_f64(v[a] as f64, v[b] as f64),
            Column::Dbl(v) => compare_f64(v[a], v[b]),
            Column::Str(v) => Ok(v[a].cmp(&v[b])),
            Column::Text(t) => Ok(t.spell(a).cmp(t.spell(b))),
            Column::Bool(v) => Ok(v[a].cmp(&v[b])),
            Column::Node(v) => Ok(v[a].cmp(&v[b])),
            Column::Attr(_) => vcol.get(a).compare(&vcol.get(b)),
            Column::Item(v) => v[a].compare(&v[b]),
        }
    }

    /// Build the two-column output from accumulated group states.
    fn finish_states(&self, groups: &[GroupState<'t>]) -> RelResult<Table> {
        let mut out_groups = Vec::with_capacity(groups.len());
        let mut out_values = Vec::with_capacity(groups.len());
        for group in groups {
            out_groups.push(self.gcol.get(group.first_row));
            let value = match self.func {
                AggFunc::Count => Value::Int(group.count as i64),
                AggFunc::Sum => match group.sum {
                    NumAcc::Int(a) => Value::Int(a),
                    NumAcc::Dbl(a) => Value::Dbl(a),
                },
                // `Value::arithmetic(Div)` always takes the f64 path.
                AggFunc::Avg => match group.sum {
                    NumAcc::Int(a) => Value::Dbl(a as f64 / group.count as f64),
                    NumAcc::Dbl(a) => Value::Dbl(a / group.count as f64),
                },
                AggFunc::Min => {
                    let best = group
                        .best
                        .ok_or_else(|| RelError::new("min over an empty group"))?;
                    self.vcol.expect("min has a value column").get(best)
                }
                AggFunc::Max => {
                    let best = group
                        .best
                        .ok_or_else(|| RelError::new("max over an empty group"))?;
                    self.vcol.expect("max has a value column").get(best)
                }
                AggFunc::ZeroOrOne => {
                    let row = group.best.expect("a group holds a row");
                    self.vcol.expect("zero-or-one has a value column").get(row)
                }
            };
            out_values.push(value);
        }
        Table::new(vec![
            (self.group_col, Column::from_values(out_groups)),
            (self.target, Column::from_values(out_values)),
        ])
    }
}

/// Aggregate `value_col` of `input` grouped by `group_col`.
///
/// The output has two columns, `group_col` and `target`, one row per group,
/// ordered by first appearance of the group in the input (which for
/// `iter`-grouped loop-lifted tables is ascending `iter` order).  Empty
/// groups do not appear — the compiler adds them back via the `loop` /
/// difference construction exactly as the loop-lifting scheme prescribes.
pub fn aggregate_by(
    input: &Table,
    group_col: ColId,
    target: ColId,
    func: AggFunc,
    value_col: ColId,
) -> RelResult<Table> {
    AggPlan::new(input, group_col, target, func, value_col)?.run()
}

/// The pre-typed-kernel aggregation: [`HashKey`] grouping with a boxed
/// [`Value`] per input row and `Value::arithmetic`/`Value::compare`
/// accumulators.
///
/// Kept as the differential-testing reference for [`aggregate_by`] (the
/// property suite asserts both agree on arbitrary tables).
pub fn aggregate_by_generic(
    input: &Table,
    group_col: ColId,
    target: ColId,
    func: AggFunc,
    value_col: ColId,
) -> RelResult<Table> {
    let gcol = input.column(group_col)?;
    let vcol = if func == AggFunc::Count {
        None
    } else {
        Some(input.column(value_col)?)
    };

    let mut group_order: Vec<Value> = Vec::new();
    let mut groups: HashMap<HashKey, usize> = HashMap::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut sums: Vec<Value> = Vec::new();
    let mut mins: Vec<Option<Value>> = Vec::new();
    let mut maxs: Vec<Option<Value>> = Vec::new();

    for row in 0..input.row_count() {
        let gval = gcol.get(row);
        let key = HashKey::of(&gval);
        let idx = *groups.entry(key).or_insert_with(|| {
            group_order.push(gval.clone());
            counts.push(0);
            sums.push(Value::Int(0));
            mins.push(None);
            maxs.push(None);
            group_order.len() - 1
        });
        counts[idx] += 1;
        if let Some(vcol) = vcol {
            let v = vcol.get(row);
            match func {
                AggFunc::Sum | AggFunc::Avg => {
                    let coerced = coerce_numeric(&v)?;
                    sums[idx] = sums[idx].arithmetic(ArithOp::Add, &coerced)?;
                }
                AggFunc::Min => {
                    let replace = match &mins[idx] {
                        None => true,
                        Some(current) => v.compare(current)? == Ordering::Less,
                    };
                    if replace {
                        mins[idx] = Some(v);
                    }
                }
                AggFunc::Max => {
                    let replace = match &maxs[idx] {
                        None => true,
                        Some(current) => v.compare(current)? == Ordering::Greater,
                    };
                    if replace {
                        maxs[idx] = Some(v);
                    }
                }
                AggFunc::ZeroOrOne if counts[idx] > 1 => {
                    return Err(RelError::new(MORE_THAN_ONE));
                }
                AggFunc::ZeroOrOne => mins[idx] = Some(v),
                AggFunc::Count => {}
            }
        }
    }

    let mut out_groups = Vec::with_capacity(group_order.len());
    let mut out_values = Vec::with_capacity(group_order.len());
    for (idx, gval) in group_order.iter().enumerate() {
        out_groups.push(gval.clone());
        let value = match func {
            AggFunc::Count => Value::Int(counts[idx] as i64),
            AggFunc::Sum => sums[idx].clone(),
            AggFunc::Avg => sums[idx].arithmetic(ArithOp::Div, &Value::Int(counts[idx] as i64))?,
            AggFunc::Min => mins[idx]
                .clone()
                .ok_or_else(|| RelError::new("min over an empty group"))?,
            AggFunc::Max => maxs[idx]
                .clone()
                .ok_or_else(|| RelError::new("max over an empty group"))?,
            AggFunc::ZeroOrOne => mins[idx].clone().expect("a group holds a row"),
        };
        out_values.push(value);
    }

    Table::new(vec![
        (group_col, Column::from_values(out_groups)),
        (target, Column::from_values(out_values)),
    ])
}

/// Numeric coercion applied by `fn:sum`/`fn:avg` to untyped content.
fn coerce_numeric(v: &Value) -> RelResult<Value> {
    match v {
        Value::Int(_) | Value::Dbl(_) | Value::Nat(_) => Ok(v.clone()),
        Value::Str(s) => {
            if let Ok(i) = s.trim().parse::<i64>() {
                Ok(Value::Int(i))
            } else {
                parse_double(s)
                    .map(Value::Dbl)
                    .ok_or_else(|| RelError::new(format!("cannot sum non-numeric value `{s}`")))
            }
        }
        other => Err(RelError::new(format!("cannot aggregate value {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::col;

    fn table() -> Table {
        Table::new(vec![
            (col("iter"), Column::nats(vec![1, 1, 2, 2, 2])),
            (col("item"), Column::ints(vec![10, 20, 5, 7, 9])),
        ])
        .unwrap()
    }

    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Max,
        AggFunc::Min,
        AggFunc::Avg,
    ];

    #[test]
    fn count_per_group() {
        let t = aggregate_by(
            &table(),
            col("iter"),
            col("cnt"),
            AggFunc::Count,
            col("item"),
        )
        .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(col("cnt"), 0).unwrap(), Value::Int(2));
        assert_eq!(t.value(col("cnt"), 1).unwrap(), Value::Int(3));
    }

    #[test]
    fn sum_and_avg_per_group() {
        let t = aggregate_by(&table(), col("iter"), col("s"), AggFunc::Sum, col("item")).unwrap();
        assert_eq!(t.value(col("s"), 0).unwrap(), Value::Int(30));
        assert_eq!(t.value(col("s"), 1).unwrap(), Value::Int(21));
        let t = aggregate_by(&table(), col("iter"), col("a"), AggFunc::Avg, col("item")).unwrap();
        assert_eq!(t.value(col("a"), 0).unwrap(), Value::Dbl(15.0));
        assert_eq!(t.value(col("a"), 1).unwrap(), Value::Dbl(7.0));
    }

    #[test]
    fn zero_or_one_keeps_the_one_value_and_rejects_more() {
        let singles = Table::new(vec![
            (col("iter"), Column::nats(vec![1, 3, 4])),
            (
                col("item"),
                Column::strs(vec!["b".into(), "a".into(), "c".into()]),
            ),
        ])
        .unwrap();
        for run in [aggregate_by, aggregate_by_generic] {
            let t = run(
                &singles,
                col("iter"),
                col("k"),
                AggFunc::ZeroOrOne,
                col("item"),
            )
            .unwrap();
            assert_eq!(t.value(col("k"), 1).unwrap(), Value::Str("a".into()));
            let err = run(
                &table(),
                col("iter"),
                col("k"),
                AggFunc::ZeroOrOne,
                col("item"),
            )
            .unwrap_err();
            assert!(err.to_string().contains("XPTY0004"), "{err}");
        }
    }

    #[test]
    fn min_and_max_per_group() {
        let t = aggregate_by(&table(), col("iter"), col("m"), AggFunc::Min, col("item")).unwrap();
        assert_eq!(t.value(col("m"), 1).unwrap(), Value::Int(5));
        let t = aggregate_by(&table(), col("iter"), col("m"), AggFunc::Max, col("item")).unwrap();
        assert_eq!(t.value(col("m"), 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn sum_coerces_untyped_strings() {
        let t = Table::new(vec![
            (col("iter"), Column::nats(vec![1, 1])),
            (
                col("item"),
                Column::from_values(vec![Value::Str("10".into()), Value::Str("2.5".into())]),
            ),
        ])
        .unwrap();
        let r = aggregate_by(&t, col("iter"), col("s"), AggFunc::Sum, col("item")).unwrap();
        assert_eq!(r.value(col("s"), 0).unwrap(), Value::Dbl(12.5));
    }

    #[test]
    fn aggregation_of_non_numeric_fails() {
        let t = Table::new(vec![
            (col("iter"), Column::nats(vec![1])),
            (
                col("item"),
                Column::from_values(vec![Value::Str("abc".into())]),
            ),
        ])
        .unwrap();
        assert!(aggregate_by(&t, col("iter"), col("s"), AggFunc::Sum, col("item")).is_err());
    }

    #[test]
    fn group_order_is_first_appearance() {
        let t = Table::new(vec![
            (col("iter"), Column::nats(vec![5, 3, 5])),
            (col("item"), Column::ints(vec![1, 1, 1])),
        ])
        .unwrap();
        let r = aggregate_by(&t, col("iter"), col("c"), AggFunc::Count, col("item")).unwrap();
        assert_eq!(r.value(col("iter"), 0).unwrap(), Value::Nat(5));
        assert_eq!(r.value(col("iter"), 1).unwrap(), Value::Nat(3));
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let t = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        let r = aggregate_by(&t, col("iter"), col("c"), AggFunc::Count, col("item")).unwrap();
        assert_eq!(r.row_count(), 0);
    }

    /// Typed kernels agree with the value-at-a-time reference for every
    /// function on a table that exercises both the segmented (sorted) and
    /// the hashed (shuffled) paths.
    #[test]
    fn typed_kernels_match_generic() {
        let sorted = table();
        let shuffled = Table::new(vec![
            (col("iter"), Column::nats(vec![2, 1, 2, 1, 2])),
            (col("item"), Column::ints(vec![5, 10, 7, 20, 9])),
        ])
        .unwrap();
        for input in [&sorted, &shuffled] {
            for func in FUNCS {
                let fast = aggregate_by(input, col("iter"), col("v"), func, col("item")).unwrap();
                let slow =
                    aggregate_by_generic(input, col("iter"), col("v"), func, col("item")).unwrap();
                assert_eq!(fast, slow, "{}", func.name());
            }
        }
    }

    /// The segmented fast path triggers exactly on ascending Nat/Int group
    /// columns.
    #[test]
    fn segmented_detection() {
        let sorted = table();
        let plan =
            AggPlan::new(&sorted, col("iter"), col("c"), AggFunc::Count, col("item")).unwrap();
        assert!(plan.segmented());
        let unsorted = Table::new(vec![
            (col("iter"), Column::nats(vec![2, 1])),
            (col("item"), Column::ints(vec![1, 2])),
        ])
        .unwrap();
        let plan = AggPlan::new(
            &unsorted,
            col("iter"),
            col("c"),
            AggFunc::Count,
            col("item"),
        )
        .unwrap();
        assert!(!plan.segmented());
        let strs = Table::new(vec![
            (col("g"), Column::strs(vec!["a".into(), "b".into()])),
            (col("item"), Column::ints(vec![1, 2])),
        ])
        .unwrap();
        let plan = AggPlan::new(&strs, col("g"), col("c"), AggFunc::Count, col("item")).unwrap();
        assert!(!plan.segmented());
    }

    /// Min/max keep the first appearance on ties (f64 equality can hold
    /// across distinct rows) — same winner as the generic loop.
    #[test]
    fn min_keeps_first_on_ties() {
        let t = Table::new(vec![
            (col("iter"), Column::nats(vec![1, 1, 1])),
            (
                col("item"),
                Column::items(vec![Value::Int(2), Value::Dbl(2.0), Value::Int(2)]),
            ),
        ])
        .unwrap();
        let fast = aggregate_by(&t, col("iter"), col("m"), AggFunc::Min, col("item")).unwrap();
        let slow =
            aggregate_by_generic(&t, col("iter"), col("m"), AggFunc::Min, col("item")).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.value(col("m"), 0).unwrap(), Value::Int(2));
    }

    /// Integer sums stay integers and overflow with the arithmetic error;
    /// a double anywhere in the group promotes the running sum.
    #[test]
    fn sum_promotion_and_overflow_match_generic() {
        let promo = Table::new(vec![
            (col("iter"), Column::nats(vec![1, 1, 1])),
            (
                col("item"),
                Column::items(vec![Value::Int(1), Value::Dbl(0.5), Value::Int(2)]),
            ),
        ])
        .unwrap();
        let fast = aggregate_by(&promo, col("iter"), col("s"), AggFunc::Sum, col("item")).unwrap();
        assert_eq!(fast.value(col("s"), 0).unwrap(), Value::Dbl(3.5));
        assert_eq!(
            fast,
            aggregate_by_generic(&promo, col("iter"), col("s"), AggFunc::Sum, col("item")).unwrap()
        );
        let overflow = Table::new(vec![
            (col("iter"), Column::nats(vec![1, 1])),
            (col("item"), Column::ints(vec![i64::MAX, 1])),
        ])
        .unwrap();
        let fast = aggregate_by(&overflow, col("iter"), col("s"), AggFunc::Sum, col("item"));
        let slow =
            aggregate_by_generic(&overflow, col("iter"), col("s"), AggFunc::Sum, col("item"));
        assert!(fast.is_err());
        assert_eq!(fast.unwrap_err().to_string(), slow.unwrap_err().to_string());
    }
}
