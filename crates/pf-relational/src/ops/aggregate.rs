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
//! differential-testing reference.  Two forms of data parallelism:
//!
//! * **Pre-aggregation**: [`AggPlan::partial`] aggregates any row range into
//!   an [`AggPartial`]; [`AggPlan::merge`] folds partials *in chunk order*
//!   with a deterministic first-appearance group order.  Only the functions
//!   for which chunked evaluation is bit-identical to the sequential loop
//!   advertise it ([`AggPlan::chunk_parallel_safe`]): `count` always, and
//!   `min`/`max` on typed (non-`Item`) columns, where keep-first-on-ties
//!   merging over ordered chunks reproduces the sequential winner exactly.
//!   `sum`/`avg` never do — f64 addition is not associative, and the
//!   checked `i64` overflow can fire on a sub-range where the sequential
//!   prefix sum succeeds.
//! * **Segmented fast path**: when the group column is an ascending
//!   `Nat`/`Int` column — which `iter`-grouped loop-lifted tables always
//!   are — groups are exactly the runs of equal values, and [`AggPlan::run`]
//!   skips the hash table entirely.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::ops::keys::{Key, KeyView};
use crate::ops::HashKey;
use crate::table::Table;
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
}

impl AggFunc {
    /// The XQuery function name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
            AggFunc::Avg => "avg",
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

/// One group's accumulated state within an [`AggPartial`].
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

/// The aggregate of one row range: groups in first-appearance order with
/// native accumulators, ready to be merged chunk-by-chunk.
pub struct AggPartial<'t> {
    index: HashMap<Key<'t>, usize>,
    groups: Vec<GroupState<'t>>,
}

/// A prepared grouped aggregation over one input table: typed group keys,
/// native accumulators, chunked pre-aggregation and a segmented fast path
/// (see the module docs).
pub struct AggPlan<'t> {
    group_col: String,
    target: String,
    func: AggFunc,
    gcol: &'t Column,
    gkeys: KeyView<'t>,
    vcol: Option<&'t Column>,
    rows: usize,
}

impl<'t> AggPlan<'t> {
    /// Resolve the columns and borrow the typed key view.
    pub fn new(
        input: &'t Table,
        group_col: &str,
        target: &str,
        func: AggFunc,
        value_col: &str,
    ) -> RelResult<AggPlan<'t>> {
        let gcol = input.column(group_col)?;
        let vcol = if func == AggFunc::Count {
            None
        } else {
            Some(input.column(value_col)?)
        };
        Ok(AggPlan {
            group_col: group_col.to_string(),
            target: target.to_string(),
            func,
            gcol,
            gkeys: KeyView::of(gcol),
            vcol,
            rows: input.row_count(),
        })
    }

    /// Number of input rows.
    pub fn input_rows(&self) -> usize {
        self.rows
    }

    /// `true` when splitting the input into contiguous chunks, aggregating
    /// each with [`AggPlan::partial`] and folding with [`AggPlan::merge`]
    /// is **bit-identical** to the sequential loop — the executor only
    /// parallelizes when this holds (see the module docs for why `sum` and
    /// `avg` never qualify).
    pub fn chunk_parallel_safe(&self) -> bool {
        match self.func {
            AggFunc::Count => true,
            AggFunc::Min | AggFunc::Max => !matches!(self.vcol, Some(Column::Item(_))),
            AggFunc::Sum | AggFunc::Avg => false,
        }
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

    /// Aggregate the rows of `range` into a fresh partial.  Contiguous
    /// ranges folded in order with [`AggPlan::merge`] reproduce
    /// [`AggPlan::run`] whenever [`AggPlan::chunk_parallel_safe`] holds.
    pub fn partial(&self, range: Range<usize>) -> RelResult<AggPartial<'t>> {
        let mut partial = AggPartial {
            index: HashMap::new(),
            groups: Vec::new(),
        };
        for row in range {
            let key = self.gkeys.key(row);
            let idx = *partial.index.entry(key).or_insert_with(|| {
                partial.groups.push(GroupState::new(key, row));
                partial.groups.len() - 1
            });
            self.accumulate(&mut partial.groups[idx], row)?;
        }
        Ok(partial)
    }

    /// Fold chunk partials **in chunk order** into one: group order is
    /// first appearance across the ordered chunks, counts add, min/max
    /// winners keep the earlier chunk on ties.
    pub fn merge(&self, partials: Vec<AggPartial<'t>>) -> RelResult<AggPartial<'t>> {
        let mut iter = partials.into_iter();
        let mut merged = iter.next().unwrap_or(AggPartial {
            index: HashMap::new(),
            groups: Vec::new(),
        });
        for partial in iter {
            for group in partial.groups {
                match merged.index.get(&group.key) {
                    Some(&idx) => {
                        let into = &mut merged.groups[idx];
                        into.count += group.count;
                        match group.sum {
                            NumAcc::Int(v) => into.sum.add_i64(v)?,
                            NumAcc::Dbl(v) => into.sum.add_f64(v),
                        }
                        if let Some(candidate) = group.best {
                            let replace = match into.best {
                                None => true,
                                Some(best) => {
                                    let want = if self.func == AggFunc::Min {
                                        Ordering::Less
                                    } else {
                                        Ordering::Greater
                                    };
                                    self.cmp_rows(candidate, best)? == want
                                }
                            };
                            if replace {
                                into.best = Some(candidate);
                            }
                        }
                    }
                    None => {
                        let idx = merged.groups.len();
                        merged.index.insert(group.key, idx);
                        merged.groups.push(group);
                    }
                }
            }
        }
        Ok(merged)
    }

    /// Materialize the output table from a (merged) partial.
    pub fn finish(&self, partial: AggPartial<'t>) -> RelResult<Table> {
        self.finish_states(&partial.groups)
    }

    /// Aggregate the whole input sequentially — via the segmented
    /// run-length scan when the group column is sorted, the hash table
    /// otherwise.
    pub fn run(&self) -> RelResult<Table> {
        if self.segmented() {
            let mut groups: Vec<GroupState<'t>> = Vec::new();
            for row in 0..self.rows {
                let key = self.gkeys.key(row);
                match groups.last_mut() {
                    Some(last) if last.key == key => {}
                    _ => groups.push(GroupState::new(key, row)),
                }
                let last = groups.last_mut().expect("pushed above");
                self.accumulate(last, row)?;
            }
            self.finish_states(&groups)
        } else {
            self.finish(self.partial(0..self.rows)?)
        }
    }

    /// Fold row `row` into `group` (count always; sum or min/max winner
    /// depending on the function).
    fn accumulate(&self, group: &mut GroupState<'t>, row: usize) -> RelResult<()> {
        group.count += 1;
        match self.func {
            AggFunc::Count => {}
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
            Column::Bool(_) | Column::Node(_) => {
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
            Column::Bool(v) => Ok(v[a].cmp(&v[b])),
            Column::Node(v) => Ok(v[a].cmp(&v[b])),
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
            };
            out_values.push(value);
        }
        Table::new(vec![
            (self.group_col.clone(), Column::from_values(out_groups)),
            (self.target.clone(), Column::from_values(out_values)),
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
    group_col: &str,
    target: &str,
    func: AggFunc,
    value_col: &str,
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
    group_col: &str,
    target: &str,
    func: AggFunc,
    value_col: &str,
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
        };
        out_values.push(value);
    }

    Table::new(vec![
        (group_col.to_string(), Column::from_values(out_groups)),
        (target.to_string(), Column::from_values(out_values)),
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

    fn table() -> Table {
        Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1, 2, 2, 2])),
            ("item".into(), Column::ints(vec![10, 20, 5, 7, 9])),
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
        let t = aggregate_by(&table(), "iter", "cnt", AggFunc::Count, "item").unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value("cnt", 0).unwrap(), Value::Int(2));
        assert_eq!(t.value("cnt", 1).unwrap(), Value::Int(3));
    }

    #[test]
    fn sum_and_avg_per_group() {
        let t = aggregate_by(&table(), "iter", "s", AggFunc::Sum, "item").unwrap();
        assert_eq!(t.value("s", 0).unwrap(), Value::Int(30));
        assert_eq!(t.value("s", 1).unwrap(), Value::Int(21));
        let t = aggregate_by(&table(), "iter", "a", AggFunc::Avg, "item").unwrap();
        assert_eq!(t.value("a", 0).unwrap(), Value::Dbl(15.0));
        assert_eq!(t.value("a", 1).unwrap(), Value::Dbl(7.0));
    }

    #[test]
    fn min_and_max_per_group() {
        let t = aggregate_by(&table(), "iter", "m", AggFunc::Min, "item").unwrap();
        assert_eq!(t.value("m", 1).unwrap(), Value::Int(5));
        let t = aggregate_by(&table(), "iter", "m", AggFunc::Max, "item").unwrap();
        assert_eq!(t.value("m", 0).unwrap(), Value::Int(20));
    }

    #[test]
    fn sum_coerces_untyped_strings() {
        let t = Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1])),
            (
                "item".into(),
                Column::from_values(vec![Value::Str("10".into()), Value::Str("2.5".into())]),
            ),
        ])
        .unwrap();
        let r = aggregate_by(&t, "iter", "s", AggFunc::Sum, "item").unwrap();
        assert_eq!(r.value("s", 0).unwrap(), Value::Dbl(12.5));
    }

    #[test]
    fn aggregation_of_non_numeric_fails() {
        let t = Table::new(vec![
            ("iter".into(), Column::nats(vec![1])),
            (
                "item".into(),
                Column::from_values(vec![Value::Str("abc".into())]),
            ),
        ])
        .unwrap();
        assert!(aggregate_by(&t, "iter", "s", AggFunc::Sum, "item").is_err());
    }

    #[test]
    fn group_order_is_first_appearance() {
        let t = Table::new(vec![
            ("iter".into(), Column::nats(vec![5, 3, 5])),
            ("item".into(), Column::ints(vec![1, 1, 1])),
        ])
        .unwrap();
        let r = aggregate_by(&t, "iter", "c", AggFunc::Count, "item").unwrap();
        assert_eq!(r.value("iter", 0).unwrap(), Value::Nat(5));
        assert_eq!(r.value("iter", 1).unwrap(), Value::Nat(3));
    }

    #[test]
    fn empty_input_produces_no_groups() {
        let t = Table::iter_pos_item(vec![], vec![], vec![]).unwrap();
        let r = aggregate_by(&t, "iter", "c", AggFunc::Count, "item").unwrap();
        assert_eq!(r.row_count(), 0);
    }

    /// Typed kernels agree with the value-at-a-time reference for every
    /// function on a table that exercises both the segmented (sorted) and
    /// the hashed (shuffled) paths.
    #[test]
    fn typed_kernels_match_generic() {
        let sorted = table();
        let shuffled = Table::new(vec![
            ("iter".into(), Column::nats(vec![2, 1, 2, 1, 2])),
            ("item".into(), Column::ints(vec![5, 10, 7, 20, 9])),
        ])
        .unwrap();
        for input in [&sorted, &shuffled] {
            for func in FUNCS {
                let fast = aggregate_by(input, "iter", "v", func, "item").unwrap();
                let slow = aggregate_by_generic(input, "iter", "v", func, "item").unwrap();
                assert_eq!(fast, slow, "{}", func.name());
            }
        }
    }

    /// The segmented fast path triggers exactly on ascending Nat/Int group
    /// columns.
    #[test]
    fn segmented_detection() {
        let sorted = table();
        let plan = AggPlan::new(&sorted, "iter", "c", AggFunc::Count, "item").unwrap();
        assert!(plan.segmented());
        let unsorted = Table::new(vec![
            ("iter".into(), Column::nats(vec![2, 1])),
            ("item".into(), Column::ints(vec![1, 2])),
        ])
        .unwrap();
        let plan = AggPlan::new(&unsorted, "iter", "c", AggFunc::Count, "item").unwrap();
        assert!(!plan.segmented());
        let strs = Table::new(vec![
            ("g".into(), Column::strs(vec!["a".into(), "b".into()])),
            ("item".into(), Column::ints(vec![1, 2])),
        ])
        .unwrap();
        let plan = AggPlan::new(&strs, "g", "c", AggFunc::Count, "item").unwrap();
        assert!(!plan.segmented());
    }

    /// Chunked partial/merge equals the sequential run for the chunk-safe
    /// functions, at every chunk size.
    #[test]
    fn chunked_preaggregation_matches_sequential() {
        let t = Table::new(vec![
            ("iter".into(), Column::nats(vec![2, 1, 2, 3, 1, 2, 3, 3])),
            (
                "item".into(),
                Column::dbls(vec![5.0, 1.0, 5.0, 9.5, 0.5, 7.0, 9.5, 2.0]),
            ),
        ])
        .unwrap();
        for func in [AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let plan = AggPlan::new(&t, "iter", "v", func, "item").unwrap();
            assert!(plan.chunk_parallel_safe());
            let whole = plan.run().unwrap();
            for chunk in 1..=plan.input_rows() {
                let mut partials = Vec::new();
                let mut lo = 0;
                while lo < plan.input_rows() {
                    let hi = (lo + chunk).min(plan.input_rows());
                    partials.push(plan.partial(lo..hi).unwrap());
                    lo = hi;
                }
                let merged = plan.finish(plan.merge(partials).unwrap()).unwrap();
                assert_eq!(merged, whole, "{} chunk {chunk}", func.name());
            }
        }
    }

    /// Sum/avg (non-associative) and min/max over polymorphic item columns
    /// (non-transitive comparisons) refuse chunked evaluation.
    #[test]
    fn unsafe_functions_stay_sequential() {
        let t = table();
        for func in [AggFunc::Sum, AggFunc::Avg] {
            let plan = AggPlan::new(&t, "iter", "v", func, "item").unwrap();
            assert!(!plan.chunk_parallel_safe());
        }
        let items = Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1])),
            (
                "item".into(),
                Column::items(vec![Value::Int(1), Value::Str("2".into())]),
            ),
        ])
        .unwrap();
        let plan = AggPlan::new(&items, "iter", "v", AggFunc::Min, "item").unwrap();
        assert!(!plan.chunk_parallel_safe());
        let plan = AggPlan::new(&items, "iter", "v", AggFunc::Count, "item").unwrap();
        assert!(plan.chunk_parallel_safe());
    }

    /// Min/max keep the first appearance on ties (f64 equality can hold
    /// across distinct rows) — same winner as the generic loop.
    #[test]
    fn min_keeps_first_on_ties() {
        let t = Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1, 1])),
            (
                "item".into(),
                Column::items(vec![Value::Int(2), Value::Dbl(2.0), Value::Int(2)]),
            ),
        ])
        .unwrap();
        let fast = aggregate_by(&t, "iter", "m", AggFunc::Min, "item").unwrap();
        let slow = aggregate_by_generic(&t, "iter", "m", AggFunc::Min, "item").unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.value("m", 0).unwrap(), Value::Int(2));
    }

    /// Integer sums stay integers and overflow with the arithmetic error;
    /// a double anywhere in the group promotes the running sum.
    #[test]
    fn sum_promotion_and_overflow_match_generic() {
        let promo = Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1, 1])),
            (
                "item".into(),
                Column::items(vec![Value::Int(1), Value::Dbl(0.5), Value::Int(2)]),
            ),
        ])
        .unwrap();
        let fast = aggregate_by(&promo, "iter", "s", AggFunc::Sum, "item").unwrap();
        assert_eq!(fast.value("s", 0).unwrap(), Value::Dbl(3.5));
        assert_eq!(
            fast,
            aggregate_by_generic(&promo, "iter", "s", AggFunc::Sum, "item").unwrap()
        );
        let overflow = Table::new(vec![
            ("iter".into(), Column::nats(vec![1, 1])),
            ("item".into(), Column::ints(vec![i64::MAX, 1])),
        ])
        .unwrap();
        let fast = aggregate_by(&overflow, "iter", "s", AggFunc::Sum, "item");
        let slow = aggregate_by_generic(&overflow, "iter", "s", AggFunc::Sum, "item");
        assert!(fast.is_err());
        assert_eq!(fast.unwrap_err().to_string(), slow.unwrap_err().to_string());
    }
}
