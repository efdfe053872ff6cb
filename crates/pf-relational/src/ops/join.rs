//! ⋈ and × — equi-join, theta-join, Cartesian product.
//!
//! The compiled plans only ever use *equi*-joins ("all joins are
//! equi-joins", Section 2).  [`JoinPlan`] indexes the **smaller** input
//! once into a read-only [`NatIndex`] — its rows grouped by key, ascending
//! within a group — and the larger input probes it:
//!
//! * **Direct address.**  Loop-lifting joins almost always on two `Nat`
//!   columns (`iter`, `inner`, `outer`, surrogate ids) whose values are
//!   bounded by the row counts.  When both key columns are `Column::Nat`
//!   and the build side's largest key is at most `4 · rows + 1024` for
//!   the rows of *both* inputs (a small build side is often sparse: 973
//!   rows keyed up to 5 084), the key is the group: a probe is an array
//!   access, and a probe key above the largest build key misses.  Exact,
//!   because two `Nat`s share a [`Key`] exactly when they are equal.
//! * **Surrogates.**  Two `Text` key columns over the same store compare
//!   their dictionary surrogates: one dictionary gives one surrogate per
//!   distinct string, so equal `u32`s are exactly equal strings.  The
//!   build side's surrogates map to group ids through an
//!   [`FxHashMap`] (the keys are the engine's own numbers).
//! * **Hashed.**  Every other key pair — strings, doubles, mixed `Item`
//!   columns, a `Nat` against an `Int`, `Text` against `Str` or against
//!   another document's `Text` — maps each borrowed [`Key`] (no per-row
//!   `Value`, string keys hashed by `&str` with the keyed SipHash, a
//!   `Text` row spelled from its dictionary) to a group id in
//!   first-appearance order, and the ids index the same CSR.
//!
//! Either way the pairs and their order are the ones a per-key list of
//! build rows would give.  Output order is always
//! **left-major** (left row order, then right row order) — when the build
//! side is the left input, [`JoinPlan::materialize`] restores that order
//! with a stable counting sort over the probe-major pairs.
//!
//! The explicit theta-join exists for the value-based joins the paper
//! discusses for XMark Q11/Q12 (predicate `>`), whose quadratic output is
//! inherent to the join; [`ThetaPlan`] materializes each side's key values
//! once (not per inner iteration; as plain `f64`s when both columns are
//! numeric).  A query that only *counts* the matches never needs the
//! pairs — see [`mod@crate::ops::theta_count`].

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::hash::FxHashMap;
use crate::ops::keys::{Key, KeyView, NatIndex};
use crate::ops::map::{apply_binary, BinaryOp, CmpOp};
use crate::ops::HashKey;
use crate::table::{ColId, Table};
use crate::value::{compare_f64, Value};

fn check_disjoint(left: &Table, right: &Table) -> RelResult<()> {
    for &(id, _) in right.columns() {
        if left.has_column(id) {
            return Err(RelError::new(format!(
                "join would produce duplicate column `{id}`; project/rename first"
            )));
        }
    }
    Ok(())
}

fn materialize_join(left: &Table, right: &Table, pairs: &[(usize, usize)]) -> RelResult<Table> {
    let left_rows: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
    let right_rows: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
    let left_part = left.gather_rows(&left_rows);
    let right_part = right.gather_rows(&right_rows);
    let mut columns = Vec::new();
    for (id, col) in left_part.columns().iter().chain(right_part.columns()) {
        columns.push((*id, col.clone()));
    }
    Table::new(columns)
}

/// A prepared equi-join: the smaller side indexed once into a read-only
/// [`NatIndex`], ready to be probed (see the module docs).
pub struct JoinPlan<'t> {
    left: &'t Table,
    right: &'t Table,
    /// `true` when the index was built over the *left* input (the left
    /// side was smaller); the probe is then right-major and
    /// [`JoinPlan::materialize`] restores left-major order.
    build_left: bool,
    /// The build rows grouped by key (direct-address) or by hash group id.
    build: NatIndex,
    probe: Probe<'t>,
}

/// How a probe row finds its group in [`JoinPlan::build`].
enum Probe<'t> {
    /// Both keys are `Nat`s and the build side is dense: the key is the
    /// group.
    Direct(&'t [u64]),
    /// Both keys are surrogates of one dictionary: a map from the build
    /// surrogate to its group id.
    Syms {
        groups: FxHashMap<u32, u64>,
        keys: &'t [u32],
    },
    /// Any other keys: a hash map from the borrowed build key to its group
    /// id (groups numbered in first-appearance order).
    Hashed {
        groups: HashMap<Key<'t>, u64>,
        keys: KeyView<'t>,
    },
}

impl<'t> JoinPlan<'t> {
    /// Validate the schemas and index the smaller side.
    pub fn new(
        left: &'t Table,
        right: &'t Table,
        left_col: ColId,
        right_col: ColId,
    ) -> RelResult<JoinPlan<'t>> {
        check_disjoint(left, right)?;
        let lcol = left.column(left_col)?;
        let rcol = right.column(right_col)?;
        // Build on the smaller side, probe with the larger.
        let build_left = left.row_count() < right.row_count();
        let (build, probe) = if build_left {
            (lcol, rcol)
        } else {
            (rcol, lcol)
        };
        let rows = left.row_count() + right.row_count();
        let direct = build
            .as_nats()
            .zip(probe.as_nats())
            .and_then(|(build, probe)| Some((NatIndex::dense(build, rows)?, probe)));
        let (build, probe) = match direct {
            Some((index, probe)) => (index, Probe::Direct(probe)),
            None => match (build, probe) {
                (Column::Text(build), Column::Text(probe)) if build.same_store(probe) => {
                    let syms = build.syms();
                    let (groups, index) = group_ids(syms.len(), |row| syms[row]);
                    let keys = probe.syms();
                    (index, Probe::Syms { groups, keys })
                }
                _ => {
                    let build = KeyView::of(build);
                    let (groups, index) = group_ids(build.len(), |row| build.key(row));
                    let keys = KeyView::of(probe);
                    (index, Probe::Hashed { groups, keys })
                }
            },
        };
        Ok(JoinPlan {
            left,
            right,
            build_left,
            build,
            probe,
        })
    }

    /// Rows on the probe (larger) side.
    pub fn probe_rows(&self) -> usize {
        match &self.probe {
            Probe::Direct(keys) => keys.len(),
            Probe::Syms { keys, .. } => keys.len(),
            Probe::Hashed { keys, .. } => keys.len(),
        }
    }

    /// The build rows matching probe row `row`.
    #[inline]
    fn matches(&self, row: usize) -> &[u32] {
        match &self.probe {
            Probe::Direct(keys) => self.build.rows_of(keys[row]),
            Probe::Syms { groups, keys } => groups
                .get(&keys[row])
                .map_or(&[], |&group| self.build.rows_of(group)),
            Probe::Hashed { groups, keys } => groups
                .get(&keys.key(row))
                .map_or(&[], |&group| self.build.rows_of(group)),
        }
    }

    /// Probe the index with every probe row, returning the matching
    /// `(left row, right row)` pairs in probe-major order.
    pub fn probe(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for row in 0..self.probe_rows() {
            let matches = self.matches(row);
            if self.build_left {
                pairs.extend(matches.iter().map(|&lrow| (lrow as usize, row)));
            } else {
                pairs.extend(matches.iter().map(|&rrow| (row, rrow as usize)));
            }
        }
        pairs
    }

    /// Gather the output table from probe-major `pairs` (the
    /// [`JoinPlan::probe`] result), restoring **left-major** order
    /// when the build side was the left input.
    pub fn materialize(&self, pairs: Vec<(usize, usize)>) -> RelResult<Table> {
        let pairs = if self.build_left {
            // The probe walked the right input, so the pairs are
            // right-major.  A stable counting sort over the left row
            // restores left-major order; stability keeps the right rows
            // ascending within each left row — exactly the order a
            // left-side probe would have produced.
            let mut counts = vec![0usize; self.left.row_count() + 1];
            for &(l, _) in &pairs {
                counts[l + 1] += 1;
            }
            for i in 1..counts.len() {
                counts[i] += counts[i - 1];
            }
            let mut sorted = vec![(0usize, 0usize); pairs.len()];
            for &(l, r) in &pairs {
                sorted[counts[l]] = (l, r);
                counts[l] += 1;
            }
            sorted
        } else {
            pairs
        };
        materialize_join(self.left, self.right, &pairs)
    }
}

/// The build keys of `rows` rows as group ids in first-appearance order:
/// the map from key to group, and the rows grouped by it.
fn group_ids<K: Hash + Eq, S: BuildHasher + Default>(
    rows: usize,
    key: impl Fn(usize) -> K,
) -> (HashMap<K, u64, S>, NatIndex) {
    let mut groups: HashMap<K, u64, S> = HashMap::with_capacity_and_hasher(rows, S::default());
    let group_of: Vec<u64> = (0..rows)
        .map(|row| {
            let next = groups.len() as u64;
            *groups.entry(key(row)).or_insert(next)
        })
        .collect();
    let index =
        NatIndex::dense(&group_of, group_of.len()).expect("group ids are dense by construction");
    (groups, index)
}

/// Equi-join `left ⋈ right` on `left_col = right_col` (hash join).
///
/// Column names of the two inputs must be disjoint; the compiler inserts
/// renaming projections to guarantee this, exactly like the π operators in
/// Figure 5.  The output contains the matching row pairs ordered by the
/// left input's row order (then the right's), which keeps plan results
/// deterministic whichever side the hash index is built on.
pub fn equi_join(
    left: &Table,
    right: &Table,
    left_col: ColId,
    right_col: ColId,
) -> RelResult<Table> {
    let plan = JoinPlan::new(left, right, left_col, right_col)?;
    let pairs = plan.probe();
    plan.materialize(pairs)
}

/// The pre-typed-kernel equi-join: a [`HashKey`] index over the right
/// input, probed one materialized [`Value`] at a time.
///
/// Kept as the differential-testing reference for [`equi_join`] (the
/// property suite asserts both agree on arbitrary tables).
pub fn equi_join_generic(
    left: &Table,
    right: &Table,
    left_col: ColId,
    right_col: ColId,
) -> RelResult<Table> {
    check_disjoint(left, right)?;
    let lcol = left.column(left_col)?;
    let rcol = right.column(right_col)?;
    let mut index: HashMap<HashKey, Vec<usize>> = HashMap::with_capacity(right.row_count());
    for row in 0..right.row_count() {
        index
            .entry(HashKey::of(&rcol.get(row)))
            .or_default()
            .push(row);
    }
    let mut pairs = Vec::new();
    for lrow in 0..left.row_count() {
        if let Some(matches) = index.get(&HashKey::of(&lcol.get(lrow))) {
            for &rrow in matches {
                pairs.push((lrow, rrow));
            }
        }
    }
    materialize_join(left, right, &pairs)
}

/// A numeric key column (`Nat`/`Int`/`Dbl`, or an `Item` column holding
/// only those) as the `f64`s [`Value::compare`] compares; `None` for
/// anything else.
pub(crate) fn numeric_keys(column: &Column) -> Option<Vec<f64>> {
    match column {
        Column::Nat(v) => Some(v.iter().map(|&n| n as f64).collect()),
        Column::Int(v) => Some(v.iter().map(|&i| i as f64).collect()),
        Column::Dbl(v) => Some(v.to_vec()),
        Column::Item(v) => v
            .iter()
            .map(|value| match value {
                Value::Nat(n) => Some(*n as f64),
                Value::Int(i) => Some(*i as f64),
                Value::Dbl(d) => Some(*d),
                _ => None,
            })
            .collect(),
        Column::Str(_) | Column::Text(_) | Column::Bool(_) | Column::Node(_) | Column::Attr(_) => {
            None
        }
    }
}

/// The key columns of a [`ThetaPlan`]: `f64` slices when the predicate is
/// a comparison of two numeric columns, boxed values otherwise.
enum ThetaKeys {
    Numeric(Vec<f64>, Vec<f64>, CmpOp),
    Values(Vec<Value>, Vec<Value>),
}

/// A prepared theta-join: both key columns materialized **once** (the old
/// nested loop re-boxed the right value on every inner iteration).
pub struct ThetaPlan<'t> {
    left: &'t Table,
    right: &'t Table,
    op: BinaryOp,
    keys: ThetaKeys,
}

impl<'t> ThetaPlan<'t> {
    /// Validate the schemas and materialize the key columns.
    pub fn new(
        left: &'t Table,
        right: &'t Table,
        left_col: ColId,
        op: BinaryOp,
        right_col: ColId,
    ) -> RelResult<ThetaPlan<'t>> {
        check_disjoint(left, right)?;
        let lcol = left.column(left_col)?;
        let rcol = right.column(right_col)?;
        let numeric = match op {
            BinaryOp::Cmp(cmp) => numeric_keys(lcol)
                .zip(numeric_keys(rcol))
                .map(|(l, r)| ThetaKeys::Numeric(l, r, cmp)),
            _ => None,
        };
        let keys = numeric.unwrap_or_else(|| {
            ThetaKeys::Values(lcol.iter_values().collect(), rcol.iter_values().collect())
        });
        Ok(ThetaPlan {
            left,
            right,
            op,
            keys,
        })
    }

    /// Evaluate the predicate for every `(left, right)` pair, returning the
    /// matches in nested-loop order (and the error of the first failing
    /// pair in that order).
    pub fn probe(&self) -> RelResult<Vec<(usize, usize)>> {
        let mut pairs = Vec::new();
        match &self.keys {
            ThetaKeys::Numeric(lkeys, rkeys, cmp) => {
                for (lrow, &lkey) in lkeys.iter().enumerate() {
                    for (rrow, rkey) in rkeys.iter().enumerate() {
                        let ordering = compare_f64(lkey, *rkey)?;
                        if cmp.matches(ordering) {
                            pairs.push((lrow, rrow));
                        }
                    }
                }
            }
            ThetaKeys::Values(lvals, rvals) => {
                for (lrow, lval) in lvals.iter().enumerate() {
                    for (rrow, rval) in rvals.iter().enumerate() {
                        if apply_binary(self.op, lval, rval)?.as_bool()? {
                            pairs.push((lrow, rrow));
                        }
                    }
                }
            }
        }
        Ok(pairs)
    }

    /// Gather the output table from the [`ThetaPlan::probe`] pairs.
    pub fn materialize(&self, pairs: Vec<(usize, usize)>) -> RelResult<Table> {
        materialize_join(self.left, self.right, &pairs)
    }
}

/// Theta-join `left ⋈_θ right` with an arbitrary binary predicate between
/// `left_col` and `right_col` (nested loop).
pub fn theta_join(
    left: &Table,
    right: &Table,
    left_col: ColId,
    op: BinaryOp,
    right_col: ColId,
) -> RelResult<Table> {
    let plan = ThetaPlan::new(left, right, left_col, op, right_col)?;
    let pairs = plan.probe()?;
    plan.materialize(pairs)
}

/// × — Cartesian product.
pub fn cross(left: &Table, right: &Table) -> RelResult<Table> {
    check_disjoint(left, right)?;
    let size = left
        .row_count()
        .checked_mul(right.row_count())
        .ok_or_else(|| RelError::new("cross product size overflows"))?;
    let mut pairs = Vec::with_capacity(size);
    for lrow in 0..left.row_count() {
        for rrow in 0..right.row_count() {
            pairs.push((lrow, rrow));
        }
    }
    materialize_join(left, right, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::col;
    use crate::value::Value;

    fn left() -> Table {
        Table::new(vec![
            (col("iter"), Column::nats(vec![1, 2, 3])),
            (col("item"), Column::ints(vec![10, 20, 30])),
        ])
        .unwrap()
    }

    fn right() -> Table {
        Table::new(vec![
            (col("iter1"), Column::nats(vec![2, 3, 3, 4])),
            (col("item1"), Column::ints(vec![200, 300, 301, 400])),
        ])
        .unwrap()
    }

    #[test]
    fn equi_join_matches_keys() {
        let j = equi_join(&left(), &right(), col("iter"), col("iter1")).unwrap();
        assert_eq!(j.row_count(), 3);
        assert_eq!(
            j.column_ids(),
            vec![col("iter"), col("item"), col("iter1"), col("item1")]
        );
        assert_eq!(j.value(col("item1"), 0).unwrap(), Value::Int(200));
        assert_eq!(j.value(col("item"), 2).unwrap(), Value::Int(30));
    }

    #[test]
    fn equi_join_rejects_name_clash() {
        assert!(equi_join(&left(), &left(), col("iter"), col("iter")).is_err());
    }

    #[test]
    fn equi_join_with_no_matches_is_empty() {
        let r = Table::new(vec![
            (col("iter1"), Column::nats(vec![9])),
            (col("item1"), Column::ints(vec![1])),
        ])
        .unwrap();
        let j = equi_join(&left(), &r, col("iter"), col("iter1")).unwrap();
        assert_eq!(j.row_count(), 0);
        assert_eq!(j.column_count(), 4);
    }

    #[test]
    fn theta_join_greater_than() {
        let j = theta_join(
            &left(),
            &right(),
            col("item"),
            BinaryOp::Cmp(CmpOp::Gt),
            col("iter1"),
        )
        .unwrap();
        // every left item (10,20,30) is > every right iter1 (2,3,3,4)
        assert_eq!(j.row_count(), 12);
    }

    #[test]
    fn cross_product_sizes() {
        let c = cross(&left(), &right()).unwrap();
        assert_eq!(c.row_count(), 12);
        assert_eq!(c.column_count(), 4);
    }

    #[test]
    fn join_result_order_is_left_major() {
        let j = equi_join(&left(), &right(), col("iter"), col("iter1")).unwrap();
        let iters: Vec<_> = (0..j.row_count())
            .map(|r| j.value(col("iter"), r).unwrap().as_nat().unwrap())
            .collect();
        let mut sorted = iters.clone();
        sorted.sort_unstable();
        assert_eq!(iters, sorted);
    }

    /// The plan builds on the smaller side either way; both orientations
    /// must agree with the value-at-a-time reference, pair for pair.
    #[test]
    fn both_build_orientations_match_the_generic_join() {
        let small = Table::new(vec![
            (col("k"), Column::nats(vec![3, 1, 3])),
            (col("a"), Column::ints(vec![30, 10, 31])),
        ])
        .unwrap();
        let big = Table::new(vec![
            (col("k1"), Column::nats(vec![1, 2, 3, 3, 1, 5, 3])),
            (col("b"), Column::ints(vec![1, 2, 3, 4, 5, 6, 7])),
        ])
        .unwrap();
        // small ⋈ big builds on the left (left is smaller)…
        let plan = JoinPlan::new(&small, &big, col("k"), col("k1")).unwrap();
        assert!(plan.build_left);
        assert_eq!(plan.probe_rows(), 7);
        let fast = equi_join(&small, &big, col("k"), col("k1")).unwrap();
        let slow = equi_join_generic(&small, &big, col("k"), col("k1")).unwrap();
        assert_eq!(fast, slow);
        // …and big ⋈ small builds on the right.
        let plan = JoinPlan::new(&big, &small, col("k1"), col("k")).unwrap();
        assert!(!plan.build_left);
        let fast = equi_join(&big, &small, col("k1"), col("k")).unwrap();
        let slow = equi_join_generic(&big, &small, col("k1"), col("k")).unwrap();
        assert_eq!(fast, slow);
    }

    /// Two `Nat` keys take the direct-address probe whenever the build
    /// side is dense against both inputs — even a small, sparse build
    /// side — and anything else hashes; the pairs are the reference's.
    #[test]
    fn nat_keys_are_probed_by_direct_address() {
        let nats =
            |name: &str, keys: Vec<u64>| Table::new(vec![(col(name), Column::nats(keys))]).unwrap();
        let small_sparse = nats("k", vec![2000, 7, 2000]);
        let big = nats("k1", (0..600).map(|i| i * 4 % 2003).collect());
        let plan = JoinPlan::new(&small_sparse, &big, col("k"), col("k1")).unwrap();
        assert!(plan.build_left && matches!(plan.probe, Probe::Direct(_)));
        assert_eq!(
            equi_join(&small_sparse, &big, col("k"), col("k1")).unwrap(),
            equi_join_generic(&small_sparse, &big, col("k"), col("k1")).unwrap()
        );
        // Too sparse for the rows read, or a key column of another type.
        let huge = nats("k1", vec![1 << 40, 7, u64::MAX]);
        let plan = JoinPlan::new(&small_sparse, &huge, col("k"), col("k1")).unwrap();
        assert!(matches!(plan.probe, Probe::Hashed { .. }));
        let ints = Table::new(vec![(col("k1"), Column::ints(vec![7, 2000, 3]))]).unwrap();
        let plan = JoinPlan::new(&small_sparse, &ints, col("k"), col("k1")).unwrap();
        assert!(matches!(plan.probe, Probe::Hashed { .. }));
        for right in [&huge, &ints] {
            assert_eq!(
                equi_join(&small_sparse, right, col("k"), col("k1")).unwrap(),
                equi_join_generic(&small_sparse, right, col("k"), col("k1")).unwrap()
            );
        }
    }

    /// String keys join without cloning into owned keys; the typed and
    /// generic kernels agree on a string-keyed join.
    #[test]
    fn string_keyed_join_matches_generic() {
        let l = Table::new(vec![(
            col("k"),
            Column::strs(vec!["a".into(), "b".into(), "a".into()]),
        )])
        .unwrap();
        let r = Table::new(vec![(
            col("k1"),
            Column::strs(vec!["b".into(), "a".into(), "c".into()]),
        )])
        .unwrap();
        assert_eq!(
            equi_join(&l, &r, col("k"), col("k1")).unwrap(),
            equi_join_generic(&l, &r, col("k"), col("k1")).unwrap()
        );
    }

    /// Mixed representations join through the shared key classes: a Nat
    /// column joins an Int/Dbl item column where the values are integral.
    #[test]
    fn cross_representation_keys_collapse() {
        let l = Table::new(vec![(col("k"), Column::nats(vec![1, 2, 3]))]).unwrap();
        let r = Table::new(vec![(
            col("k1"),
            Column::items(vec![Value::Dbl(2.0), Value::Int(3), Value::Dbl(2.5)]),
        )])
        .unwrap();
        let j = equi_join(&l, &r, col("k"), col("k1")).unwrap();
        assert_eq!(j.row_count(), 2);
        assert_eq!(equi_join_generic(&l, &r, col("k"), col("k1")).unwrap(), j);
    }

    /// The `f64` probe and the boxed-value loop are the same join: same
    /// pairs in the same order over Nat/Int/Dbl mixes, the same error on a
    /// `NaN` key.
    #[test]
    fn numeric_theta_probe_matches_the_value_loop() {
        let l = Table::new(vec![(
            col("a"),
            Column::items(vec![Value::Int(-3), Value::Dbl(2.5), Value::Nat(7)]),
        )])
        .unwrap();
        let r = Table::new(vec![(col("b"), Column::dbls(vec![2.5, -4.0, 7.0, 1e300]))]).unwrap();
        let value_loop = |l: &Table, r: &Table, cmp: CmpOp| -> RelResult<Vec<(usize, usize)>> {
            let mut pairs = Vec::new();
            for lrow in 0..l.row_count() {
                for rrow in 0..r.row_count() {
                    let (a, b) = (l.value(col("a"), lrow)?, r.value(col("b"), rrow)?);
                    if apply_binary(BinaryOp::Cmp(cmp), &a, &b)?.as_bool()? {
                        pairs.push((lrow, rrow));
                    }
                }
            }
            Ok(pairs)
        };
        for cmp in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let plan = ThetaPlan::new(&l, &r, col("a"), BinaryOp::Cmp(cmp), col("b")).unwrap();
            assert!(matches!(plan.keys, ThetaKeys::Numeric(..)));
            assert_eq!(
                plan.probe().unwrap(),
                value_loop(&l, &r, cmp).unwrap(),
                "{cmp:?}"
            );
        }
        let nan = Table::new(vec![(col("b"), Column::dbls(vec![1.0, f64::NAN]))]).unwrap();
        let plan = ThetaPlan::new(&l, &nan, col("a"), BinaryOp::Cmp(CmpOp::Lt), col("b")).unwrap();
        assert_eq!(
            plan.probe().unwrap_err().to_string(),
            value_loop(&l, &nan, CmpOp::Lt).unwrap_err().to_string()
        );
    }
}
