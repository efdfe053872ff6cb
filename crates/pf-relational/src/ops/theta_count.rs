//! Grouped rank count over an inequality join.
//!
//! `count(for $o in S where K($p) θ K'($o) return $o)` needs, per outer
//! group, the number of distinct inner ids with at least one satisfying
//! key pair — not the pairs.  [`ThetaCountPlan`] computes exactly that
//! without ever holding a pair:
//!
//! * **Ranked** (`<`, `<=`, `>`, `>=` over numeric key columns): a group
//!   matches an id iff the group's most favourable key beats the id's most
//!   favourable key, so each side is reduced to one extreme per group /
//!   per id, the ids' extremes are sorted once, and every group's count is
//!   one binary search — O((n + m) log m) time, O(n + m) space.
//! * **Counting loop** (everything else — strings, nodes, `!=`, mixed
//!   columns): the nested loop of [`ThetaPlan`](crate::ops::ThetaPlan),
//!   evaluating every pair with [`apply_binary`] but only bumping a
//!   per-group counter the first time an id matches.
//!
//! Both raise what the nested loop over all `(left, right)` pairs would
//! raise first: `NaN is not comparable` when a numeric side holds a `NaN`
//! and the other side has a row, the loop's own first error otherwise.
//! Group ranges are independent, so an executor may evaluate them as
//! morsels; when the group column keys the left input a group range *is* a
//! left-row range.

use std::collections::HashMap;
use std::ops::Range;

use crate::column::Column;
use crate::error::{RelError, RelResult};
use crate::ops::join::numeric_keys;
use crate::ops::keys::{Key, KeyView};
use crate::ops::map::{apply_binary, BinaryOp, CmpOp};
use crate::table::Table;
use crate::value::{nan_error, Value};

/// What a grouped rank count counts: per distinct `group` value of the
/// left input, the distinct `right_id` values of the right input with at
/// least one pair satisfying `left_col op right_col`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankCount {
    /// Grouping column of the left input.
    pub group: String,
    /// Left comparison column.
    pub left_col: String,
    /// The comparison operator.
    pub op: BinaryOp,
    /// Column of the right input identifying what is counted.
    pub right_id: String,
    /// Right comparison column.
    pub right_col: String,
    /// Name of the count column.
    pub result: String,
}

/// Rows of one column collapsed onto dense ids `0..len()` (same classes as
/// grouping and `δ`), in first-appearance order.
struct DenseIds {
    /// Dense id of every row.
    of_row: Vec<usize>,
    /// First row of every id.
    first: Vec<usize>,
}

impl DenseIds {
    fn of(column: &Column) -> DenseIds {
        let view = KeyView::of(column);
        let mut index: HashMap<Key<'_>, usize> = HashMap::new();
        let mut first = Vec::new();
        let of_row = (0..view.len())
            .map(|row| {
                *index.entry(view.key(row)).or_insert_with(|| {
                    first.push(row);
                    first.len() - 1
                })
            })
            .collect();
        DenseIds { of_row, first }
    }

    fn len(&self) -> usize {
        self.first.len()
    }
}

enum Probe {
    /// Per-group extreme left key, the per-id extreme right keys sorted
    /// ascending, and the comparison `left cmp right`.
    Ranked {
        group_keys: Vec<f64>,
        id_keys: Vec<f64>,
        cmp: CmpOp,
    },
    /// Both key columns boxed once; left rows clustered by group.
    Loop {
        lvals: Vec<Value>,
        rvals: Vec<Value>,
        op: BinaryOp,
        /// Left rows ordered by group (stable), and each group's range in
        /// that order.
        rows: Vec<usize>,
        starts: Vec<usize>,
        ids: DenseIds,
    },
}

/// A prepared grouped rank count (see the module docs).
pub struct ThetaCountPlan<'t> {
    group_col: &'t Column,
    count: &'t RankCount,
    groups: DenseIds,
    probe: Probe,
}

impl<'t> ThetaCountPlan<'t> {
    /// Resolve the columns, collapse both sides onto dense group / id
    /// numbers and prepare the probe.
    pub fn new(
        left: &'t Table,
        right: &'t Table,
        count: &'t RankCount,
    ) -> RelResult<ThetaCountPlan<'t>> {
        let op = count.op;
        let group_col = left.column(&count.group)?;
        let lcol = left.column(&count.left_col)?;
        let rcol = right.column(&count.right_col)?;
        let groups = DenseIds::of(group_col);
        let ids = DenseIds::of(right.column(&count.right_id)?);
        let ranked = match op {
            BinaryOp::Cmp(cmp @ (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)) => {
                numeric_keys(lcol)
                    .zip(numeric_keys(rcol))
                    .map(|(l, r)| (l, r, cmp))
            }
            _ => None,
        };
        let probe = match ranked {
            Some((lkeys, rkeys, cmp)) => {
                let nan = |keys: &[f64]| keys.iter().any(|k| k.is_nan());
                if (nan(&lkeys) && !rkeys.is_empty()) || (nan(&rkeys) && !lkeys.is_empty()) {
                    return Err(nan_error());
                }
                // `l > r` for some pair iff max l > min r: the left side
                // keeps its largest key, an id its smallest — mirrored
                // for `<`.
                let left_max = matches!(cmp, CmpOp::Gt | CmpOp::Ge);
                let mut id_keys = extremes(&rkeys, &ids, !left_max);
                id_keys.sort_unstable_by(f64::total_cmp);
                Probe::Ranked {
                    group_keys: extremes(&lkeys, &groups, left_max),
                    id_keys,
                    cmp,
                }
            }
            None => {
                let mut rows: Vec<usize> = (0..left.row_count()).collect();
                rows.sort_by_key(|&row| groups.of_row[row]);
                let mut starts = vec![0; groups.len() + 1];
                for &g in &groups.of_row {
                    starts[g + 1] += 1;
                }
                for g in 0..groups.len() {
                    starts[g + 1] += starts[g];
                }
                Probe::Loop {
                    lvals: lcol.iter_values().collect(),
                    rvals: rcol.iter_values().collect(),
                    op,
                    rows,
                    starts,
                    ids,
                }
            }
        };
        Ok(ThetaCountPlan {
            group_col,
            count,
            groups,
            probe,
        })
    }

    /// Distinct group values of the left input.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// The counts of the groups in `range` (groups are numbered in
    /// first-appearance order).  Ranges are independent, and every range
    /// that fails fails with the error the nested loop over all pairs
    /// raises first.
    pub fn count_range(&self, range: Range<usize>) -> RelResult<Vec<u64>> {
        match &self.probe {
            Probe::Ranked {
                group_keys,
                id_keys,
                cmp,
            } => Ok(group_keys[range]
                .iter()
                .map(|&l| {
                    let below = |strict: bool| {
                        id_keys.partition_point(|&r| if strict { r < l } else { r <= l })
                    };
                    (match cmp {
                        CmpOp::Gt => below(true),
                        CmpOp::Ge => below(false),
                        CmpOp::Lt => id_keys.len() - below(false),
                        _ => id_keys.len() - below(true),
                    }) as u64
                })
                .collect()),
            Probe::Loop {
                lvals,
                rvals,
                op,
                rows,
                starts,
                ids,
            } => {
                // `counted[id] == g + 1`: id already counted for group g.
                let mut counted = vec![0usize; ids.len()];
                let mut counts = Vec::with_capacity(range.len());
                for g in range {
                    let mut count = 0;
                    for &lrow in &rows[starts[g]..starts[g + 1]] {
                        for (rrow, rval) in rvals.iter().enumerate() {
                            let matched = apply_binary(*op, &lvals[lrow], rval)
                                .and_then(|v| v.as_bool())
                                .map_err(|e| first_error(lvals, rvals, *op).unwrap_or(e))?;
                            let id = ids.of_row[rrow];
                            if matched && counted[id] != g + 1 {
                                counted[id] = g + 1;
                                count += 1;
                            }
                        }
                    }
                    counts.push(count);
                }
                Ok(counts)
            }
        }
    }

    /// The `group|result` table of the groups with at least one match, from
    /// the concatenated [`ThetaCountPlan::count_range`] outputs.
    pub fn finish(&self, counts: Vec<u64>) -> RelResult<Table> {
        let (rows, counts): (Vec<usize>, Vec<i64>) = self
            .groups
            .first
            .iter()
            .zip(counts)
            .filter(|(_, count)| *count > 0)
            .map(|(&row, count)| (row, count as i64))
            .unzip();
        Table::new(vec![
            (self.count.group.clone(), self.group_col.gather(&rows)),
            (self.count.result.clone(), Column::ints(counts)),
        ])
    }
}

/// The error of the first failing pair in `(left row, right row)` order —
/// what the nested loop raises, whichever group hit one first.
fn first_error(lvals: &[Value], rvals: &[Value], op: BinaryOp) -> Option<RelError> {
    lvals
        .iter()
        .flat_map(|l| rvals.iter().map(move |r| (l, r)))
        .find_map(|(l, r)| apply_binary(op, l, r).and_then(|v| v.as_bool()).err())
}

/// The largest (`max`) or smallest key of every dense id.
fn extremes(keys: &[f64], ids: &DenseIds, max: bool) -> Vec<f64> {
    let mut out = vec![
        if max {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        ids.len()
    ];
    for (&key, &id) in keys.iter().zip(&ids.of_row) {
        out[id] = if max {
            out[id].max(key)
        } else {
            out[id].min(key)
        };
    }
    out
}

/// The grouped rank count `count` of `left` over `right`: one `group|result`
/// row per group with at least one match.
pub fn theta_count(left: &Table, right: &Table, count: &RankCount) -> RelResult<Table> {
    let plan = ThetaCountPlan::new(left, right, count)?;
    plan.finish(plan.count_range(0..plan.groups())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cols: Vec<(&str, Column)>) -> Table {
        Table::new(cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect()).unwrap()
    }

    fn count(left: &Table, right: &Table, cmp: CmpOp) -> RelResult<Vec<(Value, Value)>> {
        let spec = RankCount {
            group: "g".into(),
            left_col: "k".into(),
            op: BinaryOp::Cmp(cmp),
            right_id: "id".into(),
            right_col: "v".into(),
            result: "n".into(),
        };
        let t = theta_count(left, right, &spec)?;
        Ok((0..t.row_count())
            .map(|r| (t.value("g", r).unwrap(), t.value("n", r).unwrap()))
            .collect())
    }

    #[test]
    fn counts_distinct_ids_per_group_and_drops_empty_groups() {
        // Group 7 has keys {10, 3}; group 8 has {1}.  Id 1 has values
        // {5, 50}, id 2 has {9}, id 3 has {10}.
        let left = table(vec![
            ("g", Column::nats(vec![7, 8, 7])),
            ("k", Column::ints(vec![10, 1, 3])),
        ]);
        let right = table(vec![
            ("id", Column::nats(vec![1, 2, 1, 3])),
            ("v", Column::dbls(vec![5.0, 9.0, 50.0, 10.0])),
        ]);
        let n = |g: u64, c: i64| (Value::Nat(g), Value::Int(c));
        assert_eq!(count(&left, &right, CmpOp::Gt).unwrap(), [n(7, 2)]);
        assert_eq!(count(&left, &right, CmpOp::Ge).unwrap(), [n(7, 3)]);
        assert_eq!(count(&left, &right, CmpOp::Lt).unwrap(), [n(7, 3), n(8, 3)]);
        assert_eq!(count(&left, &right, CmpOp::Le).unwrap(), [n(7, 3), n(8, 3)]);
        assert_eq!(count(&left, &right, CmpOp::Ne).unwrap(), [n(7, 3), n(8, 3)]);
    }

    #[test]
    fn string_keys_take_the_counting_loop() {
        let left = table(vec![
            ("g", Column::nats(vec![1, 2])),
            ("k", Column::strs(vec!["m".into(), "a".into()])),
        ]);
        let right = table(vec![
            ("id", Column::nats(vec![1, 1, 2])),
            ("v", Column::strs(vec!["b".into(), "c".into(), "z".into()])),
        ]);
        assert_eq!(
            count(&left, &right, CmpOp::Gt).unwrap(),
            [(Value::Nat(1), Value::Int(1))]
        );
    }

    #[test]
    fn nan_and_incomparable_pairs_raise_the_loop_error() {
        let left = table(vec![
            ("g", Column::nats(vec![1])),
            ("k", Column::dbls(vec![f64::NAN])),
        ]);
        let right = table(vec![
            ("id", Column::nats(vec![1])),
            ("v", Column::ints(vec![1])),
        ]);
        let err = count(&left, &right, CmpOp::Gt).unwrap_err();
        assert_eq!(err.to_string(), nan_error().to_string());
        let empty = table(vec![
            ("id", Column::nats(vec![])),
            ("v", Column::ints(vec![])),
        ]);
        assert!(count(&left, &empty, CmpOp::Gt).unwrap().is_empty());
        let bools = table(vec![
            ("id", Column::nats(vec![1])),
            ("v", Column::bools(vec![true])),
        ]);
        let loop_err = crate::ops::theta_join(&left, &bools, "k", BinaryOp::Cmp(CmpOp::Gt), "v");
        assert_eq!(
            count(&left, &bools, CmpOp::Gt).unwrap_err().to_string(),
            loop_err.unwrap_err().to_string()
        );
    }
}
