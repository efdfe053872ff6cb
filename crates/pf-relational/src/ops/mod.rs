//! Physical relational operators.
//!
//! One function per operator of the paper's Table 1 algebra (plus grouped
//! aggregation, which Table 1 subsumes under the function items
//! `fn:count`/`fn:sum`).  All operators are pure:
//! they take tables by reference and return new tables.

pub mod aggregate;
pub mod index;
pub mod join;
pub mod keys;
pub mod map;
pub mod pipeline;
pub mod project;
pub mod rownum;
pub mod select;
pub mod setops;
pub mod sortkeys;
pub mod step;
pub mod theta_count;

pub use aggregate::{aggregate_by, aggregate_by_generic, AggFunc, AggPlan};
pub use index::{
    evaluate_text_probe, evaluate_value_probe, text_fragments, text_row_is_candidate, IndexMode,
    IndexProbe, IndexTarget, TextCandidates, ValueCandidates,
};
pub use join::{cross, equi_join, equi_join_generic, theta_join, JoinPlan, ThetaPlan};
pub use keys::{Key, KeyView, NatIndex};
pub use map::{
    binary_cell, map_binary, map_const, map_data, map_unary, unary_cell, Atomizer, BinaryOp, CmpOp,
    UnaryOp,
};
pub use pipeline::{run_pipeline, FusedStep};
pub use project::project;
pub use rownum::{row_number, row_number_by, row_number_permuted, OrderSpec};
pub use select::{select_by, select_eq, select_true};
pub use setops::{difference, distinct, union_disjoint};
pub use sortkeys::{KeyCol, SortKeys};
pub use step::{staircase_step, DocResolver};
pub use theta_count::{theta_count, RankCount};

use crate::value::Value;

/// A hashable key derived from a [`Value`] — the owned key of the
/// value-at-a-time reference kernels ([`equi_join_generic`],
/// [`aggregate_by_generic`]); the product kernels use the borrowed
/// [`Key`] and the direct-address kernels of [`keys`].
///
/// Numeric values that are integral collapse onto the same key regardless of
/// their concrete type, matching the XQuery general-comparison semantics the
/// compiler relies on when it turns predicates into equi-joins.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HashKey {
    /// Integral numbers (Nat, Int and integral Dbl collapse here).
    Int(i64),
    /// Non-integral doubles, hashed by bit pattern.
    Bits(u64),
    /// Strings.
    Str(String),
    /// Booleans.
    Bool(bool),
    /// Nodes by (doc, pre).
    Node(u32, u32),
    /// Constructed attributes by (doc, row).
    Attr(u32, u32),
}

impl HashKey {
    /// Derive the key for `value`.
    pub fn of(value: &Value) -> HashKey {
        match value {
            Value::Nat(n) => {
                if *n <= i64::MAX as u64 {
                    HashKey::Int(*n as i64)
                } else {
                    HashKey::Bits(*n)
                }
            }
            Value::Int(i) => HashKey::Int(*i),
            Value::Dbl(d) => {
                if d.fract() == 0.0 && d.abs() < 9.0e18 {
                    HashKey::Int(*d as i64)
                } else {
                    HashKey::Bits(d.to_bits())
                }
            }
            Value::Str(s) => HashKey::Str(s.clone()),
            Value::Bool(b) => HashKey::Bool(*b),
            Value::Node(n) => HashKey::Node(n.doc, n.pre),
            Value::Attr(a) => HashKey::Attr(a.doc, a.row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_keys_collapse() {
        assert_eq!(HashKey::of(&Value::Int(3)), HashKey::of(&Value::Nat(3)));
        assert_eq!(HashKey::of(&Value::Int(3)), HashKey::of(&Value::Dbl(3.0)));
        assert_ne!(HashKey::of(&Value::Dbl(3.5)), HashKey::of(&Value::Int(3)));
    }

    #[test]
    fn distinct_types_have_distinct_keys() {
        assert_ne!(
            HashKey::of(&Value::Str("1".into())),
            HashKey::of(&Value::Int(1))
        );
        assert_ne!(HashKey::of(&Value::Bool(true)), HashKey::of(&Value::Int(1)));
    }
}
