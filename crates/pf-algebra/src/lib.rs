//! # pf-algebra — the Table 1 relational algebra
//!
//! Pathfinder compiles XQuery into plans over a very explicit,
//! "assembly-style" relational algebra (Table 1 of the paper).  This crate
//! defines that algebra as a DAG of logical operators, infers schemas and
//! order/duplicate properties, applies the peephole-style optimizations the
//! paper refers to ([Grust, XIME-P 2005]), counts operators (the paper notes
//! XMark Q8 compiles to a ~120 operator DAG before optimization) and renders
//! plans as ASCII trees or Graphviz DOT — the "look under the hood" hooks of
//! the demonstration setup (Section 4).
//!
//! The algebra deliberately exploits restrictions that hold for compiled
//! plans: all joins are equi-joins (a single explicit theta-join exists for
//! the Q11/Q12-style value joins, and the optimizer replaces a count over
//! its distinct pairs by the grouped rank count [`AlgOp::ThetaCount`], which
//! never materializes them), π never eliminates duplicates, and all unions
//! are disjoint.
//!
//! Execution of these plans lives in `pf-engine`; this crate is purely the
//! logical layer.

#![forbid(unsafe_code)]

pub mod ops;
pub mod optimize;
pub mod physical;
pub mod plan;
pub mod properties;
pub mod render;
pub mod verify;

pub use ops::{AlgOp, Children, Const, SortSpec};
pub use optimize::{
    optimize, optimize_analyzed, optimize_with, optimize_with_verify, NoStats, OptimizeReport,
    OptimizerLevel, StatsSource,
};
pub use physical::{PhysKind, PhysNode, PhysNodeId, PhysicalPlan};
pub use plan::{ColNames, OpId, Plan, PlanBuilder};
pub use properties::{PlanProperties, Sequence, TypeSet};
pub use render::{to_ascii, to_ascii_annotated, to_ascii_physical, to_dot};
pub use verify::{digest, verify_bound, verify_plan, verify_rewrite, PlanDigest, VerifyError};

/// Fixed column ids for the unit tests: every name the tests use, after
/// the well-known ones, numbered in list order in every test plan.
#[cfg(test)]
pub(crate) mod test_cols {
    use pf_relational::ColId;

    use crate::plan::{ColNames, PlanBuilder};

    const NAMES: &[&str] = &[
        "t", "a", "a_k", "aid", "aid1", "aid2", "b", "b_k", "b_k2", "c", "c_k", "c_k2", "c_v", "d",
        "f", "flag", "g", "hop", "id", "item1", "iter1", "k", "keep", "key", "limit", "missing",
        "n", "okey", "ord", "pos1", "res", "s", "s1", "sum", "v", "val", "x", "y",
    ];

    /// The id of `name` in every plan of [`builder`] and [`names`].
    pub(crate) fn col(name: &str) -> ColId {
        match ColId::WELL_KNOWN
            .iter()
            .chain(NAMES)
            .position(|&n| n == name)
        {
            Some(i) => ColId(i as u32),
            None => panic!("test column `{name}` is not in `test_cols::NAMES`"),
        }
    }

    /// The name table holding every test column.
    pub(crate) fn names() -> ColNames {
        let mut names = ColNames::default();
        NAMES.iter().for_each(|&n| {
            names.col(n);
        });
        names
    }

    /// A plan builder whose names are [`names`].
    pub(crate) fn builder() -> PlanBuilder {
        let mut b = PlanBuilder::new();
        NAMES.iter().for_each(|&n| {
            b.col(n);
        });
        b
    }
}
