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
pub mod schema;
pub mod verify;

pub use ops::{AlgOp, SortSpec};
pub use optimize::{
    optimize, optimize_analyzed, optimize_with, optimize_with_verify, CardEstimate, Isolation,
    NoStats, OptimizeReport, OptimizerLevel, StatsSource,
};
pub use physical::{PhysKind, PhysNode, PhysNodeId, PhysicalBooks, PhysicalPlan};
pub use plan::{OpId, Plan, PlanBuilder, ReadySetBooks};
pub use properties::{PlanProperties, Sequence, TypeSet};
pub use render::{to_ascii, to_ascii_annotated, to_ascii_physical, to_dot};
pub use schema::{infer_schema, Properties};
pub use verify::{digest, verify_plan, verify_rewrite, PlanDigest, VerifyError};
