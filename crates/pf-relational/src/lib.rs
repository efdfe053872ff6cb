//! # pf-relational — a MonetDB-style in-memory column store
//!
//! Pathfinder compiles XQuery into plans over a small relational algebra and
//! ships them to MonetDB for execution (Section 2, "MonetDB").  This crate
//! is the execution back-end of the reproduction: an in-memory,
//! column-oriented relational engine providing exactly the physical
//! operators those plans need (Table 1 of the paper):
//!
//! | paper operator | function |
//! |----------------|----------|
//! | π (projection, renaming)        | [`ops::project()`](fn@ops::project) |
//! | σ (row selection)               | [`ops::select`] |
//! | ∪̇ , \\ (disjoint union, difference) | [`ops::union_disjoint`], [`ops::difference`] |
//! | δ (duplicate elimination)       | [`ops::distinct`] |
//! | ⋈, × (equi-join, Cartesian product) | [`ops::equi_join`], [`ops::theta_join`], [`ops::cross`] |
//! | % (row numbering, MonetDB `mark`) | [`ops::row_number`] |
//! | staircase join                  | [`ops::staircase_step`] |
//! | ε, τ (element/text construction) | implemented in `pf-engine` on top of [`Table`] |
//! | ⊙ (arithmetic / comparison)     | [`ops::map_binary`], [`ops::map_unary`] |
//! | aggregates (count, sum, …)      | [`ops::aggregate_by`] |
//! | count over an inequality join   | [`ops::theta_count()`](fn@ops::theta_count) |
//! | chains of π, σ, @, ⊙, `fn:data`, δ | [`ops::run_pipeline`] (fused, one pass) |
//!
//! Every kernel takes its whole input and runs on the calling thread.
//!
//! Tables are sets of equal-length [`Column`]s, each under a plan-wide
//! [`ColId`] (the plan keeps the names); the row number plays
//! the role of MonetDB's *virtual object identifier*, which is why
//! [`ops::row_number`] is (nearly) free.

#![forbid(unsafe_code)]

pub mod column;
pub mod error;
pub mod hash;
pub mod ops;
pub mod table;
pub mod value;

pub use column::{Column, ColumnBuilder, Texts};
pub use error::{RelError, RelResult};
pub use table::{ColId, Table};
pub use value::{AttrRef, Cell, NodeRef, Value, ValueType};
