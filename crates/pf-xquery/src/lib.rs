//! # pf-xquery — the XQuery front end and loop-lifting compiler
//!
//! This crate implements the front half of the Pathfinder stack (Figure 1 of
//! the paper): parsing the XQuery dialect of Table 2, normalizing it, and
//! compiling it — via **loop lifting** (Section 2, Figure 3) — into a plan
//! over the purely relational algebra of `pf-algebra`.
//!
//! The pipeline is
//!
//! ```text
//!   XQuery text ──lexer/parser──▶ AST ──normalize──▶ core AST
//!       ──loop-lifting compiler──▶ relational plan DAG
//! ```
//!
//! Execution of the plan is the job of `pf-engine`; this crate is purely the
//! compiler.  The compiler optionally performs **join recognition** \[3\]: a
//! nested `for … where key1 θ key2 …` over a loop-independent sequence is
//! compiled into an equi-/theta-join between the two key relations instead
//! of a per-iteration cross product — the optimization that makes the XMark
//! join queries (Q8–Q12) feasible.
//!
//! ```
//! use pf_xquery::{parse_query, compile, CompileOptions};
//!
//! let ast = parse_query("for $v in (10, 20) return $v + 100").unwrap();
//! let compiled = compile(&ast, &CompileOptions::default()).unwrap();
//! assert!(compiled.plan.operator_count() > 5);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod error;
pub mod lexer;
pub mod lift;
pub mod normalize;
pub mod parser;

pub use ast::{BinOpKind, Expr};
pub use compile::{compile, CompileOptions, Compiled};
pub use error::{XqError, XqResult};
pub use lift::{lift, Lifted};
pub use normalize::normalize;
pub use parser::{parse_query, MAX_NESTING_DEPTH};
