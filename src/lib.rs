//! # Pathfinder: XQuery — The Relational Way
//!
//! An end-to-end Rust reproduction of the Pathfinder relational XQuery
//! processor (Boncz, Grust, van Keulen, Manegold, Rittinger, Teubner;
//! VLDB 2005).
//!
//! The crate re-exports the individual subsystems so that applications can
//! depend on a single `pathfinder` crate:
//!
//! * [`xml`] — XML parsing and document model ([`pf_xml`])
//! * [`store`] — the `pre|size|level` XPath Accelerator encoding and the
//!   staircase join ([`pf_store`])
//! * [`relational`] — the MonetDB-style in-memory column store
//!   ([`pf_relational`])
//! * [`algebra`] — the Table 1 relational algebra, peephole optimizer and
//!   plan rendering ([`pf_algebra`])
//! * [`xquery`] — the XQuery front end and loop-lifting compiler
//!   ([`pf_xquery`])
//! * [`engine`] — the end-to-end Pathfinder engine ([`pf_engine`])
//! * [`baseline`] — the navigational comparator engine ([`pf_baseline`])
//! * [`xmark`] — the XMark data generator and the 20 benchmark queries
//!   ([`pf_xmark`])
//!
//! ## Quickstart
//!
//! ```
//! use pathfinder::engine::Pathfinder;
//!
//! let pf = Pathfinder::new();
//! pf.load_document("doc.xml", "<a><b>1</b><b>2</b></a>").unwrap();
//! let result = pf.session().query("fn:sum(fn:doc(\"doc.xml\")//b)").unwrap();
//! assert_eq!(result.to_xml(), "3");
//! ```

#![forbid(unsafe_code)]

pub use pf_algebra as algebra;
pub use pf_baseline as baseline;
pub use pf_engine as engine;
pub use pf_relational as relational;
pub use pf_store as store;
pub use pf_xmark as xmark;
pub use pf_xml as xml;
pub use pf_xquery as xquery;

/// Crate version of the umbrella `pathfinder` package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
