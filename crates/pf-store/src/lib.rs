//! # pf-store — the XPath Accelerator document encoding
//!
//! This crate implements the relational XML storage layer of Pathfinder
//! (Section 2 of the VLDB 2005 paper, "Tree encoding" and "XPath axes"):
//!
//! * the **`pre|size|level` node table** — each node `v` of a shredded XML
//!   document is represented by its pre-order rank `pre(v)` (the implicit
//!   row number), the number of nodes in its subtree `size(v)` and its
//!   distance from the root `level(v)`,
//! * a **`prop` surrogate column** plus shared **property dictionaries**
//!   for tag names and text content (Section 3.1 "surrogate sharing"),
//! * a separate **attribute table** `owner|name|value`,
//! * **shredding from parse events**: the columns are filled from
//!   `pf-xml`'s start-tag/end-tag stream with one stack of open elements
//!   ([`DocStore::from_xml`] builds no DOM; [`DocStore::from_document`]
//!   replays a DOM through the same shredder), counting the optimizer's
//!   [`DocStatistics`] and the names that can carry a value index on the
//!   way, and interning values into string-heap [`Dictionary`]s,
//! * **transient fragments**: the nodes an XQuery constructor builds are
//!   written by a [`FragmentBuilder`] into the same columns through the
//!   same open-element stack, with content subtrees copied row by row off
//!   the source store (`size` and `kind` as they are, `level` shifted,
//!   surrogates re-interned) — no DOM, no replay,
//! * **content indexes** (text and value indexes, [`index`]), each built
//!   once the scans probing it have passed through as many rows as its
//!   build walks, with numbers read by the one
//!   `xs:double` parser ([`lexical`]) every engine shares,
//! * **XPath axis evaluation as range selections** over the
//!   `(pre, size, level)` space, and
//! * the **staircase join** [Grust et al., VLDB 2003] — the tree-aware
//!   axis-step join with *pruning*, *partitioning* and *skipping* that the
//!   paper injects into the relational kernel, with node tests compared by
//!   surrogate,
//! * **storage accounting** used to reproduce the Section 3.1 storage
//!   overhead experiment.
//!
//! ```
//! use pf_store::{DocStore, Axis, NodeTest, staircase_join};
//!
//! let doc = pf_xml::parse("<a><b><c/></b><b/></a>").unwrap();
//! let store = DocStore::from_document("example.xml", &doc);
//! let root = store.root_element().unwrap();
//! // descendant::b from the root element
//! let hits = staircase_join(&store, &[root], Axis::Descendant, &NodeTest::Element("b".into()));
//! assert_eq!(hits.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod axis;
pub mod dict;
pub mod index;
pub mod lexical;
mod shred;
pub mod staircase;
pub mod stats;
pub mod store;

pub use axis::{axis_region, naive_axis_step, Axis, NodeTest, ResolvedTest};
pub use dict::Dictionary;
pub use index::{DocIndexes, Rental, TextIndex, ValueEntry, ValueIndex, ValueKey};
pub use lexical::{format_double, parse_double, XsDouble};
pub use shred::{FragmentBuilder, Tag};
pub use staircase::{
    descendant_prune_into, staircase_join, staircase_join_counted, StaircaseStats, StepKernel,
};
pub use stats::{DocStatistics, StorageStats};
pub use store::{DocStore, NodeKindCode, PreRank, SubtreeStep, SubtreeWalk};
