//! # pf-xml — XML parsing and document model
//!
//! This crate is the lowest substrate of the Pathfinder reproduction: a
//! small, dependency-free, non-validating XML 1.0 parser together with an
//! arena-based document model (DOM) and a serializer.
//!
//! The paper ("Pathfinder: XQuery — The Relational Way", VLDB 2005) shreds
//! XML documents into a relational `pre|size|level` encoding, which needs
//! no more than the start-tag/end-tag stream.  The parser therefore
//! reports *events* to an [`XmlSink`]: the shredding in
//! [`pf-store`](../pf_store/index.html) consumes them directly, and
//! [`DocumentBuilder`] is the sink that builds the arena [`Document`] for
//! the navigational baseline engine (`pf-baseline`, the X-Hive stand-in).
//!
//! ## Supported XML subset
//!
//! * elements, attributes, text, comments, processing instructions, CDATA
//! * the five predefined entities plus decimal/hexadecimal character
//!   references
//! * an optional XML declaration and DOCTYPE line (skipped, not validated)
//! * namespace *prefixes* are preserved as part of the tag name; namespace
//!   resolution is not performed (XMark documents do not need it)
//!
//! ## Example
//!
//! ```
//! use pf_xml::parse;
//!
//! let doc = parse("<site><people><person id=\"p0\"/></people></site>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.tag(root), Some("site"));
//! assert_eq!(doc.descendants(root).count(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod escape;
pub mod parser;
pub mod serialize;
pub mod tree;

pub use error::{XmlError, XmlResult};
pub use parser::{parse, Parser, ParserOptions, RawAttribute, XmlSink};
pub use serialize::{serialize_document, serialize_node};
pub use tree::{Attribute, Document, DocumentBuilder, NodeId, NodeKind};
