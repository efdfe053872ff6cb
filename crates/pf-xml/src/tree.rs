//! Arena-based XML document model.
//!
//! Nodes are stored in a flat `Vec` in **document order** (the order in
//! which the parser encountered their start tags), which means the arena
//! index of a node is exactly its *pre-order rank* — the property the
//! XPath Accelerator encoding in `pf-store` relies on.

use crate::escape::{escape_attribute, escape_text};
use crate::parser::{RawAttribute, XmlSink};
use std::fmt;

/// Index of a node inside a [`Document`] arena.
///
/// The numeric value equals the node's pre-order rank within the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An attribute of an element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (including any namespace prefix).
    pub name: String,
    /// Attribute value, already entity-decoded.
    pub value: String,
}

/// The kind and payload of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The document root (exactly one per document, always `NodeId(0)`).
    Document,
    /// An element with tag name and attributes.
    Element {
        /// Tag name including any namespace prefix.
        tag: String,
        /// Attributes in document order.
        attributes: Vec<Attribute>,
    },
    /// A text node (entity-decoded).
    Text(String),
    /// A comment (`<!-- ... -->`).
    Comment(String),
    /// A processing instruction (`<?target data?>`).
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

impl NodeKind {
    /// `true` if this node is an element.
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// `true` if this node is a text node.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }
}

/// Internal node record: kind plus tree links.
#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Depth in the tree; the document node has level 0.
    pub(crate) level: u32,
}

/// An XML document: an arena of nodes in document order.
///
/// The root of the arena (`NodeId(0)`) is always a [`NodeKind::Document`]
/// node; well-formed documents have exactly one element child of the root.
#[derive(Debug, Clone, Default)]
pub struct Document {
    pub(crate) nodes: Vec<NodeData>,
}

impl Document {
    /// Create an empty document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeData {
                kind: NodeKind::Document,
                parent: None,
                children: Vec::new(),
                level: 0,
            }],
        }
    }

    /// The document node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The (first) element child of the document node, if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.root())
            .find(|&c| self.kind(c).is_element())
    }

    /// Total number of nodes including the document node.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the document contains only the document node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The kind of `node`.
    #[inline]
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.index()].kind
    }

    /// Tag name of `node` if it is an element.
    pub fn tag(&self, node: NodeId) -> Option<&str> {
        match self.kind(node) {
            NodeKind::Element { tag, .. } => Some(tag.as_str()),
            _ => None,
        }
    }

    /// Attributes of `node` (empty slice for non-elements).
    pub fn attributes(&self, node: NodeId) -> &[Attribute] {
        match self.kind(node) {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        }
    }

    /// Value of attribute `name` on `node`, if present.
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        self.attributes(node)
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Parent of `node` (`None` for the document node).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Depth of `node`; the document node has level 0.
    #[inline]
    pub fn level(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].level
    }

    /// Children of `node` in document order.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[node.index()].children.iter().copied()
    }

    /// Number of children of `node`.
    pub fn child_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()].children.len()
    }

    /// All proper descendants of `node` in document order.
    ///
    /// Because nodes are stored in document order and subtrees are
    /// contiguous, this is a simple index range scan — the same property
    /// the relational encoding exploits.
    pub fn descendants(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let start = node.index() + 1;
        let end = node.index() + 1 + self.subtree_size(node) as usize;
        (start..end).map(|i| NodeId(i as u32))
    }

    /// Number of proper descendants of `node` (the `size(v)` of the paper's
    /// `pre|size|level` encoding).
    pub fn subtree_size(&self, node: NodeId) -> u32 {
        // Descendants occupy the contiguous pre-order range
        // (pre(node), pre(node) + size(node)].  We compute it by walking to
        // the next node that is not a descendant.
        let level = self.level(node);
        let mut end = node.index() + 1;
        while end < self.nodes.len() && self.nodes[end].level > level {
            end += 1;
        }
        (end - node.index() - 1) as u32
    }

    /// Ancestors of `node`, nearest first (excluding `node` itself).
    pub fn ancestors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut current = self.parent(node);
        std::iter::from_fn(move || {
            let next = current?;
            current = self.parent(next);
            Some(next)
        })
    }

    /// Following siblings of `node` in document order.
    pub fn following_siblings(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let siblings: Vec<NodeId> = match self.parent(node) {
            Some(p) => self.nodes[p.index()].children.clone(),
            None => Vec::new(),
        };
        let pos = siblings.iter().position(|&s| s == node);
        let rest = match pos {
            Some(i) => siblings[i + 1..].to_vec(),
            None => Vec::new(),
        };
        rest.into_iter()
    }

    /// Preceding siblings of `node` in *reverse* document order.
    pub fn preceding_siblings(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let siblings: Vec<NodeId> = match self.parent(node) {
            Some(p) => self.nodes[p.index()].children.clone(),
            None => Vec::new(),
        };
        let pos = siblings.iter().position(|&s| s == node).unwrap_or(0);
        let mut before = siblings[..pos].to_vec();
        before.reverse();
        before.into_iter()
    }

    /// The string value of a node per the XQuery data model: the
    /// concatenation of all descendant-or-self text nodes.
    pub fn string_value(&self, node: NodeId) -> String {
        match self.kind(node) {
            NodeKind::Text(t) => t.clone(),
            NodeKind::Comment(c) => c.clone(),
            NodeKind::ProcessingInstruction { data, .. } => data.clone(),
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                if let NodeKind::Text(t) = self.kind(node) {
                    out.push_str(t);
                }
                for d in self.descendants(node) {
                    if let NodeKind::Text(t) = self.kind(d) {
                        out.push_str(t);
                    }
                }
                out
            }
        }
    }

    /// Iterate over every node in document order (including the document
    /// node itself).
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Serialize the subtree rooted at `node` to XML text.
    pub fn node_to_xml(&self, node: NodeId) -> String {
        let mut out = String::new();
        self.write_node(node, &mut out);
        out
    }

    fn write_node(&self, node: NodeId, out: &mut String) {
        match self.kind(node) {
            NodeKind::Document => {
                for c in self.children(node) {
                    self.write_node(c, out);
                }
            }
            NodeKind::Element { tag, attributes } => {
                out.push('<');
                out.push_str(tag);
                for attr in attributes {
                    out.push(' ');
                    out.push_str(&attr.name);
                    out.push_str("=\"");
                    out.push_str(&escape_attribute(&attr.value));
                    out.push('"');
                }
                if self.child_count(node) == 0 {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for c in self.children(node) {
                        self.write_node(c, out);
                    }
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
            NodeKind::Text(t) => out.push_str(&escape_text(t)),
            NodeKind::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            NodeKind::ProcessingInstruction { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
}

/// Incremental builder: the parser's DOM sink, and how the navigational
/// baseline evaluates node-constructing XQuery expressions
/// (`element {} {}`, `text {}`).
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    /// Start building a fresh document.
    pub fn new() -> Self {
        let doc = Document::new();
        DocumentBuilder {
            doc,
            stack: vec![NodeId(0)],
        }
    }

    fn push_node(&mut self, kind: NodeKind) -> NodeId {
        let parent = *self.stack.last().expect("builder stack never empty");
        let level = self.doc.nodes[parent.index()].level + 1;
        let id = NodeId(self.doc.nodes.len() as u32);
        self.doc.nodes.push(NodeData {
            kind,
            parent: Some(parent),
            children: Vec::new(),
            level,
        });
        self.doc.nodes[parent.index()].children.push(id);
        id
    }

    /// Open a new element; subsequent nodes become its children until
    /// [`end_element`](Self::end_element) is called.
    pub fn start_element(&mut self, tag: impl Into<String>, attributes: Vec<Attribute>) -> NodeId {
        let id = self.push_node(NodeKind::Element {
            tag: tag.into(),
            attributes,
        });
        self.stack.push(id);
        id
    }

    /// Close the most recently opened element.
    pub fn end_element(&mut self) {
        assert!(self.stack.len() > 1, "end_element without matching start");
        self.stack.pop();
    }

    /// Append a text node to the current element.  Adjacent text nodes are
    /// merged, as required by the XQuery data model.
    pub fn text(&mut self, value: impl Into<String>) -> NodeId {
        let value = value.into();
        let parent = *self.stack.last().expect("builder stack never empty");
        if let Some(&last) = self.doc.nodes[parent.index()].children.last() {
            if let NodeKind::Text(existing) = &mut self.doc.nodes[last.index()].kind {
                existing.push_str(&value);
                return last;
            }
        }
        self.push_node(NodeKind::Text(value))
    }

    /// Append a comment node to the current element.
    pub fn comment(&mut self, value: impl Into<String>) -> NodeId {
        self.push_node(NodeKind::Comment(value.into()))
    }

    /// Append a processing-instruction node to the current element.
    pub fn processing_instruction(
        &mut self,
        target: impl Into<String>,
        data: impl Into<String>,
    ) -> NodeId {
        self.push_node(NodeKind::ProcessingInstruction {
            target: target.into(),
            data: data.into(),
        })
    }

    /// Number of still-open elements (0 when only the document is open).
    pub fn open_elements(&self) -> usize {
        self.stack.len() - 1
    }

    /// Finish building and return the document.
    pub fn finish(self) -> Document {
        assert_eq!(
            self.stack.len(),
            1,
            "finish() called with unclosed elements"
        );
        self.doc
    }
}

/// The parser's DOM sink: what [`crate::parse`] builds.
impl XmlSink for DocumentBuilder {
    fn start_element(&mut self, name: &str, attributes: &[RawAttribute<'_>]) {
        let attributes = attributes
            .iter()
            .map(|a| Attribute {
                name: a.name.to_string(),
                value: a.value.clone().into_owned(),
            })
            .collect();
        DocumentBuilder::start_element(self, name, attributes);
    }

    fn end_element(&mut self) {
        DocumentBuilder::end_element(self);
    }

    fn text(&mut self, text: &str) {
        DocumentBuilder::text(self, text);
    }

    fn comment(&mut self, text: &str) {
        DocumentBuilder::comment(self, text);
    }

    fn processing_instruction(&mut self, target: &str, data: &str) {
        DocumentBuilder::processing_instruction(self, target, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        let mut b = DocumentBuilder::new();
        b.start_element("site", vec![]);
        b.start_element(
            "person",
            vec![Attribute {
                name: "id".into(),
                value: "p1".into(),
            }],
        );
        b.text("Alice");
        b.end_element();
        b.start_element("person", vec![]);
        b.text("Bob");
        b.end_element();
        b.end_element();
        b.finish()
    }

    #[test]
    fn builder_produces_document_order() {
        let doc = sample();
        assert_eq!(doc.len(), 6); // doc, site, person, text, person, text
        let root = doc.root_element().unwrap();
        assert_eq!(doc.tag(root), Some("site"));
        assert_eq!(doc.level(root), 1);
        assert_eq!(doc.subtree_size(root), 4);
    }

    #[test]
    fn attribute_lookup() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        let person = doc.children(root).next().unwrap();
        assert_eq!(doc.attribute(person, "id"), Some("p1"));
        assert_eq!(doc.attribute(person, "missing"), None);
    }

    #[test]
    fn descendants_are_contiguous() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        let descendants: Vec<_> = doc.descendants(root).collect();
        assert_eq!(descendants.len(), 4);
        // Pre-order ranks are consecutive.
        for w in descendants.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
    }

    #[test]
    fn string_value_concatenates_text() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.string_value(root), "AliceBob");
    }

    #[test]
    fn ancestors_nearest_first() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        let person = doc.children(root).next().unwrap();
        let text = doc.children(person).next().unwrap();
        let ancestors: Vec<_> = doc.ancestors(text).collect();
        assert_eq!(ancestors, vec![person, root, doc.root()]);
    }

    #[test]
    fn sibling_axes() {
        let doc = sample();
        let root = doc.root_element().unwrap();
        let kids: Vec<_> = doc.children(root).collect();
        let following: Vec<_> = doc.following_siblings(kids[0]).collect();
        assert_eq!(following, vec![kids[1]]);
        let preceding: Vec<_> = doc.preceding_siblings(kids[1]).collect();
        assert_eq!(preceding, vec![kids[0]]);
    }

    #[test]
    fn adjacent_text_nodes_merge() {
        let mut b = DocumentBuilder::new();
        b.start_element("a", vec![]);
        b.text("foo");
        b.text("bar");
        b.end_element();
        let doc = b.finish();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.child_count(a), 1);
        assert_eq!(doc.string_value(a), "foobar");
    }

    #[test]
    fn node_to_xml_roundtrip_shape() {
        let doc = sample();
        let xml = doc.node_to_xml(doc.root());
        assert_eq!(
            xml,
            "<site><person id=\"p1\">Alice</person><person>Bob</person></site>"
        );
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert!(doc.root_element().is_none());
        assert_eq!(doc.subtree_size(doc.root()), 0);
    }
}
