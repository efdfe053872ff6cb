//! Storage accounting for the Section 3.1 experiment.
//!
//! The paper reports that "disk space requirements range between 147 %
//! (11 MB instance) and 125 % (110 MB instance) of the original XML
//! document", thanks to the compact `pre|size|level` encoding and surrogate
//! sharing of property values.  [`StorageStats`] computes the equivalent
//! break-down for an in-memory [`DocStore`].

use std::collections::HashMap;

use crate::axis::NodeTest;
use crate::store::{DocStore, NodeKindCode};

/// Byte-level breakdown of one encoded document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Size of the original XML serialization (0 if unknown).
    pub source_bytes: usize,
    /// Bytes used by the structural node table (`size`, `level`, `kind`,
    /// `prop` columns; `pre` is virtual and therefore free).
    pub node_table_bytes: usize,
    /// Bytes used by the attribute table.
    pub attribute_table_bytes: usize,
    /// Bytes used by the tag/attribute-name dictionary (payload + surrogate
    /// index entries).
    pub qname_dict_bytes: usize,
    /// Bytes used by the text dictionary.
    pub text_dict_bytes: usize,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of attributes.
    pub attributes: usize,
    /// Number of distinct tag/attribute names.
    pub distinct_qnames: usize,
    /// Number of distinct text/attribute values.
    pub distinct_texts: usize,
}

impl StorageStats {
    /// Measure `store`.
    pub fn measure(store: &DocStore) -> Self {
        let n = store.node_count();
        // size + level + prop are u32, kind is 1 byte; a PI adds its
        // (pre, target) side-table row.
        let node_table_bytes = n * (4 + 4 + 4 + 1) + store.pi_target.len() * (4 + 4);
        let attribute_table_bytes = store.attribute_count() * (4 + 4 + 4);
        // A dictionary entry costs its payload plus a 4-byte offset (this is
        // how MonetDB's string BATs account heap storage, approximately).
        let qname_dict_bytes = store.qnames.payload_bytes() + store.qnames.len() * 4;
        let text_dict_bytes = store.texts.payload_bytes() + store.texts.len() * 4;
        StorageStats {
            source_bytes: store.source_bytes,
            node_table_bytes,
            attribute_table_bytes,
            qname_dict_bytes,
            text_dict_bytes,
            nodes: n,
            attributes: store.attribute_count(),
            distinct_qnames: store.qnames.len(),
            distinct_texts: store.texts.len(),
        }
    }

    /// Total encoded size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.node_table_bytes
            + self.attribute_table_bytes
            + self.qname_dict_bytes
            + self.text_dict_bytes
    }

    /// Encoded size as a percentage of the original XML size (the number the
    /// paper reports); `None` when the source size is unknown.
    pub fn overhead_percent(&self) -> Option<f64> {
        (self.source_bytes > 0)
            .then(|| 100.0 * self.total_bytes() as f64 / self.source_bytes as f64)
    }
}

/// Cardinality statistics of one encoded document, the per-document input
/// of the optimizer's cost model (`pf-algebra`'s `CardEstimate`).
///
/// Where [`StorageStats`] accounts *bytes* (the Section 3.1 experiment),
/// this accounts *rows*: how many nodes a staircase step over this
/// document can produce, broken down by node kind, tag and attribute
/// name.  One O(nodes + attributes) scan per document; engines cache the
/// result per registered document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocStatistics {
    /// Total node count (the `pre|size|level` table height).
    pub nodes: usize,
    /// Element nodes.
    pub elements: usize,
    /// Text nodes.
    pub texts: usize,
    /// Comment nodes.
    pub comments: usize,
    /// Processing-instruction nodes.
    pub pis: usize,
    /// Attribute table height.
    pub attributes: usize,
    /// Element count per tag name.
    tag_elements: HashMap<String, usize>,
    /// Attribute count per attribute name.
    attr_names: HashMap<String, usize>,
}

impl DocStatistics {
    /// Measure `store` in one scan of the node and attribute tables.
    pub fn measure(store: &DocStore) -> Self {
        let mut stats = DocStatistics {
            nodes: store.node_count(),
            ..DocStatistics::default()
        };
        for pre in 0..store.node_count() as u32 {
            match store.kind_of(pre) {
                NodeKindCode::Element => {
                    stats.elements += 1;
                    let tag = store.tag_of(pre);
                    match stats.tag_elements.get_mut(tag) {
                        Some(count) => *count += 1,
                        None => {
                            stats.tag_elements.insert(tag.to_string(), 1);
                        }
                    }
                }
                NodeKindCode::Text => stats.texts += 1,
                NodeKindCode::Comment => stats.comments += 1,
                NodeKindCode::Pi => stats.pis += 1,
                NodeKindCode::Document => {}
            }
        }
        stats.attributes = store.attribute_count();
        for idx in 0..store.attribute_count() {
            let name = store.attr_name_of(idx);
            match stats.attr_names.get_mut(name) {
                Some(count) => *count += 1,
                None => {
                    stats.attr_names.insert(name.to_string(), 1);
                }
            }
        }
        stats
    }

    /// Elements carrying `tag` (0 if the tag never occurs).
    pub fn elements_tagged(&self, tag: &str) -> usize {
        self.tag_elements.get(tag).copied().unwrap_or(0)
    }

    /// Attributes named `name` (0 if the name never occurs).
    pub fn attributes_named(&self, name: &str) -> usize {
        self.attr_names.get(name).copied().unwrap_or(0)
    }

    /// How many nodes (or attribute-table entries, for the attribute
    /// tests) of this document satisfy `test` — the selectivity numerator
    /// of an axis step.
    pub fn matching(&self, test: &NodeTest) -> usize {
        match test {
            NodeTest::AnyNode => self.nodes,
            NodeTest::AnyElement => self.elements,
            NodeTest::Element(tag) => self.elements_tagged(tag),
            NodeTest::Text => self.texts,
            NodeTest::Comment => self.comments,
            NodeTest::Pi => self.pis,
            NodeTest::AnyAttribute => self.attributes,
            NodeTest::Attribute(name) => self.attributes_named(name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_all_components() {
        let xml = "<a x=\"1\"><b>hello</b><b>hello</b></a>";
        let store = DocStore::from_xml("t", xml).unwrap();
        let stats = StorageStats::measure(&store);
        assert_eq!(stats.source_bytes, xml.len());
        assert_eq!(stats.nodes, 6);
        assert_eq!(stats.attributes, 1);
        assert_eq!(stats.distinct_qnames, 3); // a, b, x
        assert_eq!(stats.distinct_texts, 2); // "hello" (shared), "1"
        assert!(stats.total_bytes() > 0);
        assert!(stats.overhead_percent().unwrap() > 0.0);
    }

    #[test]
    fn duplicate_text_shrinks_relative_size() {
        // Repeating the same text many times: the dictionary stores it once,
        // so overhead drops as the document grows — the effect footnote 1 of
        // the paper describes for large XMark instances.
        let small = format!("<a>{}</a>", "<b>same text value</b>".repeat(10));
        let large = format!("<a>{}</a>", "<b>same text value</b>".repeat(1000));
        let s1 = StorageStats::measure(&DocStore::from_xml("s", &small).unwrap());
        let s2 = StorageStats::measure(&DocStore::from_xml("l", &large).unwrap());
        assert!(s2.overhead_percent().unwrap() < s1.overhead_percent().unwrap());
    }

    #[test]
    fn overhead_unknown_without_source_size() {
        let doc = pf_xml::parse("<a/>").unwrap();
        let store = DocStore::from_document("t", &doc);
        assert_eq!(StorageStats::measure(&store).overhead_percent(), None);
    }

    #[test]
    fn doc_statistics_count_kinds_tags_and_attributes() {
        let xml = "<a x=\"1\" y=\"2\"><b>hi</b><b y=\"3\">ho</b><c/><!--note--></a>";
        let store = DocStore::from_xml("t", xml).unwrap();
        let stats = DocStatistics::measure(&store);
        assert_eq!(stats.nodes, store.node_count());
        assert_eq!(stats.elements, 4); // a, b, b, c
        assert_eq!(stats.texts, 2);
        assert_eq!(stats.comments, 1);
        assert_eq!(stats.attributes, 3);
        assert_eq!(stats.elements_tagged("b"), 2);
        assert_eq!(stats.elements_tagged("missing"), 0);
        assert_eq!(stats.attributes_named("y"), 2);
        assert_eq!(stats.matching(&NodeTest::AnyElement), 4);
        assert_eq!(stats.matching(&NodeTest::Element("c".into())), 1);
        assert_eq!(stats.matching(&NodeTest::Text), 2);
        assert_eq!(stats.matching(&NodeTest::AnyNode), stats.nodes);
        assert_eq!(stats.matching(&NodeTest::Attribute("x".into())), 1);
        assert_eq!(stats.matching(&NodeTest::AnyAttribute), 3);
    }
}
