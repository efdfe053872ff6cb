//! Shredding: parse events in, `pre|size|level` columns out.
//!
//! The encoding needs nothing but the start-tag/end-tag stream: a node's
//! `pre` is the number of nodes seen before it, its `level` the number of
//! elements open around it, and an element's `size` is known the moment
//! its end tag arrives (everything appended since its start tag).  So the
//! [`Shredder`] is an [`XmlSink`] with a stack of open elements, fed
//! straight by the parser ([`DocStore::from_xml`] builds no DOM) or by a
//! replay of an existing [`Document`] ([`DocStore::from_document`]).  One
//! code path, either way.

use pf_xml::{Document, NodeKind, RawAttribute, XmlSink};

use crate::store::{DocStore, NodeKindCode, PreRank};

/// Builds one [`DocStore`] from parse events.
pub(crate) struct Shredder {
    store: DocStore,
    /// Pre ranks of the open elements, the document node at the bottom.
    open: Vec<PreRank>,
    /// Character data seen since the last other event: adjacent text and
    /// CDATA runs form one text node, interned when the run ends — the
    /// merge `DocumentBuilder::text` performs on the DOM.
    text: String,
    /// Whether `text` holds a run (possibly empty: `<![CDATA[]]>`).
    in_text: bool,
}

impl Shredder {
    /// A shredder holding only the document node.
    pub(crate) fn new(name: String) -> Shredder {
        let mut shredder = Shredder {
            store: DocStore::empty(name),
            open: Vec::new(),
            text: String::new(),
            in_text: false,
        };
        let document = shredder.push(NodeKindCode::Document, u32::MAX);
        shredder.open.push(document);
        shredder
    }

    /// Close the document node and return the store.
    pub(crate) fn finish(mut self) -> DocStore {
        self.end_text();
        while !self.open.is_empty() {
            self.close();
        }
        self.store.finish_shredding();
        self.store
    }

    /// Shred `doc` by replaying it as parse events.
    pub(crate) fn replay(mut self, doc: &Document) -> DocStore {
        let mut attributes: Vec<RawAttribute<'_>> = Vec::new();
        for node in doc.all_nodes().skip(1) {
            // Close the elements this node is not inside of.
            while self.open.len() > doc.level(node) as usize {
                self.end_element();
            }
            match doc.kind(node) {
                NodeKind::Element {
                    tag,
                    attributes: attrs,
                } => {
                    attributes.clear();
                    attributes.extend(attrs.iter().map(|a| RawAttribute {
                        name: &a.name,
                        value: a.value.as_str().into(),
                    }));
                    self.start_element(tag, &attributes);
                }
                NodeKind::Text(text) => self.text(text),
                NodeKind::Comment(text) => self.comment(text),
                NodeKind::ProcessingInstruction { target, data } => {
                    self.processing_instruction(target, data)
                }
                NodeKind::Document => unreachable!("only node 0 is the document node"),
            }
        }
        self.finish()
    }

    /// Append a node row at the current level; its size is 0 until
    /// [`Shredder::close`] sets it.
    fn push(&mut self, kind: NodeKindCode, prop: u32) -> PreRank {
        let store = &mut self.store;
        let pre = store.size.len() as PreRank;
        store.size.push(0);
        store.level.push(self.open.len() as u32);
        store.kind.push(kind);
        store.prop.push(prop);
        pre
    }

    /// Pop the innermost open node; its subtree is everything after it.
    fn close(&mut self) {
        let pre = self.open.pop().expect("an open node to close");
        let end = self.store.size.len() as PreRank;
        self.store.size[pre as usize] = end - pre - 1;
    }

    /// Turn a pending character-data run into its text node.
    fn end_text(&mut self) {
        if !self.in_text {
            return;
        }
        let prop = self.store.texts.intern(&self.text);
        self.push(NodeKindCode::Text, prop);
        self.text.clear();
        self.in_text = false;
    }
}

impl XmlSink for Shredder {
    fn start_element(&mut self, name: &str, attributes: &[RawAttribute<'_>]) {
        self.end_text();
        let tag = self.store.qnames.intern(name);
        let pre = self.push(NodeKindCode::Element, tag);
        let store = &mut self.store;
        for attr in attributes {
            store.attr_owner.push(pre);
            let name = store.qnames.intern(attr.name);
            let value = store.texts.intern(&attr.value);
            store.attr_name.push(name);
            store.attr_value.push(value);
        }
        self.open.push(pre);
    }

    fn end_element(&mut self) {
        self.end_text();
        self.close();
    }

    fn text(&mut self, text: &str) {
        self.text.push_str(text);
        self.in_text = true;
    }

    fn comment(&mut self, text: &str) {
        self.end_text();
        let prop = self.store.texts.intern(text);
        self.push(NodeKindCode::Comment, prop);
    }

    fn processing_instruction(&mut self, target: &str, data: &str) {
        self.end_text();
        // The target is a name, the data is text: `prop` holds the data,
        // the side table the target.
        let target = self.store.qnames.intern(target);
        let prop = self.store.texts.intern(data);
        let pre = self.push(NodeKindCode::Pi, prop);
        self.store.pi_target.push((pre, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_text_and_cdata_runs_form_one_text_node() {
        let s = DocStore::from_xml("t", "<a>x<![CDATA[<y>]]>z<b/>w</a>").unwrap();
        // doc, a, text "x<y>z", b, text "w"
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.content_of(2), "x<y>z");
        assert_eq!(s.content_of(4), "w");
        assert_eq!(s.size, vec![4, 3, 0, 0, 0]);
    }

    #[test]
    fn an_empty_cdata_section_is_an_empty_text_node() {
        let s = DocStore::from_xml("t", "<a><![CDATA[]]></a>").unwrap();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.kind_of(2), NodeKindCode::Text);
        assert_eq!(s.content_of(2), "");
    }

    #[test]
    fn replaying_a_document_gives_the_same_columns() {
        let xml = "<a x=\"1\">t<!--c--><?p d?><b y=\"&amp;\">u<![CDATA[v]]></b></a>";
        let streamed = DocStore::from_xml("t", xml).unwrap();
        let replayed = DocStore::from_document("t", &pf_xml::parse(xml).unwrap());
        assert_eq!(streamed.size, replayed.size);
        assert_eq!(streamed.level, replayed.level);
        assert_eq!(streamed.kind, replayed.kind);
        assert_eq!(streamed.prop, replayed.prop);
        assert_eq!(streamed.attr_value, replayed.attr_value);
        let texts = |s: &DocStore| {
            s.texts
                .iter()
                .map(|(_, t)| t.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&streamed), texts(&replayed));
    }
}
