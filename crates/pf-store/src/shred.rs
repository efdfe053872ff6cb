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
//!
//! The shredder counts the document's statistics ([`ShredCounts`]) as
//! the rows go in; the finished store carries them and nothing scans it
//! for them.
//!
//! Node constructors write through the same stack: a [`FragmentBuilder`]
//! opens elements and merges text as the shredder does, and copies a
//! content subtree off the source store's columns row by row.

use pf_xml::{Document, NodeKind, RawAttribute, XmlSink};

use crate::stats::ShredCounts;
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
    /// The statistics, counted as the rows go in.
    counts: ShredCounts,
    /// The surrogates of recently interned names ([`Shredder::name`]),
    /// `u32::MAX` in a slot that holds none.
    recent_names: [u32; RECENT_NAMES],
}

/// Slots of [`Shredder::recent_names`].
const RECENT_NAMES: usize = 64;

impl Shredder {
    /// A shredder holding only the document node.
    pub(crate) fn new(name: String) -> Shredder {
        let mut shredder = Shredder {
            store: DocStore::empty(name),
            open: Vec::new(),
            text: String::new(),
            in_text: false,
            counts: ShredCounts::default(),
            recent_names: [u32::MAX; RECENT_NAMES],
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
        self.store.finish_shredding(self.counts);
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

    /// Open an element tagged with the name surrogate `tag`, carrying
    /// `attributes` in order.
    fn open_element<'a>(
        &mut self,
        tag: u32,
        attributes: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> PreRank {
        self.end_text();
        let pre = self.push(NodeKindCode::Element, tag);
        for (name, value) in attributes {
            let name = self.name(name);
            let store = &mut self.store;
            store.attr_owner.push(pre);
            let value = store.texts.intern(value);
            store.attr_name.push(name);
            store.attr_value.push(value);
            self.counts.attribute(name);
        }
        self.open.push(pre);
        pre
    }

    /// Append the subtree of `source` rooted at the element, comment or PI
    /// `root` at the current level, straight off the source columns in one
    /// pass: `size` and `kind` as they are, `level` shifted, names and
    /// content re-interned in document order (tag, then attribute names
    /// and values; PI target, then data) — what shredding the subtree's
    /// events would intern, and counted as shredding them would count.
    /// No recursion, so any depth copies on any thread's stack.
    fn append_subtree(&mut self, source: &DocStore, root: PreRank) {
        self.end_text();
        let base = self.store.size.len() as PreRank;
        let depth = self.open.len() as u32;
        let root_level = source.level_of(root);
        let last = root + source.size_of(root);
        let mut attr = source.attr_owner.partition_point(|&o| o < root);
        let mut pi = source.pi_target.partition_point(|&(p, _)| p < root);
        for p in root..=last {
            let i = p as usize;
            let copy = base + (p - root);
            let prop = match source.kind[i] {
                NodeKindCode::Element => {
                    let tag = self.name(source.qnames.resolve(source.prop[i]));
                    while source.attr_owner.get(attr) == Some(&p) {
                        let name = self.name(source.attr_name_of(attr));
                        let store = &mut self.store;
                        store.attr_owner.push(copy);
                        let value = store.texts.intern(source.attr_value_of(attr));
                        store.attr_name.push(name);
                        store.attr_value.push(value);
                        self.counts.attribute(name);
                        attr += 1;
                    }
                    tag
                }
                NodeKindCode::Pi => {
                    debug_assert_eq!(source.pi_target[pi].0, p, "every PI has its target");
                    let target = self.name(source.qnames.resolve(source.pi_target[pi].1));
                    self.store.pi_target.push((copy, target));
                    pi += 1;
                    self.store
                        .texts
                        .intern(source.texts.resolve(source.prop[i]))
                }
                NodeKindCode::Text | NodeKindCode::Comment => self
                    .store
                    .texts
                    .intern(source.texts.resolve(source.prop[i])),
                NodeKindCode::Document => unreachable!("a document node is never inside a subtree"),
            };
            let store = &mut self.store;
            store.size.push(source.size[i]);
            store.level.push(source.level[i] - root_level + depth);
            store.kind.push(source.kind[i]);
            store.prop.push(prop);
            self.counts.node(source.kind[i], prop);
        }
    }

    /// Intern the tag, attribute name or PI target `name`.  A document
    /// repeats a few dozen names over and over, so a small direct-mapped
    /// cache, slotted by the name's length and end bytes and checked
    /// against the dictionary, answers most of them without hashing.  A
    /// miss costs one comparison and replaces the slot.
    fn name(&mut self, name: &str) -> u32 {
        let bytes = name.as_bytes();
        let (first, last) = (bytes.first(), bytes.last());
        let slot = (bytes.len()
            ^ first.map_or(0, |&b| usize::from(b) << 1)
            ^ last.map_or(0, |&b| usize::from(b) << 3))
            % RECENT_NAMES;
        let id = self.recent_names[slot];
        if id != u32::MAX && self.store.qnames.resolve(id) == name {
            return id;
        }
        let id = self.store.qnames.intern(name);
        self.recent_names[slot] = id;
        id
    }

    /// Append a node row at the current level, and count it; its size is
    /// 0 until [`Shredder::close`] sets it.
    fn push(&mut self, kind: NodeKindCode, prop: u32) -> PreRank {
        self.counts.node(kind, prop);
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
        let tag = self.name(name);
        self.open_element(tag, attributes.iter().map(|a| (a.name, &*a.value)));
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
        let target = self.name(target);
        let prop = self.store.texts.intern(data);
        let pre = self.push(NodeKindCode::Pi, prop);
        self.store.pi_target.push((pre, target));
    }
}

/// A name interned into a [`FragmentBuilder`]'s dictionary: intern once,
/// open any number of elements or append any number of attributes with
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag(u32);

/// Writes a transient fragment — the nodes one constructor operator
/// builds — straight into `pre|size|level` columns, like MonetDB/XQuery's
/// transient fragments: the same encoding as a stored document, so the
/// result is an ordinary [`DocStore`].
///
/// It feeds the shredder's open-element stack and text-run merging
/// directly; there is no DOM and no replay.  Text merges with adjacent
/// text exactly as `pf_xml::DocumentBuilder::text` does (and `""` still
/// makes an empty text node), and [`FragmentBuilder::copy_subtree`] copies
/// a node of another store row by row.
pub struct FragmentBuilder {
    shredder: Shredder,
}

impl FragmentBuilder {
    /// A fragment holding only its document node, named `name`.
    pub fn new(name: impl Into<String>) -> FragmentBuilder {
        FragmentBuilder {
            shredder: Shredder::new(name.into()),
        }
    }

    /// Intern the element or attribute name `name`.
    pub fn tag(&mut self, name: &str) -> Tag {
        Tag(self.shredder.name(name))
    }

    /// Open an element carrying `attributes` (name, value pairs, kept in
    /// order, duplicates included); its content follows until
    /// [`FragmentBuilder::end_element`].  Returns the element's `pre`.
    pub fn start_element<'a>(
        &mut self,
        tag: Tag,
        attributes: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> PreRank {
        self.shredder.open_element(tag.0, attributes)
    }

    /// Append a row `name="value"` to the attribute table, owned by the
    /// fragment's document node, and return the row.  This is how an
    /// attribute constructor builds its attributes: no step reads the
    /// attributes of a document node, and the consumers address each row
    /// directly.  The table stays ordered by owner only while the
    /// fragment holds no element, so a fragment is either attributes or
    /// elements.
    pub fn attribute(&mut self, name: Tag, value: &str) -> usize {
        debug_assert_eq!(
            self.shredder.store.node_count(),
            1,
            "attribute rows belong to a fragment of attributes only"
        );
        let store = &mut self.shredder.store;
        let row = store.attr_owner.len();
        store.attr_owner.push(store.document_node());
        let value = store.texts.intern(value);
        store.attr_name.push(name.0);
        store.attr_value.push(value);
        self.shredder.counts.attribute(name.0);
        row
    }

    /// Close the innermost open element.
    pub fn end_element(&mut self) {
        debug_assert!(self.shredder.open.len() > 1, "no element is open");
        self.shredder.end_element();
    }

    /// Append text, merged with adjacent text into one text node.
    pub fn text(&mut self, text: &str) {
        self.shredder.text(text);
    }

    /// Append a deep copy of node `pre` of `source`.  A text node goes
    /// through [`FragmentBuilder::text`], so it merges with neighbouring
    /// text; a document node contributes its children; any other node is
    /// appended with its whole subtree straight off the source columns.
    pub fn copy_subtree(&mut self, source: &DocStore, pre: PreRank) {
        match source.kind_of(pre) {
            NodeKindCode::Text => self.text(source.content_of(pre)),
            NodeKindCode::Document => {
                let mut child = pre + 1;
                while child <= pre + source.size_of(pre) {
                    self.copy_subtree(source, child);
                    child += source.size_of(child) + 1;
                }
            }
            _ => self.shredder.append_subtree(source, pre),
        }
    }

    /// Close the fragment and return it as a store.
    pub fn finish(self) -> DocStore {
        self.shredder.finish()
    }
}

/// Formatted text goes where [`FragmentBuilder::text`] puts it: an atomic
/// is written into the pending text run without a string of its own.
impl std::fmt::Write for FragmentBuilder {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.text(text);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dictionary;
    use pf_xml::{Attribute, DocumentBuilder};
    use proptest::prelude::*;

    #[test]
    fn adjacent_text_and_cdata_runs_form_one_text_node() {
        let s = DocStore::from_xml("t", "<a>x<![CDATA[<y>]]>z<b/>w</a>").unwrap();
        // doc, a, text "x<y>z", b, text "w"
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.content_of(2), "x<y>z");
        assert_eq!(s.content_of(4), "w");
        assert_eq!(s.size, vec![4, 3, 0, 0, 0]);
    }

    /// Attribute rows of an attribute-only fragment: owned by the
    /// document node, in append order, names and values interned and
    /// counted, no node besides the document node.
    #[test]
    fn a_fragment_of_attributes_writes_rows_owned_by_the_document_node() {
        let mut fragment = FragmentBuilder::new("a");
        let n = fragment.tag("n");
        let m = fragment.tag("m");
        let rows: Vec<usize> = [(n, "1"), (m, ""), (n, "é ü"), (n, "1")]
            .into_iter()
            .map(|(name, value)| fragment.attribute(name, value))
            .collect();
        assert_eq!(rows, [0, 1, 2, 3]);
        let store = fragment.finish();
        assert_eq!(store.node_count(), 1);
        assert_eq!(store.attr_owner, [0; 4]);
        let pairs: Vec<(&str, &str)> = (0..4)
            .map(|row| (store.attr_name_of(row), store.attr_value_of(row)))
            .collect();
        assert_eq!(pairs, [("n", "1"), ("m", ""), ("n", "é ü"), ("n", "1")]);
        assert_eq!(store.texts.len(), 3, "equal values share a surrogate");
        assert_eq!(store.statistics().attributes_named("n"), 3);
        store.assert_counts_match_scans();
    }

    /// Formatted text joins the pending text run like `text` does.
    #[test]
    fn formatted_text_merges_with_the_text_run() {
        use std::fmt::Write;
        let mut fragment = FragmentBuilder::new("f");
        let e = fragment.tag("e");
        fragment.start_element(e, []);
        fragment.text("x");
        let (x, flag) = (2.5, true);
        write!(fragment, "{x} {flag}").unwrap();
        fragment.end_element();
        let store = fragment.finish();
        assert_eq!(store.subtree_to_xml(0), "<e>x2.5 true</e>");
        assert_eq!(store.node_count(), 3);
    }

    #[test]
    fn an_empty_cdata_section_is_an_empty_text_node() {
        let s = DocStore::from_xml("t", "<a><![CDATA[]]></a>").unwrap();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.kind_of(2), NodeKindCode::Text);
        assert_eq!(s.content_of(2), "");
    }

    /// The DOM oracle of [`FragmentBuilder::copy_subtree`]: a recursive
    /// deep copy through `DocumentBuilder`'s events.
    fn copy_into_dom(dom: &mut DocumentBuilder, store: &DocStore, pre: PreRank) {
        match store.kind_of(pre) {
            NodeKindCode::Document => {
                for child in store.children_of(pre) {
                    copy_into_dom(dom, store, child);
                }
            }
            NodeKindCode::Element => {
                let attributes = store
                    .attributes_of(pre)
                    .map(|i| Attribute {
                        name: store.attr_name_of(i).to_string(),
                        value: store.attr_value_of(i).to_string(),
                    })
                    .collect();
                dom.start_element(store.tag_of(pre), attributes);
                for child in store.children_of(pre) {
                    copy_into_dom(dom, store, child);
                }
                dom.end_element();
            }
            NodeKindCode::Text => {
                dom.text(store.content_of(pre));
            }
            NodeKindCode::Comment => {
                dom.comment(store.content_of(pre));
            }
            NodeKindCode::Pi => {
                dom.processing_instruction(store.pi_target_of(pre), store.content_of(pre));
            }
        }
    }

    /// Sources to copy from: a parsed document with every node kind, and
    /// a fragment holding an empty text node.
    fn sources() -> [DocStore; 2] {
        let parsed = DocStore::from_xml(
            "s.xml",
            "<r a=\"1\" b=\"&lt;\"><?pi some data?><!--c-->t<x k=\"v\" a=\"1\">u<y/>w<?q?></x>\
             <x><x><y k=\"\"/>deep</x></x><!---->z</r>",
        )
        .unwrap();
        let mut fragment = FragmentBuilder::new("f");
        let e = fragment.tag("e");
        fragment.start_element(e, [("k", "")]);
        fragment.text("");
        fragment.end_element();
        fragment.start_element(e, []);
        fragment.end_element();
        [parsed, fragment.finish()]
    }

    const TAGS: [&str; 3] = ["e", "x", "p:q"];
    const ATTRS: [(&str, &str); 4] = [("k", "v"), ("a", "1"), ("k", ""), ("n", "<&>")];
    const TEXTS: [&str; 4] = ["", "t", "u v", "é"];

    fn assert_same_store(a: &DocStore, b: &DocStore) {
        let entries = |d: &Dictionary| -> Vec<(u32, String)> {
            d.iter().map(|(id, v)| (id, v.to_string())).collect()
        };
        let attributes = |s: &DocStore| -> Vec<(u32, u32, u32)> {
            (0..s.attribute_count())
                .map(|i| (s.attr_owner[i], s.attr_name[i], s.attr_value[i]))
                .collect()
        };
        assert_eq!(a.size, b.size, "size");
        assert_eq!(a.level, b.level, "level");
        assert_eq!(a.kind, b.kind, "kind");
        assert_eq!(a.prop, b.prop, "prop");
        assert_eq!(attributes(a), attributes(b), "attribute table");
        assert_eq!(a.pi_target, b.pi_target, "PI targets");
        assert_eq!(entries(&a.qnames), entries(&b.qnames), "qnames");
        assert_eq!(entries(&a.texts), entries(&b.texts), "texts");
        assert_eq!(a.subtree_to_xml(0), b.subtree_to_xml(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// One event sequence — open (with up to three attributes,
        /// duplicates included), close, text, copy any node of a source —
        /// through a [`FragmentBuilder`] and through a DOM replayed by
        /// [`DocStore::from_document`]: the same columns, dictionaries,
        /// attribute table and PI targets.
        #[test]
        fn a_fragment_equals_its_replayed_dom(
            script in proptest::collection::vec((0u8..4, 0u8..64), 0..40),
        ) {
            let sources = sources();
            let mut fragment = FragmentBuilder::new("t");
            let mut dom = DocumentBuilder::new();
            for (op, arg) in script {
                let arg = arg as usize;
                match op {
                    0 => {
                        let tag = TAGS[arg % TAGS.len()];
                        let attributes: Vec<(&str, &str)> =
                            (0..arg / 4 % 4).map(|i| ATTRS[(arg + i) % ATTRS.len()]).collect();
                        let t = fragment.tag(tag);
                        fragment.start_element(t, attributes.iter().copied());
                        dom.start_element(
                            tag,
                            attributes
                                .iter()
                                .map(|&(name, value)| Attribute {
                                    name: name.into(),
                                    value: value.into(),
                                })
                                .collect(),
                        );
                    }
                    1 if dom.open_elements() > 0 => {
                        fragment.end_element();
                        dom.end_element();
                    }
                    1 => {}
                    2 => {
                        fragment.text(TEXTS[arg % TEXTS.len()]);
                        dom.text(TEXTS[arg % TEXTS.len()]);
                    }
                    _ => {
                        let source = &sources[arg % 2];
                        let pre = (arg / 2 % source.node_count()) as PreRank;
                        fragment.copy_subtree(source, pre);
                        copy_into_dom(&mut dom, source, pre);
                    }
                }
            }
            while dom.open_elements() > 0 {
                fragment.end_element();
                dom.end_element();
            }
            let direct = fragment.finish();
            let replayed = DocStore::from_document("t", &dom.finish());
            assert_same_store(&direct, &replayed);
            direct.assert_counts_match_scans();
            replayed.assert_counts_match_scans();
        }

        /// The shred pass counts what the scans of the finished store
        /// measure, on documents with every node kind, parsed and
        /// replayed from their DOM.
        #[test]
        fn shred_time_counts_equal_the_scans(
            script in proptest::collection::vec((0u8..7, 0u8..64), 0..60),
        ) {
            let xml = script_xml(&script);
            let parsed = DocStore::from_xml("t", &xml).unwrap();
            parsed.assert_counts_match_scans();
            let replayed = DocStore::from_document("t", &pf_xml::parse(&xml).unwrap());
            replayed.assert_counts_match_scans();
        }
    }

    /// A document from a script of events: open an element (with up to
    /// three distinct attributes), close one, text, CDATA, a comment or a
    /// PI.  Elements that hold only text, and tags used both ways, are
    /// common.
    fn script_xml(script: &[(u8, u8)]) -> String {
        let mut xml = String::from("<?top?><r>");
        let mut open = vec!["r"];
        for &(op, arg) in script {
            let arg = arg as usize;
            match op {
                0 | 1 => {
                    let tag = TAGS[arg % TAGS.len()];
                    xml.push('<');
                    xml.push_str(tag);
                    for (i, (_, value)) in ATTRS.iter().take(arg / 4 % 4).enumerate() {
                        xml.push_str(&format!(
                            " n{i}=\"{}\"",
                            pf_xml::escape::escape_attribute(value)
                        ));
                    }
                    xml.push('>');
                    open.push(tag);
                }
                2 if open.len() > 1 => {
                    xml.push_str(&format!("</{}>", open.pop().unwrap()));
                }
                2 | 3 => xml.push_str(&pf_xml::escape::escape_text(TEXTS[arg % TEXTS.len()])),
                4 => xml.push_str(&format!("<![CDATA[{}]]>", TEXTS[arg % TEXTS.len()])),
                5 => xml.push_str(&format!("<!--{}-->", TEXTS[arg % TEXTS.len()])),
                _ => xml.push_str(&format!("<?p{} {}?>", arg % 2, TEXTS[arg % TEXTS.len()])),
            }
        }
        while let Some(tag) = open.pop() {
            xml.push_str(&format!("</{tag}>"));
        }
        xml.push_str("<!--end-->");
        xml
    }

    /// The XMark auction document at scale 0.5 (1.7 MB): the shred pass
    /// counts what the scans measure.
    #[test]
    fn xmark_counts_equal_the_scans() {
        let xml = pf_xmark::generate(&pf_xmark::GeneratorConfig {
            scale: 0.5,
            seed: 20050831,
        });
        let store = DocStore::from_xml("auction.xml", &xml).unwrap();
        store.assert_counts_match_scans();
    }

    /// A copy goes row by row, without recursion: a 100 000-level chain
    /// copies on a 2 MiB thread, with its levels shifted.
    #[test]
    fn a_deep_subtree_copies_on_a_small_stack() {
        let n = 100_000;
        let xml = format!("{}<x a=\"1\"/>{}", "<x>".repeat(n), "</x>".repeat(n));
        let source = DocStore::from_xml("d", &xml).unwrap();
        let copy = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut fragment = FragmentBuilder::new("f");
                let r = fragment.tag("r");
                fragment.start_element(r, []);
                fragment.copy_subtree(&source, 2);
                fragment.end_element();
                fragment.finish()
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        // The document, <r>, and the n innermost of the n + 1 <x>s.
        let last = n as u32 + 1;
        assert_eq!(copy.node_count(), n + 2);
        assert_eq!(copy.level_of(2), 2);
        assert_eq!(copy.level_of(last), last);
        assert_eq!(copy.size_of(2), last - 2);
        assert_eq!(copy.attribute_of(last, "a"), Some("1"));
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
