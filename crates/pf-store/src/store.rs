//! The `pre|size|level` document store.
//!
//! Column-oriented node and attribute tables of one shredded document,
//! built by the shredder straight from parse events.  The row index of the
//! node table *is* the node's pre-order rank, so no explicit `pre` column
//! is materialized — this mirrors MonetDB's virtual object identifiers,
//! which make the row-numbering operator a no-cost operator (Section 2,
//! "MonetDB").

use std::sync::{Arc, OnceLock};

use crate::dict::Dictionary;
use crate::index::{
    build_attribute_values, build_element_values, build_text_index, IndexTable, TextIndex,
    ValueIndex,
};
use crate::shred::Shredder;
use pf_xml::Document;

/// A node reference: the pre-order rank of the node within its document.
///
/// Rank 0 is always the document node.  Because `pf_xml::Document` stores
/// its arena in document order, a `PreRank` is numerically identical to the
/// corresponding [`pf_xml::NodeId`] index.
pub type PreRank = u32;

/// Compact node-kind code stored in the `kind` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NodeKindCode {
    /// The document node.
    Document = 0,
    /// An element node.
    Element = 1,
    /// A text node.
    Text = 2,
    /// A comment node.
    Comment = 3,
    /// A processing-instruction node.
    Pi = 4,
}

/// Column-oriented encoding of one XML document.
///
/// Columns (all of equal length `n` = number of nodes):
///
/// | column  | meaning                                                |
/// |---------|--------------------------------------------------------|
/// | `size`  | number of nodes in the subtree below the node          |
/// | `level` | distance from the document node                        |
/// | `kind`  | [`NodeKindCode`]                                        |
/// | `prop`  | surrogate of the tag name (elements) or content (text, comments, PIs); `u32::MAX` for the document node |
///
/// plus an attribute table `attr_owner|attr_name|attr_value`, the
/// processing-instruction targets `pi_target` and the two shared
/// dictionaries.
#[derive(Debug, Clone)]
pub struct DocStore {
    /// Name under which the document was loaded (the `fn:doc()` URI).
    pub name: String,
    /// `size(v)` column.
    pub size: Vec<u32>,
    /// `level(v)` column.
    pub level: Vec<u32>,
    /// Node kind column.
    pub kind: Vec<NodeKindCode>,
    /// Property surrogate column.
    pub prop: Vec<u32>,
    /// Attribute table: pre rank of the owning element.
    pub attr_owner: Vec<PreRank>,
    /// Attribute table: surrogate of the attribute name (in `qnames`).
    pub attr_name: Vec<u32>,
    /// Attribute table: surrogate of the attribute value (in `texts`).
    pub attr_value: Vec<u32>,
    /// Processing-instruction targets: `(pre, surrogate in qnames)` of
    /// every PI node, ascending by `pre` (a PI's `prop` is its data).
    pub pi_target: Vec<(PreRank, u32)>,
    /// Shared dictionary for tag and attribute names.
    pub qnames: Dictionary,
    /// Shared dictionary for text content, comment content, PI data and
    /// attribute values.
    pub texts: Dictionary,
    /// Size of the original XML serialization in bytes (for the storage
    /// overhead experiment); 0 if unknown.
    pub source_bytes: usize,
    /// The content indexes, each built when a probe first names it (see
    /// [`crate::index`]).  Clones of the store share the builds.
    indexes: Arc<IndexTable>,
}

impl DocStore {
    /// A store holding no node yet (the shredder's starting point).
    pub(crate) fn empty(name: String) -> DocStore {
        DocStore {
            name,
            size: Vec::new(),
            level: Vec::new(),
            kind: Vec::new(),
            prop: Vec::new(),
            attr_owner: Vec::new(),
            attr_name: Vec::new(),
            attr_value: Vec::new(),
            pi_target: Vec::new(),
            qnames: Dictionary::new(),
            texts: Dictionary::new(),
            source_bytes: 0,
            indexes: Arc::default(),
        }
    }

    /// Size the per-name index table once the name dictionary is final.
    pub(crate) fn finish_shredding(&mut self) {
        self.indexes = Arc::new(IndexTable::new(self.qnames.len()));
    }

    /// Shred `doc` into its relational encoding (by replaying it through
    /// the same shredder [`DocStore::from_xml`] feeds from the parser).
    pub fn from_document(name: impl Into<String>, doc: &Document) -> Self {
        Shredder::new(name.into()).replay(doc)
    }

    /// Shred an XML string straight from its parse events — no DOM is
    /// built — remembering its serialized size.
    pub fn from_xml(name: impl Into<String>, xml: &str) -> Result<Self, pf_xml::XmlError> {
        let mut shredder = Shredder::new(name.into());
        pf_xml::Parser::new(xml).parse_into(&mut shredder)?;
        let mut store = shredder.finish();
        store.source_bytes = xml.len();
        Ok(store)
    }

    /// The text index, built on first use (at most once per store and
    /// its clones, however many sessions probe concurrently).
    pub fn text_index(&self) -> &TextIndex {
        self.indexes.text.get_or_init(|| build_text_index(self))
    }

    /// The value index of the elements tagged `tag`, built on first use.
    /// `None` when no element carries the tag, when one of them has
    /// element, comment or PI children (an index must cover every element
    /// of its tag), or when the name never occurs — that case builds
    /// nothing.
    pub fn element_index(&self, tag: &str) -> Option<&ValueIndex> {
        let name = self.qnames.lookup(tag)?;
        self.indexes
            .elements
            .get(name as usize)?
            .get_or_init(|| build_element_values(self, Some(name)).remove(&name))
            .as_ref()
    }

    /// The value index of the attributes named `name`, built on first
    /// use; `None` when no attribute has that name.
    pub fn attribute_index(&self, name: &str) -> Option<&ValueIndex> {
        let name = self.qnames.lookup(name)?;
        self.indexes
            .attributes
            .get(name as usize)?
            .get_or_init(|| build_attribute_values(self, Some(name)).remove(&name))
            .as_ref()
    }

    /// The indexes built (or found absent) so far: `text`, element tags,
    /// and attribute names prefixed with `@`.
    pub fn built_indexes(&self) -> Vec<String> {
        let table = &self.indexes;
        let built = |cells: &[OnceLock<Option<ValueIndex>>], prefix: &str| -> Vec<String> {
            cells
                .iter()
                .enumerate()
                .filter(|(_, cell)| cell.get().is_some())
                .map(|(name, _)| format!("{prefix}{}", self.qnames.resolve(name as u32)))
                .collect()
        };
        let text = table.text.get().map(|_| "text".to_string());
        text.into_iter()
            .chain(built(&table.elements, ""))
            .chain(built(&table.attributes, "@"))
            .collect()
    }

    /// Number of nodes (including the document node).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.size.len()
    }

    /// Number of attributes in the attribute table.
    #[inline]
    pub fn attribute_count(&self) -> usize {
        self.attr_owner.len()
    }

    /// The document node's pre rank (always 0).
    #[inline]
    pub fn document_node(&self) -> PreRank {
        0
    }

    /// Pre rank of the root element, if any.
    pub fn root_element(&self) -> Option<PreRank> {
        (1..self.node_count() as u32).find(|&p| {
            self.kind[p as usize] == NodeKindCode::Element && self.level[p as usize] == 1
        })
    }

    /// Node kind of `pre`.
    #[inline]
    pub fn kind_of(&self, pre: PreRank) -> NodeKindCode {
        self.kind[pre as usize]
    }

    /// `size(v)` of `pre`.
    #[inline]
    pub fn size_of(&self, pre: PreRank) -> u32 {
        self.size[pre as usize]
    }

    /// `level(v)` of `pre`.
    #[inline]
    pub fn level_of(&self, pre: PreRank) -> u32 {
        self.level[pre as usize]
    }

    /// Tag name of an element node (panics if `pre` is not an element).
    pub fn tag_of(&self, pre: PreRank) -> &str {
        debug_assert_eq!(self.kind_of(pre), NodeKindCode::Element);
        self.qnames.resolve(self.prop[pre as usize])
    }

    /// Tag-name surrogate of an element, or `None` for other kinds.
    pub fn tag_surrogate(&self, pre: PreRank) -> Option<u32> {
        (self.kind_of(pre) == NodeKindCode::Element).then(|| self.prop[pre as usize])
    }

    /// Content of a text / comment / PI node.
    pub fn content_of(&self, pre: PreRank) -> &str {
        self.texts.resolve(self.prop[pre as usize])
    }

    /// Target of a processing-instruction node (`""` for other kinds).
    pub fn pi_target_of(&self, pre: PreRank) -> &str {
        self.pi_target
            .binary_search_by_key(&pre, |&(p, _)| p)
            .map_or("", |i| self.qnames.resolve(self.pi_target[i].1))
    }

    /// Parent of `pre`: the nearest preceding node whose level is one less.
    pub fn parent_of(&self, pre: PreRank) -> Option<PreRank> {
        if pre == 0 {
            return None;
        }
        let target = self.level[pre as usize].checked_sub(1)?;
        (0..pre).rev().find(|&p| self.level[p as usize] == target)
    }

    /// Children of `pre` in document order (elements, text, comments, PIs).
    pub fn children_of(&self, pre: PreRank) -> Vec<PreRank> {
        let level = self.level[pre as usize];
        let end = pre + self.size[pre as usize];
        let mut out = Vec::new();
        let mut p = pre + 1;
        while p <= end {
            if self.level[p as usize] == level + 1 {
                out.push(p);
                p += self.size[p as usize] + 1;
            } else {
                // Should not happen: the first node after a child's subtree is
                // either the next child or past `end`.
                p += 1;
            }
        }
        out
    }

    /// The XQuery string value of `pre`: concatenation of all text content
    /// in its subtree (or its own content for text/comment/PI nodes).
    pub fn string_value(&self, pre: PreRank) -> String {
        let mut out = String::new();
        self.push_string_value(pre, &mut out);
        out
    }

    /// Append the string value of `pre` (see [`DocStore::string_value`])
    /// to `out`, read in place off the text dictionary.
    pub fn push_string_value(&self, pre: PreRank, out: &mut String) {
        match self.kind_of(pre) {
            NodeKindCode::Text | NodeKindCode::Comment | NodeKindCode::Pi => {
                out.push_str(self.content_of(pre))
            }
            NodeKindCode::Document | NodeKindCode::Element => {
                for p in pre + 1..=pre + self.size[pre as usize] {
                    if self.kind_of(p) == NodeKindCode::Text {
                        out.push_str(self.content_of(p));
                    }
                }
            }
        }
    }

    /// Attribute value of `name` on element `pre`, if present.
    pub fn attribute_of(&self, pre: PreRank, name: &str) -> Option<&str> {
        let name_id = self.qnames.lookup(name)?;
        self.attributes_of(pre)
            .find(|&i| self.attr_name[i] == name_id)
            .map(|i| self.texts.resolve(self.attr_value[i]))
    }

    /// Indices into the attribute table of all attributes owned by `pre`.
    pub fn attributes_of(&self, pre: PreRank) -> impl Iterator<Item = usize> + '_ {
        // The attribute table is built in document order of owners, so the
        // rows of one owner are contiguous: two binary searches bound them.
        let start = self.attr_owner.partition_point(|&o| o < pre);
        let end = self.attr_owner.partition_point(|&o| o <= pre);
        start..end
    }

    /// Attribute name for attribute-table row `idx`.
    pub fn attr_name_of(&self, idx: usize) -> &str {
        self.qnames.resolve(self.attr_name[idx])
    }

    /// Attribute value for attribute-table row `idx`.
    pub fn attr_value_of(&self, idx: usize) -> &str {
        self.texts.resolve(self.attr_value[idx])
    }

    /// Serialize the subtree rooted at `pre` back to XML text.
    pub fn subtree_to_xml(&self, pre: PreRank) -> String {
        let mut out = String::new();
        self.write_subtree_xml(pre, &mut out)
            .expect("writing into a String cannot fail");
        out
    }

    /// Stream the subtree rooted at `pre` as XML into any
    /// [`std::fmt::Write`] sink — the serializer behind
    /// [`DocStore::subtree_to_xml`], exposed so result serialization can
    /// write straight out of the store without an intermediate string per
    /// node.
    ///
    /// Walks the subtree with [`DocStore::walk_subtree`], so a subtree of
    /// any depth serializes on any thread's stack.
    pub fn write_subtree_xml<W: std::fmt::Write + ?Sized>(
        &self,
        pre: PreRank,
        out: &mut W,
    ) -> std::fmt::Result {
        for step in self.walk_subtree(pre) {
            let p = match step {
                SubtreeStep::End(element) => {
                    if self.size_of(element) > 0 {
                        out.write_str("</")?;
                        out.write_str(self.tag_of(element))?;
                        out.write_char('>')?;
                    }
                    continue;
                }
                SubtreeStep::Node(p) => p,
            };
            match self.kind_of(p) {
                NodeKindCode::Document => {}
                NodeKindCode::Element => {
                    out.write_char('<')?;
                    out.write_str(self.tag_of(p))?;
                    for i in self.attributes_of(p) {
                        out.write_char(' ')?;
                        out.write_str(self.attr_name_of(i))?;
                        out.write_str("=\"")?;
                        out.write_str(&pf_xml::escape::escape_attribute(self.attr_value_of(i)))?;
                        out.write_char('"')?;
                    }
                    out.write_str(if self.size_of(p) == 0 { "/>" } else { ">" })?;
                }
                NodeKindCode::Text => {
                    out.write_str(&pf_xml::escape::escape_text(self.content_of(p)))?
                }
                NodeKindCode::Comment => {
                    out.write_str("<!--")?;
                    out.write_str(self.content_of(p))?;
                    out.write_str("-->")?;
                }
                NodeKindCode::Pi => {
                    // As `pf_xml::Document` writes it: `<?target?>` or
                    // `<?target data?>`.
                    out.write_str("<?")?;
                    out.write_str(self.pi_target_of(p))?;
                    let data = self.content_of(p);
                    if !data.is_empty() {
                        out.write_char(' ')?;
                        out.write_str(data)?;
                    }
                    out.write_str("?>")?;
                }
            }
        }
        Ok(())
    }

    /// The subtree rooted at `pre` in document order: every node, and
    /// after the last node inside an element, that element's end.  One
    /// pass over `pre ..= pre + size` with a stack of open elements — no
    /// recursion, so a subtree of any depth can be walked on any thread's
    /// stack.
    pub fn walk_subtree(&self, pre: PreRank) -> SubtreeWalk<'_> {
        SubtreeWalk {
            store: self,
            next: pre,
            last: pre + self.size_of(pre),
            open: Vec::new(),
        }
    }
}

/// One step of [`DocStore::walk_subtree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtreeStep {
    /// A node, in document order.
    Node(PreRank),
    /// The end of an element: every node inside it has been visited.
    End(PreRank),
}

/// The iterator behind [`DocStore::walk_subtree`].
#[derive(Debug)]
pub struct SubtreeWalk<'s> {
    store: &'s DocStore,
    /// The next node to visit.
    next: PreRank,
    /// The last node of the subtree.
    last: PreRank,
    /// The elements visited whose end is not reported yet.
    open: Vec<PreRank>,
}

impl Iterator for SubtreeWalk<'_> {
    type Item = SubtreeStep;

    fn next(&mut self) -> Option<SubtreeStep> {
        if let Some(&element) = self.open.last() {
            if self.next > element + self.store.size_of(element) {
                self.open.pop();
                return Some(SubtreeStep::End(element));
            }
        }
        if self.next > self.last {
            return None;
        }
        let node = self.next;
        self.next += 1;
        if self.store.kind_of(node) == NodeKindCode::Element {
            self.open.push(node);
        }
        Some(SubtreeStep::Node(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(xml: &str) -> DocStore {
        DocStore::from_xml("test.xml", xml).unwrap()
    }

    #[test]
    fn shredding_assigns_pre_size_level() {
        let s = store("<a><b><c/></b><d/></a>");
        // pre: 0=doc 1=a 2=b 3=c 4=d
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.size, vec![4, 3, 1, 0, 0]);
        assert_eq!(s.level, vec![0, 1, 2, 3, 2]);
        assert_eq!(s.tag_of(1), "a");
        assert_eq!(s.tag_of(4), "d");
    }

    #[test]
    fn surrogate_sharing_for_identical_tags() {
        let s = store("<a><b/><b/><b/></a>");
        assert_eq!(s.qnames.len(), 2); // a, b
        assert_eq!(s.tag_surrogate(2), s.tag_surrogate(3));
    }

    #[test]
    fn attribute_table_is_owner_ordered() {
        let s = store("<a x=\"1\"><b y=\"2\" z=\"3\"/></a>");
        assert_eq!(s.attribute_count(), 3);
        assert!(s.attr_owner.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.attribute_of(2, "z"), Some("3"));
        assert_eq!(s.attribute_of(2, "x"), None);
        assert_eq!(s.attribute_of(1, "x"), Some("1"));
    }

    #[test]
    fn parent_and_children_navigation() {
        let s = store("<a><b><c/></b><d/></a>");
        assert_eq!(s.parent_of(3), Some(2));
        assert_eq!(s.parent_of(1), Some(0));
        assert_eq!(s.parent_of(0), None);
        assert_eq!(s.children_of(1), vec![2, 4]);
        assert_eq!(s.children_of(0), vec![1]);
        assert_eq!(s.children_of(3), Vec::<PreRank>::new());
    }

    #[test]
    fn string_value_concatenates_subtree_text() {
        let s = store("<a>x<b>y</b>z</a>");
        assert_eq!(s.string_value(1), "xyz");
        assert_eq!(s.string_value(0), "xyz");
    }

    #[test]
    fn text_surrogates_are_shared() {
        let s = store("<a><b>dup</b><c>dup</c></a>");
        let texts: Vec<u32> = (0..s.node_count() as u32)
            .filter(|&p| s.kind_of(p) == NodeKindCode::Text)
            .map(|p| s.prop[p as usize])
            .collect();
        assert_eq!(texts.len(), 2);
        assert_eq!(texts[0], texts[1]);
    }

    #[test]
    fn subtree_serialization_roundtrips() {
        let xml = "<site><person id=\"p1\"><name>Ann</name></person></site>";
        let s = store(xml);
        assert_eq!(s.subtree_to_xml(0), xml);
        assert_eq!(
            s.subtree_to_xml(2),
            "<person id=\"p1\"><name>Ann</name></person>"
        );
    }

    /// A PI keeps its target: serialized as `pf_xml` writes it, with the
    /// data after a space only when there is data.
    #[test]
    fn processing_instructions_keep_their_target() {
        let xml = "<a><?tgt some data?>x<b><?t?></b></a>";
        let s = store(xml);
        assert_eq!(s.kind_of(2), NodeKindCode::Pi);
        assert_eq!((s.pi_target_of(2), s.content_of(2)), ("tgt", "some data"));
        assert_eq!((s.pi_target_of(5), s.content_of(5)), ("t", ""));
        assert_eq!(s.pi_target_of(1), "");
        assert_eq!(s.subtree_to_xml(0), xml);
        assert_eq!(s.subtree_to_xml(2), "<?tgt some data?>");
        let doc = pf_xml::parse(xml).unwrap();
        assert_eq!(s.subtree_to_xml(0), doc.node_to_xml(pf_xml::NodeId(0)));
        // The replayed DOM keeps the targets too.
        let replayed = DocStore::from_document("t", &doc);
        assert_eq!(replayed.pi_target, s.pi_target);
    }

    #[test]
    fn a_walk_reports_each_element_end_after_its_content() {
        use SubtreeStep::{End, Node};
        // pre: 0=doc 1=a 2=b 3=c 4=text 5=d
        let s = store("<a><b><c/></b>t<d/></a>");
        let walk: Vec<SubtreeStep> = s.walk_subtree(0).collect();
        assert_eq!(
            walk,
            vec![
                Node(0),
                Node(1),
                Node(2),
                Node(3),
                End(3),
                End(2),
                Node(4),
                Node(5),
                End(5),
                End(1)
            ]
        );
        let walk: Vec<SubtreeStep> = s.walk_subtree(2).collect();
        assert_eq!(walk, vec![Node(2), Node(3), End(3), End(2)]);
        assert_eq!(s.walk_subtree(4).collect::<Vec<_>>(), vec![Node(4)]);
    }

    /// Serialization walks the subtree without recursing: a 100 000-level
    /// chain serializes on a 2 MiB thread (the stack of a server
    /// connection).
    #[test]
    fn a_deep_chain_serializes_on_a_small_stack() {
        let n = 100_000;
        let xml = format!("{}<x a=\"1\"/>{}", "<x>".repeat(n), "</x>".repeat(n));
        let s = store(&xml);
        let out = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (s.subtree_to_xml(0), s.subtree_to_xml(n as u32)))
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(out.0, xml);
        assert_eq!(out.1, "<x><x a=\"1\"/></x>");
    }

    #[test]
    fn root_element_is_found() {
        let s = store("<root><a/></root>");
        assert_eq!(s.root_element(), Some(1));
        assert_eq!(s.document_node(), 0);
    }
}
