//! Sidecar content indexes over one shredded document.
//!
//! The classic complement of the node table surveyed in "XML Query
//! Processing and Query Languages": value and keyword indexes built
//! *beside* the `pre|size|level` encoding.  [`DocIndexes::build`] builds
//! every one of them at once; [`DocIndexes::payload_bytes`] sizes the
//! whole sidecar.  The engine builds none: no plan probes an index.
//!
//! Two index families exist per document:
//!
//! * [`TextIndex`] — lowercased word tokens of the document's text
//!   content, mapped to sorted pre-rank postings of the *text nodes* each
//!   token overlaps.  Tokens are maximal alphanumeric runs of the global
//!   pre-order text stream, so a token may span several adjacent text
//!   nodes (`<x>go</x><y>ld</y>` fuses to a `gold` token posted to both).
//! * [`ValueIndex`] — per element tag and per attribute name, the distinct
//!   string values sorted lexicographically, each with the sorted pre
//!   ranks carrying that value, plus a numerically-sorted view for range
//!   lookups.  String keys reuse the document's `texts` dictionary
//!   ([`ValueKey::Code`]) whenever the value is already interned there;
//!   only multi-text-node concatenations own their string.

use std::collections::HashMap;

use crate::dict::Dictionary;
use crate::store::{DocStore, NodeKindCode, PreRank};

/// A value-index key: either a surrogate into the document's `texts`
/// dictionary (the common case — attribute values and single-text-node
/// element content are already interned) or an owned concatenation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// Surrogate into [`DocStore::texts`](crate::DocStore::texts).
    Code(u32),
    /// Owned string (multi-text or empty element content).
    Owned(String),
}

impl ValueKey {
    /// Resolve the key to its string via the document's text dictionary.
    pub fn resolve<'a>(&'a self, texts: &'a Dictionary) -> &'a str {
        match self {
            ValueKey::Code(c) => texts.resolve(*c),
            ValueKey::Owned(s) => s,
        }
    }

    /// Bytes owned by this key (dictionary codes are free — the string is
    /// shared with the store).
    fn owned_bytes(&self) -> usize {
        match self {
            ValueKey::Code(_) => 0,
            ValueKey::Owned(s) => s.len(),
        }
    }
}

/// One distinct value of a [`ValueIndex`] with the sorted pre ranks of the
/// nodes carrying it.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueEntry {
    /// The distinct value.
    pub key: ValueKey,
    /// Sorted pre ranks: element nodes whose string value equals the key,
    /// or owner elements of an attribute with that value.
    pub pres: Vec<PreRank>,
}

/// Distinct values of one element tag or one attribute name, sorted
/// lexicographically, with a numeric side-view for range lookups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueIndex {
    /// Distinct values sorted by their resolved string.
    pub entries: Vec<ValueEntry>,
    /// `(parsed, entry index)` for every entry whose value parses as a
    /// finite or infinite non-NaN `f64` (`str::trim` + `str::parse`, the
    /// same pipeline `fn:number` uses), sorted numerically.
    pub numeric: Vec<(f64, u32)>,
}

impl ValueIndex {
    fn payload_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.key.owned_bytes() + e.pres.len() * 4)
            .sum::<usize>()
            + self.numeric.len() * 12
    }

    fn finish(mut self, texts: &Dictionary) -> Self {
        for e in &mut self.entries {
            e.pres.sort_unstable();
            e.pres.dedup();
        }
        // Two keys resolve alike only for empty content (an empty CDATA
        // text node and no text at all); their first nodes break the tie.
        self.entries.sort_by(|a, b| {
            (a.key.resolve(texts), a.pres.first()).cmp(&(b.key.resolve(texts), b.pres.first()))
        });
        self.numeric = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let parsed = crate::lexical::parse_double(e.key.resolve(texts))?;
                (!parsed.is_nan()).then_some((parsed, i as u32))
            })
            .collect();
        self.numeric
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN excluded above"));
        self
    }
}

/// Tokenized text index: lowercased alphanumeric tokens of the global
/// pre-order text stream, each with the sorted text-node pre ranks it
/// overlaps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextIndex {
    tokens: Vec<(String, Vec<PreRank>)>,
}

impl TextIndex {
    fn payload_bytes(&self) -> usize {
        self.tokens.iter().map(|(t, p)| t.len() + p.len() * 4).sum()
    }
}

/// Every content index of one document, built at once.
#[derive(Debug, Clone, Default)]
pub struct DocIndexes {
    /// Tokenized text index over the document's text nodes.
    pub text: TextIndex,
    /// Per element-tag value indexes, keyed by the tag's `qnames`
    /// surrogate.  A tag is present only if **every** element with that
    /// tag has simple content (text/empty children only) — presence means
    /// complete coverage.
    pub elem_values: HashMap<u32, ValueIndex>,
    /// Per attribute-name value indexes, keyed by the name's `qnames`
    /// surrogate.
    pub attr_values: HashMap<u32, ValueIndex>,
}

impl DocIndexes {
    /// Build all content indexes of `store`.
    pub fn build(store: &DocStore) -> Self {
        DocIndexes {
            text: build_text_index(store),
            elem_values: build_element_values(store),
            attr_values: build_attribute_values(store),
        }
    }

    /// Bytes owned by the sidecar (postings, numeric views, owned keys;
    /// dictionary-coded keys share their strings with the store).
    pub fn payload_bytes(&self) -> usize {
        self.text.payload_bytes()
            + self
                .elem_values
                .values()
                .chain(self.attr_values.values())
                .map(ValueIndex::payload_bytes)
                .sum::<usize>()
    }
}

/// Tokenize the concatenated text stream.  Any element's string value is a
/// contiguous substring of this stream (its text descendants occupy the
/// contiguous pre range `(pre, pre+size]`), so every alphanumeric fragment
/// occurring in some element's string value lies inside one maximal
/// alphanumeric run of the stream — the token we post.
fn build_text_index(store: &DocStore) -> TextIndex {
    // The stream with, per text node, its byte span.
    let mut stream = String::new();
    let mut spans: Vec<(usize, usize, PreRank)> = Vec::new();
    for pre in 0..store.node_count() as PreRank {
        if store.kind_of(pre) == NodeKindCode::Text {
            let start = stream.len();
            stream.push_str(store.content_of(pre));
            spans.push((start, stream.len(), pre));
        }
    }
    let mut tokens: HashMap<String, Vec<PreRank>> = HashMap::new();
    let mut token_start: Option<usize> = None;
    let bytes_len = stream.len();
    let flush = |tokens: &mut HashMap<String, Vec<PreRank>>, start: usize, end: usize| {
        let token = stream[start..end].to_lowercase();
        let posting = tokens.entry(token).or_default();
        // Every text node whose span overlaps [start, end).
        let first = spans.partition_point(|&(_, e, _)| e <= start);
        for &(_, _, pre) in spans[first..].iter().take_while(|&&(s, _, _)| s < end) {
            if posting.last() != Some(&pre) {
                posting.push(pre);
            }
        }
    };
    // Char-boundary walk: maximal alphanumeric runs.
    let mut idx = 0;
    for ch in stream.chars() {
        if ch.is_alphanumeric() {
            token_start.get_or_insert(idx);
        } else if let Some(start) = token_start.take() {
            flush(&mut tokens, start, idx);
        }
        idx += ch.len_utf8();
    }
    if let Some(start) = token_start.take() {
        flush(&mut tokens, start, bytes_len);
    }
    let mut tokens: Vec<(String, Vec<PreRank>)> = tokens.into_iter().collect();
    tokens.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, pres) in &mut tokens {
        pres.sort_unstable();
        pres.dedup();
    }
    TextIndex { tokens }
}

/// Per-tag value indexes over *simple-content* elements.  A tag whose
/// elements ever contain element/comment/PI children is dropped entirely,
/// so map presence guarantees complete coverage of the tag.
fn build_element_values(store: &DocStore) -> HashMap<u32, ValueIndex> {
    let mut by_tag: HashMap<u32, HashMap<ValueKey, Vec<PreRank>>> = HashMap::new();
    let mut complex_tags: Vec<u32> = Vec::new();
    for pre in 0..store.node_count() as PreRank {
        let Some(tag) = store.tag_surrogate(pre) else {
            continue;
        };
        let mut text_codes: Vec<u32> = Vec::new();
        if !text_children(store, pre, &mut text_codes) {
            complex_tags.push(tag);
            continue;
        }
        let key = match text_codes.as_slice() {
            [single] => ValueKey::Code(*single),
            _ => ValueKey::Owned(
                text_codes
                    .iter()
                    .map(|&c| store.texts.resolve(c))
                    .collect::<String>(),
            ),
        };
        by_tag
            .entry(tag)
            .or_default()
            .entry(key)
            .or_default()
            .push(pre);
    }
    for tag in complex_tags {
        by_tag.remove(&tag);
    }
    by_tag
        .into_iter()
        .map(|(tag, values)| {
            let index = ValueIndex {
                entries: values
                    .into_iter()
                    .map(|(key, pres)| ValueEntry { key, pres })
                    .collect(),
                numeric: Vec::new(),
            };
            (tag, index.finish(&store.texts))
        })
        .collect()
}

/// Push the text codes of the children of element `pre` onto `out`;
/// `false` (with `out` partly filled) as soon as a child is an element,
/// comment or PI — the element has complex content and no value index
/// can cover its tag.
fn text_children(store: &DocStore, pre: PreRank, out: &mut Vec<u32>) -> bool {
    let end = pre + store.size_of(pre);
    let mut p = pre + 1;
    while p <= end {
        if store.kind_of(p) != NodeKindCode::Text {
            return false;
        }
        out.push(store.prop[p as usize]);
        p += store.size_of(p) + 1;
    }
    true
}

/// Per-attribute-name value indexes over the attribute table.  Values are
/// always dictionary codes (the shredder interns every attribute value).
fn build_attribute_values(store: &DocStore) -> HashMap<u32, ValueIndex> {
    let mut by_name: HashMap<u32, HashMap<u32, Vec<PreRank>>> = HashMap::new();
    for i in 0..store.attribute_count() {
        by_name
            .entry(store.attr_name[i])
            .or_default()
            .entry(store.attr_value[i])
            .or_default()
            .push(store.attr_owner[i]);
    }
    by_name
        .into_iter()
        .map(|(name, values)| {
            let index = ValueIndex {
                entries: values
                    .into_iter()
                    .map(|(code, pres)| ValueEntry {
                        key: ValueKey::Code(code),
                        pres,
                    })
                    .collect(),
                numeric: Vec::new(),
            };
            (name, index.finish(&store.texts))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(xml: &str) -> DocStore {
        DocStore::from_xml("t", xml).unwrap()
    }

    /// The postings of one exact token.
    fn postings<'a>(text: &'a TextIndex, token: &str) -> Option<&'a [PreRank]> {
        text.tokens
            .iter()
            .find(|(t, _)| t == token)
            .map(|(_, pres)| pres.as_slice())
    }

    /// The entries of the value index of `name` in `values`, resolved.
    fn entries(
        s: &DocStore,
        values: &HashMap<u32, ValueIndex>,
        name: &str,
    ) -> Option<Vec<(String, Vec<PreRank>)>> {
        let index = values.get(&s.qnames.lookup(name)?)?;
        Some(
            index
                .entries
                .iter()
                .map(|e| (e.key.resolve(&s.texts).to_string(), e.pres.clone()))
                .collect(),
        )
    }

    #[test]
    fn text_tokens_are_lowercased_words_with_text_node_postings() {
        let s = store("<a><b>Gold Ring</b><c>silver</c></a>");
        let text = DocIndexes::build(&s).text;
        let gold = postings(&text, "gold").unwrap();
        assert_eq!(gold.len(), 1);
        assert_eq!(s.content_of(gold[0]), "Gold Ring");
        assert!(postings(&text, "Gold").is_none(), "tokens are lowercased");
        // "Ring" and "silver" are adjacent in the text stream, so they fuse
        // into one "ringsilver" token posted to both text nodes.
        assert!(postings(&text, "silver").is_none());
        assert_eq!(postings(&text, "ringsilver").unwrap().len(), 2);
    }

    #[test]
    fn tokens_spanning_text_nodes_post_to_all_pieces() {
        let s = store("<a><b>go</b><c>ld</c></a>");
        // "go" + "ld" are adjacent in the text stream, so the run "gold"
        // overlaps both text nodes.
        let text = DocIndexes::build(&s).text;
        assert_eq!(postings(&text, "gold").unwrap().len(), 2);
    }

    #[test]
    fn element_value_index_covers_only_fully_simple_tags() {
        let s = store("<a><p>40.5</p><p>7</p><q><r/>text</q></a>");
        let values = DocIndexes::build(&s).elem_values;
        let p = entries(&s, &values, "p").unwrap();
        assert_eq!(p, [("40.5".into(), vec![2]), ("7".into(), vec![4])]);
        // `q` has an element child → no index at all.
        assert!(entries(&s, &values, "q").is_none());
        // `r` is empty: simple with an owned empty-string key.
        assert_eq!(
            entries(&s, &values, "r").unwrap(),
            [(String::new(), vec![7])]
        );
    }

    #[test]
    fn numeric_view_sorts_by_number_and_skips_non_numbers() {
        let s = store("<a><p>30</p><p>2.5</p><p>abc</p><p>1</p></a>");
        let values = DocIndexes::build(&s).elem_values;
        let p = &values[&s.qnames.lookup("p").unwrap()];
        let numbers: Vec<f64> = p.numeric.iter().map(|&(v, _)| v).collect();
        assert_eq!(numbers, [1.0, 2.5, 30.0]);
        for &(v, entry) in &p.numeric {
            let key = p.entries[entry as usize].key.resolve(&s.texts);
            assert_eq!(key.parse::<f64>().unwrap(), v);
        }
    }

    #[test]
    fn attribute_value_index_maps_values_to_owner_elements() {
        let s = store(r#"<a><b id="x"/><b id="y"/><c id="x"/></a>"#);
        let indexes = DocIndexes::build(&s);
        let id = entries(&s, &indexes.attr_values, "id").unwrap();
        assert_eq!(id, [("x".into(), vec![2, 4]), ("y".into(), vec![3])]);
        // A tag is not an attribute name, and vice versa.
        assert!(entries(&s, &indexes.attr_values, "b").is_none());
        assert!(entries(&s, &indexes.elem_values, "id").is_none());
    }

    #[test]
    fn empty_content_keys_sort_deterministically() {
        // `<p/>` (no text) and `<p><![CDATA[]]></p>` (one empty text node)
        // both have the value "": two entries, ordered by their first node.
        let s = store("<a><p><![CDATA[]]></p><p/><p>x</p></a>");
        let values = DocIndexes::build(&s).elem_values;
        let firsts: Vec<PreRank> = entries(&s, &values, "p")
            .unwrap()
            .iter()
            .map(|(_, pres)| pres[0])
            .collect();
        assert_eq!(firsts, vec![2, 4, 5]);
    }

    #[test]
    fn payload_counts_postings_numbers_and_owned_keys() {
        let s = store(r#"<a><p x="1">2</p><p x="3">4</p></a>"#);
        // Tokens "2" and "4" (1 byte + one 4-byte posting each); `p`: two
        // coded values, one posting each, both numeric; `@x` the same.
        assert_eq!(
            DocIndexes::build(&s).payload_bytes(),
            2 * 5 + 2 * (2 * 4 + 2 * 12)
        );
    }
}
