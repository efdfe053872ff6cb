//! Sidecar content indexes over one shredded document.
//!
//! The `pre|size|level` encoding makes *structural* navigation fast, but
//! content predicates (`contains(...)`, `@id = "person0"`, numeric range
//! tests) still scan every candidate's string value.  This module adds the
//! classic complement surveyed in "XML Query Processing and Query
//! Languages": value and keyword indexes built *beside* the node table.
//!
//! Two index families exist per document:
//!
//! * [`TextIndex`] — lowercased word tokens of the document's text
//!   content, mapped to sorted pre-rank postings of the *text nodes* each
//!   token overlaps.  Tokens are maximal alphanumeric runs of the global
//!   pre-order text stream, so a token may span several adjacent text
//!   nodes (`<x>go</x><y>ld</y>` fuses to a `gold` token posted to both).
//!   Postings are a **candidate superset**: a probe for a needle fragment
//!   collects the postings of every token containing the fragment, and
//!   the residual predicate upstream keeps answers exact.
//! * [`ValueIndex`] — per element tag and per attribute name, the distinct
//!   string values sorted lexicographically, each with the sorted pre
//!   ranks carrying that value, plus a numerically-sorted view for range
//!   lookups.  String keys reuse the document's `texts` dictionary
//!   ([`ValueKey::Code`]) whenever the value is already interned there;
//!   only multi-text-node concatenations own their string.
//!
//! Nothing is built at load time.  A [`DocStore`] keeps one `OnceLock` per
//! index — the text index, and one value index per element tag and per
//! attribute name, in a table indexed by the name's `qnames` surrogate —
//! so a probe builds exactly the index it names, once, however many
//! sessions (or clones of the store) ask.  [`DocIndexes::build`] builds
//! every index at once with the same functions, for sizing the whole
//! sidecar.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

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
    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the index holds no values.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact lookup of one value (binary search over the sorted entries).
    pub fn lookup(&self, texts: &Dictionary, value: &str) -> Option<&ValueEntry> {
        self.entries
            .binary_search_by(|e| e.key.resolve(texts).cmp(value))
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Entry indices whose *numeric* value lies in the given range (bounds
    /// are skipped when `None`).  Entries that do not parse as numbers are
    /// never returned — callers that must preserve cast errors keep those
    /// as candidates separately.
    pub fn numeric_range(
        &self,
        min: Option<(f64, bool)>,
        max: Option<(f64, bool)>,
    ) -> impl Iterator<Item = u32> + '_ {
        let lo = match min {
            Some((m, inclusive)) => {
                self.numeric
                    .partition_point(|&(v, _)| if inclusive { v < m } else { v <= m })
            }
            None => 0,
        };
        let hi = match max {
            Some((m, inclusive)) => {
                self.numeric
                    .partition_point(|&(v, _)| if inclusive { v <= m } else { v < m })
            }
            None => self.numeric.len(),
        };
        self.numeric[lo..hi.max(lo)].iter().map(|&(_, i)| i)
    }

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
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    tokens: Vec<(String, Vec<PreRank>)>,
    /// Memo for [`Self::postings_containing`]: the substring scan over
    /// the vocabulary is deterministic per fragment, and probe plans are
    /// cached and re-executed — without the memo every execution would
    /// rescan every token.  Shared across clones (`Arc`): the token table
    /// is immutable after build, so clones answer identically.
    containing: Arc<Mutex<HashMap<String, Arc<Vec<PreRank>>>>>,
}

impl TextIndex {
    /// Number of distinct tokens.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Postings of one exact token (already lowercased by the caller).
    pub fn postings(&self, token: &str) -> Option<&[PreRank]> {
        self.tokens
            .binary_search_by(|(t, _)| t.as_str().cmp(token))
            .ok()
            .map(|i| self.tokens[i].1.as_slice())
    }

    /// Sorted, deduplicated union of the postings of every token that
    /// *contains* `fragment` as a substring (`fragment` must already be
    /// lowercased).  This is the candidate set for one alphanumeric
    /// fragment of a `contains()` needle.  Memoized per fragment.
    pub fn postings_containing(&self, fragment: &str) -> Arc<Vec<PreRank>> {
        if let Some(hit) = self
            .containing
            .lock()
            .expect("no panics while holding the memo lock")
            .get(fragment)
        {
            return Arc::clone(hit);
        }
        let mut out = Vec::new();
        for (token, pres) in &self.tokens {
            if token.contains(fragment) {
                out.extend_from_slice(pres);
            }
        }
        out.sort_unstable();
        out.dedup();
        let out = Arc::new(out);
        let mut memo = self
            .containing
            .lock()
            .expect("no panics while holding the memo lock");
        // Bound the memo so adversarial needle streams cannot grow it
        // without limit; the scan above stays correct without it.
        if memo.len() < 1024 {
            memo.insert(fragment.to_string(), Arc::clone(&out));
        }
        out
    }

    fn payload_bytes(&self) -> usize {
        self.tokens.iter().map(|(t, p)| t.len() + p.len() * 4).sum()
    }
}

/// Two text indexes are equal when their token tables are (the memo is a
/// cache of answers the table determines).
impl PartialEq for TextIndex {
    fn eq(&self, other: &TextIndex) -> bool {
        self.tokens == other.tokens
    }
}

/// Every content index of one document, built at once — what the
/// per-name indexes of a [`DocStore`] add up to when every one of them
/// has been probed.
#[derive(Debug, Clone, Default)]
pub struct DocIndexes {
    /// Tokenized text index over the document's text nodes.
    pub text: TextIndex,
    /// Per element-tag value indexes, keyed by the tag's `qnames`
    /// surrogate.  A tag is present only if **every** element with that
    /// tag has simple content (text/empty children only) — presence means
    /// complete coverage, so the executor can trust a hit list.
    pub elem_values: HashMap<u32, ValueIndex>,
    /// Per attribute-name value indexes, keyed by the name's `qnames`
    /// surrogate.
    pub attr_values: HashMap<u32, ValueIndex>,
    /// Wall-clock time of the build.
    pub build_time: Duration,
}

impl DocIndexes {
    /// Build all content indexes of `store`.
    pub fn build(store: &DocStore) -> Self {
        let started = Instant::now();
        let mut indexes = DocIndexes {
            text: build_text_index(store),
            elem_values: build_element_values(store, None),
            attr_values: build_attribute_values(store, None),
            build_time: Duration::ZERO,
        };
        indexes.build_time = started.elapsed();
        indexes
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
pub(crate) fn build_text_index(store: &DocStore) -> TextIndex {
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
    TextIndex {
        tokens,
        containing: Arc::default(),
    }
}

/// Per-tag value indexes over *simple-content* elements — of every tag,
/// or only of the tag `only`.  A tag whose elements ever contain
/// element/comment/PI children is dropped entirely, so map presence
/// guarantees complete coverage of the tag.
pub(crate) fn build_element_values(
    store: &DocStore,
    only: Option<u32>,
) -> HashMap<u32, ValueIndex> {
    let mut by_tag: HashMap<u32, HashMap<ValueKey, Vec<PreRank>>> = HashMap::new();
    let mut complex_tags: Vec<u32> = Vec::new();
    for pre in 0..store.node_count() as PreRank {
        let Some(tag) = store.tag_surrogate(pre) else {
            continue;
        };
        if only.is_some_and(|only| only != tag) {
            continue;
        }
        let end = pre + store.size_of(pre);
        let mut simple = true;
        let mut text_codes: Vec<u32> = Vec::new();
        let mut p = pre + 1;
        while p <= end {
            match store.kind_of(p) {
                NodeKindCode::Text => text_codes.push(store.prop[p as usize]),
                _ => {
                    simple = false;
                    break;
                }
            }
            p += store.size_of(p) + 1;
        }
        if !simple {
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

/// Per-attribute-name value indexes over the attribute table — of every
/// name, or only of the name `only`.  Values are always dictionary codes
/// (the shredder interns every attribute value).
pub(crate) fn build_attribute_values(
    store: &DocStore,
    only: Option<u32>,
) -> HashMap<u32, ValueIndex> {
    let mut by_name: HashMap<u32, HashMap<u32, Vec<PreRank>>> = HashMap::new();
    for i in 0..store.attribute_count() {
        let name = store.attr_name[i];
        if only.is_some_and(|only| only != name) {
            continue;
        }
        by_name
            .entry(name)
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

/// The lazily built indexes of one store: one cell per index, value
/// indexes addressed by the name's `qnames` surrogate.  An initialized
/// `None` records that the name has no index.
#[derive(Debug, Default)]
pub(crate) struct IndexTable {
    pub(crate) text: OnceLock<TextIndex>,
    pub(crate) elements: Vec<OnceLock<Option<ValueIndex>>>,
    pub(crate) attributes: Vec<OnceLock<Option<ValueIndex>>>,
}

impl IndexTable {
    /// Empty cells for a document with `names` distinct qualified names.
    pub(crate) fn new(names: usize) -> IndexTable {
        IndexTable {
            text: OnceLock::new(),
            elements: (0..names).map(|_| OnceLock::new()).collect(),
            attributes: (0..names).map(|_| OnceLock::new()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(xml: &str) -> DocStore {
        DocStore::from_xml("t", xml).unwrap()
    }

    #[test]
    fn text_tokens_are_lowercased_words_with_text_node_postings() {
        let s = store("<a><b>Gold Ring</b><c>silver</c></a>");
        let text = s.text_index();
        let gold = text.postings("gold").unwrap();
        assert_eq!(gold.len(), 1);
        assert_eq!(s.content_of(gold[0]), "Gold Ring");
        assert!(text.postings("Gold").is_none(), "tokens are lowercased");
        // "Ring" and "silver" are adjacent in the text stream, so they fuse
        // into one "ringsilver" token posted to both text nodes.
        assert!(text.postings("silver").is_none());
        assert_eq!(text.postings_containing("silver").len(), 2);
    }

    #[test]
    fn tokens_spanning_text_nodes_post_to_all_pieces() {
        let s = store("<a><b>go</b><c>ld</c></a>");
        // "go" + "ld" are adjacent in the text stream, so the run "gold"
        // overlaps both text nodes.
        let gold = s.text_index().postings("gold").unwrap();
        assert_eq!(gold.len(), 2);
        assert!(s.text_index().postings_containing("ol").len() >= 2);
    }

    #[test]
    fn element_value_index_covers_only_fully_simple_tags() {
        let s = store("<a><p>40.5</p><p>7</p><q><r/>text</q></a>");
        let p = s.element_index("p").unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.lookup(&s.texts, "40.5").is_some());
        assert!(p.lookup(&s.texts, "41").is_none());
        // `q` has an element child → no index at all.
        assert!(s.element_index("q").is_none());
        // `r` is empty: simple with an owned empty-string key.
        let r = s.element_index("r").unwrap();
        assert!(r.lookup(&s.texts, "").is_some());
    }

    #[test]
    fn numeric_range_respects_bounds_and_skips_non_numbers() {
        let s = store("<a><p>1</p><p>2.5</p><p>30</p><p>abc</p></a>");
        let p = s.element_index("p").unwrap();
        let hits: Vec<u32> = p.numeric_range(Some((2.0, true)), None).collect();
        assert_eq!(hits.len(), 2); // 2.5 and 30; "abc" never appears
        let all: Vec<u32> = p.numeric_range(None, None).collect();
        assert_eq!(all.len(), 3);
        let upto: Vec<u32> = p.numeric_range(None, Some((2.5, false))).collect();
        assert_eq!(upto.len(), 1);
    }

    #[test]
    fn attribute_value_index_maps_values_to_owner_elements() {
        let s = store(r#"<a><b id="x"/><b id="y"/><c id="x"/></a>"#);
        let id = s.attribute_index("id").unwrap();
        assert_eq!(id.len(), 2);
        assert_eq!(id.lookup(&s.texts, "x").unwrap().pres.len(), 2);
        assert_eq!(id.lookup(&s.texts, "y").unwrap().pres.len(), 1);
        assert!(s.attribute_index("absent").is_none());
        // A tag is not an attribute name, and vice versa.
        assert!(s.attribute_index("b").is_none());
        assert!(s.element_index("id").is_none());
    }

    #[test]
    fn empty_content_keys_sort_deterministically() {
        // `<p/>` (no text) and `<p><![CDATA[]]></p>` (one empty text node)
        // both have the value "": two entries, ordered by their first node.
        let s = store("<a><p><![CDATA[]]></p><p/><p>x</p></a>");
        let p = s.element_index("p").unwrap();
        let firsts: Vec<PreRank> = p.entries.iter().map(|e| e.pres[0]).collect();
        assert_eq!(firsts, vec![2, 4, 5]);
        assert_eq!(
            *p,
            DocIndexes::build(&s).elem_values[&s.qnames.lookup("p").unwrap()]
        );
    }

    #[test]
    fn a_probe_builds_only_the_index_it_names() {
        let s = store(r#"<a><b id="x">t</b><c k="1">u</c></a>"#);
        assert!(s.built_indexes().is_empty(), "loading builds nothing");
        assert!(s.attribute_index("id").is_some());
        assert_eq!(s.built_indexes(), ["@id"]);
        assert!(
            s.element_index("nope").is_none(),
            "unknown names build nothing"
        );
        assert!(
            s.element_index("a").is_none(),
            "complex content: recorded absent"
        );
        assert_eq!(s.built_indexes(), ["a", "@id"]);
        s.text_index();
        assert_eq!(s.built_indexes(), ["text", "a", "@id"]);
    }

    #[test]
    fn lazy_accessor_shares_one_build_across_clones() {
        let s = store(r#"<a><b id="x"/></a>"#);
        let clone = s.clone();
        // Built through the clone, visible from the original…
        let via_clone: *const ValueIndex = clone.attribute_index("id").unwrap();
        assert_eq!(s.built_indexes(), ["@id"]);
        let via_original: *const ValueIndex = s.attribute_index("id").unwrap();
        assert_eq!(via_clone, via_original);
        // …and the other way round.
        let text: *const TextIndex = s.text_index();
        assert!(std::ptr::eq(text, clone.text_index()));
    }

    #[test]
    fn the_bundle_is_every_per_name_index() {
        let s = store(r#"<a><p x="1">2</p><p x="3">4</p><q><p/></q></a>"#);
        let bundle = DocIndexes::build(&s);
        assert_eq!(s.text_index(), &bundle.text);
        for (sym, name) in s.qnames.iter() {
            assert_eq!(
                s.element_index(name),
                bundle.elem_values.get(&sym),
                "{name}"
            );
            assert_eq!(
                s.attribute_index(name),
                bundle.attr_values.get(&sym),
                "@{name}"
            );
        }
        assert!(bundle.payload_bytes() > 0);
    }
}
