//! Index-scan probe descriptors and candidate evaluation.
//!
//! The optimizer's `indexscan` rule (in `pf-algebra`) recognizes content
//! predicates over axis-step outputs and splices an `IndexScan` operator
//! carrying one of the probes below.  The probe is evaluated here, against
//! the sidecar indexes of `pf-store`, into a **candidate superset**: every
//! row the original predicate would keep — or on which it would *error* —
//! stays a candidate, so the untouched residual predicate upstream keeps
//! both answers and error behavior exact.
//!
//! Candidate evaluation runs once per *distinct indexed value* (or per
//! token posting list), never once per row; that is the entire point of
//! the rewrite.

use pf_store::{Dictionary, DocStore, NodeKindCode, TextIndex, ValueIndex};

use crate::ops::map::CmpOp;
use crate::value::{Cell, Value};

/// What an indexed value probe tests: the string value of elements with a
/// given tag, or the value of attributes with a given name.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexTarget {
    /// String values of elements tagged so.
    ElementTag(String),
    /// Values of attributes named so.
    AttributeName(String),
}

/// How the surviving rows feed the residual predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// The residual is an existential `Select` over the comparison column:
    /// non-candidate rows can be dropped row-by-row.
    Exact,
    /// The residual is an effective-boolean-value computation per `iter`
    /// group: only *singleton* groups may be filtered (a group of two or
    /// more rows short-circuits EBV to `true` without evaluating the
    /// predicate, so all its rows must survive).
    Ebv,
}

/// The predicate pattern an `IndexScan` accelerates.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexProbe {
    /// `contains(string(step), "literal")` (and `starts-with`, whose
    /// matches are a subset of the contains candidates).
    TextContains {
        /// The literal needle.
        needle: String,
    },
    /// `step <op> literal` / `number(step) <op> literal` value tests.
    ValueCmp {
        /// What the step produces: element nodes or attribute values.
        target: IndexTarget,
        /// The comparison operator, normalized so the indexed side is left.
        op: CmpOp,
        /// The literal being compared against.
        value: Value,
        /// `true` if the indexed side passes through `fn:number` first.
        to_number: bool,
    },
}

/// Candidate postings for one [`IndexProbe::TextContains`]: per needle
/// fragment, the sorted text-node pre ranks overlapped by any token
/// containing the fragment.
#[derive(Debug, Clone)]
pub struct TextCandidates {
    fragments: Vec<std::sync::Arc<Vec<u32>>>,
}

impl TextCandidates {
    /// Total candidate postings across all fragments (statistics only).
    pub fn posting_rows(&self) -> usize {
        self.fragments.iter().map(|f| f.len()).sum()
    }
}

/// Lowercased maximal alphanumeric runs of `needle` — the unit the token
/// index can answer for.  Empty for needles without alphanumeric content
/// (such probes cannot filter and are not generated by the rule).
pub fn text_fragments(needle: &str) -> Vec<String> {
    let lowered = needle.to_lowercase();
    lowered
        .split(|c: char| !c.is_alphanumeric())
        .filter(|f| !f.is_empty())
        .map(str::to_string)
        .collect()
}

/// Evaluate a text probe into per-fragment candidate postings.  Returns
/// `None` when the needle has no alphanumeric fragment, in which case the
/// caller must keep every row.
pub fn evaluate_text_probe(index: &TextIndex, needle: &str) -> Option<TextCandidates> {
    let fragments = text_fragments(needle);
    if fragments.is_empty() {
        return None;
    }
    Some(TextCandidates {
        fragments: fragments
            .iter()
            .map(|f| index.postings_containing(f))
            .collect(),
    })
}

/// Is the node `pre` of `store` a candidate for the text probe?  A
/// document/element/text node qualifies iff *every* fragment has a posting
/// inside the node's subtree range (its string value is a contiguous
/// substring of the global text stream).  Comment and PI content is not in
/// the text stream, so those rows always stay candidates.
pub fn text_row_is_candidate(store: &DocStore, candidates: &TextCandidates, pre: u32) -> bool {
    match store.kind_of(pre) {
        NodeKindCode::Comment | NodeKindCode::Pi => true,
        NodeKindCode::Document | NodeKindCode::Element | NodeKindCode::Text => {
            let end = pre + store.size_of(pre);
            candidates.fragments.iter().all(|postings| {
                let i = postings.partition_point(|&p| p < pre);
                postings.get(i).is_some_and(|&p| p <= end)
            })
        }
    }
}

/// Candidate set of a [`IndexProbe::ValueCmp`]: the merged sorted pre
/// ranks of every candidate entry and the candidate value strings
/// themselves (attribute steps produce the *values* as `Str` rows, so
/// membership is tested on the string, not the pre rank).
#[derive(Debug, Clone)]
pub struct ValueCandidates {
    /// Sorted pre ranks of nodes carrying a candidate value.
    pub pres: Vec<u32>,
    /// The candidate entries of the probed index, ascending.
    pub entries: Vec<u32>,
}

impl ValueCandidates {
    /// Is `pre` a candidate node?
    pub fn contains_pre(&self, pre: u32) -> bool {
        self.pres.binary_search(&pre).is_ok()
    }

    /// The candidate value strings, borrowed from the probed `index` and
    /// the store's `texts`.
    pub fn values<'a>(
        &'a self,
        index: &'a ValueIndex,
        texts: &'a Dictionary,
    ) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .map(move |&i| index.entries[i as usize].key.resolve(texts))
    }
}

/// Evaluate a value probe over one [`ValueIndex`].  An entry is a
/// candidate when the replicated scan pipeline — optional `fn:number`
/// cast, then [`Value::compare`] — matches **or errors**: cast and NaN
/// errors must surface in the residual exactly as they would in a scan.
pub fn evaluate_value_probe(
    index: &ValueIndex,
    texts: &Dictionary,
    op: CmpOp,
    value: &Value,
    to_number: bool,
) -> ValueCandidates {
    let entry_indices = string_eq_fast_path(index, texts, op, value, to_number)
        .or_else(|| numeric_fast_path(index, texts, op, value, to_number))
        .unwrap_or_else(|| {
            (0..index.entries.len() as u32)
                .filter(|&i| {
                    entry_is_candidate(
                        index.entries[i as usize].key.resolve(texts),
                        op,
                        value,
                        to_number,
                    )
                })
                .collect()
        });
    let mut pres = Vec::new();
    for i in &entry_indices {
        pres.extend_from_slice(&index.entries[*i as usize].pres);
    }
    pres.sort_unstable();
    pres.dedup();
    ValueCandidates {
        pres,
        entries: entry_indices,
    }
}

/// Exact string-equality probes answer with one binary search over the
/// sorted entries instead of a full scan.  Only taken when the replicated
/// pipeline is the plain string comparison — no `fn:number` cast and a
/// string literal — because `Value::compare` on two strings is exactly
/// `str::cmp` (the entry sort order) and never errors.
fn string_eq_fast_path(
    index: &ValueIndex,
    texts: &Dictionary,
    op: CmpOp,
    value: &Value,
    to_number: bool,
) -> Option<Vec<u32>> {
    if to_number || op != CmpOp::Eq {
        return None;
    }
    let Value::Str(needle) = value else {
        return None;
    };
    Some(
        index
            .entries
            .binary_search_by(|e| e.key.resolve(texts).cmp(needle.as_str()))
            .ok()
            .map(|i| vec![i as u32])
            .unwrap_or_default(),
    )
}

/// One distinct value through the exact scan pipeline; `Err` ⇒ candidate
/// (a cast or NaN comparison error must surface upstream).
fn entry_is_candidate(entry: &str, op: CmpOp, value: &Value, to_number: bool) -> bool {
    let entry = Cell::Str(entry);
    let ordering = if to_number {
        entry.to_number().and_then(|number| number.compare(value))
    } else {
        entry.compare(value.cell())
    };
    match ordering {
        Ok(ordering) => op.matches(ordering),
        Err(_) => true,
    }
}

/// Range lookup over the numerically-sorted index view for `number(step)
/// <op> numeric-literal` probes.  Entries absent from the numeric view
/// (cast failures, NaN) are appended unconditionally — they error under
/// `fn:number` and the error must surface.  Returns `None` when the probe
/// shape does not fit (non-numeric or NaN literal, `ne`), falling back to
/// the per-entry linear scan.
fn numeric_fast_path(
    index: &ValueIndex,
    _texts: &Dictionary,
    op: CmpOp,
    value: &Value,
    to_number: bool,
) -> Option<Vec<u32>> {
    if !to_number {
        return None;
    }
    let rhs = match value {
        Value::Int(i) => *i as f64,
        Value::Nat(n) => *n as f64,
        Value::Dbl(d) if !d.is_nan() => *d,
        _ => return None,
    };
    let (min, max) = match op {
        CmpOp::Eq => (Some((rhs, true)), Some((rhs, true))),
        CmpOp::Lt => (None, Some((rhs, false))),
        CmpOp::Le => (None, Some((rhs, true))),
        CmpOp::Gt => (Some((rhs, false)), None),
        CmpOp::Ge => (Some((rhs, true)), None),
        CmpOp::Ne => return None,
    };
    let mut hits: Vec<u32> = index.numeric_range(min, max).collect();
    // Entries outside the numeric view error under fn:number → keep.
    if index.numeric.len() < index.entries.len() {
        let mut numeric: Vec<u32> = index.numeric.iter().map(|&(_, i)| i).collect();
        numeric.sort_unstable();
        let mut next = numeric.iter().peekable();
        for i in 0..index.entries.len() as u32 {
            if next.peek() == Some(&&i) {
                next.next();
            } else {
                hits.push(i);
            }
        }
    }
    hits.sort_unstable();
    hits.dedup();
    Some(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_store::DocStore;

    fn store(xml: &str) -> DocStore {
        DocStore::from_xml("t", xml).unwrap()
    }

    #[test]
    fn text_probe_keeps_every_row_whose_value_contains_the_needle() {
        // Trailing punctuation ends each token run, so adjacent text nodes
        // do not fuse into one token.
        let s = store("<a><d>a gold ring.</d><d>silver.</d><d>marigold.</d></a>");
        let c = evaluate_text_probe(s.text_index(), "Gold").unwrap();
        let ds: Vec<u32> = (0..s.node_count() as u32)
            .filter(|&p| s.tag_surrogate(p) == s.qnames.lookup("d"))
            .collect();
        let hits: Vec<bool> = ds
            .iter()
            .map(|&p| text_row_is_candidate(&s, &c, p))
            .collect();
        assert_eq!(hits, vec![true, false, true]); // substring match: marigold
    }

    #[test]
    fn text_probe_with_multiple_fragments_intersects() {
        let s = store("<a><d>gold ring</d><d>gold coin</d><d>brass ring</d></a>");
        let c = evaluate_text_probe(s.text_index(), "gold ring").unwrap();
        let root = s.root_element().unwrap();
        assert!(text_row_is_candidate(&s, &c, root)); // root sees both words
        let first_d = root + 1;
        assert!(text_row_is_candidate(&s, &c, first_d));
        assert!(evaluate_text_probe(s.text_index(), "...").is_none());
    }

    #[test]
    fn value_probe_equality_yields_exact_value_strings() {
        let s = store(r#"<a><b id="x1"/><b id="y2"/><b id="x1"/></a>"#);
        let vi = s.attribute_index("id").unwrap();
        let c = evaluate_value_probe(vi, &s.texts, CmpOp::Eq, &Value::Str("x1".into()), false);
        assert_eq!(c.values(vi, &s.texts).collect::<Vec<_>>(), ["x1"]);
        assert_eq!(c.pres.len(), 2);
    }

    #[test]
    fn value_probe_numeric_range_keeps_cast_errors_as_candidates() {
        let s = store("<a><p>10</p><p>50</p><p>oops</p></a>");
        let vi = s.element_index("p").unwrap();
        let c = evaluate_value_probe(vi, &s.texts, CmpOp::Ge, &Value::Int(40), true);
        // 50 matches; "oops" would error under fn:number → candidate too.
        let values: Vec<&str> = c.values(vi, &s.texts).collect();
        assert_eq!(values.len(), 2);
        assert!(values.contains(&"50"));
        assert!(values.contains(&"oops"));
        // Linear fallback (string literal) agrees with the fast path.
        let lin = evaluate_value_probe(vi, &s.texts, CmpOp::Ge, &Value::Str("40".into()), true);
        assert_eq!(lin.values(vi, &s.texts).count(), 2);
    }

    #[test]
    fn value_probe_string_order_is_lexicographic() {
        let s = store("<a><p>apple</p><p>banana</p><p>cherry</p></a>");
        let vi = s.element_index("p").unwrap();
        let c = evaluate_value_probe(vi, &s.texts, CmpOp::Lt, &Value::Str("banana".into()), false);
        assert_eq!(c.values(vi, &s.texts).collect::<Vec<_>>(), ["apple"]);
    }
}
