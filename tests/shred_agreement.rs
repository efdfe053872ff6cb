//! Shredding agreement: the event shredder behind `DocStore::from_xml`
//! (no DOM) and `DocStore::from_document` (a DOM replayed as events) must
//! produce exactly the encoding the DOM describes.
//!
//! * **Oracle** — on random documents (nesting, attributes with entity and
//!   character references, CDATA next to text, comments, PIs,
//!   whitespace-only text), every column and both dictionaries of
//!   `from_xml` equal, surrogate for surrogate, an encoding computed
//!   independently from the parsed DOM's accessors (`subtree_size`,
//!   `level`, `kind`, text content), interning in document order.
//! * **Two paths, one result** — `from_document(parse(x))` equals
//!   `from_xml(x)`.
//! * **Same errors** — on truncated and mutated inputs both paths fail
//!   with the same `XmlError` (message and offset) or both succeed alike.
//! * **Serialization** — the store writes every generated document back
//!   exactly as the DOM does (PI targets included).
//! * **Depth** — a 100 000-level chain loads.

use proptest::prelude::*;

use pathfinder::store::{Dictionary, DocStore, NodeKindCode};
use pathfinder::xml::{parse, Document, NodeId, NodeKind, XmlError};

/// One step of a document script; see [`render`].
type Step = (u8, u8);

const TAGS: [&str; 4] = ["a", "b", "item", "x:y"];
const ATTRS: [&str; 3] = ["id", "k", "a"];
const VALUES: [&str; 6] = ["v", "", "&lt;b&gt;", "&#65;&#x42;", "x &amp; y", "é"];
const TEXTS: [&str; 6] = ["t", "gold ring", "&amp;", "&#x20AC;5", "a&lt;b", "é!"];
const CDATA: [&str; 4] = ["", "c", "<raw>&amp;", "]"];
const BLANKS: [&str; 3] = [" ", "\n  ", "\t"];

/// Render a script into a well-formed document: a root element, then per
/// step an element (with up to three attributes), a close, text, CDATA, a
/// comment, a PI or whitespace-only text; an optional prolog and trailing
/// misc around the root.
fn render(script: &[Step]) -> String {
    let mut xml = String::new();
    let prolog = script.first().map_or(0, |s| s.1 % 3);
    if prolog >= 1 {
        xml.push_str("<?xml version=\"1.0\"?>\n");
    }
    if prolog == 2 {
        xml.push_str("<!-- before --> ");
    }
    let mut open = vec!["root"];
    xml.push_str("<root>");
    for &(op, arg) in script {
        let pick = |pool: &[&'static str]| pool[arg as usize % pool.len()];
        match op % 8 {
            0 | 7 => {
                let tag = pick(&TAGS);
                xml.push('<');
                xml.push_str(tag);
                // Up to three attributes, names distinct (consecutive in
                // the pool), values and quotes varying.
                for i in 0..(arg / 4) % 4 {
                    let name = ATTRS[(i as usize + arg as usize) % ATTRS.len()];
                    let value = VALUES[(arg as usize * 7 + i as usize) % VALUES.len()];
                    let quote = if i % 2 == 0 { '"' } else { '\'' };
                    xml.push_str(&format!(" {name}={quote}{value}{quote}"));
                }
                if op % 8 == 7 {
                    xml.push_str("/>");
                } else {
                    xml.push('>');
                    open.push(tag);
                }
            }
            1 => {
                if open.len() > 1 {
                    xml.push_str(&format!("</{}>", open.pop().unwrap()));
                }
            }
            2 => xml.push_str(pick(&TEXTS)),
            3 => xml.push_str(&format!("<![CDATA[{}]]>", pick(&CDATA))),
            4 => xml.push_str(&format!("<!--{}-->", pick(&TEXTS))),
            5 => xml.push_str(&format!("<?pi{} data {}?>", arg % 3, arg % 5)),
            _ => xml.push_str(pick(&BLANKS)),
        }
    }
    while let Some(tag) = open.pop() {
        xml.push_str(&format!("</{tag}>"));
    }
    if prolog == 1 {
        xml.push_str("\n<!-- after -->\n");
    }
    xml
}

fn script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..8, 0u8..60), 0..40)
}

/// The encoding of `doc` computed from its accessors alone.
struct Oracle {
    size: Vec<u32>,
    level: Vec<u32>,
    kind: Vec<NodeKindCode>,
    prop: Vec<u32>,
    attributes: Vec<(u32, u32, u32)>,
    pi_target: Vec<(u32, u32)>,
    qnames: Dictionary,
    texts: Dictionary,
}

impl Oracle {
    fn of(doc: &Document) -> Oracle {
        let mut oracle = Oracle {
            size: Vec::new(),
            level: Vec::new(),
            kind: Vec::new(),
            prop: Vec::new(),
            attributes: Vec::new(),
            pi_target: Vec::new(),
            qnames: Dictionary::new(),
            texts: Dictionary::new(),
        };
        for node in doc.all_nodes() {
            oracle.size.push(doc.subtree_size(node));
            oracle.level.push(doc.level(node));
            let (kind, prop) = match doc.kind(node) {
                NodeKind::Document => (NodeKindCode::Document, u32::MAX),
                NodeKind::Element { tag, attributes } => {
                    let tag = oracle.qnames.intern(tag);
                    for attr in attributes {
                        let name = oracle.qnames.intern(&attr.name);
                        let value = oracle.texts.intern(&attr.value);
                        oracle.attributes.push((node.0, name, value));
                    }
                    (NodeKindCode::Element, tag)
                }
                NodeKind::Text(text) => (NodeKindCode::Text, oracle.texts.intern(text)),
                NodeKind::Comment(text) => (NodeKindCode::Comment, oracle.texts.intern(text)),
                NodeKind::ProcessingInstruction { target, data } => {
                    let target = oracle.qnames.intern(target);
                    oracle.pi_target.push((node.0, target));
                    (NodeKindCode::Pi, oracle.texts.intern(data))
                }
            };
            oracle.kind.push(kind);
            oracle.prop.push(prop);
        }
        oracle
    }
}

fn entries(dictionary: &Dictionary) -> Vec<(u32, String)> {
    dictionary
        .iter()
        .map(|(id, v)| (id, v.to_string()))
        .collect()
}

fn attribute_rows(store: &DocStore) -> Vec<(u32, u32, u32)> {
    (0..store.attribute_count())
        .map(|i| (store.attr_owner[i], store.attr_name[i], store.attr_value[i]))
        .collect()
}

fn assert_same_store(a: &DocStore, b: &DocStore, xml: &str) {
    assert_eq!(a.size, b.size, "size of {xml:?}");
    assert_eq!(a.level, b.level, "level of {xml:?}");
    assert_eq!(a.kind, b.kind, "kind of {xml:?}");
    assert_eq!(a.prop, b.prop, "prop of {xml:?}");
    assert_eq!(
        attribute_rows(a),
        attribute_rows(b),
        "attributes of {xml:?}"
    );
    assert_eq!(a.pi_target, b.pi_target, "PI targets of {xml:?}");
    assert_eq!(entries(&a.qnames), entries(&b.qnames), "qnames of {xml:?}");
    assert_eq!(entries(&a.texts), entries(&b.texts), "texts of {xml:?}");
}

/// Both loading paths on `xml`: the same store or the same error.
fn both_paths(xml: &str) -> Result<DocStore, XmlError> {
    let streamed = DocStore::from_xml("d.xml", xml);
    let replayed = parse(xml).map(|doc| DocStore::from_document("d.xml", &doc));
    match (&streamed, &replayed) {
        (Ok(a), Ok(b)) => assert_same_store(a, b, xml),
        (Err(a), Err(b)) => {
            assert_eq!(
                (&a.message, a.offset),
                (&b.message, b.offset),
                "errors differ on {xml:?}"
            );
        }
        _ => panic!("one path fails on {xml:?}: {streamed:?} vs {replayed:?}"),
    }
    streamed
}

/// The byte index at or below `at` that starts a character.
fn char_floor(s: &str, mut at: usize) -> usize {
    at = at.min(s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every column and dictionary of `from_xml` equals the DOM oracle,
    /// and `from_document(parse(x))` equals `from_xml(x)`.
    #[test]
    fn shredding_matches_the_dom_oracle(steps in script()) {
        let xml = render(&steps);
        let doc = parse(&xml).unwrap_or_else(|e| panic!("{xml:?} does not parse: {e}"));
        let oracle = Oracle::of(&doc);
        let store = both_paths(&xml).unwrap();
        prop_assert_eq!(&store.size, &oracle.size, "size of {:?}", xml);
        prop_assert_eq!(&store.level, &oracle.level, "level of {:?}", xml);
        prop_assert_eq!(&store.kind, &oracle.kind, "kind of {:?}", xml);
        prop_assert_eq!(&store.prop, &oracle.prop, "prop of {:?}", xml);
        prop_assert_eq!(attribute_rows(&store), oracle.attributes.clone(), "attributes of {:?}", xml);
        prop_assert_eq!(&store.pi_target, &oracle.pi_target, "PI targets of {:?}", xml);
        prop_assert_eq!(entries(&store.qnames), entries(&oracle.qnames));
        prop_assert_eq!(entries(&store.texts), entries(&oracle.texts));
        prop_assert_eq!(store.source_bytes, xml.len());
    }

    /// The store serializes what it shredded exactly as the DOM would.
    #[test]
    fn serialization_matches_the_dom(steps in script()) {
        let xml = render(&steps);
        let doc = parse(&xml).unwrap();
        let store = DocStore::from_xml("d.xml", &xml).unwrap();
        prop_assert_eq!(store.subtree_to_xml(0), doc.node_to_xml(NodeId(0)), "{:?}", xml);
    }

    /// Cut anywhere: both paths fail alike (or, for a cut after the root
    /// closed, load alike).
    #[test]
    fn truncated_inputs_fail_alike(steps in script(), cut in 0usize..1000) {
        let xml = render(&steps);
        let cut = char_floor(&xml, cut % (xml.len() + 1));
        let _ = both_paths(&xml[..cut]);
    }

    /// Overwrite one character with markup-significant bytes: both paths
    /// fail alike or load alike.
    #[test]
    fn mutated_inputs_fail_alike(
        steps in script(),
        at in 0usize..1000,
        with in proptest::sample::select(vec!["<", ">", "&", "/", ";", "\"", "'", "=", "!", "?", "]]>", "-->", " ", "x", "&#0;", "&bogus;"]),
    ) {
        let xml = render(&steps);
        let at = char_floor(&xml, at % xml.len());
        let next = xml[at..].chars().next().map_or(0, char::len_utf8);
        let mutated = format!("{}{with}{}", &xml[..at], &xml[at + next..]);
        let _ = both_paths(&mutated);
    }
}

/// Inputs the generator cannot reach: nothing but a prolog, text outside
/// the root, unbalanced tags.
#[test]
fn degenerate_inputs_fail_alike() {
    for xml in [
        "",
        "   ",
        "<?xml version=\"1.0\"?>",
        "<!-- c -->",
        "text",
        "<a>",
        "</a>",
        "<a></a>trailing",
        "<a/><b/>",
        "<a><![CDATA[x]]",
        "<a x=\"1\" x=\"2\"/>",
        "<a>&unknown;</a>",
        "<a b=\"&#xD800;\"/>",
    ] {
        let _ = both_paths(xml);
    }
}

/// A 100 000-level chain loads through both paths; every node nests in
/// the one before it.
#[test]
fn a_deep_chain_loads() {
    let n = 100_000;
    let xml = format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
    let store = both_paths(&xml).unwrap();
    assert_eq!(store.node_count(), n + 1);
    let root = store.root_element().unwrap();
    assert_eq!(store.size_of(root) as usize, n - 1);
    assert_eq!(store.level_of(n as u32) as usize, n);
}
