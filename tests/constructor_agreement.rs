//! Constructor agreement: element, attribute and text constructors give
//! byte-identical results on the relational engine — which writes each
//! constructor's transient fragment straight into `pre|size|level`
//! columns — and on the navigational `pf-baseline`, which builds a DOM.
//!
//! Random documents carry comments, PIs, CDATA, attributes and mixed
//! content; random queries nest ε copying transient nodes, attributes
//! with multi-item and node content, adjacent atomics and atomics next to
//! copied text nodes (the text merge and the " " rule), copies of the
//! document node, `text { }` over empty and multi-item content, and empty
//! sequences — at the top level and inside loops of many iterations.

use proptest::prelude::*;

use pathfinder::baseline::BaselineEngine;
use pathfinder::engine::{EngineOptions, Pathfinder};

const TAGS: [&str; 3] = ["e", "f", "x:g"];
const TEXTS: [&str; 6] = [
    "t",
    "a &lt; b",
    "&amp;&#x20AC;",
    "é ü",
    "two words",
    "\"q\"",
];
const VALUES: [&str; 4] = ["1", "", "&lt;v&gt;", "it's"];

/// Render a document script: a root element, then per step an element
/// (with up to two attributes), a close, text, CDATA, a comment or a PI.
fn document(script: &[(u8, u8)]) -> String {
    let mut xml = String::from("<r>");
    let mut open = vec!["r"];
    for &(op, arg) in script {
        let arg = arg as usize;
        match op % 7 {
            0 | 1 => {
                let tag = TAGS[arg % TAGS.len()];
                xml.push('<');
                xml.push_str(tag);
                for (i, name) in ["id", "k"].iter().enumerate().take(arg / 3 % 3) {
                    let value = VALUES[(arg + i) % VALUES.len()];
                    xml.push_str(&format!(" {name}=\"{value}\""));
                }
                if op % 7 == 1 {
                    xml.push_str("/>");
                } else {
                    xml.push('>');
                    open.push(tag);
                }
            }
            2 if open.len() > 1 => xml.push_str(&format!("</{}>", open.pop().unwrap())),
            2 | 3 => xml.push_str(TEXTS[arg % TEXTS.len()]),
            4 => xml.push_str(&format!("<![CDATA[{}]]>", ["", "c<d", "]"][arg % 3])),
            5 => xml.push_str(&format!("<!--{}-->", ["", "note", "x&y"][arg % 3])),
            _ => xml.push_str(&format!(
                "<?{} {}?>",
                ["p", "q"][arg % 2],
                ["", "data"][arg / 2 % 2]
            )),
        }
    }
    while let Some(tag) = open.pop() {
        xml.push_str(&format!("</{tag}>"));
    }
    xml
}

/// The generator's choices, read off a random tape (zeros once it runs
/// out, which ends every sequence and bounds the nesting).
struct Tape<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self, choices: usize) -> usize {
        let byte = self.bytes.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        byte as usize % choices
    }
}

const LITERALS: [&str; 7] = ["1", "42", "2.5", "\"s\"", "\"a<b & c\"", "\"\"", "\"é\""];
const PATHS: [&str; 8] = [
    "doc(\"d.xml\")//e",
    "doc(\"d.xml\")//text()",
    "doc(\"d.xml\")/r/node()",
    "doc(\"d.xml\")//comment()",
    "doc(\"d.xml\")//processing-instruction()",
    "doc(\"d.xml\")//f[1]",
    "doc(\"d.xml\")//missing",
    "doc(\"d.xml\")",
];
/// Content over the loop variable, which is bound to an `e` element.
const VAR_PATHS: [&str; 4] = ["$v", "$v/node()", "$v/text()", "$v/*"];

/// Where a content sequence sits: element content may hold attribute
/// constructors, the content of `text { }` and `attribute { }` may not
/// (atomizing an attribute is outside what both engines implement).
#[derive(Clone, Copy)]
struct Scope {
    depth: usize,
    /// `$v` is bound.
    var: bool,
    element: bool,
}

impl Scope {
    fn inner(self, element: bool) -> Scope {
        Scope {
            depth: self.depth + 1,
            element,
            ..self
        }
    }
}

/// A constructor content sequence of up to three items.
fn content(tape: &mut Tape<'_>, scope: Scope) -> String {
    let items: Vec<String> = (0..tape.next(4)).map(|_| item(tape, scope)).collect();
    items.join(", ")
}

fn item(tape: &mut Tape<'_>, scope: Scope) -> String {
    let nested = scope.depth < 3;
    let var = scope.var;
    match tape.next(10) {
        0 | 1 => LITERALS[tape.next(LITERALS.len())].to_string(),
        2 | 3 => PATHS[tape.next(PATHS.len())].to_string(),
        4 if var => VAR_PATHS[tape.next(VAR_PATHS.len())].to_string(),
        5 if nested => format!(
            "element {} {{ {} }}",
            TAGS[tape.next(2)],
            content(tape, scope.inner(true))
        ),
        6 if nested && scope.element => {
            let value = match tape.next(3) {
                0 if var => "$v/@id".to_string(),
                _ => content(tape, scope.inner(false)),
            };
            format!("attribute {} {{ {value} }}", ["n", "id"][tape.next(2)])
        }
        7 if nested => format!("text {{ {} }}", content(tape, scope.inner(false))),
        8 => "()".to_string(),
        _ => LITERALS[tape.next(LITERALS.len())].to_string(),
    }
}

/// A query whose result is made by constructors: one element, a loop of
/// one element per `e` (or per integer), a sequence of two, or the nodes
/// of a constructed element reached by a step into its fragment.
fn query(tape: &mut Tape<'_>) -> String {
    let top = Scope {
        depth: 0,
        var: false,
        element: true,
    };
    match tape.next(5) {
        4 => format!(
            "for $c in element a {{ {} }} return {}",
            content(tape, top),
            [
                "$c//node()",
                "$c/*/node()",
                "count($c//text())",
                "$c//e/parent::node()"
            ][tape.next(4)]
        ),
        0 => format!("element a {{ {} }}", content(tape, top)),
        1 => format!(
            "for $v in doc(\"d.xml\")//e return element w {{ {} }}",
            content(tape, Scope { var: true, ..top })
        ),
        2 => {
            let rest = content(tape, top);
            let sep = if rest.is_empty() { "" } else { ", " };
            format!("for $i in (1, 2, 3) return element w {{ $i{sep}{rest} }}")
        }
        _ => format!(
            "(element a {{ {} }}, element b {{ {} }})",
            content(tape, top),
            content(tape, top)
        ),
    }
}

/// The engine's reply equals the baseline's.
fn agree(xml: &str, queries: &[String]) {
    let mut baseline = BaselineEngine::new();
    baseline.load_document("d.xml", xml).unwrap();
    let pf = Pathfinder::with_options(EngineOptions::default());
    pf.load_document("d.xml", xml).unwrap();
    let session = pf.session();
    for query in queries {
        let expected = baseline
            .query(query)
            .unwrap_or_else(|e| panic!("baseline fails on {query}: {e}"))
            .to_xml();
        let actual = session
            .query(query)
            .unwrap_or_else(|e| panic!("engine fails on {query}: {e}"))
            .to_xml();
        assert_eq!(actual, expected, "{query} over {xml:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random constructor queries over a random document.
    #[test]
    fn constructors_agree_on_random_documents(
        script in proptest::collection::vec((0u8..7, 0u8..60), 0..30),
        tapes in proptest::collection::vec(proptest::collection::vec(0u8..255, 0..48), 4..5),
    ) {
        let xml = document(&script);
        let queries: Vec<String> = tapes
            .iter()
            .map(|bytes| query(&mut Tape { bytes, at: 0 }))
            .collect();
        agree(&xml, &queries);
    }
}

/// `text { () }` constructs no node (XQuery's rule for empty content), so
/// an element around it has no child and serializes like `element a { () }`;
/// `text { "" }` constructs an empty text node.
#[test]
fn empty_text_content_constructs_no_node() {
    let pf = Pathfinder::new();
    let mut baseline = BaselineEngine::new();
    for (query, expected) in [
        ("count(text { () })", "0"),
        ("count(text { \"\" })", "1"),
        ("element a { text { () } }", "<a/>"),
        ("element a { text { \"\" } }", "<a></a>"),
        ("count(for $i in (1, 2, 3) return text { $i[. != 2] })", "2"),
        (
            "for $i in (1, 2, 3) return element w { text { $i[. != 2] } }",
            "<w>1</w><w/><w>3</w>",
        ),
    ] {
        let engine = pf.session().query(query).unwrap().to_xml();
        assert_eq!(engine, expected, "{query}");
        assert_eq!(baseline.query(query).unwrap().to_xml(), expected, "{query}");
    }
}

/// The shapes the generator must reach, spelled out.
#[test]
fn constructor_shapes_agree() {
    let xml = "<r><e id=\"1\">a<f k=\"&lt;\">b</f><!--c--><?p d?>t</e>\
               <e/><f>x<![CDATA[<y>]]></f>z</r>";
    let queries: Vec<String> = [
        // Nested ε copying transient nodes.
        "element a { element b { element c { 1 } }, element d { () } }",
        // Attributes with multi-item and node content, anywhere.
        "element a { attribute n { 1, \"s\", doc(\"d.xml\")//f }, 2, attribute m { () } }",
        // Adjacent atomics, and atomics next to copied text nodes.
        "element a { 1, 2.5, \"s\", doc(\"d.xml\")//text(), 3, doc(\"d.xml\")//f/text(), \"\" }",
        // Text merging is structural, not only serialized: one text node.
        "for $c in element a { 1, doc(\"d.xml\")//text(), \"s\" } return count($c//text())",
        // The document node's children are copied.
        "element a { doc(\"d.xml\") }",
        // text { } over empty and multi-item content: empty content
        // constructs no node, an empty string one.
        "element a { text { () }, 1, text { 1, doc(\"d.xml\")//f } }",
        "text { 1, \"a<b\" }",
        "count(text { () })",
        "count(text { \"\" })",
        "element a { text { () } }",
        // ... and per iteration, over empty and non-empty iterations.
        "for $v in doc(\"d.xml\")//e return text { $v/f }",
        "count(for $v in doc(\"d.xml\")//e return text { $v/f })",
        "for $v in doc(\"d.xml\")//e return element w { text { $v/f/text() }, \"s\" }",
        "for $i in (1, 2, 3) return element w { text { $i[. != 2] } }",
        // Empty sequences and loops of many iterations.
        "element a { () }",
        "for $v in doc(\"d.xml\")//missing return element w { $v }",
        "for $v in doc(\"d.xml\")//e return element w { attribute id { $v/@id }, $v/node(), \"s\" }",
    ]
    .map(str::to_string)
    .to_vec();
    agree(xml, &queries);
}
