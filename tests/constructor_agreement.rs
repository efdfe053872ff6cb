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
//!
//! Constructed attributes are rows of their operator's fragment, passed
//! on as references: a fixed corpus checks them wherever they can go —
//! top level, after content, reused, reordered, duplicated, atomized.

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

/// Where a content sequence sits.  Any content may hold attribute
/// constructors: element content makes them the element's attributes,
/// the content of `text { }` and `attribute { }` atomizes them.
#[derive(Clone, Copy)]
struct Scope {
    depth: usize,
    /// `$v` is bound.
    var: bool,
}

impl Scope {
    fn inner(self) -> Scope {
        Scope {
            depth: self.depth + 1,
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
            content(tape, scope.inner())
        ),
        6 if nested => {
            let value = match tape.next(3) {
                0 if var => "$v/@id".to_string(),
                _ => content(tape, scope.inner()),
            };
            format!("attribute {} {{ {value} }}", ["n", "id"][tape.next(2)])
        }
        7 if nested => format!("text {{ {} }}", content(tape, scope.inner())),
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

/// Constructed attributes wherever a query can put them: at the top level
/// and in sequences, after content, the same `$a` twice, through
/// `order by` and `[1]`, duplicate names, empty and multibyte values, two
/// α operators inside one ε, and atomized by every function and
/// comparison that atomizes.
#[test]
fn constructed_attributes_agree() {
    let xml = "<r><e id=\"2\">a<f k=\"&lt;\">b</f></e><e id=\"1\"><f/>c</e><e id=\"3\"/></r>";
    let queries: Vec<String> = [
        // The top level and sequences.
        "attribute n { 1 }",
        "(attribute n { 1 }, attribute m { \"x\" })",
        "(1, attribute n { 2 }, \"s\", attribute m { 3 }, 4)",
        "for $v in doc(\"d.xml\")//e return attribute id { $v/@id }",
        // Placed after content.
        "element a { 1, doc(\"d.xml\")//f, attribute n { \"v\" } }",
        "element a { element b { 2 }, \"t\", attribute n { 1 } }",
        // The same `$a` twice, in one element and in two.
        "let $a := attribute n { 1 } return element e { $a, $a }",
        "for $a in attribute n { 1 } return (element e { $a }, element f { 2, $a })",
        "for $v in doc(\"d.xml\")//e let $a := attribute k { $v/@id } return element w { $a, $v/f, $a }",
        // Through `order by` and `[1]`.
        "for $v in doc(\"d.xml\")//e order by string($v/@id) descending return element x { attribute k { $v/@id }, $v/text() }",
        "for $i in (3, 1, 2) order by $i descending return attribute n { $i }",
        "(attribute n { 1 }, attribute m { 2 })[1]",
        "element a { (attribute n { 1 }, attribute m { 2 })[2], 3 }",
        "for $v in doc(\"d.xml\")//e return element w { (attribute n { $v/@id }, attribute m { 0 })[1] }",
        // Duplicate names.
        "element a { attribute n { 1 }, attribute n { 2 } }",
        "(attribute n { 1 }, attribute n { 1 })",
        // Empty and multibyte values, and values that need escaping.
        "element a { attribute n { () }, attribute m { \"\" }, attribute o { \"é ü €\" } }",
        "element a { attribute n { 'a<b & \"c\" >' } }",
        "(attribute n { \"é\" }, attribute m { \"<&>\" })",
        // Two α operators inside one ε, per iteration.
        "element a { attribute n { 1 }, attribute m { 2 } }",
        "for $v in doc(\"d.xml\")//e return element w { attribute n { $v/@id }, attribute m { count($v/f) }, $v/f }",
        "for $i in (1, 2, 3) return element w { attribute n { $i }, $i, attribute m { $i * 2 } }",
        // Atomized: fn:string, fn:data, comparisons, α and τ content.
        "fn:string(attribute n { 1 })",
        "data((attribute n { 1 }, attribute m { \"x\" }))",
        "attribute n { 1 } = \"1\"",
        "attribute n { \"5\" } > 3",
        "attribute n { 1 } = attribute m { 1 }",
        "text { attribute n { 5 }, 6 }",
        "attribute m { attribute n { 5 }, \"x\" }",
        "element a { attribute m { attribute n { 5 } } }",
        "element a { text { attribute n { 1 } } }",
        "string-length(attribute n { \"abc\" })",
        "count((attribute n { 1 }, attribute m { 2 }))",
        "concat(attribute n { \"a\" }, \"b\")",
        "number(attribute n { \"4\" }) + 1",
        "sum((attribute n { 4 }, attribute m { 5 }))",
        "contains(attribute n { \"abc\" }, \"b\")",
        "distinct-values((attribute n { 1 }, attribute m { 1 }, attribute o { 2 }))",
        "for $a in (attribute n { 2 }, attribute n { 1 }) order by string($a) return string($a)",
        "if (attribute n { \"\" }) then 1 else 2",
        "for $v in doc(\"d.xml\")//e where attribute k { $v/@id } = \"1\" return $v/f",
    ]
    .map(str::to_string)
    .to_vec();
    agree(xml, &queries);
}

/// Item 7's row 1 of the roadmap, pinned in both engines: a constructed
/// attribute atomizes to its value and serializes as `name="value"`.
#[test]
fn constructed_attributes_atomize_to_their_value() {
    let pf = Pathfinder::new();
    let mut baseline = BaselineEngine::new();
    for (query, expected) in [
        ("fn:string(attribute n { 1 })", "1"),
        ("attribute n { 1 } = \"1\"", "true"),
        ("attribute n { 1 }", "n=\"1\""),
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
