//! Cross-engine agreement tests.
//!
//! The strongest correctness argument this reproduction can make is that
//! two completely independent implementations — the relational, loop-lifted
//! Pathfinder engine and the navigational baseline interpreter — produce
//! identical results for the whole XMark query set on generated documents.

use pathfinder::baseline::BaselineEngine;
use pathfinder::engine::{EngineOptions, Pathfinder};
use pathfinder::xmark::{generate, queries, GeneratorConfig};

fn engines(scale: f64, seed: u64) -> (Pathfinder, BaselineEngine) {
    let xml = generate(&GeneratorConfig { scale, seed });
    let pf = Pathfinder::new();
    pf.load_document("auction.xml", &xml).unwrap();
    let mut baseline = BaselineEngine::new();
    baseline.load_document("auction.xml", &xml).unwrap();
    (pf, baseline)
}

#[test]
fn all_twenty_xmark_queries_agree_between_engines() {
    let (pf, mut baseline) = engines(0.004, 20050831);
    for q in queries() {
        let relational = pf
            .session()
            .query(q.text)
            .unwrap_or_else(|e| panic!("Pathfinder failed on Q{}: {e}", q.id));
        let navigational = baseline
            .query(q.text)
            .unwrap_or_else(|e| panic!("baseline failed on Q{}: {e}", q.id));
        assert_eq!(
            relational.to_xml(),
            navigational.to_xml(),
            "Q{} disagrees between the relational and navigational engines",
            q.id
        );
    }
}

#[test]
fn join_recognition_does_not_change_results() {
    use pathfinder::xquery::CompileOptions;

    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 7,
    });
    let with_joins = Pathfinder::new();
    with_joins.load_document("auction.xml", &xml).unwrap();
    let without_joins = Pathfinder::with_options(EngineOptions {
        compile: CompileOptions {
            join_recognition: false,
        },
        optimize: true,
        ..Default::default()
    });
    without_joins.load_document("auction.xml", &xml).unwrap();

    for id in [8u8, 9, 10, 11, 12] {
        let q = pathfinder::xmark::query(id).unwrap();
        let a = with_joins.session().query(q.text).unwrap();
        let b = without_joins.session().query(q.text).unwrap();
        assert_eq!(
            a.to_xml(),
            b.to_xml(),
            "Q{id} changed under join recognition"
        );
    }
}

#[test]
fn optimizer_does_not_change_results() {
    let xml = generate(&GeneratorConfig {
        scale: 0.003,
        seed: 13,
    });
    let optimized = Pathfinder::new();
    optimized.load_document("auction.xml", &xml).unwrap();
    let unoptimized = Pathfinder::with_options(EngineOptions {
        optimize: false,
        ..Default::default()
    });
    unoptimized.load_document("auction.xml", &xml).unwrap();

    for q in queries() {
        let a = optimized.session().query(q.text).unwrap();
        let b = unoptimized.session().query(q.text).unwrap();
        assert_eq!(
            a.to_xml(),
            b.to_xml(),
            "Q{} changed under peephole optimization",
            q.id
        );
    }
}

#[test]
fn engines_agree_on_handwritten_micro_queries() {
    let xml = "<site><people>\
        <person id=\"p0\"><name>Ann</name><age>31</age></person>\
        <person id=\"p1\"><name>Bo</name><age>45</age></person>\
        <person id=\"p2\"><name>Cy</name><age>22</age></person>\
        </people></site>";
    let pf = Pathfinder::new();
    pf.load_document("doc.xml", xml).unwrap();
    let mut baseline = BaselineEngine::new();
    baseline.load_document("doc.xml", xml).unwrap();

    let queries = [
        "fn:count(fn:doc(\"doc.xml\")//person)",
        "fn:sum(fn:doc(\"doc.xml\")//age)",
        "for $p in fn:doc(\"doc.xml\")//person where number($p/age) > 30 return string($p/name)",
        "for $p in fn:doc(\"doc.xml\")//person order by number($p/age) return string($p/name)",
        "for $p in fn:doc(\"doc.xml\")//person order by number($p/age) descending return string($p/name)",
        "fn:doc(\"doc.xml\")//person[2]/name/text()",
        "fn:doc(\"doc.xml\")//person[last()]/name/text()",
        "for $p in fn:doc(\"doc.xml\")//person return element row { attribute id { $p/@id }, $p/name/text() }",
        "if (fn:empty(fn:doc(\"doc.xml\")//person[@id = \"p9\"])) then \"none\" else \"some\"",
        "fn:distinct-values(fn:doc(\"doc.xml\")//person/@id)",
        "some $p in fn:doc(\"doc.xml\")//person satisfies number($p/age) > 40",
        "(1, 2, 3, fn:count(fn:doc(\"doc.xml\")//name))",
        "for $a in fn:doc(\"doc.xml\")//person, $b in fn:doc(\"doc.xml\")//person where $a/@id = $b/@id return 1",
    ];
    for q in queries {
        let a = pf
            .session()
            .query(q)
            .unwrap_or_else(|e| panic!("Pathfinder failed on `{q}`: {e}"));
        let b = baseline
            .query(q)
            .unwrap_or_else(|e| panic!("baseline failed on `{q}`: {e}"));
        assert_eq!(a.to_xml(), b.to_xml(), "engines disagree on `{q}`");
    }
}

/// A predicate whose value is a single number selects by position, not by
/// effective boolean value — however the number is computed.
#[test]
fn numeric_predicates_select_by_position() {
    let xml = "<r><p>a</p><p>b</p><p>c</p></r>";
    let pf = Pathfinder::new();
    pf.load_document("d.xml", xml).unwrap();
    let mut baseline = BaselineEngine::new();
    baseline.load_document("d.xml", xml).unwrap();
    let cases = [
        ("fn:doc(\"d.xml\")/r/p[1 + 1]", "<p>b</p>"),
        ("let $k := 2 return fn:doc(\"d.xml\")/r/p[$k]", "<p>b</p>"),
        (
            "for $i in (1, 3) return fn:doc(\"d.xml\")/r/p[$i]/text()",
            "ac",
        ),
    ];
    for (q, expected) in cases {
        let a = pf.session().query(q).unwrap().to_xml();
        let b = baseline.query(q).unwrap().to_xml();
        assert_eq!(a, b, "engines disagree on `{q}`");
        assert_eq!(a, expected, "`{q}` must select by position");
    }
}

/// `fn:string-length` of the empty sequence is 0 (XQuery F&O), in every
/// iteration that has no item, optimized or not.
#[test]
fn string_length_of_the_empty_sequence_is_zero() {
    let xml = "<r><p>ab</p><p/><p>c</p></r>";
    let mut baseline = BaselineEngine::new();
    baseline.load_document("d.xml", xml).unwrap();
    let cases = [
        ("fn:string-length(())", "0"),
        (
            "for $p in fn:doc(\"d.xml\")//p return fn:string-length($p/missing)",
            "0 0 0",
        ),
        (
            "for $p in fn:doc(\"d.xml\")//p return fn:string-length($p/text())",
            "2 0 1",
        ),
    ];
    for optimize in [true, false] {
        let pf = Pathfinder::with_options(EngineOptions::builder().optimize(optimize).build());
        pf.load_document("d.xml", xml).unwrap();
        for (q, expected) in cases {
            let a = pf.session().query(q).unwrap().to_xml();
            let b = baseline.query(q).unwrap().to_xml();
            assert_eq!(a, b, "engines disagree on `{q}` (optimize = {optimize})");
            assert_eq!(a, expected, "`{q}` (optimize = {optimize})");
        }
    }
}

/// Processing instructions keep their targets through the store, node
/// copying in constructors and serialization: `<?target?>` without data,
/// `<?target data?>` with.
#[test]
fn engines_agree_on_processing_instructions() {
    let docs = [
        "<a><?tgt some data?><b/></a>",
        "<a><?t?>x<?u  spaced  data ?><b><?deep d?></b></a>",
        "<a>text<?x-y:z d?>more<b x=\"1\"><?p?><c/></b><?q r?></a>",
    ];
    let queries = [
        "fn:doc(\"d.xml\")/a",
        "element r { fn:doc(\"d.xml\")/a }",
        "element r { fn:doc(\"d.xml\")/a/b }",
        "for $b in fn:doc(\"d.xml\")//b return element w { $b, \"t\" }",
        "fn:doc(\"d.xml\")",
    ];
    for xml in docs {
        let pf = Pathfinder::new();
        pf.load_document("d.xml", xml).unwrap();
        let mut baseline = BaselineEngine::new();
        baseline.load_document("d.xml", xml).unwrap();
        for q in queries {
            let a = pf.session().query(q).unwrap().to_xml();
            let b = baseline.query(q).unwrap().to_xml();
            assert_eq!(a, b, "engines disagree on `{q}` over {xml}");
        }
    }
}

/// Data cannot forge a constructed attribute.  U+0001 is neither an XML
/// nor an XQuery character, so the inputs that used to smuggle the
/// engine's attribute marker into element content — a raw U+0001 in a
/// string literal, in a document, or as a character reference — are the
/// same error on both engines.  Tab, LF and CR are characters and load.
#[test]
fn forged_attribute_markers_are_the_same_error_on_both_engines() {
    let pf = Pathfinder::new();
    let mut baseline = BaselineEngine::new();
    let forged = "element a { \"\u{1}attr\u{1}x\u{1}y\", \"t\" }";
    let error = pf.session().query(forged).unwrap_err().to_string();
    assert!(error.contains("control character U+0001"), "{error}");
    assert_eq!(error, baseline.query(forged).unwrap_err());
    for xml in [
        "<r>\u{1}attr\u{1}k\u{1}v</r>",
        "<r>&#1;attr&#1;k&#1;v</r>",
        "<r k=\"&#x1;attr\"/>",
    ] {
        let error = pf.load_document("d.xml", xml).unwrap_err().to_string();
        assert_eq!(
            error,
            baseline.load_document("d.xml", xml).unwrap_err(),
            "{xml:?}"
        );
    }
    let xml = "<r a=\"\t\">x\ty\r\nz&#9;&#10;&#13;</r>";
    pf.load_document("d.xml", xml).unwrap();
    baseline.load_document("d.xml", xml).unwrap();
    for q in [
        "fn:doc(\"d.xml\")/r",
        "element a { fn:string(fn:doc(\"d.xml\")/r), \"\t\", fn:doc(\"d.xml\")/r }",
    ] {
        let a = pf.session().query(q).unwrap().to_xml();
        assert_eq!(a, baseline.query(q).unwrap().to_xml(), "{q}");
        assert!(a.contains("x\ty\r\nz\t\n\r"), "{a:?}");
    }
}

/// One `xs:double` lexical parser on both engines: `INF`, `-INF` and `NaN`
/// are numbers and serialize as XQuery spells them, while `infinity` —
/// which Rust's own float parser accepts — is a string, in a comparison
/// with a literal and with document content alike.
#[test]
fn engines_agree_on_the_xs_double_lexical_space() {
    let xml = "<r><v>INF</v><v>-INF</v><v>infinity</v><v>2.5</v></r>";
    let pf = Pathfinder::new();
    pf.load_document("d.xml", xml).unwrap();
    let mut baseline = BaselineEngine::new();
    baseline.load_document("d.xml", xml).unwrap();
    for (q, expected) in [
        ("number(\"INF\")", "INF"),
        ("number(\" -INF \")", "-INF"),
        ("-number(\"INF\")", "-INF"),
        ("number(\"INF\") * 0", "NaN"),
        ("number(\"INF\") > 1", "true"),
        // Not a number: compared as strings, "-i" > "-5".
        ("\"-infinity\" > -5", "true"),
        ("\"infinity\" = number(\"INF\")", "false"),
        (
            "for $v in fn:doc(\"d.xml\")//v where $v > 0 return fn:string($v)",
            "INF infinity 2.5",
        ),
        ("fn:sum(fn:doc(\"d.xml\")//v[1])", "INF"),
    ] {
        let a = pf
            .session()
            .query(q)
            .unwrap_or_else(|e| panic!("Pathfinder failed on `{q}`: {e}"));
        let b = baseline
            .query(q)
            .unwrap_or_else(|e| panic!("baseline failed on `{q}`: {e}"));
        assert_eq!(a.to_xml(), b.to_xml(), "engines disagree on `{q}`");
        assert_eq!(a.to_xml(), expected, "`{q}`");
    }
}
