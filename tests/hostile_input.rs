//! Hostile bytes never panic: arbitrary byte strings — every C0 control
//! over-represented, markup bytes frequent, spliced into well-formed
//! inputs as well as on their own — go into `pf_xml::parse`,
//! `DocStore::from_xml` and `pf_xquery::parse_query`.  Each returns `Ok`
//! or `Err`; the two XML entry points fail alike; and whatever loads
//! holds no C0 control but tab, LF and CR, so no document can carry the
//! engine's constructed-attribute marker (U+0001) into a query.

use proptest::prelude::*;

use pathfinder::store::DocStore;
use pathfinder::xml::parse;
use pathfinder::xquery::parse_query;

const XML_SEEDS: [&str; 3] = [
    "<a b=\"c\" d='&amp;'>t&#65;<!--x--><?p d?><![CDATA[z]]><e/></a>",
    "<?xml version=\"1.0\"?><!DOCTYPE a [<!ENTITY x \"y\">]><a>&lt;</a>",
    "",
];
const QUERY_SEEDS: [&str; 3] = [
    "element a { attribute b { \"c\" }, doc(\"d.xml\")//e, text { 1 } }",
    "for $x at $i in (1, 2) where $x = 1 return ($x, 'q''q') (: c :)",
    "",
];

/// A byte: a C0 control half the time, else a markup byte or any byte.
fn hostile_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        0u8..32,
        0u8..32,
        proptest::sample::select(b"<>&;#\"'/=?![]{}()$:@ -x".to_vec()),
        0u8..255,
    ]
}

/// Splice `bytes` into `seed` at `at`, read as (lossy) UTF-8.
fn splice(seed: &str, at: usize, bytes: &[u8]) -> String {
    let mut at = at % (seed.len() + 1);
    while !seed.is_char_boundary(at) {
        at -= 1;
    }
    let mut raw = seed.as_bytes()[..at].to_vec();
    raw.extend_from_slice(bytes);
    raw.extend_from_slice(&seed.as_bytes()[at..]);
    String::from_utf8_lossy(&raw).into_owned()
}

fn is_forbidden(c: char) -> bool {
    c < ' ' && !matches!(c, '\t' | '\n' | '\r')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both XML entry points return, alike; what loads is clean.
    #[test]
    fn hostile_xml_fails_alike(
        seed in 0usize..3,
        at in 0usize..200,
        bytes in proptest::collection::vec(hostile_byte(), 0..24),
    ) {
        let xml = splice(XML_SEEDS[seed], at, &bytes);
        let dom = parse(&xml);
        let store = DocStore::from_xml("h.xml", &xml);
        match (&dom, &store) {
            (Ok(_), Ok(store)) => {
                for (_, text) in store.texts.iter().chain(store.qnames.iter()) {
                    prop_assert!(!text.chars().any(is_forbidden), "{:?} in {:?}", text, xml);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?}", xml),
            _ => panic!("the entry points disagree on {xml:?}: {dom:?} vs {store:?}"),
        }
    }

    /// The query parser returns on anything.
    #[test]
    fn hostile_queries_return(
        seed in 0usize..3,
        at in 0usize..200,
        bytes in proptest::collection::vec(hostile_byte(), 0..24),
    ) {
        let query = splice(QUERY_SEEDS[seed], at, &bytes);
        let _ = parse_query(&query);
    }
}

/// The two forged-attribute inputs: a raw U+0001 and a reference to it.
#[test]
fn the_attribute_marker_cannot_enter_through_a_document() {
    for xml in [
        "<r>\u{1}attr\u{1}k\u{1}v</r>",
        "<r>&#1;attr&#1;k&#1;v</r>",
        "<r a=\"&#x1;\"/>",
    ] {
        let dom = parse(xml).unwrap_err();
        assert_eq!(DocStore::from_xml("d.xml", xml).unwrap_err(), dom);
    }
    assert!(parse_query("element a { \"\u{1}attr\u{1}x\u{1}y\", \"t\" }").is_err());
}
