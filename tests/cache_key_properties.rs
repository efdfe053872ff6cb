//! Property tests for the plan-cache key normalization
//! (`pf_engine::normalize_cache_key`) plus a regression test pinning the
//! constructor content gather to linear scaling.
//!
//! The cache folds trivially-reformatted queries onto one key by
//! collapsing whitespace runs *outside* string literals.  The invariant
//! that keeps the cache sound: **distinct queries never fold onto one
//! key** — literal bodies survive verbatim (whitespace inside them is
//! significant), quotes inside (possibly nested) comments must not
//! desynchronize the literal tracking, the doubled-quote escape
//! round-trips, and unterminated literals or comments must not panic.
//!
//! Behind the text key sits the *shape* key (`pf_xquery::lift`): queries
//! that differ only in a lifted string literal share one, and queries
//! that differ anywhere else — a `doc()` URI, a number, constructor
//! content, the expression around the literal — never do.

use proptest::prelude::*;

use pathfinder::engine::normalize_cache_key;
use pathfinder::xquery::{lift, parse_query};

/// A whitespace run (the only thing normalization may rewrite).
fn whitespace() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(vec![' ', '\t', '\n', '\r']), 1..4)
        .prop_map(|chars| chars.into_iter().collect())
}

/// A code token that contains no whitespace, quotes or comment delimiters.
fn code_token() -> impl Strategy<Value = String> {
    proptest::sample::select(vec![
        "for", "$x", "in", "return", "1", "+", "fn:count", "//b", "=", "then", "else", "(1,2)",
    ])
    .prop_map(str::to_string)
}

/// A string literal with arbitrary (escaped) inner whitespace and quotes of
/// the other kind; `(kind, body)` where `kind` is `"` or `'`.
fn literal() -> impl Strategy<Value = String> {
    (
        proptest::bool::ANY,
        proptest::collection::vec(
            proptest::sample::select(vec!["a", "b", " ", "  ", "\t", "(:", ":)", "x y", "z"]),
            0..5,
        ),
    )
        .prop_map(|(double, parts)| {
            let quote = if double { '"' } else { '\'' };
            let body: String = parts.concat();
            // Escape the delimiter by doubling if it appears (it cannot
            // with the part alphabet above, but keep the constructor
            // total).
            let body = body.replace(quote, &format!("{quote}{quote}"));
            format!("{quote}{body}{quote}")
        })
}

/// A (possibly nested) comment whose body may contain quotes.
fn comment() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!["\"", "'", "x", " ", "(: y :)", "q"]),
        0..4,
    )
    .prop_map(|parts| format!("(:{}:)", parts.concat()))
}

/// A random query assembled from tokens, literals, comments and whitespace.
fn query() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![code_token(), literal(), comment(), whitespace(),],
        1..12,
    )
    .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Normalization is idempotent: a key is its own key.
    #[test]
    fn normalization_is_idempotent(q in query()) {
        let key = normalize_cache_key(&q);
        prop_assert_eq!(normalize_cache_key(&key), key);
    }

    /// Adding whitespace *between* parts never changes the key (that is
    /// the whole point of the normalization)…
    #[test]
    fn outside_whitespace_is_insignificant(
        parts in proptest::collection::vec(prop_oneof![code_token(), literal(), comment()], 1..8),
        pads in proptest::collection::vec(whitespace(), 0..8),
    ) {
        let compact = parts.join(" ");
        let mut padded = String::new();
        for (i, part) in parts.iter().enumerate() {
            padded.push_str(pads.get(i).map_or(" ", String::as_str));
            padded.push_str(part);
        }
        prop_assert_eq!(normalize_cache_key(&compact), normalize_cache_key(&padded));
    }

    /// …but whitespace *inside* a string literal is significant: two
    /// queries whose literals differ only in inner whitespace keep
    /// distinct keys, even when a comment containing a quote precedes the
    /// literal (the desync scenario).
    #[test]
    fn literal_bodies_keep_queries_distinct(
        prefix in prop_oneof![code_token(), comment()],
        spaces in 1usize..4,
    ) {
        let a = format!("{prefix} \"x{}y\"", " ".repeat(spaces));
        let b = format!("{prefix} \"x{}y\"", " ".repeat(spaces + 1));
        prop_assert_ne!(normalize_cache_key(&a), normalize_cache_key(&b));
    }

    /// Doubled-quote escapes round-trip: the escaped and the
    /// differently-spaced variants stay apart.
    #[test]
    fn doubled_quote_escapes_do_not_fold(spaces in 1usize..4) {
        let a = format!("\"he said \"\"hi{}there\"\"\"", " ".repeat(spaces));
        let b = format!("\"he said \"\"hi{}there\"\"\"", " ".repeat(spaces + 1));
        prop_assert_ne!(normalize_cache_key(&a), normalize_cache_key(&b));
        prop_assert!(normalize_cache_key(&a).contains("\"\"hi"));
    }

    /// Unterminated literals and comments normalize without panicking and
    /// still produce stable keys.
    #[test]
    fn unterminated_constructs_do_not_panic(q in query(), tail in prop_oneof![Just("\""), Just("'"), Just("(:")]) {
        let broken = format!("{q}{tail}");
        let key = normalize_cache_key(&broken);
        prop_assert_eq!(normalize_cache_key(&key), key);
    }

    /// Collapsing never merges tokens: distinct token sequences keep
    /// distinct keys (a space may shrink but never disappears).
    #[test]
    fn token_boundaries_survive(a in code_token(), b in code_token()) {
        let spaced = format!("{a} {b}");
        let glued = format!("{a}{b}");
        prop_assert_ne!(normalize_cache_key(&spaced), normalize_cache_key(&glued));
    }
}

/// The body of a string literal as written between double quotes:
/// letters, digits, spaces, a doubled quote and an entity reference.
fn literal_body() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!["a", "Z", "7", " ", "\"\"", "&amp;", "person", "!"]),
        0..5,
    )
    .prop_map(|parts| parts.concat())
}

/// Query shapes with one lifted literal, written `{}`.
const LIFTED: &[&str] = &[
    r#"count(doc("d.xml")//p[@id = "{}"])"#,
    r#"for $x in doc("d.xml")//p where $x/name != "{}" return $x"#,
    r#"doc("d.xml")//p[contains(string(.), "{}")]"#,
    r#"for $x in doc("d.xml")//p where starts-with($x, "{}") return 1"#,
    r#"if ("{}" ge $y) then 1 else 2"#,
];

/// The shape key of a query text.
fn shape_key(query: &str) -> String {
    lift(&parse_query(query).expect("the generated query parses")).key()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Queries that differ only in a lifted literal share one shape key,
    /// and lifting hands back each query's own literal.
    #[test]
    fn lifted_literals_share_a_shape_key(
        shape in proptest::sample::select(LIFTED.to_vec()),
        a in literal_body(),
        b in literal_body(),
    ) {
        let (qa, qb) = (shape.replace("{}", &a), shape.replace("{}", &b));
        prop_assert_eq!(shape_key(&qa), shape_key(&qb));
        let lifted = lift(&parse_query(&qa).unwrap());
        prop_assert_eq!(lifted.values, vec![a.replace("\"\"", "\"")]);
    }

    /// Queries that differ anywhere else — in the shape around the
    /// literal, or in a literal that is not lifted — never share a key.
    #[test]
    fn other_differences_never_share_a_shape_key(
        i in 0..LIFTED.len(),
        j in 0..LIFTED.len(),
        a in literal_body(),
        b in literal_body(),
        n in 1u32..5,
        m in 1u32..5,
    ) {
        if i != j {
            prop_assert_ne!(
                shape_key(&LIFTED[i].replace("{}", &a)),
                shape_key(&LIFTED[j].replace("{}", &b))
            );
        }
        // doc() URIs name a document: never lifted.
        let doc = |uri: &str| format!(r#"count(doc("{uri}")//p[@id = "x"])"#);
        if a != b {
            prop_assert_ne!(shape_key(&doc(&a)), shape_key(&doc(&b)));
        }
        // Numbers decide positional predicates: never lifted.
        let nth = |k: u32| format!(r#"doc("d.xml")//p[{k}]"#);
        if n != m {
            prop_assert_ne!(shape_key(&nth(n)), shape_key(&nth(m)));
        }
        // A number and a string literal are different shapes.
        prop_assert_ne!(
            shape_key(&format!("$x = {n}")),
            shape_key(&format!(r#"$x = "{n}""#))
        );
        // Constructor content and other arguments are never lifted.
        if a != b {
            let concat = |s: &str| format!(r#"concat("{s}", $x)"#);
            prop_assert_ne!(shape_key(&concat(&a)), shape_key(&concat(&b)));
            let text = |s: &str| format!(r#"element e {{ "{s}" }}"#);
            prop_assert_ne!(shape_key(&text(&a)), shape_key(&text(&b)));
        }
    }
}

/// Regression: constructor-heavy queries must scale ~linearly in the
/// iteration count.  The old `content_of_iteration` rescanned the whole
/// content table per loop row (O(iterations × rows)); with the one-pass
/// group index, quadrupling the iterations must not cost anywhere near
/// 16× the time.  The bound (10×) is far above linear noise and far below
/// the quadratic ratio, so the test is robust on slow or busy machines.
#[test]
fn constructor_queries_scale_linearly_in_iteration_count() {
    use std::time::{Duration, Instant};

    fn doc_with(n: usize) -> String {
        let mut xml = String::with_capacity(n * 16 + 16);
        xml.push_str("<r>");
        for i in 0..n {
            xml.push_str(&format!("<x>{i}</x>"));
        }
        xml.push_str("</r>");
        xml
    }

    // Best-of-3 wall time of the constructor query over n iterations.
    fn best_time(n: usize) -> Duration {
        let pf = pathfinder::engine::Pathfinder::new();
        pf.load_document("c.xml", &doc_with(n)).unwrap();
        let session = pf.session();
        let q = "for $x in fn:doc(\"c.xml\")//x return element e { $x/text() }";
        let warm = session.query(q).unwrap();
        assert_eq!(warm.len(), n);
        (0..3)
            .map(|_| {
                let started = Instant::now();
                session.query(q).unwrap();
                started.elapsed()
            })
            .min()
            .unwrap()
    }

    let small = 500usize;
    let large = 4 * small;
    let t_small = best_time(small).max(Duration::from_micros(50));
    let t_large = best_time(large);
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    assert!(
        ratio < 10.0,
        "4× the iterations cost {ratio:.1}× the time — the quadratic \
         constructor gather is back ({t_small:?} → {t_large:?})"
    );
}
