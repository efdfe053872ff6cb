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

use proptest::prelude::*;

use pathfinder::engine::normalize_cache_key;

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

/// The optimizer-level tag that prefixes every plan-cache key must be
/// injective: two different rule sets can never produce the same tag
/// (else plans compiled under different levels would alias in the
/// cache), and no level may take the disabled optimizer's `off` tag.
#[test]
fn optimizer_level_tags_never_collide() {
    use pathfinder::engine::OptimizerLevel;

    let mut seen = std::collections::HashMap::new();
    for bits in 0u8..32 {
        let level = OptimizerLevel {
            pushdown: bits & 1 != 0,
            reorder: bits & 2 != 0,
            dedup: bits & 4 != 0,
            unshare: bits & 8 != 0,
            indexscan: bits & 16 != 0,
        };
        let tag = level.tag();
        assert_ne!(tag, "off", "{level:?} takes the disabled optimizer's tag");
        assert!(
            !tag.contains('\u{0}'),
            "tags must never contain the key separator"
        );
        if let Some(previous) = seen.insert(tag.clone(), level) {
            panic!("levels {previous:?} and {level:?} share the tag {tag:?}");
        }
        // The tag behaves like a cache-key component: normalization-stable.
        assert_eq!(pathfinder::engine::normalize_cache_key(&tag), tag);
    }
    assert_eq!(seen.len(), 32);
}
