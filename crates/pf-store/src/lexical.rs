//! The `xs:double` lexical space, parsed and printed in one place.
//!
//! Untyped XML content becomes a number in several places: the value
//! index's numeric view, comparisons of untyped content against numbers,
//! `fn:number`, `fn:sum`, and the navigational baseline.  All of them call
//! [`parse_double`], so no two of them can disagree on what a string
//! means.  The parser
//! lives in this crate because the value index needs it and every crate
//! that evaluates XQuery sits above it.
//!
//! The lexical space is XML Schema's: an optional sign, decimal digits
//! with an optional fraction, an optional exponent, or one of the special
//! values `INF`, `-INF` and `NaN` (case-sensitive), surrounded by optional
//! XML whitespace.  Rust's own float parser also accepts `inf`,
//! `infinity` and `nan` in any case, which XQuery does not.

use std::fmt;

/// Parse `text` as an `xs:double`; `None` when it is outside the lexical
/// space (see the module docs).
pub fn parse_double(text: &str) -> Option<f64> {
    let text = text.trim_matches([' ', '\t', '\n', '\r']);
    match text {
        "INF" => return Some(f64::INFINITY),
        "-INF" => return Some(f64::NEG_INFINITY),
        "NaN" => return Some(f64::NAN),
        _ => {}
    }
    // Past the special values the grammar is Rust's decimal grammar; the
    // byte filter keeps out the words Rust accepts on top of it.
    if text
        .bytes()
        .all(|b| b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E'))
    {
        text.parse().ok()
    } else {
        None
    }
}

/// An `xs:double` printed the way the serializer prints it: integral values
/// below 10^15 without a fraction, `INF`, `-INF` and `NaN` for the special
/// values, Rust's shortest round-trip form otherwise.
#[derive(Debug, Clone, Copy)]
pub struct XsDouble(pub f64);

impl fmt::Display for XsDouble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0;
        if d.is_infinite() {
            f.write_str(if d > 0.0 { "INF" } else { "-INF" })
        } else if d.fract() == 0.0 && d.abs() < 1e15 {
            write!(f, "{}", d as i64)
        } else {
            write!(f, "{d}")
        }
    }
}

/// [`XsDouble`] as a `String`.
pub fn format_double(d: f64) -> String {
    XsDouble(d).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimals_exponents_and_special_values_parse() {
        for (text, expected) in [
            ("42", 42.0),
            (" 42.5 ", 42.5),
            ("\n-1.5e3\t", -1500.0),
            ("+.5", 0.5),
            ("1.", 1.0),
            ("2E-1", 0.2),
            ("INF", f64::INFINITY),
            (" -INF", f64::NEG_INFINITY),
        ] {
            assert_eq!(parse_double(text), Some(expected), "{text:?}");
        }
        assert!(parse_double("NaN").unwrap().is_nan());
    }

    #[test]
    fn words_rust_accepts_but_xquery_does_not_are_rejected() {
        for text in [
            "inf",
            "Inf",
            "infinity",
            "-infinity",
            "+INF",
            "nan",
            "-NaN",
            "",
            ".",
            "e5",
            "1e",
            "1 2",
            "0x10",
            "1_000",
            "\u{a0}1",
        ] {
            assert_eq!(parse_double(text), None, "{text:?}");
        }
    }

    #[test]
    fn doubles_print_like_the_serializer() {
        assert_eq!(format_double(2.0), "2");
        assert_eq!(format_double(-0.0), "0");
        assert_eq!(format_double(2.5), "2.5");
        assert_eq!(format_double(1e15), "1000000000000000");
        assert_eq!(format_double(f64::INFINITY), "INF");
        assert_eq!(format_double(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_double(f64::NAN), "NaN");
    }
}
