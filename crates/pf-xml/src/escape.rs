//! Escaping and unescaping of XML character data and attribute values.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};

/// Escape a string for use as XML character data (element content).
///
/// `<`, `>` and `&` are replaced by their predefined entities.  Quotes are
/// left untouched, which is valid in content position.  A string with
/// nothing to escape is returned borrowed.
pub fn escape_text(value: &str) -> Cow<'_, str> {
    escape(value, |b| matches!(b, b'<' | b'>' | b'&'))
}

/// Escape a string for use inside a double-quoted attribute value; a
/// string with nothing to escape is returned borrowed.
pub fn escape_attribute(value: &str) -> Cow<'_, str> {
    escape(value, |b| matches!(b, b'<' | b'>' | b'&' | b'"' | b'\''))
}

/// Replace every byte `special` selects (all ASCII, so every cut falls on
/// a character boundary) by its predefined entity.
fn escape(value: &str, special: impl Fn(u8) -> bool) -> Cow<'_, str> {
    if !value.bytes().any(&special) {
        return Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len() + 8);
    let mut start = 0;
    for (i, b) in value.bytes().enumerate() {
        if special(b) {
            out.push_str(&value[start..i]);
            out.push_str(match b {
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'&' => "&amp;",
                b'"' => "&quot;",
                _ => "&apos;",
            });
            start = i + 1;
        }
    }
    out.push_str(&value[start..]);
    Cow::Owned(out)
}

/// Whether XML 1.0's `Char` production admits `c`: tab, LF, CR and
/// everything from U+0020 on except the surrogates, U+FFFE and U+FFFF.
/// The other C0 controls can occur in no document, neither raw nor as a
/// character reference.
fn is_xml_char(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\r' | '\u{20}'..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
}

/// Resolve the five predefined entities and numeric character references in
/// `raw`.  `offset` is the byte offset of `raw` within the overall input and
/// is only used for error reporting.  Text without a reference is returned
/// borrowed.
pub fn unescape(raw: &str, offset: usize) -> XmlResult<Cow<'_, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let bytes = raw.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the longest run without '&' in one go.
            let start = i;
            while i < bytes.len() && bytes[i] != b'&' {
                i += 1;
            }
            out.push_str(&raw[start..i]);
            continue;
        }
        let end = raw[i..]
            .find(';')
            .map(|p| i + p)
            .ok_or_else(|| XmlError::new("unterminated entity reference", offset + i))?;
        let entity = &raw[i + 1..end];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                    XmlError::new(
                        format!("invalid character reference &{entity};"),
                        offset + i,
                    )
                })?;
                out.push(char_from_code(code, offset + i)?);
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..].parse::<u32>().map_err(|_| {
                    XmlError::new(
                        format!("invalid character reference &{entity};"),
                        offset + i,
                    )
                })?;
                out.push(char_from_code(code, offset + i)?);
            }
            _ => {
                return Err(XmlError::new(
                    format!("unknown entity &{entity};"),
                    offset + i,
                ))
            }
        }
        i = end + 1;
    }
    Ok(Cow::Owned(out))
}

/// The character a reference names, if XML admits it ([`is_xml_char`]).
fn char_from_code(code: u32, offset: usize) -> XmlResult<char> {
    char::from_u32(code)
        .filter(|&c| is_xml_char(c))
        .ok_or_else(|| {
            XmlError::new(
                format!("character reference to U+{code:04X}, which is not an XML character"),
                offset,
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip_text() {
        let original = "a < b && c > d";
        let escaped = escape_text(original);
        assert_eq!(escaped, "a &lt; b &amp;&amp; c &gt; d");
        assert_eq!(unescape(&escaped, 0).unwrap(), original);
    }

    #[test]
    fn escape_attribute_quotes() {
        assert_eq!(escape_attribute("say \"hi\""), "say &quot;hi&quot;");
        assert_eq!(escape_attribute("it's"), "it&apos;s");
    }

    #[test]
    fn unescape_numeric_references() {
        assert_eq!(unescape("&#65;&#x42;", 0).unwrap(), "AB");
        assert_eq!(unescape("&#x20AC;", 0).unwrap(), "€");
    }

    #[test]
    fn unescape_passthrough_without_ampersand() {
        assert_eq!(unescape("plain text", 0).unwrap(), "plain text");
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let err = unescape("&nbsp;", 3).unwrap_err();
        assert!(err.message.contains("unknown entity"));
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn unterminated_entity_is_an_error() {
        assert!(unescape("&amp", 0).is_err());
    }

    #[test]
    fn invalid_code_point_is_an_error() {
        assert!(unescape("&#x110000;", 0).is_err());
        assert!(unescape("&#xD800;", 0).is_err());
    }

    /// References to characters outside XML's `Char` production are
    /// errors; tab, LF and CR are characters.
    #[test]
    fn references_to_non_characters_are_errors() {
        for bad in ["&#0;", "&#1;", "&#x1F;", "&#xFFFE;", "&#xFFFF;"] {
            let err = unescape(bad, 4).unwrap_err();
            assert!(err.message.contains("not an XML character"), "{bad}");
            assert_eq!(err.offset, 4);
        }
        assert_eq!(unescape("&#9;&#xA;&#13;&#x20;", 0).unwrap(), "\t\n\r ");
        assert_eq!(
            unescape("&#xFFFD;&#x10000;", 0).unwrap(),
            "\u{FFFD}\u{10000}"
        );
    }

    /// Nothing to escape: the input comes back borrowed.
    #[test]
    fn escaping_borrows_when_nothing_changes() {
        assert!(matches!(escape_text("plain \"'"), Cow::Borrowed(_)));
        assert!(matches!(escape_attribute("plain"), Cow::Borrowed(_)));
        assert!(matches!(escape_attribute("it's"), Cow::Owned(_)));
        assert_eq!(escape_text("é<è&"), "é&lt;è&amp;");
        assert_eq!(escape_attribute("<\"'>&"), "&lt;&quot;&apos;&gt;&amp;");
    }
}
