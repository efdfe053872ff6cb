//! Tokenizer for the supported XQuery dialect.

use crate::error::{XqError, XqResult};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Integer literal.
    Integer(i64),
    /// Decimal / double literal.
    Decimal(f64),
    /// String literal (quotes stripped, escapes resolved).
    StringLit(String),
    /// A name (NCName or prefixed QName, e.g. `person`, `fn:count`).
    Name(String),
    /// A variable reference (`$name`, the `$` stripped).
    Variable(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `@`
    At,
    /// `::`
    DoubleColon,
    /// `:=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Before,
    /// `>>`
    After,
}

/// A token plus its start offset in the query text.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Byte offset of the first character.
    pub offset: usize,
}

/// Tokenize `input`.  Comments `(: … :)` (including nested ones) are
/// skipped.
pub fn tokenize(input: &str) -> XqResult<Vec<SpannedToken>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'(' if bytes.get(i + 1) == Some(&b':') => {
                // XQuery comment, possibly nested.
                let start = i;
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'(' && bytes.get(i + 1) == Some(&b':') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b':' && bytes.get(i + 1) == Some(&b')') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                if depth != 0 {
                    return Err(XqError::lex("unterminated comment", start));
                }
            }
            b'(' => {
                tokens.push(SpannedToken {
                    token: Token::LParen,
                    offset: i,
                });
                i += 1;
            }
            b')' => {
                tokens.push(SpannedToken {
                    token: Token::RParen,
                    offset: i,
                });
                i += 1;
            }
            b'[' => {
                tokens.push(SpannedToken {
                    token: Token::LBracket,
                    offset: i,
                });
                i += 1;
            }
            b']' => {
                tokens.push(SpannedToken {
                    token: Token::RBracket,
                    offset: i,
                });
                i += 1;
            }
            b'{' => {
                tokens.push(SpannedToken {
                    token: Token::LBrace,
                    offset: i,
                });
                i += 1;
            }
            b'}' => {
                tokens.push(SpannedToken {
                    token: Token::RBrace,
                    offset: i,
                });
                i += 1;
            }
            b',' => {
                tokens.push(SpannedToken {
                    token: Token::Comma,
                    offset: i,
                });
                i += 1;
            }
            b'@' => {
                tokens.push(SpannedToken {
                    token: Token::At,
                    offset: i,
                });
                i += 1;
            }
            b'+' => {
                tokens.push(SpannedToken {
                    token: Token::Plus,
                    offset: i,
                });
                i += 1;
            }
            b'-' => {
                tokens.push(SpannedToken {
                    token: Token::Minus,
                    offset: i,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(SpannedToken {
                    token: Token::Star,
                    offset: i,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(SpannedToken {
                    token: Token::Eq,
                    offset: i,
                });
                i += 1;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(SpannedToken {
                    token: Token::NotEq,
                    offset: i,
                });
                i += 2;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::Le,
                        offset: i,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'<') {
                    tokens.push(SpannedToken {
                        token: Token::Before,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Lt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::Ge,
                        offset: i,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(SpannedToken {
                        token: Token::After,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Gt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    tokens.push(SpannedToken {
                        token: Token::DoubleSlash,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Slash,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b':' => {
                if bytes.get(i + 1) == Some(&b':') {
                    tokens.push(SpannedToken {
                        token: Token::DoubleColon,
                        offset: i,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::Assign,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(XqError::lex("unexpected `:`", i));
                }
            }
            b'.' => {
                if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    let (tok, len) = lex_number(input, i)?;
                    tokens.push(SpannedToken {
                        token: tok,
                        offset: i,
                    });
                    i += len;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Dot,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'$' => {
                let start = i + 1;
                let len = name_length(&bytes[start..]);
                if len == 0 {
                    return Err(XqError::lex("expected a variable name after `$`", i));
                }
                tokens.push(SpannedToken {
                    token: Token::Variable(input[start..start + len].to_string()),
                    offset: i,
                });
                i = start + len;
            }
            b'"' | b'\'' => {
                let quote = c;
                let start = i;
                i += 1;
                let mut value = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(XqError::lex("unterminated string literal", start)),
                        // XQuery's `Char` is XML's: no C0 control but tab,
                        // LF and CR may appear in a literal.
                        Some(&b) if b < 0x20 && !matches!(b, b'\t' | b'\n' | b'\r') => {
                            return Err(XqError::lex(
                                format!("control character U+{b:04X} in a string literal"),
                                i,
                            ))
                        }
                        Some(&b) if b == quote => {
                            // Doubled quote is an escaped quote.
                            if bytes.get(i + 1) == Some(&quote) {
                                value.push(quote as char);
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            let ch_len = utf8_char_len(bytes[i]);
                            value.push_str(&input[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                tokens.push(SpannedToken {
                    token: Token::StringLit(value),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let (tok, len) = lex_number(input, i)?;
                tokens.push(SpannedToken {
                    token: tok,
                    offset: i,
                });
                i += len;
            }
            _ => {
                let len = name_length(&bytes[i..]);
                if len == 0 {
                    return Err(XqError::lex(
                        format!("unexpected character `{}`", c as char),
                        i,
                    ));
                }
                tokens.push(SpannedToken {
                    token: Token::Name(input[i..i + len].to_string()),
                    offset: i,
                });
                i += len;
            }
        }
    }
    Ok(tokens)
}

/// Length in bytes of a name (NCName or prefixed QName, allowing `-`, `_`,
/// `.` and a single `:` separator) starting at the beginning of `bytes`.
fn name_length(bytes: &[u8]) -> usize {
    let mut len = 0;
    let mut seen_colon = false;
    while len < bytes.len() {
        let b = bytes[len];
        let is_start = b.is_ascii_alphabetic() || b == b'_' || b >= 0x80;
        let is_continue = is_start || b.is_ascii_digit() || b == b'-' || b == b'.';
        if len == 0 {
            if !is_start {
                return 0;
            }
        } else if b == b':'
            && !seen_colon
            && len + 1 < bytes.len()
            && bytes[len + 1] != b':'
            && bytes[len + 1] != b'='
        {
            seen_colon = true;
            len += 1;
            continue;
        } else if !is_continue {
            break;
        }
        len += 1;
    }
    len
}

fn utf8_char_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn lex_number(input: &str, start: usize) -> XqResult<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut is_decimal = false;
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
        if bytes[i] == b'.' {
            // ".." would be a parent step; stop before it.
            if bytes.get(i + 1) == Some(&b'.') || is_decimal {
                break;
            }
            is_decimal = true;
        }
        i += 1;
    }
    // Exponent part (1e6, 2.5E-3).
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_decimal = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    let token = if is_decimal {
        Token::Decimal(
            text.parse::<f64>()
                .map_err(|_| XqError::lex(format!("invalid number `{text}`"), start))?,
        )
    } else {
        Token::Integer(
            text.parse::<i64>()
                .map_err(|_| XqError::lex(format!("invalid integer `{text}`"), start))?,
        )
    };
    Ok((token, i - start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn lexes_flwor_keywords_and_symbols() {
        let tokens = toks("for $v in (10, 20) return $v + 100");
        assert_eq!(
            tokens,
            vec![
                Token::Name("for".into()),
                Token::Variable("v".into()),
                Token::Name("in".into()),
                Token::LParen,
                Token::Integer(10),
                Token::Comma,
                Token::Integer(20),
                Token::RParen,
                Token::Name("return".into()),
                Token::Variable("v".into()),
                Token::Plus,
                Token::Integer(100),
            ]
        );
    }

    #[test]
    fn lexes_paths_and_attributes() {
        let tokens = toks("doc(\"a.xml\")//person/@id");
        assert_eq!(
            tokens,
            vec![
                Token::Name("doc".into()),
                Token::LParen,
                Token::StringLit("a.xml".into()),
                Token::RParen,
                Token::DoubleSlash,
                Token::Name("person".into()),
                Token::Slash,
                Token::At,
                Token::Name("id".into()),
            ]
        );
    }

    #[test]
    fn lexes_qnames_and_axes() {
        let tokens = toks("fn:count(child::item)");
        assert_eq!(tokens[0], Token::Name("fn:count".into()));
        assert_eq!(tokens[2], Token::Name("child".into()));
        assert_eq!(tokens[3], Token::DoubleColon);
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42"), vec![Token::Integer(42)]);
        assert_eq!(toks("4.25"), vec![Token::Decimal(4.25)]);
        assert_eq!(toks(".5"), vec![Token::Decimal(0.5)]);
        assert_eq!(toks("1e3"), vec![Token::Decimal(1000.0)]);
    }

    #[test]
    fn lexes_comparison_and_order_operators() {
        assert_eq!(
            toks("a <= b >= c << d != e"),
            vec![
                Token::Name("a".into()),
                Token::Le,
                Token::Name("b".into()),
                Token::Ge,
                Token::Name("c".into()),
                Token::Before,
                Token::Name("d".into()),
                Token::NotEq,
                Token::Name("e".into()),
            ]
        );
    }

    #[test]
    fn string_escapes_and_comments() {
        assert_eq!(
            toks("\"he said \"\"hi\"\"\""),
            vec![Token::StringLit("he said \"hi\"".into())]
        );
        assert_eq!(
            toks("1 (: a (: nested :) comment :) 2"),
            vec![Token::Integer(1), Token::Integer(2)]
        );
    }

    #[test]
    fn assignment_and_braces() {
        assert_eq!(
            toks("let $x := element a { 1 }"),
            vec![
                Token::Name("let".into()),
                Token::Variable("x".into()),
                Token::Assign,
                Token::Name("element".into()),
                Token::Name("a".into()),
                Token::LBrace,
                Token::Integer(1),
                Token::RBrace,
            ]
        );
    }

    #[test]
    fn control_characters_are_rejected_in_string_literals() {
        for (input, offset) in [("\"\u{1}attr\"", 1), ("'a\u{0}'", 2), ("\"x\u{1f}\"", 2)] {
            let err = tokenize(input).unwrap_err();
            assert!(err.to_string().contains("control character"), "{input:?}");
            assert_eq!(err.offset, Some(offset), "{input:?}");
        }
        assert_eq!(
            toks("\"a\tb\nc\rd\""),
            vec![Token::StringLit("a\tb\nc\rd".into())]
        );
    }

    #[test]
    fn errors_are_reported_with_offsets() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("$ x").is_err());
        assert!(tokenize("(: open").is_err());
        let err = tokenize("a # b").unwrap_err();
        assert_eq!(err.offset, Some(2));
    }
}
