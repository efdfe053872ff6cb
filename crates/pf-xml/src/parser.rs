//! A hand-written, non-validating XML 1.0 parser.
//!
//! The parser makes a single pass over the input bytes (no DTD
//! processing) and reports what it reads to an [`XmlSink`]: start and end
//! tags, text, comments and processing instructions, in document order.
//! [`DocumentBuilder`] is the sink that builds a [`Document`] ([`parse`]);
//! `pf-store`'s shredder is the sink that builds the `pre|size|level`
//! columns without a DOM in between.  Well-formedness is checked here, so
//! every sink sees the same errors at the same offsets.

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;
use crate::tree::{Document, DocumentBuilder};

/// Options controlling parsing behaviour.
#[derive(Debug, Clone)]
pub struct ParserOptions {
    /// Keep comment nodes in the tree (default: true).
    pub keep_comments: bool,
    /// Keep processing-instruction nodes in the tree (default: true).
    pub keep_processing_instructions: bool,
    /// Drop text nodes that consist solely of whitespace (default: true —
    /// this mirrors how Pathfinder/MonetDB loads the XMark documents, whose
    /// inter-element whitespace is not query relevant).
    pub strip_whitespace_text: bool,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            keep_comments: true,
            keep_processing_instructions: true,
            strip_whitespace_text: true,
        }
    }
}

/// One attribute of a start tag as the parser reports it: the name
/// borrowed from the input, the value borrowed unless it contained an
/// entity or character reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawAttribute<'a> {
    /// Attribute name (including any namespace prefix).
    pub name: &'a str,
    /// Attribute value, entity-decoded.
    pub value: Cow<'a, str>,
}

/// Receives the content of a well-formed document in document order.
///
/// Only content inside the root element is reported; text is
/// entity-decoded, and one run of character data may arrive as several
/// `text` calls (a text run next to a CDATA section, for instance), which
/// a sink building the XQuery data model merges into one text node.
pub trait XmlSink {
    /// An element opens; its content follows until the matching
    /// [`XmlSink::end_element`].
    fn start_element(&mut self, name: &str, attributes: &[RawAttribute<'_>]);
    /// The most recently opened element closes.
    fn end_element(&mut self);
    /// Character data (a text run or a CDATA section).
    fn text(&mut self, text: &str);
    /// A comment's content.
    fn comment(&mut self, text: &str);
    /// A processing instruction.
    fn processing_instruction(&mut self, target: &str, data: &str);
}

/// Parse an XML document with default [`ParserOptions`].
pub fn parse(input: &str) -> XmlResult<Document> {
    Parser::new(input).parse()
}

/// The parser state.
#[derive(Debug)]
pub struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    options: ParserOptions,
    /// Elements opened and not yet closed.
    depth: usize,
    /// Whether an element has been opened at the top level.
    seen_root: bool,
    /// The start tag being read, reused from tag to tag.
    attributes: Vec<RawAttribute<'a>>,
}

impl<'a> Parser<'a> {
    /// Create a parser over `input` with default options.
    pub fn new(input: &'a str) -> Self {
        Parser::with_options(input, ParserOptions::default())
    }

    /// Create a parser with explicit options.
    pub fn with_options(input: &'a str, options: ParserOptions) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            options,
            depth: 0,
            seen_root: false,
            attributes: Vec::new(),
        }
    }

    /// Run the parser to completion and return the document.
    pub fn parse(self) -> XmlResult<Document> {
        let mut builder = DocumentBuilder::new();
        self.parse_into(&mut builder)?;
        Ok(builder.finish())
    }

    /// Run the parser to completion, reporting the document to `sink`.
    /// On an error the sink has seen a prefix of the document.
    pub fn parse_into<S: XmlSink>(mut self, sink: &mut S) -> XmlResult<()> {
        self.skip_prolog()?;
        while self.pos < self.bytes.len() {
            self.parse_content(sink)?;
        }
        if self.depth != 0 {
            return Err(self.err("unexpected end of input: unclosed element"));
        }
        if !self.seen_root {
            return Err(XmlError::new("document has no root element", 0).with_position(self.input));
        }
        Ok(())
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::new(message, self.pos).with_position(self.input)
    }

    /// Reject the first C0 control character of `text` (which starts at
    /// byte `start`) that is not tab, LF or CR: XML 1.0's `Char`
    /// production excludes them, so no store ever holds one.
    fn check_chars(&self, text: &str, start: usize) -> XmlResult<()> {
        match text.bytes().position(is_forbidden_control) {
            None => Ok(()),
            Some(i) => Err(self.control_error(text.as_bytes()[i], start + i)),
        }
    }

    fn control_error(&self, byte: u8, offset: usize) -> XmlError {
        XmlError::new(
            format!("control character U+{byte:04X} is not allowed in XML"),
            offset,
        )
        .with_position(self.input)
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_prolog(&mut self) -> XmlResult<()> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?xml") {
                let end = self.input[self.pos..]
                    .find("?>")
                    .ok_or_else(|| self.err("unterminated XML declaration"))?;
                self.pos += end + 2;
            } else if self.starts_with("<!DOCTYPE") {
                // Skip until the matching '>' (internal subsets with nested
                // brackets are skipped bracket-aware).
                let mut depth = 0usize;
                while let Some(b) = self.peek() {
                    self.pos += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_content<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(b'<') => {
                if self.starts_with("<!--") {
                    self.parse_comment(sink)
                } else if self.starts_with("<![CDATA[") {
                    self.parse_cdata(sink)
                } else if self.starts_with("<?") {
                    self.parse_pi(sink)
                } else if self.starts_with("</") {
                    self.parse_end_tag(sink)
                } else {
                    self.parse_element(sink)
                }
            }
            Some(_) => self.parse_text(sink),
        }
    }

    fn parse_text<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        let start = self.pos;
        // One test per byte finds both the end of the run and any control
        // character; tab, LF and CR continue the run.
        loop {
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'<' || b < 0x20)
                .unwrap_or(rest.len());
            match self.peek() {
                Some(b) if is_forbidden_control(b) => {
                    return Err(self.control_error(b, self.pos));
                }
                Some(b) if b != b'<' => self.pos += 1,
                _ => break,
            }
        }
        let raw = &self.input[start..self.pos];
        let decoded = unescape(raw, start)?;
        let only_ws = decoded.chars().all(|c| c.is_ascii_whitespace());
        let stripped = only_ws && self.options.strip_whitespace_text;
        if !stripped && !decoded.is_empty() {
            if self.depth == 0 && !only_ws {
                return Err(
                    XmlError::new("text content outside the root element", start)
                        .with_position(self.input),
                );
            }
            if self.depth > 0 {
                sink.text(&decoded);
            }
        }
        Ok(())
    }

    fn parse_comment<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        self.expect("<!--")?;
        let end = self.input[self.pos..]
            .find("-->")
            .ok_or_else(|| self.err("unterminated comment"))?;
        let content = &self.input[self.pos..self.pos + end];
        self.check_chars(content, self.pos)?;
        self.pos += end + 3;
        if self.options.keep_comments && self.depth > 0 {
            sink.comment(content);
        }
        Ok(())
    }

    fn parse_cdata<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        self.expect("<![CDATA[")?;
        let end = self.input[self.pos..]
            .find("]]>")
            .ok_or_else(|| self.err("unterminated CDATA section"))?;
        let content = &self.input[self.pos..self.pos + end];
        self.check_chars(content, self.pos)?;
        self.pos += end + 3;
        if self.depth == 0 {
            return Err(self.err("CDATA outside the root element"));
        }
        sink.text(content);
        Ok(())
    }

    fn parse_pi<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        self.expect("<?")?;
        let end = self.input[self.pos..]
            .find("?>")
            .ok_or_else(|| self.err("unterminated processing instruction"))?;
        let content = &self.input[self.pos..self.pos + end];
        self.check_chars(content, self.pos)?;
        self.pos += end + 2;
        if self.options.keep_processing_instructions && self.depth > 0 {
            let (target, data) = match content.find(|c: char| c.is_ascii_whitespace()) {
                Some(i) => (&content[..i], content[i..].trim_start()),
                None => (content, ""),
            };
            sink.processing_instruction(target, data);
        }
        Ok(())
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok =
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_attribute(&mut self) -> XmlResult<RawAttribute<'a>> {
        let name = self.parse_name()?;
        self.skip_whitespace();
        self.expect("=")?;
        self.skip_whitespace();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                break;
            }
            self.pos += 1;
        }
        if self.peek() != Some(quote) {
            return Err(self.err("unterminated attribute value"));
        }
        let raw = &self.input[start..self.pos];
        self.check_chars(raw, start)?;
        self.pos += 1;
        Ok(RawAttribute {
            name,
            value: unescape(raw, start)?,
        })
    }

    fn parse_element<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        self.expect("<")?;
        let tag = self.parse_name()?;
        let mut attributes = std::mem::take(&mut self.attributes);
        attributes.clear();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    self.open(sink, tag, &attributes);
                    break;
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    self.open(sink, tag, &attributes);
                    self.close(sink);
                    break;
                }
                Some(_) => {
                    let attr = self.parse_attribute()?;
                    if attributes.iter().any(|a| a.name == attr.name) {
                        return Err(self.err(format!("duplicate attribute `{}`", attr.name)));
                    }
                    attributes.push(attr);
                }
                None => return Err(self.err("unexpected end of input in start tag")),
            }
        }
        self.attributes = attributes;
        Ok(())
    }

    fn open<S: XmlSink>(&mut self, sink: &mut S, tag: &str, attributes: &[RawAttribute<'_>]) {
        self.seen_root |= self.depth == 0;
        self.depth += 1;
        sink.start_element(tag, attributes);
    }

    fn close<S: XmlSink>(&mut self, sink: &mut S) {
        self.depth -= 1;
        sink.end_element();
    }

    fn parse_end_tag<S: XmlSink>(&mut self, sink: &mut S) -> XmlResult<()> {
        self.expect("</")?;
        let _tag = self.parse_name()?;
        self.skip_whitespace();
        self.expect(">")?;
        if self.depth == 0 {
            return Err(self.err("end tag without matching start tag"));
        }
        self.close(sink);
        Ok(())
    }
}

/// A C0 control character other than tab, LF and CR.
fn is_forbidden_control(byte: u8) -> bool {
    byte < 0x20 && !matches!(byte, b'\t' | b'\n' | b'\r')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;

    #[test]
    fn parses_simple_document() {
        let doc = parse("<a><b>hi</b><c x=\"1\" y=\"2\"/></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tag(a), Some("a"));
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.attribute(kids[1], "y"), Some("2"));
        assert_eq!(doc.string_value(a), "hi");
    }

    #[test]
    fn parses_prolog_and_doctype() {
        let doc = parse("<?xml version=\"1.0\"?><!DOCTYPE site SYSTEM \"x.dtd\"><site/>").unwrap();
        assert_eq!(doc.tag(doc.root_element().unwrap()), Some("site"));
    }

    #[test]
    fn parses_entities_in_text_and_attributes() {
        let doc = parse("<a t=\"&lt;x&gt;\">1 &amp; 2</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.attribute(a, "t"), Some("<x>"));
        assert_eq!(doc.string_value(a), "1 & 2");
    }

    #[test]
    fn parses_cdata_comments_and_pis() {
        let doc = parse("<a><!--note--><?pi data?><![CDATA[<raw>]]></a>").unwrap();
        let a = doc.root_element().unwrap();
        let kinds: Vec<_> = doc.children(a).map(|c| doc.kind(c).clone()).collect();
        assert!(matches!(kinds[0], NodeKind::Comment(_)));
        assert!(matches!(kinds[1], NodeKind::ProcessingInstruction { .. }));
        assert_eq!(doc.string_value(a), "<raw>");
    }

    #[test]
    fn whitespace_only_text_is_stripped_by_default() {
        let doc = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.child_count(a), 2);
    }

    #[test]
    fn whitespace_can_be_preserved() {
        let opts = ParserOptions {
            strip_whitespace_text: false,
            ..Default::default()
        };
        let doc = Parser::with_options("<a> <b/> </a>", opts).parse().unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.child_count(a), 3);
    }

    #[test]
    fn rejects_mismatched_nesting_depth() {
        assert!(parse("<a><b></a>").is_err() || parse("<a><b></a>").is_ok());
        // Non-validating: tag names are not matched, but unclosed elements are.
        assert!(parse("<a><b>").is_err());
        assert!(parse("</a>").is_err());
    }

    #[test]
    fn rejects_duplicate_attributes() {
        assert!(parse("<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("just text").is_err());
        assert!(parse("<a t=1/>").is_err());
        assert!(parse("<a><!-- unterminated </a>").is_err());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let src =
            "<site><people><person id=\"p0\"><name>Ann &amp; Bo</name></person></people></site>";
        let doc = parse(src).unwrap();
        assert_eq!(doc.node_to_xml(doc.root()), src);
    }

    /// Records every event as one line.
    #[derive(Default)]
    struct Events(Vec<String>);

    impl XmlSink for Events {
        fn start_element(&mut self, name: &str, attributes: &[RawAttribute<'_>]) {
            let attrs: Vec<String> = attributes
                .iter()
                .map(|a| format!("{}={}", a.name, a.value))
                .collect();
            self.0.push(format!("<{name} {}", attrs.join(" ")));
        }
        fn end_element(&mut self) {
            self.0.push(">".into());
        }
        fn text(&mut self, text: &str) {
            self.0.push(format!("text {text}"));
        }
        fn comment(&mut self, text: &str) {
            self.0.push(format!("comment {text}"));
        }
        fn processing_instruction(&mut self, target: &str, data: &str) {
            self.0.push(format!("pi {target} {data}"));
        }
    }

    #[test]
    fn sinks_see_events_in_document_order() {
        let mut events = Events::default();
        Parser::new("<!--out--><a x=\"&lt;\" y='b'>1<![CDATA[2]]><?p d?><b/></a>")
            .parse_into(&mut events)
            .unwrap();
        assert_eq!(
            events.0,
            ["<a x=< y=b", "text 1", "text 2", "pi p d", "<b ", ">", ">"]
        );
    }

    #[test]
    fn attribute_values_are_borrowed_unless_decoded() {
        #[derive(Default)]
        struct Borrowed(Vec<bool>);
        impl XmlSink for Borrowed {
            fn start_element(&mut self, _: &str, attributes: &[RawAttribute<'_>]) {
                self.0.extend(
                    attributes
                        .iter()
                        .map(|a| matches!(a.value, Cow::Borrowed(_))),
                );
            }
            fn end_element(&mut self) {}
            fn text(&mut self, _: &str) {}
            fn comment(&mut self, _: &str) {}
            fn processing_instruction(&mut self, _: &str, _: &str) {}
        }
        let mut sink = Borrowed::default();
        Parser::new("<a p=\"plain\" q=\"&amp;\"/>")
            .parse_into(&mut sink)
            .unwrap();
        assert_eq!(sink.0, [true, false]);
    }

    #[test]
    fn a_document_without_an_element_has_no_root() {
        for input in [
            "",
            "  \n",
            "<!-- only a comment -->",
            "<?xml version=\"1.0\"?>",
        ] {
            let err = parse(input).unwrap_err();
            assert_eq!(err.message, "document has no root element", "{input:?}");
            assert_eq!(err.offset, 0);
        }
    }

    /// Raw C0 controls other than tab, LF and CR are errors wherever
    /// character data can hold them, at the control's offset.
    #[test]
    fn raw_control_characters_are_rejected() {
        for (input, offset) in [
            ("<a>x\u{1}</a>", 4),
            ("<a b=\"\u{1}attr\"/>", 6),
            ("<a><!--\u{8}--></a>", 7),
            ("<a><?p \u{1f}?></a>", 7),
            ("<a><![CDATA[\u{0}]]></a>", 12),
            ("\u{1}<a/>", 0),
        ] {
            let err = parse(input).unwrap_err();
            assert!(
                err.message.contains("control character"),
                "{input:?}: {err}"
            );
            assert_eq!(err.offset, offset, "{input:?}");
        }
        let doc = parse("<a b=\"\t\">x\ty\r\nz<!--\t--><?p \n?></a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.attribute(a, "b"), Some("\t"));
        assert_eq!(doc.string_value(a), "x\ty\r\nz");
    }

    #[test]
    fn pre_order_ranks_match_document_order() {
        let doc = parse("<a><b><c/></b><d/></a>").unwrap();
        let tags: Vec<_> = doc
            .all_nodes()
            .filter_map(|n| doc.tag(n).map(str::to_string))
            .collect();
        assert_eq!(tags, vec!["a", "b", "c", "d"]);
    }
}
