//! The navigational engine's item representation.

use std::cmp::Ordering;

use pf_xml::NodeId;

/// An item as handled by the navigational interpreter: an atomic value, a
/// node (document id + arena node id) or a constructed attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum BValue {
    /// `xs:integer`
    Int(i64),
    /// `xs:double`
    Dbl(f64),
    /// `xs:string`
    Str(String),
    /// `xs:boolean`
    Bool(bool),
    /// A node: index of the owning document and the node within it.
    Node {
        /// Document index in the engine's registry.
        doc: usize,
        /// Node within that document.
        node: NodeId,
    },
    /// A constructed attribute (only ever consumed by an enclosing element
    /// constructor).
    Attr {
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
}

impl BValue {
    /// `true` for node items.
    pub fn is_node(&self) -> bool {
        matches!(self, BValue::Node { .. })
    }

    /// Numeric view (for arithmetic); strings are coerced when possible.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            BValue::Int(i) => Some(*i as f64),
            BValue::Dbl(d) => Some(*d),
            BValue::Str(s) => pf_store::parse_double(s),
            BValue::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Document order key for node items.
    pub fn doc_order_key(&self) -> Option<(usize, u32)> {
        match self {
            BValue::Node { doc, node } => Some((*doc, node.0)),
            _ => None,
        }
    }

    /// Compare two atomic values with XQuery general-comparison semantics
    /// (numbers numerically, otherwise as strings).
    pub fn compare_atomic(&self, other: &BValue) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_number(), other.as_number()) {
            return a.partial_cmp(&b).unwrap_or(Ordering::Equal);
        }
        self.lexical().cmp(&other.lexical())
    }

    /// The lexical (string) form of an atomic value; nodes must be atomized
    /// by the engine before calling this.
    pub fn lexical(&self) -> String {
        match self {
            BValue::Int(i) => i.to_string(),
            BValue::Dbl(d) => pf_store::format_double(*d),
            BValue::Str(s) => s.clone(),
            BValue::Bool(b) => b.to_string(),
            BValue::Node { doc, node } => format!("node({doc},{node})"),
            BValue::Attr { name, value } => format!("{name}={value}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion() {
        assert_eq!(BValue::Str(" 42 ".into()).as_number(), Some(42.0));
        assert_eq!(BValue::Int(3).as_number(), Some(3.0));
        assert_eq!(
            BValue::Attr {
                name: "a".into(),
                value: "1".into()
            }
            .as_number(),
            None
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            BValue::Str("10".into()).compare_atomic(&BValue::Int(9)),
            Ordering::Greater
        );
        assert_eq!(
            BValue::Str("abc".into()).compare_atomic(&BValue::Str("abd".into())),
            Ordering::Less
        );
    }

    #[test]
    fn lexical_forms() {
        assert_eq!(BValue::Dbl(2.0).lexical(), "2");
        assert_eq!(BValue::Dbl(2.5).lexical(), "2.5");
        assert_eq!(BValue::Dbl(f64::NEG_INFINITY).lexical(), "-INF");
        assert_eq!(BValue::Str("infinity".into()).as_number(), None);
        assert_eq!(BValue::Bool(true).lexical(), "true");
    }
}
