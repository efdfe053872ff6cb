//! The polymorphic item value.
//!
//! The XQuery data model is based on sequences of *items*: atomic values or
//! nodes.  The paper stores items in a polymorphic `item` column (Figure 2);
//! this module defines the Rust representation of a single item together
//! with the coercion, comparison and arithmetic rules the compiled plans
//! rely on.
//!
//! The rules are written once, on the borrowed [`Cell`] view the kernels
//! read columns through (a string cell borrows the column's buffer); the
//! [`Value`] methods and the ⊙ operators of [`crate::ops::map`] delegate
//! to them, and the typed loops of the fused kernel call the same scalar
//! helpers ([`compare_f64`] and the arithmetic below), so every path
//! raises the same error text for the same row.  Strings become numbers
//! through [`parse_double`], the one `xs:double` lexical parser.

use std::cmp::Ordering;
use std::fmt;

pub use pf_store::parse_double;
use pf_store::XsDouble;

use crate::error::{RelError, RelResult};

/// A reference to an XML node: the id of the document it belongs to and the
/// node's pre-order rank within that document.
///
/// Constructed nodes (results of `element {} {}` / `text {}`) live in
/// documents registered at runtime and get fresh `doc` ids, so document
/// order across documents is simply `(doc, pre)` order — the same trick
/// MonetDB/XQuery uses with its transient documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Document id (index into the engine's document registry).
    pub doc: u32,
    /// Pre-order rank within the document.
    pub pre: u32,
}

impl NodeRef {
    /// Construct a node reference.
    pub fn new(doc: u32, pre: u32) -> Self {
        NodeRef { doc, pre }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node({},{})", self.doc, self.pre)
    }
}

/// A reference to a constructed attribute: the id of the transient
/// document an attribute constructor wrote it into and its row in that
/// document's attribute table.
///
/// Kept apart from [`NodeRef`]: a tree node has a `pre` rank on the
/// `pre|size|level` axes, an attribute has none, so no step can start
/// from one.  The name and value are read from the table in place by
/// whoever consumes the reference — the element constructor, atomization,
/// serialization — so none is copied between the constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// Document id (index into the engine's document registry).
    pub doc: u32,
    /// Row of the document's attribute table.
    pub row: u32,
}

impl AttrRef {
    /// Construct an attribute reference.
    pub fn new(doc: u32, row: u32) -> Self {
        AttrRef { doc, row }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attribute({},{})", self.doc, self.row)
    }
}

/// The static type of a [`Value`]; used by columns and by the light static
/// typing pass of the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Natural number (`iter`, `pos`, surrogates, row ids).
    Nat,
    /// `xs:integer`
    Int,
    /// `xs:double` / `xs:decimal`
    Dbl,
    /// `xs:string`
    Str,
    /// `xs:boolean`
    Bool,
    /// A node reference.
    Node,
    /// A constructed-attribute reference.
    Attr,
}

/// A single item (or auxiliary value such as an `iter` number) stored in a
/// column.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Natural number used for `iter`, `pos` and surrogate columns.
    Nat(u64),
    /// `xs:integer`.
    Int(i64),
    /// `xs:double`.
    Dbl(f64),
    /// `xs:string`.
    Str(String),
    /// `xs:boolean`.
    Bool(bool),
    /// Node reference.
    Node(NodeRef),
    /// Constructed-attribute reference.
    Attr(AttrRef),
}

impl Value {
    /// The [`ValueType`] of this value.
    pub fn value_type(&self) -> ValueType {
        self.cell().value_type()
    }

    /// The borrowed [`Cell`] view of this value.
    #[inline]
    pub fn cell(&self) -> Cell<'_> {
        match self {
            Value::Nat(n) => Cell::Nat(*n),
            Value::Int(i) => Cell::Int(*i),
            Value::Dbl(d) => Cell::Dbl(*d),
            Value::Str(s) => Cell::Str(s),
            Value::Bool(b) => Cell::Bool(*b),
            Value::Node(n) => Cell::Node(*n),
            Value::Attr(a) => Cell::Attr(*a),
        }
    }

    /// Interpret the value as a natural number (for `iter`/`pos` columns).
    pub fn as_nat(&self) -> RelResult<u64> {
        match self {
            Value::Nat(n) => Ok(*n),
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(RelError::new(format!("expected nat, found {other}"))),
        }
    }

    /// Interpret the value as a node reference.
    pub fn as_node(&self) -> RelResult<NodeRef> {
        match self {
            Value::Node(n) => Ok(*n),
            other => Err(RelError::new(format!("expected node, found {other}"))),
        }
    }

    /// Interpret as a boolean (for selection predicates); see
    /// [`Cell::as_bool`].
    pub fn as_bool(&self) -> RelResult<bool> {
        self.cell().as_bool()
    }

    /// `true` if the value is numeric.
    pub fn is_numeric(&self) -> bool {
        self.cell().is_numeric()
    }

    /// The XQuery string representation used by `fn:data` / `fn:string`
    /// on atomics (see [`Cell`]'s `Display`).
    pub fn to_xdm_string(&self) -> String {
        self.cell().to_string()
    }

    /// Arithmetic following the XQuery numeric promotion rules; see
    /// [`Cell::arithmetic`].
    pub fn arithmetic(&self, op: ArithOp, rhs: &Value) -> RelResult<Value> {
        self.cell().arithmetic(op, rhs.cell())
    }

    /// General ("value") comparison; see [`Cell::compare`].
    pub fn compare(&self, rhs: &Value) -> RelResult<Ordering> {
        self.cell().compare(rhs.cell())
    }

    /// A total order usable for sorting and duplicate elimination: orders by
    /// type first, then by value; `NaN` doubles sort after every number
    /// (and equal to each other — see [`nan_last_cmp`]).  (Distinct from
    /// [`Value::compare`], which implements XQuery comparison semantics
    /// and can fail.)
    pub fn sort_key_cmp(&self, rhs: &Value) -> Ordering {
        fn type_rank(v: &Value) -> u8 {
            match v {
                Value::Nat(_) => 0,
                Value::Int(_) => 1,
                Value::Dbl(_) => 2,
                Value::Str(_) => 3,
                Value::Bool(_) => 4,
                Value::Node(_) => 5,
                Value::Attr(_) => 6,
            }
        }
        match (self, rhs) {
            (Value::Nat(a), Value::Nat(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Dbl(a), Value::Dbl(b)) => nan_last_cmp(*a, *b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Node(a), Value::Node(b)) => a.cmp(b),
            (Value::Attr(a), Value::Attr(b)) => a.cmp(b),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let x = a.cell().as_f64().unwrap_or(f64::NAN);
                let y = b.cell().as_f64().unwrap_or(f64::NAN);
                nan_last_cmp(x, y)
            }
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

/// One cell of a column (or a [`Value`]) viewed in place: a string cell
/// borrows the buffer it lives in.  The derived equality is [`Value`]'s:
/// the same variant with an equal payload (so `Int(1) != Nat(1)` and
/// `NaN != NaN`), which is what σ= tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    /// A natural number.
    Nat(u64),
    /// An `xs:integer`.
    Int(i64),
    /// An `xs:double`.
    Dbl(f64),
    /// An `xs:string`, borrowed.
    Str(&'a str),
    /// An `xs:boolean`.
    Bool(bool),
    /// A node reference.
    Node(NodeRef),
    /// A constructed-attribute reference.
    Attr(AttrRef),
}

impl<'a> Cell<'a> {
    /// The owned [`Value`] of this cell (clones a string).
    pub fn to_value(self) -> Value {
        match self {
            Cell::Nat(n) => Value::Nat(n),
            Cell::Int(i) => Value::Int(i),
            Cell::Dbl(d) => Value::Dbl(d),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::Bool(b) => Value::Bool(b),
            Cell::Node(n) => Value::Node(n),
            Cell::Attr(a) => Value::Attr(a),
        }
    }

    /// The [`ValueType`] of this cell.
    pub fn value_type(self) -> ValueType {
        match self {
            Cell::Nat(_) => ValueType::Nat,
            Cell::Int(_) => ValueType::Int,
            Cell::Dbl(_) => ValueType::Dbl,
            Cell::Str(_) => ValueType::Str,
            Cell::Bool(_) => ValueType::Bool,
            Cell::Node(_) => ValueType::Node,
            Cell::Attr(_) => ValueType::Attr,
        }
    }

    /// `true` if the cell is numeric.
    pub fn is_numeric(self) -> bool {
        matches!(self, Cell::Nat(_) | Cell::Int(_) | Cell::Dbl(_))
    }

    /// Numeric view for arithmetic and comparison: integers convert to
    /// `f64` (lossy beyond 2^53).
    fn as_f64(self) -> RelResult<f64> {
        match self {
            Cell::Nat(n) => Ok(n as f64),
            Cell::Int(i) => Ok(i as f64),
            Cell::Dbl(d) => Ok(d),
            other => Err(RelError::new(format!("expected number, found {other}"))),
        }
    }

    /// The integer view of integer arithmetic (`Nat`s wrap into `i64`).
    fn as_i64(self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(i),
            Cell::Nat(n) => Some(n as i64),
            _ => None,
        }
    }

    /// Interpret as a boolean (for selection predicates and the boolean
    /// connectives): only `xs:boolean` qualifies.
    pub fn as_bool(self) -> RelResult<bool> {
        match self {
            Cell::Bool(b) => Ok(b),
            other => Err(RelError::new(format!("expected boolean, found {other}"))),
        }
    }

    /// Arithmetic on two cells following the XQuery numeric promotion
    /// rules: integer op integer stays integer (checked) except for `div`;
    /// anything involving a double is double arithmetic, where `idiv`
    /// yields an integer.
    pub fn arithmetic(self, op: ArithOp, rhs: Cell<'_>) -> RelResult<Value> {
        match (self.as_i64(), rhs.as_i64()) {
            (Some(a), Some(b)) if op != ArithOp::Div => int_arith(op, a, b).map(Value::Int),
            _ => {
                let (a, b) = (self.as_f64()?, rhs.as_f64()?);
                if op == ArithOp::IDiv {
                    dbl_idiv(a, b).map(Value::Int)
                } else {
                    dbl_arith(op, a, b).map(Value::Dbl)
                }
            }
        }
    }

    /// General ("value") comparison following XQuery `eq`/`lt`/…
    /// semantics: numbers compare numerically ([`compare_f64`]), strings
    /// lexicographically, booleans as false < true, nodes in document
    /// order.  Untyped content compared with a number is cast when it
    /// parses ([`parse_double`]) and compared as a string otherwise.
    pub fn compare(self, rhs: Cell<'_>) -> RelResult<Ordering> {
        match (self, rhs) {
            (Cell::Str(a), Cell::Str(b)) => Ok(a.cmp(b)),
            (Cell::Bool(a), Cell::Bool(b)) => Ok(a.cmp(&b)),
            (Cell::Node(a), Cell::Node(b)) => Ok(a.cmp(&b)),
            (a, b) if a.is_numeric() && b.is_numeric() => compare_f64(a.as_f64()?, b.as_f64()?),
            (Cell::Str(s), b) if b.is_numeric() => match parse_double(s) {
                Some(x) => compare_f64(x, b.as_f64()?),
                None => Ok(s.cmp(b.to_string().as_str())),
            },
            (a, Cell::Str(s)) if a.is_numeric() => match parse_double(s) {
                Some(y) => compare_f64(a.as_f64()?, y),
                None => Ok(a.to_string().as_str().cmp(s)),
            },
            (a, b) => Err(RelError::new(format!(
                "values {a} and {b} are not comparable"
            ))),
        }
    }

    /// The cast of `fn:number` on an atomic: numbers stay as they are,
    /// strings parse as `xs:double`, booleans become 0 or 1.
    pub fn to_number(self) -> RelResult<Value> {
        match self {
            Cell::Nat(_) | Cell::Int(_) | Cell::Dbl(_) => Ok(self.to_value()),
            Cell::Str(s) => cast_double(s).map(Value::Dbl),
            Cell::Bool(b) => Ok(Value::Int(i64::from(b))),
            Cell::Node(_) | Cell::Attr(_) => {
                Err(RelError::new("cannot cast a node reference to a number"))
            }
        }
    }
}

/// The XQuery string representation (what `fn:string` gives an atomic):
/// doubles print as [`XsDouble`], nodes as `node(doc,pre)` and attributes
/// as `attribute(doc,row)` (both are atomized through the store before
/// any XQuery-visible use).
impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Nat(n) => write!(f, "{n}"),
            Cell::Int(i) => write!(f, "{i}"),
            Cell::Dbl(d) => write!(f, "{}", XsDouble(*d)),
            Cell::Str(s) => f.write_str(s),
            Cell::Bool(b) => write!(f, "{b}"),
            Cell::Node(n) => write!(f, "{n}"),
            Cell::Attr(a) => write!(f, "{a}"),
        }
    }
}

/// The cast of a string to `xs:double` ([`parse_double`]), failing with
/// the cast error.
#[inline]
pub fn cast_double(text: &str) -> RelResult<f64> {
    parse_double(text).ok_or_else(|| RelError::new(format!("cannot cast `{text}` to a number")))
}

/// Numeric comparison: `NaN` is not comparable.
#[inline]
pub fn compare_f64(a: f64, b: f64) -> RelResult<Ordering> {
    a.partial_cmp(&b).ok_or_else(nan_error)
}

/// The error a comparison with a `NaN` operand raises.
pub(crate) fn nan_error() -> RelError {
    RelError::new("NaN is not comparable")
}

/// Integer arithmetic (every operator but `div`, which is double
/// arithmetic): overflow and division by zero are errors.
#[inline]
pub fn int_arith(op: ArithOp, a: i64, b: i64) -> RelResult<i64> {
    let r = match op {
        ArithOp::Add => a.checked_add(b),
        ArithOp::Sub => a.checked_sub(b),
        ArithOp::Mul => a.checked_mul(b),
        ArithOp::IDiv => {
            if b == 0 {
                return Err(RelError::new("integer division by zero"));
            }
            a.checked_div(b)
        }
        ArithOp::Mod => {
            if b == 0 {
                return Err(RelError::new("modulo by zero"));
            }
            a.checked_rem(b)
        }
        ArithOp::Div => unreachable!("`div` is double arithmetic"),
    };
    r.ok_or_else(|| RelError::new("integer overflow in arithmetic"))
}

/// Double arithmetic for every operator but `idiv` (see [`dbl_idiv`]).
#[inline]
pub fn dbl_arith(op: ArithOp, a: f64, b: f64) -> RelResult<f64> {
    Ok(match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => {
            if b == 0.0 {
                return Err(RelError::new("division by zero"));
            }
            a / b
        }
        ArithOp::Mod => {
            if b == 0.0 {
                return Err(RelError::new("modulo by zero"));
            }
            a % b
        }
        ArithOp::IDiv => unreachable!("`idiv` yields an integer: dbl_idiv"),
    })
}

/// `idiv` on doubles: the truncated quotient as an integer.
#[inline]
pub fn dbl_idiv(a: f64, b: f64) -> RelResult<i64> {
    if b == 0.0 {
        return Err(RelError::new("integer division by zero"));
    }
    Ok((a / b).trunc() as i64)
}

/// A genuinely total double comparison for sorting: ordinary values by
/// `partial_cmp`, and `NaN` equal to `NaN` but **after** every number.
///
/// Treating `NaN` as equal to everything (the previous behavior) is not
/// transitive — `5.0 = NaN = 3.0` but `5.0 > 3.0` — which trips the
/// standard library's sort-total-order assertion on larger inputs and
/// leaves the sorted order to the sort algorithm.
pub fn nan_last_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN doubles compare"),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.cell().fmt(f)
    }
}

/// Arithmetic operators of the `⊙` family in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `idiv`
    IDiv,
    /// `mod`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::IDiv => "idiv",
            ArithOp::Mod => "mod",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_arithmetic_stays_integer() {
        let r = Value::Int(7)
            .arithmetic(ArithOp::Add, &Value::Int(3))
            .unwrap();
        assert_eq!(r, Value::Int(10));
        let r = Value::Int(7)
            .arithmetic(ArithOp::Mul, &Value::Int(3))
            .unwrap();
        assert_eq!(r, Value::Int(21));
        let r = Value::Int(7)
            .arithmetic(ArithOp::Mod, &Value::Int(3))
            .unwrap();
        assert_eq!(r, Value::Int(1));
    }

    #[test]
    fn div_promotes_to_double() {
        let r = Value::Int(7)
            .arithmetic(ArithOp::Div, &Value::Int(2))
            .unwrap();
        assert_eq!(r, Value::Dbl(3.5));
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        let r = Value::Int(1)
            .arithmetic(ArithOp::Add, &Value::Dbl(0.5))
            .unwrap();
        assert_eq!(r, Value::Dbl(1.5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::Int(1)
            .arithmetic(ArithOp::IDiv, &Value::Int(0))
            .is_err());
        assert!(Value::Dbl(1.0)
            .arithmetic(ArithOp::Div, &Value::Dbl(0.0))
            .is_err());
        assert!(Value::Int(1)
            .arithmetic(ArithOp::Mod, &Value::Int(0))
            .is_err());
    }

    #[test]
    fn overflow_is_detected() {
        assert!(Value::Int(i64::MAX)
            .arithmetic(ArithOp::Add, &Value::Int(1))
            .is_err());
    }

    #[test]
    fn comparisons_follow_xquery_semantics() {
        assert_eq!(
            Value::Int(1).compare(&Value::Dbl(1.0)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Str("a".into())
                .compare(&Value::Str("b".into()))
                .unwrap(),
            Ordering::Less
        );
        assert_eq!(
            Value::Bool(false).compare(&Value::Bool(true)).unwrap(),
            Ordering::Less
        );
        // untyped content coerced to number
        assert_eq!(
            Value::Str("10".into()).compare(&Value::Int(9)).unwrap(),
            Ordering::Greater
        );
        assert!(Value::Node(NodeRef::new(0, 1))
            .compare(&Value::Int(1))
            .is_err());
    }

    #[test]
    fn node_comparison_is_document_order() {
        let a = Value::Node(NodeRef::new(0, 5));
        let b = Value::Node(NodeRef::new(0, 9));
        let c = Value::Node(NodeRef::new(1, 0));
        assert_eq!(a.compare(&b).unwrap(), Ordering::Less);
        assert_eq!(b.compare(&c).unwrap(), Ordering::Less);
    }

    #[test]
    fn xdm_string_rendering() {
        assert_eq!(Value::Int(-3).to_xdm_string(), "-3");
        assert_eq!(Value::Dbl(2.0).to_xdm_string(), "2");
        assert_eq!(Value::Dbl(2.5).to_xdm_string(), "2.5");
        assert_eq!(Value::Bool(true).to_xdm_string(), "true");
        assert_eq!(Value::Str("x".into()).to_xdm_string(), "x");
        assert_eq!(Value::Dbl(f64::INFINITY).to_xdm_string(), "INF");
        assert_eq!(Value::Dbl(f64::NEG_INFINITY).to_xdm_string(), "-INF");
    }

    /// Untyped content is cast with the `xs:double` lexical rules: `INF`
    /// is a number, `infinity` is a string.
    #[test]
    fn untyped_comparisons_use_the_xs_double_lexical_space() {
        let inf = Value::Str("INF".into());
        assert_eq!(inf.compare(&Value::Int(1)).unwrap(), Ordering::Greater);
        // "-infinity" is not a number: compared as strings, "-i" > "-5".
        let word = Value::Str("-infinity".into());
        assert_eq!(word.compare(&Value::Int(-5)).unwrap(), Ordering::Greater);
        assert!(Value::Str("NaN".into())
            .compare(&Value::Int(1))
            .unwrap_err()
            .to_string()
            .contains("NaN is not comparable"));
        assert_eq!(Cell::Str(" 2.5 ").to_number().unwrap(), Value::Dbl(2.5));
        assert!(Cell::Str("infinity")
            .to_number()
            .unwrap_err()
            .to_string()
            .contains("cannot cast `infinity` to a number"));
    }

    /// Cells and values are two views of one rule set: equality, display
    /// and the round trip agree.
    #[test]
    fn cells_are_borrowed_views_of_values() {
        let values = [
            Value::Nat(3),
            Value::Int(-3),
            Value::Dbl(0.5),
            Value::Str("s".into()),
            Value::Bool(false),
            Value::Node(NodeRef::new(1, 2)),
            Value::Attr(AttrRef::new(1, 2)),
        ];
        for a in &values {
            assert_eq!(a.cell().to_value(), *a);
            assert_eq!(a.cell().to_string(), a.to_xdm_string());
            for b in &values {
                assert_eq!(a.cell() == b.cell(), a == b);
            }
        }
        assert_ne!(Cell::Dbl(f64::NAN), Cell::Dbl(f64::NAN));
        assert_ne!(Cell::Int(1), Cell::Nat(1));
    }

    #[test]
    fn nat_accessors() {
        assert_eq!(Value::Nat(3).as_nat().unwrap(), 3);
        assert_eq!(Value::Int(3).as_nat().unwrap(), 3);
        assert!(Value::Int(-1).as_nat().is_err());
        assert!(Value::Str("x".into()).as_nat().is_err());
    }

    #[test]
    fn nan_sorts_after_every_number_and_equal_to_itself() {
        assert_eq!(nan_last_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(nan_last_cmp(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(nan_last_cmp(1.0, f64::NAN), Ordering::Less);
        assert_eq!(nan_last_cmp(1.0, 2.0), Ordering::Less);
        // Through sort_key_cmp, including the mixed-numeric arm.
        assert_eq!(
            Value::Dbl(f64::NAN).sort_key_cmp(&Value::Int(7)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(7).sort_key_cmp(&Value::Dbl(f64::NAN)),
            Ordering::Less
        );
    }

    #[test]
    fn sort_key_is_total() {
        let mut values = [
            Value::Str("b".into()),
            Value::Int(2),
            Value::Node(NodeRef::new(0, 1)),
            Value::Int(1),
            Value::Str("a".into()),
        ];
        values.sort_by(|a, b| a.sort_key_cmp(b));
        assert_eq!(values[0], Value::Int(1));
        assert_eq!(values[1], Value::Int(2));
    }
}
