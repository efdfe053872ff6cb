//! Columns — the reproduction's BATs.
//!
//! A [`Column`] is a homogeneous, densely packed vector of values.  The
//! frequent `iter`/`pos` columns get a dedicated `Nat` representation (they
//! are the bulk of every loop-lifted table); the polymorphic `item` column
//! of Figure 2 is represented by the `Item` variant.
//!
//! Six kinds hold atomic values (`Nat`, `Int`, `Dbl`, `Str`, `Bool` and
//! `Text`), two hold references into stores (`Node`, `Attr`), and `Item`
//! holds any mix.  `Text` is a second representation of strings: the
//! surrogates of one stored document's `texts` dictionary ([`Texts`]), as
//! MonetDB keeps a string column as offsets into a shared heap.  It is
//! what an attribute step returns, so attribute values are never copied
//! out of the store.  A `Text` column *spells* itself: its cells are
//! [`Cell::Str`]s borrowed from the dictionary and its type is `Str`, so
//! every consumer that reads cells sees strings.  Kernels compare the
//! surrogates instead only where that is exact — within one column, or
//! between two `Text` columns over the same store, because one dictionary
//! gives one surrogate per distinct string.  Everywhere else (against a
//! `Str` column or constant, against another document's `Text`, in sorts
//! and ordering comparisons, at serialization) a `Text` value is spelled,
//! borrowed from the store without a copy; only [`Column::get`] and a
//! union with a column of another representation copy it.
//!
//! Payloads are behind [`Arc`]s, mirroring how MonetDB shares BATs between
//! the consumers of an intermediate result: cloning a column is an O(1)
//! reference-count bump, never a copy of the cell data.  Mutation goes
//! through [`Arc::make_mut`], i.e. columns are copy-on-write — a uniquely
//! owned column is mutated in place, a shared one is copied first.

use std::fmt;
use std::sync::Arc;

use pf_store::{Dictionary, DocStore};

use crate::error::{RelError, RelResult};
use crate::value::{AttrRef, Cell, NodeRef, Value, ValueType};

/// A homogeneous column of values.
///
/// Clones are O(1) and share the underlying buffer (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Natural numbers (`iter`, `pos`, surrogates).
    Nat(Arc<Vec<u64>>),
    /// Integers.
    Int(Arc<Vec<i64>>),
    /// Doubles.
    Dbl(Arc<Vec<f64>>),
    /// Strings.
    Str(Arc<Vec<String>>),
    /// Strings as surrogates of one stored document's dictionary (see
    /// the module docs).
    Text(Texts),
    /// Booleans.
    Bool(Arc<Vec<bool>>),
    /// Node references.
    Node(Arc<Vec<NodeRef>>),
    /// Constructed-attribute references.
    Attr(Arc<Vec<AttrRef>>),
    /// The polymorphic item column.
    Item(Arc<Vec<Value>>),
}

/// The payload of [`Column::Text`]: surrogates of the `texts` dictionary
/// of one stored document, which the column keeps alive.
///
/// Two `Texts` are equal when they spell the same strings, whichever
/// stores they read.
#[derive(Clone)]
pub struct Texts {
    store: Arc<DocStore>,
    syms: Arc<Vec<u32>>,
}

impl Texts {
    /// Surrogates `syms` of `store`'s `texts` dictionary.
    pub fn new(store: Arc<DocStore>, syms: Vec<u32>) -> Texts {
        Texts {
            store,
            syms: Arc::new(syms),
        }
    }

    /// The document whose dictionary the surrogates index.
    pub fn store(&self) -> &Arc<DocStore> {
        &self.store
    }

    /// The dictionary the surrogates index.
    #[inline]
    pub(crate) fn dictionary(&self) -> &Dictionary {
        &self.store.texts
    }

    /// The surrogates, one per row.
    #[inline]
    pub fn syms(&self) -> &[u32] {
        &self.syms
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Row `i`, spelled (borrowed from the dictionary).
    #[inline]
    pub fn spell(&self, i: usize) -> &str {
        self.store.texts.resolve(self.syms[i])
    }

    /// Do `self` and `other` index the same dictionary, so that equal
    /// surrogates mean equal strings across the two?
    #[inline]
    pub(crate) fn same_store(&self, other: &Texts) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// The rows spelled into owned strings.
    fn spelled(&self) -> Vec<String> {
        (0..self.len()).map(|i| self.spell(i).to_owned()).collect()
    }
}

impl fmt::Debug for Texts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Texts")
            .field("doc", &self.store.name)
            .field("syms", &self.syms)
            .finish()
    }
}

impl PartialEq for Texts {
    fn eq(&self, other: &Texts) -> bool {
        if self.same_store(other) {
            return self.syms == other.syms;
        }
        self.len() == other.len() && (0..self.len()).all(|i| self.spell(i) == other.spell(i))
    }
}

impl Column {
    /// A `Nat` column owning `values`.
    pub fn nats(values: Vec<u64>) -> Column {
        Column::Nat(Arc::new(values))
    }

    /// An `Int` column owning `values`.
    pub fn ints(values: Vec<i64>) -> Column {
        Column::Int(Arc::new(values))
    }

    /// A `Dbl` column owning `values`.
    pub fn dbls(values: Vec<f64>) -> Column {
        Column::Dbl(Arc::new(values))
    }

    /// A `Str` column owning `values`.
    pub fn strs(values: Vec<String>) -> Column {
        Column::Str(Arc::new(values))
    }

    /// A `Bool` column owning `values`.
    pub fn bools(values: Vec<bool>) -> Column {
        Column::Bool(Arc::new(values))
    }

    /// A `Node` column owning `values`.
    pub fn nodes(values: Vec<NodeRef>) -> Column {
        Column::Node(Arc::new(values))
    }

    /// An `Attr` column owning `values`.
    pub fn attrs(values: Vec<AttrRef>) -> Column {
        Column::Attr(Arc::new(values))
    }

    /// A polymorphic item column owning `values` (no type detection — use
    /// [`Column::from_values`] to get a typed column when possible).
    pub fn items(values: Vec<Value>) -> Column {
        Column::Item(Arc::new(values))
    }

    /// An empty column of the given type.
    pub fn empty(ty: ValueType) -> Column {
        match ty {
            ValueType::Nat => Column::nats(Vec::new()),
            ValueType::Int => Column::ints(Vec::new()),
            ValueType::Dbl => Column::dbls(Vec::new()),
            ValueType::Str => Column::strs(Vec::new()),
            ValueType::Bool => Column::bools(Vec::new()),
            ValueType::Node => Column::nodes(Vec::new()),
            ValueType::Attr => Column::attrs(Vec::new()),
        }
    }

    /// An empty polymorphic item column.
    pub fn empty_item() -> Column {
        Column::items(Vec::new())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Nat(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Dbl(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Text(t) => t.len(),
            Column::Bool(v) => v.len(),
            Column::Node(v) => v.len(),
            Column::Attr(v) => v.len(),
            Column::Item(v) => v.len(),
        }
    }

    /// `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `self` and `other` share the same underlying buffer (the
    /// zero-copy invariant the plan executor relies on).
    pub fn shares_data(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Nat(a), Column::Nat(b)) => Arc::ptr_eq(a, b),
            (Column::Int(a), Column::Int(b)) => Arc::ptr_eq(a, b),
            (Column::Dbl(a), Column::Dbl(b)) => Arc::ptr_eq(a, b),
            (Column::Str(a), Column::Str(b)) => Arc::ptr_eq(a, b),
            (Column::Text(a), Column::Text(b)) => Arc::ptr_eq(&a.syms, &b.syms),
            (Column::Bool(a), Column::Bool(b)) => Arc::ptr_eq(a, b),
            (Column::Node(a), Column::Node(b)) => Arc::ptr_eq(a, b),
            (Column::Attr(a), Column::Attr(b)) => Arc::ptr_eq(a, b),
            (Column::Item(a), Column::Item(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Row `i` viewed in place as a [`Cell`] (a string is borrowed, not
    /// cloned; a `Text` row is spelled from its dictionary).
    #[inline]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            Column::Nat(v) => Cell::Nat(v[i]),
            Column::Int(v) => Cell::Int(v[i]),
            Column::Dbl(v) => Cell::Dbl(v[i]),
            Column::Str(v) => Cell::Str(&v[i]),
            Column::Text(t) => Cell::Str(t.spell(i)),
            Column::Bool(v) => Cell::Bool(v[i]),
            Column::Node(v) => Cell::Node(v[i]),
            Column::Attr(v) => Cell::Attr(v[i]),
            Column::Item(v) => v[i].cell(),
        }
    }

    /// Read row `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Nat(v) => Value::Nat(v[i]),
            Column::Int(v) => Value::Int(v[i]),
            Column::Dbl(v) => Value::Dbl(v[i]),
            Column::Str(v) => Value::Str(v[i].clone()),
            Column::Text(t) => Value::Str(t.spell(i).to_owned()),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Node(v) => Value::Node(v[i]),
            Column::Attr(v) => Value::Attr(v[i]),
            Column::Item(v) => v[i].clone(),
        }
    }

    /// Append a value, converting it to the column type where possible.
    ///
    /// Copy-on-write: a shared buffer is copied before the append.  A
    /// `Text` column is spelled into a `Str` column first (a dictionary
    /// is never extended).
    pub fn push(&mut self, value: Value) -> RelResult<()> {
        if let Column::Text(t) = self {
            *self = Column::strs(t.spelled());
        }
        match (self, value) {
            (Column::Nat(v), val) => Arc::make_mut(v).push(val.as_nat()?),
            (Column::Int(v), Value::Int(i)) => Arc::make_mut(v).push(i),
            (Column::Int(v), Value::Nat(n)) => Arc::make_mut(v).push(n as i64),
            (Column::Dbl(v), Value::Dbl(d)) => Arc::make_mut(v).push(d),
            (Column::Dbl(v), Value::Int(i)) => Arc::make_mut(v).push(i as f64),
            (Column::Str(v), Value::Str(s)) => Arc::make_mut(v).push(s),
            (Column::Bool(v), Value::Bool(b)) => Arc::make_mut(v).push(b),
            (Column::Node(v), Value::Node(n)) => Arc::make_mut(v).push(n),
            (Column::Attr(v), Value::Attr(a)) => Arc::make_mut(v).push(a),
            (Column::Item(v), val) => Arc::make_mut(v).push(val),
            (col, val) => {
                return Err(RelError::new(format!(
                    "cannot push {val} into a column of type {:?}",
                    col.column_type()
                )))
            }
        }
        Ok(())
    }

    /// The column's static type; `None` for the polymorphic item column.
    pub fn column_type(&self) -> Option<ValueType> {
        match self {
            Column::Nat(_) => Some(ValueType::Nat),
            Column::Int(_) => Some(ValueType::Int),
            Column::Dbl(_) => Some(ValueType::Dbl),
            Column::Str(_) | Column::Text(_) => Some(ValueType::Str),
            Column::Bool(_) => Some(ValueType::Bool),
            Column::Node(_) => Some(ValueType::Node),
            Column::Attr(_) => Some(ValueType::Attr),
            Column::Item(_) => None,
        }
    }

    /// Build a column from a vector of values.  If all values share one
    /// type a typed column is produced, otherwise an item column; no
    /// values give [`Column::empty_item`] (see [`ColumnBuilder`]).
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut builder = ColumnBuilder::with_capacity(values.len());
        for value in values {
            builder.push(value);
        }
        builder.finish()
    }

    /// Build a `Nat` column.
    pub fn from_nats(values: Vec<u64>) -> Column {
        Column::nats(values)
    }

    /// View as a slice of nats, if this is a `Nat` column.
    pub fn as_nats(&self) -> Option<&[u64]> {
        match self {
            Column::Nat(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// View as a slice of integers, if this is an `Int` column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// View as a slice of doubles, if this is a `Dbl` column.
    pub fn as_dbls(&self) -> Option<&[f64]> {
        match self {
            Column::Dbl(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// View as a slice of strings, if this is a `Str` column.
    pub fn as_strs(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The surrogates and their store, if this is a `Text` column.
    pub fn as_texts(&self) -> Option<&Texts> {
        match self {
            Column::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The same values with a `Text` column spelled into a `Str` column;
    /// any other column is shared as it is.
    pub fn spelled(&self) -> Column {
        match self {
            Column::Text(t) => Column::strs(t.spelled()),
            other => other.clone(),
        }
    }

    /// View as a slice of booleans, if this is a `Bool` column.
    pub fn as_bools(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// View as a slice of node references, if this is a `Node` column.
    pub fn as_nodes(&self) -> Option<&[NodeRef]> {
        match self {
            Column::Node(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// View as a slice of attribute references, if this is an `Attr`
    /// column.
    pub fn as_attrs(&self) -> Option<&[AttrRef]> {
        match self {
            Column::Attr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// View as a slice of values, if this is a polymorphic `Item` column.
    pub fn as_items(&self) -> Option<&[Value]> {
        match self {
            Column::Item(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Gather: build a new column containing `rows[i]`-th elements.
    pub fn gather(&self, rows: &[usize]) -> Column {
        match self {
            Column::Nat(v) => Column::nats(rows.iter().map(|&r| v[r]).collect()),
            Column::Int(v) => Column::ints(rows.iter().map(|&r| v[r]).collect()),
            Column::Dbl(v) => Column::dbls(rows.iter().map(|&r| v[r]).collect()),
            Column::Str(v) => Column::strs(rows.iter().map(|&r| v[r].clone()).collect()),
            Column::Text(t) => Column::Text(Texts::new(
                t.store.clone(),
                rows.iter().map(|&r| t.syms[r]).collect(),
            )),
            Column::Bool(v) => Column::bools(rows.iter().map(|&r| v[r]).collect()),
            Column::Node(v) => Column::nodes(rows.iter().map(|&r| v[r]).collect()),
            Column::Attr(v) => Column::attrs(rows.iter().map(|&r| v[r]).collect()),
            Column::Item(v) => Column::items(rows.iter().map(|&r| v[r].clone()).collect()),
        }
    }

    /// Concatenate another column of a compatible representation onto this
    /// one (used by disjoint union).  Copy-on-write applies: a shared left
    /// buffer is copied once before extension.  Two `Text` columns over
    /// one store concatenate their surrogates; a `Text` column next to a
    /// `Str` column or another store's `Text` is spelled into `Str`.
    pub fn append(&mut self, other: &Column) -> RelResult<()> {
        match (&mut *self, other) {
            (Column::Text(a), Column::Text(b)) if a.same_store(b) => {
                Arc::make_mut(&mut a.syms).extend_from_slice(&b.syms)
            }
            (a @ Column::Text(_), Column::Str(_) | Column::Text(_)) => {
                *a = a.spelled();
                return a.append(other);
            }
            (Column::Str(a), Column::Text(b)) => {
                let a = Arc::make_mut(a);
                a.extend((0..b.len()).map(|i| b.spell(i).to_owned()));
            }
            (Column::Nat(a), Column::Nat(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Int(a), Column::Int(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Dbl(a), Column::Dbl(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Node(a), Column::Node(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Attr(a), Column::Attr(b)) => Arc::make_mut(a).extend_from_slice(b),
            (Column::Item(a), b) => {
                let a = Arc::make_mut(a);
                for i in 0..b.len() {
                    a.push(b.get(i));
                }
            }
            (a, b) => {
                // Fall back to a polymorphic column when the representations
                // differ (e.g. Int ∪ Dbl item columns).
                let mut items: Vec<Value> = (0..a.len()).map(|i| a.get(i)).collect();
                for i in 0..b.len() {
                    items.push(b.get(i));
                }
                *a = Column::items(items);
            }
        }
        Ok(())
    }

    /// Iterate over the rows as values.
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Builds a column value by value, typed while every value has the type
/// of the first and demoted to an `Item` column at the first that does
/// not — the column [`Column::from_values`] makes of the same values,
/// without collecting them first.
#[derive(Debug)]
pub enum ColumnBuilder {
    /// No value yet (the capacity to reserve once the type is known).
    Empty(usize),
    /// Natural numbers so far.
    Nat(Vec<u64>),
    /// Integers so far.
    Int(Vec<i64>),
    /// Doubles so far.
    Dbl(Vec<f64>),
    /// Strings so far.
    Str(Vec<String>),
    /// Booleans so far.
    Bool(Vec<bool>),
    /// Node references so far.
    Node(Vec<NodeRef>),
    /// Attribute references so far.
    Attr(Vec<AttrRef>),
    /// Values of more than one type.
    Item(Vec<Value>),
}

impl ColumnBuilder {
    /// An empty builder for about `capacity` values.
    pub fn with_capacity(capacity: usize) -> ColumnBuilder {
        ColumnBuilder::Empty(capacity)
    }

    /// Append one value.
    #[inline]
    pub fn push(&mut self, value: Value) {
        match (&mut *self, value) {
            (ColumnBuilder::Nat(v), Value::Nat(x)) => v.push(x),
            (ColumnBuilder::Int(v), Value::Int(x)) => v.push(x),
            (ColumnBuilder::Dbl(v), Value::Dbl(x)) => v.push(x),
            (ColumnBuilder::Str(v), Value::Str(x)) => v.push(x),
            (ColumnBuilder::Bool(v), Value::Bool(x)) => v.push(x),
            (ColumnBuilder::Node(v), Value::Node(x)) => v.push(x),
            (ColumnBuilder::Attr(v), Value::Attr(x)) => v.push(x),
            (ColumnBuilder::Item(v), x) => v.push(x),
            (ColumnBuilder::Empty(capacity), x) => {
                let capacity = *capacity;
                *self = match x {
                    Value::Nat(x) => ColumnBuilder::Nat(first(capacity, x)),
                    Value::Int(x) => ColumnBuilder::Int(first(capacity, x)),
                    Value::Dbl(x) => ColumnBuilder::Dbl(first(capacity, x)),
                    Value::Str(x) => ColumnBuilder::Str(first(capacity, x)),
                    Value::Bool(x) => ColumnBuilder::Bool(first(capacity, x)),
                    Value::Node(x) => ColumnBuilder::Node(first(capacity, x)),
                    Value::Attr(x) => ColumnBuilder::Attr(first(capacity, x)),
                };
            }
            (typed, x) => {
                let mut items = std::mem::replace(typed, ColumnBuilder::Empty(0)).into_items();
                items.push(x);
                *self = ColumnBuilder::Item(items);
            }
        }
    }

    /// The values so far as a polymorphic vector.
    fn into_items(self) -> Vec<Value> {
        match self {
            ColumnBuilder::Empty(_) => Vec::new(),
            ColumnBuilder::Nat(v) => v.into_iter().map(Value::Nat).collect(),
            ColumnBuilder::Int(v) => v.into_iter().map(Value::Int).collect(),
            ColumnBuilder::Dbl(v) => v.into_iter().map(Value::Dbl).collect(),
            ColumnBuilder::Str(v) => v.into_iter().map(Value::Str).collect(),
            ColumnBuilder::Bool(v) => v.into_iter().map(Value::Bool).collect(),
            ColumnBuilder::Node(v) => v.into_iter().map(Value::Node).collect(),
            ColumnBuilder::Attr(v) => v.into_iter().map(Value::Attr).collect(),
            ColumnBuilder::Item(v) => v,
        }
    }

    /// The column: typed when every value had one type, `Item` otherwise,
    /// [`Column::empty_item`] when no value was pushed.
    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::Empty(_) => Column::empty_item(),
            ColumnBuilder::Nat(v) => Column::nats(v),
            ColumnBuilder::Int(v) => Column::ints(v),
            ColumnBuilder::Dbl(v) => Column::dbls(v),
            ColumnBuilder::Str(v) => Column::strs(v),
            ColumnBuilder::Bool(v) => Column::bools(v),
            ColumnBuilder::Node(v) => Column::nodes(v),
            ColumnBuilder::Attr(v) => Column::attrs(v),
            ColumnBuilder::Item(v) => Column::items(v),
        }
    }
}

/// A vector of `capacity` slots holding `value` first.
fn first<T>(capacity: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(capacity.max(1));
    v.push(value);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A builder demoted to `Item` keeps every value, in order.
    #[test]
    fn builder_demotes_at_the_first_other_type() {
        let values = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Str("x".into()),
            Value::Int(3),
        ];
        let col = Column::from_values(values.clone());
        assert_eq!(col, Column::items(values));
        let mut builder = ColumnBuilder::with_capacity(0);
        builder.push(Value::Str("a".into()));
        builder.push(Value::Str("b".into()));
        assert_eq!(builder.finish(), Column::strs(vec!["a".into(), "b".into()]));
    }

    #[test]
    fn from_values_detects_homogeneous_type() {
        let col = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(col.column_type(), Some(ValueType::Int));
        let col = Column::from_values(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(col.column_type(), None);
    }

    #[test]
    fn push_coerces_nat_and_int() {
        let mut col = Column::empty(ValueType::Nat);
        col.push(Value::Nat(1)).unwrap();
        col.push(Value::Int(2)).unwrap();
        assert_eq!(col.as_nats().unwrap(), &[1, 2]);
        assert!(col.push(Value::Str("no".into())).is_err());
    }

    #[test]
    fn typed_slice_accessors() {
        assert_eq!(Column::ints(vec![1, -2]).as_ints().unwrap(), &[1, -2]);
        assert_eq!(Column::dbls(vec![0.5]).as_dbls().unwrap(), &[0.5]);
        assert_eq!(
            Column::strs(vec!["a".into()]).as_strs().unwrap(),
            &["a".to_string()]
        );
        assert_eq!(Column::bools(vec![true]).as_bools().unwrap(), &[true]);
        assert!(Column::ints(vec![]).as_dbls().is_none());
        assert!(Column::nats(vec![]).as_ints().is_none());
    }

    #[test]
    fn gather_reorders_rows() {
        let col = Column::from_values(vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
        let gathered = col.gather(&[2, 0, 0]);
        assert_eq!(
            gathered.iter_values().collect::<Vec<_>>(),
            vec![Value::Int(30), Value::Int(10), Value::Int(10)]
        );
    }

    #[test]
    fn append_compatible_columns() {
        let mut a = Column::from_values(vec![Value::Int(1)]);
        let b = Column::from_values(vec![Value::Int(2)]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn append_incompatible_falls_back_to_item() {
        let mut a = Column::from_values(vec![Value::Int(1)]);
        let b = Column::from_values(vec![Value::Str("x".into())]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.column_type(), None);
        assert_eq!(a.get(1), Value::Str("x".into()));
    }

    #[test]
    fn empty_columns() {
        assert!(Column::empty(ValueType::Bool).is_empty());
        assert!(Column::empty_item().is_empty());
        assert_eq!(Column::from_values(vec![]).len(), 0);
    }

    #[test]
    fn clone_is_zero_copy() {
        let col = Column::nats(vec![1, 2, 3]);
        let copy = col.clone();
        assert!(col.shares_data(&copy));
        assert_eq!(col, copy);
        // Different buffers with equal contents still compare equal but do
        // not share data.
        let rebuilt = Column::nats(vec![1, 2, 3]);
        assert!(!col.shares_data(&rebuilt));
        assert_eq!(col, rebuilt);
    }

    #[test]
    fn copy_on_write_detaches_shared_buffers() {
        let original = Column::nats(vec![1, 2]);
        let mut copy = original.clone();
        copy.push(Value::Nat(3)).unwrap();
        // The writer got a private buffer; the original is unchanged.
        assert_eq!(original.len(), 2);
        assert_eq!(copy.len(), 3);
        assert!(!original.shares_data(&copy));
    }

    #[test]
    fn unique_columns_mutate_in_place() {
        let mut col = Column::nats(Vec::with_capacity(4));
        let before = match &col {
            Column::Nat(v) => v.as_ptr(),
            _ => unreachable!(),
        };
        col.push(Value::Nat(1)).unwrap();
        let after = match &col {
            Column::Nat(v) => v.as_ptr(),
            _ => unreachable!(),
        };
        // No other owner → Arc::make_mut reuses the allocation.
        assert_eq!(before, after);
    }

    /// Attribute references make a typed column of their own: built,
    /// gathered and appended as plain copies, demoted to `Item` next to
    /// another type.
    #[test]
    fn attribute_references_are_a_typed_column() {
        let refs = [AttrRef::new(1, 0), AttrRef::new(1, 1), AttrRef::new(2, 0)];
        let col = Column::from_values(refs.iter().map(|&a| Value::Attr(a)).collect());
        assert_eq!(col.column_type(), Some(ValueType::Attr));
        assert_eq!(col.as_attrs().unwrap(), &refs);
        assert_eq!(col.gather(&[2, 0]).as_attrs().unwrap(), &[refs[2], refs[0]]);
        assert_eq!(col.cell(1), Cell::Attr(refs[1]));
        let mut appended = col.clone();
        appended.append(&Column::attrs(vec![refs[0]])).unwrap();
        assert_eq!(appended.as_attrs().unwrap().len(), 4);
        let mut mixed = col.clone();
        mixed.append(&Column::ints(vec![7])).unwrap();
        assert_eq!(mixed.column_type(), None);
        assert_eq!(mixed.get(0), Value::Attr(refs[0]));
        assert_eq!(mixed.get(3), Value::Int(7));
        assert!(Column::empty(ValueType::Attr)
            .as_attrs()
            .unwrap()
            .is_empty());
    }

    /// A `Text` column spells itself, keeps its surrogates through
    /// gathers and same-store appends, and becomes `Str` wherever a
    /// dictionary would have to grow or two would meet.
    #[test]
    fn text_columns_spell_themselves() {
        let store = |name: &str, xml: &str| Arc::new(DocStore::from_xml(name, xml).unwrap());
        let a = store("a", r#"<r x="p" y="q" z="p"/>"#);
        let b = store("b", r#"<r><t>q</t><s y="p" z="q"/></r>"#);
        let text = |store: &Arc<DocStore>| {
            Column::Text(Texts::new(store.clone(), store.attr_value.clone()))
        };
        let col = text(&a);
        assert_eq!(col.column_type(), Some(ValueType::Str));
        assert_eq!(col.cell(1), Cell::Str("q"));
        assert_eq!(col.get(2), Value::Str("p".into()));
        assert_eq!(
            col.spelled(),
            Column::strs(vec!["p".into(), "q".into(), "p".into()])
        );
        let gathered = col.gather(&[2, 0]);
        assert_eq!(gathered.as_texts().unwrap().syms(), &[0, 0]);
        // The same strings under other surrogates are equal.
        assert_eq!(text(&b), Column::Text(Texts::new(a.clone(), vec![0, 1])));
        assert_ne!(b.attr_value, vec![0, 1]);

        let mut same = col.clone();
        same.append(&gathered).unwrap();
        assert_eq!(same.as_texts().unwrap().syms().len(), 5);
        let mut across = col.clone();
        across.append(&text(&b)).unwrap();
        assert_eq!(across.as_strs().unwrap(), ["p", "q", "p", "p", "q"]);
        let mut pushed = col.clone();
        pushed.push(Value::Str("r".into())).unwrap();
        assert_eq!(pushed.as_strs().unwrap(), ["p", "q", "p", "r"]);
        let mut mixed = col.clone();
        mixed.append(&Column::ints(vec![1])).unwrap();
        assert_eq!(mixed.get(3), Value::Int(1));
    }

    #[test]
    fn shares_data_distinguishes_variants() {
        let a = Column::nats(vec![]);
        let b = Column::ints(vec![]);
        assert!(!a.shares_data(&b));
    }
}
