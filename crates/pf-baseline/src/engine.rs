//! The navigational interpreter.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pf_store::{Axis, NodeTest};
use pf_xml::{Attribute, Document, DocumentBuilder, NodeId, NodeKind};
use pf_xquery::ast::{BinOpKind, Expr};
use pf_xquery::{normalize, parse_query};

use crate::value::BValue;

/// Errors are plain strings — the baseline is a comparator, not a product.
pub type BaselineError = String;

/// Result of a baseline query.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    items: Vec<BValue>,
    xml: String,
}

impl BaselineResult {
    /// The result items.
    pub fn items(&self) -> &[BValue] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` for the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Serialized result (same conventions as the Pathfinder engine).
    pub fn to_xml(&self) -> String {
        self.xml.clone()
    }
}

/// Variable environment of one evaluation.
#[derive(Debug, Clone, Default)]
struct Env {
    vars: HashMap<String, Vec<BValue>>,
    context: Option<BValue>,
    position: Option<usize>,
    last: Option<usize>,
}

/// The navigational engine.
///
/// Documents are held behind [`Arc`]s so a parsed document can be shared
/// with other consumers (e.g. the benchmark harness loads one parse into
/// both engines) without a copy.
#[derive(Debug, Default)]
pub struct BaselineEngine {
    docs: Vec<Arc<Document>>,
    by_name: HashMap<String, usize>,
    /// `(doc, element tag, attribute name) → value → element nodes`.
    attr_indices: HashMap<(usize, String, String), HashMap<String, Vec<NodeId>>>,
}

impl BaselineEngine {
    /// A new, empty engine.
    pub fn new() -> Self {
        BaselineEngine::default()
    }

    /// Parse and register an XML document under `name`.
    pub fn load_document(&mut self, name: &str, xml: &str) -> Result<(), BaselineError> {
        let doc = pf_xml::parse(xml).map_err(|e| e.to_string())?;
        self.load_parsed(name, doc);
        Ok(())
    }

    /// Register an already parsed document under `name`.
    pub fn load_parsed(&mut self, name: &str, doc: Document) {
        self.load_shared(name, Arc::new(doc));
    }

    /// Register a shared parsed document under `name` without copying it —
    /// the caller keeps its handle, the engine bumps the reference count.
    pub fn load_shared(&mut self, name: &str, doc: Arc<Document>) {
        if let Some(&id) = self.by_name.get(name) {
            self.docs[id] = doc;
            // Value indices hold NodeIds of the replaced parse; drop them
            // rather than serve nodes of the old document.
            self.attr_indices.retain(|(doc_id, _, _), _| *doc_id != id);
        } else {
            self.by_name.insert(name.to_string(), self.docs.len());
            self.docs.push(doc);
        }
    }

    /// Build a value index on `element/@attribute` of document `doc_name` —
    /// the tuning the paper applied to X-Hive (Section 3.2).
    pub fn create_attribute_index(
        &mut self,
        doc_name: &str,
        element: &str,
        attribute: &str,
    ) -> Result<(), BaselineError> {
        let doc_id = *self
            .by_name
            .get(doc_name)
            .ok_or_else(|| format!("no document registered under `{doc_name}`"))?;
        let doc = &self.docs[doc_id];
        let mut index: HashMap<String, Vec<NodeId>> = HashMap::new();
        for node in doc.all_nodes() {
            if doc.tag(node) == Some(element) {
                if let Some(value) = doc.attribute(node, attribute) {
                    index.entry(value.to_string()).or_default().push(node);
                }
            }
        }
        self.attr_indices
            .insert((doc_id, element.to_string(), attribute.to_string()), index);
        Ok(())
    }

    /// Number of value indices created.
    pub fn index_count(&self) -> usize {
        self.attr_indices.len()
    }

    /// Look up the elements of `element/@attribute = value` via an index,
    /// if one exists.
    pub fn indexed_lookup(
        &self,
        doc_name: &str,
        element: &str,
        attribute: &str,
        value: &str,
    ) -> Option<&[NodeId]> {
        let doc_id = *self.by_name.get(doc_name)?;
        self.attr_indices
            .get(&(doc_id, element.to_string(), attribute.to_string()))
            .and_then(|m| m.get(value))
            .map(|v| v.as_slice())
    }

    /// Parse, normalize and evaluate `query` by direct interpretation.
    pub fn query(&mut self, query: &str) -> Result<BaselineResult, BaselineError> {
        let ast = parse_query(query).map_err(|e| e.to_string())?;
        let core = normalize(&ast).map_err(|e| e.to_string())?;
        let items = self.eval(&core, &Env::default())?;
        let xml = self.serialize(&items)?;
        Ok(BaselineResult { items, xml })
    }

    // ----- serialization ---------------------------------------------------

    fn serialize(&self, items: &[BValue]) -> Result<String, BaselineError> {
        let mut out = String::new();
        let mut previous_atomic = false;
        for item in items {
            match item {
                BValue::Node { doc, node } => {
                    out.push_str(&self.docs[*doc].node_to_xml(*node));
                    previous_atomic = false;
                }
                BValue::Attr { name, value } => {
                    out.push_str(&format!("{name}=\"{value}\""));
                    previous_atomic = false;
                }
                atomic => {
                    if previous_atomic {
                        out.push(' ');
                    }
                    out.push_str(&atomic.lexical());
                    previous_atomic = true;
                }
            }
        }
        Ok(out)
    }

    // ----- atomization and EBV ---------------------------------------------

    fn atomize(&self, value: &BValue) -> BValue {
        match value {
            BValue::Node { doc, node } => BValue::Str(self.docs[*doc].string_value(*node)),
            other => other.clone(),
        }
    }

    fn ebv(&self, items: &[BValue]) -> bool {
        if items.is_empty() {
            return false;
        }
        if items.iter().any(BValue::is_node) || items.len() > 1 {
            return true;
        }
        match &items[0] {
            BValue::Bool(b) => *b,
            BValue::Int(i) => *i != 0,
            BValue::Dbl(d) => *d != 0.0,
            BValue::Str(s) => !s.is_empty(),
            _ => true,
        }
    }

    // ----- axis navigation --------------------------------------------------

    fn node_test_matches(&self, doc: usize, node: NodeId, test: &NodeTest) -> bool {
        let d = &self.docs[doc];
        match test {
            NodeTest::AnyElement => d.kind(node).is_element(),
            NodeTest::Element(name) => d.tag(node) == Some(name.as_str()),
            NodeTest::Text => d.kind(node).is_text(),
            NodeTest::Comment => matches!(d.kind(node), NodeKind::Comment(_)),
            NodeTest::Pi => matches!(d.kind(node), NodeKind::ProcessingInstruction { .. }),
            NodeTest::AnyNode => true,
            NodeTest::Attribute(_) | NodeTest::AnyAttribute => false,
        }
    }

    fn axis_step(
        &self,
        context: &[BValue],
        axis: Axis,
        test: &NodeTest,
    ) -> Result<Vec<BValue>, BaselineError> {
        let mut out: Vec<BValue> = Vec::new();
        let mut seen: HashSet<(usize, u32)> = HashSet::new();
        for item in context {
            let BValue::Node { doc, node } = item else {
                return Err("a path step was applied to an atomic value".to_string());
            };
            let d = &self.docs[*doc];
            if axis == Axis::Attribute {
                for attr in d.attributes(*node) {
                    let matches = match test {
                        NodeTest::Attribute(name) => &attr.name == name,
                        NodeTest::AnyAttribute | NodeTest::AnyNode => true,
                        _ => false,
                    };
                    if matches {
                        out.push(BValue::Str(attr.value.clone()));
                    }
                }
                continue;
            }
            let candidates: Vec<NodeId> = match axis {
                Axis::Child => d.children(*node).collect(),
                Axis::Descendant => d.descendants(*node).collect(),
                Axis::DescendantOrSelf => {
                    std::iter::once(*node).chain(d.descendants(*node)).collect()
                }
                Axis::SelfAxis => vec![*node],
                Axis::Parent => d.parent(*node).into_iter().collect(),
                Axis::Ancestor => d.ancestors(*node).collect(),
                Axis::AncestorOrSelf => std::iter::once(*node).chain(d.ancestors(*node)).collect(),
                Axis::FollowingSibling => d.following_siblings(*node).collect(),
                Axis::PrecedingSibling => d.preceding_siblings(*node).collect(),
                Axis::Following => {
                    let end = node.index() + 1 + d.subtree_size(*node) as usize;
                    (end..d.len()).map(|i| NodeId(i as u32)).collect()
                }
                Axis::Preceding => (1..node.index())
                    .map(|i| NodeId(i as u32))
                    .filter(|c| c.index() + (d.subtree_size(*c) as usize) < node.index())
                    .collect(),
                Axis::Attribute => unreachable!(),
            };
            for candidate in candidates {
                if self.node_test_matches(*doc, candidate, test) && seen.insert((*doc, candidate.0))
                {
                    out.push(BValue::Node {
                        doc: *doc,
                        node: candidate,
                    });
                }
            }
        }
        // Document order.
        out.sort_by_key(|v| v.doc_order_key().unwrap_or((usize::MAX, u32::MAX)));
        Ok(out)
    }

    // ----- the evaluator ----------------------------------------------------

    fn eval(&mut self, expr: &Expr, env: &Env) -> Result<Vec<BValue>, BaselineError> {
        match expr {
            Expr::IntLit(i) => Ok(vec![BValue::Int(*i)]),
            Expr::DecLit(d) => Ok(vec![BValue::Dbl(*d)]),
            Expr::StrLit(s) => Ok(vec![BValue::Str(s.clone())]),
            Expr::EmptySeq => Ok(vec![]),
            Expr::Sequence(items) => {
                let mut out = Vec::new();
                for item in items {
                    out.extend(self.eval(item, env)?);
                }
                Ok(out)
            }
            Expr::Var(name) => env
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unbound variable `${name}`")),
            Expr::ContextItem => env
                .context
                .clone()
                .map(|v| vec![v])
                .ok_or_else(|| "the context item is undefined here".to_string()),
            Expr::Let { var, value, body } => {
                let bound = self.eval(value, env)?;
                let mut inner = env.clone();
                inner.vars.insert(var.clone(), bound);
                self.eval(body, &inner)
            }
            Expr::For {
                var,
                pos_var,
                seq,
                where_clause,
                order_by,
                body,
            } => {
                let bindings = self.eval(seq, env)?;
                let mut keyed: Vec<(Vec<BValue>, Vec<BValue>)> = Vec::new();
                for (index, binding) in bindings.iter().enumerate() {
                    let mut inner = env.clone();
                    inner.vars.insert(var.clone(), vec![binding.clone()]);
                    if let Some(p) = pos_var {
                        inner
                            .vars
                            .insert(p.clone(), vec![BValue::Int(index as i64 + 1)]);
                    }
                    if let Some(w) = where_clause {
                        let cond = self.eval(w, &inner)?;
                        if !self.ebv(&cond) {
                            continue;
                        }
                    }
                    let keys = order_by
                        .iter()
                        .map(|k| {
                            let values = self.eval(&k.expr, &inner)?;
                            Ok(values
                                .first()
                                .map(|v| self.atomize(v))
                                .unwrap_or(BValue::Str(String::new())))
                        })
                        .collect::<Result<Vec<_>, BaselineError>>()?;
                    let result = self.eval(body, &inner)?;
                    keyed.push((keys, result));
                }
                if !order_by.is_empty() {
                    keyed.sort_by(|(ka, _), (kb, _)| {
                        for ((a, b), spec) in ka.iter().zip(kb).zip(order_by) {
                            let mut ord = a.compare_atomic(b);
                            if spec.descending {
                                ord = ord.reverse();
                            }
                            if ord != std::cmp::Ordering::Equal {
                                return ord;
                            }
                        }
                        std::cmp::Ordering::Equal
                    });
                }
                Ok(keyed.into_iter().flat_map(|(_, r)| r).collect())
            }
            Expr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond, env)?;
                if self.ebv(&c) {
                    self.eval(then_branch, env)
                } else {
                    self.eval(else_branch, env)
                }
            }
            Expr::BinOp { op, left, right } => self.eval_binop(*op, left, right, env),
            Expr::Neg(inner) => {
                let v = self.eval(inner, env)?;
                match v
                    .first()
                    .map(|v| self.atomize(v))
                    .and_then(|v| v.as_number())
                {
                    Some(n) => Ok(vec![BValue::Dbl(-n)]),
                    None => Ok(vec![]),
                }
            }
            Expr::PathStep { input, axis, test } => {
                let context = self.eval(input, env)?;
                self.axis_step(&context, *axis, test)
            }
            Expr::Filter { input, pred } => {
                let items = self.eval(input, env)?;
                // Positional predicate with a literal index.
                if let Expr::IntLit(n) = pred.as_ref() {
                    let idx = *n as usize;
                    return Ok(items
                        .get(idx.wrapping_sub(1))
                        .cloned()
                        .into_iter()
                        .collect());
                }
                let total = items.len();
                let mut out = Vec::new();
                for (index, item) in items.into_iter().enumerate() {
                    let mut inner = env.clone();
                    inner.context = Some(item.clone());
                    inner.position = Some(index + 1);
                    inner.last = Some(total);
                    let result = self.eval(pred, &inner)?;
                    // A single numeric predicate value is positional.
                    let keep = match result.as_slice() {
                        [single]
                            if !single.is_node()
                                && single.as_number().is_some()
                                && !matches!(single, BValue::Bool(_)) =>
                        {
                            single.as_number() == Some(index as f64 + 1.0)
                        }
                        other => self.ebv(other),
                    };
                    if keep {
                        out.push(item);
                    }
                }
                Ok(out)
            }
            Expr::FunCall { name, args } => self.eval_funcall(name, args, env),
            Expr::ElemConstr { tag, content } => {
                let mut values = Vec::new();
                for c in content {
                    values.extend(self.eval(c, env)?);
                }
                self.construct_element(tag, &values)
            }
            Expr::AttrConstr { name, value } => {
                let mut values = Vec::new();
                for v in value {
                    values.extend(self.eval(v, env)?);
                }
                let text = values
                    .iter()
                    .map(|v| self.atomize(v).lexical())
                    .collect::<Vec<_>>()
                    .join(" ");
                Ok(vec![BValue::Attr {
                    name: name.clone(),
                    value: text,
                }])
            }
            Expr::TextConstr(content) => {
                let mut values = Vec::new();
                for c in content {
                    values.extend(self.eval(c, env)?);
                }
                // Empty content constructs no node at all.
                if values.is_empty() {
                    return Ok(vec![]);
                }
                let text = values
                    .iter()
                    .map(|v| self.atomize(v).lexical())
                    .collect::<Vec<_>>()
                    .join(" ");
                // A text node of its own (as the relational engine builds
                // it, also for content that atomizes to ""): it merges with
                // neighbouring text in element content and serializes
                // escaped.
                let mut builder = DocumentBuilder::new();
                let node = builder.text(text);
                self.docs.push(Arc::new(builder.finish()));
                Ok(vec![BValue::Node {
                    doc: self.docs.len() - 1,
                    node,
                }])
            }
            Expr::Some { .. } => {
                Err("quantified expressions must be normalized before evaluation".into())
            }
        }
    }

    fn eval_binop(
        &mut self,
        op: BinOpKind,
        left: &Expr,
        right: &Expr,
        env: &Env,
    ) -> Result<Vec<BValue>, BaselineError> {
        match op {
            BinOpKind::And => {
                let l = self.eval(left, env)?;
                if !self.ebv(&l) {
                    return Ok(vec![BValue::Bool(false)]);
                }
                let r = self.eval(right, env)?;
                Ok(vec![BValue::Bool(self.ebv(&r))])
            }
            BinOpKind::Or => {
                let l = self.eval(left, env)?;
                if self.ebv(&l) {
                    return Ok(vec![BValue::Bool(true)]);
                }
                let r = self.eval(right, env)?;
                Ok(vec![BValue::Bool(self.ebv(&r))])
            }
            op if op.is_arithmetic() => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                let (Some(a), Some(b)) = (
                    l.first()
                        .map(|v| self.atomize(v))
                        .and_then(|v| v.as_number()),
                    r.first()
                        .map(|v| self.atomize(v))
                        .and_then(|v| v.as_number()),
                ) else {
                    return Ok(vec![]);
                };
                let result = match op {
                    BinOpKind::Add => a + b,
                    BinOpKind::Sub => a - b,
                    BinOpKind::Mul => a * b,
                    BinOpKind::Div => {
                        if b == 0.0 {
                            return Err("division by zero".into());
                        }
                        a / b
                    }
                    BinOpKind::IDiv => {
                        if b == 0.0 {
                            return Err("integer division by zero".into());
                        }
                        return Ok(vec![BValue::Int((a / b).trunc() as i64)]);
                    }
                    BinOpKind::Mod => {
                        if b == 0.0 {
                            return Err("modulo by zero".into());
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                if result.fract() == 0.0
                    && matches!(op, BinOpKind::Add | BinOpKind::Sub | BinOpKind::Mul)
                {
                    Ok(vec![BValue::Int(result as i64)])
                } else {
                    Ok(vec![BValue::Dbl(result)])
                }
            }
            BinOpKind::Is | BinOpKind::Before | BinOpKind::After => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                let (Some(a), Some(b)) = (
                    l.first().and_then(BValue::doc_order_key),
                    r.first().and_then(BValue::doc_order_key),
                ) else {
                    return Ok(vec![]);
                };
                let result = match op {
                    BinOpKind::Is => a == b,
                    BinOpKind::Before => a < b,
                    BinOpKind::After => a > b,
                    _ => unreachable!(),
                };
                Ok(vec![BValue::Bool(result)])
            }
            op => {
                // General comparison: existential over both sequences.
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                let mut result = false;
                'outer: for a in &l {
                    let a = self.atomize(a);
                    for b in &r {
                        let b = self.atomize(b);
                        let ord = a.compare_atomic(&b);
                        let matches = match op {
                            BinOpKind::Eq => ord == std::cmp::Ordering::Equal,
                            BinOpKind::Ne => ord != std::cmp::Ordering::Equal,
                            BinOpKind::Lt => ord == std::cmp::Ordering::Less,
                            BinOpKind::Le => ord != std::cmp::Ordering::Greater,
                            BinOpKind::Gt => ord == std::cmp::Ordering::Greater,
                            BinOpKind::Ge => ord != std::cmp::Ordering::Less,
                            _ => return Err(format!("unsupported operator {op:?}")),
                        };
                        if matches {
                            result = true;
                            break 'outer;
                        }
                    }
                }
                Ok(vec![BValue::Bool(result)])
            }
        }
    }

    fn eval_funcall(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &Env,
    ) -> Result<Vec<BValue>, BaselineError> {
        match name {
            "doc" => {
                let Some(Expr::StrLit(uri)) = args.first() else {
                    return Err("fn:doc expects a string literal".into());
                };
                let doc = *self
                    .by_name
                    .get(uri)
                    .ok_or_else(|| format!("no document registered under `{uri}`"))?;
                Ok(vec![BValue::Node {
                    doc,
                    node: NodeId(0),
                }])
            }
            "root" => {
                let items = if args.is_empty() {
                    self.eval(&Expr::ContextItem, env)?
                } else {
                    self.eval(&args[0], env)?
                };
                Ok(items
                    .into_iter()
                    .filter_map(|v| match v {
                        BValue::Node { doc, .. } => Some(BValue::Node {
                            doc,
                            node: NodeId(0),
                        }),
                        _ => None,
                    })
                    .collect())
            }
            "data" | "string" => {
                let items = self.eval(&args[0], env)?;
                Ok(items.iter().map(|v| self.atomize(v)).collect())
            }
            "number" => {
                let items = self.eval(&args[0], env)?;
                Ok(items
                    .iter()
                    .filter_map(|v| self.atomize(v).as_number().map(BValue::Dbl))
                    .collect())
            }
            "count" => {
                let items = self.eval(&args[0], env)?;
                Ok(vec![BValue::Int(items.len() as i64)])
            }
            "sum" => {
                let items = self.eval(&args[0], env)?;
                let total: f64 = items
                    .iter()
                    .filter_map(|v| self.atomize(v).as_number())
                    .sum();
                if total.fract() == 0.0 {
                    Ok(vec![BValue::Int(total as i64)])
                } else {
                    Ok(vec![BValue::Dbl(total)])
                }
            }
            "avg" | "min" | "max" => {
                let items = self.eval(&args[0], env)?;
                let numbers: Vec<f64> = items
                    .iter()
                    .filter_map(|v| self.atomize(v).as_number())
                    .collect();
                if numbers.is_empty() {
                    return Ok(vec![]);
                }
                let value = match name {
                    "avg" => numbers.iter().sum::<f64>() / numbers.len() as f64,
                    "min" => numbers.iter().cloned().fold(f64::INFINITY, f64::min),
                    _ => numbers.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                };
                Ok(vec![BValue::Dbl(value)])
            }
            "empty" => {
                let items = self.eval(&args[0], env)?;
                Ok(vec![BValue::Bool(items.is_empty())])
            }
            "exists" => {
                let items = self.eval(&args[0], env)?;
                Ok(vec![BValue::Bool(!items.is_empty())])
            }
            "not" => {
                let items = self.eval(&args[0], env)?;
                Ok(vec![BValue::Bool(!self.ebv(&items))])
            }
            "boolean" => {
                let items = self.eval(&args[0], env)?;
                Ok(vec![BValue::Bool(self.ebv(&items))])
            }
            "position" => env
                .position
                .map(|p| vec![BValue::Int(p as i64)])
                .ok_or_else(|| "fn:position() outside a predicate".to_string()),
            "last" => env
                .last
                .map(|p| vec![BValue::Int(p as i64)])
                .ok_or_else(|| "fn:last() outside a predicate".to_string()),
            "distinct-values" => {
                let items = self.eval(&args[0], env)?;
                let mut seen = Vec::new();
                for item in items {
                    let atom = self.atomize(&item);
                    if !seen.contains(&atom) {
                        seen.push(atom);
                    }
                }
                seen.sort_by(|a, b| a.compare_atomic(b));
                Ok(seen)
            }
            "distinct-doc-order" => {
                let mut items = self.eval(&args[0], env)?;
                items.sort_by_key(|v| v.doc_order_key().unwrap_or((usize::MAX, u32::MAX)));
                items.dedup_by_key(|v| v.doc_order_key());
                Ok(items)
            }
            "contains" | "starts-with" => {
                let l = self.eval(&args[0], env)?;
                let r = self.eval(&args[1], env)?;
                let a = l
                    .first()
                    .map(|v| self.atomize(v).lexical())
                    .unwrap_or_default();
                let b = r
                    .first()
                    .map(|v| self.atomize(v).lexical())
                    .unwrap_or_default();
                let result = if name == "contains" {
                    a.contains(&b)
                } else {
                    a.starts_with(&b)
                };
                Ok(vec![BValue::Bool(result)])
            }
            "concat" => {
                let mut out = String::new();
                for arg in args {
                    let items = self.eval(arg, env)?;
                    out.push_str(
                        &items
                            .first()
                            .map(|v| self.atomize(v).lexical())
                            .unwrap_or_default(),
                    );
                }
                Ok(vec![BValue::Str(out)])
            }
            "string-length" => {
                let items = self.eval(&args[0], env)?;
                let s = items
                    .first()
                    .map(|v| self.atomize(v).lexical())
                    .unwrap_or_default();
                Ok(vec![BValue::Int(s.chars().count() as i64)])
            }
            other => Err(format!(
                "function `fn:{other}` is not supported by the baseline engine"
            )),
        }
    }

    fn copy_into(&self, builder: &mut DocumentBuilder, doc: usize, node: NodeId) {
        let d = &self.docs[doc];
        match d.kind(node) {
            NodeKind::Document => {
                for child in d.children(node) {
                    self.copy_into(builder, doc, child);
                }
            }
            NodeKind::Element { tag, attributes } => {
                builder.start_element(tag.clone(), attributes.clone());
                for child in d.children(node) {
                    self.copy_into(builder, doc, child);
                }
                builder.end_element();
            }
            NodeKind::Text(t) => {
                builder.text(t.clone());
            }
            NodeKind::Comment(c) => {
                builder.comment(c.clone());
            }
            NodeKind::ProcessingInstruction { target, data } => {
                builder.processing_instruction(target.clone(), data.clone());
            }
        }
    }

    fn construct_element(
        &mut self,
        tag: &str,
        content: &[BValue],
    ) -> Result<Vec<BValue>, BaselineError> {
        let mut attributes = Vec::new();
        let mut children = Vec::new();
        for value in content {
            match value {
                BValue::Attr { name, value } => attributes.push(Attribute {
                    name: name.clone(),
                    value: value.clone(),
                }),
                other => children.push(other.clone()),
            }
        }
        let mut builder = DocumentBuilder::new();
        builder.start_element(tag, attributes);
        let mut previous_atomic = false;
        for value in children {
            match value {
                BValue::Node { doc, node } => {
                    self.copy_into(&mut builder, doc, node);
                    previous_atomic = false;
                }
                atomic => {
                    if previous_atomic {
                        builder.text(" ");
                    }
                    builder.text(atomic.lexical());
                    previous_atomic = true;
                }
            }
        }
        builder.end_element();
        let doc = builder.finish();
        let doc_id = self.docs.len();
        self.docs.push(Arc::new(doc));
        Ok(vec![BValue::Node {
            doc: doc_id,
            node: NodeId(1),
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> BaselineEngine {
        let mut e = BaselineEngine::new();
        e.load_document(
            "doc.xml",
            "<site><person id=\"p0\"><name>Ann</name><age>30</age></person><person id=\"p1\"><name>Bo</name><age>40</age></person></site>",
        )
        .unwrap();
        e
    }

    #[test]
    fn arithmetic_and_sequences() {
        let mut e = BaselineEngine::new();
        assert_eq!(e.query("1 + 2 * 3").unwrap().to_xml(), "7");
        assert_eq!(e.query("(1, 2, 3)").unwrap().to_xml(), "1 2 3");
        assert_eq!(
            e.query("for $v in (10,20) return $v + 100")
                .unwrap()
                .to_xml(),
            "110 120"
        );
    }

    #[test]
    fn path_navigation_and_predicates() {
        let mut e = engine();
        assert_eq!(
            e.query("fn:count(fn:doc(\"doc.xml\")//person)")
                .unwrap()
                .to_xml(),
            "2"
        );
        assert_eq!(
            e.query("fn:doc(\"doc.xml\")//person[@id = \"p1\"]/name/text()")
                .unwrap()
                .to_xml(),
            "Bo"
        );
        assert_eq!(
            e.query("fn:doc(\"doc.xml\")//person[2]/name/text()")
                .unwrap()
                .to_xml(),
            "Bo"
        );
        assert_eq!(
            e.query("fn:sum(fn:doc(\"doc.xml\")//age)")
                .unwrap()
                .to_xml(),
            "70"
        );
    }

    #[test]
    fn flwor_where_and_order_by() {
        let mut e = engine();
        assert_eq!(
            e.query("for $p in fn:doc(\"doc.xml\")//person where number($p/age) > 35 return $p/name/text()")
                .unwrap()
                .to_xml(),
            "Bo"
        );
        assert_eq!(
            e.query("for $p in fn:doc(\"doc.xml\")//person order by $p/name descending return string($p/name)")
                .unwrap()
                .to_xml(),
            "Bo Ann"
        );
    }

    #[test]
    fn element_construction() {
        let mut e = engine();
        let r = e
            .query("element out { attribute n { fn:count(fn:doc(\"doc.xml\")//person) }, text { \"people\" } }")
            .unwrap();
        assert_eq!(r.to_xml(), "<out n=\"2\">people</out>");
    }

    #[test]
    fn attribute_value_index() {
        let mut e = engine();
        e.create_attribute_index("doc.xml", "person", "id").unwrap();
        assert_eq!(e.index_count(), 1);
        let hits = e.indexed_lookup("doc.xml", "person", "id", "p1").unwrap();
        assert_eq!(hits.len(), 1);
        assert!(e.indexed_lookup("doc.xml", "person", "id", "p9").is_none());
    }

    #[test]
    fn reloading_a_document_drops_its_stale_indices() {
        let mut e = engine();
        e.create_attribute_index("doc.xml", "person", "id").unwrap();
        assert_eq!(e.index_count(), 1);
        // Replacing the document invalidates the NodeIds the index holds.
        e.load_document("doc.xml", "<site><person id=\"p7\"/></site>")
            .unwrap();
        assert_eq!(e.index_count(), 0);
        assert!(e.indexed_lookup("doc.xml", "person", "id", "p1").is_none());
        // A fresh index over the new parse works.
        e.create_attribute_index("doc.xml", "person", "id").unwrap();
        assert_eq!(
            e.indexed_lookup("doc.xml", "person", "id", "p7")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn agrees_with_general_comparison_semantics() {
        let mut e = engine();
        assert_eq!(
            e.query("fn:doc(\"doc.xml\")//person/age = 40")
                .unwrap()
                .to_xml(),
            "true"
        );
        assert_eq!(
            e.query("fn:doc(\"doc.xml\")//person/age = 99")
                .unwrap()
                .to_xml(),
            "false"
        );
    }
}
