//! Unified static plan-property inference.
//!
//! [`PlanProperties`] computes, in **one bottom-up pass** per plan, every
//! static property the optimizer and the verifier consume:
//!
//! * **schema** — output columns plus the `distinct` / `doc_ordered`
//!   flags of [`crate::schema`];
//! * **keys** — column sets on which the operator's output rows are
//!   provably distinct;
//! * **constants** — columns provably equal in every output row, with
//!   the value itself when it is statically known (the top-level
//!   `iter ≡ 1` is the important case: it shrinks the `{iter, pos}` key
//!   of a step to `{pos}`, exactly what the serializer sorts by);
//! * **value provenance** — per column, which upstream (operator,
//!   column) pairs are provable value supersets (and which are provably
//!   *disjoint*, via single-column `Difference`).  This is what lets a
//!   compiler-generated `A ∪ (B ∖ A)` union — the default-branch
//!   plumbing around every aggregate — keep a key: the two sides can
//!   never collide on the discriminating column;
//! * **cardinality** — estimated output rows, seeded from
//!   [`pf_store::DocStatistics`] through a [`StatsSource`];
//! * **document provenance** — the URI of the single `doc()` source
//!   feeding the operator's items, if unambiguous (what lets an axis
//!   step find its tag histogram and an `IndexScan` its sidecar);
//! * **types** — per column, the set of value types it can hold (Boolean
//!   at comparisons, `ebv` and Boolean constants, a union at `∪`);
//! * **sequence** — rows sorted by `(iter, c)` and, when *dense*, `c`
//!   numbering the rows of each `iter` 1, 2, … (what a step's `pos` and a
//!   `%·/iter` target are); σ keeps the order but loses the density;
//! * **raisers** — the operators below (and including) this one that can
//!   raise a dynamic error, so a rule deletes a subplan only when what it
//!   keeps still evaluates every one of them;
//! * **order_free** — whether permuting the operator's output rows can
//!   change the serialized query result (the only top-down part,
//!   resolved over consumer edges after the bottom-up pass).
//!
//! Every bottom-up fact is a function of the operator's output relation
//! alone, so a rewrite that replaces a subplan by one with the same rows,
//! row order and columns leaves the facts of every other operator true.
//! `PlanProperties::extend` therefore keeps one analysis alive across
//! such rewrites by inferring facts for the new operators only;
//! `order_free`, being top-down, is recomputed instead.
//!
//! The legacy entry points — [`crate::optimize::isolation::Isolation`]
//! and [`crate::optimize::cardinality::CardEstimate`] — are thin
//! wrappers over this pass.  The optimizer driver owns one analysis per
//! plan version and hands it to every rule that reads properties
//! ([`crate::optimize::reorder`], [`crate::optimize::indexscan`],
//! [`crate::optimize::thetacount`]); only a rule that changed the plan
//! costs a new pass.  [`crate::verify`] checks rewrites against the same
//! inference, so the optimizer is validated by the very properties it
//! plans with.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use pf_relational::ops::{AggFunc, BinaryOp, UnaryOp};
use pf_relational::{Value, ValueType};
use pf_store::{Axis, DocStatistics, NodeTest};

use crate::ops::AlgOp;
use crate::plan::{OpId, Plan};
use crate::schema::{infer_one, Properties};

/// Resolves a document URI to its measured statistics.  The engine
/// implements this over its registry snapshot; [`NoStats`] is the
/// statistics-free fallback (pure heuristics).
pub trait StatsSource {
    /// Statistics for the document registered under `uri`, if known.
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>>;
}

/// A [`StatsSource`] that knows nothing; every step falls back to
/// fan-out heuristics.
pub struct NoStats;

impl StatsSource for NoStats {
    fn doc_statistics(&self, _uri: &str) -> Option<Arc<DocStatistics>> {
        None
    }
}

/// A column name, interned once per analysis.
type Col = u32;

/// A set of interned columns, sorted and duplicate-free.
type ColSet = Vec<Col>;

/// The column names one analysis has seen.  Keys and provenance tags
/// hold [`Col`] ids, so comparing and copying them never touches a
/// string.
#[derive(Debug, Clone, Default, PartialEq)]
struct Names {
    ids: HashMap<String, Col>,
    names: Vec<String>,
}

impl Names {
    fn intern(&mut self, name: &str) -> Col {
        if let Some(&col) = self.ids.get(name) {
            return col;
        }
        let col = self.names.len() as Col;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), col);
        col
    }

    fn get(&self, name: &str) -> Option<Col> {
        self.ids.get(name).copied()
    }

    fn name(&self, col: Col) -> &str {
        &self.names[col as usize]
    }
}

/// Operators of one kind over the same canonical inputs, each with its
/// rendering once one was needed to tell two apart.
type OpClass = Vec<(OpId, Option<String>)>;

/// A value-provenance tag: “the tracked column's values are related to
/// column `.1` of operator `.0`”.
pub(crate) type Tag = (OpId, Col);
/// Per-column tag sets for one operator.
pub(crate) type TagMap = BTreeMap<Col, BTreeSet<Tag>>;

/// Rows of a literal are scanned for distinctness/constancy only up to
/// this many rows — larger literals simply get no column keys.
const LIT_SCAN_CAP: usize = 64;

/// Provenance tag sets are truncated to this many entries (keeping the
/// smallest, deterministically) so deep plans stay linear to analyze.
const TAG_CAP: usize = 24;

/// The set of value types a column can hold: one bit per [`ValueType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeSet(u8);

impl TypeSet {
    /// No type: the column of a provably empty relation.
    pub const NONE: TypeSet = TypeSet(0);

    /// Exactly `t`.
    pub fn of(t: ValueType) -> TypeSet {
        TypeSet(1 << TypeSet::bit(t))
    }

    fn bit(t: ValueType) -> u8 {
        match t {
            ValueType::Nat => 0,
            ValueType::Int => 1,
            ValueType::Dbl => 2,
            ValueType::Str => 3,
            ValueType::Bool => 4,
            ValueType::Node => 5,
        }
    }

    /// Either set's types.
    pub fn union(self, other: TypeSet) -> TypeSet {
        TypeSet(self.0 | other.0)
    }

    /// Whether a value of type `t` is in the set.
    pub fn contains(self, t: ValueType) -> bool {
        self.0 & (1 << TypeSet::bit(t)) != 0
    }

    /// Every value is a Boolean (vacuously so for [`TypeSet::NONE`]).
    pub fn is_boolean(self) -> bool {
        self.0 & !TypeSet::of(ValueType::Bool).0 == 0
    }
}

/// Row order within `iter`: the rows are sorted ascending by
/// `(iter, column)`, and when `dense` is set, `column` numbers the rows of
/// every `iter` 1, 2, …, k in row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    /// The column that orders the rows of one `iter`.
    pub column: String,
    /// The column is 1..k within every `iter`, without gaps or ties.
    pub dense: bool,
}

/// A set of operator ids, one bit each.
pub(crate) type OpSet = Vec<u64>;

fn opset_insert(set: &mut OpSet, id: OpId) {
    let word = id / 64;
    if set.len() <= word {
        set.resize(word + 1, 0);
    }
    set[word] |= 1 << (id % 64);
}

fn opset_union(set: &mut OpSet, other: &OpSet) {
    if set.len() < other.len() {
        set.resize(other.len(), 0);
    }
    for (w, o) in set.iter_mut().zip(other) {
        *w |= o;
    }
}

/// `a ⊆ b`.
pub(crate) fn opset_subset(a: &OpSet, b: &OpSet) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, w)| w & !b.get(i).copied().unwrap_or(0) == 0)
}

/// Every statically inferred property of one plan, per operator.
/// Indexed by [`OpId`]; entries for unreachable operators are
/// empty/false/zero.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProperties {
    /// Schema properties ([`crate::schema::infer_schema`]-equivalent).
    schema: HashMap<OpId, Properties>,
    /// Every column name of the analyzed operators.
    names: Names,
    /// Per operator, the first analyzed operator computing the same
    /// relation (same kind, same parameters, canonical inputs): the id
    /// provenance tags name, so a cloned subplan relates to what its
    /// original relates to.
    canon: Vec<OpId>,
    /// The canonical operators by kind and canonical inputs, with their
    /// rendering once one was needed to tell two apart.
    classes: HashMap<(std::mem::Discriminant<AlgOp>, Vec<OpId>), OpClass>,
    /// Column sets on which each operator's rows are provably distinct.
    keys: Vec<Vec<ColSet>>,
    /// Columns provably constant across each operator's rows, with the
    /// constant's value when statically known.
    constants: Vec<BTreeMap<String, Option<Value>>>,
    /// `supersets[id][c]` ∋ `t` ⇒ values of `c` at `id` ⊆ values of `t`.
    supersets: Vec<TagMap>,
    /// `equalsets[id][c]` ∋ `t` ⇒ values of `c` at `id` = values of `t`
    /// (as sets).  Always a subset of `supersets[id][c]`.
    equalsets: Vec<TagMap>,
    /// `exclusions[id][c]` ∋ `t` ⇒ values of `c` at `id` are disjoint
    /// from the values of `t`.
    exclusions: Vec<TagMap>,
    /// Provably-empty operators (an empty literal, and everything whose
    /// output cannot have rows when an input has none).  Structural, not
    /// estimated: `true` is a guarantee, unlike [`PlanProperties::rows`].
    empty: Vec<bool>,
    /// Estimated output rows.
    rows: Vec<f64>,
    /// Document provenance: the URI of the single `doc()` source feeding
    /// the operator's items, if unambiguous.
    doc: Vec<Option<String>>,
    /// Per column, the value types it can hold; a column without an
    /// entry can hold any type.
    types: Vec<BTreeMap<String, TypeSet>>,
    /// Row order within `iter`, where known.
    sequence: Vec<Option<Sequence>>,
    /// The operators of the subplan rooted here that can raise a dynamic
    /// error (this one included).
    raisers: Vec<OpSet>,
    /// Whether the bottom-up facts of the operator have been inferred.
    analyzed: Vec<bool>,
    /// Whether permuting the operator's output rows is unobservable in
    /// the serialized result.
    order_free: Vec<bool>,
}

impl PlanProperties {
    /// Analyze `plan` without document statistics (cardinalities fall
    /// back to fan-out heuristics).
    pub fn analyze(plan: &Plan) -> PlanProperties {
        PlanProperties::analyze_with(plan, &NoStats)
    }

    /// Analyze `plan`, seeding step cardinalities from `stats`.
    pub fn analyze_with(plan: &Plan, stats: &dyn StatsSource) -> PlanProperties {
        let mut pp = PlanProperties {
            schema: HashMap::new(),
            names: Names::default(),
            canon: Vec::new(),
            classes: HashMap::new(),
            keys: Vec::new(),
            constants: Vec::new(),
            supersets: Vec::new(),
            equalsets: Vec::new(),
            exclusions: Vec::new(),
            empty: Vec::new(),
            rows: Vec::new(),
            doc: Vec::new(),
            types: Vec::new(),
            sequence: Vec::new(),
            raisers: Vec::new(),
            analyzed: Vec::new(),
            order_free: Vec::new(),
        };
        pp.extend(plan, stats);
        pp.resolve_order_free(plan);
        pp
    }

    /// Infer the bottom-up facts of every reachable operator that has none
    /// yet — the operators a rewrite created — from the facts of their
    /// inputs.  Facts already present stay: they describe an operator's
    /// output relation, which the equivalence-preserving rewrites of the
    /// optimizer never change.  Call [`PlanProperties::resolve_order_free`]
    /// afterwards before reading `order_free`.
    pub(crate) fn extend(&mut self, plan: &Plan, stats: &dyn StatsSource) {
        let n = plan.ops().len();
        if self.analyzed.len() < n {
            self.canon.resize(n, 0);
            self.keys.resize(n, Vec::new());
            self.constants.resize(n, BTreeMap::new());
            self.supersets.resize(n, TagMap::new());
            self.equalsets.resize(n, TagMap::new());
            self.exclusions.resize(n, TagMap::new());
            self.empty.resize(n, false);
            self.rows.resize(n, 0.0);
            self.doc.resize(n, None);
            self.types.resize(n, BTreeMap::new());
            self.sequence.resize(n, None);
            self.raisers.resize(n, OpSet::new());
            self.analyzed.resize(n, false);
            self.order_free.resize(n, false);
        }
        for id in plan.reachable() {
            if !self.analyzed[id] {
                self.infer(plan, id, stats);
            }
        }
    }

    /// Every bottom-up fact of `id`, from its inputs' facts.
    fn infer(&mut self, plan: &Plan, id: OpId, stats: &dyn StatsSource) {
        let schema = infer_one(plan, id, &self.schema);
        for column in schema
            .columns
            .iter()
            .map(String::as_str)
            .chain(mentioned(plan.op(id)))
        {
            self.names.intern(column);
        }
        self.schema.insert(id, schema);
        self.canon[id] = self.canonical(plan, id);
        self.empty[id] = infer_empty(plan, id, self);
        let (est, uri) = estimate_op(plan, id, &self.rows, &self.doc, stats);
        self.rows[id] = est;
        self.doc[id] = uri;
        self.constants[id] = infer_constants(plan, id, self);
        let (sup, eq, excl) = infer_provenance(plan, id, self);
        self.supersets[id] = sup;
        self.equalsets[id] = eq;
        self.exclusions[id] = excl;
        self.keys[id] = minimal_keys(infer_keys(plan, id, self));
        self.types[id] = infer_types(plan, id, self);
        self.sequence[id] = infer_sequence(plan, id, self);
        self.raisers[id] = infer_raisers(plan, id, self);
        self.analyzed[id] = true;
    }

    /// The canonical operator of `id` (see [`PlanProperties::canon`]).
    /// Constructors are never merged: each builds fresh nodes.
    fn canonical(&mut self, plan: &Plan, id: OpId) -> OpId {
        let op = plan.op(id);
        if matches!(
            op,
            AlgOp::ElemConstruct { .. } | AlgOp::AttrConstruct { .. } | AlgOp::TextConstruct { .. }
        ) {
            return id;
        }
        let inputs: Vec<OpId> = op.children().iter().map(|&c| self.canon[c]).collect();
        // Rendered with canonical inputs; `{:?}` (unlike `==`) tells
        // `0.0` from `-0.0`.
        let render = |of: OpId| {
            let mut op = plan.op(of).clone();
            for (slot, &input) in inputs.iter().enumerate() {
                op.replace_child(slot, input);
            }
            format!("{op:?}")
        };
        let class = self
            .classes
            .entry((std::mem::discriminant(op), inputs.clone()))
            .or_default();
        let mut mine = None;
        for (other, rendered) in class.iter_mut() {
            let rendered = rendered.get_or_insert_with(|| render(*other));
            if *mine.get_or_insert_with(|| render(id)) == *rendered {
                return *other;
            }
        }
        class.push((id, mine));
        id
    }

    /// Re-derive the row-order facts of every reachable operator from the
    /// current plan — after a rewrite that kept each relation's rows but
    /// not their order (join reordering, a rank count), which leaves every
    /// other fact true.
    pub(crate) fn refresh_sequences(&mut self, plan: &Plan) {
        for id in plan.reachable() {
            self.sequence[id] = infer_sequence(plan, id, self);
        }
    }

    /// Re-estimate the cardinality and document provenance of every
    /// reachable operator over the current plan (cheap: both only read
    /// the inputs' estimates), so estimates match a fresh analysis.
    pub(crate) fn refresh_estimates(&mut self, plan: &Plan, stats: &dyn StatsSource) {
        for id in plan.reachable() {
            let (est, uri) = estimate_op(plan, id, &self.rows, &self.doc, stats);
            self.rows[id] = est;
            self.doc[id] = uri;
        }
    }

    /// Resolve `order_free` top-down over the current plan.
    pub(crate) fn resolve_order_free(&mut self, plan: &Plan) {
        let topo = plan.reachable();
        self.order_free.iter_mut().for_each(|free| *free = false);
        for &id in &topo {
            self.order_free[id] = true;
        }
        // The root's order matters unless serialization's stable pos-sort
        // fully determines it; every other operator is constrained
        // through its consumer edges, parents first.
        let root = plan.root();
        let pos: BTreeSet<String> = std::iter::once("pos".to_string()).collect();
        self.order_free[root] =
            self.columns(root).iter().any(|c| c == "pos") && self.keyed_by(root, &pos);
        for &id in topo.iter().rev() {
            let parent_free = self.order_free[id];
            let children = plan.op(id).children();
            for (slot, &child) in children.iter().enumerate() {
                let edge = edge_order_free(plan.op(id), slot, parent_free, child, self);
                self.order_free[child] &= edge;
            }
        }
    }

    /// `true` if some key of `id`, after removing provably constant
    /// columns, is contained in `cols` — i.e. rows of `id` are distinct
    /// on `cols`.
    pub fn keyed_by(&self, id: OpId, cols: &BTreeSet<String>) -> bool {
        let constants = &self.constants[id];
        self.keys[id].iter().any(|key| {
            key.iter().all(|&c| {
                let name = self.names.name(c);
                constants.contains_key(name) || cols.contains(name)
            })
        })
    }

    /// [`PlanProperties::keyed_by`] over interned columns.
    fn keyed_by_cols(&self, id: OpId, cols: &[Col]) -> bool {
        let constants = &self.constants[id];
        self.keys[id].iter().any(|key| {
            key.iter()
                .all(|c| cols.contains(c) || constants.contains_key(self.names.name(*c)))
        })
    }

    /// The interned id of a column the analysis has seen.
    fn col(&self, name: &str) -> Col {
        self.names
            .get(name)
            .expect("an operator's columns are interned before its facts")
    }

    /// The interned set of `names`.
    fn cols(&self, names: &[&str]) -> ColSet {
        let mut set: ColSet = names.iter().map(|n| self.col(n)).collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Whether permuting the rows of `id` is unobservable in the
    /// serialized result.
    pub fn order_free(&self, id: OpId) -> bool {
        self.order_free[id]
    }

    /// The inferred key sets of `id`.
    pub fn keys(&self, id: OpId) -> Vec<BTreeSet<String>> {
        self.keys[id]
            .iter()
            .map(|key| {
                key.iter()
                    .map(|&c| self.names.name(c).to_string())
                    .collect()
            })
            .collect()
    }

    /// The provably constant columns of `id`, with statically known
    /// values where available.
    pub fn constants(&self, id: OpId) -> &BTreeMap<String, Option<Value>> {
        &self.constants[id]
    }

    /// The schema properties of `id` (`None` for unreachable operators).
    pub fn schema(&self, id: OpId) -> Option<&Properties> {
        self.schema.get(&id)
    }

    /// The output columns of `id` (empty for unreachable operators).
    pub fn columns(&self, id: OpId) -> &[String] {
        self.schema
            .get(&id)
            .map(|p| p.columns.as_slice())
            .unwrap_or(&[])
    }

    /// Estimated output rows of operator `id`.
    pub fn rows(&self, id: OpId) -> f64 {
        self.rows.get(id).copied().unwrap_or(0.0)
    }

    /// Whether operator `id` provably yields no rows (structural — a
    /// guarantee, not an estimate).
    pub fn provably_empty(&self, id: OpId) -> bool {
        self.empty.get(id).copied().unwrap_or(false)
    }

    /// The largest single-operator estimate of the plan, rounded up — a
    /// shape-derived stand-in for peak resident rows (admission control
    /// uses this for plans that have never run).
    pub fn peak_rows(&self, plan: &Plan) -> usize {
        plan.reachable()
            .into_iter()
            .map(|id| self.rows[id])
            .fold(0.0_f64, f64::max)
            .ceil() as usize
    }

    /// Document provenance of `id`: the URI of the single `doc()` source
    /// feeding its items, if unambiguous.
    pub fn doc(&self, id: OpId) -> Option<&str> {
        self.doc.get(id).and_then(|d| d.as_deref())
    }

    /// The value types column `col` of `id` can hold; `None` when any
    /// type is possible.
    pub fn types(&self, id: OpId, col: &str) -> Option<TypeSet> {
        self.types.get(id).and_then(|t| t.get(col)).copied()
    }

    /// Every column of `id` with a known type set.
    pub fn typed_columns(&self, id: OpId) -> &BTreeMap<String, TypeSet> {
        &self.types[id]
    }

    /// The row order of `id` within `iter`, if known.
    pub fn sequence(&self, id: OpId) -> Option<&Sequence> {
        self.sequence.get(id).and_then(Option::as_ref)
    }

    /// The operators of the subplan rooted at `id` that can raise a
    /// dynamic error.
    pub(crate) fn raisers(&self, id: OpId) -> &OpSet {
        &self.raisers[id]
    }

    /// The known value of a constant column `col` of `id`.
    pub fn constant_value(&self, id: OpId, col: &str) -> Option<&Value> {
        self.constants[id].get(col).and_then(Option::as_ref)
    }

    /// `true` when every value of column `ac` at `a` provably occurs in
    /// column `bc` at `b`: some tag is a superset of the former and
    /// set-equal to the latter.
    pub(crate) fn value_subset(&self, a: OpId, ac: &str, b: OpId, bc: &str) -> bool {
        let (Some(ac), Some(bc)) = (self.names.get(ac), self.names.get(bc)) else {
            return false;
        };
        let mut equal = self.equalsets[b].get(&bc).cloned().unwrap_or_default();
        equal.insert((self.canon[b], bc));
        !self.supersets_with_self(a, ac).is_disjoint(&equal)
    }

    /// Supersets of column `c` at `id`, including `(id, c)` itself.
    fn supersets_with_self(&self, id: OpId, c: Col) -> BTreeSet<Tag> {
        let mut tags = self.supersets[id].get(&c).cloned().unwrap_or_default();
        tags.insert((self.canon[id], c));
        tags
    }
}

/// `keys` without duplicates and without any key that contains another
/// (smallest first).  [`PlanProperties::keyed_by`] answers the same, and
/// every rule that derives keys from input keys is monotone, so nothing
/// downstream changes either — but key lists stay short: without this a
/// chain of joins multiplies its inputs' lists level by level.
fn minimal_keys(mut keys: Vec<ColSet>) -> Vec<ColSet> {
    keys.sort_by_key(Vec::len);
    let mut minimal: Vec<ColSet> = Vec::with_capacity(keys.len());
    for key in keys {
        if !minimal.iter().any(|kept| is_subset(kept, &key)) {
            minimal.push(key);
        }
    }
    minimal
}

/// The column names `op` reads or writes besides its output columns —
/// interned with them, so inference can name a column a malformed plan
/// lacks (the verifier analyzes plans before it rejects them).
fn mentioned(op: &AlgOp) -> Vec<&str> {
    let mut names = vec!["iter", "pos", "item"];
    match op {
        AlgOp::Project { columns, .. } => {
            names.extend(columns.iter().flat_map(|(s, t)| [s.as_str(), t.as_str()]));
        }
        AlgOp::Select { column, .. } | AlgOp::SelectEq { column, .. } => names.push(column),
        AlgOp::EquiJoin {
            left_col,
            right_col,
            ..
        }
        | AlgOp::ThetaJoin {
            left_col,
            right_col,
            ..
        } => names.extend([left_col.as_str(), right_col.as_str()]),
        AlgOp::ThetaCount { count, .. } => names.extend([
            count.group.as_str(),
            count.left_col.as_str(),
            count.right_id.as_str(),
            count.right_col.as_str(),
            count.result.as_str(),
        ]),
        AlgOp::RowNum {
            target,
            order_by,
            partition,
            ..
        } => {
            names.push(target);
            names.extend(order_by.iter().map(|s| s.column.as_str()));
            names.extend(partition.as_deref());
        }
        AlgOp::BinaryMap {
            target,
            left,
            right,
            ..
        } => names.extend([target.as_str(), left.as_str(), right.as_str()]),
        AlgOp::UnaryMap { target, source, .. } => names.extend([target.as_str(), source.as_str()]),
        AlgOp::Attach { target, .. } => names.push(target),
        AlgOp::Aggregate {
            group,
            target,
            value,
            ..
        } => names.extend([group.as_str(), target.as_str(), value.as_str()]),
        AlgOp::Sort { by, .. } => names.extend(by.iter().map(|s| s.column.as_str())),
        _ => {}
    }
    names
}

/// `a ⊆ b` for sorted column sets.
fn is_subset(a: &[Col], b: &[Col]) -> bool {
    a.iter().all(|c| b.binary_search(c).is_ok())
}

/// `a ∪ b` for sorted column sets.
fn union(a: &[Col], b: &[Col]) -> ColSet {
    let mut set: ColSet = a.iter().chain(b).copied().collect();
    set.sort_unstable();
    set.dedup();
    set
}

fn set(cols: &[&str]) -> BTreeSet<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

fn cap(tags: BTreeSet<Tag>) -> BTreeSet<Tag> {
    if tags.len() <= TAG_CAP {
        tags
    } else {
        tags.into_iter().take(TAG_CAP).collect()
    }
}

/// Tag set of `(input, src)` extended with the input's own tags from
/// `maps[input][src]`.
fn inherit(
    pp: &PlanProperties,
    maps: &[TagMap],
    input: OpId,
    src: Col,
    include_self: bool,
) -> BTreeSet<Tag> {
    let mut tags = maps[input].get(&src).cloned().unwrap_or_default();
    if include_self {
        tags.insert((pp.canon[input], src));
    }
    cap(tags)
}

/// Value-provenance inference for one operator: `(supersets, equalsets,
/// exclusions)`.  Soundness contract per relation is documented on
/// [`PlanProperties`]'s fields; every arm below must only record
/// relations that hold for the operator's actual value semantics.
fn infer_provenance(plan: &Plan, id: OpId, pp: &PlanProperties) -> (TagMap, TagMap, TagMap) {
    let mut sup = TagMap::new();
    let mut eq = TagMap::new();
    let mut excl = TagMap::new();
    // Row-preserving rename: `tgt` takes exactly the values `src` had.
    let exact =
        |sup: &mut TagMap, eq: &mut TagMap, excl: &mut TagMap, input: OpId, src: Col, tgt: Col| {
            sup.insert(tgt, inherit(pp, &pp.supersets, input, src, true));
            eq.insert(tgt, inherit(pp, &pp.equalsets, input, src, true));
            excl.insert(tgt, inherit(pp, &pp.exclusions, input, src, false));
        };
    // Row subset: values shrink — supersets and exclusions carry, set
    // equality does not.
    let subset = |sup: &mut TagMap, excl: &mut TagMap, input: OpId, src: Col, tgt: Col| {
        sup.insert(tgt, inherit(pp, &pp.supersets, input, src, true));
        excl.insert(tgt, inherit(pp, &pp.exclusions, input, src, false));
    };
    let cols = |of: OpId| -> Vec<Col> { pp.columns(of).iter().map(|c| pp.col(c)).collect() };
    match plan.op(id) {
        AlgOp::Lit { .. } | AlgOp::Doc { .. } => {}
        AlgOp::Project { input, columns } => {
            for (src, tgt) in columns {
                exact(
                    &mut sup,
                    &mut eq,
                    &mut excl,
                    *input,
                    pp.col(src),
                    pp.col(tgt),
                );
            }
        }
        // Full-row dedup / re-sort preserves every column's value set.
        AlgOp::Sort { input, .. } | AlgOp::Distinct { input } | AlgOp::DocOrder { input } => {
            for c in cols(*input) {
                exact(&mut sup, &mut eq, &mut excl, *input, c, c);
            }
        }
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. } => {
            for c in cols(*input) {
                subset(&mut sup, &mut excl, *input, c, c);
            }
        }
        // Row-preserving column adders: every pre-existing column keeps
        // its exact value multiset; the new column is fresh.
        AlgOp::Attach { input, target, .. }
        | AlgOp::RowNum { input, target, .. }
        | AlgOp::UnaryMap { input, target, .. }
        | AlgOp::BinaryMap { input, target, .. } => {
            let target = pp.col(target);
            for c in cols(*input) {
                if c != target {
                    exact(&mut sup, &mut eq, &mut excl, *input, c, c);
                }
            }
        }
        // fn:data / fn:root rewrite `item`; other columns ride along
        // row-preserved.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            let item = pp.names.get("item");
            for c in cols(*input) {
                if Some(c) != item {
                    exact(&mut sup, &mut eq, &mut excl, *input, c, c);
                }
            }
        }
        // The distinct group values survive exactly; the aggregate
        // target is fresh.
        AlgOp::Aggregate { input, group, .. } => {
            let group = pp.col(group);
            exact(&mut sup, &mut eq, &mut excl, *input, group, group);
        }
        // Steps emit a subset of the input iterations; item/pos are
        // fresh node/position values.
        AlgOp::Step { input, .. } | AlgOp::Ebv { input } => {
            let iter = pp.col("iter");
            subset(&mut sup, &mut excl, *input, iter, iter);
        }
        AlgOp::EquiJoin {
            left,
            right,
            left_col,
            right_col,
        } => {
            for c in cols(*left) {
                subset(&mut sup, &mut excl, *left, c, c);
            }
            for c in cols(*right) {
                subset(&mut sup, &mut excl, *right, c, c);
            }
            // Matched join columns take values present on *both* sides.
            let (lcol, rcol) = (pp.col(left_col), pp.col(right_col));
            let lc = sup.entry(lcol).or_default();
            lc.extend(inherit(pp, &pp.supersets, *right, rcol, true));
            let lc = cap(std::mem::take(lc));
            sup.insert(lcol, lc);
            let rc = sup.entry(rcol).or_default();
            rc.extend(inherit(pp, &pp.supersets, *left, lcol, true));
            let rc = cap(std::mem::take(rc));
            sup.insert(rcol, rc);
        }
        AlgOp::ThetaJoin { left, right, .. } | AlgOp::Cross { left, right } => {
            for c in cols(*left) {
                subset(&mut sup, &mut excl, *left, c, c);
            }
            for c in cols(*right) {
                subset(&mut sup, &mut excl, *right, c, c);
            }
        }
        // Groups without a match vanish: the group values shrink; the
        // count is fresh.
        AlgOp::ThetaCount { left, count, .. } => {
            let group = pp.col(&count.group);
            subset(&mut sup, &mut excl, *left, group, group);
        }
        // A union row comes from either side: only relations that hold
        // on both survive; a tag equal to both sides equals the union.
        AlgOp::Union { left, right } => {
            for c in cols(id) {
                let meet = |maps: &[TagMap]| -> BTreeSet<Tag> {
                    match (maps[*left].get(&c), maps[*right].get(&c)) {
                        (Some(l), Some(r)) => l.intersection(r).copied().collect(),
                        _ => BTreeSet::new(),
                    }
                };
                sup.insert(c, meet(&pp.supersets));
                eq.insert(c, meet(&pp.equalsets));
                excl.insert(c, meet(&pp.exclusions));
            }
        }
        AlgOp::Difference { left, right } => {
            let out = cols(id);
            for &c in &out {
                subset(&mut sup, &mut excl, *left, c, c);
            }
            // A single-column difference is a set complement: its values
            // are disjoint from the right side — and from anything whose
            // value set *equals* the right side's.
            if let [c] = out[..] {
                let entry = excl.entry(c).or_default();
                entry.extend(inherit(pp, &pp.equalsets, *right, c, true));
                let capped = cap(std::mem::take(entry));
                excl.insert(c, capped);
            }
        }
        // One output row per loop row; iter values survive exactly, the
        // item (fresh node ids) does not.
        AlgOp::ElemConstruct { loop_input, .. } | AlgOp::AttrConstruct { loop_input, .. } => {
            let iter = pp.col("iter");
            exact(&mut sup, &mut eq, &mut excl, *loop_input, iter, iter);
        }
        // τ builds no node for an iteration without content: its iters
        // are a subset of the loop's.
        AlgOp::TextConstruct { loop_input, .. } => {
            let iter = pp.col("iter");
            subset(&mut sup, &mut excl, *loop_input, iter, iter);
        }
    }
    (sup, eq, excl)
}

fn infer_keys(plan: &Plan, id: OpId, pp: &PlanProperties) -> Vec<ColSet> {
    match plan.op(id) {
        AlgOp::Lit { columns, rows } => {
            if rows.len() <= 1 {
                return vec![ColSet::new()];
            }
            if rows.len() > LIT_SCAN_CAP {
                return Vec::new();
            }
            let mut keys = Vec::new();
            for (idx, col) in columns.iter().enumerate() {
                let mut seen: Vec<&Value> = Vec::with_capacity(rows.len());
                let distinct = rows.iter().all(|r| {
                    let v = &r[idx];
                    if seen.contains(&v) {
                        false
                    } else {
                        seen.push(v);
                        true
                    }
                });
                if distinct {
                    keys.push(vec![pp.col(col)]);
                }
            }
            keys
        }
        AlgOp::Doc { .. } => vec![ColSet::new()],
        AlgOp::Project { input, columns } => {
            let mut renamed = Vec::new();
            for key in &pp.keys[*input] {
                // A source column the projection drops kills the key —
                // unless it is constant at the input, in which case it
                // never contributed to distinctness anyway.  A source
                // copied under several names keys the output under each.
                let mut mapped: Vec<ColSet> = vec![ColSet::new()];
                for &source in key {
                    let name = pp.names.name(source);
                    let targets: Vec<Col> = columns
                        .iter()
                        .filter(|(s, _)| s == name)
                        .map(|(_, t)| pp.col(t))
                        .collect();
                    if targets.is_empty() {
                        if pp.constants[*input].contains_key(name) {
                            continue;
                        }
                        mapped.clear();
                        break;
                    }
                    mapped = mapped
                        .iter()
                        .flat_map(|partial| targets.iter().map(move |&t| union(partial, &[t])))
                        .collect();
                }
                renamed.extend(mapped);
            }
            renamed
        }
        // Row subsets keep distinctness.
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. }
        | AlgOp::Difference { left: input, .. } => pp.keys[*input].clone(),
        // Row-preserving operators keep existing keys (they only add or
        // reorder columns / rows).
        AlgOp::Sort { input, .. }
        | AlgOp::Attach { input, .. }
        | AlgOp::UnaryMap { input, .. }
        | AlgOp::BinaryMap { input, .. } => pp.keys[*input].clone(),
        AlgOp::Distinct { input } => {
            let mut keys = pp.keys[*input].clone();
            let all: Vec<&str> = pp.columns(id).iter().map(String::as_str).collect();
            keys.push(pp.cols(&all));
            keys
        }
        AlgOp::EquiJoin {
            left,
            right,
            left_col,
            right_col,
        } => {
            let mut keys = Vec::new();
            // A pair of keys, one per side, keys the concatenated rows.
            for kl in &pp.keys[*left] {
                for kr in &pp.keys[*right] {
                    keys.push(union(kl, kr));
                }
            }
            // If the join column keys one side, every row of the other
            // side matches at most once, so that side's keys survive.
            if pp.keyed_by_cols(*right, &[pp.col(right_col)]) {
                keys.extend(pp.keys[*left].iter().cloned());
            }
            if pp.keyed_by_cols(*left, &[pp.col(left_col)]) {
                keys.extend(pp.keys[*right].iter().cloned());
            }
            keys
        }
        AlgOp::ThetaJoin { left, right, .. } | AlgOp::Cross { left, right } => {
            let mut keys = Vec::new();
            for kl in &pp.keys[*left] {
                for kr in &pp.keys[*right] {
                    keys.push(union(kl, kr));
                }
            }
            keys
        }
        AlgOp::RowNum {
            input,
            target,
            partition,
            ..
        } => {
            let mut keys = pp.keys[*input].clone();
            let mut numbered = vec![target.as_str()];
            if let Some(p) = partition {
                numbered.push(p);
            }
            keys.push(pp.cols(&numbered));
            keys
        }
        // One row per distinct group value, whatever the inputs' keys.
        AlgOp::Aggregate { group, .. } => vec![pp.cols(&[group])],
        AlgOp::ThetaCount { count, .. } => vec![pp.cols(&[&count.group])],
        // Steps and ddo sort + dedup on (iter, item) and renumber pos
        // within iter: both (iter, pos) and (iter, item) key the output.
        // An element has at most one attribute of a given name, so a
        // named attribute step over one context node per iteration
        // yields at most one row per iteration.
        // (An attribute step yields attribute *values*, which repeat.)
        AlgOp::Step { input, axis, test } => {
            let mut keys = vec![pp.cols(&["iter", "pos"])];
            if *axis != Axis::Attribute {
                keys.push(pp.cols(&["iter", "item"]));
            }
            let iter = pp.cols(&["iter"]);
            if *axis == Axis::Attribute
                && matches!(test, NodeTest::Attribute(_))
                && pp.keyed_by_cols(*input, &iter)
            {
                keys.push(iter);
            }
            keys
        }
        AlgOp::DocOrder { .. } => vec![pp.cols(&["iter", "pos"]), pp.cols(&["iter", "item"])],
        AlgOp::Ebv { .. } => vec![pp.cols(&["iter"])],
        // fn:data / fn:root rewrite the item column, which can collapse
        // distinct items; keys not involving `item` survive.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            let item = pp.names.get("item");
            pp.keys[*input]
                .iter()
                .filter(|k| item.is_none_or(|item| !k.contains(&item)))
                .cloned()
                .collect()
        }
        // A union generally loses all keys — unless some column provably
        // *discriminates* the sides (rows from different sides always
        // differ on it).  Then that column plus one key per side is a
        // key of the whole union.  Two discriminator proofs:
        //   (a) the column is constant on both sides with different
        //       known values (the `ord`-tag plumbing around unions);
        //   (b) value provenance shows the sides are disjoint on it (the
        //       `A ∪ (B ∖ A)` default-branch plumbing).
        AlgOp::Union { left, right } => {
            // A provably empty side contributes no rows: the union *is*
            // the other side, keys included.
            if pp.empty[*left] {
                return pp.keys[*right].clone();
            }
            if pp.empty[*right] {
                return pp.keys[*left].clone();
            }
            let mut discriminators: Vec<Col> = Vec::new();
            for name in pp.columns(id) {
                let c = pp.col(name);
                let known = |side: OpId| pp.constant_value(side, name);
                if let (Some(va), Some(vb)) = (known(*left), known(*right)) {
                    if va != vb {
                        discriminators.push(c);
                        continue;
                    }
                }
                let disjoint = |a: OpId, b: OpId| {
                    let sup = pp.supersets_with_self(a, c);
                    pp.exclusions[b]
                        .get(&c)
                        .is_some_and(|x| !sup.is_disjoint(x))
                };
                if disjoint(*left, *right) || disjoint(*right, *left) {
                    discriminators.push(c);
                }
            }
            let mut keys: Vec<ColSet> = Vec::new();
            for &c in &discriminators {
                for kl in &pp.keys[*left] {
                    for kr in &pp.keys[*right] {
                        let key = union(&union(kl, kr), &[c]);
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                    }
                }
            }
            keys
        }
        // One output row per loop row, each carrying a fresh node id.
        AlgOp::ElemConstruct { loop_input, .. }
        | AlgOp::AttrConstruct { loop_input, .. }
        | AlgOp::TextConstruct { loop_input, .. } => {
            let mut keys = vec![pp.cols(&["item"])];
            let iter = pp.cols(&["iter"]);
            if pp.keyed_by_cols(*loop_input, &iter) {
                keys.push(iter);
            }
            keys
        }
    }
}

/// Structural emptiness: `true` only when the operator provably yields
/// no rows, whatever the documents contain.
fn infer_empty(plan: &Plan, id: OpId, pp: &PlanProperties) -> bool {
    match plan.op(id) {
        AlgOp::Lit { rows, .. } => rows.is_empty(),
        AlgOp::Doc { .. } => false,
        // σ keeps the rows whose column is `true`: none of a column that
        // is constant `false`.  σ= keeps none of a column constant at a
        // different value.
        AlgOp::Select { input, column } => {
            pp.empty[*input] || pp.constant_value(*input, column) == Some(&Value::Bool(false))
        }
        AlgOp::SelectEq {
            input,
            column,
            value,
        } => {
            pp.empty[*input]
                || pp
                    .constant_value(*input, column)
                    .is_some_and(|c| c != value)
        }
        AlgOp::Project { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::Sort { input, .. }
        | AlgOp::DocOrder { input }
        | AlgOp::RowNum { input, .. }
        | AlgOp::BinaryMap { input, .. }
        | AlgOp::UnaryMap { input, .. }
        | AlgOp::Attach { input, .. }
        | AlgOp::Aggregate { input, .. }
        | AlgOp::Step { input, .. }
        | AlgOp::IndexScan { input, .. }
        | AlgOp::FnData { input }
        | AlgOp::FnRoot { input }
        | AlgOp::Ebv { input } => pp.empty[*input],
        AlgOp::Union { left, right } => pp.empty[*left] && pp.empty[*right],
        AlgOp::Difference { left, .. } => pp.empty[*left],
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::ThetaCount { left, right, .. }
        | AlgOp::Cross { left, right } => pp.empty[*left] || pp.empty[*right],
        // Constructors emit at most one node per loop row.
        AlgOp::ElemConstruct { loop_input, .. }
        | AlgOp::AttrConstruct { loop_input, .. }
        | AlgOp::TextConstruct { loop_input, .. } => pp.empty[*loop_input],
    }
}

fn infer_constants(plan: &Plan, id: OpId, pp: &PlanProperties) -> BTreeMap<String, Option<Value>> {
    match plan.op(id) {
        AlgOp::Lit { columns, rows } => {
            if rows.is_empty() {
                return columns.iter().map(|c| (c.clone(), None)).collect();
            }
            if rows.len() > LIT_SCAN_CAP {
                return BTreeMap::new();
            }
            columns
                .iter()
                .enumerate()
                .filter(|(idx, _)| rows.iter().all(|r| r[*idx] == rows[0][*idx]))
                .map(|(idx, c)| (c.clone(), Some(rows[0][idx].clone())))
                .collect()
        }
        // One row: its only column is constant, the value opaque.
        AlgOp::Doc { .. } => std::iter::once(("item".to_string(), None)).collect(),
        AlgOp::Project { input, columns } => columns
            .iter()
            .filter_map(|(s, t)| pp.constants[*input].get(s).map(|v| (t.clone(), v.clone())))
            .collect(),
        // Survivors all carry `true` / the matched constant in `column`.
        AlgOp::Select { input, column } => {
            let mut c = pp.constants[*input].clone();
            c.insert(column.clone(), Some(Value::Bool(true)));
            c
        }
        AlgOp::SelectEq {
            input,
            column,
            value,
        } => {
            let mut c = pp.constants[*input].clone();
            c.insert(column.clone(), Some(value.clone()));
            c
        }
        // Row subsets / reorders keep every constant column constant.
        AlgOp::Sort { input, .. } | AlgOp::Distinct { input } | AlgOp::IndexScan { input, .. } => {
            pp.constants[*input].clone()
        }
        AlgOp::Attach {
            input,
            target,
            value,
        } => {
            let mut c = pp.constants[*input].clone();
            c.insert(target.clone(), Some(value.clone()));
            c
        }
        AlgOp::UnaryMap { input, target, .. } | AlgOp::BinaryMap { input, target, .. } => {
            let mut c = pp.constants[*input].clone();
            c.remove(target);
            c
        }
        AlgOp::RowNum { input, target, .. } => {
            let mut c = pp.constants[*input].clone();
            c.remove(target);
            c
        }
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => {
            let mut c = pp.constants[*left].clone();
            for (col, v) in &pp.constants[*right] {
                c.entry(col.clone()).or_insert_with(|| v.clone());
            }
            c
        }
        // A column constant on both sides with the same known value is
        // still constant after concatenation — and a provably empty side
        // contributes no rows at all, so the other side's constants
        // survive as they are.
        AlgOp::Union { left, right } => {
            if pp.empty[*left] {
                return pp.constants[*right].clone();
            }
            if pp.empty[*right] {
                return pp.constants[*left].clone();
            }
            let mut c = BTreeMap::new();
            for (col, v) in &pp.constants[*left] {
                let (Some(va), Some(Some(vb))) = (v, pp.constants[*right].get(col)) else {
                    continue;
                };
                if va == vb {
                    c.insert(col.clone(), Some(va.clone()));
                }
            }
            c
        }
        AlgOp::Difference { left, .. } => pp.constants[*left].clone(),
        AlgOp::Aggregate { input, group, .. } => group_constant(pp, *input, group),
        AlgOp::ThetaCount { left, count, .. } => group_constant(pp, *left, &count.group),
        AlgOp::Step { input, .. } | AlgOp::Ebv { input } => {
            let mut c = BTreeMap::new();
            if let Some(v) = pp.constants[*input].get("iter") {
                c.insert("iter".to_string(), v.clone());
            }
            c
        }
        AlgOp::DocOrder { input } => {
            let mut c = BTreeMap::new();
            for col in ["iter", "item"] {
                if let Some(v) = pp.constants[*input].get(col) {
                    c.insert(col.to_string(), v.clone());
                }
            }
            c
        }
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            let mut c = pp.constants[*input].clone();
            // The item column is rewritten: still constant when the
            // input item was (same node ⇒ same atomization), but the
            // value is no longer statically known.
            if let Some(v) = c.get_mut("item") {
                *v = None;
            }
            c
        }
        AlgOp::ElemConstruct { loop_input, .. }
        | AlgOp::AttrConstruct { loop_input, .. }
        | AlgOp::TextConstruct { loop_input, .. } => {
            let mut c = BTreeMap::new();
            if pp.constants[*loop_input].contains_key("iter") {
                c.insert("iter".to_string(), None);
            }
            c
        }
    }
}

/// Per-column type sets: Boolean at comparisons, `ebv`, `not` and Boolean
/// constants, carried by renames and row subsets, united at `∪`.
fn infer_types(plan: &Plan, id: OpId, pp: &PlanProperties) -> BTreeMap<String, TypeSet> {
    let carry = |input: OpId| pp.types[input].clone();
    let with = |mut types: BTreeMap<String, TypeSet>, col: &str, t: Option<TypeSet>| {
        match t {
            Some(t) => types.insert(col.to_string(), t),
            None => types.remove(col),
        };
        types
    };
    let boolean = Some(TypeSet::of(ValueType::Bool));
    match plan.op(id) {
        AlgOp::Lit { columns, rows } => {
            if rows.len() > LIT_SCAN_CAP {
                return BTreeMap::new();
            }
            columns
                .iter()
                .enumerate()
                .map(|(idx, c)| {
                    let t = rows.iter().fold(TypeSet::NONE, |t, r| {
                        t.union(TypeSet::of(r[idx].value_type()))
                    });
                    (c.clone(), t)
                })
                .collect()
        }
        AlgOp::Doc { .. } => with(BTreeMap::new(), "item", Some(TypeSet::of(ValueType::Node))),
        AlgOp::Project { input, columns } => columns
            .iter()
            .filter_map(|(s, t)| pp.types[*input].get(s).map(|ty| (t.clone(), *ty)))
            .collect(),
        // Survivors carry `true` in the column (anything else is an error).
        AlgOp::Select { input, column } => with(carry(*input), column, boolean),
        AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::Sort { input, .. }
        | AlgOp::DocOrder { input }
        | AlgOp::Difference { left: input, .. } => carry(*input),
        AlgOp::Attach {
            input,
            target,
            value,
        } => with(carry(*input), target, Some(TypeSet::of(value.value_type()))),
        AlgOp::BinaryMap {
            input, target, op, ..
        } => {
            let t = match op {
                BinaryOp::Cmp(_)
                | BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Contains
                | BinaryOp::StartsWith => boolean,
                BinaryOp::Arith(_) | BinaryOp::Concat => None,
            };
            with(carry(*input), target, t)
        }
        AlgOp::UnaryMap {
            input, target, op, ..
        } => with(
            carry(*input),
            target,
            (*op == UnaryOp::Not).then_some(boolean).flatten(),
        ),
        AlgOp::RowNum { input, target, .. } => {
            with(carry(*input), target, Some(TypeSet::of(ValueType::Nat)))
        }
        AlgOp::Aggregate { input, group, .. } => {
            with(BTreeMap::new(), group, pp.types[*input].get(group).copied())
        }
        AlgOp::ThetaCount { left, count, .. } => with(
            BTreeMap::new(),
            &count.group,
            pp.types[*left].get(&count.group).copied(),
        ),
        // Attribute steps yield the attribute values, every other axis
        // nodes.
        AlgOp::Step { input, axis, .. } => {
            let types = with(
                BTreeMap::new(),
                "iter",
                pp.types[*input].get("iter").copied(),
            );
            let types = with(types, "pos", Some(TypeSet::of(ValueType::Nat)));
            let item = match axis {
                Axis::Attribute => ValueType::Str,
                _ => ValueType::Node,
            };
            with(types, "item", Some(TypeSet::of(item)))
        }
        AlgOp::Ebv { input } => {
            let types = with(
                BTreeMap::new(),
                "iter",
                pp.types[*input].get("iter").copied(),
            );
            with(types, "item", boolean)
        }
        AlgOp::FnData { input } => with(carry(*input), "item", None),
        AlgOp::FnRoot { input } => with(carry(*input), "item", Some(TypeSet::of(ValueType::Node))),
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => {
            let mut types = carry(*left);
            types.extend(carry(*right));
            types
        }
        AlgOp::Union { left, right } => {
            if pp.empty[*left] {
                return carry(*right);
            }
            if pp.empty[*right] {
                return carry(*left);
            }
            pp.types[*left]
                .iter()
                .filter_map(|(c, l)| pp.types[*right].get(c).map(|r| (c.clone(), l.union(*r))))
                .collect()
        }
        // A constructed attribute travels as an encoded string.
        AlgOp::ElemConstruct { .. } | AlgOp::TextConstruct { .. } => {
            with(BTreeMap::new(), "item", Some(TypeSet::of(ValueType::Node)))
        }
        AlgOp::AttrConstruct { .. } => BTreeMap::new(),
    }
}

/// Row order within `iter` (see [`Sequence`]).  Steps, `ddo` and `%·/iter`
/// produce a dense one; π, `@` and maps keep it; σ, δ, `∖` and the
/// left-major joins keep the order but lose the density.
fn infer_sequence(plan: &Plan, id: OpId, pp: &PlanProperties) -> Option<Sequence> {
    let dense = |column: &str| {
        Some(Sequence {
            column: column.to_string(),
            dense: true,
        })
    };
    let sparse = |input: OpId| {
        pp.sequence[input].as_ref().map(|s| Sequence {
            column: s.column.clone(),
            dense: false,
        })
    };
    match plan.op(id) {
        // Steps and ddo sort by (iter, document order) and number `pos`
        // within each iter.
        AlgOp::Step { .. } | AlgOp::DocOrder { .. } => dense("pos"),
        // % re-sorts by (partition, order keys) and numbers within each
        // partition: per iter, or over the whole table when iter is
        // constant.
        AlgOp::RowNum {
            input,
            target,
            partition,
            ..
        } => {
            let has_iter = pp.columns(*input).iter().any(|c| c == "iter");
            let per_iter = match partition {
                Some(p) => p == "iter",
                None => pp.constants[*input].contains_key("iter"),
            };
            (has_iter && per_iter).then(|| dense(target)).flatten()
        }
        AlgOp::Project { input, columns } => {
            let seq = pp.sequence[*input].as_ref()?;
            columns.iter().find(|(s, t)| s == "iter" && t == "iter")?;
            let (_, target) = columns.iter().find(|(s, _)| *s == seq.column)?;
            Some(Sequence {
                column: target.clone(),
                dense: seq.dense,
            })
        }
        AlgOp::Attach { input, .. }
        | AlgOp::BinaryMap { input, .. }
        | AlgOp::UnaryMap { input, .. } => pp.sequence[*input].clone(),
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            pp.sequence[*input].clone().filter(|s| s.column != "item")
        }
        // One row per iter survives σ[c=1] of a dense sequence on c: still
        // 1 within each iter.
        AlgOp::SelectEq {
            input,
            column,
            value,
        } if *value == Value::Nat(1)
            && pp.sequence[*input]
                .as_ref()
                .is_some_and(|s| s.dense && s.column == *column) =>
        {
            pp.sequence[*input].clone()
        }
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::Difference { left: input, .. }
        | AlgOp::EquiJoin { left: input, .. }
        | AlgOp::Cross { left: input, .. } => sparse(*input),
        _ => None,
    }
}

/// The operators of the subplan rooted at `id` that can raise a dynamic
/// error: maps and casts, σ over a column that may not be Boolean,
/// atomization, the non-count aggregates, steps, θ-joins, document access
/// and constructors.
fn infer_raisers(plan: &Plan, id: OpId, pp: &PlanProperties) -> OpSet {
    let op = plan.op(id);
    let mut set = OpSet::new();
    for child in op.children() {
        opset_union(&mut set, &pp.raisers[child]);
    }
    let raises = match op {
        AlgOp::Select { input, column } => {
            !pp.types(*input, column).is_some_and(TypeSet::is_boolean)
        }
        AlgOp::Aggregate { func, .. } => *func != AggFunc::Count,
        AlgOp::BinaryMap { .. }
        | AlgOp::UnaryMap { .. }
        | AlgOp::FnData { .. }
        | AlgOp::FnRoot { .. }
        | AlgOp::Step { .. }
        | AlgOp::ThetaJoin { .. }
        | AlgOp::ThetaCount { .. }
        | AlgOp::Doc { .. }
        | AlgOp::ElemConstruct { .. }
        | AlgOp::AttrConstruct { .. }
        | AlgOp::TextConstruct { .. } => true,
        _ => false,
    };
    if raises {
        opset_insert(&mut set, id);
    }
    set
}

/// The constants of a grouping operator: its group column, when that is
/// constant at `input`.
fn group_constant(
    pp: &PlanProperties,
    input: OpId,
    group: &str,
) -> BTreeMap<String, Option<Value>> {
    let known = pp.constants[input].get(group);
    known
        .map(|v| (group.to_string(), v.clone()))
        .into_iter()
        .collect()
}

/// Can permuting the rows of `child` (child slot `slot` of `parent_op`)
/// change the observable result, given that permuting the *parent's*
/// output rows is (`parent_free`) or is not observable?
fn edge_order_free(
    parent_op: &AlgOp,
    slot: usize,
    parent_free: bool,
    child: OpId,
    pp: &PlanProperties,
) -> bool {
    match parent_op {
        // Steps and ddo sort-normalize their input: any input order
        // yields the identical output table.
        AlgOp::Step { .. } | AlgOp::DocOrder { .. } => true,
        // A sort whose keys cover a key of the input is fully
        // deterministic; otherwise stable tie-breaking passes the input
        // order through.
        AlgOp::Sort { by, .. } => {
            let cols: BTreeSet<String> = by.iter().map(|s| s.column.clone()).collect();
            if pp.keyed_by(child, &cols) {
                true
            } else {
                parent_free
            }
        }
        // Rownum numbers rows in (order_by, input-order) sequence within
        // each partition: deterministic content iff the sort keys cover
        // a key; the output *order* still follows the input.
        AlgOp::RowNum {
            order_by,
            partition,
            ..
        } => {
            let mut cols: BTreeSet<String> = order_by.iter().map(|s| s.column.clone()).collect();
            if let Some(p) = partition {
                cols.insert(p.clone());
            }
            if pp.keyed_by(child, &cols) {
                parent_free
            } else {
                false
            }
        }
        // Count is order-insensitive; Sum/Avg accumulate floats in row
        // order, Min/Max keep the first of equal-comparing values —
        // both can observe the input order.
        AlgOp::Aggregate { func, .. } => match func {
            AggFunc::Count => parent_free,
            _ => false,
        },
        // Constructors assign node ids and gather content in row order.
        // The loop side is safe when its rows are keyed on iter (ids
        // then permute with the rows, and serialization re-sorts);
        // content is safe when (iter, pos) keys it, because the content
        // index re-sorts stably by pos within iter.
        AlgOp::ElemConstruct { .. } | AlgOp::AttrConstruct { .. } | AlgOp::TextConstruct { .. } => {
            if slot == 0 {
                if pp.keyed_by(child, &set(&["iter"])) {
                    parent_free
                } else {
                    false
                }
            } else {
                pp.keyed_by(child, &set(&["iter", "pos"]))
            }
        }
        // The right side of a difference is only probed, never emitted;
        // the right side of a rank count is only counted.
        AlgOp::Difference { .. } | AlgOp::ThetaCount { .. } if slot == 1 => true,
        // Everything else is row-order passthrough: permuting the input
        // permutes the output without changing its contents (selects,
        // maps, projections, joins' left-major nesting, union's
        // concatenation, distinct's first-of-identical-rows, ebv).
        _ => parent_free,
    }
}

/// Cardinality + document provenance for one operator, from the
/// already-computed child entries.  Estimates only ever *order*
/// alternatives (join reordering picks the smallest leaf first,
/// admission control sizes a cold plan), so being roughly proportional
/// matters, absolute accuracy does not.
fn estimate_op(
    plan: &Plan,
    id: OpId,
    rows: &[f64],
    doc: &[Option<String>],
    stats: &dyn StatsSource,
) -> (f64, Option<String>) {
    match plan.op(id) {
        AlgOp::Lit { rows: r, .. } => (r.len() as f64, None),
        AlgOp::Doc { uri } => (1.0, Some(uri.clone())),
        AlgOp::Step { input, axis, test } => {
            let input_rows = rows[*input];
            let uri = doc[*input].clone();
            if input_rows == 0.0 {
                return (0.0, uri);
            }
            let doc_stats = uri.as_deref().and_then(|u| stats.doc_statistics(u));
            let est = match (&doc_stats, axis) {
                // Every context set of size ≥ 1 sees (almost) the whole
                // document below it: the step output is bounded by — and
                // for the common root-context case equal to — the total
                // number of matching nodes.
                (Some(s), Axis::Descendant | Axis::DescendantOrSelf) => s.matching(test) as f64,
                (Some(s), Axis::Child) => {
                    // Uniform fan-out: matching nodes spread evenly over
                    // all possible element parents.
                    let parents = s.elements.max(1) as f64;
                    input_rows * (s.matching(test) as f64 / parents).max(1.0 / parents)
                }
                (Some(s), Axis::Attribute) => {
                    let owners = s.elements.max(1) as f64;
                    input_rows * (s.matching(test) as f64 / owners).min(1.0)
                }
                // Upward / sideways axes and the self axis stay near the
                // context size.
                (Some(_), _) => input_rows,
                // No statistics: fixed fan-out guesses.
                (None, Axis::Descendant | Axis::DescendantOrSelf) => input_rows * 8.0,
                (None, Axis::Child) => input_rows * 3.0,
                (None, Axis::Attribute) => input_rows,
                (None, _) => input_rows,
            };
            (est.max(0.0), uri)
        }
        AlgOp::Select { input, .. } => (rows[*input] * 0.5, doc[*input].clone()),
        // Index probes are selective by construction (the rule only fires
        // on literal lookups).
        AlgOp::IndexScan { input, .. } => (rows[*input] * 0.1, doc[*input].clone()),
        AlgOp::SelectEq { input, .. } => (rows[*input] * 0.1, doc[*input].clone()),
        AlgOp::Distinct { input } => (rows[*input] * 0.8, doc[*input].clone()),
        AlgOp::Union { left, right } => (rows[*left] + rows[*right], merge_doc(doc, *left, *right)),
        AlgOp::Difference { left, right: _ } => (rows[*left], doc[*left].clone()),
        AlgOp::Cross { left, right } => (rows[*left] * rows[*right], merge_doc(doc, *left, *right)),
        AlgOp::ThetaJoin { left, right, .. } => (
            rows[*left] * rows[*right] / 3.0,
            merge_doc(doc, *left, *right),
        ),
        // At most one row per left row, and nothing bigger in between.
        AlgOp::ThetaCount { left, .. } => (rows[*left], doc[*left].clone()),
        // Loop-lifted equi-joins are overwhelmingly iter↔iter matches:
        // close to a 1:N alignment of the two sides, not a blow-up.
        AlgOp::EquiJoin { left, right, .. } => {
            (rows[*left].max(rows[*right]), merge_doc(doc, *left, *right))
        }
        AlgOp::Aggregate { input, .. } => ((rows[*input] * 0.5).max(1.0), doc[*input].clone()),
        AlgOp::Ebv { input } => ((rows[*input] * 0.5).max(1.0), doc[*input].clone()),
        // Row-preserving operators.
        AlgOp::Project { input, .. }
        | AlgOp::RowNum { input, .. }
        | AlgOp::BinaryMap { input, .. }
        | AlgOp::UnaryMap { input, .. }
        | AlgOp::Attach { input, .. }
        | AlgOp::DocOrder { input }
        | AlgOp::FnData { input }
        | AlgOp::FnRoot { input }
        | AlgOp::Sort { input, .. } => (rows[*input], doc[*input].clone()),
        // Constructors emit one node per loop iteration (content rows are
        // folded into those nodes).  The constructed nodes live in a new
        // transient document, so provenance resets.
        AlgOp::ElemConstruct { loop_input, .. }
        | AlgOp::AttrConstruct { loop_input, .. }
        | AlgOp::TextConstruct { loop_input, .. } => (rows[*loop_input], None),
    }
}

fn merge_doc(doc: &[Option<String>], left: OpId, right: OpId) -> Option<String> {
    match (&doc[left], &doc[right]) {
        (Some(l), Some(r)) if l == r => Some(l.clone()),
        (Some(l), None) => Some(l.clone()),
        (None, Some(r)) => Some(r.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;

    fn doc_step(b: &mut PlanBuilder, uri: &str) -> OpId {
        let d = b.add(AlgOp::Doc { uri: uri.into() });
        let l = b.add(AlgOp::Attach {
            input: d,
            target: "iter".into(),
            value: Value::Nat(1),
        });
        let p = b.add(AlgOp::Project {
            input: l,
            columns: vec![
                ("iter".into(), "iter".into()),
                ("item".into(), "item".into()),
            ],
        });
        b.add(AlgOp::Step {
            input: p,
            axis: Axis::Descendant,
            test: NodeTest::Element("a".into()),
        })
    }

    /// The unified pass agrees with itself: one analysis carries schema,
    /// keys, constants, cardinality and provenance for the same ops.
    #[test]
    fn one_pass_carries_every_property_family() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "doc.xml");
        let plan = b.finish(s);
        let pp = PlanProperties::analyze(&plan);
        assert_eq!(pp.columns(s), ["iter", "pos", "item"]);
        assert!(pp.keyed_by(s, &set(&["pos"])), "iter is constant");
        assert!(pp.constants(s).contains_key("iter"));
        assert_eq!(pp.doc(s), Some("doc.xml"));
        assert!(pp.rows(s) > 0.0);
        assert!(pp.order_free(s));
        assert!(pp.schema(s).is_some_and(|p| p.doc_ordered));
    }

    #[test]
    fn unreachable_operators_have_empty_properties() {
        let mut b = PlanBuilder::new();
        let keep = b.add(AlgOp::Lit {
            columns: vec!["iter".into(), "pos".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(1)]],
        });
        let orphan = b.add(AlgOp::Distinct { input: keep });
        let plan = b.finish(keep);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.schema(orphan).is_none());
        assert!(pp.columns(orphan).is_empty());
        assert!(pp.keys(orphan).is_empty());
        assert_eq!(pp.rows(orphan), 0.0);
        assert!(pp.doc(orphan).is_none());
    }

    #[test]
    fn doc_provenance_resets_at_constructors_and_merges_at_joins() {
        let mut b = PlanBuilder::new();
        let s = doc_step(&mut b, "d");
        let lit = b.add(AlgOp::Lit {
            columns: vec!["iter".into()],
            rows: vec![vec![Value::Nat(1)]],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: s,
            right: lit,
            left_col: "iter".into(),
            right_col: "iter".into(),
        });
        let elem = b.add(AlgOp::ElemConstruct {
            loop_input: join,
            tag: "r".into(),
            content: s,
        });
        let plan = b.finish(elem);
        let pp = PlanProperties::analyze(&plan);
        assert_eq!(pp.doc(join), Some("d"), "join keeps the doc side's uri");
        assert_eq!(pp.doc(elem), None, "constructed nodes reset provenance");
    }

    /// The pair table of a θ-join is estimated at |L|·|R|/3 rows — what a
    /// cold plan is admitted at; the rank count over the same inputs never
    /// holds more than its left input.
    #[test]
    fn rank_count_is_estimated_at_its_left_input() {
        let mut b = PlanBuilder::new();
        let nats = |n: u64| {
            (1..=n)
                .map(|i| vec![Value::Nat(i), Value::Nat(i)])
                .collect()
        };
        let l = b.add(AlgOp::Lit {
            columns: vec!["g".into(), "k".into()],
            rows: nats(30),
        });
        let r = b.add(AlgOp::Lit {
            columns: vec!["id".into(), "v".into()],
            rows: nats(60),
        });
        let op = pf_relational::ops::BinaryOp::Cmp(pf_relational::ops::CmpOp::Gt);
        let pairs = b.add(AlgOp::ThetaJoin {
            left: l,
            right: r,
            left_col: "k".into(),
            op,
            right_col: "v".into(),
        });
        let count = b.add(AlgOp::ThetaCount {
            left: l,
            right: r,
            count: Box::new(pf_relational::ops::RankCount {
                group: "g".into(),
                left_col: "k".into(),
                op,
                right_id: "id".into(),
                right_col: "v".into(),
                result: "n".into(),
            }),
        });
        let both = b.add(AlgOp::Cross {
            left: pairs,
            right: count,
        });
        let pp = PlanProperties::analyze(&b.finish(both));
        assert_eq!(pp.rows(pairs), 600.0);
        assert_eq!(pp.rows(count), 30.0);
        assert_eq!(pp.columns(count), ["g", "n"]);
        assert!(pp.keyed_by(count, &set(&["g"])));
    }

    #[test]
    fn provably_empty_sides_keep_union_properties() {
        // ∪(σ over a 1-row lit, empty lit): the empty side must not cost
        // the union the non-empty side's keys and constants.
        let mut b = PlanBuilder::new();
        let lit = b.add(AlgOp::Lit {
            columns: vec!["a".into(), "v".into()],
            rows: vec![vec![Value::Nat(1), Value::Nat(7)]],
        });
        let sel = b.add(AlgOp::SelectEq {
            input: lit,
            column: "v".into(),
            value: Value::Nat(7),
        });
        let empty = b.add(AlgOp::Lit {
            columns: vec!["a".into(), "v".into()],
            rows: vec![],
        });
        let u = b.add(AlgOp::Union {
            left: sel,
            right: empty,
        });
        let plan = b.finish(u);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.provably_empty(empty));
        assert!(!pp.provably_empty(u));
        assert_eq!(
            pp.constants(u).get("v"),
            Some(&Some(Value::Nat(7))),
            "constant survives a provably empty union side"
        );
        assert!(
            !pp.keys(u).is_empty(),
            "keys survive a provably empty union side"
        );
    }
}
