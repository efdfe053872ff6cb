//! Unified static plan-property inference.
//!
//! [`PlanProperties`] computes, in **one bottom-up pass** per plan, every
//! static property the optimizer and the verifier consume:
//!
//! * **schema** — output columns, and whether the output is in distinct
//!   document order: sorted by `(iter, item)` with no duplicate item per
//!   `iter` (what a staircase-join step and `fs:distinct-doc-order`
//!   produce);
//! * **keys** — column sets on which the operator's output rows are
//!   provably distinct;
//! * **constants** — columns provably equal in every output row, with
//!   the value itself when it is statically known (the top-level
//!   `iter ≡ 1` is the important case: it shrinks the `{iter, pos}` key
//!   of a step to `{pos}`, exactly what the serializer sorts by).  A
//!   parameter slot ([`crate::Const::Param`]) is a constant the analysis
//!   can name but not evaluate: equal to itself, never known to differ
//!   from another constant;
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
//!   step find its tag histogram);
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
//! Inference is cheap per operator.  It walks the plan's kept topological
//! order ([`Plan::reachable`]) and the inline child lists of
//! [`AlgOp::children`].  Columns, keys, constants, types, document
//! provenance and sequences are shared behind [`Arc`]: where an
//! operator's fact is its input's, the operator points at the input's
//! fact instead of copying it.  The row subsets and reorders (σ, σ=, δ,
//! sort, `ddo`, `∖`) mostly share, and so do `∪` (its
//! left side), `fn:data` and `fn:root` for columns and `@` and the maps
//! for keys.  Columns are the plan's [`ColId`]s, so keys are small
//! inline integer sets, an operator's provenance tags one sorted vector
//! of `(column, tag)` pairs, and no fact holds a name.  The canonical
//! operators that provenance tags name are found the way hash-consing
//! finds duplicates: bucketed by kind and (canonical) inputs and
//! compared with [`AlgOp::same_as`], never by rendering.
//!
//! Every reader calls this pass directly: the optimizer's rules, the
//! verifier, and the engine's admission estimate for an unoptimized plan
//! ([`PlanProperties::peak_rows`]).  It is the only whole-plan analysis:
//! the optimizer driver owns one per plan version and hands it to every
//! rule that reads properties — identity-projection removal (columns),
//! [`crate::optimize::pushdown`] (which side of a join owns a
//! column), [`crate::optimize::reorder`], [`crate::optimize::scaffold`]
//! and [`crate::optimize::thetacount`].
//! [`crate::verify`] checks rewrites against the same inference, so the
//! optimizer is validated by the very properties it plans with.

use std::collections::BTreeMap;
use std::sync::Arc;

use pf_relational::ops::{AggFunc, BinaryOp, UnaryOp};
use pf_relational::{ColId, Value, ValueType};
use pf_store::{Axis, DocStatistics, NodeTest};

use crate::ops::{AlgOp, Const};
use crate::optimize::dedup::OpClasses;
use crate::plan::{OpId, Plan};

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

/// A set of columns, sorted and duplicate-free.  Up to
/// [`ColSet::INLINE`] columns are held inline — nearly every key is
/// `{iter}`, `{iter, pos}` or `{iter, item}`, and most schemas have fewer
/// columns — so most sets allocate nothing.
#[derive(Debug, Clone, Default)]
struct ColSet {
    len: usize,
    inline: [ColId; ColSet::INLINE],
    /// Every column, once there are more than fit inline.
    spilled: Vec<ColId>,
}

impl ColSet {
    const INLINE: usize = 8;

    /// Add `c`, keeping the set sorted.
    fn insert(&mut self, c: ColId) {
        let Err(at) = self.binary_search(&c) else {
            return;
        };
        if self.len < Self::INLINE {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = c;
        } else {
            if self.len == Self::INLINE {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.insert(at, c);
        }
        self.len += 1;
    }
}

impl std::ops::Deref for ColSet {
    type Target = [ColId];

    fn deref(&self) -> &[ColId] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

impl PartialEq for ColSet {
    fn eq(&self, other: &ColSet) -> bool {
        self[..] == other[..]
    }
}

impl FromIterator<ColId> for ColSet {
    fn from_iter<I: IntoIterator<Item = ColId>>(cols: I) -> ColSet {
        let mut set = ColSet::default();
        cols.into_iter().for_each(|c| set.insert(c));
        set
    }
}

impl<'a> IntoIterator for &'a ColSet {
    type Item = &'a ColId;
    type IntoIter = std::slice::Iter<'a, ColId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A value-provenance tag: “the tracked column's values are related to
/// column `.1` of operator `.0`”.
pub(crate) type Tag = (OpId, ColId);

/// The tag sets of one operator's columns in one vector of `(column,
/// tag)` pairs, sorted by column, then tag.  A column without a pair has
/// no tag.
#[derive(Debug, Clone, Default, PartialEq)]
struct TagMap(Vec<(ColId, Tag)>);

impl TagMap {
    /// The pairs of column `c`, ascending.
    fn run(&self, c: ColId) -> &[(ColId, Tag)] {
        let start = self.0.partition_point(|&(col, _)| col < c);
        let len = self.0[start..].partition_point(|&(col, _)| col == c);
        &self.0[start..start + len]
    }

    /// The tags of column `c`, ascending.
    fn tags(&self, c: ColId) -> impl Iterator<Item = Tag> + '_ {
        self.run(c).iter().map(|&(_, tag)| tag)
    }

    /// Whether column `c` has `tag`.
    fn contains(&self, c: ColId, tag: Tag) -> bool {
        self.0.binary_search(&(c, tag)).is_ok()
    }
}

/// A [`TagMap`] being built, one column's tag set at a time.
struct TagMapBuilder {
    /// Each column's tags, ascending, the columns in the order set.
    pairs: Vec<(ColId, Tag)>,
    /// The columns set so far.
    columns: ColSet,
    /// The pairs to make room for once the first tag arrives.
    room: usize,
}

impl TagMapBuilder {
    /// A builder that allocates room for `room` pairs with its first tag.
    fn with_room(room: usize) -> TagMapBuilder {
        TagMapBuilder {
            pairs: Vec::new(),
            columns: ColSet::default(),
            room,
        }
    }

    /// Remove the tags of column `c` and return them.
    fn take(&mut self, c: ColId) -> Vec<Tag> {
        let mut taken = Vec::new();
        if self.columns.binary_search(&c).is_ok() {
            self.pairs.retain(|&(col, tag)| {
                if col == c {
                    taken.push(tag);
                }
                col != c
            });
        }
        taken
    }

    /// Set the tags of column `c` to the smallest [`TAG_CAP`] of `tags`,
    /// which ascend.
    fn put(&mut self, c: ColId, tags: impl Iterator<Item = Tag>) {
        self.take(c);
        self.columns.insert(c);
        let mut tags = tags.take(TAG_CAP).peekable();
        if tags.peek().is_some() && self.pairs.capacity() == 0 {
            self.pairs.reserve(self.room);
        }
        self.pairs.extend(tags.map(|tag| (c, tag)));
    }

    /// [`TagMapBuilder::put`] of the tags of `run` (one column's pairs of
    /// a finished map) plus `own`, copying the run in slices: in a deep
    /// plan the run is full and `own` — the input itself, above the
    /// operators its tags name — falls off the end.
    fn put_run(&mut self, c: ColId, run: &[(ColId, Tag)], own: Tag) {
        self.take(c);
        self.columns.insert(c);
        if self.pairs.capacity() == 0 {
            self.pairs.reserve(self.room);
        }
        let run = &run[..run.len().min(TAG_CAP)];
        let at = run.partition_point(|&(_, tag)| tag < own);
        self.pairs
            .extend(run[..at].iter().map(|&(_, tag)| (c, tag)));
        let rest = if run.get(at).is_some_and(|&(_, tag)| tag == own) {
            &run[at..]
        } else if at < TAG_CAP {
            self.pairs.push((c, own));
            &run[at..run.len().min(TAG_CAP - 1)]
        } else {
            &[]
        };
        self.pairs.extend(rest.iter().map(|&(_, tag)| (c, tag)));
    }

    /// The map, sorted for reading (columns set in schema order mostly
    /// are already).
    fn finish(mut self) -> TagMap {
        if !self.pairs.is_sorted() {
            self.pairs.sort_unstable();
        }
        TagMap(self.pairs)
    }
}

/// The ascending, duplicate-free union of two ascending tag sequences.
fn merge(
    a: impl IntoIterator<Item = Tag>,
    b: impl IntoIterator<Item = Tag>,
) -> impl Iterator<Item = Tag> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || match (a.peek().copied(), b.peek().copied()) {
        (Some(x), Some(y)) => {
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
            Some(x.min(y))
        }
        (Some(_), None) => a.next(),
        (None, _) => b.next(),
    })
}

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
            ValueType::Attr => 6,
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
    pub column: ColId,
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

/// The constant columns of one operator, with the value when known.
type Constants = BTreeMap<ColId, Option<Const>>;

/// The known type sets of one operator's columns.
type Types = BTreeMap<ColId, TypeSet>;

/// Every statically inferred property of one plan, per operator.
/// Indexed by [`OpId`]; entries for unreachable operators are
/// empty/false/zero.
///
/// Columns, keys, constants, types, document provenance and sequences are
/// held behind [`Arc`]: an operator whose fact equals its input's shares
/// the input's, so inferring it copies nothing (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProperties {
    /// Output columns, in schema order.
    columns: Vec<Arc<Vec<ColId>>>,
    /// The output is in distinct document order per `iter`.
    doc_ordered: Vec<bool>,
    /// Per operator, the first analyzed operator computing the same
    /// relation (same kind, same parameters, canonical inputs): the id
    /// provenance tags name, so a cloned subplan relates to what its
    /// original relates to.
    canon: Vec<OpId>,
    /// The canonical operators by kind and canonical inputs.
    classes: OpClasses,
    /// Column sets on which each operator's rows are provably distinct.
    keys: Vec<Arc<Vec<ColSet>>>,
    /// Columns provably constant across each operator's rows, with the
    /// constant's value when statically known.
    constants: Vec<Arc<Constants>>,
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
    doc: Vec<Option<Arc<str>>>,
    /// Per column, the value types it can hold; a column without an
    /// entry can hold any type.
    types: Vec<Arc<Types>>,
    /// Row order within `iter`, where known.
    sequence: Vec<Option<Arc<Sequence>>>,
    /// The operators of the subplan rooted here that can raise a dynamic
    /// error (this one included).
    raisers: Vec<Arc<OpSet>>,
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
        let mut pp = PlanProperties::empty();
        pp.extend(plan, stats);
        pp.resolve_order_free(plan);
        pp
    }

    /// An analysis of no operator yet.
    pub(crate) fn empty() -> PlanProperties {
        PlanProperties {
            columns: Vec::new(),
            doc_ordered: Vec::new(),
            canon: Vec::new(),
            classes: OpClasses::default(),
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
        }
    }

    /// Infer the bottom-up facts of every reachable operator that has none
    /// yet — the operators a rewrite created — from the facts of their
    /// inputs, and return how many that was.  Facts already present stay:
    /// they describe an operator's output relation, which the
    /// equivalence-preserving rewrites of the optimizer never change.
    /// Call [`PlanProperties::resolve_order_free`] afterwards before
    /// reading `order_free`.
    pub(crate) fn extend(&mut self, plan: &Plan, stats: &dyn StatsSource) -> usize {
        let n = plan.ops().len();
        if self.analyzed.len() < n {
            self.columns.resize(n, Arc::default());
            self.doc_ordered.resize(n, false);
            self.canon.resize(n, 0);
            self.keys.resize(n, Arc::default());
            self.constants.resize(n, Arc::default());
            self.supersets.resize(n, TagMap::default());
            self.equalsets.resize(n, TagMap::default());
            self.exclusions.resize(n, TagMap::default());
            self.empty.resize(n, false);
            self.rows.resize(n, 0.0);
            self.doc.resize(n, None);
            self.types.resize(n, Arc::default());
            self.sequence.resize(n, None);
            self.raisers.resize(n, Arc::default());
            self.analyzed.resize(n, false);
            self.order_free.resize(n, false);
        }
        let mut inferred = 0;
        for &id in plan.order() {
            if !self.analyzed[id] {
                self.infer(plan, id, stats);
                inferred += 1;
            }
        }
        inferred
    }

    /// Every bottom-up fact of `id`, from its inputs' facts.
    fn infer(&mut self, plan: &Plan, id: OpId, stats: &dyn StatsSource) {
        self.columns[id] = infer_columns(plan, id, self);
        self.doc_ordered[id] = infer_doc_ordered(plan, id, self);
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
        self.keys[id] = infer_keys(plan, id, self);
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
        let canon = &self.canon;
        let inputs = op.children().map(|c| canon[c]);
        // A member matches when it still reads the same canonical inputs
        // and is the same operator once its inputs are `id`'s.
        let same = |member: OpId| {
            let theirs = plan.op(member);
            if theirs.children().map(|c| canon[c]) != inputs {
                return false;
            }
            if theirs.children() == op.children() {
                return theirs.same_as(op);
            }
            let mut theirs = theirs.clone();
            for (slot, child) in op.children().into_iter().enumerate() {
                theirs.replace_child(slot, child);
            }
            theirs.same_as(op)
        };
        self.classes.find_or_insert(op, inputs, id, same)
    }

    /// Re-derive the row-order facts of every reachable operator from the
    /// current plan — after a rewrite that kept each relation's rows but
    /// not their order (join reordering, a rank count), which leaves every
    /// other fact true.
    pub(crate) fn refresh_sequences(&mut self, plan: &Plan) {
        for &id in plan.order() {
            self.sequence[id] = infer_sequence(plan, id, self);
        }
    }

    /// Re-estimate the cardinality and document provenance of every
    /// reachable operator over the current plan (cheap: both only read
    /// the inputs' estimates), so estimates match a fresh analysis.
    pub(crate) fn refresh_estimates(&mut self, plan: &Plan, stats: &dyn StatsSource) {
        for &id in plan.order() {
            let (est, uri) = estimate_op(plan, id, &self.rows, &self.doc, stats);
            self.rows[id] = est;
            self.doc[id] = uri;
        }
    }

    /// Resolve `order_free` top-down over the current plan.
    pub(crate) fn resolve_order_free(&mut self, plan: &Plan) {
        let topo = plan.order();
        self.order_free.iter_mut().for_each(|free| *free = false);
        for &id in topo {
            self.order_free[id] = true;
        }
        // The root's order matters unless serialization's stable pos-sort
        // fully determines it; every other operator is constrained
        // through its consumer edges, parents first.
        let root = plan.root();
        self.order_free[root] =
            self.columns(root).contains(&ColId::POS) && self.keyed_by(root, &[ColId::POS]);
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
    pub fn keyed_by(&self, id: OpId, cols: &[ColId]) -> bool {
        let constants = &self.constants[id];
        self.keys[id].iter().any(|key| {
            key.iter()
                .all(|c| cols.contains(c) || constants.contains_key(c))
        })
    }

    /// Whether permuting the rows of `id` is unobservable in the
    /// serialized result.
    pub fn order_free(&self, id: OpId) -> bool {
        self.order_free[id]
    }

    /// The inferred key sets of `id`, each ascending by id.
    pub fn keys(&self, id: OpId) -> Vec<Vec<ColId>> {
        self.keys[id].iter().map(|key| key.to_vec()).collect()
    }

    /// The provably constant columns of `id`, with statically known
    /// values where available.
    pub fn constants(&self, id: OpId) -> &BTreeMap<ColId, Option<Const>> {
        &self.constants[id]
    }

    /// The output columns of `id` (empty for unreachable operators).
    pub fn columns(&self, id: OpId) -> &[ColId] {
        self.columns
            .get(id)
            .map_or(&[], |columns| columns.as_slice())
    }

    /// Whether the output of `id` is in distinct document order: sorted by
    /// `(iter, item)` with no duplicate item per `iter`.
    pub fn doc_ordered(&self, id: OpId) -> bool {
        self.doc_ordered.get(id).copied().unwrap_or(false)
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
        plan.order()
            .iter()
            .map(|&id| self.rows[id])
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
    pub fn types(&self, id: OpId, col: ColId) -> Option<TypeSet> {
        self.types.get(id).and_then(|t| t.get(&col)).copied()
    }

    /// Every column of `id` with a known type set.
    pub fn typed_columns(&self, id: OpId) -> &BTreeMap<ColId, TypeSet> {
        &self.types[id]
    }

    /// The row order of `id` within `iter`, if known.
    pub fn sequence(&self, id: OpId) -> Option<&Sequence> {
        self.sequence.get(id).and_then(Option::as_deref)
    }

    /// The operators of the subplan rooted at `id` that can raise a
    /// dynamic error.
    pub(crate) fn raisers(&self, id: OpId) -> &OpSet {
        &self.raisers[id]
    }

    /// The known value of a constant column `col` of `id` (`None` for a
    /// parameter slot: its value is not in the plan).
    pub fn constant_value(&self, id: OpId, col: ColId) -> Option<&Value> {
        self.constant(id, col).and_then(Const::value)
    }

    /// The constant in column `col` of `id` — a known value or a
    /// parameter slot — when the analysis can name it.
    pub fn constant(&self, id: OpId, col: ColId) -> Option<&Const> {
        self.constants[id].get(&col).and_then(Option::as_ref)
    }

    /// `true` when every value of column `ac` at `a` provably occurs in
    /// column `bc` at `b`: some tag is a superset of the former and
    /// set-equal to the latter.
    pub(crate) fn value_subset(&self, a: OpId, ac: ColId, b: OpId, bc: ColId) -> bool {
        let own = (self.canon[b], bc);
        self.meets_supersets(a, ac, |tag| {
            tag == own || self.equalsets[b].contains(bc, tag)
        })
    }

    /// Whether some superset of column `c` at `id` — `(id, c)` itself
    /// included — is in a set, given by its membership test.
    fn meets_supersets(&self, id: OpId, c: ColId, contains: impl Fn(Tag) -> bool) -> bool {
        contains((self.canon[id], c)) || self.supersets[id].tags(c).any(contains)
    }
}

/// `keys` without duplicates and without any key that contains another
/// (smallest first).  [`PlanProperties::keyed_by`] answers the same, and
/// every rule that derives keys from input keys is monotone, so nothing
/// downstream changes either — but key lists stay short: without this a
/// chain of joins multiplies its inputs' lists level by level.
fn minimal_keys(mut keys: Vec<ColSet>) -> Vec<ColSet> {
    keys.sort_by_key(|key| key.len());
    // Compact in place: `keys[..kept]` are the minimal keys so far.
    let mut kept = 0;
    for i in 0..keys.len() {
        if !keys[..kept].iter().any(|k| is_subset(k, &keys[i])) {
            keys.swap(kept, i);
            kept += 1;
        }
    }
    keys.truncate(kept);
    keys
}

/// The set of `cols`.
fn cols(cols: &[ColId]) -> ColSet {
    cols.iter().copied().collect()
}

/// `a ⊆ b` for sorted column sets.
fn is_subset(a: &[ColId], b: &[ColId]) -> bool {
    a.iter().all(|c| b.binary_search(c).is_ok())
}

/// `a ∪ b` for sorted column sets.
fn union(a: &[ColId], b: &[ColId]) -> ColSet {
    a.iter().chain(b).copied().collect()
}

/// The tags column `c` has at both `left` and `right` in `maps`.
fn meet(maps: &[TagMap], left: OpId, right: OpId, c: ColId) -> impl Iterator<Item = Tag> + '_ {
    let right = &maps[right];
    maps[left]
        .tags(c)
        .filter(move |&tag| right.contains(c, tag))
}

/// The output columns of `id`, from its inputs' columns: shared with the
/// input when they are the input's.
fn infer_columns(plan: &Plan, id: OpId, pp: &PlanProperties) -> Arc<Vec<ColId>> {
    let extended = |input: OpId, target: ColId| {
        let mut columns = Vec::with_capacity(pp.columns(input).len() + 1);
        columns.extend_from_slice(pp.columns(input));
        columns.push(target);
        columns
    };
    Arc::new(match plan.op(id) {
        AlgOp::Lit { columns, .. } => columns.clone(),
        AlgOp::Doc { .. } => vec![ColId::ITEM],
        AlgOp::Project { columns, .. } => columns.iter().map(|&(_, t)| t).collect(),
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::Difference { left: input, .. }
        | AlgOp::DocOrder { input }
        | AlgOp::Union { left: input, .. }
        | AlgOp::FnData { input }
        | AlgOp::FnRoot { input } => return Arc::clone(&pp.columns[*input]),
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => [pp.columns(*left), pp.columns(*right)].concat(),
        AlgOp::RowNum { input, target, .. }
        | AlgOp::BinaryMap { input, target, .. }
        | AlgOp::UnaryMap { input, target, .. }
        | AlgOp::Attach { input, target, .. } => extended(*input, *target),
        AlgOp::ThetaCount { count, .. } => vec![count.group, count.result],
        AlgOp::Aggregate { group, target, .. } => vec![*group, *target],
        AlgOp::Step { .. }
        | AlgOp::ElemConstruct { .. }
        | AlgOp::TextConstruct { .. }
        | AlgOp::AttrConstruct { .. } => vec![ColId::ITER, ColId::POS, ColId::ITEM],
        AlgOp::Ebv { .. } => vec![ColId::ITER, ColId::ITEM],
    })
}

/// Whether the output of `id` is in distinct document order per `iter`.
/// The staircase join produces that order and removes duplicates per
/// iteration by construction; the row-subset operators keep it.
fn infer_doc_ordered(plan: &Plan, id: OpId, pp: &PlanProperties) -> bool {
    match plan.op(id) {
        AlgOp::Step { .. } | AlgOp::DocOrder { .. } => true,
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::Difference { left: input, .. } => pp.doc_ordered(*input),
        _ => false,
    }
}

/// Value-provenance inference for one operator: `(supersets, equalsets,
/// exclusions)`.  Soundness contract per relation is documented on
/// [`PlanProperties`]'s fields; every arm below must only record
/// relations that hold for the operator's actual value semantics.
fn infer_provenance(plan: &Plan, id: OpId, pp: &PlanProperties) -> (TagMap, TagMap, TagMap) {
    // Room for every input tag plus one own tag per column.
    let room = |maps: &[TagMap]| {
        let inherited: usize = plan
            .op(id)
            .children()
            .iter()
            .map(|&c| maps[c].0.len())
            .sum();
        TagMapBuilder::with_room(inherited + pp.columns(id).len())
    };
    let mut sup = room(&pp.supersets);
    let mut eq = room(&pp.equalsets);
    let mut excl = room(&pp.exclusions);
    // The tag naming column `src` of `input` itself.
    let own = |input: OpId, src: ColId| Some((pp.canon[input], src));
    // Row-preserving rename: `tgt` takes exactly the values `src` had.
    let exact = |sup: &mut TagMapBuilder,
                 eq: &mut TagMapBuilder,
                 excl: &mut TagMapBuilder,
                 input: OpId,
                 src: ColId,
                 tgt: ColId| {
        let own = (pp.canon[input], src);
        sup.put_run(tgt, pp.supersets[input].run(src), own);
        eq.put_run(tgt, pp.equalsets[input].run(src), own);
        excl.put(tgt, pp.exclusions[input].tags(src));
    };
    // Row subset: values shrink — supersets and exclusions carry, set
    // equality does not.
    let subset =
        |sup: &mut TagMapBuilder, excl: &mut TagMapBuilder, input: OpId, src: ColId, tgt: ColId| {
            sup.put_run(tgt, pp.supersets[input].run(src), (pp.canon[input], src));
            excl.put(tgt, pp.exclusions[input].tags(src));
        };
    let cols = |of: OpId| pp.columns(of).iter().copied();
    match plan.op(id) {
        AlgOp::Lit { .. } | AlgOp::Doc { .. } => {}
        AlgOp::Project { input, columns } => {
            for &(src, tgt) in columns {
                exact(&mut sup, &mut eq, &mut excl, *input, src, tgt);
            }
        }
        // Full-row dedup / re-sort preserves every column's value set.
        AlgOp::Distinct { input } | AlgOp::DocOrder { input } => {
            for c in cols(*input) {
                exact(&mut sup, &mut eq, &mut excl, *input, c, c);
            }
        }
        AlgOp::Select { input, .. } | AlgOp::SelectEq { input, .. } => {
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
            for c in cols(*input) {
                if c != *target {
                    exact(&mut sup, &mut eq, &mut excl, *input, c, c);
                }
            }
        }
        // fn:data / fn:root rewrite `item`; other columns ride along
        // row-preserved.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            for c in cols(*input) {
                if c != ColId::ITEM {
                    exact(&mut sup, &mut eq, &mut excl, *input, c, c);
                }
            }
        }
        // The distinct group values survive exactly; the aggregate
        // target is fresh.
        AlgOp::Aggregate { input, group, .. } => {
            exact(&mut sup, &mut eq, &mut excl, *input, *group, *group);
        }
        // Steps emit a subset of the input iterations; item/pos are
        // fresh node/position values.
        AlgOp::Step { input, .. } | AlgOp::Ebv { input } => {
            subset(&mut sup, &mut excl, *input, ColId::ITER, ColId::ITER);
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
            let (lcol, rcol) = (*left_col, *right_col);
            let kept = sup.take(lcol);
            let matched = merge(pp.supersets[*right].tags(rcol), own(*right, rcol));
            sup.put(lcol, merge(kept, matched));
            let kept = sup.take(rcol);
            let matched = merge(pp.supersets[*left].tags(lcol), own(*left, lcol));
            sup.put(rcol, merge(kept, matched));
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
            subset(&mut sup, &mut excl, *left, count.group, count.group);
        }
        // A union row comes from either side: only relations that hold
        // on both survive; a tag equal to both sides equals the union.
        AlgOp::Union { left, right } => {
            for c in cols(id) {
                sup.put(c, meet(&pp.supersets, *left, *right, c));
                eq.put(c, meet(&pp.equalsets, *left, *right, c));
                excl.put(c, meet(&pp.exclusions, *left, *right, c));
            }
        }
        AlgOp::Difference { left, right } => {
            let out: Vec<ColId> = cols(id).collect();
            for &c in &out {
                subset(&mut sup, &mut excl, *left, c, c);
            }
            // A single-column difference is a set complement: its values
            // are disjoint from the right side — and from anything whose
            // value set *equals* the right side's.
            if let [c] = out[..] {
                let kept = excl.take(c);
                let equal = merge(pp.equalsets[*right].tags(c), own(*right, c));
                excl.put(c, merge(kept, equal));
            }
        }
        // One output row per loop row; iter values survive exactly, the
        // item (fresh node ids) does not.
        AlgOp::ElemConstruct { loop_input, .. } | AlgOp::AttrConstruct { loop_input, .. } => {
            exact(
                &mut sup,
                &mut eq,
                &mut excl,
                *loop_input,
                ColId::ITER,
                ColId::ITER,
            );
        }
        // τ builds no node for an iteration without content: its iters
        // are a subset of the loop's.
        AlgOp::TextConstruct { loop_input, .. } => {
            subset(&mut sup, &mut excl, *loop_input, ColId::ITER, ColId::ITER);
        }
    }
    (sup.finish(), eq.finish(), excl.finish())
}

/// The minimal keys of `id` (see [`minimal_keys`]), shared with the
/// input's when they are the input's.
fn infer_keys(plan: &Plan, id: OpId, pp: &PlanProperties) -> Arc<Vec<ColSet>> {
    let shared = |input: OpId| Arc::clone(&pp.keys[input]);
    Arc::new(minimal_keys(match plan.op(id) {
        AlgOp::Lit { rows, .. } if rows.len() <= 1 => vec![ColSet::default()],
        AlgOp::Lit { rows, .. } if rows.len() > LIT_SCAN_CAP => Vec::new(),
        AlgOp::Lit { columns, rows } => {
            let mut keys = Vec::new();
            for (idx, col) in columns.iter().enumerate() {
                let mut seen: Vec<&Value> = Vec::with_capacity(rows.len());
                let distinct = rows.iter().all(|r| {
                    // Two parameter slots may be bound to one value.
                    let Const::Value(v) = &r[idx] else {
                        return false;
                    };
                    if seen.contains(&v) {
                        false
                    } else {
                        seen.push(v);
                        true
                    }
                });
                if distinct {
                    keys.push(cols(&[*col]));
                }
            }
            keys
        }
        AlgOp::Doc { .. } => vec![ColSet::default()],
        AlgOp::Project { input, columns } => {
            let mut renamed = Vec::new();
            for key in pp.keys[*input].iter() {
                // A source column the projection drops kills the key —
                // unless it is constant at the input, in which case it
                // never contributed to distinctness anyway.  A source
                // copied under several names keys the output under each.
                let mut mapped: Vec<ColSet> = vec![ColSet::default()];
                for &source in key {
                    let targets: Vec<ColId> = columns
                        .iter()
                        .filter(|&&(s, _)| s == source)
                        .map(|&(_, t)| t)
                        .collect();
                    if targets.is_empty() {
                        if pp.constants[*input].contains_key(&source) {
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
        | AlgOp::Difference { left: input, .. } => return shared(*input),
        // Row-preserving operators keep existing keys (they only add or
        // reorder columns / rows).
        AlgOp::Attach { input, .. }
        | AlgOp::UnaryMap { input, .. }
        | AlgOp::BinaryMap { input, .. } => return shared(*input),
        AlgOp::Distinct { input } => {
            let mut keys = pp.keys[*input].to_vec();
            keys.push(cols(pp.columns(id)));
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
            for kl in pp.keys[*left].iter() {
                for kr in pp.keys[*right].iter() {
                    keys.push(union(kl, kr));
                }
            }
            // If the join column keys one side, every row of the other
            // side matches at most once, so that side's keys survive.
            if pp.keyed_by(*right, &[*right_col]) {
                keys.extend(pp.keys[*left].iter().cloned());
            }
            if pp.keyed_by(*left, &[*left_col]) {
                keys.extend(pp.keys[*right].iter().cloned());
            }
            keys
        }
        AlgOp::ThetaJoin { left, right, .. } | AlgOp::Cross { left, right } => {
            let mut keys = Vec::new();
            for kl in pp.keys[*left].iter() {
                for kr in pp.keys[*right].iter() {
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
            let mut keys = pp.keys[*input].to_vec();
            keys.push(std::iter::once(*target).chain(*partition).collect());
            keys
        }
        // One row per distinct group value, whatever the inputs' keys.
        AlgOp::Aggregate { group, .. } => vec![cols(&[*group])],
        AlgOp::ThetaCount { count, .. } => vec![cols(&[count.group])],
        // Steps and ddo sort + dedup on (iter, item) and renumber pos
        // within iter: both (iter, pos) and (iter, item) key the output.
        // An element has at most one attribute of a given name, so a
        // named attribute step over one context node per iteration
        // yields at most one row per iteration.
        // (An attribute step yields attribute *values*, which repeat.)
        AlgOp::Step { input, axis, test } => {
            let mut keys = vec![cols(&[ColId::ITER, ColId::POS])];
            if *axis != Axis::Attribute {
                keys.push(cols(&[ColId::ITER, ColId::ITEM]));
            }
            let iter = cols(&[ColId::ITER]);
            if *axis == Axis::Attribute
                && matches!(test, NodeTest::Attribute(_))
                && pp.keyed_by(*input, &iter)
            {
                keys.push(iter);
            }
            keys
        }
        AlgOp::DocOrder { .. } => vec![
            cols(&[ColId::ITER, ColId::POS]),
            cols(&[ColId::ITER, ColId::ITEM]),
        ],
        AlgOp::Ebv { .. } => vec![cols(&[ColId::ITER])],
        // fn:data / fn:root rewrite the item column, which can collapse
        // distinct items; keys not involving `item` survive.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => pp.keys[*input]
            .iter()
            .filter(|k| !k.contains(&ColId::ITEM))
            .cloned()
            .collect(),
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
                return shared(*right);
            }
            if pp.empty[*right] {
                return shared(*left);
            }
            let mut discriminators: Vec<ColId> = Vec::new();
            for &c in pp.columns(id) {
                let known = |side: OpId| pp.constant_value(side, c);
                if let (Some(va), Some(vb)) = (known(*left), known(*right)) {
                    if va != vb {
                        discriminators.push(c);
                        continue;
                    }
                }
                let disjoint = |a: OpId, b: OpId| {
                    pp.meets_supersets(a, c, |tag| pp.exclusions[b].contains(c, tag))
                };
                if disjoint(*left, *right) || disjoint(*right, *left) {
                    discriminators.push(c);
                }
            }
            let mut keys: Vec<ColSet> = Vec::new();
            for &c in &discriminators {
                for kl in pp.keys[*left].iter() {
                    for kr in pp.keys[*right].iter() {
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
            let mut keys = vec![cols(&[ColId::ITEM])];
            let iter = cols(&[ColId::ITER]);
            if pp.keyed_by(*loop_input, &iter) {
                keys.push(iter);
            }
            keys
        }
    }))
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
            pp.empty[*input] || pp.constant_value(*input, *column) == Some(&Value::Bool(false))
        }
        AlgOp::SelectEq {
            input,
            column,
            value,
        } => {
            pp.empty[*input]
                || pp
                    .constant_value(*input, *column)
                    .is_some_and(|c| c != value)
        }
        AlgOp::Project { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::DocOrder { input }
        | AlgOp::RowNum { input, .. }
        | AlgOp::BinaryMap { input, .. }
        | AlgOp::UnaryMap { input, .. }
        | AlgOp::Attach { input, .. }
        | AlgOp::Aggregate { input, .. }
        | AlgOp::Step { input, .. }
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

/// The constant columns of `id`: shared with the input's when they are
/// the input's.
fn infer_constants(plan: &Plan, id: OpId, pp: &PlanProperties) -> Arc<Constants> {
    let shared = |input: OpId| Arc::clone(&pp.constants[input]);
    // The input's constants with `col` set to `value`.
    let with = |input: OpId, col: ColId, value: Option<Const>| {
        let known = &pp.constants[input];
        if known.get(&col) == Some(&value) {
            return Arc::clone(known);
        }
        let mut c = Constants::clone(known);
        c.insert(col, value);
        Arc::new(c)
    };
    // The input's constants without `col`.
    let without = |input: OpId, col: ColId| {
        let known = &pp.constants[input];
        if !known.contains_key(&col) {
            return Arc::clone(known);
        }
        let mut c = Constants::clone(known);
        c.remove(&col);
        Arc::new(c)
    };
    Arc::new(match plan.op(id) {
        AlgOp::Lit { columns, rows } => {
            if rows.is_empty() {
                columns.iter().map(|&c| (c, None)).collect()
            } else if rows.len() > LIT_SCAN_CAP {
                Constants::new()
            } else {
                columns
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| rows.iter().all(|r| r[*idx] == rows[0][*idx]))
                    .map(|(idx, &c)| (c, Some(rows[0][idx].clone())))
                    .collect()
            }
        }
        // One row: its only column is constant, the value opaque.
        AlgOp::Doc { .. } => std::iter::once((ColId::ITEM, None)).collect(),
        AlgOp::Project { input, columns } => columns
            .iter()
            .filter_map(|&(s, t)| pp.constants[*input].get(&s).map(|v| (t, v.clone())))
            .collect(),
        // Survivors all carry `true` / the matched constant in `column`.
        AlgOp::Select { input, column } => {
            return with(*input, *column, Some(Const::Value(Value::Bool(true))));
        }
        AlgOp::SelectEq {
            input,
            column,
            value,
        } => return with(*input, *column, Some(Const::Value(value.clone()))),
        // Row subsets / reorders keep every constant column constant.
        AlgOp::Distinct { input } | AlgOp::Difference { left: input, .. } => return shared(*input),
        AlgOp::Attach {
            input,
            target,
            value,
        } => return with(*input, *target, Some(value.clone())),
        AlgOp::UnaryMap { input, target, .. }
        | AlgOp::BinaryMap { input, target, .. }
        | AlgOp::RowNum { input, target, .. } => return without(*input, *target),
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => {
            if pp.constants[*right].is_empty() {
                return shared(*left);
            }
            let mut c = Constants::clone(&pp.constants[*left]);
            for (col, v) in pp.constants[*right].iter() {
                c.entry(*col).or_insert_with(|| v.clone());
            }
            c
        }
        // A column constant on both sides with the same known value is
        // still constant after concatenation — and a provably empty side
        // contributes no rows at all, so the other side's constants
        // survive as they are.
        AlgOp::Union { left, right } => {
            if pp.empty[*left] {
                return shared(*right);
            }
            if pp.empty[*right] {
                return shared(*left);
            }
            let mut c = Constants::new();
            for (col, v) in pp.constants[*left].iter() {
                let (Some(va), Some(Some(vb))) = (v, pp.constants[*right].get(col)) else {
                    continue;
                };
                if va == vb {
                    c.insert(*col, Some(va.clone()));
                }
            }
            c
        }
        AlgOp::Aggregate { input, group, .. } => group_constant(pp, *input, *group),
        AlgOp::ThetaCount { left, count, .. } => group_constant(pp, *left, count.group),
        AlgOp::Step { input, .. } | AlgOp::Ebv { input } => group_constant(pp, *input, ColId::ITER),
        AlgOp::DocOrder { input } => [ColId::ITER, ColId::ITEM]
            .into_iter()
            .filter_map(|col| Some((col, pp.constants[*input].get(&col)?.clone())))
            .collect(),
        // The item column is rewritten: still constant when the input
        // item was (same node ⇒ same atomization), but the value is no
        // longer statically known.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            return if pp.constants[*input].contains_key(&ColId::ITEM) {
                with(*input, ColId::ITEM, None)
            } else {
                shared(*input)
            };
        }
        AlgOp::ElemConstruct { loop_input, .. }
        | AlgOp::AttrConstruct { loop_input, .. }
        | AlgOp::TextConstruct { loop_input, .. } => {
            let mut c = Constants::new();
            if pp.constants[*loop_input].contains_key(&ColId::ITER) {
                c.insert(ColId::ITER, None);
            }
            c
        }
    })
}

/// Per-column type sets: Boolean at comparisons, `ebv`, `not` and Boolean
/// constants, carried by renames and row subsets, united at `∪` — shared
/// with the input's when they are the input's.
fn infer_types(plan: &Plan, id: OpId, pp: &PlanProperties) -> Arc<Types> {
    let carry = |input: OpId| Arc::clone(&pp.types[input]);
    // The input's types with `col` set to `t` (`None`: any type).
    let with = |input: OpId, col: ColId, t: Option<TypeSet>| {
        let known = &pp.types[input];
        if known.get(&col).copied() == t {
            return Arc::clone(known);
        }
        let mut types = Types::clone(known);
        set_type(&mut types, col, t);
        Arc::new(types)
    };
    // A fresh map of the given types.
    let fresh = |typed: &[(ColId, Option<TypeSet>)]| {
        let mut types = Types::new();
        for &(col, t) in typed {
            set_type(&mut types, col, t);
        }
        types
    };
    let boolean = Some(TypeSet::of(ValueType::Bool));
    let node = Some(TypeSet::of(ValueType::Node));
    Arc::new(match plan.op(id) {
        AlgOp::Lit { columns, rows } => {
            if rows.len() > LIT_SCAN_CAP {
                return Arc::default();
            }
            columns
                .iter()
                .enumerate()
                .map(|(idx, c)| {
                    let t = rows.iter().fold(TypeSet::NONE, |t, r| {
                        t.union(TypeSet::of(r[idx].value_type()))
                    });
                    (*c, t)
                })
                .collect()
        }
        AlgOp::Doc { .. } => fresh(&[(ColId::ITEM, node)]),
        AlgOp::Project { input, columns } => columns
            .iter()
            .filter_map(|&(s, t)| pp.types[*input].get(&s).map(|ty| (t, *ty)))
            .collect(),
        // Survivors carry `true` in the column (anything else is an error).
        AlgOp::Select { input, column } => return with(*input, *column, boolean),
        AlgOp::SelectEq { input, .. }
        | AlgOp::Distinct { input }
        | AlgOp::DocOrder { input }
        | AlgOp::Difference { left: input, .. } => return carry(*input),
        AlgOp::Attach {
            input,
            target,
            value,
        } => return with(*input, *target, Some(TypeSet::of(value.value_type()))),
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
            return with(*input, *target, t);
        }
        AlgOp::UnaryMap {
            input, target, op, ..
        } => {
            return with(
                *input,
                *target,
                (*op == UnaryOp::Not).then_some(boolean).flatten(),
            );
        }
        AlgOp::RowNum { input, target, .. } => {
            return with(*input, *target, Some(TypeSet::of(ValueType::Nat)));
        }
        AlgOp::Aggregate { input, group, .. } => {
            fresh(&[(*group, pp.types[*input].get(group).copied())])
        }
        AlgOp::ThetaCount { left, count, .. } => {
            fresh(&[(count.group, pp.types[*left].get(&count.group).copied())])
        }
        // Attribute steps yield the attribute values, every other axis
        // nodes.
        AlgOp::Step { input, axis, .. } => {
            let item = match axis {
                Axis::Attribute => ValueType::Str,
                _ => ValueType::Node,
            };
            fresh(&[
                (ColId::ITER, pp.types[*input].get(&ColId::ITER).copied()),
                (ColId::POS, Some(TypeSet::of(ValueType::Nat))),
                (ColId::ITEM, Some(TypeSet::of(item))),
            ])
        }
        AlgOp::Ebv { input } => fresh(&[
            (ColId::ITER, pp.types[*input].get(&ColId::ITER).copied()),
            (ColId::ITEM, boolean),
        ]),
        AlgOp::FnData { input } => return with(*input, ColId::ITEM, None),
        AlgOp::FnRoot { input } => return with(*input, ColId::ITEM, node),
        AlgOp::EquiJoin { left, right, .. }
        | AlgOp::ThetaJoin { left, right, .. }
        | AlgOp::Cross { left, right } => {
            if pp.types[*right].is_empty() {
                return carry(*left);
            }
            let mut types = Types::clone(&pp.types[*left]);
            types.extend(pp.types[*right].iter().map(|(&c, &t)| (c, t)));
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
                .filter_map(|(&c, l)| pp.types[*right].get(&c).map(|r| (c, l.union(*r))))
                .collect()
        }
        // A constructed attribute travels as an encoded string.
        AlgOp::ElemConstruct { .. } | AlgOp::TextConstruct { .. } => fresh(&[(ColId::ITEM, node)]),
        AlgOp::AttrConstruct { .. } => return Arc::default(),
    })
}

/// Set the type set of `col` (`None`: any type, no entry).
fn set_type(types: &mut Types, col: ColId, t: Option<TypeSet>) {
    match t {
        Some(t) => types.insert(col, t),
        None => types.remove(&col),
    };
}

/// Row order within `iter` (see [`Sequence`]).  Steps, `ddo` and `%·/iter`
/// produce a dense one; π, `@` and maps keep it; σ, δ, `∖` and the
/// left-major joins keep the order but lose the density.
fn infer_sequence(plan: &Plan, id: OpId, pp: &PlanProperties) -> Option<Arc<Sequence>> {
    let dense = |column: ColId| {
        Some(Arc::new(Sequence {
            column,
            dense: true,
        }))
    };
    // The input's order, without its density.
    let sparse = |input: OpId| {
        let seq = pp.sequence[input].as_ref()?;
        if !seq.dense {
            return Some(Arc::clone(seq));
        }
        Some(Arc::new(Sequence {
            column: seq.column,
            dense: false,
        }))
    };
    match plan.op(id) {
        // Steps and ddo sort by (iter, document order) and number `pos`
        // within each iter.
        AlgOp::Step { .. } | AlgOp::DocOrder { .. } => dense(ColId::POS),
        // % re-sorts by (partition, order keys) and numbers within each
        // partition: per iter, or over the whole table when iter is
        // constant.
        AlgOp::RowNum {
            input,
            target,
            partition,
            ..
        } => {
            let has_iter = pp.columns(*input).contains(&ColId::ITER);
            let per_iter = match partition {
                Some(p) => *p == ColId::ITER,
                None => pp.constants[*input].contains_key(&ColId::ITER),
            };
            (has_iter && per_iter).then(|| dense(*target)).flatten()
        }
        AlgOp::Project { input, columns } => {
            let seq = pp.sequence[*input].as_ref()?;
            columns
                .iter()
                .find(|&&(s, t)| s == ColId::ITER && t == ColId::ITER)?;
            let &(_, target) = columns.iter().find(|&&(s, _)| s == seq.column)?;
            if target == seq.column {
                return Some(Arc::clone(seq));
            }
            Some(Arc::new(Sequence {
                column: target,
                dense: seq.dense,
            }))
        }
        AlgOp::Attach { input, .. }
        | AlgOp::BinaryMap { input, .. }
        | AlgOp::UnaryMap { input, .. } => pp.sequence[*input].clone(),
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => pp.sequence[*input]
            .clone()
            .filter(|s| s.column != ColId::ITEM),
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
fn infer_raisers(plan: &Plan, id: OpId, pp: &PlanProperties) -> Arc<OpSet> {
    let op = plan.op(id);
    let raises = match op {
        AlgOp::Select { input, column } => {
            !pp.types(*input, *column).is_some_and(TypeSet::is_boolean)
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
    if let ([input], false) = (&op.children()[..], raises) {
        return Arc::clone(&pp.raisers[*input]);
    }
    let mut set = OpSet::new();
    for child in op.children() {
        opset_union(&mut set, &pp.raisers[child]);
    }
    if raises {
        opset_insert(&mut set, id);
    }
    Arc::new(set)
}

/// The constants of a grouping operator: its group column, when that is
/// constant at `input`.
fn group_constant(pp: &PlanProperties, input: OpId, group: ColId) -> Constants {
    let known = pp.constants[input].get(&group);
    known.map(|v| (group, v.clone())).into_iter().collect()
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
        // Rownum numbers rows in (order_by, input-order) sequence within
        // each partition: deterministic content iff the sort keys cover
        // a key; the output *order* still follows the input.
        AlgOp::RowNum {
            order_by,
            partition,
            ..
        } => {
            let cols: Vec<ColId> = order_by
                .iter()
                .map(|s| s.column)
                .chain(*partition)
                .collect();
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
                if pp.keyed_by(child, &[ColId::ITER]) {
                    parent_free
                } else {
                    false
                }
            } else {
                pp.keyed_by(child, &[ColId::ITER, ColId::POS])
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
    doc: &[Option<Arc<str>>],
    stats: &dyn StatsSource,
) -> (f64, Option<Arc<str>>) {
    match plan.op(id) {
        AlgOp::Lit { rows: r, .. } => (r.len() as f64, None),
        AlgOp::Doc { uri } => (1.0, Some(uri.as_str().into())),
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
        | AlgOp::FnRoot { input } => (rows[*input], doc[*input].clone()),
        // Constructors emit one node per loop iteration (content rows are
        // folded into those nodes).  The constructed nodes live in a new
        // transient document, so provenance resets.
        AlgOp::ElemConstruct { loop_input, .. }
        | AlgOp::AttrConstruct { loop_input, .. }
        | AlgOp::TextConstruct { loop_input, .. } => (rows[*loop_input], None),
    }
}

fn merge_doc(doc: &[Option<Arc<str>>], left: OpId, right: OpId) -> Option<Arc<str>> {
    match (&doc[left], &doc[right]) {
        (Some(l), Some(r)) if l == r => Some(l.clone()),
        (Some(l), None) => Some(l.clone()),
        (None, Some(r)) => Some(r.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::ops::SortSpec;
    use crate::plan::PlanBuilder;
    use crate::test_cols::{builder, col};
    use pf_store::DocStore;

    fn set(cols: &[&str]) -> Vec<ColId> {
        cols.iter().map(|c| col(c)).collect()
    }

    fn doc_step(b: &mut PlanBuilder, uri: &str) -> OpId {
        let d = b.add(AlgOp::Doc { uri: uri.into() });
        let l = b.add(AlgOp::Attach {
            input: d,
            target: col("iter"),
            value: Value::Nat(1).into(),
        });
        let p = b.add(AlgOp::Project {
            input: l,
            columns: vec![(col("iter"), col("iter")), (col("item"), col("item"))],
        });
        b.add(AlgOp::Step {
            input: p,
            axis: Axis::Descendant,
            test: NodeTest::Element("a".into()),
        })
    }

    #[test]
    fn step_output_is_doc_ordered_and_distinct() {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![],
        });
        let step = b.add(AlgOp::Step {
            input: lit,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let ddo = b.add(AlgOp::DocOrder { input: step });
        let plan = b.finish(ddo);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.doc_ordered(step));
        assert!(pp.keyed_by(step, &set(&["iter", "item"])));
        assert_eq!(pp.columns(step), [col("iter"), col("pos"), col("item")]);
        assert!(pp.doc_ordered(ddo));
        assert!(!pp.doc_ordered(lit));
    }

    #[test]
    fn project_tracks_renamed_columns() {
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos"), col("item")],
            rows: vec![vec![
                Value::Nat(1).into(),
                Value::Nat(1).into(),
                Value::Int(5).into(),
            ]],
        });
        let proj = b.add(AlgOp::Project {
            input: lit,
            columns: vec![(col("iter"), col("outer")), (col("item"), col("item"))],
        });
        let plan = b.finish(proj);
        let pp = PlanProperties::analyze(&plan);
        assert_eq!(pp.columns(proj), [col("outer"), col("item")]);
    }

    #[test]
    fn join_concatenates_schemas_and_clears_order() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![],
        });
        let r = b.add(AlgOp::Lit {
            columns: vec![col("inner"), col("outer")],
            rows: vec![],
        });
        let j = b.add(AlgOp::EquiJoin {
            left: l,
            right: r,
            left_col: col("iter"),
            right_col: col("outer"),
        });
        let plan = b.finish(j);
        let pp = PlanProperties::analyze(&plan);
        assert_eq!(pp.columns(j), [col("iter"), col("inner"), col("outer")]);
        assert!(!pp.doc_ordered(j));
    }

    #[test]
    fn rownum_adds_key_column() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos")],
            rows: vec![],
        });
        let r = b.add(AlgOp::RowNum {
            input: l,
            target: col("inner"),
            order_by: vec![SortSpec::asc(col("iter")), SortSpec::asc(col("pos"))],
            partition: None,
        });
        let plan = b.finish(r);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.keyed_by(r, &set(&["inner"])));
        assert_eq!(pp.columns(r), [col("iter"), col("pos"), col("inner")]);
    }

    /// The unified pass agrees with itself: one analysis carries schema,
    /// keys, constants, cardinality and provenance for the same ops.
    #[test]
    fn one_pass_carries_every_property_family() {
        let mut b = builder();
        let s = doc_step(&mut b, "doc.xml");
        let plan = b.finish(s);
        let pp = PlanProperties::analyze(&plan);
        assert_eq!(pp.columns(s), [col("iter"), col("pos"), col("item")]);
        assert!(pp.keyed_by(s, &set(&["pos"])), "iter is constant");
        assert!(pp.constants(s).contains_key(&col("iter")));
        assert_eq!(pp.doc(s), Some("doc.xml"));
        assert!(pp.rows(s) > 0.0);
        assert!(pp.order_free(s));
        assert!(pp.doc_ordered(s));
    }

    /// The analysis's canonical operators follow hash-consing: `0.0` and
    /// `-0.0` are different relations, two NaN literals the same one.
    #[test]
    fn canonical_operators_tell_signed_zeros_apart_and_merge_nans() {
        let (plan, [zeros, nans, lit_zeros, lit_nans], _) = crate::optimize::dedup::float_twins();
        let pp = PlanProperties::analyze(&plan);
        for (left, right) in [zeros, lit_zeros] {
            assert_ne!(pp.canon[left], pp.canon[right], "0.0 and -0.0 differ");
        }
        for (left, right) in [nans, lit_nans] {
            assert_eq!(pp.canon[left], pp.canon[right], "the NaN twins are one");
        }
    }

    #[test]
    fn unreachable_operators_have_empty_properties() {
        let mut b = builder();
        let keep = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("pos")],
            rows: vec![vec![Value::Nat(1).into(), Value::Nat(1).into()]],
        });
        let orphan = b.add(AlgOp::Distinct { input: keep });
        let plan = b.finish(keep);
        let pp = PlanProperties::analyze(&plan);
        assert!(!pp.doc_ordered(orphan));
        assert!(pp.columns(orphan).is_empty());
        assert!(pp.keys(orphan).is_empty());
        assert_eq!(pp.rows(orphan), 0.0);
        assert!(pp.doc(orphan).is_none());
    }

    #[test]
    fn doc_provenance_resets_at_constructors_and_merges_at_joins() {
        let mut b = builder();
        let s = doc_step(&mut b, "d");
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: s,
            right: lit,
            left_col: col("iter"),
            right_col: col("iter"),
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
        let mut b = builder();
        let nats = |n: u64| {
            (1..=n)
                .map(|i| vec![Value::Nat(i).into(), Value::Nat(i).into()])
                .collect()
        };
        let l = b.add(AlgOp::Lit {
            columns: vec![col("g"), col("k")],
            rows: nats(30),
        });
        let r = b.add(AlgOp::Lit {
            columns: vec![col("id"), col("v")],
            rows: nats(60),
        });
        let op = pf_relational::ops::BinaryOp::Cmp(pf_relational::ops::CmpOp::Gt);
        let pairs = b.add(AlgOp::ThetaJoin {
            left: l,
            right: r,
            left_col: col("k"),
            op,
            right_col: col("v"),
        });
        let count = b.add(AlgOp::ThetaCount {
            left: l,
            right: r,
            count: pf_relational::ops::RankCount {
                group: col("g"),
                left_col: col("k"),
                op,
                right_id: col("id"),
                right_col: col("v"),
                result: col("n"),
            },
        });
        let both = b.add(AlgOp::Cross {
            left: pairs,
            right: count,
        });
        let pp = PlanProperties::analyze(&b.finish(both));
        assert_eq!(pp.rows(pairs), 600.0);
        assert_eq!(pp.rows(count), 30.0);
        assert_eq!(pp.columns(count), [col("g"), col("n")]);
        assert!(pp.keyed_by(count, &set(&["g"])));
    }

    #[test]
    fn provably_empty_sides_keep_union_properties() {
        // ∪(σ over a 1-row lit, empty lit): the empty side must not cost
        // the union the non-empty side's keys and constants.
        let mut b = builder();
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("a"), col("v")],
            rows: vec![vec![Value::Nat(1).into(), Value::Nat(7).into()]],
        });
        let sel = b.add(AlgOp::SelectEq {
            input: lit,
            column: col("v"),
            value: Value::Nat(7),
        });
        let empty = b.add(AlgOp::Lit {
            columns: vec![col("a"), col("v")],
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
            pp.constants(u).get(&col("v")),
            Some(&Some(Const::Value(Value::Nat(7)))),
            "constant survives a provably empty union side"
        );
        assert!(
            !pp.keys(u).is_empty(),
            "keys survive a provably empty union side"
        );
    }

    /// A one-iteration literal context under a descendant step.
    fn lit_step(b: &mut PlanBuilder, uri: &str) -> OpId {
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![vec![Value::Nat(1).into(), Value::Nat(0).into()]],
        });
        b.add(AlgOp::Step {
            input: l,
            axis: Axis::Descendant,
            test: NodeTest::Element(uri.into()),
        })
    }

    #[test]
    fn step_output_is_keyed_and_constant_iter_shrinks_the_key() {
        let mut b = builder();
        let s = lit_step(&mut b, "a");
        let plan = b.finish(s);
        let pp = PlanProperties::analyze(&plan);
        // iter is constant (single-iteration literal below), so {pos}
        // alone determines rows.
        assert!(pp.constants(s).contains_key(&col("iter")));
        assert!(pp.keyed_by(s, &set(&["pos"])));
        assert!(pp.keyed_by(s, &set(&["item"])));
        assert!(!pp.keyed_by(s, &[]));
        // Serialization sorts by pos, which keys the root: order-free.
        assert!(pp.order_free(s));
    }

    #[test]
    fn order_sensitive_aggregate_pins_its_input() {
        let mut b = builder();
        let s = lit_step(&mut b, "a");
        let fd = b.add(AlgOp::FnData { input: s });
        let agg = b.add(AlgOp::Aggregate {
            input: fd,
            group: col("iter"),
            target: col("item"),
            func: AggFunc::Sum,
            value: col("item"),
        });
        // Give the root a pos column so serialization is key-covered.
        let at = b.add(AlgOp::Attach {
            input: agg,
            target: col("pos"),
            value: Value::Nat(1).into(),
        });
        let plan = b.finish(at);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.order_free(at));
        assert!(pp.order_free(agg));
        // But everything feeding the Sum is order-pinned.
        assert!(!pp.order_free(fd));
        assert!(!pp.order_free(s));
    }

    #[test]
    fn count_aggregate_keeps_the_region_order_free() {
        let mut b = builder();
        let s = lit_step(&mut b, "a");
        let agg = b.add(AlgOp::Aggregate {
            input: s,
            group: col("iter"),
            target: col("item"),
            func: AggFunc::Count,
            value: col("item"),
        });
        let at = b.add(AlgOp::Attach {
            input: agg,
            target: col("pos"),
            value: Value::Nat(1).into(),
        });
        let plan = b.finish(at);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.order_free(s));
    }

    #[test]
    fn rownum_without_covering_keys_pins_its_input() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![
                vec![Value::Nat(1).into(), Value::Int(5).into()],
                vec![Value::Nat(2).into(), Value::Int(5).into()],
            ],
        });
        let rn = b.add(AlgOp::RowNum {
            input: l,
            target: col("pos"),
            order_by: vec![SortSpec {
                column: col("item"),
                descending: false,
            }],
            partition: None,
        });
        let plan = b.finish(rn);
        let pp = PlanProperties::analyze(&plan);
        // item does not key the literal (duplicate 5s): numbering order
        // observable.
        assert!(!pp.order_free(l));

        // With a key-covering order_by, the same shape is order-free.
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![
                vec![Value::Nat(1).into(), Value::Int(5).into()],
                vec![Value::Nat(2).into(), Value::Int(5).into()],
            ],
        });
        let rn = b.add(AlgOp::RowNum {
            input: l,
            target: col("pos"),
            order_by: vec![SortSpec {
                column: col("iter"),
                descending: false,
            }],
            partition: None,
        });
        let plan = b.finish(rn);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.order_free(l));
        assert!(pp.keyed_by(rn, &set(&["pos"])));
    }

    #[test]
    fn equijoin_on_keyed_side_preserves_other_side_keys() {
        let mut b = builder();
        let s = lit_step(&mut b, "a");
        let lookup = b.add(AlgOp::Lit {
            columns: vec![col("key"), col("val")],
            rows: vec![
                vec![Value::Nat(1).into(), Value::Int(10).into()],
                vec![Value::Nat(2).into(), Value::Int(20).into()],
            ],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: s,
            right: lookup,
            left_col: col("iter"),
            right_col: col("key"),
        });
        let plan = b.finish(join);
        let pp = PlanProperties::analyze(&plan);
        // `key` keys the lookup side, so the step's {iter,pos} key
        // survives the join (and iter is still constant).
        assert!(pp.keyed_by(join, &set(&["pos"])));
    }

    #[test]
    fn root_without_pos_column_is_order_pinned() {
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![vec![Value::Nat(1).into(), Value::Int(1).into()]],
        });
        let plan = b.finish(l);
        let pp = PlanProperties::analyze(&plan);
        assert!(!pp.order_free(l));
    }

    /// Two parameter slots may be bound to one value: a union over two
    /// slot-tagged branches is not discriminated by them, and literal
    /// rows holding two slots are not keyed on them.  The same slot twice
    /// is the same value.
    #[test]
    fn slots_are_never_known_to_differ() {
        let mut b = builder();
        let s1 = lit_step(&mut b, "a");
        let s2 = lit_step(&mut b, "b");
        let t1 = b.add(AlgOp::Attach {
            input: s1,
            target: col("ord"),
            value: Const::Param(0),
        });
        let t2 = b.add(AlgOp::Attach {
            input: s2,
            target: col("ord"),
            value: Const::Param(1),
        });
        let u = b.add(AlgOp::Union {
            left: t1,
            right: t2,
        });
        let same = b.add(AlgOp::Union {
            left: t1,
            right: t1,
        });
        let rows = b.add(AlgOp::Lit {
            columns: vec![col("v")],
            rows: vec![vec![Const::Param(0)], vec![Const::Param(1)]],
        });
        let root = b.add(AlgOp::Cross {
            left: u,
            right: same,
        });
        let root = b.add(AlgOp::Cross {
            left: root,
            right: rows,
        });
        let plan = b.finish(root);
        let pp = PlanProperties::analyze(&plan);
        assert!(!pp.keyed_by(u, &set(&["ord", "pos"])));
        assert_eq!(pp.constant(t1, col("ord")), Some(&Const::Param(0)));
        assert_eq!(pp.constant_value(t1, col("ord")), None);
        assert_eq!(pp.constant(same, col("ord")), Some(&Const::Param(0)));
        assert!(pp.constant(u, col("ord")).is_none());
        assert!(!pp.keyed_by(rows, &set(&["v"])));
        assert_eq!(pp.types(t1, col("ord")), Some(TypeSet::of(ValueType::Str)));
    }

    /// Two branches tagged with different `ord` constants: the union is
    /// keyed by {ord} ∪ (a key per side).
    #[test]
    fn constant_discriminated_union_keeps_a_key() {
        let mut b = builder();
        let s1 = lit_step(&mut b, "a");
        let s2 = lit_step(&mut b, "b");
        let t1 = b.add(AlgOp::Attach {
            input: s1,
            target: col("ord"),
            value: Value::Nat(1).into(),
        });
        let t2 = b.add(AlgOp::Attach {
            input: s2,
            target: col("ord"),
            value: Value::Nat(2).into(),
        });
        let u = b.add(AlgOp::Union {
            left: t1,
            right: t2,
        });
        let plan = b.finish(u);
        let pp = PlanProperties::analyze(&plan);
        assert!(pp.keyed_by(u, &set(&["ord", "pos"])));
        assert!(!pp.keyed_by(u, &set(&["pos"])));

        // Same ord value on both sides: no discrimination, no key.
        let mut b = builder();
        let s1 = lit_step(&mut b, "a");
        let s2 = lit_step(&mut b, "b");
        let t1 = b.add(AlgOp::Attach {
            input: s1,
            target: col("ord"),
            value: Value::Nat(1).into(),
        });
        let t2 = b.add(AlgOp::Attach {
            input: s2,
            target: col("ord"),
            value: Value::Nat(1).into(),
        });
        let u = b.add(AlgOp::Union {
            left: t1,
            right: t2,
        });
        let plan = b.finish(u);
        let pp = PlanProperties::analyze(&plan);
        assert!(!pp.keyed_by(u, &set(&["ord", "pos"])));
    }

    /// The compiler's default-branch plumbing: `agg ∪ (all ∖ agg)` on
    /// the iter column.  Provenance proves the sides disjoint, so the
    /// union keeps the {iter} key.
    #[test]
    fn difference_complement_union_keeps_a_key() {
        let mut b = builder();
        let s = lit_step(&mut b, "a");
        // One row per item: iter column = item ids (a key).
        let all = b.add(AlgOp::Project {
            input: s,
            columns: vec![(col("item"), col("iter"))],
        });
        let agg_in = b.add(AlgOp::SelectEq {
            input: s,
            column: col("pos"),
            value: Value::Nat(1),
        });
        let agg_iters = b.add(AlgOp::Project {
            input: agg_in,
            columns: vec![(col("item"), col("iter"))],
        });
        let agg = b.add(AlgOp::Aggregate {
            input: agg_iters,
            group: col("iter"),
            target: col("res"),
            func: AggFunc::Count,
            value: col("iter"),
        });
        let hit = b.add(AlgOp::Project {
            input: agg,
            columns: vec![(col("iter"), col("iter")), (col("res"), col("item"))],
        });
        // Default branch: iters with no aggregate row.
        let agg_keys = b.add(AlgOp::Project {
            input: agg,
            columns: vec![(col("iter"), col("iter"))],
        });
        let missing = b.add(AlgOp::Difference {
            left: all,
            right: agg_keys,
        });
        let dflt = b.add(AlgOp::Attach {
            input: missing,
            target: col("item"),
            value: Value::Int(0).into(),
        });
        let u = b.add(AlgOp::Union {
            left: hit,
            right: dflt,
        });
        let plan = b.finish(u);
        let pp = PlanProperties::analyze(&plan);
        assert!(
            pp.keyed_by(u, &set(&["iter"])),
            "complement union should be keyed on iter; keys = {:?}",
            pp.keys(u)
        );
    }

    struct MapStats(HashMap<String, Arc<DocStatistics>>);

    impl StatsSource for MapStats {
        fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
            self.0.get(uri).cloned()
        }
    }

    fn xml_stats(uri: &str, xml: &str) -> MapStats {
        let store = DocStore::from_xml(uri, xml).unwrap();
        let mut map = HashMap::new();
        map.insert(uri.to_string(), store.statistics());
        MapStats(map)
    }

    #[test]
    fn descendant_step_estimates_from_tag_histogram() {
        let stats = xml_stats("d", "<a><b/><b/><b/><c/></a>");
        let mut b = builder();
        let d = b.add(AlgOp::Doc { uri: "d".into() });
        let step = b.add(AlgOp::Step {
            input: d,
            axis: Axis::Descendant,
            test: NodeTest::Element("b".into()),
        });
        let plan = b.finish(step);
        let pp = PlanProperties::analyze_with(&plan, &stats);
        assert_eq!(pp.rows(step), 3.0);
        assert_eq!(pp.rows(d), 1.0);
    }

    #[test]
    fn empty_input_steps_estimate_zero() {
        let stats = xml_stats("d", "<a><b/></a>");
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter"), col("item")],
            rows: vec![],
        });
        let step = b.add(AlgOp::Step {
            input: l,
            axis: Axis::Descendant,
            test: NodeTest::AnyElement,
        });
        let plan = b.finish(step);
        let pp = PlanProperties::analyze_with(&plan, &stats);
        assert_eq!(pp.rows(step), 0.0);
    }

    #[test]
    fn provenance_survives_joins_and_selections() {
        let stats = xml_stats("d", "<a><b/><b/><c/><c/><c/><c/></a>");
        let mut b = builder();
        let d = b.add(AlgOp::Doc { uri: "d".into() });
        let bs = b.add(AlgOp::Step {
            input: d,
            axis: Axis::Descendant,
            test: NodeTest::Element("b".into()),
        });
        let lit = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()]],
        });
        let join = b.add(AlgOp::EquiJoin {
            left: bs,
            right: lit,
            left_col: col("iter"),
            right_col: col("iter"),
        });
        // The join keeps the document provenance of its left side, so a
        // step above it still finds the tag histogram.
        let cs = b.add(AlgOp::Step {
            input: join,
            axis: Axis::Descendant,
            test: NodeTest::Element("c".into()),
        });
        let plan = b.finish(cs);
        let pp = PlanProperties::analyze_with(&plan, &stats);
        assert_eq!(pp.rows(cs), 4.0);
        assert_eq!(pp.rows(join), 2.0);
    }

    #[test]
    fn peak_rows_takes_the_plan_maximum() {
        let stats = NoStats;
        let mut b = builder();
        let l = b.add(AlgOp::Lit {
            columns: vec![col("iter")],
            rows: vec![vec![Value::Nat(1).into()], vec![Value::Nat(2).into()]],
        });
        let cross = b.add(AlgOp::Cross { left: l, right: l });
        let sel = b.add(AlgOp::SelectEq {
            input: cross,
            column: col("iter"),
            value: Value::Nat(1),
        });
        let plan = b.finish(sel);
        let pp = PlanProperties::analyze_with(&plan, &stats);
        assert_eq!(pp.peak_rows(&plan), 4); // the cross product dominates
    }
}
