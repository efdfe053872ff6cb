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
//! * **order_free** — whether permuting the operator's output rows can
//!   change the serialized query result (the only top-down part,
//!   resolved over consumer edges after the bottom-up pass).
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

use pf_relational::ops::AggFunc;
use pf_relational::Value;
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

/// A value-provenance tag: “the tracked column's values are related to
/// column `.1` of operator `.0`”.
pub(crate) type Tag = (OpId, String);
/// Per-column tag sets for one operator.
pub(crate) type TagMap = BTreeMap<String, BTreeSet<Tag>>;

/// Rows of a literal are scanned for distinctness/constancy only up to
/// this many rows — larger literals simply get no column keys.
const LIT_SCAN_CAP: usize = 64;

/// Provenance tag sets are truncated to this many entries (keeping the
/// smallest, deterministically) so deep plans stay linear to analyze.
const TAG_CAP: usize = 24;

/// Every statically inferred property of one plan, per operator.
/// Indexed by [`OpId`]; entries for unreachable operators are
/// empty/false/zero.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProperties {
    /// Schema properties ([`crate::schema::infer_schema`]-equivalent).
    schema: HashMap<OpId, Properties>,
    /// Column sets on which each operator's rows are provably distinct.
    keys: Vec<Vec<BTreeSet<String>>>,
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
        let n = plan.ops().len();
        let mut pp = PlanProperties {
            schema: HashMap::new(),
            keys: vec![Vec::new(); n],
            constants: vec![BTreeMap::new(); n],
            supersets: vec![TagMap::new(); n],
            equalsets: vec![TagMap::new(); n],
            exclusions: vec![TagMap::new(); n],
            empty: vec![false; n],
            rows: vec![0.0_f64; n],
            doc: vec![None; n],
            order_free: vec![true; n],
        };
        let topo = plan.reachable();
        for &id in &topo {
            let schema = infer_one(plan, id, &pp.schema);
            pp.schema.insert(id, schema);
            pp.empty[id] = infer_empty(plan, id, &pp);
            let (est, uri) = estimate_op(plan, id, &pp.rows, &pp.doc, stats);
            pp.rows[id] = est;
            pp.doc[id] = uri;
            pp.constants[id] = infer_constants(plan, id, &pp);
            let (sup, eq, excl) = infer_provenance(plan, id, &pp);
            pp.supersets[id] = sup;
            pp.equalsets[id] = eq;
            pp.exclusions[id] = excl;
            pp.keys[id] = minimal_keys(infer_keys(plan, id, &pp));
        }
        // Top-down: the root's order matters unless serialization's
        // stable pos-sort fully determines it; every other operator is
        // constrained through its consumer edges, parents first.
        let root = plan.root();
        let pos: BTreeSet<String> = std::iter::once("pos".to_string()).collect();
        pp.order_free[root] = pp
            .schema
            .get(&root)
            .is_some_and(|p| p.columns.iter().any(|c| c == "pos"))
            && pp.keyed_by(root, &pos);
        for &id in topo.iter().rev() {
            let parent_free = pp.order_free[id];
            let children = plan.op(id).children();
            for (slot, &child) in children.iter().enumerate() {
                let edge = edge_order_free(plan.op(id), slot, parent_free, child, &pp);
                pp.order_free[child] &= edge;
            }
        }
        pp
    }

    /// `true` if some key of `id`, after removing provably constant
    /// columns, is contained in `cols` — i.e. rows of `id` are distinct
    /// on `cols`.
    pub fn keyed_by(&self, id: OpId, cols: &BTreeSet<String>) -> bool {
        let constants = &self.constants[id];
        self.keys[id].iter().any(|key| {
            key.iter()
                .all(|c| constants.contains_key(c) || cols.contains(c))
        })
    }

    /// Whether permuting the rows of `id` is unobservable in the
    /// serialized result.
    pub fn order_free(&self, id: OpId) -> bool {
        self.order_free[id]
    }

    /// The inferred key sets of `id`.
    pub fn keys(&self, id: OpId) -> &[BTreeSet<String>] {
        &self.keys[id]
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

    /// `true` when every value of column `ac` at `a` provably occurs in
    /// column `bc` at `b`: some tag is a superset of the former and
    /// set-equal to the latter.
    pub(crate) fn value_subset(&self, a: OpId, ac: &str, b: OpId, bc: &str) -> bool {
        let mut equal = self.equalsets[b].get(bc).cloned().unwrap_or_default();
        equal.insert((b, bc.to_string()));
        !self.supersets_with_self(a, ac).is_disjoint(&equal)
    }

    /// Supersets of column `c` at `id`, including `(id, c)` itself.
    fn supersets_with_self(&self, id: OpId, c: &str) -> BTreeSet<Tag> {
        let mut tags = self.supersets[id].get(c).cloned().unwrap_or_default();
        tags.insert((id, c.to_string()));
        tags
    }
}

/// `keys` without duplicates and without any key that contains another
/// (smallest first).  [`PlanProperties::keyed_by`] answers the same, and
/// every rule that derives keys from input keys is monotone, so nothing
/// downstream changes either — but key lists stay short: without this a
/// chain of joins multiplies its inputs' lists level by level.
fn minimal_keys(mut keys: Vec<BTreeSet<String>>) -> Vec<BTreeSet<String>> {
    keys.sort_by_key(BTreeSet::len);
    let mut minimal: Vec<BTreeSet<String>> = Vec::with_capacity(keys.len());
    for key in keys {
        if !minimal.iter().any(|kept| kept.is_subset(&key)) {
            minimal.push(key);
        }
    }
    minimal
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
fn inherit(maps: &[TagMap], input: OpId, src: &str, include_self: bool) -> BTreeSet<Tag> {
    let mut tags = maps[input].get(src).cloned().unwrap_or_default();
    if include_self {
        tags.insert((input, src.to_string()));
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
    let exact = |sup: &mut TagMap,
                 eq: &mut TagMap,
                 excl: &mut TagMap,
                 input: OpId,
                 src: &str,
                 tgt: &str| {
        sup.insert(tgt.into(), inherit(&pp.supersets, input, src, true));
        eq.insert(tgt.into(), inherit(&pp.equalsets, input, src, true));
        excl.insert(tgt.into(), inherit(&pp.exclusions, input, src, false));
    };
    // Row subset: values shrink — supersets and exclusions carry, set
    // equality does not.
    let subset = |sup: &mut TagMap, excl: &mut TagMap, input: OpId, src: &str, tgt: &str| {
        sup.insert(tgt.into(), inherit(&pp.supersets, input, src, true));
        excl.insert(tgt.into(), inherit(&pp.exclusions, input, src, false));
    };
    let cols = |of: OpId| -> Vec<String> { pp.columns(of).to_vec() };
    match plan.op(id) {
        AlgOp::Lit { .. } | AlgOp::Doc { .. } => {}
        AlgOp::Project { input, columns } => {
            for (src, tgt) in columns {
                exact(&mut sup, &mut eq, &mut excl, *input, src, tgt);
            }
        }
        // Full-row dedup / re-sort preserves every column's value set.
        AlgOp::Sort { input, .. } | AlgOp::Distinct { input } | AlgOp::DocOrder { input } => {
            for c in cols(*input) {
                exact(&mut sup, &mut eq, &mut excl, *input, &c, &c);
            }
        }
        AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
        | AlgOp::IndexScan { input, .. } => {
            for c in cols(*input) {
                subset(&mut sup, &mut excl, *input, &c, &c);
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
                    exact(&mut sup, &mut eq, &mut excl, *input, &c, &c);
                }
            }
        }
        // fn:data / fn:root rewrite `item`; other columns ride along
        // row-preserved.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => {
            for c in cols(*input) {
                if c != "item" {
                    exact(&mut sup, &mut eq, &mut excl, *input, &c, &c);
                }
            }
        }
        // The distinct group values survive exactly; the aggregate
        // target is fresh.
        AlgOp::Aggregate { input, group, .. } => {
            exact(&mut sup, &mut eq, &mut excl, *input, group, group);
        }
        // Steps emit a subset of the input iterations; item/pos are
        // fresh node/position values.
        AlgOp::Step { input, .. } | AlgOp::Ebv { input } => {
            subset(&mut sup, &mut excl, *input, "iter", "iter");
        }
        AlgOp::EquiJoin {
            left,
            right,
            left_col,
            right_col,
        } => {
            for c in cols(*left) {
                subset(&mut sup, &mut excl, *left, &c, &c);
            }
            for c in cols(*right) {
                subset(&mut sup, &mut excl, *right, &c, &c);
            }
            // Matched join columns take values present on *both* sides.
            let lc = sup.entry(left_col.clone()).or_default();
            lc.extend(inherit(&pp.supersets, *right, right_col, true));
            let lc = cap(std::mem::take(lc));
            sup.insert(left_col.clone(), lc);
            let rc = sup.entry(right_col.clone()).or_default();
            rc.extend(inherit(&pp.supersets, *left, left_col, true));
            let rc = cap(std::mem::take(rc));
            sup.insert(right_col.clone(), rc);
        }
        AlgOp::ThetaJoin { left, right, .. } | AlgOp::Cross { left, right } => {
            for c in cols(*left) {
                subset(&mut sup, &mut excl, *left, &c, &c);
            }
            for c in cols(*right) {
                subset(&mut sup, &mut excl, *right, &c, &c);
            }
        }
        // Groups without a match vanish: the group values shrink; the
        // count is fresh.
        AlgOp::ThetaCount { left, count, .. } => {
            subset(&mut sup, &mut excl, *left, &count.group, &count.group);
        }
        // A union row comes from either side: only relations that hold
        // on both survive; a tag equal to both sides equals the union.
        AlgOp::Union { left, right } => {
            for c in cols(id) {
                let meet = |maps: &[TagMap]| -> BTreeSet<Tag> {
                    let l = maps[*left].get(&c).cloned().unwrap_or_default();
                    let r = maps[*right].get(&c).cloned().unwrap_or_default();
                    l.intersection(&r).cloned().collect()
                };
                sup.insert(c.clone(), meet(&pp.supersets));
                eq.insert(c.clone(), meet(&pp.equalsets));
                excl.insert(c.clone(), meet(&pp.exclusions));
            }
        }
        AlgOp::Difference { left, right } => {
            for c in cols(id) {
                subset(&mut sup, &mut excl, *left, &c, &c);
            }
            // A single-column difference is a set complement: its values
            // are disjoint from the right side — and from anything whose
            // value set *equals* the right side's.
            let out = cols(id);
            if let [c] = out.as_slice() {
                let entry = excl.entry(c.clone()).or_default();
                entry.extend(inherit(&pp.equalsets, *right, c, true));
                let capped = cap(std::mem::take(entry));
                excl.insert(c.clone(), capped);
            }
        }
        // One output row per loop row; iter values survive exactly, the
        // item (fresh node ids) does not.
        AlgOp::ElemConstruct { loop_input, .. } | AlgOp::AttrConstruct { loop_input, .. } => {
            exact(&mut sup, &mut eq, &mut excl, *loop_input, "iter", "iter");
        }
        // τ builds no node for an iteration without content: its iters
        // are a subset of the loop's.
        AlgOp::TextConstruct { loop_input, .. } => {
            subset(&mut sup, &mut excl, *loop_input, "iter", "iter");
        }
    }
    (sup, eq, excl)
}

fn infer_keys(plan: &Plan, id: OpId, pp: &PlanProperties) -> Vec<BTreeSet<String>> {
    match plan.op(id) {
        AlgOp::Lit { columns, rows } => {
            if rows.len() <= 1 {
                return vec![BTreeSet::new()];
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
                    keys.push(set(&[col]));
                }
            }
            keys
        }
        AlgOp::Doc { .. } => vec![BTreeSet::new()],
        AlgOp::Project { input, columns } => {
            let mut renamed = Vec::new();
            for key in &pp.keys[*input] {
                // A source column the projection drops kills the key —
                // unless it is constant at the input, in which case it
                // never contributed to distinctness anyway.
                let mapped: Option<BTreeSet<String>> = key
                    .iter()
                    .filter(|source| {
                        columns.iter().any(|(s, _)| s == *source)
                            || !pp.constants[*input].contains_key(*source)
                    })
                    .map(|source| {
                        columns
                            .iter()
                            .find(|(s, _)| s == source)
                            .map(|(_, t)| t.clone())
                    })
                    .collect();
                if let Some(mapped) = mapped {
                    renamed.push(mapped);
                }
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
            if let Some(p) = pp.schema.get(&id) {
                keys.push(p.columns.iter().cloned().collect());
            }
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
                    keys.push(kl.union(kr).cloned().collect());
                }
            }
            // If the join column keys one side, every row of the other
            // side matches at most once, so that side's keys survive.
            let rc = std::iter::once(right_col.clone()).collect();
            if pp.keyed_by(*right, &rc) {
                keys.extend(pp.keys[*left].iter().cloned());
            }
            let lc = std::iter::once(left_col.clone()).collect();
            if pp.keyed_by(*left, &lc) {
                keys.extend(pp.keys[*right].iter().cloned());
            }
            keys
        }
        AlgOp::ThetaJoin { left, right, .. } | AlgOp::Cross { left, right } => {
            let mut keys = Vec::new();
            for kl in &pp.keys[*left] {
                for kr in &pp.keys[*right] {
                    keys.push(kl.union(kr).cloned().collect());
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
            let mut numbered = BTreeSet::new();
            if let Some(p) = partition {
                numbered.insert(p.clone());
            }
            numbered.insert(target.clone());
            keys.push(numbered);
            keys
        }
        // One row per distinct group value, whatever the inputs' keys.
        AlgOp::Aggregate { group, .. } => vec![set(&[group])],
        AlgOp::ThetaCount { count, .. } => vec![set(&[&count.group])],
        // Steps and ddo sort + dedup on (iter, item) and renumber pos
        // within iter: both (iter, pos) and (iter, item) key the output.
        // An element has at most one attribute of a given name, so a
        // named attribute step over one context node per iteration
        // yields at most one row per iteration.
        AlgOp::Step { input, axis, test } => {
            let mut keys = vec![set(&["iter", "pos"]), set(&["iter", "item"])];
            let iter = set(&["iter"]);
            if *axis == Axis::Attribute
                && matches!(test, NodeTest::Attribute(_))
                && pp.keyed_by(*input, &iter)
            {
                keys.push(iter);
            }
            keys
        }
        AlgOp::DocOrder { .. } => vec![set(&["iter", "pos"]), set(&["iter", "item"])],
        AlgOp::Ebv { .. } => vec![set(&["iter"])],
        // fn:data / fn:root rewrite the item column, which can collapse
        // distinct items; keys not involving `item` survive.
        AlgOp::FnData { input } | AlgOp::FnRoot { input } => pp.keys[*input]
            .iter()
            .filter(|k| !k.contains("item"))
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
                return pp.keys[*right].clone();
            }
            if pp.empty[*right] {
                return pp.keys[*left].clone();
            }
            let Some(p) = pp.schema.get(&id) else {
                return Vec::new();
            };
            let mut discriminators: BTreeSet<String> = BTreeSet::new();
            for c in &p.columns {
                let known = |side: OpId| pp.constants[side].get(c).cloned().flatten();
                if let (Some(va), Some(vb)) = (known(*left), known(*right)) {
                    if va != vb {
                        discriminators.insert(c.clone());
                        continue;
                    }
                }
                let disjoint = |a: OpId, b: OpId| {
                    let sup = pp.supersets_with_self(a, c);
                    pp.exclusions[b].get(c).is_some_and(|x| !sup.is_disjoint(x))
                };
                if disjoint(*left, *right) || disjoint(*right, *left) {
                    discriminators.insert(c.clone());
                }
            }
            let mut keys = Vec::new();
            for c in &discriminators {
                for kl in &pp.keys[*left] {
                    for kr in &pp.keys[*right] {
                        let mut key: BTreeSet<String> = kl.union(kr).cloned().collect();
                        key.insert(c.clone());
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
            let mut keys = vec![set(&["item"])];
            let iter = set(&["iter"]);
            if pp.keyed_by(*loop_input, &iter) {
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
        AlgOp::Project { input, .. }
        | AlgOp::Select { input, .. }
        | AlgOp::SelectEq { input, .. }
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
        // One row per document root: iter/pos constant, values opaque.
        AlgOp::Doc { .. } => [("iter".to_string(), None), ("pos".to_string(), None)]
            .into_iter()
            .collect(),
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
