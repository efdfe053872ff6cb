//! The staircase join.
//!
//! The staircase join [Grust, van Keulen, Teubner, VLDB 2003; Mayer et al.,
//! VLDB 2004] is the "injection of tree awareness" the paper adds to the
//! relational kernel: given a document-ordered context node sequence and an
//! axis, it computes the step result in a **single forward pass** over the
//! node table, using three techniques:
//!
//! * **pruning** — context nodes whose axis region is covered by another
//!   context node's region are removed before the scan;
//! * **partitioning** — the document is scanned in disjoint partitions, one
//!   per surviving context node, so no result node is produced twice;
//! * **skipping** — regions that cannot contain results are skipped over
//!   instead of scanned: `child` and the sibling axes hop from sibling to
//!   sibling (`p += size[p] + 1`) and never enter a subtree, and the upward
//!   axes find parents with a *path-stack cursor* that descends from the
//!   document node once and then only moves forward.
//!
//! Node tests are resolved to kind codes and name surrogates before the
//! scan ([`ResolvedTest`]), so the loops compare `kind`/`prop` cells only.
//!
//! The result is returned in document order without duplicates — exactly the
//! encoding the loop-lifted plans expect.  [`StepKernel`] is the product
//! entry point; [`crate::naive_axis_step`] is the oracle it is tested and
//! benchmarked against.

use crate::axis::{Axis, NodeTest, ResolvedTest};
use crate::store::{DocStore, NodeKindCode, PreRank};

/// Counters describing the work a staircase join performed; used by the
/// micro-benchmarks and the ablation tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaircaseStats {
    /// Context nodes remaining after pruning.
    pub pruned_context: usize,
    /// Node-table (attribute axis: attribute-table) rows the kernel read.
    pub rows_scanned: usize,
    /// Rows skipped thanks to tree awareness: pruned subtrees, subtrees
    /// hopped over, regions outside the scan.
    pub rows_skipped: usize,
    /// Result tuples produced.
    pub results: usize,
}

/// Evaluate an axis step with the staircase join.
///
/// `context` must be sorted in document order; duplicates are tolerated.
/// The result is in document order and duplicate free.  The attribute axis
/// selects no tree nodes (see [`StepKernel::attributes`]).
pub fn staircase_join(
    store: &DocStore,
    context: &[PreRank],
    axis: Axis,
    test: &NodeTest,
) -> Vec<PreRank> {
    staircase_join_counted(store, context, axis, test).0
}

/// Like [`staircase_join`] but also returns work counters.
pub fn staircase_join_counted(
    store: &DocStore,
    context: &[PreRank],
    axis: Axis,
    test: &NodeTest,
) -> (Vec<PreRank>, StaircaseStats) {
    let mut kernel = StepKernel::new(store, axis, test);
    let mut out = Vec::new();
    kernel.run(context, |pre| out.push(pre));
    (out, kernel.stats())
}

/// Prune a document-ordered context for the descendant(-or-self)
/// staircase: drop every context node that lies inside the subtree of an
/// earlier context node (its axis region is covered), appending the
/// survivors to `pruned` (the loop-lifted step prunes every iteration's
/// context into one arena).  The survivors root **disjoint** subtrees in
/// document order.  Returns the number of node-table rows the pruning
/// saved.
pub fn descendant_prune_into(
    store: &DocStore,
    context: impl IntoIterator<Item = PreRank>,
    pruned: &mut Vec<PreRank>,
) -> usize {
    let mut covered_until: Option<PreRank> = None;
    let mut skipped = 0usize;
    for c in context {
        let size = store.size_of(c);
        if covered_until.is_some_and(|end| c <= end) {
            skipped += size as usize + 1;
        } else {
            covered_until = Some(c + size);
            pruned.push(c);
        }
    }
    skipped
}

/// One entry of the path stack: a node on the root-to-context path, the
/// last pre rank of its subtree, and its first child the cursor has not
/// reached yet.
#[derive(Debug, Clone, Copy)]
struct Frame {
    pre: PreRank,
    end: PreRank,
    cursor: PreRank,
}

/// One axis step over one document, with the node test resolved to
/// integers once ([`ResolvedTest`]) and a tree-aware kernel per axis.
///
/// A kernel is built per (step, document) and [`run`](Self::run) once per
/// context — in a loop-lifted plan, once per iteration.  It owns the
/// scratch buffers and the *path-stack cursor* the upward and sideways
/// axes navigate with, so consecutive runs whose contexts move forward
/// through the document (the usual shape of a loop-lifted context table)
/// resume where the previous run stopped instead of descending from the
/// root again.
#[derive(Debug)]
pub struct StepKernel<'a> {
    store: &'a DocStore,
    axis: Axis,
    test: ResolvedTest,
    /// The path from the document node to the most recently sought context
    /// node (parent, ancestor and sibling axes); the stack of context nodes
    /// with children still to emit (child axis, empty between runs).
    path: Vec<Frame>,
    /// Results of the axes that can produce them out of document order.
    hits: Vec<PreRank>,
    /// `(parent, context child)` pairs of the sibling axes.
    pairs: Vec<(PreRank, PreRank)>,
    /// First attribute-table row not yet passed by the attribute axis.
    attr_cursor: usize,
    stats: StaircaseStats,
}

impl<'a> StepKernel<'a> {
    /// Resolve `test` against `store` for a step along `axis`.
    pub fn new(store: &'a DocStore, axis: Axis, test: &NodeTest) -> Self {
        let test = if axis == Axis::Attribute {
            test.resolve_attribute(store)
        } else {
            test.resolve(store)
        };
        StepKernel {
            store,
            axis,
            test,
            path: Vec::new(),
            hits: Vec::new(),
            pairs: Vec::new(),
            attr_cursor: 0,
            stats: StaircaseStats::default(),
        }
    }

    /// Work counters, accumulated over every run so far.
    pub fn stats(&self) -> StaircaseStats {
        self.stats
    }

    /// Evaluate the step for one context (document order; duplicates are
    /// tolerated), passing the result nodes to `emit` in document order
    /// and without duplicates.  The attribute axis selects no tree nodes.
    pub fn run(&mut self, context: &[PreRank], mut emit: impl FnMut(PreRank)) {
        debug_assert!(context.is_sorted(), "context must be in document order");
        if self.test == ResolvedTest::Never || context.is_empty() {
            return;
        }
        let mut results = 0usize;
        let mut emit = |pre| {
            results += 1;
            emit(pre)
        };
        match self.axis {
            Axis::Child => self.child(context, &mut emit),
            Axis::SelfAxis => self.self_axis(context, &mut emit),
            Axis::Descendant => self.descendant(context, false, &mut emit),
            Axis::DescendantOrSelf => self.descendant(context, true, &mut emit),
            Axis::Parent => self.parent(context, &mut emit),
            Axis::Ancestor => self.ancestor(context, false, &mut emit),
            Axis::AncestorOrSelf => self.ancestor(context, true, &mut emit),
            Axis::Following => self.following(context, &mut emit),
            Axis::Preceding => self.preceding(context, &mut emit),
            Axis::FollowingSibling => self.siblings(context, true, &mut emit),
            Axis::PrecedingSibling => self.siblings(context, false, &mut emit),
            Axis::Attribute => {}
        }
        self.stats.results += results;
    }

    /// The attribute axis: pass the attribute-table rows owned by the
    /// context nodes and satisfying the test to `emit`, in table order.
    ///
    /// The table is ordered by owner, so the rows of an ascending context
    /// are found by one forward merge walk (galloping over the gaps) that
    /// continues from run to run.
    pub fn attributes(&mut self, context: &[PreRank], mut emit: impl FnMut(usize)) {
        if self.test == ResolvedTest::Never {
            return;
        }
        let owners = &self.store.attr_owner;
        self.stats.pruned_context += context.len();
        for c in distinct(context) {
            if self.attr_cursor > 0 && owners[self.attr_cursor - 1] >= c {
                // Not ahead of the cursor: a new run starts over.
                self.attr_cursor = 0;
            }
            let mut row = gallop(owners, self.attr_cursor, c);
            self.stats.rows_skipped += row - self.attr_cursor;
            while row < owners.len() && owners[row] == c {
                self.stats.rows_scanned += 1;
                let qualifies = match self.test {
                    ResolvedTest::Tag(name) => self.store.attr_name[row] == name,
                    _ => true,
                };
                if qualifies {
                    self.stats.results += 1;
                    emit(row);
                }
                row += 1;
            }
            self.attr_cursor = row;
        }
    }

    /// Read row `pre` as a hop target: count it, test it, and return the
    /// pre rank of its next sibling (its subtree is skipped, not read).
    #[inline]
    fn visit(&mut self, pre: PreRank, emit: &mut impl FnMut(PreRank)) -> PreRank {
        let size = self.store.size[pre as usize];
        self.stats.rows_scanned += 1;
        self.stats.rows_skipped += size as usize;
        if self.test.matches(self.store, pre) {
            emit(pre);
        }
        pre + size + 1
    }

    /// Scan the rows `lo..=hi` sequentially over the `kind`/`prop` column
    /// slices.
    fn scan_range(&mut self, lo: PreRank, hi: PreRank, emit: &mut impl FnMut(PreRank)) {
        if lo > hi {
            return;
        }
        let rows = lo as usize..=hi as usize;
        self.stats.rows_scanned += (hi - lo) as usize + 1;
        match self.test {
            ResolvedTest::Any => (lo..=hi).for_each(emit),
            ResolvedTest::Kind(kind) => {
                for (&k, pre) in self.store.kind[rows].iter().zip(lo..) {
                    if k == kind {
                        emit(pre);
                    }
                }
            }
            ResolvedTest::Tag(tag) => {
                let kinds = &self.store.kind[rows.clone()];
                for ((&p, &k), pre) in self.store.prop[rows].iter().zip(kinds).zip(lo..) {
                    if p == tag && k == NodeKindCode::Element {
                        emit(pre);
                    }
                }
            }
            ResolvedTest::Never => {}
        }
    }

    /// child: hop from child to child (`p += size[p] + 1`), never into a
    /// child's subtree.  Context nodes may nest, and then an outer node's
    /// later children follow the inner node's children in document order:
    /// a stack of open context nodes emits each one's children lazily, up
    /// to the next context node.
    fn child(&mut self, context: &[PreRank], emit: &mut impl FnMut(PreRank)) {
        self.stats.pruned_context += context.len();
        for c in distinct(context) {
            while let Some(mut open) = self.path.pop() {
                let upto = c.min(open.end);
                while open.cursor <= upto {
                    open.cursor = self.visit(open.cursor, emit);
                }
                if c <= open.end {
                    self.path.push(open);
                    break;
                }
            }
            self.path.push(Frame {
                pre: c,
                end: c + self.store.size[c as usize],
                cursor: c + 1,
            });
        }
        while let Some(mut open) = self.path.pop() {
            while open.cursor <= open.end {
                open.cursor = self.visit(open.cursor, emit);
            }
        }
    }

    /// self: a filter over the context.
    fn self_axis(&mut self, context: &[PreRank], emit: &mut impl FnMut(PreRank)) {
        self.stats.pruned_context += context.len();
        for c in distinct(context) {
            self.stats.rows_scanned += 1;
            if self.test.matches(self.store, c) {
                emit(c);
            }
        }
    }

    /// descendant / descendant-or-self: prune context nodes covered by an
    /// earlier one, then scan each surviving subtree exactly once.
    fn descendant(&mut self, context: &[PreRank], or_self: bool, emit: &mut impl FnMut(PreRank)) {
        let mut covered_until: Option<PreRank> = None;
        for &c in context {
            let size = self.store.size[c as usize];
            if covered_until.is_some_and(|end| c <= end) {
                self.stats.rows_skipped += size as usize + 1;
                continue;
            }
            covered_until = Some(c + size);
            self.stats.pruned_context += 1;
            self.scan_range(if or_self { c } else { c + 1 }, c + size, emit);
        }
    }

    /// Move the path stack forward to context node `c`: pop the frames
    /// whose subtree ends before `c`, then descend, hopping over the
    /// siblings that do not contain `c`.  Afterwards the stack holds the
    /// path from the document node to `c`, both included.  Returns how
    /// many of the frames that were on the stack before are still there
    /// (0 when `c` lies behind the cursor and the walk restarts).
    fn seek(&mut self, c: PreRank) -> usize {
        let size = &self.store.size;
        let restart = self.path.last().is_none_or(|top| c < top.pre);
        if restart {
            self.path.clear();
            self.path.push(Frame {
                pre: 0,
                end: size[0],
                cursor: 1,
            });
            self.stats.rows_scanned += 1;
        }
        while self.path.last().is_some_and(|top| top.end < c) {
            self.path.pop();
        }
        let kept = if restart { 0 } else { self.path.len() };
        loop {
            let top = self.path.last_mut().expect("the document node covers c");
            if top.pre == c {
                return kept;
            }
            let mut child = top.cursor;
            while child + size[child as usize] < c {
                self.stats.rows_scanned += 1;
                self.stats.rows_skipped += size[child as usize] as usize;
                child += size[child as usize] + 1;
            }
            let end = child + size[child as usize];
            top.cursor = end + 1;
            self.stats.rows_scanned += 1;
            self.path.push(Frame {
                pre: child,
                end,
                cursor: child + 1,
            });
        }
    }

    /// Emit `hits` in document order, sorting only if nested context nodes
    /// produced them out of order.
    fn emit_hits(hits: &mut Vec<PreRank>, emit: &mut impl FnMut(PreRank)) {
        if !hits.is_sorted() {
            hits.sort_unstable();
        }
        hits.dedup();
        hits.iter().copied().for_each(emit);
    }

    /// parent: the frame below the context node on the path stack.
    fn parent(&mut self, context: &[PreRank], emit: &mut impl FnMut(PreRank)) {
        self.stats.pruned_context += context.len();
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        for &c in context {
            self.seek(c);
            if let [.., parent, _] = self.path[..] {
                if hits.last() != Some(&parent.pre) && self.test.matches(self.store, parent.pre) {
                    hits.push(parent.pre);
                }
            }
        }
        Self::emit_hits(&mut hits, emit);
        self.hits = hits;
    }

    /// ancestor / ancestor-or-self: the frames of the path stack.  Frames
    /// an earlier context node of this run already emitted are always a
    /// prefix of the stack, and frames pushed later lie later in the
    /// document, so the output needs neither sort nor duplicate removal.
    fn ancestor(&mut self, context: &[PreRank], or_self: bool, emit: &mut impl FnMut(PreRank)) {
        self.stats.pruned_context += context.len();
        let mut emitted = 0usize;
        for &c in context {
            emitted = emitted.min(self.seek(c));
            let limit = self.path.len() - usize::from(!or_self);
            for frame in &self.path[emitted.min(limit)..limit] {
                if self.test.matches(self.store, frame.pre) {
                    emit(frame.pre);
                }
            }
            emitted = emitted.max(limit);
        }
    }

    /// following-sibling / preceding-sibling: look every context node's
    /// parent up on the path stack; per distinct parent the union of the
    /// sibling regions is the children after its first (before its last)
    /// context child, reached by hopping.
    fn siblings(&mut self, context: &[PreRank], following: bool, emit: &mut impl FnMut(PreRank)) {
        self.stats.pruned_context += context.len();
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        for &c in context {
            self.seek(c);
            if let [.., parent, _] = self.path[..] {
                pairs.push((parent.pre, c));
            }
        }
        if !pairs.is_sorted() {
            pairs.sort_unstable();
        }
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        let size = &self.store.size;
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let (parent, first) = group[0];
            let (mut sibling, end) = if following {
                (
                    first + size[first as usize] + 1,
                    parent + size[parent as usize],
                )
            } else {
                // `end` is the last context child itself: exclusive.
                (parent + 1, group[group.len() - 1].1 - 1)
            };
            while sibling <= end {
                sibling = self.visit(sibling, &mut |pre| hits.push(pre));
            }
        }
        Self::emit_hits(&mut hits, emit);
        self.hits = hits;
        self.pairs = pairs;
    }

    /// following: the union of the following regions is the document tail
    /// after the earliest-ending context subtree (nothing there can be an
    /// ancestor of that node, so every row qualifies); one scan.
    fn following(&mut self, context: &[PreRank], emit: &mut impl FnMut(PreRank)) {
        let size = &self.store.size;
        let start = context
            .iter()
            .map(|&c| c + size[c as usize] + 1)
            .min()
            .expect("context is not empty");
        self.stats.pruned_context += 1;
        self.stats.rows_skipped += start as usize;
        self.scan_range(start, self.store.node_count() as PreRank - 1, emit);
    }

    /// preceding: the region of the last context node covers all others;
    /// scan from the document start up to it, leaving out its ancestors.
    fn preceding(&mut self, context: &[PreRank], emit: &mut impl FnMut(PreRank)) {
        let anchor = *context.last().expect("context is not empty");
        self.stats.pruned_context += 1;
        let size = &self.store.size;
        for pre in 0..anchor {
            if pre + size[pre as usize] >= anchor {
                // An ancestor of the anchor; its subtree still holds
                // preceding nodes, so only the one row is left out.
                self.stats.rows_skipped += 1;
                continue;
            }
            self.stats.rows_scanned += 1;
            if self.test.matches(self.store, pre) {
                emit(pre);
            }
        }
    }
}

/// The nodes of a document-ordered context, each once.
fn distinct(context: &[PreRank]) -> impl Iterator<Item = PreRank> + '_ {
    let mut previous = None;
    context
        .iter()
        .copied()
        .filter(move |&c| previous.replace(c) != Some(c))
}

/// First index `>= from` of the ascending `owners` whose value is `>= c`,
/// found by doubling steps from `from` and a binary search in the last one.
fn gallop(owners: &[PreRank], from: usize, c: PreRank) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < owners.len() && owners[hi] < c {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(owners.len());
    lo + owners[lo..hi].partition_point(|&o| o < c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::naive_axis_step;

    fn store() -> DocStore {
        DocStore::from_xml("t", "<a><b><c/><d/></b><e><c/><f><c/></f></e><g/></a>").unwrap()
    }

    fn all_elements(s: &DocStore) -> Vec<PreRank> {
        (0..s.node_count() as PreRank)
            .filter(|&p| NodeTest::AnyElement.matches(s, p))
            .collect()
    }

    #[test]
    fn descendant_matches_naive() {
        let s = store();
        for ctx in [vec![1], vec![2, 5], vec![1, 2, 5], all_elements(&s)] {
            let fast = staircase_join(&s, &ctx, Axis::Descendant, &NodeTest::AnyElement);
            let slow = naive_axis_step(&s, &ctx, Axis::Descendant, &NodeTest::AnyElement);
            assert_eq!(fast, slow, "context {ctx:?}");
        }
    }

    #[test]
    fn descendant_or_self_matches_naive() {
        let s = store();
        let ctx = all_elements(&s);
        assert_eq!(
            staircase_join(
                &s,
                &ctx,
                Axis::DescendantOrSelf,
                &NodeTest::Element("c".into())
            ),
            naive_axis_step(
                &s,
                &ctx,
                Axis::DescendantOrSelf,
                &NodeTest::Element("c".into())
            )
        );
    }

    #[test]
    fn ancestor_matches_naive() {
        let s = store();
        for ctx in [vec![3], vec![3, 7], vec![3, 4, 7, 8], all_elements(&s)] {
            let fast = staircase_join(&s, &ctx, Axis::Ancestor, &NodeTest::AnyElement);
            let slow = naive_axis_step(&s, &ctx, Axis::Ancestor, &NodeTest::AnyElement);
            assert_eq!(fast, slow, "context {ctx:?}");
        }
    }

    #[test]
    fn following_and_preceding_match_naive() {
        let s = store();
        for ctx in [vec![2], vec![2, 5], vec![3, 6]] {
            assert_eq!(
                staircase_join(&s, &ctx, Axis::Following, &NodeTest::AnyElement),
                naive_axis_step(&s, &ctx, Axis::Following, &NodeTest::AnyElement),
                "following {ctx:?}"
            );
            assert_eq!(
                staircase_join(&s, &ctx, Axis::Preceding, &NodeTest::AnyElement),
                naive_axis_step(&s, &ctx, Axis::Preceding, &NodeTest::AnyElement),
                "preceding {ctx:?}"
            );
        }
    }

    #[test]
    fn pruning_removes_covered_context_nodes() {
        let s = store();
        // Context: a (covers everything) plus every other element.
        let ctx = all_elements(&s);
        let (_, stats) = staircase_join_counted(&s, &ctx, Axis::Descendant, &NodeTest::AnyNode);
        assert_eq!(stats.pruned_context, 1, "everything but the root is pruned");
    }

    #[test]
    fn pruned_scan_visits_each_row_at_most_once() {
        let s = store();
        let ctx = all_elements(&s);
        let (_, stats) = staircase_join_counted(&s, &ctx, Axis::Descendant, &NodeTest::AnyNode);
        assert!(stats.rows_scanned <= s.node_count());
    }

    const TREE_AXES: [Axis; 11] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::SelfAxis,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
    ];

    #[test]
    fn every_axis_matches_naive_on_every_context_subset() {
        // 11 nodes incl. text, a comment and a PI: all 2^11 contexts.
        let s = DocStore::from_xml("t", "<a><b>x<c/><!--n--></b><b><c><b/></c><?p d?></b>y</a>")
            .unwrap();
        let n = s.node_count();
        let tests = [
            NodeTest::AnyNode,
            NodeTest::AnyElement,
            NodeTest::Element("b".into()),
            NodeTest::Element("absent".into()),
            NodeTest::Text,
        ];
        for mask in 0u32..1 << n {
            let ctx: Vec<PreRank> = (0..n as PreRank).filter(|p| mask >> p & 1 == 1).collect();
            for axis in TREE_AXES {
                for test in &tests {
                    assert_eq!(
                        staircase_join(&s, &ctx, axis, test),
                        naive_axis_step(&s, &ctx, axis, test),
                        "{axis:?} {test:?} context {ctx:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_kernel_reused_across_runs_matches_fresh_kernels() {
        // Loop-lifted use: one kernel, one run per iteration, contexts that
        // move forward, repeat and start over.
        let s = store();
        let runs: [&[PreRank]; 6] = [&[3], &[4, 7], &[7], &[2, 3, 9], &[1], &[0, 8, 9]];
        for axis in TREE_AXES {
            let mut kernel = StepKernel::new(&s, axis, &NodeTest::AnyElement);
            for ctx in runs {
                let mut out = Vec::new();
                kernel.run(ctx, |pre| out.push(pre));
                assert_eq!(
                    out,
                    naive_axis_step(&s, ctx, axis, &NodeTest::AnyElement),
                    "{axis:?} context {ctx:?}"
                );
            }
        }
    }

    #[test]
    fn attribute_kernel_merge_walks_the_owner_ordered_table() {
        let s = DocStore::from_xml(
            "t",
            "<a x=\"1\"><b/><b x=\"2\" y=\"3\"/><c><b y=\"4\"/></c><b/></a>",
        )
        .unwrap();
        let oracle = |ctx: &[PreRank], name: Option<&str>| -> Vec<usize> {
            ctx.iter()
                .flat_map(|&c| s.attributes_of(c))
                .filter(|&row| name.is_none_or(|n| s.attr_name_of(row) == n))
                .collect()
        };
        let runs: [&[PreRank]; 5] = [&[1, 3, 5], &[3], &[0, 1, 2, 3, 4, 5, 6], &[5, 6], &[1]];
        for (test, name) in [
            (NodeTest::AnyAttribute, None),
            (NodeTest::Attribute("y".into()), Some("y")),
        ] {
            let mut kernel = StepKernel::new(&s, Axis::Attribute, &test);
            for ctx in runs {
                let mut rows = Vec::new();
                kernel.attributes(ctx, |row| rows.push(row));
                assert_eq!(rows, oracle(ctx, name), "{test:?} context {ctx:?}");
            }
        }
        let mut kernel = StepKernel::new(&s, Axis::Attribute, &NodeTest::Attribute("z".into()));
        kernel.attributes(&[1, 3], |_| panic!("no attribute is named z"));
        assert_eq!(kernel.stats().rows_scanned, 0);
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let s = store();
        let ctx = all_elements(&s);
        for axis in [
            Axis::Descendant,
            Axis::Ancestor,
            Axis::Following,
            Axis::Preceding,
        ] {
            let out = staircase_join(&s, &ctx, axis, &NodeTest::AnyNode);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(out, sorted, "{axis:?} result not sorted/unique");
        }
    }

    #[test]
    fn empty_context_yields_empty_result() {
        let s = store();
        for axis in [
            Axis::Descendant,
            Axis::Ancestor,
            Axis::Following,
            Axis::Preceding,
        ] {
            assert!(staircase_join(&s, &[], axis, &NodeTest::AnyNode).is_empty());
        }
    }
}
