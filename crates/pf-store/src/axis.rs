//! XPath axes as region queries over the `(pre, size, level)` space.
//!
//! Section 2 of the paper ("XPath axes"): the `pre|size|level` encoding
//! turns an XPath step into a relational range selection; the region that is
//! selected depends on the axis.  This module defines the axes, node tests,
//! the region predicates, and a *naive* per-context-node evaluation that the
//! staircase join ([`crate::staircase`]) is tested and benchmarked against.

use crate::store::{DocStore, NodeKindCode, PreRank};

/// The XPath axes supported by the Pathfinder dialect (Table 2: "full axis
/// feature" per the demonstration section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `following::`
    Following,
    /// `preceding::`
    Preceding,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `attribute::`
    Attribute,
}

impl Axis {
    /// Parse the textual axis name used in XPath syntax.
    pub fn parse(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "self" => Axis::SelfAxis,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }

    /// The textual axis name.
    pub fn name(&self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
        }
    }

    /// `true` for the recursive axes whose evaluation the staircase join
    /// accelerates (descendant, ancestor, following, preceding and their
    /// *-or-self variants).
    pub fn is_recursive(&self) -> bool {
        matches!(
            self,
            Axis::Descendant
                | Axis::DescendantOrSelf
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Following
                | Axis::Preceding
        )
    }
}

/// A node test applied after the axis region selection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// `*` — any element.
    AnyElement,
    /// `name` — an element with the given tag.
    Element(String),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `node()` — any node.
    AnyNode,
    /// `@name` — an attribute with the given name (attribute axis only).
    Attribute(String),
    /// `@*` — any attribute (attribute axis only).
    AnyAttribute,
}

impl NodeTest {
    /// Does node `pre` of `store` satisfy this test?  Compares names as
    /// strings: the oracle [`ResolvedTest::matches`] is checked against,
    /// not what the staircase kernels run.
    pub fn matches(&self, store: &DocStore, pre: PreRank) -> bool {
        match self {
            NodeTest::AnyElement => store.kind_of(pre) == NodeKindCode::Element,
            NodeTest::Element(name) => {
                store.kind_of(pre) == NodeKindCode::Element && store.tag_of(pre) == name
            }
            NodeTest::Text => store.kind_of(pre) == NodeKindCode::Text,
            NodeTest::Comment => store.kind_of(pre) == NodeKindCode::Comment,
            NodeTest::Pi => store.kind_of(pre) == NodeKindCode::Pi,
            NodeTest::AnyNode => true,
            // Attribute tests never match tree nodes.
            NodeTest::Attribute(_) | NodeTest::AnyAttribute => false,
        }
    }
}

/// A [`NodeTest`] resolved against one document: kind codes and property
/// surrogates only, so a scan compares `kind`/`prop` column cells and never
/// strings ("node properties are identified by their surrogates",
/// Section 3.1).  Resolve once per (step, document) with
/// [`NodeTest::resolve`] or [`NodeTest::resolve_attribute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedTest {
    /// Every row qualifies.
    Any,
    /// Rows of this node kind qualify.
    Kind(NodeKindCode),
    /// Elements (or, on the attribute table, attributes) whose name has
    /// this `qnames` surrogate qualify.
    Tag(u32),
    /// No row qualifies — e.g. the name does not occur in the document.
    Never,
}

impl ResolvedTest {
    /// The test for `name`: its surrogate, or `Never` if the document
    /// does not use the name at all.
    fn named(store: &DocStore, name: &str) -> ResolvedTest {
        store
            .qnames
            .lookup(name)
            .map_or(ResolvedTest::Never, ResolvedTest::Tag)
    }

    /// Does node `pre` of `store` satisfy the resolved test?
    #[inline]
    pub fn matches(self, store: &DocStore, pre: PreRank) -> bool {
        match self {
            ResolvedTest::Any => true,
            ResolvedTest::Kind(kind) => store.kind[pre as usize] == kind,
            // `prop` holds a `texts` surrogate for non-elements, so the
            // kind has to agree as well.
            ResolvedTest::Tag(tag) => {
                store.prop[pre as usize] == tag && store.kind[pre as usize] == NodeKindCode::Element
            }
            ResolvedTest::Never => false,
        }
    }
}

impl NodeTest {
    /// Resolve this test for the node table of `store`.
    pub fn resolve(&self, store: &DocStore) -> ResolvedTest {
        match self {
            NodeTest::AnyElement => ResolvedTest::Kind(NodeKindCode::Element),
            NodeTest::Element(name) => ResolvedTest::named(store, name),
            NodeTest::Text => ResolvedTest::Kind(NodeKindCode::Text),
            NodeTest::Comment => ResolvedTest::Kind(NodeKindCode::Comment),
            NodeTest::Pi => ResolvedTest::Kind(NodeKindCode::Pi),
            NodeTest::AnyNode => ResolvedTest::Any,
            NodeTest::Attribute(_) | NodeTest::AnyAttribute => ResolvedTest::Never,
        }
    }

    /// Resolve this test for the attribute table of `store` (the attribute
    /// axis): `Tag` then compares the `attr_name` column.
    pub fn resolve_attribute(&self, store: &DocStore) -> ResolvedTest {
        match self {
            NodeTest::Attribute(name) => ResolvedTest::named(store, name),
            NodeTest::AnyAttribute | NodeTest::AnyNode => ResolvedTest::Any,
            _ => ResolvedTest::Never,
        }
    }
}

/// The half-open pre-rank window `[lower, upper]` plus optional level
/// constraint that describes an axis region for one context node.
///
/// This is the two-dimensional region query of the XPath Accelerator,
/// rewritten for the `(pre, size, level)` variant the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxisRegion {
    /// Smallest pre rank that may qualify.
    pub lower: PreRank,
    /// Largest pre rank that may qualify (inclusive).
    pub upper: PreRank,
    /// Exact level the result node must have, if the axis fixes one.
    pub exact_level: Option<u32>,
    /// `true` if, in addition to the window, the candidate must be an
    /// ancestor (i.e. its subtree must cover the context node).
    pub require_covering: bool,
    /// `true` if the candidate's subtree must *not* cover the context node
    /// (preceding axis).
    pub forbid_covering: bool,
}

/// Compute the axis region for context node `ctx`.
///
/// Returns `None` for the attribute axis (attributes live in their own
/// table) and for empty regions.
pub fn axis_region(store: &DocStore, ctx: PreRank, axis: Axis) -> Option<AxisRegion> {
    let n = store.node_count() as PreRank;
    let size = store.size_of(ctx);
    let level = store.level_of(ctx);
    let region = match axis {
        Axis::Child => AxisRegion {
            lower: ctx + 1,
            upper: ctx + size,
            exact_level: Some(level + 1),
            require_covering: false,
            forbid_covering: false,
        },
        Axis::Descendant => AxisRegion {
            lower: ctx + 1,
            upper: ctx + size,
            exact_level: None,
            require_covering: false,
            forbid_covering: false,
        },
        Axis::DescendantOrSelf => AxisRegion {
            lower: ctx,
            upper: ctx + size,
            exact_level: None,
            require_covering: false,
            forbid_covering: false,
        },
        Axis::SelfAxis => AxisRegion {
            lower: ctx,
            upper: ctx,
            exact_level: None,
            require_covering: false,
            forbid_covering: false,
        },
        Axis::Parent => {
            let parent = store.parent_of(ctx)?;
            AxisRegion {
                lower: parent,
                upper: parent,
                exact_level: None,
                require_covering: false,
                forbid_covering: false,
            }
        }
        Axis::Ancestor => {
            if ctx == 0 {
                return None;
            }
            AxisRegion {
                lower: 0,
                upper: ctx - 1,
                exact_level: None,
                require_covering: true,
                forbid_covering: false,
            }
        }
        Axis::AncestorOrSelf => AxisRegion {
            lower: 0,
            upper: ctx,
            exact_level: None,
            require_covering: true,
            forbid_covering: false,
        },
        Axis::Following => {
            let lower = ctx + size + 1;
            if lower >= n {
                return None;
            }
            AxisRegion {
                lower,
                upper: n - 1,
                exact_level: None,
                require_covering: false,
                forbid_covering: false,
            }
        }
        Axis::Preceding => {
            if ctx == 0 {
                return None;
            }
            AxisRegion {
                lower: 0,
                upper: ctx - 1,
                exact_level: None,
                require_covering: false,
                forbid_covering: true,
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            let parent = store.parent_of(ctx)?;
            let plevel = store.level_of(parent);
            if axis == Axis::FollowingSibling {
                AxisRegion {
                    lower: ctx + size + 1,
                    upper: parent + store.size_of(parent),
                    exact_level: Some(plevel + 1),
                    require_covering: false,
                    forbid_covering: false,
                }
            } else {
                AxisRegion {
                    lower: parent + 1,
                    upper: ctx.saturating_sub(1),
                    exact_level: Some(plevel + 1),
                    require_covering: false,
                    forbid_covering: false,
                }
            }
        }
        Axis::Attribute => return None,
    };
    (region.lower <= region.upper && region.lower < n).then_some(region)
}

/// Evaluate one axis step *naively*: for each context node, scan its full
/// axis region, then deduplicate and sort the union.
///
/// This is the strategy available to an RDBMS that is unaware of the tree
/// isomorphism ("the RDBMS gives away significant opportunities for
/// optimization", Section 2); the staircase join removes the redundant work.
/// The result is in document order and duplicate free.
pub fn naive_axis_step(
    store: &DocStore,
    context: &[PreRank],
    axis: Axis,
    test: &NodeTest,
) -> Vec<PreRank> {
    let mut out = Vec::new();
    for &ctx in context {
        let Some(region) = axis_region(store, ctx, axis) else {
            continue;
        };
        let upper = region.upper.min(store.node_count() as PreRank - 1);
        for candidate in region.lower..=upper {
            if let Some(expected) = region.exact_level {
                if store.level_of(candidate) != expected {
                    continue;
                }
            }
            if region.require_covering && candidate + store.size_of(candidate) < ctx {
                continue;
            }
            if region.forbid_covering && candidate + store.size_of(candidate) >= ctx {
                continue;
            }
            if test.matches(store, candidate) {
                out.push(candidate);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DocStore {
        //            pre level
        // <a>          1  1
        //   <b>        2  2
        //     <c/>     3  3
        //     <d/>     4  3
        //   </b>
        //   <e>        5  2
        //     <c/>     6  3
        //   </e>
        // </a>
        DocStore::from_xml("t", "<a><b><c/><d/></b><e><c/></e></a>").unwrap()
    }

    #[test]
    fn child_axis() {
        let s = store();
        assert_eq!(
            naive_axis_step(&s, &[1], Axis::Child, &NodeTest::AnyElement),
            vec![2, 5]
        );
        assert_eq!(
            naive_axis_step(&s, &[2], Axis::Child, &NodeTest::Element("c".into())),
            vec![3]
        );
    }

    #[test]
    fn descendant_axis() {
        let s = store();
        assert_eq!(
            naive_axis_step(&s, &[1], Axis::Descendant, &NodeTest::AnyElement),
            vec![2, 3, 4, 5, 6]
        );
        assert_eq!(
            naive_axis_step(&s, &[1], Axis::Descendant, &NodeTest::Element("c".into())),
            vec![3, 6]
        );
    }

    #[test]
    fn descendant_or_self_includes_context() {
        let s = store();
        assert_eq!(
            naive_axis_step(&s, &[2], Axis::DescendantOrSelf, &NodeTest::AnyElement),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn ancestor_axis_requires_covering() {
        let s = store();
        assert_eq!(
            naive_axis_step(&s, &[6], Axis::Ancestor, &NodeTest::AnyElement),
            vec![1, 5]
        );
        assert_eq!(
            naive_axis_step(&s, &[6], Axis::AncestorOrSelf, &NodeTest::AnyElement),
            vec![1, 5, 6]
        );
    }

    #[test]
    fn parent_axis() {
        let s = store();
        assert_eq!(
            naive_axis_step(&s, &[3], Axis::Parent, &NodeTest::AnyElement),
            vec![2]
        );
        assert_eq!(
            naive_axis_step(&s, &[0], Axis::Parent, &NodeTest::AnyNode),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn following_and_preceding() {
        let s = store();
        // following(b) = e, c(6)
        assert_eq!(
            naive_axis_step(&s, &[2], Axis::Following, &NodeTest::AnyElement),
            vec![5, 6]
        );
        // preceding(e) = b, c(3), d — not a (ancestor)
        assert_eq!(
            naive_axis_step(&s, &[5], Axis::Preceding, &NodeTest::AnyElement),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn sibling_axes() {
        let s = store();
        assert_eq!(
            naive_axis_step(&s, &[2], Axis::FollowingSibling, &NodeTest::AnyElement),
            vec![5]
        );
        assert_eq!(
            naive_axis_step(&s, &[5], Axis::PrecedingSibling, &NodeTest::AnyElement),
            vec![2]
        );
        assert_eq!(
            naive_axis_step(&s, &[3], Axis::FollowingSibling, &NodeTest::AnyElement),
            vec![4]
        );
    }

    #[test]
    fn multiple_context_nodes_deduplicate() {
        let s = store();
        // descendants of both b and a overlap; result must be duplicate free.
        let result = naive_axis_step(&s, &[1, 2], Axis::Descendant, &NodeTest::AnyElement);
        assert_eq!(result, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn axis_parse_roundtrip() {
        for axis in [
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
            Axis::Attribute,
        ] {
            assert_eq!(Axis::parse(axis.name()), Some(axis));
        }
        assert_eq!(Axis::parse("bogus"), None);
    }

    #[test]
    fn resolved_tests_agree_with_string_tests() {
        // "t" is an attribute name and a PI target but never a tag: its
        // surrogate exists in `qnames`, yet no element may match it.
        let s = DocStore::from_xml("t", "<a t=\"1\">hi<!--c--><?t d?><b/><a/></a>").unwrap();
        let tests = [
            NodeTest::AnyElement,
            NodeTest::Element("a".into()),
            NodeTest::Element("t".into()),
            NodeTest::Element("absent".into()),
            NodeTest::Text,
            NodeTest::Comment,
            NodeTest::Pi,
            NodeTest::AnyNode,
            NodeTest::Attribute("t".into()),
            NodeTest::AnyAttribute,
        ];
        for test in &tests {
            let resolved = test.resolve(&s);
            for pre in 0..s.node_count() as PreRank {
                assert_eq!(
                    resolved.matches(&s, pre),
                    test.matches(&s, pre),
                    "{test:?} at {pre}"
                );
            }
        }
        assert_eq!(
            NodeTest::Element("absent".into()).resolve(&s),
            ResolvedTest::Never
        );
        assert_eq!(
            NodeTest::Attribute("absent".into()).resolve_attribute(&s),
            ResolvedTest::Never
        );
        assert_eq!(
            NodeTest::AnyAttribute.resolve_attribute(&s),
            ResolvedTest::Any
        );
        assert_eq!(NodeTest::Text.resolve_attribute(&s), ResolvedTest::Never);
    }

    #[test]
    fn node_tests() {
        let s = DocStore::from_xml("t", "<a>hi<!--c--><?pi d?><b/></a>").unwrap();
        // pre: 0 doc, 1 a, 2 text, 3 comment, 4 pi, 5 b
        assert!(NodeTest::Text.matches(&s, 2));
        assert!(NodeTest::Comment.matches(&s, 3));
        assert!(NodeTest::Pi.matches(&s, 4));
        assert!(NodeTest::AnyElement.matches(&s, 5));
        assert!(NodeTest::AnyNode.matches(&s, 2));
        assert!(!NodeTest::Element("a".into()).matches(&s, 5));
        assert!(!NodeTest::AnyAttribute.matches(&s, 1));
    }
}
