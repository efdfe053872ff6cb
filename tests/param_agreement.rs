//! Agreement suite for the shape-keyed plan cache.
//!
//! A query whose text is not cached but whose *shape* is — the same query
//! up to the string literals of its comparisons and substring tests —
//! runs the cached template with its own literals bound in.  Every query
//! of the corpus below runs three ways, which must produce the same bytes
//! (or all fail):
//!
//! * as a shape hit on a warm engine that compiled the shape for other
//!   literals first;
//! * on a fresh engine (a miss: the template is compiled for it);
//! * through the navigational baseline, which knows nothing of plans.
//!
//! A second check compiles every XMark query both ways: binding a query's
//! own literals into its optimized template gives the plan a direct
//! compile and optimize of the query gives, operator for operator.

use std::sync::Arc;

use pathfinder::algebra::{optimize_with, verify_bound, OptimizerLevel, StatsSource};
use pathfinder::baseline::BaselineEngine;
use pathfinder::engine::Pathfinder;
use pathfinder::store::DocStatistics;
use pathfinder::xmark::{generate, queries, GeneratorConfig};
use pathfinder::xquery::{
    compile, lift, normalize, parse_query, CompileOptions, MAX_NESTING_DEPTH,
};

const DOC: &str = "auction.xml";

fn auction() -> String {
    generate(&GeneratorConfig {
        scale: 0.01,
        seed: 30,
    })
}

/// A query shape: the text with `{0}`, `{1}` where its literals go.
struct Shape {
    text: &'static str,
    /// One list of literal bodies (as written between the quotes) per
    /// query of this shape.
    literals: &'static [&'static [&'static str]],
}

impl Shape {
    fn with(&self, literals: &[&str]) -> String {
        let mut text = self.text.to_string();
        for (k, literal) in literals.iter().enumerate() {
            text = text.replace(&format!("{{{k}}}"), literal);
        }
        text
    }

    /// The query that warms the shape: every literal `primer`.
    fn primer(&self) -> String {
        self.with(&["primer"; 2])
    }
}

const CORPUS: &[Shape] = &[
    // Part 1: the serving mix's literal query, with existing, missing and
    // huge person numbers; XMark Q1, Q4 and Q14 with other literals.
    Shape {
        text: r#"count(doc("auction.xml")/site/people/person[@id = "{0}"])"#,
        literals: &[
            &["person0"],
            &["person7"],
            &["person999999"],
            &["person1099511627776"],
        ],
    },
    Shape {
        text: r#"for $b in doc("auction.xml")/site/people/person[@id = "{0}"] return $b/name/text()"#,
        literals: &[&["person1"], &["person4"], &["nobody"]],
    },
    Shape {
        text: r#"for $b in doc("auction.xml")/site/open_auctions/open_auction where $b/bidder[1]/personref/@person = "{0}" return element history { $b/reserve/text() }"#,
        literals: &[&["person0"], &["person3"], &["person12"], &["nobody"]],
    },
    Shape {
        text: r#"for $i in doc("auction.xml")/site//item where contains(string($i/description), "{0}") return $i/name/text()"#,
        literals: &[&["gold"], &["the"], &["Gold"], &["zzzz"]],
    },
    // Part 2: needles without alphanumeric content.
    Shape {
        text: r#"for $i in doc("auction.xml")/site//item where contains(string($i/description), "{0}") return $i/name/text()"#,
        literals: &[&[""], &["!!"]],
    },
    Shape {
        text: r#"for $p in doc("auction.xml")/site/people/person where starts-with(string($p/name), "{0}") return string($p/@id)"#,
        literals: &[&[""], &["!!"], &["A"]],
    },
    // Part 3: literals with a space, a doubled quote and an entity
    // reference as written; one value twice; two literal operands.
    Shape {
        text: r#"count(doc("auction.xml")/site/people/person[@id = "{0}"])"#,
        literals: &[&["p 2"], &["p\"\"0"], &["p&amp;0"]],
    },
    Shape {
        text: r#"count(doc("auction.xml")/site/people/person[@id = "{0}" or name = "{1}"])"#,
        literals: &[&["person2", "person2"], &["x", "x"], &["person1", "x"]],
    },
    Shape {
        text: r#"("{0}" = "{1}", "{0}" < "{1}")"#,
        literals: &[&["a", "b"], &["a", "a"], &["b", "a"], &["12", "4"]],
    },
];

fn outcome(result: Result<String, String>) -> Result<String, ()> {
    result.map_err(|_| ())
}

#[test]
fn shape_hits_agree_with_fresh_engines_and_the_baseline() {
    let xml = auction();
    let warm = Pathfinder::new();
    warm.load_document(DOC, &xml).unwrap();
    let mut baseline = BaselineEngine::new();
    baseline.load_document(DOC, &xml).unwrap();

    for shape in CORPUS {
        // The primer may legitimately fail (a person id that does not
        // exist, say): all it must do is cache the template.
        let _ = warm.session().query(&shape.primer());
        for literals in shape.literals {
            let query = shape.with(literals);
            let shape_hits = warm.plan_shape_hits();
            let hit = warm.session().query(&query).map(|r| r.to_xml());
            assert_eq!(
                warm.plan_shape_hits(),
                shape_hits + 1,
                "`{query}` did not bind the cached template"
            );
            let fresh = Pathfinder::new();
            fresh.load_document(DOC, &xml).unwrap();
            let direct = fresh.session().query(&query).map(|r| r.to_xml());
            assert_eq!(fresh.plan_shape_hits(), 0);
            let navigational = baseline.query(&query).map(|r| r.to_xml());

            let hit = hit.map_err(|e| e.to_string());
            let direct = direct.map_err(|e| e.to_string());
            assert_eq!(hit, direct, "`{query}`: shape hit vs fresh engine");
            assert_eq!(
                outcome(hit),
                outcome(navigational),
                "`{query}`: shape hit vs baseline"
            );
        }
    }
}

/// The engine's statistics, for optimizing plans outside of it.
struct EngineStats<'a>(&'a Pathfinder);

impl StatsSource for EngineStats<'_> {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        self.0.doc_statistics(uri)
    }
}

#[test]
fn bound_templates_equal_direct_compiles_on_all_xmark_queries() {
    let pf = Pathfinder::new();
    pf.load_document(DOC, &auction()).unwrap();
    let stats = EngineStats(&pf);
    let options = CompileOptions::default();
    let mut lifted_literals = 0;
    for q in queries() {
        let ast = parse_query(q.text).unwrap();
        let mut direct = compile(&normalize(&ast).unwrap(), &options).unwrap().plan;

        let lifted = lift(&ast);
        lifted_literals += lifted.values.len();
        let mut template = compile(&normalize(&lifted.shape).unwrap(), &options)
            .unwrap()
            .plan;
        assert_eq!(
            format!("{:?}", template.bind(&lifted.values)),
            format!("{direct:?}"),
            "Q{}: the bound compiled template differs from the compiled query",
            q.id
        );

        optimize_with(&mut direct, OptimizerLevel::FULL, &stats);
        optimize_with(&mut template, OptimizerLevel::FULL, &stats);
        assert_eq!(
            verify_bound(&template).is_err(),
            !lifted.values.is_empty(),
            "Q{}: a template is executable exactly when nothing was lifted",
            q.id
        );
        let bound = template.bind(&lifted.values);
        verify_bound(&bound).unwrap();
        assert_eq!(
            format!("{bound:?}"),
            format!("{direct:?}"),
            "Q{}: the bound optimized template differs from the optimized query",
            q.id
        );
    }
    // Q1, Q4 and Q14 each compare against one string literal.
    assert_eq!(lifted_literals, 3);
}

/// Lifting adds no recursion the parser's nesting bound does not cover:
/// the deepest accepted comparison chain lifts and runs.
#[test]
fn deeply_nested_comparisons_lift() {
    let depth = MAX_NESTING_DEPTH / 2;
    let query = format!("{}\"x\" = \"y\"{}", "(".repeat(depth), ")".repeat(depth));
    let lifted = lift(&parse_query(&query).unwrap());
    assert_eq!(lifted.values, ["x", "y"]);
    let pf = Pathfinder::new();
    assert_eq!(pf.session().query(&query).unwrap().to_xml(), "false");
}
