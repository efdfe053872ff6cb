//! Golden plans: the optimized plan of every XMark query, rendered with
//! `to_ascii`, must match `tests/golden/xmark_plans.txt` line for line.
//!
//! Each query is optimized twice: without statistics (no document is
//! loaded) and with the statistics of the scale-0.05 document.  Shared
//! operators are renumbered by first appearance (`[#0]`, `[#1]`, …), so
//! the file pins the plans' shape and not their arena ids.
//!
//! A change that alters a plan on purpose rewrites the file: on a mismatch
//! the test writes the actual rendering under the target directory and
//! names that file in its failure message.

use std::collections::HashMap;

use pathfinder::engine::Pathfinder;
use pathfinder::xmark::queries::DOC_URI;
use pathfinder::xmark::{generate, queries, GeneratorConfig};

const GOLDEN: &str = include_str!("golden/xmark_plans.txt");

/// `text` with every `#n` operator id replaced by its rank of first
/// appearance.
fn renumber(text: &str) -> String {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('#') {
        out.push_str(&rest[..=at]);
        rest = &rest[at + 1..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits > 0 {
            let next = ids.len();
            let id = *ids.entry(rest[..digits].to_string()).or_insert(next);
            out.push_str(&id.to_string());
            rest = &rest[digits..];
        }
    }
    out.push_str(rest);
    out
}

/// The optimized plan of every XMark query under `engine`, one section
/// per query.
fn render_all(engine: &Pathfinder, label: &str, out: &mut String) {
    for q in queries() {
        let explain = engine
            .explain(q.text)
            .unwrap_or_else(|e| panic!("Q{} does not compile: {e}", q.id));
        out.push_str(&format!("== Q{} {label}\n", q.id));
        out.push_str(&renumber(&explain.plan_ascii()));
    }
}

#[test]
fn optimized_xmark_plans_match_the_golden_file() {
    let mut actual = String::new();
    render_all(&Pathfinder::new(), "without statistics", &mut actual);
    let loaded = Pathfinder::new();
    let xml = generate(&GeneratorConfig {
        scale: 0.05,
        seed: 20050831,
    });
    loaded.load_document(DOC_URI, &xml).unwrap();
    render_all(&loaded, "with statistics (scale 0.05)", &mut actual);

    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("xmark_plans.txt");
        std::fs::write(&path, &actual).unwrap();
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or(actual.lines().count().min(GOLDEN.lines().count()), |i| i);
        panic!(
            "the optimized plans differ from tests/golden/xmark_plans.txt \
             (first at line {}); the actual rendering is in {}",
            line + 1,
            path.display()
        );
    }
}

#[test]
fn renumbering_follows_first_appearance() {
    assert_eq!(
        renumber("a [#7]\n  *see #7\n  b [#3]\n*see #3"),
        "a [#0]\n  *see #0\n  b [#1]\n*see #1"
    );
    assert_eq!(renumber("idx[#θ] #"), "idx[#θ] #");
}
