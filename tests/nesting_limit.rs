//! The XQuery nesting bound, on the 2 MiB stack a `pathfinder-serve`
//! connection thread compiles and runs its queries on.
//!
//! For each nesting shape — parentheses, signs, operator chains, paths,
//! predicates, FLWOR nesting and clause lists, conditionals, quantifiers,
//! function calls, constructors — the deepest query the parser accepts
//! must parse, normalize, compile, optimize, run and serialize on such a
//! thread, and one level deeper must be a syntax error (never a crash).

use pathfinder::engine::{EngineOptions, Pathfinder};
use pathfinder::xquery::{parse_query, MAX_NESTING_DEPTH};

/// The stack of a `pathfinder-serve` connection thread (Rust's default
/// for spawned threads).
const SERVER_STACK: usize = 2 << 20;

/// A query nesting `depth` levels of one shape.
type Shape = fn(usize) -> String;

const SHAPES: [(&str, Shape); 16] = [
    ("parentheses", |d| {
        format!("{}1{}", "(".repeat(d), ")".repeat(d))
    }),
    ("signs", |d| format!("{}1{}", "-(".repeat(d), ")".repeat(d))),
    ("sum chain", |d| format!("1{}", " + 1".repeat(d))),
    ("or chain", |d| format!("1{}", " or 1".repeat(d))),
    ("path", |d| format!("doc(\"d.xml\"){}", "/a".repeat(d))),
    ("predicate chain", |d| format!("(1){}", "[1]".repeat(d))),
    ("nested predicates", |d| {
        format!("doc(\"d.xml\")//a{}{}", "[a".repeat(d), "]".repeat(d))
    }),
    ("nested for", |d| {
        format!("{}$x", "for $x in 1 return ".repeat(d))
    }),
    ("for clauses", |d| {
        let clauses: Vec<String> = (0..d).map(|i| format!("$x{i} in 1")).collect();
        format!("for {} return $x0", clauses.join(", "))
    }),
    ("nested for-where", |d| {
        format!("{}$x", "for $x in 1 where $x = 1 return ".repeat(d))
    }),
    ("nested let", |d| {
        format!("{}$x", "let $x := 1 return ".repeat(d))
    }),
    ("nested if", |d| {
        format!("{}1{}", "if (1) then ".repeat(d), " else 0".repeat(d))
    }),
    ("nested some", |d| {
        format!("{}1", "some $x in 1 satisfies ".repeat(d))
    }),
    ("nested calls", |d| {
        format!("{}1{}", "count(".repeat(d), ")".repeat(d))
    }),
    ("nested sequences", |d| {
        format!("{}1{}", "sum((1, ".repeat(d), "))".repeat(d))
    }),
    ("nested constructors", |d| {
        format!("{}1{}", "element a { ".repeat(d), " }".repeat(d))
    }),
];

fn too_deep(error: &str) -> bool {
    error.contains(&format!("nested more than {MAX_NESTING_DEPTH} levels deep"))
}

/// The largest `depth` whose query the parser accepts.
fn deepest_accepted(shape: Shape) -> usize {
    let mut depth = 0;
    while parse_query(&shape(depth + 1)).is_ok() {
        depth += 1;
        assert!(depth <= MAX_NESTING_DEPTH, "the bound does not hold");
    }
    let rejected = parse_query(&shape(depth + 1)).unwrap_err().to_string();
    assert!(too_deep(&rejected), "{rejected}");
    depth
}

/// Run `query` end to end on a thread with a server connection's stack.
fn run_on_server_stack(query: String) -> Result<String, String> {
    std::thread::Builder::new()
        .stack_size(SERVER_STACK)
        .spawn(move || {
            let pf = Pathfinder::with_options(EngineOptions::builder().threads(1).build());
            pf.load_document("d.xml", "<a><a><a>x</a></a></a>").unwrap();
            pf.session()
                .query(&query)
                .map(|result| result.to_xml())
                .map_err(|e| e.to_string())
        })
        .expect("spawn a thread")
        .join()
        .expect("no panic")
}

#[test]
fn the_deepest_accepted_query_of_every_shape_runs_on_a_server_stack() {
    for (name, shape) in SHAPES {
        let depth = deepest_accepted(shape);
        assert!(
            depth >= MAX_NESTING_DEPTH / 3,
            "{name}: only {depth} levels accepted"
        );
        if let Err(e) = run_on_server_stack(shape(depth)) {
            panic!("{name} at depth {depth}: {e}");
        }
    }
}

#[test]
fn one_level_deeper_is_a_syntax_error_on_a_server_stack() {
    for (name, shape) in SHAPES {
        let depth = deepest_accepted(shape);
        let error = run_on_server_stack(shape(depth + 1)).unwrap_err();
        assert!(too_deep(&error), "{name}: {error}");
    }
}

/// A 100 000-level document is served on a connection's stack: counted,
/// serialized, and deep-copied into a constructed element.
#[test]
fn a_deep_document_serializes_and_copies_on_a_server_stack() {
    let n = 100_000;
    let chain = format!("{}{}", "<x>".repeat(n), "</x>".repeat(n));
    // The innermost element is empty.
    let expected = format!("{}<x/>{}", "<x>".repeat(n - 1), "</x>".repeat(n - 1));
    let answers = std::thread::Builder::new()
        .stack_size(SERVER_STACK)
        .spawn(move || {
            let pf = Pathfinder::with_options(EngineOptions::builder().threads(1).build());
            pf.load_document("deep.xml", &chain).unwrap();
            let session = pf.session();
            [
                "count(doc(\"deep.xml\")//x)",
                "doc(\"deep.xml\")/x",
                "element r { doc(\"deep.xml\")/x }",
                "count(element r { doc(\"deep.xml\")/x }/descendant-or-self::*)",
            ]
            .map(|query| session.query(query).unwrap().to_xml())
        })
        .expect("spawn a thread")
        .join()
        .expect("no stack overflow");
    assert_eq!(answers[0], n.to_string());
    assert!(answers[1] == expected, "the chain serializes unchanged");
    assert!(
        answers[2] == format!("<r>{expected}</r>"),
        "the copy serializes as the chain inside <r>"
    );
    assert_eq!(answers[3], (n + 1).to_string());
}

#[test]
fn hostile_depths_are_rejected_without_recursing() {
    for (name, shape) in SHAPES {
        let error = run_on_server_stack(shape(100_000)).unwrap_err();
        assert!(too_deep(&error), "{name}: {error}");
    }
}
