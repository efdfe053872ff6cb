//! Reproduce Figure 3 of the paper: the intermediate `iter|pos|item`
//! relations that arise when loop lifting evaluates
//! `for $v in (10,20), $w in (100,200) return $v + $w`.
//!
//! Run with:
//! ```text
//! cargo run --example loop_lifting
//! ```

use pathfinder::engine::Pathfinder;
use pathfinder::relational::ops::row_number;
use pathfinder::relational::{ColId, Table, Value};

fn main() {
    // Figure 3(a): the literal sequence (10,20) in the top-level scope s0.
    let fig3a =
        Table::iter_pos_item(vec![1, 1], vec![1, 2], vec![Value::Int(10), Value::Int(20)]).unwrap();
    println!("(a) (10,20) in scope s0:\n{}", fig3a.to_ascii());

    // Figure 3(b): row numbering introduces the iterations of scope s1 —
    // variable $v is bound to one item per iteration.
    let numbered = row_number(&fig3a, ColId::INNER, &[ColId::ITER, ColId::POS], None).unwrap();
    let fig3b = Table::iter_pos_item(
        numbered
            .column(ColId::INNER)
            .unwrap()
            .as_nats()
            .unwrap()
            .to_vec(),
        vec![1, 1],
        numbered
            .column(ColId::ITEM)
            .unwrap()
            .iter_values()
            .collect(),
    )
    .unwrap();
    println!("(b) $v in scope s1:\n{}", fig3b.to_ascii());

    // Figures 3(c)-(g) are produced by the engine itself; run the query and
    // show the final result, which must equal Figure 3(g)'s item column.
    let pf = Pathfinder::new();
    let result = pf
        .session()
        .query("for $v in (10,20), $w in (100,200) return $v + $w")
        .unwrap();
    println!("(g) overall result in scope s0: {}", result.to_xml());
    assert_eq!(result.to_xml(), "110 210 120 220");

    // And the compiled plan, for comparison with Figure 5's shape.
    let explain = pf.explain("for $v in (10,20) return $v + 100").unwrap();
    println!("\nFigure 5 plan:\n{}", explain.plan_ascii());
}
