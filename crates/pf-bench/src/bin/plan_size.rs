//! Experiment E5 — the **plan complexity** claim of Section 2: "XMark query
//! Q8, e.g., prior to optimization, compiles to a plan DAG of 120
//! operators. This complexity may significantly be reduced by peep-hole
//! style optimization."  This binary prints, for all 20 XMark queries, the
//! operator counts before and after peephole optimization, the reduction,
//! how many joins were recognized, and how many whole-plan property
//! analyses the optimizer ran (at most one per plan version).
//!
//! ```text
//! cargo run -p pf-bench --bin plan_size
//! ```

use pf_engine::Pathfinder;
use pf_xmark::queries;

fn main() {
    println!("# Section 2 reproduction — plan sizes before/after peephole optimization");
    println!();
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>8} {:>7}  largest operator families",
        "Q", "unoptimized", "optimized", "reduction", "joins", "passes"
    );
    let pf = Pathfinder::new();
    let mut ranked = Vec::new();
    let mut passes = 0;
    for q in queries() {
        let explain = pf.explain(q.text).expect("every XMark query compiles");
        passes += explain.report.property_passes;
        if explain.report.theta_counts_introduced > 0 {
            ranked.push(format!(
                "Q{} ({} operators)",
                q.id, explain.report.operators_after
            ));
        }
        let mut histogram = explain.optimized.operator_histogram();
        histogram.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
        let top: Vec<String> = histogram
            .iter()
            .take(3)
            .map(|(name, count)| format!("{name}:{count}"))
            .collect();
        println!(
            "{:>4} {:>12} {:>12} {:>9.1}% {:>8} {:>7}  {}",
            format!("Q{}", q.id),
            explain.report.operators_before,
            explain.report.operators_after,
            explain.report.reduction_percent(),
            explain.joins_recognized,
            explain.report.property_passes,
            top.join(", ")
        );
    }
    println!();
    println!("# property analyses over all queries: {passes}");
    println!(
        "# count over a θ-join's pair table replaced by a rank count (ThetaCount): {}",
        ranked.join(", ")
    );
    let q8 = pf.explain(pf_xmark::query(8).unwrap().text).unwrap();
    println!(
        "# Q8 compiles to {} operators before optimization ({} after) — the paper cites ~120",
        q8.report.operators_before, q8.report.operators_after
    );
    println!("# for the full XMark Q8 text; the reduced dialect reproduces the same order of");
    println!("# magnitude and the same optimization effect.");
}
