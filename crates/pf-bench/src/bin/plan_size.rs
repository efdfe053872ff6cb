//! Experiment E5 — the **plan complexity** claim of Section 2: "XMark query
//! Q8, e.g., prior to optimization, compiles to a plan DAG of 120
//! operators. This complexity may significantly be reduced by peep-hole
//! style optimization."  This binary prints, for all 20 XMark queries, the
//! operator counts before and after peephole optimization, the reduction,
//! how many joins were recognized, how many index scans the optimizer
//! introduced, and how many whole-plan property analyses it ran.
//!
//! ```text
//! cargo run -p pf-bench --bin plan_size             # the table
//! cargo run -p pf-bench --bin plan_size -- --check  # exit 1 past a bound
//! ```
//!
//! The counts are deterministic (no document is loaded, so no statistics
//! steer the optimizer).  `--check` fails when the median optimized plan,
//! Q1's plan or the total number of property analyses grows past the
//! bounds below, so neither plan shrinkage nor the analysis budget can
//! regress unnoticed.

use pf_engine::Pathfinder;
use pf_xmark::queries;

/// Largest accepted median optimized plan size (operators).
const MEDIAN_BOUND: f64 = 45.0;
/// Largest accepted optimized size of Q1 (operators).
const Q1_BOUND: usize = 37;
/// Largest accepted number of whole-plan property analyses over all 20
/// queries.
const PASSES_BOUND: usize = 25;

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") => true,
        Some(other) => {
            eprintln!("unknown argument `{other}`; usage: plan_size [--check]");
            std::process::exit(2);
        }
    };
    println!("# Section 2 reproduction — plan sizes before/after peephole optimization");
    println!();
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>6} {:>5} {:>7}  largest operator families",
        "Q", "unoptimized", "optimized", "reduction", "joins", "idx", "passes"
    );
    let pf = Pathfinder::new();
    let mut ranked = Vec::new();
    let mut passes = 0;
    let mut iterations = 0;
    let mut sizes = Vec::new();
    let mut q1 = 0;
    for q in queries() {
        let explain = pf.explain(q.text).expect("every XMark query compiles");
        let report = &explain.report;
        passes += report.property_passes;
        iterations += report.iterations;
        sizes.push(report.operators_after);
        if q.id == 1 {
            q1 = report.operators_after;
        }
        if report.theta_counts_introduced > 0 {
            ranked.push(format!("Q{} ({} operators)", q.id, report.operators_after));
        }
        let mut histogram = explain.optimized.operator_histogram();
        histogram.sort_by_key(|(_, count)| std::cmp::Reverse(*count));
        let top: Vec<String> = histogram
            .iter()
            .take(3)
            .map(|(name, count)| format!("{name}:{count}"))
            .collect();
        println!(
            "{:>4} {:>12} {:>12} {:>9.1}% {:>6} {:>5} {:>7}  {}",
            format!("Q{}", q.id),
            report.operators_before,
            report.operators_after,
            report.reduction_percent(),
            explain.joins_recognized,
            report.index_scans_introduced,
            report.property_passes,
            top.join(", ")
        );
    }
    sizes.sort_unstable();
    let median = match sizes.len() {
        0 => 0.0,
        n if n % 2 == 1 => sizes[n / 2] as f64,
        n => (sizes[n / 2 - 1] + sizes[n / 2]) as f64 / 2.0,
    };
    println!();
    println!("# median optimized plan: {median} operators; Q1: {q1}");
    println!("# property analyses over all queries: {passes} ({iterations} fixpoint iterations)");
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
    if check {
        let mut failed = Vec::new();
        if median > MEDIAN_BOUND {
            failed.push(format!("median {median} > {MEDIAN_BOUND}"));
        }
        if q1 > Q1_BOUND {
            failed.push(format!("Q1 {q1} > {Q1_BOUND}"));
        }
        if passes > PASSES_BOUND {
            failed.push(format!("property analyses {passes} > {PASSES_BOUND}"));
        }
        if !failed.is_empty() {
            eprintln!("plan_size --check failed: {}", failed.join("; "));
            std::process::exit(1);
        }
        println!("# --check: within bounds (median ≤ {MEDIAN_BOUND}, Q1 ≤ {Q1_BOUND}, analyses ≤ {PASSES_BOUND})");
    }
}
