//! Experiment E2 — reproduce **Table 3** of the paper: XMark Q1–Q20
//! evaluation times for the navigational engine ("X-Hive" stand-in) and
//! Pathfinder, across a series of document scale factors, plus the derived
//! speedup columns that back the Section 3.3 claims (E6).
//!
//! Pathfinder gets two columns per scale: its first run of the query on
//! the loaded engine (compilation and optimization included) and its
//! warm time, the median of the [`WARM_RUNS`] runs after the first; each
//! with its speedup over the walker's run.  A closing section splits the first runs at the largest
//! scale into compile, optimize and execute time.
//!
//! ```text
//! cargo run --release -p pf-bench --bin table3
//! PF_BENCH_SCALES=0.002,0.01,0.05,0.2 cargo run --release -p pf-bench --bin table3
//! ```
//!
//! Like the paper (which reports DNF for X-Hive on Q9–Q12 at 1.1 GB), the
//! navigational engine is cut off per query: once a query exceeds the
//! budget at one scale it is reported as `DNF` for all larger scales.

use std::collections::HashMap;
use std::time::Duration;

use pf_bench::{prepare, scales, time};
use pf_engine::Timings;
use pf_xmark::queries;

/// Per-query wall-clock budget for the navigational baseline.  A query that
/// exceeds it — or whose extrapolated cost at the next scale exceeds it — is
/// reported as DNF, exactly like the X-Hive DNF entries of Table 3.
const BASELINE_BUDGET: Duration = Duration::from_secs(15);

/// Runs after the first whose median is the warm time.
const WARM_RUNS: usize = 5;

/// Milliseconds with two decimals.
fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The walker's time over Pathfinder's, as a speedup cell.
fn speedup(nav: Duration, pf: Duration) -> String {
    format!("{:.1}x", nav.as_secs_f64() / pf.as_secs_f64().max(1e-9))
}

fn main() {
    let scales = scales();
    println!("# Table 3 reproduction — query evaluation times in milliseconds");
    println!("# scales: {scales:?} (paper: XMark factors 0.1, 1, 10, 100)");
    println!("# pf 1st: first run; pf warm: median of the {WARM_RUNS} runs after it");
    println!();

    let mut instances: Vec<_> = scales.iter().map(|&s| prepare(s)).collect();
    for instance in &instances {
        println!(
            "# scale {:>6}: {:>9} bytes of XML",
            instance.scale, instance.xml_bytes
        );
    }
    println!();

    // Header: one (baseline, first run, warm) column group per scale.
    let mut header = format!("{:>3} |", "Q");
    for instance in &instances {
        header.push_str(&format!(
            " {:>10} {:>9} {:>7} {:>9} {:>7} |",
            format!("nav@{}", instance.scale),
            "pf 1st",
            "x",
            "pf warm",
            "x"
        ));
    }
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    // Last observed (scale, time) of the baseline, per query, used to
    // extrapolate whether the next scale would blow the budget.
    let mut baseline_history: HashMap<u8, (f64, Duration)> = HashMap::new();
    let mut baseline_dnf: HashMap<u8, bool> = HashMap::new();
    // The first run's split at the largest scale, per query.
    let mut first_splits: Vec<(u8, Timings)> = Vec::new();
    for q in queries() {
        let mut row = format!("{:>3} |", format!("Q{}", q.id));
        let last = instances.len().saturating_sub(1);
        for (i, instance) in instances.iter_mut().enumerate() {
            // Pathfinder: the first run, then the warm runs.
            let session = instance.pathfinder.session();
            let (first, first_time) = time(|| session.query(q.text));
            let first = first.expect("pathfinder evaluates every XMark query");
            if i == last {
                first_splits.push((q.id, first.timings()));
            }
            let mut warm: Vec<Duration> = (0..WARM_RUNS)
                .map(|_| {
                    let (result, elapsed) = time(|| session.query(q.text));
                    result.expect("pathfinder evaluates every XMark query");
                    elapsed
                })
                .collect();
            warm.sort();
            let warm_time = warm[WARM_RUNS / 2];
            // Navigational baseline with DNF extrapolation: assume the
            // nested-loop joins grow quadratically with the scale factor.
            let mut skip = *baseline_dnf.get(&q.id).unwrap_or(&false);
            if !skip {
                if let Some((prev_scale, prev_time)) = baseline_history.get(&q.id) {
                    let ratio = instance.scale / prev_scale;
                    let estimate = prev_time.as_secs_f64() * ratio * ratio;
                    if estimate > BASELINE_BUDGET.as_secs_f64() {
                        skip = true;
                        baseline_dnf.insert(q.id, true);
                    }
                }
            }
            let (nav_cell, first_x, warm_x) = if skip {
                ("DNF".to_string(), "-".to_string(), "-".to_string())
            } else {
                let (nav_result, nav_time) = time(|| instance.baseline.query(q.text));
                nav_result.expect("baseline evaluates every XMark query");
                if nav_time > BASELINE_BUDGET {
                    baseline_dnf.insert(q.id, true);
                }
                baseline_history.insert(q.id, (instance.scale, nav_time));
                (
                    ms(nav_time),
                    speedup(nav_time, first_time),
                    speedup(nav_time, warm_time),
                )
            };
            row.push_str(&format!(
                " {:>10} {:>9} {:>7} {:>9} {:>7} |",
                nav_cell,
                ms(first_time),
                first_x,
                ms(warm_time),
                warm_x
            ));
        }
        println!("{row}");
    }

    if let Some(instance) = instances.last() {
        println!();
        println!(
            "# first-run split at scale {} (ms): compile / optimize / execute",
            instance.scale
        );
        for (id, t) in &first_splits {
            println!(
                "#  Q{id:<2} {:>9} {:>9} {:>9}",
                ms(t.compile),
                ms(t.optimize),
                ms(t.execute)
            );
        }
    }

    println!();
    println!("# Paper shape check (Section 3.3):");
    println!("#  - simple path queries (Q1-Q5, Q13-Q20): Pathfinder faster by small factors");
    println!("#  - recursive axes (Q6, Q7): staircase join wins by a large factor");
    println!("#  - join queries (Q8-Q12): the navigational engine degrades sharply / DNFs,");
    println!("#    Pathfinder's recognized join plans stay near-linear");
}
