//! Estimate quality: how far the optimizer's row estimates are from the
//! rows the executor saw.
//!
//! Every XMark query is compiled and optimized over the statistics of the
//! scale-0.05 document, then run once.  For every physical node the
//! q-error of its output is `max(est / act, act / est)`, both sides
//! floored at 1 row, where `est` is the property analysis's estimate for
//! the node's output operator and `act` the rows its [`NodeRun`] record
//! holds.  The test prints the median and maximum per query and per
//! operator kind (`--nocapture` shows the table), and fails when a
//! query's maximum grows past its bound in [`MAX_Q_ERROR`], naming the
//! worst operator with both numbers.  The bounds are today's maxima: only
//! ever tighten them, as `plan_size --check`'s bounds are.

use std::collections::BTreeMap;
use std::sync::Arc;

use pathfinder::algebra::{optimize_analyzed, PhysicalPlan, StatsSource};
use pathfinder::engine::{Executor, NodeRun, Pathfinder};
use pathfinder::store::DocStatistics;
use pathfinder::xmark::queries::DOC_URI;
use pathfinder::xmark::{generate, queries, GeneratorConfig};
use pathfinder::xquery::{compile, normalize, parse_query, CompileOptions};

/// The largest q-error any physical node of Q1–Q20 may show, by query:
/// today's maxima, rounded up to two decimals.
const MAX_Q_ERROR: [f64; 20] = [
    128.0, 193.0, 193.0, 193.0, 49.0, 54.51, 111.51, 256.0, 128.0, 128.0, // Q1–Q10
    256.0, 128.0, 36.0, 25.85, 49.0, 49.0, 128.0, 60.0, 89.44, 128.0, // Q11–Q20
];

/// The engine's statistics, as the engine serves them to its optimizer.
struct EngineStats<'a>(&'a Pathfinder);

impl StatsSource for EngineStats<'_> {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        self.0.doc_statistics(uri)
    }
}

/// `max(est / act, act / est)` with both sides floored at one row.
fn q_error(est: f64, act: usize) -> f64 {
    let (est, act) = (est.max(1.0), (act as f64).max(1.0));
    (est / act).max(act / est)
}

/// The median and the maximum of `errors` (not empty).
fn median_max(errors: &mut [f64]) -> (f64, f64) {
    errors.sort_by(f64::total_cmp);
    (errors[errors.len() / 2], errors[errors.len() - 1])
}

/// One node's q-error with the numbers behind it.
struct Estimate<'r> {
    error: f64,
    est: f64,
    node: &'r NodeRun,
}

#[test]
fn row_estimates_stay_within_the_pinned_q_errors() {
    let pf = Pathfinder::new();
    let xml = generate(&GeneratorConfig {
        scale: 0.05,
        seed: 20050831,
    });
    pf.load_document(DOC_URI, &xml).unwrap();
    let registry = pf.registry().snapshot();

    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut failures = Vec::new();
    println!("query  nodes  median q-error  max q-error   bound");
    for q in queries() {
        let core = normalize(&parse_query(q.text).unwrap()).unwrap();
        let mut plan = compile(&core, &CompileOptions::default()).unwrap().plan;
        let (_, props) = optimize_analyzed(&mut plan, &EngineStats(&pf));
        let run = Executor::new(&registry)
            .run(&plan, &PhysicalPlan::compile(&plan))
            .unwrap_or_else(|e| panic!("Q{} does not run: {e}", q.id));
        let estimates: Vec<Estimate> = run
            .nodes
            .iter()
            .map(|node| {
                let est = props.rows(node.output);
                Estimate {
                    error: q_error(est, node.rows),
                    est,
                    node,
                }
            })
            .collect();
        for e in &estimates {
            by_kind.entry(e.node.kind).or_default().push(e.error);
        }
        let mut errors: Vec<f64> = estimates.iter().map(|e| e.error).collect();
        let (median, max) = median_max(&mut errors);
        let bound = MAX_Q_ERROR[usize::from(q.id) - 1];
        println!(
            "Q{:<4} {:>5}  {median:>14.2}  {max:>11.2}  {bound:>6.2}",
            q.id,
            estimates.len()
        );
        if max > bound {
            let worst = estimates
                .iter()
                .max_by(|a, b| a.error.total_cmp(&b.error))
                .expect("every plan has a node");
            failures.push(format!(
                "Q{}: q-error {max:.2} exceeds its bound {bound}; worst operator {} \
                 estimated {:.1} rows, produced {}",
                q.id,
                plan.symbol(worst.node.output),
                worst.est,
                worst.node.rows
            ));
        }
    }
    println!("\nkind            nodes  median q-error  max q-error");
    for (kind, errors) in &mut by_kind {
        let (median, max) = median_max(errors);
        println!(
            "{kind:<15} {:>5}  {median:>14.2}  {max:>11.2}",
            errors.len()
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
