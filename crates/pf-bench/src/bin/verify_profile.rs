//! Verifier overhead profile — XMark Q1–Q20 with plan verification off
//! vs on (`EngineOptions::verify_plans` / `PF_VERIFY=1`).
//!
//! The static plan verifier re-analyzes the plan after every rewrite
//! that changed it, so its cost lands entirely at *plan time*; warm
//! executions reuse the cached plan and pay nothing.  The binary
//! measures both halves:
//!
//! * **optimize time** — `optimize_with_verify` on the freshly compiled
//!   plan of every query, verify off vs on (best of `PF_VERIFY_RUNS`
//!   samples each), plus the verifier's own per-rule nanosecond
//!   breakdown and pass counts from [`OptimizeReport`];
//! * **end-to-end wall** — warm query wall time through two engines
//!   (verify off vs on, plan cache enabled, `full` level), interleaved
//!   ~10ms batches as in the other profiles.  This is the number the
//!   "< 5% overhead" acceptance bar refers to.
//!
//! Every verified optimization must report `verified == true`; the
//! binary asserts it and cross-checks the two engines' serializations.
//!
//! ```text
//! cargo run --release -p pf-bench --bin verify_profile -- [scale] [output.json] [threads]
//! cargo run --release -p pf-bench --bin verify_profile -- 0.05 BENCH_pr10.json 1
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use pf_algebra::{optimize_with_verify, NoStats, OptimizeReport, OptimizerLevel};
use pf_bench::{json_string, seconds, time, SEED};
use pf_engine::{EngineOptions, Pathfinder};
use pf_xmark::{generate, queries, GeneratorConfig};
use pf_xquery::{compile, normalize, parse_query, CompileOptions};

struct QueryProfile {
    id: u8,
    name: &'static str,
    /// Best `optimize_with_verify` time, `[off, on]`.
    optimize: [Duration; 2],
    /// Best warm end-to-end wall, `[off, on]`.
    wall: [Duration; 2],
    /// The verified run's report (verify timings, pass counts).
    report: OptimizeReport,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(0.05);
    let out_path = args.next().unwrap_or_else(|| "BENCH_pr10.json".to_string());
    let threads: usize = args
        .next()
        .map(|s| s.parse().expect("threads must be an integer"))
        .unwrap_or(0);
    let runs = runs_per_cell();

    println!("# Verifier overhead profile — XMark Q1–Q20, verify off vs on");
    if cfg!(debug_assertions) {
        println!("# WARNING: debug build — both cells verify; ratios are meaningless");
    }
    let xml = generate(&GeneratorConfig { scale, seed: SEED });
    let doc = Arc::new(pf_xml::parse(&xml).expect("generated document is well-formed"));
    println!("# document: {} bytes of XML at scale {scale}", xml.len());

    // Two engines sharing one parsed document: verification off vs on.
    let engines: Vec<Pathfinder> = [false, true]
        .into_iter()
        .map(|verify| {
            let pf = Pathfinder::with_options(
                EngineOptions::builder()
                    .optimizer_level(OptimizerLevel::FULL)
                    .threads(threads)
                    .verify_plans(verify)
                    .build(),
            );
            pf.load_parsed("auction.xml", &doc)
                .expect("shredding cannot fail on a parsed document");
            pf
        })
        .collect();
    println!("# best of {runs} sample(s) per cell");

    println!();
    println!(
        "{:>3} | {:>11} {:>11} {:>7} | {:>10} {:>10} {:>7} | {:>6}",
        "Q", "opt off", "opt on", "Δopt", "wall off", "wall on", "Δwall", "passes"
    );
    println!("{}", "-".repeat(86));

    let mut profiles: Vec<QueryProfile> = Vec::new();
    for q in queries() {
        let ast = parse_query(q.text).unwrap_or_else(|e| panic!("Q{} parse: {e}", q.id));
        let core = normalize(&ast).unwrap_or_else(|e| panic!("Q{} normalize: {e}", q.id));
        let compiled = compile(&core, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("Q{} compile: {e}", q.id));

        // Optimize-time cells: fresh clone per sample, interleaved.
        let mut optimize: [Option<Duration>; 2] = [None, None];
        let mut report = OptimizeReport::default();
        for _ in 0..runs {
            for (idx, verify) in [false, true].into_iter().enumerate() {
                let mut plan = compiled.plan.clone();
                let (r, wall) = time(|| {
                    optimize_with_verify(&mut plan, OptimizerLevel::FULL, &NoStats, verify)
                });
                if verify {
                    assert!(r.verified, "Q{} failed verification", q.id);
                    report = r;
                }
                if optimize[idx].is_none_or(|b| wall < b) {
                    optimize[idx] = Some(wall);
                }
            }
        }

        // End-to-end cells: warm both engines (compiles into the plan
        // cache), cross-check serializations, then interleaved batches.
        let outs: Vec<String> = engines
            .iter()
            .map(|pf| {
                pf.session()
                    .query(q.text)
                    .unwrap_or_else(|e| panic!("Q{} failed: {e}", q.id))
                    .to_xml()
            })
            .collect();
        assert_eq!(
            outs[0], outs[1],
            "Q{}: verified and unverified engines disagree",
            q.id
        );
        let calibrate = |idx: usize| {
            let (_, wall) = time(|| engines[idx].session().query(q.text));
            (Duration::from_millis(10).as_secs_f64() / wall.as_secs_f64().max(1e-9)).ceil() as usize
        };
        let batch = (0..2).map(calibrate).max().unwrap().clamp(1, 2000);
        let mut wall: [Option<Duration>; 2] = [None, None];
        for _ in 0..runs {
            for (idx, w) in wall.iter_mut().enumerate() {
                let (_, elapsed) = time(|| {
                    for _ in 0..batch {
                        engines[idx]
                            .session()
                            .query(q.text)
                            .unwrap_or_else(|e| panic!("Q{} failed: {e}", q.id));
                    }
                });
                let per_run = elapsed / batch as u32;
                if w.is_none_or(|b| per_run < b) {
                    *w = Some(per_run);
                }
            }
        }

        let optimize = optimize.map(|o| o.expect("at least one sample"));
        let wall = wall.map(|w| w.expect("at least one sample"));
        let pct = |a: Duration, b: Duration| {
            100.0 * (b.as_secs_f64() - a.as_secs_f64()) / a.as_secs_f64().max(f64::EPSILON)
        };
        println!(
            "{:>3} | {:>11} {:>11} {:>6.1}% | {:>10} {:>10} {:>6.1}% | {:>6}",
            format!("Q{}", q.id),
            seconds(optimize[0]),
            seconds(optimize[1]),
            pct(optimize[0], optimize[1]),
            seconds(wall[0]),
            seconds(wall[1]),
            pct(wall[0], wall[1]),
            report.verify_passes,
        );
        profiles.push(QueryProfile {
            id: q.id,
            name: q.name,
            optimize,
            wall,
            report,
        });
    }

    let total = |f: &dyn Fn(&QueryProfile) -> Duration| -> f64 {
        profiles.iter().map(|p| f(p).as_secs_f64()).sum()
    };
    let opt: [f64; 2] = [total(&|p| p.optimize[0]), total(&|p| p.optimize[1])];
    let wall: [f64; 2] = [total(&|p| p.wall[0]), total(&|p| p.wall[1])];
    let verify_nanos: u64 = profiles.iter().map(|p| p.report.verify_nanos()).sum();
    let passes: usize = profiles.iter().map(|p| p.report.verify_passes).sum();
    println!("{}", "-".repeat(86));
    println!(
        "\n# verification: {passes} verifier passes, {:.3} ms inside the verifier",
        verify_nanos as f64 / 1e6
    );
    println!(
        "# optimize time {:.2}x with verification; end-to-end wall {:+.2}% \
         (plan-cache amortized)",
        opt[1] / opt[0].max(f64::EPSILON),
        100.0 * (wall[1] - wall[0]) / wall[0].max(f64::EPSILON)
    );
    // Per-rule verifier breakdown across all queries.
    let mut per_rule = [0u64; OptimizeReport::RULE_NAMES.len()];
    for p in &profiles {
        for (slot, nanos) in per_rule.iter_mut().zip(p.report.verify_rule_nanos) {
            *slot += nanos;
        }
    }
    for (name, nanos) in OptimizeReport::RULE_NAMES.iter().zip(per_rule) {
        if nanos > 0 {
            println!("#   {name:<22} {:>9.3} ms", nanos as f64 / 1e6);
        }
    }

    let json = render_json(scale, xml.len(), runs, &profiles, &per_rule);
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("# wrote {out_path}");
}

/// Timed samples per cell, honouring `PF_VERIFY_RUNS`.
fn runs_per_cell() -> usize {
    std::env::var("PF_VERIFY_RUNS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or(5)
}

/// Hand-rolled JSON rendering (the workspace deliberately has no serde).
fn render_json(
    scale: f64,
    xml_bytes: usize,
    runs: usize,
    profiles: &[QueryProfile],
    per_rule: &[u64; OptimizeReport::RULE_NAMES.len()],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"verify_profile\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"xml_bytes\": {xml_bytes},");
    let _ = writeln!(out, "  \"runs_per_cell\": {runs},");
    let total = |f: &dyn Fn(&QueryProfile) -> Duration| -> f64 {
        profiles.iter().map(|p| f(p).as_secs_f64()).sum()
    };
    let opt: [f64; 2] = [total(&|p| p.optimize[0]), total(&|p| p.optimize[1])];
    let wall: [f64; 2] = [total(&|p| p.wall[0]), total(&|p| p.wall[1])];
    let _ = writeln!(out, "  \"total_optimize_seconds_off\": {:.6},", opt[0]);
    let _ = writeln!(out, "  \"total_optimize_seconds_on\": {:.6},", opt[1]);
    let _ = writeln!(out, "  \"total_wall_seconds_off\": {:.6},", wall[0]);
    let _ = writeln!(out, "  \"total_wall_seconds_on\": {:.6},", wall[1]);
    let _ = writeln!(
        out,
        "  \"wall_overhead_percent\": {:.4},",
        100.0 * (wall[1] - wall[0]) / wall[0].max(f64::EPSILON)
    );
    let _ = writeln!(
        out,
        "  \"verify_passes\": {},",
        profiles
            .iter()
            .map(|p| p.report.verify_passes)
            .sum::<usize>()
    );
    let _ = writeln!(
        out,
        "  \"verify_nanos\": {},",
        profiles
            .iter()
            .map(|p| p.report.verify_nanos())
            .sum::<u64>()
    );
    out.push_str("  \"verify_rule_nanos\": {\n");
    for (i, (name, nanos)) in OptimizeReport::RULE_NAMES.iter().zip(per_rule).enumerate() {
        let _ = writeln!(
            out,
            "    {}: {}{}",
            json_string(name),
            nanos,
            if i + 1 == per_rule.len() { "" } else { "," }
        );
    }
    out.push_str("  },\n");
    out.push_str("  \"queries\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"id\": {},", p.id);
        let _ = writeln!(out, "      \"name\": {},", json_string(p.name));
        let _ = writeln!(
            out,
            "      \"optimize_seconds_off\": {:.9},",
            p.optimize[0].as_secs_f64()
        );
        let _ = writeln!(
            out,
            "      \"optimize_seconds_on\": {:.9},",
            p.optimize[1].as_secs_f64()
        );
        let _ = writeln!(
            out,
            "      \"wall_seconds_off\": {:.9},",
            p.wall[0].as_secs_f64()
        );
        let _ = writeln!(
            out,
            "      \"wall_seconds_on\": {:.9},",
            p.wall[1].as_secs_f64()
        );
        let _ = writeln!(out, "      \"verify_passes\": {},", p.report.verify_passes);
        let _ = writeln!(out, "      \"verify_nanos\": {}", p.report.verify_nanos());
        out.push_str(if i + 1 == profiles.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
