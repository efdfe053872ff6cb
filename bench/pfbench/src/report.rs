//! Metric names and the result line.
//!
//! `BENCHMARK.json` lists the same names; a test below keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics gated by a bound, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("norm_lat_p50", "x"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Ungated metrics of single layers, printed by a traced run.  Every
/// workload prints all of them; a layer a workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pf-xml.parse_ms", "ms"),
    ("pf-xml.parse_mb_per_s", "MB/s"),
    ("pf-store.shred_ms", "ms"),
    ("pf-store.stats_ms", "ms"),
    ("pf-store.index_build_ms", "ms"),
    ("pf-store.index_bytes_per_xml_byte", "B/B"),
    ("pf-store.store_bytes_per_xml_byte", "B/B"),
    ("pf-xquery.parse_ms", "ms"),
    ("pf-xquery.normalize_ms", "ms"),
    ("pf-xquery.compile_ms", "ms"),
    ("pf-xquery.plan_ops_compiled", "count"),
    ("pf-algebra.optimize_ms", "ms"),
    ("pf-algebra.plan_ops_optimized", "count"),
    ("pf-algebra.rule_applications", "count"),
    ("pf-engine.load_ms", "ms"),
    ("pf-engine.compile_ms", "ms"),
    ("pf-engine.optimize_ms", "ms"),
    ("pf-engine.plan_hit_ms", "ms"),
    ("pf-engine.execute_ms", "ms"),
    ("pf-engine.serialize_ms", "ms"),
    ("pf-engine.result_bytes", "B"),
    ("pf-engine.operators_evaluated", "count"),
    ("pf-engine.rows_produced", "count"),
    ("pf-engine.cells_produced", "count"),
    ("pf-engine.peak_resident_rows", "count"),
    ("pf-engine.tables_elided", "count"),
    ("pf-relational.step_ms", "ms"),
    ("pf-relational.pipeline_ms", "ms"),
    ("pf-relational.rownum_ms", "ms"),
    ("pf-relational.sort_ms", "ms"),
    ("pf-relational.equi_join_ms", "ms"),
    ("pf-relational.theta_join_ms", "ms"),
    ("pf-relational.aggregate_ms", "ms"),
    ("pf-relational.construct_ms", "ms"),
    ("pf-relational.index_scan_ms", "ms"),
    ("pf-relational.other_ms", "ms"),
    ("pf-relational.join_build_rows", "count"),
    ("pf-relational.join_probe_rows", "count"),
    ("pf-relational.agg_input_rows", "count"),
    ("pf-relational.index_residual_share", "fraction"),
    ("pf-serve.req_ms_p50", "ms"),
    ("pf-serve.req_ms_p80", "ms"),
    ("pf-serve.short_req_x_p50", "x"),
    ("pf-serve.load_ms_p50", "ms"),
    ("pf-serve.ping_ms_p50", "ms"),
    ("pf-serve.throughput_rps", "1/s"),
    ("pf-serve.admission_waited", "count"),
    ("pf-serve.plan_cache_hit_share", "fraction"),
    ("pf-serve.pool_spawns", "count"),
    ("pf-baseline.nav_round_ms", "ms"),
    ("pf-baseline.speedup_vs_nav", "x"),
    ("ref.kernel_ms_p50", "ms"),
    ("ref.kernel_ms_iqr", "ms"),
    ("e2e.round_ms_p50", "ms"),
    ("e2e.round_ms_p90", "ms"),
    ("e2e.rounds", "count"),
    ("e2e.norm_lat_p90", "x"),
    ("q01.x", "x"),
    ("q02.x", "x"),
    ("q03.x", "x"),
    ("q04.x", "x"),
    ("q05.x", "x"),
    ("q06.x", "x"),
    ("q07.x", "x"),
    ("q08.x", "x"),
    ("q09.x", "x"),
    ("q10.x", "x"),
    ("q11.x", "x"),
    ("q12.x", "x"),
    ("q13.x", "x"),
    ("q14.x", "x"),
    ("q15.x", "x"),
    ("q16.x", "x"),
    ("q17.x", "x"),
    ("q18.x", "x"),
    ("q19.x", "x"),
    ("q20.x", "x"),
    ("trace.overhead_share", "x"),
    ("trace.self_time_coverage", "fraction"),
];

/// The metric name of XMark query `id`'s share of the round.
pub fn query_metric(id: u8) -> String {
    format!("q{id:02}.x")
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Replies checked against a reference, in set-up and in the window.
    pub attempted: u64,
    /// Replies that errored, were refused or differed from the reference.
    pub failed: u64,
    /// Queries whose first reply was compared with `pf-baseline`.
    pub verified_against_nav: u64,
    /// Values by metric name; a name of the run's list that is absent reads 0.
    pub metrics: BTreeMap<String, f64>,
    /// Raw readings people look at, printed and not gated.
    pub diagnostics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// One `workload metric value unit` line per metric, then the result
    /// object on the last line.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let fail_share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{workload} fail_share {fail_share} fraction ({} failed of {} attempted, {} verified against pf-baseline)",
            self.failed, self.attempted, self.verified_against_nav
        );
        for (name, value, unit) in &self.diagnostics {
            let _ = writeln!(out, "{workload} {name} {value} {unit} (diagnostic)");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = writeln!(out, "{workload} {name} {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let manifest = include_str!("../../../BENCHMARK.json");
        let section = |key: &str| {
            let start = manifest.find(&format!("\"{key}\"")).expect(key);
            let end = start + manifest[start..].find(']').expect("list ends");
            &manifest[start..end]
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), list.len(), "{key}");
            for (name, unit) in list {
                assert!(
                    text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{key} lacks {name} in {unit}"
                );
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_queries_map_to_theirs() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(query_metric(1), "q01.x");
        assert_eq!(query_metric(20), "q20.x");
    }

    #[test]
    fn the_last_line_is_the_result_object_with_every_metric_of_the_run() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("norm_lat_p50", 6.25);
        o.set("setup_s", 0.5);
        let text = o.render("w", false);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"norm_lat_p50\": {\"value\": 6.25, \"unit\": \"x\"}, \
             \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("w norm_lat_p50 6.25 x\n"));
        o.failed = 1;
        assert!(o
            .render("w", true)
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
