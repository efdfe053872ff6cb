//! Shared code for the paper-artefact binaries.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`; performance is measured by `bench/pfbench` (see
//! `bench/README.md`), not here.  The helpers
//! here prepare documents of a given scale factor for both engines and time
//! query executions.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use pf_baseline::BaselineEngine;
use pf_engine::Pathfinder;
use pf_xmark::{generate, GeneratorConfig};

/// The scale factors used by the harness binaries.
///
/// They are scaled-down analogues of the paper's 11 MB / 110 MB / 1.1 GB /
/// 11 GB instances (factors 0.1–100): each step grows the document size,
/// starting small enough that the navigational baseline can still finish
/// the join queries on the smaller instances.  Override with the
/// `PF_BENCH_SCALES` environment variable (comma-separated factors).
pub const DEFAULT_SCALES: [f64; 3] = [0.02, 0.1, 0.5];

/// Scale factors to run, honouring `PF_BENCH_SCALES`.
pub fn scales() -> Vec<f64> {
    match std::env::var("PF_BENCH_SCALES") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse::<f64>().ok())
            .filter(|f| *f > 0.0)
            .collect(),
        Err(_) => DEFAULT_SCALES.to_vec(),
    }
}

/// Generator seed shared by all experiments (documents are reproducible).
pub const SEED: u64 = 20050831;

/// A prepared benchmark instance: the generated document loaded into both
/// engines (with the baseline tuned with the Section 3.2 value indices).
pub struct Instance {
    /// Scale factor of the generated document.
    pub scale: f64,
    /// Size of the XML serialization in bytes.
    pub xml_bytes: usize,
    /// The relational engine.
    pub pathfinder: Pathfinder,
    /// The navigational comparator.
    pub baseline: BaselineEngine,
}

/// Generate one instance and load it into both engines.
///
/// The generated XML is parsed once; the parsed document is shared with the
/// baseline engine (zero-copy) and shredded into the Pathfinder store,
/// which runs with the default engine options.
pub fn prepare(scale: f64) -> Instance {
    let xml = generate(&GeneratorConfig { scale, seed: SEED });
    let doc = Arc::new(pf_xml::parse(&xml).expect("generated document is well-formed"));
    let pathfinder = Pathfinder::new();
    pathfinder
        .load_parsed("auction.xml", &doc)
        .expect("shredding cannot fail on a parsed document");
    let mut baseline = BaselineEngine::new();
    baseline.load_shared("auction.xml", Arc::clone(&doc));
    baseline
        .create_attribute_index("auction.xml", "buyer", "person")
        .expect("document loaded");
    baseline
        .create_attribute_index("auction.xml", "profile", "income")
        .expect("document loaded");
    Instance {
        scale,
        xml_bytes: xml.len(),
        pathfinder,
        baseline,
    }
}

/// Time one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Render a duration in seconds with a sensible precision (the unit used by
/// Table 3 of the paper).
pub fn seconds(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_builds_both_engines() {
        let mut instance = prepare(0.002);
        assert!(instance.xml_bytes > 1000);
        let q = pf_xmark::query(1).unwrap();
        let a = instance.pathfinder.session().query(q.text).unwrap();
        let b = instance.baseline.query(q.text).unwrap();
        assert_eq!(a.to_xml(), b.to_xml());
    }

    #[test]
    fn scales_default_is_ascending() {
        let s = DEFAULT_SCALES;
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(seconds(Duration::from_millis(1500)), "1.5000");
    }
}
