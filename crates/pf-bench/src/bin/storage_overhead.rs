//! Experiment E1 — reproduce the **Section 3.1 storage overhead** numbers:
//! the size of the `pre|size|level` encoding (plus property dictionaries)
//! relative to the original XML serialization, which the paper reports as
//! 147 % at 11 MB falling to 125 % at 110 MB (and below 100 % once duplicate
//! text dominates).  Beside it, the load rung of the scale ladder: how fast
//! `load_document` parses and shreds each instance, in MB of XML per
//! second, the median of five loads.
//!
//! ```text
//! cargo run --release -p pf-bench --bin storage_overhead
//! PF_BENCH_SCALES=0.5,2,3.3,33 cargo run --release -p pf-bench --bin storage_overhead
//! ```

use pf_bench::{scales, time, SEED};
use pf_engine::Pathfinder;
use pf_xmark::{generate, GeneratorConfig};

/// Loads per scale; the throughput is their median.
const LOADS: usize = 5;

fn main() {
    println!("# Section 3.1 reproduction — storage overhead of the relational encoding");
    println!();
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12} {:>9} {:>10}",
        "scale",
        "xml bytes",
        "enc bytes",
        "nodes",
        "attrs",
        "qnames",
        "texts",
        "overhead",
        "load MB/s"
    );
    for scale in scales() {
        let xml = generate(&GeneratorConfig { scale, seed: SEED });
        let pf = Pathfinder::new();
        // Each load parses and shreds the whole text and replaces the
        // document the previous one registered.
        let mut loads: Vec<f64> = (0..LOADS)
            .map(|_| {
                let (loaded, took) = time(|| pf.load_document("auction.xml", &xml));
                loaded.unwrap();
                took.as_secs_f64()
            })
            .collect();
        loads.sort_by(f64::total_cmp);
        let mb_per_s = xml.len() as f64 / 1e6 / loads[LOADS / 2];
        let stats = pf.registry().storage_stats("auction.xml").unwrap();
        println!(
            "{:>8} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12} {:>8.1}% {:>10.1}",
            scale,
            stats.source_bytes,
            stats.total_bytes(),
            stats.nodes,
            stats.attributes,
            stats.distinct_qnames,
            stats.distinct_texts,
            stats.overhead_percent().unwrap_or(0.0),
            mb_per_s
        );
    }
    println!();
    println!("# Expected shape: overhead above 100% for small documents, decreasing with");
    println!("# document size as surrogate sharing amortizes the dictionaries (paper:");
    println!("# 147% at 11 MB -> 125% at 110 MB -> below 100% for larger XMark instances).");
}
