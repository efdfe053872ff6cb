//! What every workload shares: the run's settings, the round loop of the
//! noise method, and turning rounds and spans into metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::refkernel::RefKernel;
use crate::report::{query_metric, Outcome};
use crate::stats::{median, paired_ratios, percentile, quiet_median};
use crate::trace::{self_times_ns, sum_by_round, Span, Tracer};

/// The generator seed of every document (the repository's `pf_bench::SEED`).
///
/// An XMark document is a function of its scale factor, as in the paper's
/// Table 3: how many rows a join touches changes by several percent from one
/// generator seed to the next (7 % for Q11), which would be read as a
/// difference between runs.  `--seed` instead drives what the harness
/// randomises without changing the work: the order of the queries in each
/// pass, and in `serve_mixed` the request order, the short queries drawn,
/// the literals and the version each reload loads.
pub const DOCUMENT_SEED: u64 = 20050831;

/// Fewest rounds a window measures, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: document scales divided by ten.
    pub quick: bool,
}

impl Config {
    pub fn scale(&self, full: f64) -> f64 {
        if self.quick {
            full / 10.0
        } else {
            full
        }
    }
}

/// Where the benchmark writes: `bench/out` under the working directory.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("bench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of process `pid` (`"self"` or a number) in MB, from
/// `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

/// The rounds of one window: `refs_ms[i]` and `refs_ms[i + 1]` surround
/// `ops_ms[i]`.
#[derive(Debug, Default)]
pub struct Rounds {
    pub ops_ms: Vec<f64>,
    pub refs_ms: Vec<f64>,
    /// Index of the first traced round (`ops_ms.len()` in an untraced run).
    pub first_traced: usize,
    /// Wall time from the first traced round to the end of the window.
    pub traced_wall_ms: f64,
}

/// When the next round is the first traced one: a traced run measures the
/// first quarter of its window untraced, for the overhead.
pub struct TraceSwitch {
    started: Instant,
    budget: Duration,
    trace: bool,
    traced_since: Option<Instant>,
}

impl TraceSwitch {
    pub fn new(cfg: &Config) -> Self {
        TraceSwitch {
            started: Instant::now(),
            budget: Duration::from_secs_f64(cfg.seconds),
            trace: cfg.trace,
            traced_since: None,
        }
    }

    /// Call before each round with the rounds done; true exactly once.
    pub fn turns_on(&mut self, rounds_done: usize) -> bool {
        let due = self.trace
            && self.traced_since.is_none()
            && rounds_done >= 1
            && self.started.elapsed() >= self.budget / 4;
        if due {
            self.traced_since = Some(Instant::now());
        }
        due
    }

    /// Call after each round: whether the window is over.
    pub fn done(&self, rounds_done: usize, first_traced: Option<usize>) -> bool {
        let enough = if self.trace {
            first_traced.is_some_and(|first| rounds_done >= first + MIN_ROUNDS)
        } else {
            rounds_done >= MIN_ROUNDS
        };
        enough && self.started.elapsed() >= self.budget
    }

    pub fn traced_wall_ms(&self) -> f64 {
        self.traced_since.map_or(0.0, |since| ms(since.elapsed()))
    }
}

/// One timed call of the reference kernel, in ms.  An untimed call goes
/// first, so the timed one starts from the same cache state whatever the
/// operation before it left there (without it the kernel's median moved
/// about twice as far from process to process).
pub fn reference_ms(kernel: &mut RefKernel, tracer: &mut Tracer) -> f64 {
    tracer.span("ref_warm_up", 0, |_| kernel.run());
    let started = Instant::now();
    tracer.span("ref", 0, |_| kernel.run());
    ms(started.elapsed())
}

/// The kernel's wall time in ms on the box the benchmark was defined on,
/// when that box is quiet.
const NOMINAL_REF_MS: f64 = 23.0;

/// `setup_s`: set-up seconds at the speed at which the kernel takes
/// [`NOMINAL_REF_MS`].  A set-up happens once, so it cannot be paired round
/// by round; instead the kernel is timed right after it, in the same process
/// (`reference_ms`, the mean of two calls), and the seconds are scaled by
/// how much slower or faster than nominal the box was just then.  Raw
/// set-up seconds drifted 18 to 23 % between two sets of five runs of the
/// same code; corrected, they are comparable across hours and still read as
/// seconds on this box.
pub fn corrected_seconds(seconds: f64, reference_ms: f64) -> f64 {
    seconds * NOMINAL_REF_MS / reference_ms
}

/// The reference for one set-up: the mean of two timed kernel calls.
pub fn setup_reference_ms(kernel: &mut RefKernel) -> f64 {
    let mut untraced = Tracer::new(false, Instant::now());
    (reference_ms(kernel, &mut untraced) + reference_ms(kernel, &mut untraced)) / 2.0
}

/// The noise method on one thread: `ref, op, ref, op, … ref` for
/// `cfg.seconds`.  `op` returns the wall time in ms of its timed part.
pub fn run_rounds(
    cfg: &Config,
    tracer: &mut Tracer,
    kernel: &mut RefKernel,
    mut op: impl FnMut(&mut Tracer) -> f64,
) -> Rounds {
    let mut rounds = Rounds::default();
    let mut switch = TraceSwitch::new(cfg);
    rounds.refs_ms.push(reference_ms(kernel, tracer));
    let mut first_traced = None;
    loop {
        let done = rounds.ops_ms.len();
        if switch.turns_on(done) {
            tracer.set_enabled(true);
            first_traced = Some(done);
        }
        tracer.round = done as u32;
        rounds.ops_ms.push(op(tracer));
        rounds.refs_ms.push(reference_ms(kernel, tracer));
        if switch.done(rounds.ops_ms.len(), first_traced) {
            break;
        }
    }
    rounds.first_traced = first_traced.unwrap_or(rounds.ops_ms.len());
    rounds.traced_wall_ms = switch.traced_wall_ms();
    rounds
}

/// Span names whose per-round self time is a metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("pf-xml.parse", "pf-xml.parse_ms"),
    ("pf-store.shred", "pf-store.shred_ms"),
    ("pf-store.stats", "pf-store.stats_ms"),
    ("pf-store.index_build", "pf-store.index_build_ms"),
    ("pf-xquery.parse", "pf-xquery.parse_ms"),
    ("pf-xquery.normalize", "pf-xquery.normalize_ms"),
    ("pf-xquery.compile", "pf-xquery.compile_ms"),
    ("pf-algebra.optimize", "pf-algebra.optimize_ms"),
    ("pf-engine.load_document", "pf-engine.load_ms"),
    ("pf-engine.write_xml", "pf-engine.serialize_ms"),
    ("pf-baseline.nav_round", "pf-baseline.nav_round_ms"),
];

/// Fill `outcome` from the window: the gated ratio and raw diagnostics of
/// an untraced run, or the harness and span metrics of a traced one.
/// `quiet_share` is the share of the rounds the gated ratio is taken over,
/// see [`quiet_median`].
pub fn summarize(
    cfg: &Config,
    rounds: &Rounds,
    quiet_share: f64,
    spans: &[Span],
    counts: &[(u32, &'static str, f64)],
    outcome: &mut Outcome,
) {
    let from = if cfg.trace { rounds.first_traced } else { 0 };
    let ops = &rounds.ops_ms[from..];
    let refs = &rounds.refs_ms[from..];
    let x = paired_ratios(ops, refs);
    let readings = [
        ("e2e.norm_lat_p90", percentile(&x, 90.0), "x"),
        ("e2e.round_ms_p50", median(ops), "ms"),
        ("e2e.round_ms_p90", percentile(ops, 90.0), "ms"),
        ("e2e.rounds", ops.len() as f64, "count"),
        ("ref.kernel_ms_p50", median(refs), "ms"),
    ];
    if !cfg.trace {
        outcome.set("norm_lat_p50", quiet_median(ops, refs, quiet_share));
        outcome.diagnostics.extend(readings);
        return;
    }
    for (name, value, _) in readings {
        outcome.set(name, value);
    }
    outcome.set(
        "ref.kernel_ms_iqr",
        percentile(refs, 75.0) - percentile(refs, 25.0),
    );
    // Of paired ratios, like the gated metric: a quarter of a window apart,
    // raw medians differ by the box's drift as much as by the tracing.
    let untraced = paired_ratios(
        &rounds.ops_ms[..rounds.first_traced],
        &rounds.refs_ms[..=rounds.first_traced],
    );
    outcome.set("trace.overhead_share", median(&x) / median(&untraced));

    let own = self_times_ns(spans);
    let total_self_ms: f64 = own.iter().map(|&ns| ns as f64 / 1e6).sum();
    outcome.set(
        "trace.self_time_coverage",
        total_self_ms / rounds.traced_wall_ms,
    );
    for (span_name, metric) in SPAN_METRICS {
        let per_round = sum_by_round(
            spans
                .iter()
                .zip(&own)
                .filter(|(span, _)| span.name == *span_name)
                .map(|(span, &ns)| (span.round, ns as f64 / 1e6)),
        );
        outcome.set(metric, median(&per_round));
    }
    // Product-reported readings: the median over rounds of the round's sum.
    let mut names: Vec<&'static str> = counts.iter().map(|c| c.1).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let per_round = sum_by_round(counts.iter().filter(|c| c.1 == name).map(|c| (c.0, c.2)));
        outcome.set(name, median(&per_round));
    }
    // Each query's share of the round, normalised like the round itself.
    let ref_mean = |round: u32| {
        let i = round as usize;
        (rounds.refs_ms[i] + rounds.refs_ms[i + 1]) / 2.0
    };
    for id in 1..=20u8 {
        let per_round = sum_by_round(
            spans
                .iter()
                .filter(|span| span.name == "query" && span.query == id)
                .map(|span| {
                    (
                        span.round,
                        span.duration_ns() as f64 / 1e6 / ref_mean(span.round),
                    )
                }),
        );
        outcome.set(&query_metric(id), median(&per_round));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_alternates_reference_and_operation_and_traces_its_tail() {
        let cfg = Config {
            seed: 1,
            seconds: 0.2,
            trace: true,
            quick: true,
        };
        let mut tracer = Tracer::new(false, Instant::now());
        let mut kernel = RefKernel::new();
        let rounds = run_rounds(&cfg, &mut tracer, &mut kernel, |t| {
            let started = Instant::now();
            t.span("op", 0, |_| std::thread::sleep(Duration::from_millis(5)));
            ms(started.elapsed())
        });
        assert_eq!(rounds.refs_ms.len(), rounds.ops_ms.len() + 1);
        assert!(rounds.first_traced >= 1);
        assert!(rounds.ops_ms.len() >= rounds.first_traced + MIN_ROUNDS);
        let traced_ops = tracer.spans.iter().filter(|s| s.name == "op").count();
        assert_eq!(traced_ops, rounds.ops_ms.len() - rounds.first_traced);
        assert!(tracer
            .spans
            .iter()
            .all(|s| s.round as usize >= rounds.first_traced));

        let mut outcome = Outcome::default();
        summarize(
            &cfg,
            &rounds,
            1.0,
            &tracer.spans,
            &tracer.counts,
            &mut outcome,
        );
        let coverage = outcome.metrics["trace.self_time_coverage"];
        assert!((0.95..=1.0).contains(&coverage), "{coverage}");
    }

    #[test]
    fn set_up_seconds_are_scaled_to_the_nominal_speed() {
        assert_eq!(corrected_seconds(1.0, NOMINAL_REF_MS), 1.0);
        // The box ran 25 % slow while setting up: the work was worth 0.8 s.
        assert_eq!(corrected_seconds(1.0, 1.25 * NOMINAL_REF_MS), 0.8);
    }

    #[test]
    fn this_process_has_a_peak_resident_set() {
        assert!(peak_rss_mb("self").unwrap() > 1.0);
    }
}
