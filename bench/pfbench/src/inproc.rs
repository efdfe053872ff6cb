//! The four single-client workloads: the harness thread is the only
//! runnable thread, so the numbers measure the program and not the
//! scheduler.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::api::{self, Engine, Nav, DOC};
use crate::harness::{
    corrected_seconds, ms, out_dir, peak_rss_mb, run_rounds, setup_reference_ms, summarize, Config,
    DOCUMENT_SEED,
};
use crate::refkernel::RefKernel;
use crate::report::Outcome;
use crate::stats::{median, SplitMix64};
use crate::trace::{self, Tracer};

pub struct Spec {
    pub name: &'static str,
    /// XMark scale of the document (divided by ten in quick mode).
    pub scale: f64,
    pub queries: &'static [u8],
    /// Passes over `queries` per round, so a round lasts about 100 ms.
    pub passes: usize,
    /// The operation builds a fresh engine and loads the document itself.
    pub cold: bool,
    /// A round of a traced run also runs `pf-baseline` over the same
    /// queries.
    pub nav_rounds: bool,
}

pub static SPECS: [Spec; 4] = [
    Spec {
        name: "paths_warm",
        scale: 2.0,
        queries: &[1, 2, 3, 4, 5, 6, 7, 13, 14, 15, 16, 17, 18, 19, 20],
        passes: 1,
        cold: false,
        nav_rounds: true,
    },
    Spec {
        name: "joins_warm",
        scale: 2.0,
        queries: &[8, 9, 10],
        passes: 2,
        cold: false,
        nav_rounds: false,
    },
    Spec {
        name: "theta_warm",
        scale: 0.15,
        queries: &[11, 12],
        passes: 3,
        cold: false,
        nav_rounds: false,
    },
    Spec {
        name: "cold_oneshot",
        scale: 0.5,
        queries: &[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18, 19, 20,
        ],
        passes: 1,
        cold: true,
        nav_rounds: false,
    },
];

/// The gated ratio is taken over the quietest quarter of the rounds: one
/// thread runs both the operation and the reference, so the reference calls
/// tell which rounds the box left alone.
const QUIET_SHARE: f64 = 0.25;

/// Fresh processes that set up, for `setup_s` and `peak_rss_mb`.
const SETUP_REPS: usize = 9;

/// The walker is quadratic on Q8 to Q12: above this scale they are checked
/// on a twin document of this scale.
pub const TWIN_SCALE: f64 = 0.2;

pub fn is_join(id: u8) -> bool {
    (8..=12).contains(&id)
}

/// `--probe`: one product set-up in a process of its own.  Times a fresh
/// engine's `load_document` plus the first run of every query, then runs
/// the warm passes of a round so the peak resident set covers execution,
/// reads that peak, and only then builds and times the reference kernel.
/// Prints set-up seconds, reference ms and peak MB.  Document generation is
/// outside the timing.
pub fn probe(spec: &Spec, cfg: &Config) -> Result<(), String> {
    let xml = api::generate(cfg.scale(spec.scale), DOCUMENT_SEED);
    let mut out = String::new();
    let started = Instant::now();
    let engine = api::new_engine();
    api::load(&engine, DOC, &xml)?;
    for &id in spec.queries {
        api::query(&engine, api::query_text(id), &mut out)?;
    }
    let setup = started.elapsed();
    if !spec.cold {
        for _ in 0..spec.passes {
            for &id in spec.queries {
                api::query(&engine, api::query_text(id), &mut out)?;
            }
        }
    }
    let peak = peak_rss_mb("self")?;
    let reference = setup_reference_ms(&mut RefKernel::new());
    println!("probe {} {reference} {peak}", setup.as_secs_f64());
    Ok(())
}

/// Run [`probe`] in `SETUP_REPS` fresh processes and set `setup_s` to the
/// median of the corrected set-up seconds and `peak_rss_mb` to the mean of
/// the peaks (the peaks of `theta_warm` fall into two modes 5 % apart: a
/// median flips between them from run to run, a mean moves a fifth as far).
fn run_probes(spec: &Spec, cfg: &Config, outcome: &mut Outcome) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut raw, mut setups, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let mut command = Command::new(&exe);
        command.args(["--probe", spec.name]);
        if cfg.quick {
            command.arg("--quick");
        }
        let output = command
            .output()
            .map_err(|e| format!("cannot start the probe: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let fields: Vec<f64> = text
            .trim()
            .strip_prefix("probe ")
            .map(|rest| rest.split(' ').filter_map(|f| f.parse().ok()).collect())
            .unwrap_or_default();
        let [setup, reference, peak] = fields[..] else {
            return Err(format!(
                "the probe failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        };
        raw.push(setup);
        setups.push(corrected_seconds(setup, reference));
        peaks.push(peak);
    }
    outcome.set("setup_s", median(&setups));
    outcome.set(
        "peak_rss_mb",
        peaks.iter().sum::<f64>() / peaks.len() as f64,
    );
    outcome.diagnostics.push(("setup_raw_s", median(&raw), "s"));
    Ok(())
}

/// The state one window works on.
struct Bench<'a> {
    spec: &'a Spec,
    xml: &'a str,
    /// The engine's first reply to each query: what every later reply must
    /// equal.
    first: Vec<String>,
    outs: Vec<String>,
    errored: Vec<bool>,
    /// The order the next pass runs the queries in, reshuffled from the
    /// run's seed after every pass.
    order: Vec<usize>,
    rng: SplitMix64,
    attempted: u64,
    failed: u64,
}

impl Bench<'_> {
    /// One pass over the queries on `engine`, each reply into its `outs`
    /// slot.
    fn run_queries(&mut self, engine: &Engine, t: &mut Tracer) {
        for &i in &self.order {
            let id = self.spec.queries[i];
            let text = api::query_text(id);
            let out = &mut self.outs[i];
            let ok = if t.enabled() {
                t.span("query", id, |t| traced_query(engine, id, text, out, t))
            } else {
                api::query(engine, text, out)
            };
            self.errored[i] = ok.is_err();
        }
        self.rng.shuffle(&mut self.order);
    }

    /// What a command-line user pays: a fresh engine, the load, the first
    /// run of every query, and dropping the engine.
    fn cold_pass(&mut self, t: &mut Tracer) {
        let engine = api::new_engine();
        let loaded = t.span("pf-engine.load_document", 0, |_| {
            api::load(&engine, DOC, self.xml)
        });
        if loaded.is_err() {
            self.errored.fill(true);
            return;
        }
        self.run_queries(&engine, t);
    }

    /// Compare the pass's replies with the first ones, outside the timing.
    fn check(&mut self) {
        for ((out, first), errored) in self.outs.iter().zip(&self.first).zip(&self.errored) {
            self.attempted += 1;
            self.failed += u64::from(*errored || out != first);
        }
    }

    /// One round's operation; returns the wall time in ms of its passes.
    fn op(&mut self, engine: Option<&Engine>, t: &mut Tracer) -> f64 {
        let mut wall = Duration::ZERO;
        for _ in 0..self.spec.passes {
            let started = Instant::now();
            t.span("op", 0, |t| match engine {
                Some(engine) => self.run_queries(engine, t),
                None => self.cold_pass(t),
            });
            wall += started.elapsed();
            t.span("check", 0, |_| self.check());
        }
        ms(wall)
    }

    /// Traced cold rounds only: call each layer under the engine by its
    /// own public function, for the split `load_document` and a cold
    /// `query_with` hide.
    fn layer_probe(&self, t: &mut Tracer) -> Result<(), String> {
        let xml = self.xml;
        let doc = t.span("pf-xml.parse", 0, |_| api::xml_parse(xml))?;
        let store = t.span("pf-store.shred", 0, |_| api::shred(&doc));
        let statistics = t.span("pf-store.stats", 0, |_| api::measure_statistics(&store));
        let index_bytes = t.span("pf-store.index_build", 0, |_| api::build_indexes(&store));
        let store_bytes = t.span("pf-store.storage_stats", 0, |_| api::storage_bytes(&store));
        t.count(
            "pf-store.index_bytes_per_xml_byte",
            index_bytes as f64 / xml.len() as f64,
        );
        t.count(
            "pf-store.store_bytes_per_xml_byte",
            store_bytes as f64 / xml.len() as f64,
        );
        for &id in self.spec.queries {
            let ast = t.span("pf-xquery.parse", id, |_| {
                api::xq_parse(api::query_text(id))
            })?;
            let core = t.span("pf-xquery.normalize", id, |_| api::xq_normalize(&ast))?;
            let mut plan = t.span("pf-xquery.compile", id, |_| api::xq_compile(&core))?;
            t.span("pf-algebra.optimize", id, |_| {
                api::optimize(&mut plan, &statistics)
            });
        }
        Ok(())
    }
}

/// One profiled query under spans, with what it reports about itself
/// counted into the round.
fn traced_query(
    engine: &Engine,
    id: u8,
    text: &str,
    out: &mut String,
    t: &mut Tracer,
) -> Result<(), String> {
    let started = Instant::now();
    let profiled = t.span("pf-engine.query_with", id, |_| {
        api::query_profiled(engine, text)
    })?;
    let total = started.elapsed();
    t.span("pf-engine.write_xml", id, |_| profiled.write_xml(out))?;
    let p = &profiled.profile;
    let planning = p.compile + p.optimize;
    t.count("pf-engine.compile_ms", ms(p.compile));
    t.count("pf-engine.optimize_ms", ms(p.optimize));
    t.count("pf-engine.execute_ms", ms(p.execute));
    t.count(
        "pf-engine.plan_hit_ms",
        ms(total.saturating_sub(p.execute + planning)),
    );
    t.count("pf-engine.result_bytes", out.len() as f64);
    for (metric, value) in [
        ("pf-xquery.plan_ops_compiled", p.plan_ops_compiled),
        ("pf-algebra.plan_ops_optimized", p.plan_ops_optimized),
        ("pf-algebra.rule_applications", p.rule_applications),
        ("pf-engine.operators_evaluated", p.operators_evaluated),
        ("pf-engine.rows_produced", p.rows_produced),
        ("pf-engine.cells_produced", p.cells_produced),
        ("pf-engine.tables_elided", p.tables_elided),
        ("pf-relational.join_build_rows", p.join_build_rows),
        ("pf-relational.join_probe_rows", p.join_probe_rows),
        ("pf-relational.agg_input_rows", p.agg_input_rows),
        ("index_candidate_rows", p.index_candidate_rows),
        ("index_residual_rows", p.index_residual_rows),
    ] {
        t.count(metric, value as f64);
    }
    t.count("peak_resident_rows", p.peak_resident_rows as f64);
    for &(kind, wall) in &p.op_kinds {
        t.count(op_kind_metric(kind), ms(wall));
    }
    Ok(())
}

/// The `pf-relational` metric an operator kind of `OpProfile` counts into.
fn op_kind_metric(kind: &str) -> &'static str {
    match kind {
        "step" => "pf-relational.step_ms",
        "pipeline" => "pf-relational.pipeline_ms",
        "rownum" => "pf-relational.rownum_ms",
        "sort" => "pf-relational.sort_ms",
        "equi_join" => "pf-relational.equi_join_ms",
        "theta_join" => "pf-relational.theta_join_ms",
        "aggregate" => "pf-relational.aggregate_ms",
        "elem_construct" | "attr_construct" | "text_construct" => "pf-relational.construct_ms",
        "index_scan" => "pf-relational.index_scan_ms",
        _ => "pf-relational.other_ms",
    }
}

/// Compare `replies` to the walker's on the same document.
fn check_against_nav(
    nav: &mut Nav,
    ids: impl Iterator<Item = (u8, impl AsRef<str>)>,
    outcome: &mut Outcome,
) {
    for (id, reply) in ids {
        outcome.attempted += 1;
        outcome.verified_against_nav += 1;
        match api::nav_query(nav, api::query_text(id)) {
            Ok(expected) if expected == reply.as_ref() => {}
            Ok(_) => {
                eprintln!("Q{id}: the reply differs from pf-baseline's");
                outcome.failed += 1;
            }
            Err(e) => {
                eprintln!("Q{id}: pf-baseline failed: {e}");
                outcome.failed += 1;
            }
        }
    }
}

/// The correctness gate before the window: `first` holds the engine's
/// first replies on the workload's document.  Path queries are compared
/// with the walker on that document; Q8 to Q12 on it too when it is no
/// larger than [`TWIN_SCALE`], otherwise engine and walker are compared on
/// the twin.  Returns the walker on the workload's document, if one was
/// built.
pub fn verify_against_nav(
    ids: &[u8],
    first: &[String],
    xml: &str,
    scale: f64,
    outcome: &mut Outcome,
) -> Result<Option<Nav>, String> {
    let on_twin = |id: &u8| is_join(*id) && scale > TWIN_SCALE;
    let mut nav = None;
    if !ids.iter().all(on_twin) {
        let nav = nav.insert(api::new_nav(DOC, xml)?);
        let here = ids.iter().zip(first).filter(|(id, _)| !on_twin(id));
        check_against_nav(nav, here.map(|(id, reply)| (*id, reply)), outcome);
    }
    if ids.iter().any(on_twin) {
        let twin_xml = api::generate(TWIN_SCALE, DOCUMENT_SEED);
        let engine = api::new_engine();
        api::load(&engine, DOC, &twin_xml)?;
        let mut twin_nav = api::new_nav(DOC, &twin_xml)?;
        let mut replies = Vec::new();
        for &id in ids.iter().filter(|id| on_twin(id)) {
            let mut reply = String::new();
            if let Err(e) = api::query(&engine, api::query_text(id), &mut reply) {
                reply = format!("the engine failed: {e}");
            }
            replies.push((id, reply));
        }
        check_against_nav(&mut twin_nav, replies.into_iter(), outcome);
    }
    Ok(nav)
}

/// The window of one workload, without the set-up probes.
pub fn measure(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let scale = cfg.scale(spec.scale);
    let xml = api::generate(scale, DOCUMENT_SEED);
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(false, Instant::now());
    let n = spec.queries.len();
    let mut bench = Bench {
        spec,
        xml: &xml,
        first: vec![String::new(); n],
        outs: vec![String::new(); n],
        errored: vec![false; n],
        order: (0..n).collect(),
        rng: SplitMix64::new(cfg.seed),
        attempted: 0,
        failed: 0,
    };

    // The first replies: the cold pass of the engine the warm window uses.
    let engine = api::new_engine();
    api::load(&engine, DOC, &xml)?;
    bench.run_queries(&engine, &mut tracer);
    bench.first.clone_from(&bench.outs);
    outcome.attempted += n as u64;
    outcome.failed += bench.errored.iter().filter(|e| **e).count() as u64;
    let nav = verify_against_nav(spec.queries, &bench.first, &xml, scale, &mut outcome)?;
    let mut nav = nav.filter(|_| cfg.trace && spec.nav_rounds);
    let engine = (!spec.cold).then_some(engine);

    let mut kernel = RefKernel::new();
    let mut nav_speedups = Vec::new();
    let rounds = run_rounds(cfg, &mut tracer, &mut kernel, |t| {
        let op_ms = bench.op(engine.as_ref(), t);
        if t.enabled() && spec.cold {
            if let Err(e) = t.span("layer_probe", 0, |t| bench.layer_probe(t)) {
                eprintln!("layer probe: {e}");
                bench.failed += 1;
            }
        }
        // Every round of a traced run; the speed-up is taken from the
        // rounds before tracing starts, where the engine ran unprofiled.
        if let Some(nav) = nav.as_mut() {
            let profiled = t.enabled();
            let started = Instant::now();
            t.span("pf-baseline.nav_round", 0, |_| {
                for &id in spec.queries {
                    std::hint::black_box(api::nav_query(nav, api::query_text(id)).ok());
                }
            });
            if !profiled {
                nav_speedups.push(ms(started.elapsed()) / op_ms);
            }
        }
        op_ms
    });
    outcome.attempted += bench.attempted;
    outcome.failed += bench.failed;
    summarize(
        cfg,
        &rounds,
        QUIET_SHARE,
        &tracer.spans,
        &tracer.counts,
        &mut outcome,
    );
    if cfg.trace {
        finish_trace(spec, &xml, &tracer, &nav_speedups, &mut outcome)?;
    }
    Ok(outcome)
}

/// The traced metrics that are not a plain per-round sum, and the span file.
fn finish_trace(
    spec: &Spec,
    xml: &str,
    tracer: &Tracer,
    nav_speedups: &[f64],
    outcome: &mut Outcome,
) -> Result<(), String> {
    outcome.set("pf-baseline.speedup_vs_nav", median(nav_speedups));
    let parse_ms = outcome.metrics["pf-xml.parse_ms"];
    if parse_ms > 0.0 {
        outcome.set(
            "pf-xml.parse_mb_per_s",
            xml.len() as f64 / 1e6 / (parse_ms / 1e3),
        );
    }
    let counted = |name: &'static str| {
        tracer
            .counts
            .iter()
            .filter(move |c| c.1 == name)
            .map(|c| c.2)
    };
    let candidates: f64 = counted("index_candidate_rows").sum();
    if candidates > 0.0 {
        let residual: f64 = counted("index_residual_rows").sum();
        outcome.set("pf-relational.index_residual_share", residual / candidates);
    }
    // A round's peak is its largest query's, not the sum over its queries.
    let peak = counted("peak_resident_rows").fold(0.0, f64::max);
    outcome.set("pf-engine.peak_resident_rows", peak);
    let path = out_dir()?.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, trace::to_json(spec.name, &tracer.spans))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of an in-process workload: set-up probes, correctness gate,
/// window.
pub fn run(spec: &Spec, cfg: &Config) -> Result<Outcome, String> {
    let mut outcome = measure(spec, cfg)?;
    // A traced run prints per-layer metrics only; it skips the probes.
    if !cfg.trace {
        run_probes(spec, cfg, &mut outcome)?;
    }
    Ok(outcome)
}

/// `--selftest-noise`: the quick `paths_warm` window twice, alone and
/// beside two busy-loop threads, to show what the pairing cancels.
pub fn selftest_noise() -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let cfg = Config {
        seed: DOCUMENT_SEED,
        seconds: 4.0,
        trace: false,
        quick: true,
    };
    let reading = |outcome: &Outcome| {
        let raw = outcome
            .diagnostics
            .iter()
            .find(|d| d.0 == "e2e.round_ms_p50");
        (raw.map_or(0.0, |d| d.1), outcome.metrics["norm_lat_p50"])
    };
    let quiet = reading(&measure(&SPECS[0], &cfg)?);
    let stop = AtomicBool::new(false);
    let busy = std::thread::scope(|scope| {
        for _ in 0..2 {
            // Relaxed: the flag publishes nothing but itself.
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let outcome = measure(&SPECS[0], &cfg);
        stop.store(true, Ordering::Relaxed);
        outcome
    })?;
    let busy = reading(&busy);
    println!("paths_warm --quick      raw e2e.round_ms_p50   paired norm_lat_p50");
    println!("alone                   {:<22.4} {:.4}", quiet.0, quiet.1);
    println!("beside two busy loops   {:<22.4} {:.4}", busy.0, busy.1);
    println!(
        "movement                {:<+22.1} {:+.1}   (percent)",
        (busy.0 / quiet.0 - 1.0) * 100.0,
        (busy.1 / quiet.1 - 1.0) * 100.0
    );
    Ok(())
}
