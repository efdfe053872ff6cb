//! Every call the harness makes into the product, and nothing else.
//!
//! Later changes cannot edit the benchmark, so this file is the API they
//! must keep compiling (`bench/README.md` lists it).  The first section is
//! the gated path; the second adds what only a traced run calls.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use pf_baseline::BaselineEngine;
use pf_engine::{EngineOptions, Pathfinder, Profile};
use pf_store::{DocIndexes, DocStatistics, DocStore, StorageStats};

pub use pf_serve::{escape_line, unescape_line};

/// The URI the XMark query texts read.
pub const DOC: &str = "auction.xml";

pub type Engine = Pathfinder;
pub type Nav = BaselineEngine;

// ---------------------------------------------------------------- gated path

pub fn generate(scale: f64, seed: u64) -> String {
    pf_xmark::generate(&pf_xmark::GeneratorConfig { scale, seed })
}

/// Number of `<person>` elements `generate` emits at `scale`.
pub fn persons(scale: f64, seed: u64) -> usize {
    pf_xmark::generate_stats(&pf_xmark::GeneratorConfig { scale, seed }).persons
}

pub fn query_text(id: u8) -> &'static str {
    pf_xmark::query(id).expect("XMark has queries 1 to 20").text
}

/// A fresh engine whose executor runs on the calling thread only.
pub fn new_engine() -> Engine {
    Pathfinder::with_options(EngineOptions::builder().threads(1).build())
}

pub fn load(engine: &Engine, name: &str, xml: &str) -> Result<(), String> {
    engine.load_document(name, xml).map_err(|e| e.to_string())
}

/// Run `text` on a session and serialize the result into `out` (cleared
/// first).
pub fn query(engine: &Engine, text: &str, out: &mut String) -> Result<(), String> {
    out.clear();
    let result = engine.session().query(text).map_err(|e| e.to_string())?;
    result.write_xml(out).map_err(|e| e.to_string())
}

/// The navigational comparator with the value indices `pf_bench::prepare`
/// gives it.
pub fn new_nav(name: &str, xml: &str) -> Result<Nav, String> {
    let mut nav = BaselineEngine::new();
    nav.load_document(name, xml)?;
    nav.create_attribute_index(name, "buyer", "person")?;
    nav.create_attribute_index(name, "profile", "income")?;
    Ok(nav)
}

pub fn nav_query(nav: &mut Nav, text: &str) -> Result<String, String> {
    Ok(nav.query(text)?.to_xml())
}

/// `pathfinder-serve` is built next to this binary.
pub fn server_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    exe.parent()
        .expect("a binary lives in a directory")
        .join("pathfinder-serve")
}

/// Start `pathfinder-serve` on a free port with `xml_path` preloaded under
/// [`DOC`], engine options at their defaults.  Its standard output carries
/// the bound address.
pub fn spawn_server(xml_path: &Path) -> std::io::Result<Child> {
    Command::new(server_binary())
        .args(["--addr", "127.0.0.1:0", "--load"])
        .arg(format!("{DOC}={}", xml_path.display()))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
}

/// The line the server prints once it accepts connections.
pub const SERVER_LISTENING: &str = "pathfinder-serve listening on ";

// --------------------------------------------------------------- traced path

/// What one profiled query reports about itself.
#[derive(Debug, Default, Clone)]
pub struct Profiled {
    pub compile: Duration,
    pub optimize: Duration,
    pub execute: Duration,
    pub plan_ops_compiled: usize,
    pub plan_ops_optimized: usize,
    pub rule_applications: usize,
    pub operators_evaluated: usize,
    pub rows_produced: usize,
    pub cells_produced: usize,
    pub peak_resident_rows: usize,
    pub tables_elided: usize,
    pub join_build_rows: usize,
    pub join_probe_rows: usize,
    pub agg_input_rows: usize,
    pub index_candidate_rows: usize,
    pub index_residual_rows: usize,
    /// Wall time per operator kind.
    pub op_kinds: Vec<(&'static str, Duration)>,
}

pub struct ProfiledResult {
    result: pf_engine::QueryResult,
    pub profile: Profiled,
}

impl ProfiledResult {
    pub fn write_xml(&self, out: &mut String) -> Result<(), String> {
        out.clear();
        self.result.write_xml(out).map_err(|e| e.to_string())
    }
}

pub fn query_profiled(engine: &Engine, text: &str) -> Result<ProfiledResult, String> {
    let outcome = engine
        .session()
        .query_with(text, Profile::Ops)
        .map_err(|e| e.to_string())?;
    let timings = outcome.timings();
    let stats = outcome.stats.expect("Profile::Ops returns statistics");
    let ops = outcome
        .ops
        .expect("Profile::Ops returns the operator profile");
    let report = timings.optimizer;
    Ok(ProfiledResult {
        result: outcome.result,
        profile: Profiled {
            compile: timings.compile,
            optimize: timings.optimize,
            execute: timings.execute,
            plan_ops_compiled: report.operators_before,
            plan_ops_optimized: report.operators_after,
            rule_applications: rule_applications(&report),
            operators_evaluated: stats.operators_evaluated,
            rows_produced: stats.rows_produced,
            cells_produced: stats.cells_produced,
            peak_resident_rows: stats.peak_resident_rows,
            tables_elided: stats.tables_elided,
            join_build_rows: stats.join_build_rows,
            join_probe_rows: stats.join_probe_rows,
            agg_input_rows: stats.agg_input_rows,
            index_candidate_rows: stats.index_candidate_rows,
            index_residual_rows: stats.index_residual_rows,
            op_kinds: ops.entries.iter().map(|e| (e.kind, e.total)).collect(),
        },
    })
}

fn rule_applications(report: &pf_engine::OptimizeReport) -> usize {
    report.projections_merged
        + report.identity_projections_removed
        + report.doc_orders_removed
        + report.distincts_removed
        + report.cse_merged
        + report.constants_folded
        + report.joins_reordered
        + report.predicates_pushed
        + report.subplans_deduped
        + report.chains_unshared
        + report.index_scans_introduced
}

pub type ParsedXml = pf_xml::Document;

pub fn xml_parse(xml: &str) -> Result<ParsedXml, String> {
    pf_xml::parse(xml).map_err(|e| e.to_string())
}

pub fn shred(doc: &ParsedXml) -> DocStore {
    DocStore::from_document(DOC, doc)
}

pub fn measure_statistics(store: &DocStore) -> Arc<DocStatistics> {
    Arc::new(DocStatistics::measure(store))
}

/// Builds the index sidecar and returns its payload bytes.
pub fn build_indexes(store: &DocStore) -> usize {
    DocIndexes::build(store).payload_bytes()
}

/// Encoded bytes of the store.
pub fn storage_bytes(store: &DocStore) -> usize {
    StorageStats::measure(store).total_bytes()
}

pub type Ast = pf_xquery::Expr;
pub type Plan = pf_algebra::Plan;

pub fn xq_parse(text: &str) -> Result<Ast, String> {
    pf_xquery::parse_query(text).map_err(|e| e.to_string())
}

pub fn xq_normalize(ast: &Ast) -> Result<Ast, String> {
    pf_xquery::normalize(ast).map_err(|e| e.to_string())
}

pub fn xq_compile(core: &Ast) -> Result<Plan, String> {
    pf_xquery::compile(core, &pf_xquery::CompileOptions::default())
        .map(|compiled| compiled.plan)
        .map_err(|e| e.to_string())
}

struct OneDocument(Arc<DocStatistics>);

impl pf_algebra::StatsSource for OneDocument {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        (uri == DOC).then(|| Arc::clone(&self.0))
    }
}

/// Optimize at the engine's default level with the document's statistics.
pub fn optimize(plan: &mut Plan, statistics: &Arc<DocStatistics>) {
    pf_algebra::optimize_with(
        plan,
        pf_engine::default_optimizer_level(),
        &OneDocument(Arc::clone(statistics)),
    );
}
