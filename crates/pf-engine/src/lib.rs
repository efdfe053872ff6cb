//! # pf-engine — the end-to-end Pathfinder XQuery processor
//!
//! This crate wires the full stack of Figure 1 together:
//!
//! ```text
//!   XQuery ──parse──▶ AST ──normalize──▶ core ──loop-lifting──▶ algebra plan
//!          ──peephole optimize──▶ optimized plan ──execute──▶ iter|pos|item
//!          ──serialize──▶ XML / atomic values
//! ```
//!
//! [`Pathfinder`] is the public façade: register documents (they are
//! shredded into the `pre|size|level` encoding of `pf-store`), run queries,
//! and inspect compilation stages ("look under the hood", Section 4 of the
//! paper) via [`Pathfinder::explain`].
//!
//! ```
//! use pf_engine::{Pathfinder, Profile};
//!
//! let pf = Pathfinder::new();
//! pf.load_document("doc.xml", "<a><b>1</b><b>2</b></a>").unwrap();
//! let outcome = pf.query_with("fn:sum(fn:doc(\"doc.xml\")//b)", Profile::None).unwrap();
//! assert_eq!(outcome.result.to_xml(), "3");
//! ```
//!
//! ## Concurrent serving
//!
//! Every entry point takes `&self`: the plan cache, the worker pool and
//! the document registry are interior-mutable, so one engine — typically
//! behind an [`std::sync::Arc`] — serves many clients at once.  Each
//! client opens a [`Session`], queries run as query-tagged jobs on the
//! engine's one persistent [`WorkerPool`] (fair round-robin across
//! in-flight queries), every execution reads a frozen snapshot of the
//! document registry (a concurrent reload can never tear a running
//! query), and an [`AdmissionController`] keeps the summed memory
//! frontier of the running queries under
//! [`EngineOptions::memory_budget_rows`].
//!
//! ```
//! use pf_engine::Pathfinder;
//!
//! let pf = Pathfinder::new();
//! pf.load_document("doc.xml", "<a><b>1</b><b>2</b></a>").unwrap();
//! std::thread::scope(|scope| {
//!     for _ in 0..2 {
//!         let session = pf.session();
//!         scope.spawn(move || {
//!             let r = session.query("fn:count(fn:doc(\"doc.xml\")//b)").unwrap();
//!             assert_eq!(r.to_xml(), "2");
//!         });
//!     }
//! });
//! ```

// `forbid` is the workspace norm (see scripts/check-unsafe.sh); this crate
// carries the one documented exemption — lifetime erasure for scoped jobs
// on the persistent worker pool (`pool.rs`, `executor.rs`).  `deny` +
// per-function `#[allow(unsafe_code)]` keeps every site explicit.
#![deny(unsafe_code)]

pub mod admission;
pub mod error;
pub mod executor;
pub mod pool;
pub mod registry;
pub mod result;
pub mod session;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use admission::{AdmissionController, AdmissionPermit, AdmissionStats};
pub use error::{EngineError, EngineResult};
pub use executor::{
    default_threads, ExecStats, Executor, OpProfile, OpTiming, DEFAULT_MORSEL_ROWS,
};
pub use pool::{QueryTag, WorkerPool};
pub use registry::DocRegistry;
pub use result::{serialize_table, QueryResult, Timings};
pub use session::Session;

pub use pf_algebra::{OptimizeReport, OptimizerLevel};

use pf_algebra::{
    optimize_analyzed, optimize_with, PhysicalPlan, Plan, PlanProperties, StatsSource,
};
use pf_store::DocStatistics;
use pf_xquery::{compile, normalize, parse_query, CompileOptions};

/// Engine-level options — the engine's one source of configuration (it
/// reads no environment variables).
///
/// Construct via the fluent [`EngineOptionsBuilder`]
/// (`EngineOptions::builder().threads(4).build()`); the struct fields stay
/// public for the `EngineOptions { threads: 4, ..Default::default() }`
/// literal style.  Results serialize byte-identically under every setting.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Options forwarded to the loop-lifting compiler.
    pub compile: CompileOptions,
    /// Run the optimizer's one rule set before execution (on by
    /// default).  Off, queries run the plan the loop-lifting compiler
    /// produced — the reference the agreement suites compare against.
    pub optimize: bool,
    /// Executor worker threads: `1` runs the sequential path, `0` (the
    /// default) resolves to [`default_threads`], the machine's available
    /// parallelism.
    pub threads: usize,
    /// Input rows per morsel for intra-operator parallelism (partitioned
    /// sorts, row numberings, staircase shards and fused-pipeline chunks
    /// on the worker pool).  `0` (the default) means
    /// [`DEFAULT_MORSEL_ROWS`]; `usize::MAX` disables the partitioning.
    /// Work totals are identical at every setting.
    pub morsel_rows: usize,
    /// Maximum number of compiled plans the per-engine plan cache retains;
    /// when full, the least-recently-hit plan is evicted.  `0` disables
    /// caching entirely.
    pub plan_cache_capacity: usize,
    /// Admission-control budget: the maximum *summed estimated memory
    /// frontier* (in resident intermediate rows, the unit of
    /// [`ExecStats::peak_resident_rows`]) of the queries running
    /// concurrently.  A query whose estimate would bust the budget waits
    /// for admission instead of starting; estimates are the peaks
    /// recorded on the cached plan by earlier runs (first runs are
    /// admitted optimistically at 0).  [`usize::MAX`] (the default)
    /// disables the gate.
    pub memory_budget_rows: usize,
}

/// Default capacity of the per-engine plan cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            compile: CompileOptions::default(),
            optimize: true,
            threads: 0,
            morsel_rows: 0,
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            memory_budget_rows: usize::MAX,
        }
    }
}

impl EngineOptions {
    /// Start a fluent [`EngineOptionsBuilder`] from the defaults.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder::new()
    }
}

/// The optimizer's one rule set, [`OptimizerLevel::FULL`], for callers of
/// [`pf_algebra::optimize_with`].
pub fn default_optimizer_level() -> OptimizerLevel {
    OptimizerLevel::FULL
}

/// Fluent builder for [`EngineOptions`] (struct literals with
/// `..Default::default()` keep working, but options read better chained):
///
/// ```
/// use pf_engine::{EngineOptions, Pathfinder};
///
/// let pf = Pathfinder::with_options(
///     EngineOptions::builder()
///         .threads(4)
///         .morsel_rows(1024)
///         .plan_cache_capacity(64)
///         .memory_budget_rows(1_000_000)
///         .build(),
/// );
/// assert_eq!(pf.admission().budget_rows(), 1_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineOptionsBuilder {
    options: EngineOptions,
}

impl EngineOptionsBuilder {
    /// A builder initialized with [`EngineOptions::default`].
    pub fn new() -> Self {
        EngineOptionsBuilder::default()
    }

    /// Executor worker threads (see [`EngineOptions::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Morsel size in input rows (see [`EngineOptions::morsel_rows`]).
    pub fn morsel_rows(mut self, rows: usize) -> Self {
        self.options.morsel_rows = rows;
        self
    }

    /// Run the peephole optimizer (see [`EngineOptions::optimize`]).
    pub fn optimize(mut self, optimize: bool) -> Self {
        self.options.optimize = optimize;
        self
    }

    /// Plan-cache capacity (see [`EngineOptions::plan_cache_capacity`]).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.options.plan_cache_capacity = capacity;
        self
    }

    /// Admission-control memory budget in estimated frontier rows (see
    /// [`EngineOptions::memory_budget_rows`]).
    pub fn memory_budget_rows(mut self, rows: usize) -> Self {
        self.options.memory_budget_rows = rows;
        self
    }

    /// Options forwarded to the loop-lifting compiler.
    pub fn compile(mut self, compile: CompileOptions) -> Self {
        self.options.compile = compile;
        self
    }

    /// Finish the chain.
    pub fn build(self) -> EngineOptions {
        self.options
    }
}

/// How much execution telemetry [`Pathfinder::query_with`] should return
/// alongside the result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Profile {
    /// Result only ([`QueryOutcome::stats`] and [`QueryOutcome::ops`] are
    /// `None`).
    #[default]
    None,
    /// Also return the executor's memory-discipline statistics
    /// ([`ExecStats`]).
    Stats,
    /// Statistics plus the per-operator-kind wall-time profile
    /// ([`OpProfile`]).
    Ops,
}

/// Everything one [`Pathfinder::query_with`] call produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query result (serialization, items, timings).
    pub result: QueryResult,
    /// Executor statistics, under [`Profile::Stats`] and [`Profile::Ops`].
    pub stats: Option<ExecStats>,
    /// Per-operator timing profile, under [`Profile::Ops`].
    pub ops: Option<OpProfile>,
}

impl QueryOutcome {
    /// The serialized result (delegates to [`QueryResult::to_xml`]).
    pub fn to_xml(&self) -> String {
        self.result.to_xml()
    }

    /// Pipeline timings (delegates to [`QueryResult::timings`]).
    pub fn timings(&self) -> Timings {
        self.result.timings()
    }
}

/// Everything [`Pathfinder::explain`] reveals about a query's compilation.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The plan as produced by the loop-lifting compiler.
    pub unoptimized: Plan,
    /// The plan after optimization.
    pub optimized: Plan,
    /// What the optimizer did (empty when [`EngineOptions::optimize`] is
    /// off).
    pub report: OptimizeReport,
    /// Number of `for … where` clauses compiled into joins.
    pub joins_recognized: usize,
}

impl Explain {
    /// ASCII rendering of the optimized plan.
    pub fn plan_ascii(&self) -> String {
        pf_algebra::to_ascii(&self.optimized)
    }

    /// Graphviz DOT rendering of the optimized plan.
    pub fn plan_dot(&self) -> String {
        pf_algebra::to_dot(&self.optimized)
    }

    /// The `EXPLAIN` rendering: the optimized plan with every operator's
    /// properties (schema, keys, constants, estimated rows) and the
    /// physical node that runs it — `pipe#k` for a fused pipeline,
    /// `brk#k` for a breaker.
    pub fn plan_physical(&self) -> String {
        let physical = PhysicalPlan::compile(&self.optimized);
        pf_algebra::to_ascii_physical(&self.optimized, &physical)
    }
}

/// One plan-cache entry: the optimized logical plan, its physical
/// compilation (fused pipelines), the LRU
/// bookkeeping, and the admission estimate learned from earlier runs.
#[derive(Debug)]
struct CachedPlan {
    plan: Arc<Plan>,
    physical: Arc<PhysicalPlan>,
    /// Logical timestamp of the last hit (or the insertion); the entry
    /// with the smallest stamp is evicted when the cache is full.
    last_hit: u64,
    /// Largest `peak_resident_rows` any execution of this plan reported —
    /// the admission-control estimate for the next run (`None` until the
    /// first execution finishes).
    peak_rows: Option<usize>,
    /// The shape estimate a plan that has never run is admitted at (see
    /// [`Pathfinder::cold_plan_estimate`]), computed once at compile time.
    cold_estimate: usize,
    /// The optimizer report recorded when this plan was compiled, so
    /// cache hits still surface the rewrite counters in [`Timings`].
    report: OptimizeReport,
}

/// The interior-mutable plan cache (map + clock + counters behind one
/// mutex, so hits, misses, introspection and clearing all work through
/// `&self` from any session).
#[derive(Debug, Default)]
struct PlanCache {
    entries: HashMap<String, CachedPlan>,
    /// Logical clock driving the last-hit stamps.
    clock: u64,
    hits: usize,
    misses: usize,
}

/// A compiled query ready for admission and execution.
struct Planned {
    key: String,
    plan: Arc<Plan>,
    physical: Arc<PhysicalPlan>,
    compile_time: Duration,
    optimize_time: Duration,
    /// Admission estimate (recorded peak of earlier runs; 0 when unknown).
    estimate_rows: usize,
    /// What the optimizer did to this plan (compile-time report, also
    /// served on cache hits).
    report: OptimizeReport,
    /// Cumulative cache counters as of this query, for [`Timings`].
    cache_hits: usize,
    cache_misses: usize,
}

/// The Pathfinder engine: a document registry plus the compile/execute
/// pipeline.
///
/// Every entry point takes `&self` — the registry, plan cache, worker
/// pool and admission gate are interior-mutable — so one engine serves
/// many concurrent [`Session`]s (from scoped threads, or share the engine
/// with `Arc<Pathfinder>`).
///
/// Compiled-and-optimized plans — *and their physical compilations* — are
/// cached per query: the compile stage dominates small-document queries,
/// and since the executor borrows operators from the plan (never clones
/// them), a cached [`Arc<Plan>`] / [`Arc<PhysicalPlan>`] pair is directly
/// reusable.  Cache keys are the query text with whitespace runs outside
/// string literals collapsed — so trivially reformatted queries share one
/// plan; the cache is capped ([`EngineOptions::plan_cache_capacity`],
/// default [`DEFAULT_PLAN_CACHE_CAPACITY`]) with least-recently-hit
/// eviction.  Cache effectiveness is reported per query via
/// [`Timings::plan_cache_hits`] / [`Timings::plan_cache_misses`].
#[derive(Debug, Default)]
pub struct Pathfinder {
    registry: DocRegistry,
    options: EngineOptions,
    cache: Mutex<PlanCache>,
    /// The engine's persistent worker pool: created at most once (on the
    /// first parallel query) and reused for every query after — no
    /// per-query thread spawns.
    pool: OnceLock<Arc<WorkerPool>>,
    /// How many pools this engine has ever spawned (asserted ≤ 1 by the
    /// pool-reuse tests).
    pools_created: AtomicUsize,
    /// The memory-budget gate every query passes before starting.
    admission: OnceLock<AdmissionController>,
    /// Stamps each query execution with a fresh fair-scheduling tag.
    query_tags: AtomicU64,
    /// Stamps each opened [`Session`] with an id.
    session_ids: AtomicU64,
    /// Per-document [`DocStatistics`], measured lazily on the first query
    /// that needs a cardinality estimate for the document and invalidated
    /// on (re)load.  Keyed by document URI.
    stats_cache: Mutex<HashMap<String, Arc<DocStatistics>>>,
}

/// The engine's [`StatsSource`]: serves per-document statistics out of
/// [`Pathfinder::stats_cache`], measuring them on first demand.
struct EngineStats<'a>(&'a Pathfinder);

impl StatsSource for EngineStats<'_> {
    fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        self.0.doc_statistics(uri)
    }
}

impl Pathfinder {
    /// A new engine with default options.
    pub fn new() -> Self {
        Pathfinder::default()
    }

    /// A new engine with explicit options.
    pub fn with_options(options: EngineOptions) -> Self {
        Pathfinder {
            options,
            ..Pathfinder::default()
        }
    }

    /// Access to the document registry (e.g. for storage statistics).
    pub fn registry(&self) -> &DocRegistry {
        &self.registry
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The engine's admission controller (budget and live counters; see
    /// [`EngineOptions::memory_budget_rows`]).
    pub fn admission(&self) -> &AdmissionController {
        self.admission
            .get_or_init(|| AdmissionController::new(self.options.memory_budget_rows))
    }

    /// Open a [`Session`] — the per-client handle for concurrent serving.
    pub fn session(&self) -> Session<'_> {
        Session::new(self, self.session_ids.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Number of compiled plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.cache
            .lock()
            .expect("plan cache poisoned")
            .entries
            .len()
    }

    /// Cumulative plan-cache hits and misses since this engine was created.
    pub fn plan_cache_stats(&self) -> (usize, usize) {
        let cache = self.cache.lock().expect("plan cache poisoned");
        (cache.hits, cache.misses)
    }

    /// Drop all cached plans (hit/miss counters are kept).  Takes `&self`:
    /// any session may clear the cache while others keep querying.
    pub fn clear_plan_cache(&self) {
        self.cache
            .lock()
            .expect("plan cache poisoned")
            .entries
            .clear();
    }

    /// Shred and register an XML document under `name` (the URI passed to
    /// `fn:doc`).  Takes `&self`: loads may race with running queries,
    /// which keep reading their own admission-time snapshots.
    pub fn load_document(&self, name: &str, xml: &str) -> EngineResult<()> {
        self.registry.load_xml(name, xml)?;
        self.invalidate_statistics(name);
        Ok(())
    }

    /// Register an already parsed document under `name`.
    pub fn load_parsed(&self, name: &str, doc: &pf_xml::Document) -> EngineResult<()> {
        self.registry.load_document(name, doc);
        self.invalidate_statistics(name);
        Ok(())
    }

    /// Drop the cached [`DocStatistics`] of `name` — a (re)load changes
    /// the histograms, and the next estimate must re-measure.
    fn invalidate_statistics(&self, name: &str) {
        self.stats_cache
            .lock()
            .expect("stats cache poisoned")
            .remove(name);
    }

    /// The measured [`DocStatistics`] of the document registered under
    /// `uri` (`None` if no such document), served from the per-engine
    /// statistics cache and measured on first demand.
    pub fn doc_statistics(&self, uri: &str) -> Option<Arc<DocStatistics>> {
        {
            let cache = self.stats_cache.lock().expect("stats cache poisoned");
            if let Some(stats) = cache.get(uri) {
                return Some(Arc::clone(stats));
            }
        }
        // Measure outside the lock: statistics are a full-document scan,
        // and two sessions racing on the same cold document both measure
        // identical values (the later insert harmlessly wins).
        let store = self
            .registry
            .id_of(uri)
            .and_then(|id| self.registry.store(id))?;
        let stats = Arc::new(DocStatistics::measure(&store));
        self.stats_cache
            .lock()
            .expect("stats cache poisoned")
            .insert(uri.to_string(), Arc::clone(&stats));
        Some(stats)
    }

    /// Compile a query without executing it.
    pub fn explain(&self, query: &str) -> EngineResult<Explain> {
        let ast = parse_query(query)?;
        let core = normalize(&ast)?;
        let compiled = compile(&core, &self.options.compile)?;
        let unoptimized = compiled.plan.clone();
        let mut optimized = compiled.plan;
        let report = if self.options.optimize {
            optimize_with(&mut optimized, OptimizerLevel::FULL, &EngineStats(self))
        } else {
            OptimizeReport::default()
        };
        Ok(Explain {
            unoptimized,
            optimized,
            report,
            joins_recognized: compiled.joins_recognized,
        })
    }

    /// Parse, compile, optimize, execute and serialize `query` — the one
    /// execution entry point.  `profile` selects how much telemetry rides
    /// along in the [`QueryOutcome`].
    ///
    /// Takes `&self`: any number of sessions/threads may call this
    /// concurrently on one engine.  The call admission-gates against
    /// [`EngineOptions::memory_budget_rows`], snapshots the document
    /// registry (concurrent reloads cannot tear this query), and runs as
    /// query-tagged jobs on the engine's persistent pool with round-robin
    /// fairness across in-flight queries.
    pub fn query_with(&self, query: &str, profile: Profile) -> EngineResult<QueryOutcome> {
        let planned = self.plan_for(query)?;
        // Admission first, snapshot second: the query's view of the
        // registry is as of the moment it is *admitted* (not submitted).
        let _permit = self.admission().admit(planned.estimate_rows);
        let snapshot = self.registry.snapshot();

        let exec_start = Instant::now();
        let threads = if self.options.threads == 0 {
            default_threads()
        } else {
            self.options.threads
        };
        let pool = (threads > 1).then(|| self.worker_pool(threads));
        let tag = self.query_tags.fetch_add(1, Ordering::Relaxed) + 1;
        let mut executor = Executor::with_threads(&snapshot, threads)
            .with_morsel_rows(self.options.morsel_rows)
            .with_op_profile(matches!(profile, Profile::Ops))
            .with_query_tag(tag);
        if let Some(pool) = pool {
            executor = executor.with_pool(pool);
        }
        let (table, stats, ops) =
            executor.run_physical_profiled(&planned.plan, &planned.physical)?;
        let execute_time = exec_start.elapsed();
        self.record_peak(&planned.key, stats.peak_resident_rows);

        let result = QueryResult::from_table(
            table,
            &snapshot,
            Timings {
                compile: planned.compile_time,
                optimize: planned.optimize_time,
                execute: execute_time,
                plan_cache_hits: planned.cache_hits,
                plan_cache_misses: planned.cache_misses,
                optimizer: planned.report,
            },
        )?;
        Ok(QueryOutcome {
            result,
            stats: match profile {
                Profile::None => None,
                Profile::Stats | Profile::Ops => Some(stats),
            },
            ops: matches!(profile, Profile::Ops).then_some(ops),
        })
    }

    /// The engine's persistent worker pool, created on first use and
    /// reused for every subsequent query (executors are built per query,
    /// but they all run on this one pool — the per-query `thread::scope`
    /// spawn/join of the earlier executor is gone).
    fn worker_pool(&self, threads: usize) -> Arc<WorkerPool> {
        Arc::clone(self.pool.get_or_init(|| {
            self.pools_created.fetch_add(1, Ordering::SeqCst);
            Arc::new(WorkerPool::new(threads.saturating_sub(1)))
        }))
    }

    /// How many worker pools this engine has spawned so far (stays at 1
    /// however many parallel queries run; 0 until the first one).
    pub fn worker_pool_spawns(&self) -> usize {
        self.pools_created.load(Ordering::SeqCst)
    }

    /// The generation stamp of the engine's pool (see
    /// [`WorkerPool::generation`]); `None` before the first parallel
    /// query.
    pub fn worker_pool_generation(&self) -> Option<u64> {
        self.pool.get().map(|p| p.generation())
    }

    /// Record the observed execution peak on the cached plan, feeding the
    /// admission estimate of the next run (the largest observed peak wins:
    /// parallel schedules can legitimately hold more branches resident
    /// than sequential ones, and admission should budget for the worst).
    fn record_peak(&self, key: &str, peak_rows: usize) {
        let mut cache = self.cache.lock().expect("plan cache poisoned");
        if let Some(entry) = cache.entries.get_mut(key) {
            entry.peak_rows = Some(entry.peak_rows.unwrap_or(0).max(peak_rows));
        }
    }

    /// The admission estimate for a plan that has never executed: the
    /// peak per-operator row estimate of a [`PlanProperties`] pass over the
    /// *rewritten* plan, fed by the per-document statistics histograms.
    /// Earlier PRs admitted cold plans at the largest leaf cardinality
    /// (document node count); the statistics walk sees selections, steps
    /// and joins, so a `//open_auction/bidder` plan is now charged for
    /// the bidders it touches, not the whole document.  Still an
    /// *estimate* — the first measured peak replaces it (see
    /// [`Pathfinder::record_peak`]).  A plan the optimizer rewrote reads
    /// the same number off the optimizer's final property analysis
    /// instead of running this pass.
    fn cold_plan_estimate(&self, plan: &Plan) -> usize {
        PlanProperties::analyze_with(plan, &EngineStats(self)).peak_rows(plan)
    }

    /// The compiled-and-optimized plan for `query`, with its physical
    /// compilation: served from the plan cache when possible, compiled
    /// (and cached) otherwise.  Returns the plans with the compile and
    /// optimize stage timings — both [`Duration::ZERO`] on a cache hit,
    /// because the stages are skipped entirely.  Distinct queries compile
    /// outside the cache lock, so sessions never serialize on each
    /// other's compile stage.
    fn plan_for(&self, query: &str) -> EngineResult<Planned> {
        let key = normalize_cache_key(query);
        {
            let mut cache = self.cache.lock().expect("plan cache poisoned");
            if let Some(cached) = cache.entries.get(&key) {
                let plan = Arc::clone(&cached.plan);
                let physical = Arc::clone(&cached.physical);
                // Cached but never executed (e.g. warmed, or every prior
                // run failed before recording a peak): fall back to the
                // shape estimate rather than admitting at 0.
                let estimate_rows = cached.peak_rows.unwrap_or(cached.cold_estimate);
                let report = cached.report;
                cache.hits += 1;
                cache.clock += 1;
                let stamp = cache.clock;
                cache
                    .entries
                    .get_mut(&key)
                    .expect("entry just looked up")
                    .last_hit = stamp;
                return Ok(Planned {
                    key,
                    plan,
                    physical,
                    compile_time: Duration::ZERO,
                    optimize_time: Duration::ZERO,
                    estimate_rows,
                    report,
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                });
            }
        }
        // Miss: compile with no lock held (concurrent sessions compiling
        // *different* queries proceed in parallel; two sessions racing on
        // the *same* new query both compile and the later insert wins —
        // harmless, the plans are identical).
        let started = Instant::now();
        let ast = parse_query(query)?;
        let core = normalize(&ast)?;
        let compiled = compile(&core, &self.options.compile)?;
        let compile_time = started.elapsed();

        let opt_start = Instant::now();
        let mut plan = compiled.plan;
        let (report, estimate_rows) = if self.options.optimize {
            let (report, props) = optimize_analyzed(&mut plan, &EngineStats(self));
            (report, props.peak_rows(&plan))
        } else {
            (OptimizeReport::default(), self.cold_plan_estimate(&plan))
        };
        let physical = Arc::new(PhysicalPlan::compile(&plan));
        let optimize_time = opt_start.elapsed();
        let plan = Arc::new(plan);

        let mut cache = self.cache.lock().expect("plan cache poisoned");
        cache.misses += 1;
        if self.options.plan_cache_capacity > 0 {
            cache.clock += 1;
            let stamp = cache.clock;
            cache.entries.insert(
                key.clone(),
                CachedPlan {
                    plan: Arc::clone(&plan),
                    physical: Arc::clone(&physical),
                    last_hit: stamp,
                    peak_rows: None,
                    cold_estimate: estimate_rows,
                    report,
                },
            );
            if cache.entries.len() > self.options.plan_cache_capacity {
                // Evict the least-recently-hit entry.  A linear scan is
                // fine at the default capacity of 256; the cache is per
                // engine and off the execution hot path.
                if let Some(coldest) = cache
                    .entries
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_hit)
                    .map(|(k, _)| k.clone())
                {
                    cache.entries.remove(&coldest);
                }
            }
        }
        Ok(Planned {
            key,
            plan,
            physical,
            compile_time,
            optimize_time,
            estimate_rows,
            report,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        })
    }
}

/// Normalize a query text into its plan-cache key: collapse every run of
/// whitespace *outside string literals* into a single space and trim the
/// ends, so trivially reformatted queries share one cached plan.  String
/// literal bodies are copied verbatim (whitespace inside them is
/// significant), and whitespace runs are never removed entirely — only
/// collapsed — so two queries with different token boundaries can never
/// fold onto the same key.  Comments `(: … :)` (which may nest, per the
/// lexer) are tracked so a quote character *inside* a comment does not
/// desynchronize the literal tracking; comment bodies themselves are
/// whitespace-collapsed like code, which is safe because the lexer
/// discards them.
///
/// Public so the invariant — *distinct queries never fold onto one key* —
/// can be property-tested from outside the crate; it is not part of the
/// stable engine API.
pub fn normalize_cache_key(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    let mut chars = query.chars().peekable();
    let mut pending_space = false;
    let mut comment_depth = 0usize;
    while let Some(c) = chars.next() {
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(' ');
        }
        pending_space = false;
        out.push(c);
        if c == '(' && chars.peek() == Some(&':') {
            out.push(chars.next().expect("peeked"));
            comment_depth += 1;
            continue;
        }
        if comment_depth > 0 {
            // Inside a comment quotes are plain text; only watch for the
            // (possibly nested) comment delimiters.
            if c == ':' && chars.peek() == Some(&')') {
                out.push(chars.next().expect("peeked"));
                comment_depth -= 1;
            }
            continue;
        }
        if c == '"' || c == '\'' {
            // Copy the literal body verbatim up to (and including) the
            // closing quote.  Doubled quotes — the XQuery escape — read as
            // one literal closing and the next immediately reopening,
            // which round-trips unchanged through this loop.
            for body in chars.by_ref() {
                out.push(body);
                if body == c {
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with(xml: &str) -> Pathfinder {
        let pf = Pathfinder::new();
        pf.load_document("doc.xml", xml).unwrap();
        pf
    }

    fn run(pf: &Pathfinder, q: &str) -> QueryResult {
        pf.query_with(q, Profile::None).unwrap().result
    }

    #[test]
    fn arithmetic_without_documents() {
        let pf = Pathfinder::new();
        assert_eq!(run(&pf, "1 + 2 * 3").to_xml(), "7");
        assert_eq!(run(&pf, "(1, 2, 3)").to_xml(), "1 2 3");
        assert_eq!(
            run(&pf, "if (1 = 1) then \"yes\" else \"no\"").to_xml(),
            "yes"
        );
    }

    #[test]
    fn figure3_nested_flwor() {
        let pf = Pathfinder::new();
        let r = run(&pf, "for $v in (10,20), $w in (100,200) return $v + $w");
        assert_eq!(r.to_xml(), "110 210 120 220");
    }

    #[test]
    fn figure5_query() {
        let pf = Pathfinder::new();
        let r = run(&pf, "for $v in (10,20) return $v + 100");
        assert_eq!(r.to_xml(), "110 120");
    }

    #[test]
    fn path_queries_over_documents() {
        let pf = engine_with("<site><person id=\"p0\"><name>Ann</name></person><person id=\"p1\"><name>Bo</name></person></site>");
        assert_eq!(
            run(&pf, "fn:count(fn:doc(\"doc.xml\")//person)").to_xml(),
            "2"
        );
        assert_eq!(
            run(&pf, "fn:doc(\"doc.xml\")//person[@id = \"p1\"]/name/text()").to_xml(),
            "Bo"
        );
        // Adjacent text nodes serialize without a separator (only atomic
        // values are space separated).
        assert_eq!(
            run(
                &pf,
                "for $p in fn:doc(\"doc.xml\")//person return $p/name/text()"
            )
            .to_xml(),
            "AnnBo"
        );
        assert_eq!(
            run(
                &pf,
                "for $p in fn:doc(\"doc.xml\")//person return fn:string($p/name)"
            )
            .to_xml(),
            "Ann Bo"
        );
    }

    #[test]
    fn element_construction() {
        let pf = engine_with("<a><b>1</b><b>2</b></a>");
        let r = run(
            &pf,
            "element out { attribute n { fn:count(fn:doc(\"doc.xml\")//b) }, text { \"total\" } }",
        );
        assert_eq!(r.to_xml(), "<out n=\"2\">total</out>");
    }

    #[test]
    fn explain_reports_plan_shrinkage() {
        let pf = engine_with("<a/>");
        let explain = pf.explain("fn:doc(\"doc.xml\")//a/b/c").unwrap();
        assert!(explain.report.operators_after <= explain.report.operators_before);
        assert!(explain.plan_ascii().contains("⇝"));
        assert!(explain.plan_dot().starts_with("digraph"));
    }

    #[test]
    fn unknown_document_is_an_error() {
        let pf = Pathfinder::new();
        assert!(pf
            .query_with("fn:doc(\"missing.xml\")//a", Profile::None)
            .is_err());
    }

    #[test]
    fn profile_levels_gate_the_telemetry() {
        let pf = engine_with("<a><b>1</b><b>2</b></a>");
        let q = "fn:count(fn:doc(\"doc.xml\")//b)";
        let none = pf.query_with(q, Profile::None).unwrap();
        assert_eq!(none.to_xml(), "2");
        assert!(none.stats.is_none());
        assert!(none.ops.is_none());
        let stats = pf.query_with(q, Profile::Stats).unwrap();
        assert!(stats.stats.is_some());
        assert!(stats.ops.is_none());
        let ops = pf.query_with(q, Profile::Ops).unwrap();
        assert!(ops.stats.is_some());
        assert!(ops.ops.is_some());
    }

    #[test]
    fn options_builder_chains_every_knob() {
        let options = EngineOptions::builder()
            .threads(3)
            .morsel_rows(128)
            .optimize(false)
            .plan_cache_capacity(7)
            .memory_budget_rows(9_000)
            .build();
        assert_eq!(options.threads, 3);
        assert_eq!(options.morsel_rows, 128);
        assert!(!options.optimize);
        assert_eq!(options.plan_cache_capacity, 7);
        assert_eq!(options.memory_budget_rows, 9_000);
        // The struct-literal style (back-compat) still composes with it.
        let literal = EngineOptions {
            threads: 2,
            ..EngineOptions::builder().morsel_rows(64).build()
        };
        assert_eq!(literal.threads, 2);
        assert_eq!(literal.morsel_rows, 64);
    }

    #[test]
    fn admission_estimates_come_from_recorded_peaks() {
        let pf = engine_with("<a><b>1</b><b>2</b><b>3</b></a>");
        let q = "for $b in fn:doc(\"doc.xml\")//b return fn:string($b)";
        // First run: unknown plan, admitted at the statistics-driven
        // cold-plan estimate (see `cold_plan_estimate`).
        pf.query_with(q, Profile::Stats).unwrap();
        let peak = {
            let cache = pf.cache.lock().unwrap();
            let entry = cache.entries.values().next().expect("one cached plan");
            entry.peak_rows.expect("peak recorded after the run")
        };
        assert!(peak > 0, "a real query holds intermediate rows");
        // Second run is admitted against the recorded peak; counters move.
        pf.query_with(q, Profile::None).unwrap();
        let stats = pf.admission().stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.charged_rows, 0);
        assert_eq!(pf.admission().budget_rows(), usize::MAX);
    }

    #[test]
    fn cold_plans_are_admitted_at_the_shape_estimate() {
        let pf = engine_with("<a><b>1</b><b>2</b><b>3</b></a>");
        let q = "fn:count(fn:doc(\"doc.xml\")//b)";
        let nodes = {
            let id = pf.registry().id_of("doc.xml").unwrap();
            pf.registry().store(id).unwrap().node_count()
        };
        assert!(nodes > 0);
        // Cold miss: the statistics-driven estimate is positive (the plan
        // touches real document rows) but no longer the whole document —
        // the tag histogram knows only the <b> elements flow through.
        let planned = pf.plan_for(q).unwrap();
        assert!(
            planned.estimate_rows > 0,
            "cold plans are not admitted at 0"
        );
        assert!(
            planned.estimate_rows <= nodes,
            "the estimate ({}) sees the step selectivity, bounded by the \
             document ({nodes} nodes)",
            planned.estimate_rows
        );
        // Read off the optimizer's final analysis: the number a separate
        // statistics pass over the optimized plan computes.
        assert_eq!(planned.estimate_rows, pf.cold_plan_estimate(&planned.plan));
        // A cache hit on a plan that still has no recorded peak keeps the
        // same estimate.
        let again = pf.plan_for(q).unwrap();
        assert_eq!(again.estimate_rows, planned.estimate_rows);
        // After a run, the recorded (measured) peak takes over.
        pf.session().query(q).unwrap();
        let peak = {
            let cache = pf.cache.lock().unwrap();
            let entry = cache.entries.values().next().expect("one cached plan");
            entry.peak_rows.expect("peak recorded after the run")
        };
        let warm = pf.plan_for(q).unwrap();
        assert_eq!(warm.estimate_rows, peak);
    }

    #[test]
    fn plan_cache_skips_the_compile_stage_on_the_second_run() {
        let pf = engine_with("<a><b>1</b><b>2</b></a>");
        let q = "fn:count(fn:doc(\"doc.xml\")//b)";

        let first = run(&pf, q);
        assert_eq!(first.to_xml(), "2");
        assert_eq!(first.timings().plan_cache_hits, 0);
        assert_eq!(first.timings().plan_cache_misses, 1);
        assert!(first.timings().compile > std::time::Duration::ZERO);
        assert_eq!(pf.plan_cache_len(), 1);

        let second = run(&pf, q);
        assert_eq!(second.to_xml(), "2");
        assert_eq!(second.timings().plan_cache_hits, 1);
        assert_eq!(second.timings().plan_cache_misses, 1);
        // The compile and optimize stages did not run at all.
        assert_eq!(second.timings().compile, std::time::Duration::ZERO);
        assert_eq!(second.timings().optimize, std::time::Duration::ZERO);
        assert_eq!(pf.plan_cache_stats(), (1, 1));

        // A different query is a miss; clearing drops the plans but keeps
        // the counters.
        run(&pf, "1 + 1");
        assert_eq!(pf.plan_cache_stats(), (1, 2));
        assert_eq!(pf.plan_cache_len(), 2);
        pf.clear_plan_cache();
        assert_eq!(pf.plan_cache_len(), 0);
        assert_eq!(pf.plan_cache_stats(), (1, 2));
    }

    #[test]
    fn reformatted_queries_share_one_cached_plan() {
        let pf = engine_with("<a><b>1</b><b>2</b></a>");
        let q = "for $b in fn:doc(\"doc.xml\")//b return fn:string($b)";
        assert_eq!(run(&pf, q).to_xml(), "1 2");
        // The same query reformatted — indentation, newlines and doubled
        // spaces outside string literals collapse onto the cached key.
        let reformatted = "for  $b in\n    fn:doc(\"doc.xml\")//b\n  return fn:string($b)";
        assert_eq!(run(&pf, reformatted).to_xml(), "1 2");
        assert_eq!(pf.plan_cache_stats(), (1, 1), "reformat must hit");
        assert_eq!(pf.plan_cache_len(), 1);

        // Whitespace *inside* a string literal is significant: a different
        // literal body is a different plan.
        run(&pf, "fn:concat(\"a b\", \"c\")");
        run(&pf, "fn:concat(\"a  b\", \"c\")");
        assert_eq!(pf.plan_cache_stats(), (1, 3));
        assert_eq!(pf.plan_cache_len(), 3);
    }

    #[test]
    fn normalization_collapses_outside_literals_only() {
        assert_eq!(
            normalize_cache_key("  for   $x in\n\t(1,2)\nreturn $x  "),
            "for $x in (1,2) return $x"
        );
        // Literal bodies survive verbatim, including the doubled-quote
        // escape and the other quote kind.
        assert_eq!(
            normalize_cache_key("concat(\"a  b\",  'c  d')"),
            "concat(\"a  b\", 'c  d')"
        );
        assert_eq!(
            normalize_cache_key("\"he said \"\"hi   there\"\"\""),
            "\"he said \"\"hi   there\"\"\""
        );
        // Collapsing never merges tokens: `a - b` and `a-b` stay distinct.
        assert_ne!(normalize_cache_key("a - b"), normalize_cache_key("a-b"));
        // An unterminated literal simply runs to the end without panicking.
        assert_eq!(normalize_cache_key("\"open  end"), "\"open  end");
    }

    #[test]
    fn quotes_inside_comments_do_not_desync_literal_tracking() {
        // A quote inside a comment must not open a pseudo-literal: the
        // literal after the comment keeps its body verbatim, so these two
        // queries (different string contents) get different cache keys.
        let a = normalize_cache_key("(: \" :) \"a  b\"");
        let b = normalize_cache_key("(: \" :) \"a b\"");
        assert_ne!(a, b);
        assert!(a.ends_with("\"a  b\""), "literal body collapsed: {a}");
        // Nested comments close correctly too.
        let nested = normalize_cache_key("(: x (: ' :) y :) 'c  d'");
        assert!(
            nested.ends_with("'c  d'"),
            "literal body collapsed: {nested}"
        );
        // Unterminated comments run to the end without panicking.
        assert_eq!(normalize_cache_key("(: open   comment"), "(: open comment");
    }

    #[test]
    fn plan_cache_evicts_the_least_recently_hit_plan() {
        let pf = Pathfinder::with_options(EngineOptions::builder().plan_cache_capacity(2).build());
        run(&pf, "1 + 1");
        run(&pf, "2 + 2");
        assert_eq!(pf.plan_cache_len(), 2);
        // Touch "1 + 1" so "2 + 2" becomes the coldest entry…
        run(&pf, "1 + 1");
        // …and a third query evicts it.
        run(&pf, "3 + 3");
        assert_eq!(pf.plan_cache_len(), 2);
        let (hits, misses) = pf.plan_cache_stats();
        assert_eq!((hits, misses), (1, 3));
        // "1 + 1" is still cached; "2 + 2" was evicted and recompiles.
        run(&pf, "1 + 1");
        assert_eq!(pf.plan_cache_stats().0, 2);
        run(&pf, "2 + 2");
        assert_eq!(pf.plan_cache_stats(), (2, 4));
    }

    #[test]
    fn zero_capacity_disables_the_plan_cache() {
        let pf = Pathfinder::with_options(EngineOptions::builder().plan_cache_capacity(0).build());
        run(&pf, "1 + 1");
        run(&pf, "1 + 1");
        assert_eq!(pf.plan_cache_len(), 0);
        assert_eq!(pf.plan_cache_stats(), (0, 2));
    }

    #[test]
    fn cached_plans_see_reloaded_documents() {
        // The cache is keyed by query text only: plans reference documents
        // by URI, resolved per query against the admission-time snapshot,
        // so reloading a document does not serve stale results.
        let pf = engine_with("<a><b>1</b></a>");
        let q = "fn:count(fn:doc(\"doc.xml\")//b)";
        assert_eq!(run(&pf, q).to_xml(), "1");
        pf.load_document("doc.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
            .unwrap();
        assert_eq!(run(&pf, q).to_xml(), "3");
        assert_eq!(pf.plan_cache_stats(), (1, 1));
    }

    #[test]
    fn the_worker_pool_is_created_once_per_engine_and_reused() {
        let pf = Pathfinder::with_options(EngineOptions::builder().threads(4).build());
        pf.load_document("doc.xml", "<a><b>1</b><b>2</b><c>3</c></a>")
            .unwrap();
        assert_eq!(pf.worker_pool_spawns(), 0, "no pool before the first query");
        assert!(pf.worker_pool_generation().is_none());

        // A query with independent branches exercises the parallel path.
        let q = "fn:count(fn:doc(\"doc.xml\")//b) + fn:count(fn:doc(\"doc.xml\")//c)";
        assert_eq!(run(&pf, q).to_xml(), "3");
        assert_eq!(pf.worker_pool_spawns(), 1);
        let generation = pf.worker_pool_generation().expect("pool exists now");

        // Ten more queries (cache hits and misses alike): still one pool,
        // same generation — no per-query thread spawn.
        for i in 0..10 {
            run(&pf, q);
            run(&pf, &format!("{i} + {i}"));
        }
        assert_eq!(pf.worker_pool_spawns(), 1);
        assert_eq!(pf.worker_pool_generation(), Some(generation));
    }

    #[test]
    fn sequential_engines_never_spawn_a_pool() {
        let pf = Pathfinder::with_options(EngineOptions::builder().threads(1).build());
        run(&pf, "1 + 1");
        assert_eq!(pf.worker_pool_spawns(), 0);
    }

    #[test]
    fn morsel_sizes_do_not_change_results_or_work_totals() {
        let make = |morsel_rows: usize| {
            let pf = Pathfinder::with_options(
                EngineOptions::builder()
                    .threads(4)
                    .morsel_rows(morsel_rows)
                    .build(),
            );
            pf.load_document(
                "doc.xml",
                "<site><p><n>Ann</n><x>3</x></p><p><n>Bo</n><x>9</x></p><p><n>Cy</n><x>7</x></p></site>",
            )
            .unwrap();
            pf
        };
        let q = "for $p in fn:doc(\"doc.xml\")//p where $p/x > 5 return fn:string($p/n)";
        let reference = make(usize::MAX).query_with(q, Profile::Stats).unwrap();
        let ref_stats = reference.stats.unwrap();
        for morsel in [1, 2, 0] {
            let outcome = make(morsel).query_with(q, Profile::Stats).unwrap();
            let stats = outcome.stats.unwrap();
            assert_eq!(reference.to_xml(), outcome.to_xml(), "morsel_rows {morsel}");
            assert_eq!(ref_stats.rows_produced, stats.rows_produced);
            assert_eq!(ref_stats.operators_evaluated, stats.operators_evaluated);
            assert_eq!(ref_stats.cells_produced, stats.cells_produced);
            assert_eq!(ref_stats.evicted_results, stats.evicted_results);
        }
    }

    #[test]
    fn op_profile_reports_per_operator_timings() {
        let pf = engine_with("<a><b>1</b><b>2</b></a>");
        let outcome = pf
            .query_with("fn:count(fn:doc(\"doc.xml\")//b)", Profile::Ops)
            .unwrap();
        assert_eq!(outcome.to_xml(), "2");
        let profile = outcome.ops.unwrap();
        assert!(!profile.entries.is_empty());
        let kinds: Vec<&str> = profile.entries.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"step"), "kinds: {kinds:?}");
        // Entries are sorted by kind and cover every evaluated node.
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        assert_eq!(kinds, sorted);
        // The plain profiled path collects no per-op timings (zero cost).
        assert!(pf
            .query_with("1 + 1", Profile::Stats)
            .unwrap()
            .ops
            .is_none());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let make = |threads: usize| {
            let pf = Pathfinder::with_options(EngineOptions::builder().threads(threads).build());
            pf.load_document(
                "doc.xml",
                "<site><p><n>Ann</n></p><p><n>Bo</n></p><q>9</q></site>",
            )
            .unwrap();
            pf
        };
        let q = "for $p in fn:doc(\"doc.xml\")//p return element row { $p/n/text() }";
        let sequential = run(&make(1), q);
        let parallel = run(&make(4), q);
        assert_eq!(sequential.to_xml(), parallel.to_xml());
        assert_eq!(sequential.len(), parallel.len());
    }
}
