//! Per-client sessions over a shared engine.
//!
//! A [`Session`] is the concurrent-serving handle: cheap to open (an id
//! and a borrow), [`Send`], and every method takes `&self`, so any number
//! of sessions — on any number of OS threads — drive one [`Pathfinder`]
//! at once.  The session itself holds no query state: each query runs on
//! the thread that calls it, isolation comes from the engine's per-query
//! registry snapshots, back-pressure from the admission controller, and
//! fairness between the threads from the operating system's scheduler.
//! See the crate-level "Concurrent serving" section.
//!
//! ```
//! use pf_engine::{Pathfinder, Profile};
//!
//! let pf = Pathfinder::new();
//! pf.load_document("doc.xml", "<a><b>1</b><b>2</b></a>").unwrap();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let session = pf.session();
//!         scope.spawn(move || {
//!             let out = session
//!                 .query_with("fn:sum(fn:doc(\"doc.xml\")//b)", Profile::Stats)
//!                 .unwrap();
//!             assert_eq!(out.to_xml(), "3");
//!             assert!(out.stats.is_some());
//!         });
//!     }
//! });
//! ```

use crate::error::EngineResult;
use crate::result::QueryResult;
use crate::{Explain, Pathfinder, Profile, QueryOutcome};

/// A per-client handle on a shared [`Pathfinder`] engine.
#[derive(Debug, Clone, Copy)]
pub struct Session<'e> {
    engine: &'e Pathfinder,
    id: u64,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e Pathfinder, id: u64) -> Self {
        Session { engine, id }
    }

    /// This session's id (unique per engine, starting at 1).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The engine this session serves from.
    pub fn engine(&self) -> &'e Pathfinder {
        self.engine
    }

    /// Run `query` and return its result — shorthand for
    /// [`query_with`](Session::query_with) with [`Profile::None`].
    pub fn query(&self, query: &str) -> EngineResult<QueryResult> {
        Ok(self.engine.query_with(query, Profile::None)?.result)
    }

    /// Run `query` with the requested telemetry (see
    /// [`Pathfinder::query_with`] for the full execution contract:
    /// admission gating, registry snapshot, execution on the calling
    /// thread).
    pub fn query_with(&self, query: &str, profile: Profile) -> EngineResult<QueryOutcome> {
        self.engine.query_with(query, profile)
    }

    /// Load a document into the shared engine.  Queries already admitted
    /// (on this or any other session) keep their snapshots; queries
    /// admitted after this call see the new version.
    pub fn load_document(&self, name: &str, xml: &str) -> EngineResult<()> {
        self.engine.load_document(name, xml)
    }

    /// Compile a query without executing it.
    pub fn explain(&self, query: &str) -> EngineResult<Explain> {
        self.engine.explain(query)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Pathfinder, Profile};

    #[test]
    fn sessions_get_distinct_ids_and_share_the_engine() {
        let pf = Pathfinder::new();
        pf.load_document("d.xml", "<a><b>7</b></a>").unwrap();
        let s1 = pf.session();
        let s2 = pf.session();
        assert_ne!(s1.id(), s2.id());
        assert_eq!(
            s1.query("fn:doc(\"d.xml\")//b").unwrap().to_xml(),
            "<b>7</b>"
        );
        assert_eq!(
            s2.query("fn:doc(\"d.xml\")//b").unwrap().to_xml(),
            "<b>7</b>"
        );
        // Both sessions hit the same plan cache.
        assert_eq!(pf.plan_cache_stats(), (1, 1));
    }

    #[test]
    fn a_session_load_is_visible_to_later_queries_on_all_sessions() {
        let pf = Pathfinder::new();
        let s1 = pf.session();
        let s2 = pf.session();
        s1.load_document("d.xml", "<a><b/></a>").unwrap();
        assert_eq!(
            s2.query("fn:count(fn:doc(\"d.xml\")//b)").unwrap().to_xml(),
            "1"
        );
        s2.load_document("d.xml", "<a><b/><b/></a>").unwrap();
        assert_eq!(
            s1.query("fn:count(fn:doc(\"d.xml\")//b)").unwrap().to_xml(),
            "2"
        );
    }

    #[test]
    fn sessions_query_concurrently_from_separate_threads() {
        let pf = Pathfinder::new();
        pf.load_document("d.xml", "<a><b>1</b><b>2</b><b>3</b></a>")
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let session = pf.session();
                scope.spawn(move || {
                    for _ in 0..5 {
                        let out = session
                            .query_with("fn:sum(fn:doc(\"d.xml\")//b)", Profile::Stats)
                            .unwrap();
                        assert_eq!(out.to_xml(), "6");
                        assert!(out.stats.is_some());
                        assert!(out.ops.is_none());
                    }
                });
            }
        });
    }
}
