//! The document registry.
//!
//! Persistent documents (loaded via [`crate::Pathfinder::load_document`])
//! and transient documents (created by element / text constructors at query
//! run time) share one id space; a [`pf_relational::NodeRef`] therefore
//! uniquely identifies any node the engine can ever produce, and document
//! order across documents is simply `(doc, pre)` order.
//!
//! The registry is **fully interior-mutable**: every operation — loading,
//! lookup, transient registration — takes `&self` (the store table and the
//! name index live behind one [`RwLock`]), so an engine shared across
//! threads can admit documents and serve queries without any `&mut`
//! borrow.  Readers never observe a half-registered document, and a
//! resolved [`Arc<DocStore>`] stays valid regardless of later
//! registrations or reloads.
//!
//! **Snapshots.**  [`DocRegistry::snapshot`] clones the registry's current
//! state into a fresh, independent `DocRegistry` (the store handles are
//! `Arc`-shared; the clone is O(documents), not O(bytes)).  The engine
//! opens one snapshot per admitted query: the query resolves `fn:doc`
//! against the frozen view — a reload racing with the query can never tear
//! its reads — and registers its constructed transient documents into the
//! snapshot, so transient ids are deterministic per query (they always
//! start at the persistent document count) and the transients are freed
//! when the query's results drop, instead of accumulating in the engine
//! for its whole lifetime.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use pf_relational::ops::DocResolver;
use pf_store::{DocStore, StorageStats};
use pf_xml::Document;

/// The lock-protected registry state: the id-indexed store table and the
/// name index over the persistent entries.
///
/// Slots are `Option` so that a transient id can be **reserved** before
/// its document is built ([`DocRegistry::reserve_constructed`]): a
/// constructor writes the id into the node references of its fragment,
/// then fills the slot.
#[derive(Debug, Default)]
struct RegState {
    stores: Vec<Option<Arc<DocStore>>>,
    by_name: HashMap<String, u32>,
}

/// Registry of all documents known to an engine instance.
#[derive(Debug, Default)]
pub struct DocRegistry {
    state: RwLock<RegState>,
    constructed: AtomicUsize,
}

impl DocRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DocRegistry::default()
    }

    /// Shred and register an XML string under `name`.  Re-loading the same
    /// name replaces the previous version.  Takes `&self`: loads may race
    /// with running queries, which read from their own snapshots.
    pub fn load_xml(&self, name: &str, xml: &str) -> Result<u32, pf_xml::XmlError> {
        let store = DocStore::from_xml(name, xml)?;
        Ok(self.insert(name, store))
    }

    /// Shred and register a parsed document under `name`.
    pub fn load_document(&self, name: &str, doc: &Document) -> u32 {
        let store = DocStore::from_document(name, doc);
        self.insert(name, store)
    }

    fn insert(&self, name: &str, store: DocStore) -> u32 {
        let mut state = self.state.write().expect("registry lock poisoned");
        if let Some(&id) = state.by_name.get(name) {
            state.stores[id as usize] = Some(Arc::new(store));
            return id;
        }
        let id = state.stores.len() as u32;
        state.stores.push(Some(Arc::new(store)));
        state.by_name.insert(name.to_string(), id);
        id
    }

    /// A frozen, independent copy of the registry as of this call: later
    /// loads or transient registrations on either side are invisible to
    /// the other.  Store payloads are shared ([`Arc`]), so the snapshot
    /// costs one `Vec`/`HashMap` clone, not a re-parse.
    pub fn snapshot(&self) -> DocRegistry {
        let state = self.state.read().expect("registry lock poisoned");
        DocRegistry {
            state: RwLock::new(RegState {
                stores: state.stores.clone(),
                by_name: state.by_name.clone(),
            }),
            constructed: AtomicUsize::new(0),
        }
    }

    /// Register a transient (constructed) document and return its id.
    ///
    /// Takes `&self`: constructors run while concurrent queries may read
    /// the registry.  Concurrent readers either see the
    /// store table before or after the append, never in between.
    pub fn register_constructed(&self, store: DocStore) -> u32 {
        let id = self.reserve_constructed(1);
        self.fill_constructed(id, store);
        id
    }

    /// Reserve `n` consecutive transient doc ids and return the first.
    ///
    /// The reserved slots are empty until [`DocRegistry::fill_constructed`]
    /// supplies their stores; looking one up in between yields `None`, the
    /// same as an unknown id.  Element and text constructors reserve their
    /// id when they run; the executor runs them in topological plan order,
    /// so the ids are the same on every run of a plan.
    pub fn reserve_constructed(&self, n: usize) -> u32 {
        let mut state = self.state.write().expect("registry lock poisoned");
        let id = state.stores.len() as u32;
        self.constructed.fetch_add(n, Ordering::Relaxed);
        state.stores.extend(std::iter::repeat_with(|| None).take(n));
        id
    }

    /// Fill a slot previously reserved with
    /// [`DocRegistry::reserve_constructed`].
    pub fn fill_constructed(&self, id: u32, store: DocStore) {
        let mut state = self.state.write().expect("registry lock poisoned");
        let slot = state
            .stores
            .get_mut(id as usize)
            .expect("fill_constructed: id was never reserved");
        debug_assert!(slot.is_none(), "fill_constructed: slot {id} filled twice");
        *slot = Some(Arc::new(store));
    }

    /// The id of the document registered under `name`.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.state
            .read()
            .expect("registry lock poisoned")
            .by_name
            .get(name)
            .copied()
    }

    /// The store with id `id` (`None` for unknown ids and for reserved but
    /// not-yet-filled transient slots).
    pub fn store(&self, id: u32) -> Option<Arc<DocStore>> {
        self.state
            .read()
            .expect("registry lock poisoned")
            .stores
            .get(id as usize)
            .and_then(|slot| slot.clone())
    }

    /// Number of registered documents (persistent + constructed, reserved
    /// transient slots included).
    pub fn len(&self) -> usize {
        self.state
            .read()
            .expect("registry lock poisoned")
            .stores
            .len()
    }

    /// `true` when no documents are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of transient documents created by constructors so far.
    pub fn constructed_count(&self) -> usize {
        self.constructed.load(Ordering::Relaxed)
    }

    /// Storage statistics of the document registered under `name`.
    pub fn storage_stats(&self, name: &str) -> Option<StorageStats> {
        self.id_of(name)
            .and_then(|id| self.store(id))
            .map(|store| StorageStats::measure(&store))
    }
}

impl DocResolver for DocRegistry {
    fn resolve(&self, doc: u32) -> Option<Arc<DocStore>> {
        self.store(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_lookup() {
        let reg = DocRegistry::new();
        let id = reg.load_xml("a.xml", "<a><b/></a>").unwrap();
        assert_eq!(reg.id_of("a.xml"), Some(id));
        assert_eq!(reg.store(id).unwrap().node_count(), 3);
        assert!(reg.storage_stats("a.xml").unwrap().total_bytes() > 0);
        assert_eq!(reg.id_of("missing.xml"), None);
    }

    #[test]
    fn reloading_replaces_in_place() {
        let reg = DocRegistry::new();
        let id1 = reg.load_xml("a.xml", "<a/>").unwrap();
        let id2 = reg.load_xml("a.xml", "<a><b/><c/></a>").unwrap();
        assert_eq!(id1, id2);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.store(id1).unwrap().node_count(), 4);
    }

    #[test]
    fn constructed_documents_get_fresh_ids() {
        let reg = DocRegistry::new();
        reg.load_xml("a.xml", "<a/>").unwrap();
        let store = DocStore::from_xml("#c", "<r>1</r>").unwrap();
        let id = reg.register_constructed(store);
        assert_eq!(id, 1);
        assert_eq!(reg.constructed_count(), 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn reserved_ids_fill_in_any_order() {
        let reg = DocRegistry::new();
        reg.load_xml("a.xml", "<a/>").unwrap();
        let first = reg.reserve_constructed(3);
        assert_eq!(first, 1);
        assert_eq!(reg.constructed_count(), 3);
        assert_eq!(reg.len(), 4);
        // Reserved slots read as absent until filled…
        assert!(reg.store(2).is_none());
        // …and may fill out of order.
        reg.fill_constructed(3, DocStore::from_xml("#c3", "<r>3</r>").unwrap());
        reg.fill_constructed(1, DocStore::from_xml("#c1", "<r>1</r>").unwrap());
        reg.fill_constructed(2, DocStore::from_xml("#c2", "<r>2</r>").unwrap());
        for id in 1..4 {
            assert_eq!(reg.store(id).unwrap().node_count(), 3);
        }
        // A later reservation continues after the block.
        assert_eq!(reg.reserve_constructed(1), 4);
    }

    #[test]
    fn resolved_stores_survive_later_registrations() {
        let reg = DocRegistry::new();
        let id = reg.load_xml("a.xml", "<a><b/></a>").unwrap();
        let held = reg.store(id).unwrap();
        for i in 0..8 {
            let store = DocStore::from_xml(format!("#c{i}"), "<r/>").unwrap();
            reg.register_constructed(store);
        }
        // The handle resolved before the appends still reads the same data.
        assert_eq!(held.node_count(), 3);
        assert_eq!(reg.len(), 9);
    }

    #[test]
    fn snapshots_are_frozen_and_independent() {
        let reg = DocRegistry::new();
        reg.load_xml("a.xml", "<a><b/></a>").unwrap();
        let snap = reg.snapshot();
        // A reload after the snapshot is invisible to it…
        reg.load_xml("a.xml", "<a><b/><b/><b/></a>").unwrap();
        assert_eq!(snap.store(0).unwrap().node_count(), 3);
        assert_eq!(reg.store(0).unwrap().node_count(), 5);
        // …and a new document never appears in it.
        reg.load_xml("late.xml", "<z/>").unwrap();
        assert_eq!(snap.id_of("late.xml"), None);
        assert_eq!(snap.len(), 1);
        // Transients registered into the snapshot stay out of the engine
        // registry; ids start at the snapshot's persistent count.
        let store = DocStore::from_xml("#c", "<r/>").unwrap();
        assert_eq!(snap.register_constructed(store), 1);
        assert_eq!(snap.constructed_count(), 1);
        assert_eq!(reg.constructed_count(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn concurrent_readers_and_constructor_registrations() {
        let reg = DocRegistry::new();
        reg.load_xml("a.xml", "<a><b/><b/></a>").unwrap();
        std::thread::scope(|scope| {
            let reg = &reg;
            // Readers hammer lookups while one "pinned" thread registers
            // transient documents.
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..200 {
                        let store = reg.store(0).expect("document 0 is always present");
                        assert_eq!(store.node_count(), 4);
                    }
                });
            }
            scope.spawn(move || {
                for i in 0..50 {
                    let store = DocStore::from_xml(format!("#c{i}"), "<r>x</r>").unwrap();
                    reg.register_constructed(store);
                }
            });
        });
        assert_eq!(reg.constructed_count(), 50);
        assert_eq!(reg.len(), 51);
    }

    #[test]
    fn concurrent_loads_and_snapshots_are_consistent() {
        let reg = DocRegistry::new();
        reg.load_xml("d.xml", "<a><b/></a>").unwrap();
        std::thread::scope(|scope| {
            let reg = &reg;
            scope.spawn(move || {
                for i in 0..100 {
                    let xml = if i % 2 == 0 {
                        "<a><b/></a>"
                    } else {
                        "<a><b/><b/><b/></a>"
                    };
                    reg.load_xml("d.xml", xml).unwrap();
                }
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..100 {
                        let snap = reg.snapshot();
                        // Every snapshot sees exactly one whole version.
                        let n = snap.store(0).unwrap().node_count();
                        assert!(n == 3 || n == 5, "torn snapshot: {n} nodes");
                    }
                });
            }
        });
    }
}
