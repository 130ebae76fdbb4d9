//! Graph catalog: `graph_id → Arc<HeteroGraph>` for the serving layer.
//!
//! Registered graphs are the stable, operator-curated entries a
//! [`GraphRef::Id`] resolves against. [`GraphRef::Inline`] specs are
//! generated on first sight and memoized under their `(kind, scale,
//! seed)` key, so repeated inline requests for the same spec share one
//! graph value — and therefore one fingerprint, one registry context,
//! and one warm fast path.
//!
//! The inline memo holds its graphs weakly: an inline graph lives exactly
//! as long as something else holds it — its registry context or an
//! in-flight request. So the registry's resident budget bounds inline
//! graphs the way it bounds contexts, and a client naming ever-new specs
//! cannot grow the catalog. A spec seen again after its context was
//! evicted regenerates the same graph (generation is a pure function of
//! the spec), hence the same fingerprint and the same reply bytes.

use crate::wire::GraphRef;
use freehgc_datasets::DatasetKind;
use freehgc_hetgraph::HeteroGraph;
use freehgc_parallel::relock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

/// Parses a wire dataset-kind name (the strings `DatasetKind::name`
/// produces, case-insensitively) back into a [`DatasetKind`].
pub fn dataset_kind_by_name(name: &str) -> Option<DatasetKind> {
    [
        DatasetKind::Acm,
        DatasetKind::Dblp,
        DatasetKind::Imdb,
        DatasetKind::Freebase,
        DatasetKind::Aminer,
        DatasetKind::Mutag,
        DatasetKind::Am,
    ]
    .into_iter()
    .find(|k| k.name().eq_ignore_ascii_case(name))
}

type InlineKey = (String, u64, u64);

#[derive(Default)]
struct CatalogState {
    registered: BTreeMap<String, Arc<HeteroGraph>>,
    inline: BTreeMap<InlineKey, Weak<HeteroGraph>>,
}

/// Why a [`GraphRef`] failed to resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// [`GraphRef::Id`] names no registered graph.
    UnknownGraph(String),
    /// [`GraphRef::Inline`] names no known dataset kind, or carries a
    /// non-finite / non-positive scale.
    BadInlineSpec(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownGraph(id) => write!(f, "unknown graph id {id:?}"),
            CatalogError::BadInlineSpec(why) => write!(f, "bad inline graph spec: {why}"),
        }
    }
}

/// Thread-safe id → graph map shared by every server worker.
#[derive(Default)]
pub struct GraphCatalog {
    state: Mutex<CatalogState>,
}

impl GraphCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `id`. Returns the previous entry, if any.
    pub fn register(
        &self,
        id: impl Into<String>,
        graph: Arc<HeteroGraph>,
    ) -> Option<Arc<HeteroGraph>> {
        relock(&self.state).registered.insert(id.into(), graph)
    }

    /// Looks up a registered graph by id.
    pub fn get(&self, id: &str) -> Option<Arc<HeteroGraph>> {
        relock(&self.state).registered.get(id).cloned()
    }

    /// Atomically replaces `id` with `graph` *iff* the entry still holds
    /// `expected` — the delta path's compare-and-swap, so two concurrent
    /// `ApplyDelta`s on one graph cannot silently drop one delta.
    /// Returns `false` (and leaves the entry alone) when the entry
    /// changed underneath the caller.
    pub fn swap(&self, id: &str, expected: &Arc<HeteroGraph>, graph: Arc<HeteroGraph>) -> bool {
        let mut state = relock(&self.state);
        match state.registered.get_mut(id) {
            Some(slot) if Arc::ptr_eq(slot, expected) => {
                *slot = graph;
                true
            }
            _ => false,
        }
    }

    /// Ids of all registered graphs, sorted.
    pub fn ids(&self) -> Vec<String> {
        relock(&self.state).registered.keys().cloned().collect()
    }

    /// Resolves a wire [`GraphRef`] to a graph, generating-and-memoizing
    /// inline specs while something holds them. Generation happens
    /// outside the catalog lock on a miss, so a slow synthetic build
    /// never stalls id lookups; two racing first-sights may both
    /// generate, and the loser's identical graph is dropped (same spec +
    /// seed ⇒ same content fingerprint, so the registry would unify them
    /// anyway). Inserting prunes the entries whose graphs are gone.
    pub fn resolve(&self, graph: &GraphRef) -> Result<Arc<HeteroGraph>, CatalogError> {
        match graph {
            GraphRef::Id(id) => self
                .get(id)
                .ok_or_else(|| CatalogError::UnknownGraph(id.clone())),
            GraphRef::Inline { kind, scale, seed } => {
                let dk = dataset_kind_by_name(kind)
                    .ok_or_else(|| CatalogError::BadInlineSpec(format!("unknown kind {kind:?}")))?;
                if !scale.is_finite() || *scale <= 0.0 || *scale > 4.0 {
                    return Err(CatalogError::BadInlineSpec(format!(
                        "scale {scale} outside (0, 4]"
                    )));
                }
                let key: InlineKey = (dk.name().to_string(), scale.to_bits(), *seed);
                if let Some(g) = relock(&self.state).inline.get(&key).and_then(Weak::upgrade) {
                    return Ok(g);
                }
                let built = Arc::new(freehgc_datasets::generate(dk, *scale, *seed));
                let mut state = relock(&self.state);
                if let Some(g) = state.inline.get(&key).and_then(Weak::upgrade) {
                    return Ok(g);
                }
                state.inline.retain(|_, g| g.strong_count() > 0);
                state.inline.insert(key, Arc::downgrade(&built));
                Ok(built)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_get_and_swap() {
        let catalog = GraphCatalog::new();
        let a = Arc::new(freehgc_datasets::tiny(1));
        let b = Arc::new(freehgc_datasets::tiny(2));
        assert!(catalog.get("acm").is_none());
        catalog.register("acm", Arc::clone(&a));
        assert!(Arc::ptr_eq(&catalog.get("acm").unwrap(), &a));
        // CAS against the wrong expected value refuses.
        assert!(!catalog.swap("acm", &b, Arc::clone(&b)));
        assert!(Arc::ptr_eq(&catalog.get("acm").unwrap(), &a));
        assert!(catalog.swap("acm", &a, Arc::clone(&b)));
        assert!(Arc::ptr_eq(&catalog.get("acm").unwrap(), &b));
        assert_eq!(catalog.ids(), vec!["acm".to_string()]);
    }

    #[test]
    fn inline_specs_memoize_by_value() {
        let catalog = GraphCatalog::new();
        let spec = GraphRef::Inline {
            kind: "acm".into(), // case-insensitive
            scale: 0.08,
            seed: 7,
        };
        let first = catalog.resolve(&spec).unwrap();
        let second = catalog.resolve(&spec).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "inline spec must memoize");
        let other = catalog
            .resolve(&GraphRef::Inline {
                kind: "ACM".into(),
                scale: 0.08,
                seed: 8,
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn inline_graphs_live_only_while_held() {
        let catalog = GraphCatalog::new();
        let spec = |seed| GraphRef::Inline {
            kind: "ACM".into(),
            scale: 0.08,
            seed,
        };
        for seed in 0..8 {
            drop(catalog.resolve(&spec(seed)).unwrap());
        }
        let state = relock(&catalog.state);
        assert!(
            state.inline.values().all(|g| g.strong_count() == 0),
            "the catalog must hold no inline graph itself"
        );
        // Each insert pruned the entries dropped before it.
        assert_eq!(state.inline.len(), 1);
        drop(state);

        // A dropped spec regenerates the same content.
        let held = catalog.resolve(&spec(3)).unwrap();
        let again = catalog.resolve(&spec(3)).unwrap();
        assert!(Arc::ptr_eq(&held, &again));
        assert_eq!(held.fingerprint(), freehgc_datasets::tiny(3).fingerprint());
    }

    #[test]
    fn bad_refs_resolve_to_typed_errors() {
        let catalog = GraphCatalog::new();
        assert_eq!(
            catalog.resolve(&GraphRef::Id("nope".into())).err(),
            Some(CatalogError::UnknownGraph("nope".into()))
        );
        assert!(matches!(
            catalog.resolve(&GraphRef::Inline {
                kind: "NotADataset".into(),
                scale: 0.1,
                seed: 0
            }),
            Err(CatalogError::BadInlineSpec(_))
        ));
        assert!(matches!(
            catalog.resolve(&GraphRef::Inline {
                kind: "ACM".into(),
                scale: f64::NAN,
                seed: 0
            }),
            Err(CatalogError::BadInlineSpec(_))
        ));
    }
}
