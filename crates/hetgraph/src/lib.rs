//! Heterogeneous graph engine for the FreeHGC reproduction.
//!
//! A heterogeneous graph `A = (V, E, φ, ψ)` (paper §II-A) is represented as
//! a [`Schema`] (node types, directed edge types, per-type roles) plus a
//! [`HeteroGraph`] holding one CSR adjacency per edge type, one feature
//! matrix per node type (dimensions may differ across types), labels over
//! the target type, and the HGB-style train/val/test split.
//!
//! Meta-paths (`P ≜ o1 ← … ← on`) are first-class: [`metapath`] enumerates
//! every proper meta-path up to a hop bound over the schema graph and
//! composes row-normalized adjacencies per Eq. (1) of the paper.
//!
//! [`CondenseContext`] caches every reusable precompute of one graph —
//! meta-path products, influence scores, diversity bonuses and the
//! propagated feature blocks of [`propagation`] — in one map, and
//! [`snapshot`] persists it across restarts.
//!
//! The [`condense::Condenser`] trait is the common interface implemented by
//! FreeHGC and by every baseline; its output is a smaller [`HeteroGraph`]
//! with provenance back to original node ids where applicable.

pub mod condense;
pub mod context;
pub mod failpoints;
pub mod features;
pub mod graph;
pub mod metapath;
pub mod propagation;
pub mod registry;
pub mod schema;
pub mod snapshot;
pub mod split;

pub use condense::{
    induce_selection, proportional_allocation, CondenseSpec, CondensedGraph, Condenser,
    DEFAULT_MAX_PATHS, MAX_ROW_NNZ,
};
pub use context::{
    CacheCounters, CacheFamily, CondenseContext, DiversityKey, FamilyCounters, InfluenceKey,
    SeedReport,
};
pub use features::FeatureMatrix;
pub use graph::{GraphDelta, HeteroGraph, HeteroGraphBuilder};
pub use metapath::{
    enumerate_metapaths, metapaths_to, MetaPath, MetaPathStep, MAX_HOPS, MAX_PATHS,
};
pub use propagation::{propagate, propagate_ctx, PropagatedFeatures};
pub use registry::{ContextRegistry, GraphFingerprint, RegistryStats};
pub use schema::{EdgeTypeId, NodeTypeId, Role, Schema};
pub use snapshot::{snapshot_file_name, ByteReader, ByteWriter, SnapshotError, SNAPSHOT_VERSION};
pub use split::Split;
