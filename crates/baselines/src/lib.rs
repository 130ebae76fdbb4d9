//! The five baseline graph-reduction methods the paper compares FreeHGC
//! against (§V-A), all behind the common
//! [`freehgc_hetgraph::Condenser`] trait:
//!
//! * [`coreset::RandomHg`], [`coreset::HerdingHg`], [`coreset::KCenterHg`]
//!   — coreset selection on HGNN intermediate embeddings;
//! * [`coarsening::CoarseningHg`] — variation-neighborhoods-style
//!   contraction into super-nodes;
//! * [`gcond::GCondBaseline`] — homogeneous gradient-matching condensation
//!   adapted with random sampling for unlabeled types (with the simulated
//!   memory budget that reproduces its Table VI OOM cells);
//! * [`hgcond::HGCondBaseline`] — the SOTA heterogeneous condenser:
//!   k-means hyper-node initialization, sparse membership connections and
//!   bi-level gradient matching with orthogonal parameter sequences.

pub mod cluster;
pub mod coarsening;
pub mod coreset;
pub mod gcond;
pub mod hgcond;
pub mod relay;

pub use coarsening::CoarseningHg;
pub use coreset::{target_embeddings, HerdingHg, KCenterHg, RandomHg};
pub use gcond::{GCondBaseline, OutOfMemory};
pub use hgcond::HGCondBaseline;
pub use relay::{GradMatchConfig, RelayKind};
