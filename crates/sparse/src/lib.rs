//! Sparse linear-algebra kernels for the FreeHGC reproduction.
//!
//! This crate provides the numeric substrate every other crate builds on:
//!
//! * [`CsrMatrix`] — compressed sparse row matrices with `u32` column indices
//!   and `f32` values, plus the kernels FreeHGC needs: sparse × sparse
//!   products ([`CsrMatrix::spgemm`]), sparse × dense products, transposition
//!   and the row/symmetric normalizations of Eq. (1) of the paper.
//! * [`CooMatrix`] — a triplet builder that deduplicates and converts to CSR.
//! * [`Bitset`] — fixed-width bitsets used for receptive-field coverage
//!   tracking in the greedy selection of Algorithm 1.
//! * [`ppr`] — the truncated-resolvent personalized-PageRank kernel behind
//!   the neighbor-influence-maximization function of Eq. (11).
//! * [`centrality`] — degree / HITS / closeness / betweenness alternatives
//!   the paper mentions as drop-in replacements for NIM.
//! * [`fx`] — a fast non-cryptographic hash map for integer keys.

pub mod bitset;
pub mod centrality;
pub mod coo;
pub mod csr;
pub mod fx;
pub mod ppr;
mod sell;

pub use bitset::Bitset;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use fx::{FxHashMap, FxHashSet};
pub use ppr::{ppr_push, ppr_push_into, PprConfig};
