//! Evaluation pipeline for the FreeHGC reproduction.
//!
//! Implements the paper's protocol (§V-B): condense the full graph, train
//! the test model (SeHGNN by default) on the condensed graph, evaluate on
//! the *full graph's* test split, and report mean ± std over seeds.
//! Timing, storage accounting (Table VII), cross-model generalization
//! (Tables I/IV) and the t-SNE interpretability analysis (Fig. 9) live
//! here too.

pub mod generalization;
pub mod pipeline;
pub mod table;
pub mod tsne;

pub use generalization::across_models;
pub use pipeline::{Bench, EvalConfig, MethodRun, RunStats, Score};
pub use table::TextTable;
pub use tsne::tsne;
