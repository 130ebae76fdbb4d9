//! Tape-based reverse-mode automatic differentiation over dense matrices.
//!
//! This is the neural-network substrate of the FreeHGC reproduction: the
//! HGNN heads of `freehgc-hgnn` and the gradient-matching condensation
//! baselines (GCond / HGCond) are built on it. The design is a classic
//! Wengert tape: [`tape::Tape`] records a forward DAG, `backward` sweeps it
//! in reverse; trainable parameters live in a [`tape::ParamStore`] updated
//! by [`optim::Adam`].
//!
//! Every op's derivative is validated against central finite differences
//! in the test suite.
//!
//! These choices keep training fast without moving a bit:
//!
//! * [`tanh::tanh_in_place`] replaces the per-element libm `tanhf` call
//!   with a branch-free, vectorized copy of libm's own operation
//!   sequence, built for the baseline target, AVX2 and AVX-512F and
//!   dispatched at run time. Copying the sequence, and not just the
//!   formula, is what makes the bits equal: IEEE 754 fixes the result
//!   of each operation, so the same operations in the same order give
//!   the same result. Rust never contracts a multiply and an add into a
//!   fused multiply-add, which would skip a rounding libm performs; a
//!   kernel written with FMA, or any other approximation, would move
//!   the last bit of some outputs and every trained weight after them.
//! * [`Tape::backward`] computes gradients only for nodes a parameter
//!   reaches, so constant inputs (feature blocks, frozen weights,
//!   labels) cost no backward work.
//! * A tape borrows parameter values instead of copying them, and an
//!   inference tape ([`Tape::inference`]) keeps no backward state and
//!   reuses pooled output buffers across forward passes.
//! * `relu` is a select, which vectorizes where a conditional store
//!   does not, and [`Adam::step`] updates each parameter in one pass
//!   over its value, gradient and moments.

pub mod matrix;
pub mod optim;
pub mod tanh;
pub mod tape;

pub use matrix::Matrix;
pub use optim::Adam;
pub use tape::{Gradients, NodeId, ParamId, ParamStore, Tape};
