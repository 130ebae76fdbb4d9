//! Serial/parallel equivalence suite for the sparse kernels.
//!
//! The `freehgc_parallel` contract is that every parallel kernel is
//! partitioned by output ownership and therefore *bitwise-identical* to
//! its serial path. These properties pin that down: each kernel is run
//! with the thread override at 1, 2, and 8 and the results compared
//! with exact equality (`CsrMatrix: PartialEq` compares every index and
//! every `f32` bit-for-bit through `==`), plus a repeated-run
//! determinism check at 8 threads.
//!
//! The global override is process-wide, but flipping it concurrently
//! from other tests cannot perturb these assertions — equal bits at any
//! thread count is precisely the invariant under test; a serializing
//! mutex guards the override anyway so each property sees the thread
//! count it asked for.

use freehgc_parallel as par;
use freehgc_sparse::CsrMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Mutex;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Random CSR with `rows` rows, `cols` columns and about `per_row`
/// entries per row (duplicate draws merge), values in ±2 with exact
/// duplicates possible so cancellation paths get exercised.
fn random_sparse(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = freehgc_sparse::CooMatrix::new(rows, cols);
    for r in 0..rows {
        for _ in 0..per_row {
            let c = rng.gen_range(0..cols as u32);
            let v = (rng.gen_range(-8i32..=8) as f32) * 0.25;
            coo.push(r as u32, c, v);
        }
    }
    coo.to_csr()
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_thread_override(Some(n));
    let out = f();
    par::set_thread_override(None);
    out
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spgemm_is_bitwise_identical_across_thread_counts(
        // nnz must clear SPGEMM_NNZ_GRAIN on several chunks.
        n in 256usize..448,
        per_row in 16usize..24,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(n, n, per_row, seed);
        let b = random_sparse(n, n, per_row, seed.wrapping_add(7));
        let reference = a.spgemm_serial(&b);
        for t in THREAD_COUNTS {
            let got = with_threads(t, || a.spgemm(&b));
            prop_assert_eq!(&got, &reference, "spgemm diverged at {} threads", t);
        }
    }

    #[test]
    fn spmv_kernels_are_bitwise_identical_across_thread_counts(
        // Sized to clear the SpMV nnz grain on several chunks, so its
        // parallel partitions really run (at the 8-thread step); SpMVᵀ
        // is serial at every budget and must match itself.
        rows in 400usize..560,
        cols in 33_000usize..36_000,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(rows, cols, 192, seed);
        let x: Vec<f32> = (0..cols).map(|i| ((i * 37 + 11) % 23) as f32 * 0.5 - 5.0).collect();
        let xt: Vec<f32> = (0..rows).map(|i| ((i * 29 + 3) % 19) as f32 * 0.5 - 4.0).collect();
        let y_ref = with_threads(1, || a.spmv(&x));
        let yt_ref = with_threads(1, || a.spmv_t(&xt));
        for t in THREAD_COUNTS {
            prop_assert_eq!(with_threads(t, || a.spmv(&x)), y_ref.clone());
            prop_assert_eq!(with_threads(t, || a.spmv_t(&xt)), yt_ref.clone());
            // The in-place variant must overwrite stale contents too.
            let mut buf = vec![f32::NAN; cols];
            with_threads(t, || a.spmv_t_into(&xt, &mut buf));
            prop_assert_eq!(buf, yt_ref.clone());
        }
    }

    #[test]
    fn spmm_dense_is_bitwise_identical_across_thread_counts(
        // rows * per_row * dim must clear DENSE_FLOP_GRAIN on several
        // chunks.
        rows in 768usize..1280,
        dim in 24usize..40,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(rows, rows, 8, seed);
        let x: Vec<f32> = (0..rows * dim).map(|i| ((i * 31) % 17) as f32 * 0.25 - 2.0).collect();
        let reference = with_threads(1, || a.spmm_dense(&x, dim));
        for t in THREAD_COUNTS {
            prop_assert_eq!(with_threads(t, || a.spmm_dense(&x, dim)), reference.clone());
        }
    }

    #[test]
    fn transpose_is_bitwise_identical_across_thread_counts(
        rows in 1100usize..1600,
        cols in 1100usize..1600,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(rows, cols, 32, seed);
        let reference = with_threads(1, || a.transpose());
        for t in THREAD_COUNTS {
            prop_assert_eq!(with_threads(t, || a.transpose()), reference.clone());
        }
        // Transposition stays an involution through the parallel path.
        prop_assert_eq!(with_threads(8, || reference.transpose()), a);
    }

    #[test]
    fn repeated_parallel_runs_are_deterministic(
        n in 256usize..384,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(n, n, 16, seed);
        let b = random_sparse(n, n, 16, seed.wrapping_add(13));
        let (first, second) = with_threads(8, || (a.spgemm(&b), a.spgemm(&b)));
        prop_assert_eq!(first, second);
        let x: Vec<f32> = (0..n).map(|i| (i % 11) as f32 - 5.0).collect();
        let (yt1, yt2) = with_threads(8, || (a.spmv_t(&x), a.spmv_t(&x)));
        prop_assert_eq!(yt1, yt2);
    }
}
