//! Rework-equivalence suite for the dense matmul kernels. The panel
//! loops of `matmul` and `matmul_tn` are pinned bitwise-equal to the
//! retained naive reference (`matmul_ref`, and `transpose` then
//! `matmul_ref` for `matmul_tn`), and the canonical-lane `matmul_nt`
//! to `matmul_nt_ref`, at thread overrides 1 and 4. The shapes are
//! adversarial: output widths on both sides of every panel edge,
//! 1-column outputs, products large enough to split across threads,
//! and zero-heavy operands whose skipped rows of `B` hold ±inf and NaN
//! (the `a[i,k] == 0.0` skip must survive the panels).

use freehgc_autograd::Matrix;
use freehgc_parallel as par;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Mutex;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_thread_override(Some(n));
    let out = f();
    par::set_thread_override(None);
    out
}

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Quarter-integer values in ±2 with explicit zeros so exact arithmetic
/// coincidences and the zero-skip path both occur.
fn random_matrix(rows: usize, cols: usize, seed: u64, zero_frac: f64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(zero_frac) {
                0.0
            } else {
                (rng.gen_range(-8i32..=8) as f32) * 0.25
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|x| x.to_bits()).collect()
}

/// Output widths on both sides of each panel edge (8, 32 and 64).
const PANEL_EDGE_WIDTHS: [usize; 12] = [7, 8, 9, 31, 32, 33, 63, 64, 65, 72, 128, 129];

/// Writes ±inf and NaN into `row` of `m`. Callers zero what multiplies
/// that row, so a kernel that honours the zero skip never reads it.
fn poison_row(m: &mut Matrix, row: usize) {
    for (j, v) in m.row_mut(row).iter_mut().enumerate() {
        *v = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY][j % 3];
    }
}

#[test]
fn matmul_matches_reference_on_adversarial_shapes() {
    // (m, k, n): n spans every lane remainder, k includes 1, and the
    // 257/9 case forces many blocks plus a remainder.
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (3, 1, 7),
        (5, 4, 8),
        (7, 3, 9),
        (2, 6, 15),
        (4, 5, 16),
        (6, 2, 17),
        (9, 257, 9),
    ] {
        for zero_frac in [0.0, 0.5] {
            let a = random_matrix(m, k, (m * 31 + n) as u64, zero_frac);
            let b = random_matrix(k, n, (k * 17 + n) as u64, zero_frac);
            let reference = a.matmul_ref(&b);
            for t in THREAD_COUNTS {
                let got = with_threads(t, || a.matmul(&b));
                assert_eq!(
                    got.data, reference.data,
                    "matmul diverged at shape ({m},{k},{n}) zeros={zero_frac} threads={t}"
                );
            }
        }
    }
}

#[test]
fn panel_loops_match_references_across_panel_edges() {
    for n in PANEL_EDGE_WIDTHS {
        for (m, k) in [(3usize, 1usize), (5, 64), (4, 257), (200, 33)] {
            let seed = (m * 1000 + k * 10 + n) as u64;
            // A·B: zero column 0 of A, so B row 0 is never read.
            let mut a = random_matrix(m, k, seed, 0.6);
            for i in 0..m {
                a.set(i, 0, 0.0);
            }
            let mut b = random_matrix(k, n, seed + 1, 0.6);
            poison_row(&mut b, 0);
            let want = a.matmul_ref(&b);
            assert!(want.data.iter().all(|v| v.is_finite()));
            // Aᵀ·G: zero row m-1 of A, so G row m-1 is never read.
            let mut at = random_matrix(m, k, seed + 2, 0.6);
            at.row_mut(m - 1).fill(0.0);
            let mut g = random_matrix(m, n, seed + 3, 0.6);
            poison_row(&mut g, m - 1);
            let want_tn = at.transpose().matmul_ref(&g);
            assert!(want_tn.data.iter().all(|v| v.is_finite()));
            for t in THREAD_COUNTS {
                let got = with_threads(t, || a.matmul(&b));
                assert_eq!(bits(&got), bits(&want), "matmul ({m},{k},{n}) threads={t}");
                let got = with_threads(t, || at.matmul_tn(&g));
                assert_eq!(
                    bits(&got),
                    bits(&want_tn),
                    "matmul_tn ({m},{k},{n}) threads={t}"
                );
            }
        }
    }
}

#[test]
fn parallel_partitions_match_references() {
    // 1100 · 128 · 129 multiply-adds, above twice the kernels' grain of
    // 2^23 per worker, split into 2 partitions at 4 threads.
    let (m, k, n) = (1100usize, 128usize, 129usize);
    let a = random_matrix(m, k, 91, 0.4);
    let b = random_matrix(k, n, 92, 0.4);
    let g = random_matrix(m, n, 93, 0.4);
    let want = bits(&a.matmul_ref(&b));
    let want_tn = bits(&a.transpose().matmul_ref(&g));
    for t in THREAD_COUNTS {
        assert_eq!(bits(&with_threads(t, || a.matmul(&b))), want, "threads={t}");
        assert_eq!(
            bits(&with_threads(t, || a.matmul_tn(&g))),
            want_tn,
            "threads={t}"
        );
    }
}

#[test]
fn matmul_nt_matches_canonical_reference_on_adversarial_shapes() {
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (3, 7, 2),
        (5, 8, 4),
        (7, 9, 3),
        (2, 15, 6),
        (4, 16, 5),
        (6, 17, 8),
        (9, 250, 9),
    ] {
        let a = random_matrix(m, k, (m * 13 + k) as u64, 0.25);
        let b = random_matrix(n, k, (n * 19 + k) as u64, 0.25);
        let reference = a.matmul_nt_ref(&b);
        for t in THREAD_COUNTS {
            let got = with_threads(t, || a.matmul_nt(&b));
            assert_eq!(
                got.data, reference.data,
                "matmul_nt diverged at shape ({m},{k},{n}) threads={t}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matmul_kernels_match_references_on_random_shapes(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed, 0.3);
        let b = random_matrix(k, n, seed.wrapping_add(3), 0.3);
        let reference = a.matmul_ref(&b);
        for t in THREAD_COUNTS {
            prop_assert_eq!(&with_threads(t, || a.matmul(&b)).data, &reference.data);
        }
        let g = random_matrix(m, n, seed.wrapping_add(4), 0.3);
        let tn_ref = a.transpose().matmul_ref(&g);
        for t in THREAD_COUNTS {
            prop_assert_eq!(&with_threads(t, || a.matmul_tn(&g)).data, &tn_ref.data);
        }
        let bt = random_matrix(n, k, seed.wrapping_add(5), 0.3);
        let nt_ref = a.matmul_nt_ref(&bt);
        for t in THREAD_COUNTS {
            prop_assert_eq!(&with_threads(t, || a.matmul_nt(&bt)).data, &nt_ref.data);
        }
    }
}
