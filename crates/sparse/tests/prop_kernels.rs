//! Kernel-equivalence suite: every public kernel pinned bitwise to its
//! retained naive reference.
//!
//! Three kernels have loops of their own (marker-accumulator SpGEMM
//! with an exact prepass, canonical 8-lane spmv, O(n) top-k
//! selection); spmm_dense and spmv_t run their references' loops
//! behind a row partition and a reusable output buffer. Each kernel
//! keeps a naive reference implementation (`spgemm_serial`,
//! `spmv_ref`, `spmv_t_ref`, `spmm_dense_ref`, `top_k_per_row_ref`);
//! these tests compare kernel vs reference with exact `==` across
//! adversarial shapes — empty matrices, interleaved empty rows, a
//! single dense row, 1-column outputs, every lane-remainder row length
//! (`len % 8` from 0 to 7), single-entry rows (the SpGEMM fast path),
//! right-hand sides wider than 64 Ki columns, and dense rows that trip
//! the marker-scan emission — at thread overrides 1 and 4.
//!
//! Values are quarter-integer multiples in ±2 so exact duplicates (and
//! exact cancellations to ±0.0) occur, exercising the zero-filter and
//! the sign-of-zero argument in the SpGEMM bitwise proof.
//!
//! The bipartite PPR influence kernel is pinned the same way, in every
//! build of its SELL-16 lane loop the CPU runs (baseline, AVX2,
//! AVX-512F), against a test-only one-pass-per-term loop
//! (`bipartite_influence_two_pass`), compared by `f32::to_bits`, on
//! row and column lengths that straddle the 8- and 16-lane chunk edges.

use freehgc_parallel as par;
use freehgc_sparse::ppr::{bipartite_influence, bipartite_influence_build, ppr_build, ppr_builds};
use freehgc_sparse::{ppr_push, CooMatrix, CsrMatrix, PprConfig};
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

fn random_sparse(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        for _ in 0..per_row {
            let c = rng.gen_range(0..cols as u32);
            let v = (rng.gen_range(-8i32..=8) as f32) * 0.25;
            coo.push(r as u32, c, v);
        }
    }
    coo.to_csr()
}

/// A matrix whose row `r` has exactly `lens[r]` entries at random
/// columns — used to force every `len % 8` lane remainder, empty rows,
/// and single-entry rows in one shape.
fn ladder(lens: &[usize], cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(lens.len(), cols);
    for (r, &len) in lens.iter().enumerate() {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < len.min(cols) {
            picked.insert(rng.gen_range(0..cols as u32));
        }
        for c in picked {
            let v = (rng.gen_range(-8i32..=8) as f32) * 0.25;
            coo.push(r as u32, c, v);
        }
    }
    coo.to_csr()
}

fn dense_vec(len: usize, phase: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + phase) % 23) as f32 * 0.5 - 5.0)
        .collect()
}

/// The adversarial shape gallery shared by the element-wise kernels:
/// (matrix, label). Covers empty, all-empty-rows, interleaved empty
/// rows, one dense row, 1-column output, every lane remainder, and a
/// generic random shape.
fn gallery() -> Vec<(CsrMatrix, &'static str)> {
    let all_remainders: Vec<usize> = (0..17).collect(); // lens 0..=16: every len % 8
    vec![
        (CsrMatrix::zeros(0, 0), "empty"),
        (CsrMatrix::zeros(5, 7), "all rows empty"),
        (ladder(&[0, 12, 0, 3, 0, 40, 0], 64, 3), "interleaved empty"),
        (ladder(&[64], 64, 4), "single dense row"),
        (ladder(&[1, 1, 0, 1], 9, 5), "single-entry rows"),
        (random_sparse(30, 1, 2, 6), "1-column output"),
        (ladder(&all_remainders, 40, 7), "lane remainders 0..=16"),
        (random_sparse(80, 60, 6, 8), "generic random"),
    ]
}

#[test]
fn spmv_matches_canonical_reference_on_gallery() {
    for (a, label) in gallery() {
        let x = dense_vec(a.ncols(), 11);
        let reference = a.spmv_ref(&x);
        for t in THREAD_COUNTS {
            assert_eq!(
                with_threads(t, || a.spmv(&x)),
                reference,
                "spmv diverged from spmv_ref on '{label}' at {t} threads"
            );
        }
    }
}

#[test]
fn spmv_t_matches_reference_on_gallery() {
    for (a, label) in gallery() {
        let x = dense_vec(a.nrows(), 13);
        let reference = a.spmv_t_ref(&x);
        for t in THREAD_COUNTS {
            assert_eq!(
                with_threads(t, || a.spmv_t(&x)),
                reference,
                "spmv_t diverged from spmv_t_ref on '{label}' at {t} threads"
            );
        }
    }
}

#[test]
fn spmv_t_into_at_an_oversubscribed_budget_matches_reference() {
    // Wide and heavy, at a thread budget above the core count: the
    // in-place entry must overwrite the stale buffer and keep the
    // reference's bits at any budget.
    let a = random_sparse(40_000, 40_000, 2, 91);
    let x = dense_vec(a.nrows(), 5);
    let reference = a.spmv_t_ref(&x);
    let mut y = vec![f32::NAN; a.ncols()];
    with_threads(par::machine_parallelism() + 2, || a.spmv_t_into(&x, &mut y));
    assert_eq!(
        bits(&y),
        bits(&reference),
        "oversubscribed spmv_t_into diverged from spmv_t_ref"
    );
}

#[test]
fn spmm_dense_matches_reference_on_gallery_and_all_dims() {
    // dim 1 and 3 exercise the sub-block remainder loop alone, 8 the
    // exact-block loop alone, 9/17 both.
    for dim in [1usize, 3, 8, 9, 16, 17] {
        for (a, label) in gallery() {
            let x = dense_vec(a.ncols() * dim, dim);
            let reference = a.spmm_dense_ref(&x, dim);
            for t in THREAD_COUNTS {
                assert_eq!(
                    with_threads(t, || a.spmm_dense(&x, dim)),
                    reference,
                    "spmm_dense diverged on '{label}' dim={dim} at {t} threads"
                );
            }
            // The in-place variant must fully overwrite stale contents.
            let mut buf = vec![f32::NAN; a.nrows() * dim];
            a.spmm_dense_into(&x, dim, &mut buf);
            assert_eq!(
                buf, reference,
                "spmm_dense_into left stale data on '{label}'"
            );
        }
    }
}

#[test]
fn spgemm_matches_naive_on_gallery_pairs() {
    for (a, label) in gallery() {
        // Pair each gallery matrix with a compatible random right-hand
        // side (and with identity-like shapes via itself when square).
        let b = random_sparse(a.ncols(), 50, 4, 21);
        let reference = a.spgemm_serial(&b);
        for t in THREAD_COUNTS {
            assert_eq!(
                with_threads(t, || a.spgemm(&b)),
                reference,
                "spgemm diverged from spgemm_serial on '{label}' at {t} threads"
            );
        }
    }
}

#[test]
fn spgemm_dense_rows_take_marker_scan_emission() {
    // per_row 32 over 64 columns makes nearly every output row touch
    // most of the accumulator, forcing the dense-scan emission path.
    let a = random_sparse(60, 64, 32, 31);
    let b = random_sparse(64, 64, 32, 32);
    assert_eq!(a.spgemm(&b), a.spgemm_serial(&b));
}

#[test]
fn spgemm_mixed_dense_and_marker_rows_match_naive() {
    // Rows straddle the dense-row-mode boundary (product bound ≥ half
    // the output width): single-entry rows take the scaled-copy fast
    // path, short rows the marker accumulator, long rows the
    // branch-free dense mode — and a dense row must not inherit stale
    // accumulator state from a preceding marker row (and vice versa).
    let width = 64usize;
    let b = random_sparse(width, width, 8, 61);
    // per-row lens: bound = len × 8 vs width/2 = 32 → boundary at 4.
    let lens: Vec<usize> = (0..40).map(|i| [0, 1, 2, 3, 4, 5, 12, 30][i % 8]).collect();
    let a = ladder(&lens, width, 62);
    let reference = a.spgemm_serial(&b);
    for t in THREAD_COUNTS {
        assert_eq!(
            with_threads(t, || a.spgemm(&b)),
            reference,
            "mixed dense/marker spgemm diverged at {t} threads"
        );
    }
}

#[test]
fn spgemm_over_64ki_columns_matches_naive() {
    // The full-width accumulator at 70 000 columns. B rows 0..16 are
    // heavy (2 500 entries), the rest light (6 entries). A picks them so
    // every per-row regime appears: scaled single-entry copies, marker
    // rows with sorted emission, marker rows whose touched set covers
    // ≥ 1/8 of the width (scan emission), and dense-row mode.
    let width = 70_000usize;
    let (heavy, light) = (16u32, 48u32);
    let mut rng = StdRng::seed_from_u64(101);
    let mut quarter = || (rng.gen_range(-8i32..=8) as f32) * 0.25;
    let mut b = CooMatrix::new((heavy + light) as usize, width);
    let mut cols = StdRng::seed_from_u64(102);
    for r in 0..heavy + light {
        for _ in 0..if r < heavy { 2_500 } else { 6 } {
            b.push(r, cols.gen_range(0..width as u32), quarter());
        }
    }
    let b = b.to_csr();
    let rows = 512usize;
    let mut a = CooMatrix::new(rows, b.nrows());
    for r in 0..rows {
        let lights = |n: u32| (0..n).map(move |i| heavy + (r as u32 * 7 + i) % light);
        let heavies = |n: u32| (0..n).map(move |i| (r as u32 + i) % heavy);
        let picks: Vec<u32> = match (r % 8, r % 32 < 8) {
            (0, _) => vec![],
            (1, _) => heavies(1).collect(),
            (2, _) => lights(1).collect(),
            (4, true) => heavies(5).chain(lights(1)).collect(),
            (5, true) => heavies(16).collect(),
            (6 | 7, _) => lights(40).collect(),
            _ => lights(5).collect(),
        };
        for c in picks {
            a.push(r as u32, c, quarter());
        }
    }
    let a = a.to_csr();
    let reference = a.spgemm_serial(&b);
    // The shape must reach each multi-entry regime it is built for.
    let bound = |r: usize| -> usize {
        a.row_indices(r)
            .iter()
            .map(|&c| b.row_nnz(c as usize))
            .sum()
    };
    assert!(
        (0..rows).any(|r| a.row_nnz(r) > 1 && 2 * bound(r) >= width),
        "dense-row mode"
    );
    assert!(
        (0..rows).any(|r| 2 * bound(r) < width && reference.row_nnz(r) * 8 >= width),
        "marker rows with scan emission"
    );
    assert!(
        (0..rows).any(|r| a.row_nnz(r) > 1 && bound(r) * 8 < width),
        "marker rows with sorted emission"
    );
    for t in THREAD_COUNTS {
        assert_eq!(
            with_threads(t, || a.spgemm(&b)),
            reference,
            "wide spgemm diverged from spgemm_serial at {t} threads"
        );
    }
}

#[test]
fn top_k_selection_matches_full_sort_reference() {
    // Heavy row: one row far above the cap.
    let heavy = random_sparse(3, 4000, 600, 51);
    for k in [0usize, 1, 7, 256, 5000] {
        assert_eq!(
            heavy.top_k_per_row(k),
            heavy.top_k_per_row_ref(k),
            "selection diverged from full sort at k={k}"
        );
    }
    // Tie-heavy row: every value the same magnitude, so survival is
    // decided purely by the column tie-break.
    let n = 500usize;
    let ties = CsrMatrix::from_parts(
        1,
        n,
        vec![0, n],
        (0..n as u32).collect(),
        (0..n)
            .map(|i| if i % 2 == 0 { 1.5 } else { -1.5 })
            .collect(),
    );
    for k in [1usize, 3, 250, 499] {
        let capped = ties.top_k_per_row(k);
        assert_eq!(
            capped,
            ties.top_k_per_row_ref(k),
            "tie-break diverged at k={k}"
        );
        // With all-equal magnitudes the column tie-break keeps the k
        // smallest columns.
        assert_eq!(
            capped.row_indices(0),
            &(0..k as u32).collect::<Vec<_>>()[..]
        );
    }
}

#[test]
fn ppr_push_into_reuses_caller_buffer_bitwise() {
    let m = random_sparse(50, 50, 4, 61);
    let seed: Vec<f32> = dense_vec(50, 17);
    let cfg = freehgc_sparse::PprConfig::default();
    let fresh = freehgc_sparse::ppr_push(&m, &seed, &cfg);
    let mut buf = vec![f32::NAN; 50];
    freehgc_sparse::ppr_push_into(&m, &seed, &cfg, &mut buf);
    assert_eq!(buf, fresh, "ppr_push_into must overwrite stale contents");
    // Second call through the warm pool must not change bits.
    freehgc_sparse::ppr_push_into(&m, &seed, &cfg, &mut buf);
    assert_eq!(buf, fresh);
}

#[test]
fn warm_pool_spgemm_performs_zero_fresh_allocations() {
    // Pools and counters are thread-local: a dedicated thread isolates
    // this from every other test in the binary.
    std::thread::spawn(|| {
        let a = random_sparse(64, 64, 6, 71);
        let b = random_sparse(64, 64, 6, 72);
        let warm = with_threads(1, || a.spgemm(&b)); // fills the pool
        par::workspace::reset_stats();
        let steady = with_threads(1, || a.spgemm(&b));
        let stats = par::workspace::stats();
        assert_eq!(steady, warm);
        assert_eq!(
            stats.fresh_allocs, 0,
            "steady-state spgemm scratch must come from the pool: {stats:?}"
        );
        assert_eq!(stats.alloc_bytes, 0, "nor grow pooled buffers: {stats:?}");
        assert!(
            stats.pool_hits >= 3,
            "acc, marker and touched should all hit"
        );
    })
    .join()
    .unwrap();
}

#[test]
fn warm_pool_ppr_push_into_performs_zero_allocations() {
    std::thread::spawn(|| {
        let m = random_sparse(80, 80, 5, 81);
        let seed = dense_vec(80, 19);
        let cfg = freehgc_sparse::PprConfig::default();
        let mut out = vec![0f32; 80];
        freehgc_sparse::ppr_push_into(&m, &seed, &cfg, &mut out); // warm
        par::workspace::reset_stats();
        freehgc_sparse::ppr_push_into(&m, &seed, &cfg, &mut out);
        let stats = par::workspace::stats();
        assert!(stats.takes > 0, "PPR scratch must come from the pools");
        assert_eq!(
            stats.fresh_allocs, 0,
            "steady-state PPR must not allocate: {stats:?}"
        );
        assert_eq!(stats.alloc_bytes, 0, "nor grow pooled buffers: {stats:?}");
    })
    .join()
    .unwrap();
}

#[test]
fn warm_pool_bipartite_influence_allocates_only_its_result() {
    std::thread::spawn(|| {
        let a = bipartite_matrix(90, 60, 6, 83);
        let seeds: Vec<u32> = (0..90).step_by(3).collect();
        let cfg = PprConfig::default();
        let warm = bipartite_influence(&a, Some(&seeds), &cfg);
        par::workspace::reset_stats();
        let steady = bipartite_influence(&a, Some(&seeds), &cfg);
        let stats = par::workspace::stats();
        assert_eq!(steady, warm);
        assert!(
            stats.fresh_allocs <= 1,
            "only the returned vector may be fresh: {stats:?}"
        );
        assert!(
            stats.alloc_bytes <= (a.ncols() * std::mem::size_of::<f32>()) as u64,
            "no pooled buffer may grow: {stats:?}"
        );
    })
    .join()
    .unwrap();
}

#[test]
fn allocating_wrappers_leave_the_pools_largest_buffer_in_the_pool() {
    std::thread::spawn(|| {
        let big = 1usize << 20;
        drop(par::workspace::take_f32(big)); // warm a 1 Mi buffer
        let a = random_sparse(4, 4, 2, 111);
        let x = dense_vec(4, 3);
        let cfg = PprConfig::default();
        let results = [
            ("spmv", a.spmv(&x)),
            ("spmv_t", a.spmv_t(&x)),
            ("spmm_dense", a.spmm_dense(&dense_vec(8, 5), 2)),
            ("ppr_push", ppr_push(&a, &x, &cfg)),
            ("bipartite_influence", bipartite_influence(&a, None, &cfg)),
        ];
        for (name, v) in &results {
            assert!(
                v.capacity() < big,
                "{name} kept a {} capacity",
                v.capacity()
            );
        }
        par::workspace::reset_stats();
        drop(par::workspace::take_f32(big));
        let stats = par::workspace::stats();
        assert_eq!(
            (stats.pool_hits, stats.fresh_allocs),
            (1, 0),
            "the 1 Mi buffer must still be pooled: {stats:?}"
        );
    })
    .join()
    .unwrap();
}

/// Test-only oracle for `bipartite_influence`: the loop with one pass
/// per series term that the kernel's earlier forms replaced, kept
/// verbatim apart from plain `Vec` scratch instead of the workspace pool. Each series term is its own
/// pass over the nonzeros — a target → source scatter or a source →
/// target gather.
fn bipartite_influence_two_pass(
    a: &CsrMatrix,
    seed_rows: Option<&[u32]>,
    cfg: &PprConfig,
) -> Vec<f32> {
    let (n, m) = (a.nrows(), a.ncols());
    if n == 0 || m == 0 {
        return vec![0.0; m];
    }
    let row_sum = a.row_sums();
    let mut col_sum = vec![0f32; m];
    for r in 0..n {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            col_sum[c as usize] += v.abs();
        }
    }
    let dr: Vec<f32> = row_sum
        .iter()
        .map(|&s| if s > 0.0 { s.sqrt().recip() } else { 0.0 })
        .collect();
    let dc: Vec<f32> = col_sum
        .iter()
        .map(|&s| if s > 0.0 { s.sqrt().recip() } else { 0.0 })
        .collect();

    let terms = cfg.num_terms();
    let mut tgt = vec![0f32; n];
    match seed_rows {
        None => tgt.fill(1.0 / n as f32),
        Some(rows) => {
            if rows.is_empty() {
                return vec![0.0; m];
            }
            tgt.fill(0.0);
            let w = 1.0 / rows.len() as f32;
            for &r in rows {
                tgt[r as usize] = w;
            }
        }
    };
    let mut src = vec![0f32; m];
    let mut acc_src = vec![0f32; m];
    let mut coeff = cfg.alpha;
    let mut state_on_target = true;
    let last_src_k = terms - usize::from(terms.is_multiple_of(2));
    for k in 0..=last_src_k {
        if !state_on_target {
            for (aa, &s) in acc_src.iter_mut().zip(src.iter()) {
                *aa += coeff * s;
            }
            if k == last_src_k {
                break;
            }
        }
        if state_on_target {
            src.iter_mut().for_each(|v| *v = 0.0);
            for r in 0..n {
                let (cols, vals) = a.row(r);
                let t = tgt[r] * dr[r];
                if t == 0.0 {
                    continue;
                }
                for (&c, &v) in cols.iter().zip(vals) {
                    src[c as usize] += v * dc[c as usize] * t;
                }
            }
        } else {
            for r in 0..n {
                let (cols, vals) = a.row(r);
                let mut accr = 0f32;
                for (&c, &v) in cols.iter().zip(vals) {
                    accr += v * dc[c as usize] * src[c as usize];
                }
                tgt[r] = accr * dr[r];
            }
        }
        state_on_target = !state_on_target;
        coeff *= 1.0 - cfg.alpha;
    }
    acc_src
}

/// A rectangular path adjacency with guaranteed structural holes: rows
/// `r % 5 == 2` and columns `c % 4 == 1` stay empty, other rows get
/// `0..=max_per_row` draws, and values are quarter-integers in ±2 so
/// negative weights, negative row sums and exact cancellations occur.
fn bipartite_matrix(rows: usize, cols: usize, max_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for r in (0..rows).filter(|r| r % 5 != 2) {
        for _ in 0..rng.gen_range(0..=max_per_row) {
            let c = rng.gen_range(0..cols as u32);
            if c % 4 != 1 {
                let v = (rng.gen_range(-8i32..=8) as f32) * 0.25;
                coo.push(r as u32, c, v);
            }
        }
    }
    coo.to_csr()
}

/// Row and column lengths at and around the lane loop's chunk edges
/// (8 lanes in the AVX2 build, 16 in a SELL-16 group), with empty lines.
const LANE_EDGE_LENS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 33];

/// A path adjacency whose row lengths are drawn from
/// [`LANE_EDGE_LENS`], with empty columns (`c % 4 == 1`) and one hub
/// column (column 0, in 7 of 8 non-empty rows), so column lengths
/// spread across the same edges and one column outgrows every other.
/// Values are quarter-integers in ±2, as in [`bipartite_matrix`].
fn lane_edge_matrix(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let open: Vec<u32> = (0..cols as u32).filter(|c| c % 4 != 1).collect();
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        let len = LANE_EDGE_LENS[rng.gen_range(0..LANE_EDGE_LENS.len())].min(open.len());
        let mut picked = std::collections::BTreeSet::new();
        if len > 0 && rng.gen_range(0..8u32) != 0 {
            picked.insert(0);
        }
        while picked.len() < len {
            picked.insert(open[rng.gen_range(0..open.len())]);
        }
        for c in picked {
            let v = (rng.gen_range(-8i32..=8) as f32) * 0.25;
            coo.push(r as u32, c, v);
        }
    }
    coo.to_csr()
}

/// Every build of the PPR lane loop this CPU runs. Prints their names
/// once, so a test log shows whether the AVX-512 build was checked.
fn checked_ppr_builds() -> Vec<&'static str> {
    static NAMED: std::sync::Once = std::sync::Once::new();
    let builds = ppr_builds();
    NAMED.call_once(|| {
        eprintln!(
            "bipartite_influence builds checked: {builds:?}; dispatch runs {}",
            ppr_build()
        );
    });
    builds
}

/// Series configurations with `num_terms()` of 1, 2, 3, 4 and the
/// default (57), so the first-term-only, odd and even stopping points
/// are all exercised.
fn influence_configs() -> Vec<(PprConfig, usize)> {
    let cfg = |alpha, epsilon| PprConfig {
        alpha,
        epsilon,
        ..Default::default()
    };
    vec![
        (cfg(1.0, 1e-4), 1),
        (cfg(0.5, 0.25), 2),
        (cfg(0.5, 0.125), 3),
        (cfg(0.5, 0.0625), 4),
        (PprConfig::default(), 57),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spgemm_matches_naive_on_random_shapes(
        n in 20usize..120,
        k in 1usize..100,
        m in 1usize..120,
        per_row in 1usize..12,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(n, k, per_row, seed);
        let b = random_sparse(k, m, per_row, seed.wrapping_add(5));
        let reference = a.spgemm_serial(&b);
        for t in THREAD_COUNTS {
            prop_assert_eq!(&with_threads(t, || a.spgemm(&b)), &reference);
        }
    }

    #[test]
    fn lane_kernels_match_references_on_random_row_lengths(
        rows in 1usize..60,
        cols in 1usize..80,
        seed in 0u64..1000,
    ) {
        // Row lengths drawn 0..=19 hit every lane remainder repeatedly.
        let mut rng = StdRng::seed_from_u64(seed);
        let lens: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..20usize)).collect();
        let a = ladder(&lens, cols, seed.wrapping_add(9));
        let x = dense_vec(cols, 3);
        prop_assert_eq!(a.spmv(&x), a.spmv_ref(&x));
        let xt = dense_vec(rows, 7);
        prop_assert_eq!(a.spmv_t(&xt), a.spmv_t_ref(&xt));
        let dim = (seed % 11 + 1) as usize;
        let xd = dense_vec(cols * dim, 1);
        prop_assert_eq!(a.spmm_dense(&xd, dim), a.spmm_dense_ref(&xd, dim));
    }

    #[test]
    fn top_k_matches_reference_on_random_inputs(
        rows in 1usize..30,
        cols in 1usize..200,
        per_row in 1usize..40,
        k in 0usize..24,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(rows, cols, per_row, seed);
        prop_assert_eq!(a.top_k_per_row(k), a.top_k_per_row_ref(k));
    }
}

/// Case count of the PPR build property before the `PROPTEST_CASES`
/// cap; CI runs it once more at this count.
const PPR_CASES: u32 = 4096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PPR_CASES))]

    #[test]
    fn every_ppr_build_matches_two_pass_oracle_bitwise(
        rows in 1usize..70,
        cols in 1usize..50,
        max_per_row in 0usize..9,
        shape in 0u8..2,
        seed_mode in 0u8..4,
        seed in 0u64..1000,
    ) {
        let a = if shape == 0 {
            lane_edge_matrix(rows, cols, seed)
        } else {
            bipartite_matrix(rows, cols, max_per_row, seed)
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(17));
        let subset: Vec<u32> = (0..rows as u32).filter(|_| rng.gen_range(0..3u32) == 0).collect();
        let seed_rows: Option<Vec<u32>> = match seed_mode {
            0 => None,
            1 => Some(subset),
            2 => Some(Vec::new()),
            // Duplicates, out of order: the seed mass is set, not summed.
            _ => Some(subset.iter().rev().chain(&subset).copied().collect()),
        };
        for (cfg, terms) in influence_configs() {
            prop_assert_eq!(cfg.num_terms(), terms);
            let oracle = bits(&bipartite_influence_two_pass(&a, seed_rows.as_deref(), &cfg));
            for build in checked_ppr_builds() {
                let got = bipartite_influence_build(build, &a, seed_rows.as_deref(), &cfg);
                prop_assert_eq!(bits(&got), oracle.clone(), "build {}, terms = {}", build, terms);
            }
        }
    }
}
