//! SELL-16 operands and their lane loop, the inner kernel of
//! [`bipartite_influence`](crate::ppr::bipartite_influence).
//!
//! A SELL-C-σ matrix (Kreutzer et al., 2014) with `C = 16` and `σ` the
//! whole matrix: the output lanes (the rows of the operand) are sorted
//! by entry count, longest first, and cut into groups of 16
//! consecutive *positions*. Group `g` stores its entries column-major
//! in `16 · W_g` slots, where `W_g` is the length of its first (longest)
//! lane: slot `16·j + l` of the group holds entry `j` of lane `l`, or
//! padding when that lane has fewer than `j + 1` entries. Each slot
//! holds an input position (`idx`) and a weight (`w`).
//!
//! [`pull`] computes `out[p] = Σ_j w[p,j] · x[idx[p,j]]` for every lane
//! `p`: each lane starts at `+0.0` and adds its products one at a time
//! in entry order — a multiply, then an add, never a fused
//! multiply-add — so a lane has the bits of the scalar loop
//! `acc += w * x` over the same entries, whatever the build. Padding
//! slots are masked out of both the gather and the add, so their
//! contents are never read. The loop is compiled three times: for the
//! baseline target, under `#[target_feature(enable = "avx2")]` (two
//! 8-lane `vgatherdps` per slot, the add kept or dropped per lane by a
//! blend) and under `#[target_feature(enable = "avx512f")]` (one masked
//! 16-lane gather and one masked add per slot). [`Build::detect`]
//! picks the widest the CPU has, as `freehgc_autograd`'s `tanh` does.

/// Lanes per group.
pub(crate) const LANES: usize = 16;

/// One build of the lane loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Build {
    Baseline,
    Avx2,
    Avx512,
}

impl Build {
    /// The widest build this CPU runs.
    pub(crate) fn detect() -> Build {
        *Build::available().last().expect("the baseline always runs")
    }

    /// Every build this CPU runs, narrowest first.
    pub(crate) fn available() -> Vec<Build> {
        let mut out = vec![Build::Baseline];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                out.push(Build::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                out.push(Build::Avx512);
            }
        }
        out
    }

    /// `"baseline"`, `"avx2"` or `"avx512"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Build::Baseline => "baseline",
            Build::Avx2 => "avx2",
            Build::Avx512 => "avx512",
        }
    }
}

/// One SELL-16 operand, borrowed from the caller's scratch.
pub(crate) struct Sell16<'a> {
    /// Entry count of each lane, by position: a multiple of 16 long,
    /// non-increasing within each group, `0` on padding lanes, and
    /// below `2³¹`.
    pub lens: &'a [u32],
    /// Input positions, group after group, column-major within a group.
    pub idx: &'a [u32],
    /// Weights as `f32` bits, laid out as `idx`.
    pub w: &'a [u32],
}

impl Sell16<'_> {
    /// Slots the groups of `lens` occupy.
    pub(crate) fn slots(lens: &[u32]) -> usize {
        lens.iter()
            .step_by(LANES)
            .map(|&w| LANES * w as usize)
            .sum()
    }
}

/// `out[p] = Σ_j w[p,j] · x[idx[p,j]]` over every lane `p` of `a`, then
/// `out[p] = (out[p] · d[p]) · d[p]` when `scale` is `Some(d)`.
///
/// # Safety
///
/// The CPU must run `build`, and every non-padding slot's `idx` must be
/// below `x.len()`.
pub(crate) unsafe fn pull(
    build: Build,
    a: &Sell16<'_>,
    x: &[f32],
    scale: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(a.lens.len() % LANES, 0, "lanes come in groups of 16");
    assert_eq!(out.len(), a.lens.len(), "one output per lane");
    assert!(
        scale.is_none_or(|d| d.len() == out.len()),
        "one scale per lane"
    );
    let slots = Sell16::slots(a.lens);
    assert!(a.idx.len() >= slots && a.w.len() >= slots, "slots missing");
    debug_assert!(a.lens.chunks(LANES).all(|g| g.is_sorted_by(|x, y| x >= y)));
    match build {
        // SAFETY: the caller guarantees the CPU runs `build` and the
        // index bound; the lengths are checked above.
        #[cfg(target_arch = "x86_64")]
        Build::Avx512 => unsafe { pull_avx512(a, x, scale, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Build::Avx2 => unsafe { pull_avx2(a, x, scale, out) },
        // SAFETY: as above.
        _ => unsafe { pull_loop(a, x, scale, out) },
    }
}

/// The scalar loop: slot by slot over the lanes still live, which are a
/// prefix of the group because its lanes are sorted longest first.
///
/// # Safety
///
/// As [`pull`], with the lengths checked.
#[inline(always)]
unsafe fn pull_loop(a: &Sell16<'_>, x: &[f32], scale: Option<&[f32]>, out: &mut [f32]) {
    let mut off = 0;
    for (g, lens) in a.lens.chunks_exact(LANES).enumerate() {
        let mut acc = [0f32; LANES];
        let mut live = LANES;
        for j in 0..lens[0] {
            while lens[live - 1] <= j {
                live -= 1;
            }
            let (idx, w) = (&a.idx[off..off + live], &a.w[off..off + live]);
            for ((s, &i), &wi) in acc.iter_mut().zip(idx).zip(w) {
                // SAFETY: a live slot's index is below x.len().
                *s += f32::from_bits(wi) * unsafe { *x.get_unchecked(i as usize) };
            }
            off += LANES;
        }
        let out = &mut out[g * LANES..][..LANES];
        match scale {
            Some(d) => {
                for ((o, &s), &d) in out.iter_mut().zip(&acc).zip(&d[g * LANES..]) {
                    *o = s * d * d;
                }
            }
            None => out.copy_from_slice(&acc),
        }
    }
}

/// The lane loop with AVX-512F: per slot, one masked 16-lane gather, a
/// multiply and a masked add.
///
/// # Safety
///
/// As [`pull`]; the CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pull_avx512(a: &Sell16<'_>, x: &[f32], scale: Option<&[f32]>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut off = 0;
    for g in 0..a.lens.len() / LANES {
        let lane0 = g * LANES;
        // SAFETY: lane0 + 16 <= lens.len() == out.len() (== d.len()),
        // every slot below off + 16·W_g is in idx and w, and live slots
        // gather below x.len() (the caller's contract).
        unsafe {
            let lens = _mm512_loadu_si512(a.lens.as_ptr().add(lane0).cast());
            let mut acc = _mm512_setzero_ps();
            for j in 0..a.lens[lane0] {
                let live = _mm512_cmpgt_epi32_mask(lens, _mm512_set1_epi32(j as i32));
                let idx = _mm512_loadu_si512(a.idx.as_ptr().add(off).cast());
                let w = _mm512_castsi512_ps(_mm512_loadu_si512(a.w.as_ptr().add(off).cast()));
                let xs = _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), live, idx, x.as_ptr());
                acc = _mm512_mask_add_ps(acc, live, acc, _mm512_mul_ps(w, xs));
                off += LANES;
            }
            if let Some(d) = scale {
                let d = _mm512_loadu_ps(d.as_ptr().add(lane0));
                acc = _mm512_mul_ps(_mm512_mul_ps(acc, d), d);
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(lane0), acc);
        }
    }
}

/// The lane loop with AVX2: each group as two 8-lane halves, each run
/// to its own longest lane; per slot, one masked gather, a multiply, an
/// add and a blend that keeps the sum only on live lanes.
///
/// # Safety
///
/// As [`pull`]; the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pull_avx2(a: &Sell16<'_>, x: &[f32], scale: Option<&[f32]>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let mut off = 0;
    for g in 0..a.lens.len() / LANES {
        for half in [0, LANES / 2] {
            let lane0 = g * LANES + half;
            // SAFETY: as in `pull_avx512`, for the 8 lanes from lane0.
            unsafe {
                let lens = _mm256_loadu_si256(a.lens.as_ptr().add(lane0).cast());
                let mut acc = _mm256_setzero_ps();
                let mut slot = off + half;
                for j in 0..a.lens[lane0] {
                    let live =
                        _mm256_castsi256_ps(_mm256_cmpgt_epi32(lens, _mm256_set1_epi32(j as i32)));
                    let idx = _mm256_loadu_si256(a.idx.as_ptr().add(slot).cast());
                    let w = _mm256_castsi256_ps(_mm256_loadu_si256(a.w.as_ptr().add(slot).cast()));
                    let xs =
                        _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), x.as_ptr(), idx, live);
                    let sum = _mm256_add_ps(acc, _mm256_mul_ps(w, xs));
                    acc = _mm256_blendv_ps(acc, sum, live);
                    slot += LANES;
                }
                if let Some(d) = scale {
                    let d = _mm256_loadu_ps(d.as_ptr().add(lane0));
                    acc = _mm256_mul_ps(_mm256_mul_ps(acc, d), d);
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(lane0), acc);
            }
        }
        off += LANES * a.lens[g * LANES] as usize;
    }
}
