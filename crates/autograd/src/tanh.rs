//! Bit-exact, vectorized `tanh` over `f32` slices.
//!
//! [`tanh_in_place`] gives every element the bits glibc's `tanhf`
//! gives it, which is what `f32::tanh` returns on x86_64 Linux, but it
//! works on a whole slice so LLVM vectorizes the loop. On a 2-core
//! x86_64 host with AVX-512, over 107,520 elements, calling libm once
//! per element costs ~33 ns an element; this loop costs ~13 ns at the
//! baseline target. Timed later on the same host, best of 200 passes
//! each, the AVX2 build took ~4.2 ns and the AVX-512 build ~2.8 ns.
//! Semantic attention runs `tanh` over every projected block on every
//! forward pass, so that difference is a large share of HGNN training
//! time.
//!
//! # Why it copies libm's operation sequence
//!
//! glibc's `tanhf` is the fdlibm single-precision code (`s_tanhf.c`
//! calling `s_expm1f.c`). The kernel performs the same IEEE
//! single-precision operations in the same order on the same constants,
//! which are written as bit patterns. IEEE 754 fixes the result of each
//! operation, so an equal sequence gives equal bits, NaN payloads
//! included. A different but equally accurate formula would move the
//! last bit of some outputs, and with it every trained weight
//! downstream. Two things keep the sequences equal:
//!
//! * libm branches; the port computes every branch on every lane and
//!   picks one with selects that follow libm's branch order, so the
//!   loop has no control flow left to stop vectorization;
//! * Rust never contracts a multiply and an add into a fused
//!   multiply-add (it has no fast-math mode), so every rounding libm
//!   performs happens here too. The AVX2 build enables no FMA; the
//!   AVX-512 build implies it, but only an explicit `mul_add` would
//!   emit one.
//!
//! Branches `tanhf` never reaches through `expm1f` are left out:
//! `expm1f` sees only finite arguments `2|x|` with `|x| ∈ [1, 22)` and
//! `−2|x|` with `|x| < 1`, so its overflow, `−1` saturation and `k = 1`
//! cases cannot occur (a positive argument is at least 2, so `k ≥ 3`).
//!
//! # Three builds
//!
//! The loop is compiled for the baseline target, again under
//! `#[target_feature(enable = "avx2")]` and again under
//! `#[target_feature(enable = "avx512f")]`; [`tanh_in_place`] picks
//! the widest the CPU has at run time with `is_x86_feature_detected!`.
//! AVX2 is needed for 8-lane integer adds on the exponent bits, and
//! AVX-512F gives 16 lanes with mask registers for the selects. All
//! builds run the same lane code, so they agree with each other bit for
//! bit on any host.
//! On other architectures the baseline build runs; it still follows
//! fdlibm's sequence, so its bits do not depend on the platform's libm.

// `expm1f` constants (fdlibm `s_expm1f.c`).
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `tanhf`'s `tiny`: `1 − TINY` rounds to 1 and exists to raise inexact.
const TINY: f32 = 1.0e-30;

/// Replaces every element of `xs` with its hyperbolic tangent, bit for
/// bit equal to glibc's `tanhf` (see the module docs).
pub fn tanh_in_place(xs: &mut [f32]) {
    match tanh_build() {
        // SAFETY: `tanh_build` names a build only when the CPU has its
        // target feature.
        #[cfg(target_arch = "x86_64")]
        "avx512" => unsafe { tanh_avx512(xs) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        "avx2" => unsafe { tanh_avx2(xs) },
        _ => tanh_loop(xs),
    }
}

/// The build [`tanh_in_place`] runs on this CPU: `"avx512"`, `"avx2"`
/// or `"baseline"`.
pub fn tanh_build() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return "avx512";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// The loop compiled with AVX-512F (16 lanes).
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_avx512(xs: &mut [f32]) {
    tanh_loop(xs);
}

/// The loop compiled with AVX2 (8 lanes).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tanh_avx2(xs: &mut [f32]) {
    tanh_loop(xs);
}

/// The loop; inlined into [`tanh_in_place`] it is the baseline build.
#[inline(always)]
fn tanh_loop(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_lane(*x);
    }
}

/// Adds `k` to the exponent field of `y`, as fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))` does.
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23))
}

/// One lane of `tanhf`, branch-free. Comments name the fdlibm branch
/// each value belongs to.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let sign = jx & 0x8000_0000;
    let nonfinite = ix >= 0x7f80_0000;
    // |x| >= 22 (inf and NaN included): tanhf never calls expm1f.
    let saturated = ix >= 0x41b0_0000;
    // |x| < 2^-55, ±0 included: tanhf returns x*(1+x), which is x
    // for ±0 too, the value of its separate `ix == 0` branch.
    let small = ix < 0x2400_0000;
    let ge1 = ix >= 0x3f80_0000;

    // expm1f's argument: 2|x| for |x| >= 1, -2|x| below. Saturated
    // lanes are clamped to 0 first: their expm1f result is discarded,
    // and a finite argument keeps the float-to-int conversion defined.
    let two_ax = 2.0 * f32::from_bits(if saturated { 0 } else { ix });
    let arg = if ge1 { two_ax } else { -two_ax };
    let hx = two_ax.to_bits();

    // --- expm1f(arg) ---
    // Argument reduction. |arg| <= ln2/2: k = 0; below 1.5 ln2: k = -1
    // (a positive argument is at least 2, so k = +1 never occurs);
    // otherwise k = (int)(arg/ln2 ± 0.5). For k = 0 and -1 the general
    // formulas below give exactly fdlibm's values: 0·ln2_hi and
    // 0·ln2_lo are 0, and -1·ln2_hi and -1·ln2_lo are exact.
    let half = if ge1 { 0.5 } else { -0.5 };
    // A saturating `as i32` would add range fix-ups that cost ~20% of
    // the AVX2 loop; the clamp above makes them unnecessary.
    // SAFETY: |arg| < 44 (saturated lanes are clamped to 0), so the
    // truncated value is finite and fits in an i32.
    let k_round: i32 = unsafe { (INVLN2 * arg + half).to_int_unchecked() };
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        -1
    } else {
        k_round
    };
    let tk = k as f32;
    let hi = arg - tk * LN2_HI;
    let lo = tk * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    // The primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t3 = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t3) / (6.0 - xr * t3));

    // Reconstruction, one candidate per fdlibm case.
    let y_k0 = xr - (xr * e - hxs);
    let e = xr * (e - c) - c;
    let e = e - hxs;
    let y_km1 = 0.5 * (xr - e) - 0.5;
    let y_far = add_exponent(1.0 - (e - xr), k) - 1.0;
    // 2^-k from its exponent bits; 1 - 2^-k is exact for k < 23, so
    // no per-lane variable shift (`0x1000000 >> k`) is needed.
    let two_mk = f32::from_bits(((0x7f - k) as u32) << 23);
    let y_lt23 = add_exponent((1.0 - two_mk) - (e - xr), k);
    let y_ge23 = add_exponent((xr - (e + two_mk)) + 1.0, k);
    let em1 = if hx < 0x3300_0000 {
        // |arg| < 2^-25: expm1f returns its argument.
        arg
    } else if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k <= -2 || k > 56 {
        y_far
    } else if k < 23 {
        y_lt23
    } else {
        y_ge23
    };

    // --- tanhf ---
    // |x| >= 1: z = 1 - 2/(t+2); below: z = -t/(t+2); inf and NaN
    // return 1/x ± 1. One division serves all three.
    let num = if nonfinite {
        1.0
    } else if ge1 {
        2.0
    } else {
        -em1
    };
    let den = if nonfinite { x } else { em1 + 2.0 };
    let q = num / den;
    let z = if ge1 { 1.0 - q } else { q };
    if nonfinite {
        if sign == 0 {
            q + 1.0
        } else {
            q - 1.0
        }
    } else if saturated {
        f32::from_bits((1.0 - TINY).to_bits() | sign)
    } else if small {
        x * (1.0 + x)
    } else {
        f32::from_bits(z.to_bits() ^ sign)
    }
}

// The oracle is `f32::tanh`, which is glibc's `tanhf` only on Linux
// with glibc; other libms (musl, macOS, Windows) round some inputs
// differently, so there these tests would compare against a different
// function. They are x86_64-only because the AVX2 build exists only
// there and because glibc's `tanhf` is built without FMA contraction
// on x86_64 (aarch64 builds may fuse, and then differ in the last bit).
#[cfg(all(test, target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]
mod tests {
    use super::*;

    /// One build of the loop and the name mismatches report.
    type Build = (&'static str, fn(&mut [f32]));

    /// Every build of the loop this CPU runs. Prints their names, so a
    /// test log shows whether the AVX-512 build was checked.
    fn builds() -> Vec<Build> {
        let mut out: Vec<Build> = vec![("baseline", |xs| tanh_loop(xs))];
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 is present, checked just above.
            out.push(("avx2", |xs| unsafe { tanh_avx2(xs) }));
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F is present, checked just above.
            out.push(("avx512", |xs| unsafe { tanh_avx512(xs) }));
        }
        let names: Vec<&str> = out.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "tanh builds checked: {names:?}; dispatch runs {}",
            tanh_build()
        );
        out
    }

    /// Asserts every build and the dispatching entry point map `bits`
    /// to `f32::tanh`'s bits.
    fn check(bits: &[u32]) {
        let want: Vec<u32> = bits
            .iter()
            .map(|&b| f32::from_bits(b).tanh().to_bits())
            .collect();
        let mut kernels = builds();
        kernels.push(("dispatch", tanh_in_place));
        for (name, kernel) in kernels {
            let mut xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            kernel(&mut xs);
            for ((&b, &w), got) in bits.iter().zip(&want).zip(&xs) {
                assert_eq!(
                    got.to_bits(),
                    w,
                    "{name}: tanh({b:#010x}) = {:#010x}, libm gives {w:#010x}",
                    got.to_bits()
                );
            }
        }
    }

    /// `b`, its two neighbours in bit order, and the same three negated.
    fn around(b: u32) -> [u32; 6] {
        let s = 0x8000_0000;
        let (lo, hi) = (b.wrapping_sub(1), b.wrapping_add(1));
        [lo, b, hi, lo ^ s, b ^ s, hi ^ s]
    }

    #[test]
    fn special_inputs_match_libm() {
        let mut bits = vec![
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x8000_0001,
            0x007f_ffff, // largest subnormal
            0x807f_ffff,
            0x0080_0000, // smallest normal
            0x7f7f_ffff, // largest finite
            0xff7f_ffff,
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x7fc0_0000, // quiet NaN
            0xffc0_0000,
            0x7fc1_2345, // quiet NaN with payload
            0xffc5_4321,
            0x7f80_0001, // signalling NaNs with payloads
            0x7fa1_2345,
            0xff80_0001,
            0xffbf_ffff,
            0x7fff_ffff,
            0xffff_ffff,
        ];
        // tanhf's thresholds: inf, 22, 2^-55 and 1.
        for b in [0x7f80_0000, 0x41b0_0000, 0x2400_0000, 0x3f80_0000] {
            bits.extend(around(b));
        }
        // expm1f's thresholds, seen through its argument 2|x|: the
        // x that lands on each is the threshold halved (one less in
        // the exponent field).
        for b in [
            0x4195_b844, // 27 ln2
            0x42b1_7218, // 88.72
            0x3eb1_7218, // ln2 / 2
            0x3f85_1592, // 1.5 ln2
            0x3300_0000, // 2^-25
        ] {
            bits.extend(around(b));
            bits.extend(around(b - 0x0080_0000));
        }
        // Where k = round(2|x| / ln2) crosses 22/23 and 56/57: 2|x| =
        // (k - 0.5) ln2, so |x| = (k - 0.5) ln2 / 2.
        for k in [22.5f32, 56.5] {
            let b = (k * std::f32::consts::LN_2 / 2.0).to_bits();
            for d in 0..=8 {
                bits.extend(around(b - 4 + d));
            }
        }
        check(&bits);
    }

    #[test]
    fn strided_sweep_matches_libm() {
        // An odd stride near 2^12 visits ~1M patterns spread over every
        // exponent, sign and mantissa region.
        let bits: Vec<u32> = (0..(1u64 << 32)).step_by(4093).map(|b| b as u32).collect();
        assert!(bits.len() > 1_000_000);
        check(&bits);
    }

    /// All 2^32 inputs through every build against `f32::tanh`, split
    /// over the `freehgc_parallel` thread budget. Takes minutes in
    /// release; run it with
    /// `cargo test --release -p freehgc_autograd --lib -- --ignored tanh::tests::exhaustive`.
    #[test]
    #[ignore = "exhaustive: minutes in release"]
    fn exhaustive_matches_libm() {
        const BLOCK: usize = 1 << 16;
        let blocks = (1usize << 32) / BLOCK;
        let kernels = builds();
        let mismatches: Vec<Vec<usize>> = freehgc_parallel::par_chunks(blocks, 1, |range| {
            let mut counts = vec![0usize; kernels.len()];
            let mut want = vec![0u32; BLOCK];
            let mut xs = vec![0f32; BLOCK];
            for blk in range {
                let base = (blk * BLOCK) as u32;
                for (i, w) in want.iter_mut().enumerate() {
                    *w = f32::from_bits(base + i as u32).tanh().to_bits();
                }
                for ((_, kernel), count) in kernels.iter().zip(&mut counts) {
                    for (i, x) in xs.iter_mut().enumerate() {
                        *x = f32::from_bits(base + i as u32);
                    }
                    kernel(&mut xs);
                    *count += xs
                        .iter()
                        .zip(&want)
                        .filter(|(x, &w)| x.to_bits() != w)
                        .count();
                }
            }
            counts
        });
        for (k, (name, _)) in kernels.iter().enumerate() {
            let total: usize = mismatches.iter().map(|c| c[k]).sum();
            eprintln!("{name}: {total} mismatches over 2^32 inputs");
            assert_eq!(total, 0, "{name} differs from libm");
        }
    }
}
