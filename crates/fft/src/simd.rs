//! Shared SIMD infrastructure: runtime feature detection plus bit-exact
//! AVX2 kernels for the complex-field inner loops of the litho stack, for
//! its resist ([`resist_corner`], on an `exp` written in this crate) and
//! for the pixel-ILT iteration on the same `exp` ([`pixel_ilt_step`]).
//!
//! PR 6 introduced the pattern in `cfaopc-core`: explicit intrinsics
//! behind a runtime latch, with a scalar fallback that *defines* the
//! kernel's semantics and a hard bit-identity contract between the two
//! paths. This module hoists the detection latch and the conventions to
//! the one crate every other crate already depends on, so `cfaopc-core`
//! and the FFT butterflies stop re-deriving them.
//!
//! # Why the SIMD paths are bit-identical
//!
//! Packed `vaddpd`/`vsubpd`/`vmulpd`/`vhaddpd`/`vaddsubpd` are IEEE-754
//! correctly rounded per lane, exactly like their scalar counterparts, so
//! a vector lane produces *the same bits* as the scalar expression as
//! long as the operation sequence matches. The kernels below therefore
//! mirror their scalar references operation for operation: no FMA
//! (contraction would change the rounding), horizontal adds only where
//! the scalar reference performs the same single addition, and sign
//! flips via XOR with `-0.0` (exact negation). Unit tests in this module
//! and property tests in `tests/` hold every dispatch to that contract.
//!
//! # Feature detection and fallback policy
//!
//! [`avx2_available`] latches `is_x86_feature_detected!("avx2")` once in
//! a `OnceLock`, so steady-state dispatch is one relaxed load. Non-x86
//! targets (and x86 machines without AVX2) take the scalar fallback;
//! switching paths can never change results.

use crate::complex::Complex;

mod exp_table;
mod pixel;
mod resist;

pub use pixel::{latent_mask, pixel_ilt_step, AdamStep, PixelStepStats};
pub use resist::{
    reduce_sums, resist_corner, resist_corner_sums, sigmoid, GradOut, ResistCorner, SIGMOID_SAT,
};

/// Returns `true` when the running CPU supports AVX2, latched once.
///
/// The one detection latch for the whole workspace — `cfaopc-core`'s
/// composition kernels and the FFT butterflies both dispatch through it.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Non-x86 stub: the scalar fallback is the only path.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn avx2_available() -> bool {
    false
}

/// Accumulates `acc[i] += w · |field[i]|²` — the SOCS intensity inner
/// loop (`scale·μ_k·|A_k|²`, paper Eq. 1).
///
/// Dispatches to AVX2 when available; both paths produce identical bits.
///
/// # Panics
///
/// Panics if `acc.len() != field.len()`.
#[inline]
pub fn accumulate_norm_sqr(acc: &mut [f64], field: &[Complex], w: f64) {
    assert_eq!(acc.len(), field.len(), "accumulator/field length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: the AVX2 feature was detected at runtime on this
            // CPU, which is the only precondition of the target_feature
            // function below.
            #[allow(unsafe_code)]
            unsafe {
                accumulate_norm_sqr_avx2(acc, field, w);
            }
            return;
        }
    }
    accumulate_norm_sqr_scalar(acc, field, w);
}

/// Scalar reference — the definition of [`accumulate_norm_sqr`]'s
/// semantics, and the fallback for non-AVX2 targets.
#[inline]
fn accumulate_norm_sqr_scalar(acc: &mut [f64], field: &[Complex], w: f64) {
    for (a, z) in acc.iter_mut().zip(field) {
        *a += w * z.norm_sqr();
    }
}

/// AVX2 kernel: four pixels per iteration.
///
/// `vhaddpd(s1, s2)` performs the one addition `re·re + im·im` that the
/// scalar `norm_sqr` performs, so each lane is the identical correctly
/// rounded sum; the lane shuffle afterwards only reorders finished
/// values and cannot change bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the public dispatcher
// gates on `avx2_available()`); lengths are equal by the dispatcher's
// assert and every load/store below is bounded by `i + 4 <= n`.
unsafe fn accumulate_norm_sqr_avx2(acc: &mut [f64], field: &[Complex], w: f64) {
    use std::arch::x86_64::*;
    let n = acc.len();
    let wv = _mm256_set1_pd(w);
    let fp = field.as_ptr() as *const f64;
    let ap = acc.as_mut_ptr();
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the two 2-complex loads, the
        // accumulator load and the store; `Complex` is `repr(C)` so the
        // f64 reinterpretation sees [re, im] pairs.
        unsafe {
            let v1 = _mm256_loadu_pd(fp.add(2 * i)); // z0.re z0.im z1.re z1.im
            let v2 = _mm256_loadu_pd(fp.add(2 * i + 4)); // z2.re z2.im z3.re z3.im
            let s1 = _mm256_mul_pd(v1, v1);
            let s2 = _mm256_mul_pd(v2, v2);
            // [|z0|², |z2|², |z1|², |z3|²] — hadd interleaves 128-bit halves.
            let h = _mm256_hadd_pd(s1, s2);
            // Reorder lanes (0,2,1,3) → [|z0|², |z1|², |z2|², |z3|²].
            let nrm = _mm256_permute4x64_pd(h, 0b1101_1000);
            let a = _mm256_loadu_pd(ap.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, _mm256_mul_pd(wv, nrm)));
        }
        i += 4;
    }
    accumulate_norm_sqr_scalar(&mut acc[i..], &field[i..], w);
}

/// Writes `out[i] = conj(a[i]) · g[i]` for real `g` — the adjoint pass's
/// `B = G ⊙ conj(A)` construction.
///
/// Dispatches to AVX2 when available; both paths produce identical bits.
///
/// # Panics
///
/// Panics if the three slices differ in length.
#[inline]
pub fn conj_mul_real(out: &mut [Complex], a: &[Complex], g: &[f64]) {
    assert_eq!(out.len(), a.len(), "output/field length mismatch");
    assert_eq!(out.len(), g.len(), "output/gradient length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: AVX2 detected at runtime — the only precondition of
            // the target_feature function below.
            #[allow(unsafe_code)]
            unsafe {
                conj_mul_real_avx2(out, a, g);
            }
            return;
        }
    }
    conj_mul_real_scalar(out, a, g);
}

/// Scalar reference — the definition of [`conj_mul_real`]'s semantics.
/// Matches the historical open-coded loop `*slot = a.conj() * g` (a
/// conjugate followed by a real scale).
#[inline]
fn conj_mul_real_scalar(out: &mut [Complex], a: &[Complex], g: &[f64]) {
    for ((slot, &z), &gi) in out.iter_mut().zip(a).zip(g) {
        *slot = z.conj() * gi;
    }
}

/// AVX2 kernel: four pixels per iteration.
///
/// The conjugate is an XOR with `-0.0` on the imaginary lanes (exact
/// sign flip); the real scale is one packed multiply against `g`
/// duplicated into [g, g] pairs. Both match the scalar
/// `(z.re·g, (−z.im)·g)` bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the public dispatcher
// gates on `avx2_available()`); lengths are equal by the dispatcher's
// asserts and every load/store below is bounded by `i + 4 <= n`.
unsafe fn conj_mul_real_avx2(out: &mut [Complex], a: &[Complex], g: &[f64]) {
    use std::arch::x86_64::*;
    let n = out.len();
    // [+0.0, −0.0, +0.0, −0.0]: XOR flips the sign of the im lanes only.
    let sign = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    let ap = a.as_ptr() as *const f64;
    let gp = g.as_ptr();
    let op = out.as_mut_ptr() as *mut f64;
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the loads and stores; `Complex` is
        // `repr(C)` so the f64 reinterpretation sees [re, im] pairs.
        unsafe {
            let g4 = _mm256_loadu_pd(gp.add(i)); // g0 g1 g2 g3
            let a_lo = _mm256_loadu_pd(ap.add(2 * i)); // z0 z1
            let a_hi = _mm256_loadu_pd(ap.add(2 * i + 4)); // z2 z3
            let g_lo = _mm256_permute4x64_pd(g4, 0b0101_0000); // g0 g0 g1 g1
            let g_hi = _mm256_permute4x64_pd(g4, 0b1111_1010); // g2 g2 g3 g3
            let c_lo = _mm256_xor_pd(a_lo, sign);
            let c_hi = _mm256_xor_pd(a_hi, sign);
            _mm256_storeu_pd(op.add(2 * i), _mm256_mul_pd(c_lo, g_lo));
            _mm256_storeu_pd(op.add(2 * i + 4), _mm256_mul_pd(c_hi, g_hi));
        }
        i += 4;
    }
    conj_mul_real_scalar(&mut out[i..], &a[i..], &g[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.7319).sin() * 3.5 - 1.0,
                    (i as f64 * 0.2711).cos() * 2.0 + 0.1,
                )
            })
            .collect()
    }

    #[test]
    fn norm_sqr_accumulation_matches_scalar_bitwise() {
        // Cover every alignment phase of the 4-lane kernel.
        for n in 0..19usize {
            let f = field(n);
            let mut fast: Vec<f64> = (0..n).map(|i| i as f64 * 0.013 - 0.4).collect();
            let mut slow = fast.clone();
            accumulate_norm_sqr(&mut fast, &f, 0.0817);
            accumulate_norm_sqr_scalar(&mut slow, &f, 0.0817);
            for i in 0..n {
                assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn norm_sqr_accumulation_matches_open_coded_loop() {
        // The kernel must reproduce the historical accumulation expression
        // `*acc += w * z.norm_sqr()` exactly.
        let n = 23;
        let f = field(n);
        let w = 1.02 / 6.0;
        let mut got = vec![0.25; n];
        let mut reference = got.clone();
        accumulate_norm_sqr(&mut got, &f, w);
        for (acc, z) in reference.iter_mut().zip(&f) {
            *acc += w * z.norm_sqr();
        }
        for i in 0..n {
            assert_eq!(got[i].to_bits(), reference[i].to_bits(), "i={i}");
        }
    }

    #[test]
    fn conj_mul_matches_scalar_bitwise() {
        for n in 0..19usize {
            let a = field(n);
            let g: Vec<f64> = (0..n).map(|i| (i as f64 * 0.591).sin() * 4.0).collect();
            let mut fast = vec![Complex::ZERO; n];
            let mut slow = vec![Complex::ZERO; n];
            conj_mul_real(&mut fast, &a, &g);
            conj_mul_real_scalar(&mut slow, &a, &g);
            for i in 0..n {
                assert_eq!(fast[i].re.to_bits(), slow[i].re.to_bits(), "n={n} i={i}");
                assert_eq!(fast[i].im.to_bits(), slow[i].im.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn conj_mul_matches_open_coded_loop() {
        // The adjoint pass historically wrote `*slot = a.conj() * g`.
        let n = 17;
        let a = field(n);
        let g: Vec<f64> = (0..n).map(|i| i as f64 * -0.37 + 1.0).collect();
        let mut got = vec![Complex::ZERO; n];
        conj_mul_real(&mut got, &a, &g);
        for i in 0..n {
            let reference = a[i].conj() * g[i];
            assert_eq!(got[i].re.to_bits(), reference.re.to_bits(), "i={i}");
            assert_eq!(got[i].im.to_bits(), reference.im.to_bits(), "i={i}");
        }
    }

    #[test]
    fn detection_latch_is_stable() {
        assert_eq!(avx2_available(), avx2_available());
    }
}
