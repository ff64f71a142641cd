//! The resist kernel: one process corner's relaxed resist
//! `Z = σ(θ (dose·J − I_th))` (paper Eq. 2), its squared-error loss
//! against the target and its dL/dI, four pixels per AVX2 step, on an
//! `exp` written here.
//!
//! # `exp`
//!
//! `exp` writes `x = k·ln2/N + r` with `N = 128`: `k` is `x·N/ln2`
//! rounded to nearest by adding and subtracting `1.5·2^52`, and `r` comes
//! from a Cody–Waite split of `ln2/N` whose high part has 35 significant
//! bits, so `k·LN2_HI_N` is exact over the whole clamped domain
//! (`|k| < 2^18`) and `|r| ≤ ln2/(2N)` up to rounding. Then
//!
//! ```text
//! exp(x) = 2^⌊k/N⌋ · 2^((k mod N)/N) · e^r
//! ```
//!
//! `2^(j/N)` is a table entry held as a `(hi, lo)` pair of doubles,
//! `e^r − 1` its degree-5 Taylor polynomial (truncation under 2^-60
//! relative), and the result `hi + (hi·p + lo)` carries one rounding of
//! about half an ulp; every other step's error is under a hundredth of
//! one. The power of two goes in as two exponent-field factors
//! `2^⌊m/2⌋ · 2^(m − ⌊m/2⌋)`, each a normal double, so a subnormal result
//! is rounded once. Two clamps on `x` handle the rest of the domain with
//! no branch: inputs at or below −745 become −746, whose result rounds to
//! `+0` (`f64::exp` returns the smallest subnormal on `(−745.13, −745]`,
//! one ulp away), and inputs above 710 become 710, whose result overflows
//! to `+∞`. NaN fails every comparison, passes both clamps and comes out
//! NaN; the table index is masked to `0..N` whatever the input. Against
//! `f64::exp` the error stays within 2 ulp over the whole domain (the
//! unit tests check 10⁷ points). The table and the constants come from
//! `scripts/gen_exp_table.py`, in decimal arithmetic: no libm call is
//! made and nothing is built at run time.
//!
//! # Why AVX2 equals the scalar reference
//!
//! [`resist_corner_scalar`] defines every output bit. The AVX2 body
//! mirrors it operation for operation with correctly rounded packed ops
//! and no FMA (the scalar uses no `mul_add`); the sign flips and absolute
//! values are bit masks, `vminpd`/`vblendvpd`/`vcmppd` select exactly as
//! the scalar comparisons do (NaN included), the integer steps of the
//! reduction are exact, and the table is read with a gather at the index
//! the scalar path computes. Both branches of the sigmoid are evaluated
//! and one is selected per lane, which gives the bits the scalar branch
//! gives. The loss is summed in four partial sums, pixel `i` into sum
//! `i mod 4` in pixel order, reduced as `(s0 + s1) + (s2 + s3)`: the
//! vector accumulator's lanes are those sums, and the AVX2 body hands the
//! scalar reference its partial sums for the last `n mod 4` pixels.
//! [`resist_corner_sums`] takes the sums from its caller and returns them
//! unreduced, so a run of pixels may be fed in blocks (a streamed
//! intensity's row pairs): the AVX2 body loads them into its lanes, and a
//! block of a multiple of four pixels leaves each lane on the sum of its
//! pixels' index in the whole run.

use super::exp_table::{EXP_C, EXP_N, EXP_TABLE, INV_LN2_N, LN2_HI_N, LN2_LO_N};

/// Saturation threshold of the sigmoids: for `x ≥ 37`, `e^{-x} < 2^{-53}
/// = ulp(1.0)/2`, so `1.0 + e^{-x}` rounds to exactly `1.0` and the
/// sigmoid is exactly `1.0`. 40 keeps a safety margin over that bound.
pub const SIGMOID_SAT: f64 = 40.0;

/// Adding and subtracting it rounds `x·N/ln2` to an integer, held in the
/// low bits of the sum's mantissa: `1.5·2^52`.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// Added to `sum_bits >> 7` (with `2^7 = N`), it gives `⌊k/N⌋ + 2046`:
/// the sum of the two scale factors' biased exponents.
const SCALE_BIAS: u64 = 2046u64.wrapping_sub(SHIFT.to_bits() >> 7);

/// Inputs at or below it flush to `+0`.
const EXP_FLUSH: f64 = -745.0;

/// Where flushed inputs go: `e^{-746}` is under half the smallest
/// subnormal, so the algorithm rounds it to `+0`.
const EXP_FLOOR: f64 = -746.0;

/// Inputs above it clamp to it; `e^{710}` overflows to `+∞`.
const EXP_CEIL: f64 = 710.0;

/// `e^x` without libm: within 2 ulp of `f64::exp` everywhere, `+0` at and
/// below −745, `+∞` above the overflow threshold and NaN for NaN (see the
/// module docs). The scalar reference of the resist kernel's `exp`.
#[inline]
fn exp(x: f64) -> f64 {
    let x = if x <= EXP_FLUSH { EXP_FLOOR } else { x };
    let x = if EXP_CEIL < x { EXP_CEIL } else { x };
    let sum = x * INV_LN2_N + SHIFT;
    let bits = sum.to_bits();
    let kd = sum - SHIFT;
    let r = (x - kd * LN2_HI_N) - kd * LN2_LO_N;
    let j = 2 * (bits % EXP_N) as usize;
    let biased = (bits >> 7).wrapping_add(SCALE_BIAS);
    let e1 = biased >> 1;
    let e2 = biased.wrapping_sub(e1);
    let r2 = r * r;
    let p = r + r2 * ((EXP_C[0] + r * EXP_C[1]) + r2 * (EXP_C[2] + r * EXP_C[3]));
    let hi = EXP_TABLE[j];
    let y = hi + (hi * p + EXP_TABLE[j + 1]);
    y * f64::from_bits(e1 << 52) * f64::from_bits(e2 << 52)
}

/// The resist kernel's logistic function: `1` for `x ≥` [`SIGMOID_SAT`],
/// else `num / (1 + e)` with `e = exp(−|x|)` (the in-repo `exp`) and
/// `num = 1` for `x ≥ 0`, `e` otherwise — the two branches of the stable
/// logistic `1/(1 + e^{−x})` / `e^x/(1 + e^x)`, folded.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= SIGMOID_SAT {
        1.0
    } else {
        let e = exp(-x.abs());
        let num = if x >= 0.0 { 1.0 } else { e };
        num / (1.0 + e)
    }
}

/// One process corner's resist parameters for [`resist_corner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistCorner {
    /// Resist steepness `θ`.
    pub steepness: f64,
    /// Intensity threshold `I_th`.
    pub threshold: f64,
    /// The corner's dose, applied to the dose-free intensity `J`.
    pub dose: f64,
    /// The corner's loss weight `w`, which scales only dL/dI.
    pub weight: f64,
}

/// Where [`resist_corner`] puts each pixel's dL/dI `g`.
#[derive(Debug)]
pub enum GradOut<'a> {
    /// Nowhere: the loss alone.
    Skip,
    /// `grad[i] = g`.
    Write(&'a mut [f64]),
    /// `grad[i] += ratio · g`: folds this corner's dL/dI onto another
    /// corner's, scaled by `ratio`.
    Add(&'a mut [f64], f64),
}

/// The resist kernel. Per pixel, with `J = intensity[i]` and
/// `T = target[i]`:
///
/// ```text
/// x    = θ · (dose · J − I_th)
/// z    = sigmoid(x)
/// diff = z − T
/// g    = w · 2 · diff · θ · z · (1 − z)      (dL/dI, in that order)
/// ```
///
/// Returns `Σ diff²`, summed in four partial sums (pixel `i` into sum
/// `i mod 4`) reduced as `(s0 + s1) + (s2 + s3)`, and stores `g` as
/// `grad` says. Dispatches to AVX2 when available; both paths produce
/// identical bits. It is [`resist_corner_sums`] from zeroed sums, then
/// [`reduce_sums`].
///
/// # Panics
///
/// Panics if `target` or a gradient buffer differs in length from
/// `intensity`.
pub fn resist_corner(
    intensity: &[f64],
    target: &[f64],
    corner: &ResistCorner,
    grad: GradOut<'_>,
) -> f64 {
    let mut sums = [0.0; 4];
    resist_corner_sums(intensity, target, corner, grad, &mut sums);
    reduce_sums(&sums)
}

/// [`resist_corner`] on one block of a longer run of pixels, adding each
/// `diff²` into the caller's partial sums `sums[i mod 4]` (`i` the
/// pixel's index in the block) instead of returning the reduced loss.
/// Blocks whose lengths are multiples of four, fed in pixel order from
/// zeroed sums, leave every pixel in the sum of its index in the whole
/// run, so [`reduce_sums`] of the result has the bits of one
/// [`resist_corner`] call over the concatenated blocks; each pixel's `g`
/// has them too, whatever the blocks.
///
/// # Panics
///
/// Panics if `target` or a gradient buffer differs in length from
/// `intensity`.
pub fn resist_corner_sums(
    intensity: &[f64],
    target: &[f64],
    corner: &ResistCorner,
    mut grad: GradOut<'_>,
    sums: &mut [f64; 4],
) {
    let n = intensity.len();
    assert_eq!(target.len(), n, "intensity/target length mismatch");
    if let GradOut::Write(g) | GradOut::Add(g, _) = &grad {
        assert_eq!(g.len(), n, "intensity/gradient length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    let done = if super::avx2_available() {
        // SAFETY: AVX2 was detected at runtime on this CPU, the only
        // precondition of the target_feature function; the lengths were
        // checked equal above.
        #[allow(unsafe_code)]
        unsafe {
            resist_corner_avx2(intensity, target, corner, &mut grad, sums)
        }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    resist_corner_scalar(intensity, target, corner, &mut grad, done, sums);
}

/// The loss from [`resist_corner_sums`]' partial sums: `(s0 + s1) + (s2 +
/// s3)`, [`resist_corner`]'s reduction.
#[inline]
pub fn reduce_sums(sums: &[f64; 4]) -> f64 {
    (sums[0] + sums[1]) + (sums[2] + sums[3])
}

/// Scalar reference — the definition of [`resist_corner`]'s bits, and
/// the fallback for non-AVX2 targets. Runs pixels `from..`, adding each
/// `diff²` into `sums[i % 4]`.
fn resist_corner_scalar(
    intensity: &[f64],
    target: &[f64],
    c: &ResistCorner,
    grad: &mut GradOut<'_>,
    from: usize,
    sums: &mut [f64; 4],
) {
    let w2 = c.weight * 2.0;
    for i in from..intensity.len() {
        let z = sigmoid(c.steepness * (c.dose * intensity[i] - c.threshold));
        let diff = z - target[i];
        sums[i % 4] += diff * diff;
        match grad {
            GradOut::Skip => {}
            GradOut::Write(g) => g[i] = w2 * diff * c.steepness * z * (1.0 - z),
            GradOut::Add(g, ratio) => g[i] += *ratio * (w2 * diff * c.steepness * z * (1.0 - z)),
        }
    }
}

/// AVX2 body: pixels `0..4·⌊n/4⌋`, four per step, each lane of the
/// accumulator one of the scalar reference's partial sums, starting from
/// `sums`. Stores those sums back in `sums` and returns the first pixel it
/// left to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the public dispatcher
// gates on `avx2_available()`) and that `target` and any gradient buffer
// have `intensity.len()` entries (its asserts); every load and store
// below is bounded by `i + 4 <= n`.
unsafe fn resist_corner_avx2(
    intensity: &[f64],
    target: &[f64],
    c: &ResistCorner,
    grad: &mut GradOut<'_>,
    sums: &mut [f64; 4],
) -> usize {
    use std::arch::x86_64::*;
    let n = intensity.len();
    let theta = _mm256_set1_pd(c.steepness);
    let threshold = _mm256_set1_pd(c.threshold);
    let dose = _mm256_set1_pd(c.dose);
    let w2 = _mm256_set1_pd(c.weight * 2.0);
    let one = _mm256_set1_pd(1.0);
    let jp = intensity.as_ptr();
    let tp = target.as_ptr();
    // SAFETY: `sums` holds exactly four f64s.
    let mut acc = unsafe { _mm256_loadu_pd(sums.as_ptr()) };
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the loads from `intensity` and
        // `target` and the gradient load and store (its length is `n`).
        unsafe {
            let j = _mm256_loadu_pd(jp.add(i));
            let x = _mm256_mul_pd(theta, _mm256_sub_pd(_mm256_mul_pd(dose, j), threshold));
            let z = sigmoid_pd(x);
            let diff = _mm256_sub_pd(z, _mm256_loadu_pd(tp.add(i)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
            let wd = _mm256_mul_pd(_mm256_mul_pd(w2, diff), theta);
            let g = _mm256_mul_pd(_mm256_mul_pd(wd, z), _mm256_sub_pd(one, z));
            match grad {
                GradOut::Skip => {}
                GradOut::Write(out) => _mm256_storeu_pd(out.as_mut_ptr().add(i), g),
                GradOut::Add(out, ratio) => {
                    let p = out.as_mut_ptr().add(i);
                    let scaled = _mm256_mul_pd(_mm256_set1_pd(*ratio), g);
                    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), scaled));
                }
            }
        }
        i += 4;
    }
    // SAFETY: `sums` holds exactly four f64s.
    unsafe { _mm256_storeu_pd(sums.as_mut_ptr(), acc) };
    i
}

/// [`sigmoid`] on four lanes: both branches evaluated, one selected per
/// lane by the scalar branch's own comparison.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(super) fn sigmoid_pd(x: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let one = _mm256_set1_pd(1.0);
    let sign = _mm256_set1_pd(-0.0);
    // −|x| is `x` with its sign bit set (the scalar `-x.abs()`).
    let e = exp_pd(_mm256_or_pd(x, sign));
    let num = _mm256_blendv_pd(e, one, _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_setzero_pd()));
    let z = _mm256_div_pd(num, _mm256_add_pd(one, e));
    _mm256_blendv_pd(
        z,
        one,
        _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(SIGMOID_SAT)),
    )
}

/// `exp` on four lanes, operation for operation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
#[allow(unsafe_code)]
fn exp_pd(x: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let flush = _mm256_cmp_pd::<_CMP_LE_OQ>(x, _mm256_set1_pd(EXP_FLUSH));
    let x = _mm256_blendv_pd(x, _mm256_set1_pd(EXP_FLOOR), flush);
    // `vminpd(a, b)` is `a < b ? a : b`: the scalar clamp, NaN kept.
    let x = _mm256_min_pd(_mm256_set1_pd(EXP_CEIL), x);
    let shift = _mm256_set1_pd(SHIFT);
    let sum = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(INV_LN2_N)), shift);
    let bits = _mm256_castpd_si256(sum);
    let kd = _mm256_sub_pd(sum, shift);
    let r = _mm256_sub_pd(
        _mm256_sub_pd(x, _mm256_mul_pd(kd, _mm256_set1_pd(LN2_HI_N))),
        _mm256_mul_pd(kd, _mm256_set1_pd(LN2_LO_N)),
    );
    let j = _mm256_slli_epi64::<1>(_mm256_and_si256(bits, _mm256_set1_epi64x(EXP_N as i64 - 1)));
    let biased = _mm256_add_epi64(
        _mm256_srli_epi64::<7>(bits),
        _mm256_set1_epi64x(SCALE_BIAS as i64),
    );
    let e1 = _mm256_srli_epi64::<1>(biased);
    let e2 = _mm256_sub_epi64(biased, e1);
    let r2 = _mm256_mul_pd(r, r);
    let (c2, c3) = (_mm256_set1_pd(EXP_C[0]), _mm256_set1_pd(EXP_C[1]));
    let (c4, c5) = (_mm256_set1_pd(EXP_C[2]), _mm256_set1_pd(EXP_C[3]));
    let p = _mm256_add_pd(
        r,
        _mm256_mul_pd(
            r2,
            _mm256_add_pd(
                _mm256_add_pd(c2, _mm256_mul_pd(r, c3)),
                _mm256_mul_pd(r2, _mm256_add_pd(c4, _mm256_mul_pd(r, c5))),
            ),
        ),
    );
    // SAFETY: `j` holds `2·(bits & (N − 1))`, so the gathers read entries
    // `2j` and `2j + 1` of the `2N`-entry table, whatever `x` was.
    let (hi, lo) = unsafe {
        (
            _mm256_i64gather_pd::<8>(EXP_TABLE.as_ptr(), j),
            _mm256_i64gather_pd::<8>(EXP_TABLE.as_ptr().add(1), j),
        )
    };
    let y = _mm256_add_pd(hi, _mm256_add_pd(_mm256_mul_pd(hi, p), lo));
    let s1 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(e1));
    let s2 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(e2));
    _mm256_mul_pd(_mm256_mul_pd(y, s1), s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::avx2_available;

    /// Deterministic uniform `[0, 1)` values (xorshift64*).
    fn uniform(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// Distance in representable doubles between two values of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// `exp` on four lanes through the AVX2 body, for the tests.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn exp_avx2(xs: &[f64]) -> Vec<f64> {
        use std::arch::x86_64::*;
        assert!(avx2_available());
        let mut out = vec![0.0; xs.len()];
        for (o, x) in out.chunks_exact_mut(4).zip(xs.chunks_exact(4)) {
            // SAFETY: AVX2 was checked above (the target feature of
            // `exp_pd`); both chunks hold four f64s.
            unsafe { _mm256_storeu_pd(o.as_mut_ptr(), exp_pd(_mm256_loadu_pd(x.as_ptr()))) };
        }
        out
    }

    /// Every input class: the flush region, subnormal and normal results
    /// on both sides of 0, tiny arguments, the overflow threshold, ±∞.
    fn exp_points(count: usize) -> Vec<f64> {
        let u = uniform(11, count);
        u.iter()
            .enumerate()
            .map(|(i, &v)| match i % 8 {
                0 => -750.0 + 1460.0 * v,                                // the whole range
                1 => -745.2 + 37.0 * v,                                  // subnormal results
                2 => -40.0 * v,                                          // the resist's range
                3 => (v - 0.5) * 1e-3,                                   // near 0
                4 => (v - 0.5) * f64::powi(2.0, -((i / 8 % 60) as i32)), // tiny
                5 => 700.0 + 10.0 * v,                                   // near overflow
                6 => -745.2 + 0.2 * v,                                   // the flush edge
                _ => (v - 0.5) * 1400.0,
            })
            .chain([
                0.0,
                -0.0,
                1.0,
                -1.0,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                5e-324,
                -5e-324,
                709.782_712_893_384,
                709.782_712_893_383_9,
                -708.396_418_532_264_1,
                -744.44,
                -745.0,
                -745.133_219_101_941_1,
                710.0,
                -746.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                -f64::MAX,
            ])
            .collect()
    }

    #[test]
    fn exp_is_within_two_ulp_of_libm() {
        let points = exp_points(10_000_000);
        let mut worst = (0u64, 0.0f64);
        for &x in &points {
            let (got, want) = (exp(x), x.exp());
            if x <= EXP_FLUSH {
                assert_eq!(got.to_bits(), 0, "exp({x:e}) must flush to +0");
            }
            let d = ulps(got, want);
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(
            worst.0 <= 2,
            "exp is {} ulp off f64::exp at x = {:e}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn exp_edge_values() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(f64::MAX), f64::INFINITY);
        for x in [
            -745.0,
            -745.01,
            -746.0,
            -1e300,
            f64::NEG_INFINITY,
            -f64::MAX,
        ] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
        // The smallest subnormals are still reached above the flush.
        assert!(exp(-744.9) > 0.0 && exp(-744.9) < f64::MIN_POSITIVE);
        assert!(exp(f64::NAN).is_nan());
        assert!(exp(-f64::NAN).is_nan());
        assert!(exp(709.78).is_finite());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp_avx2_matches_scalar_bitwise() {
        if !avx2_available() {
            return;
        }
        let mut points = exp_points(1_000_000);
        points.extend([f64::NAN, -f64::NAN, 0.0, 0.0]);
        points.truncate(points.len() / 4 * 4);
        let fast = exp_avx2(&points);
        for (&x, &got) in points.iter().zip(&fast) {
            let want = exp(x);
            if want.is_nan() {
                assert!(got.is_nan(), "x = {x}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "x = {x:e}");
            }
        }
    }

    /// A smooth intensity field with some noise: values from about 0 to
    /// 1.2, crossing the default threshold 0.225 along curves.
    fn intensity(n: usize, seed: u64) -> Vec<f64> {
        let noise = uniform(seed, n);
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.0137;
                0.55 + 0.5 * t.sin() * (0.31 * t).cos() + 0.1 * (noise[i] - 0.5)
            })
            .collect()
    }

    fn target(n: usize) -> Vec<f64> {
        (0..n).map(|i| f64::from(u8::from(i % 37 < 15))).collect()
    }

    fn corner(dose: f64, weight: f64) -> ResistCorner {
        ResistCorner {
            steepness: 50.0,
            threshold: 0.225,
            dose,
            weight,
        }
    }

    /// The kernel through the dispatcher and through the scalar reference
    /// alone, in each gradient mode: the losses' bits and each mode's
    /// gradient bits, compared.
    fn assert_paths_agree(j: &[f64], t: &[f64], c: &ResistCorner, label: &str) {
        let n = j.len();
        let scalar = |grad: &mut GradOut<'_>| {
            let mut sums = [0.0; 4];
            resist_corner_scalar(j, t, c, grad, 0, &mut sums);
            (sums[0] + sums[1]) + (sums[2] + sums[3])
        };
        let base: Vec<f64> = uniform(5, n).iter().map(|v| v - 0.5).collect();
        let (mut fast_w, mut slow_w) = (vec![0.0; n], vec![0.0; n]);
        let (mut fast_a, mut slow_a) = (base.clone(), base);
        let losses = [
            (
                resist_corner(j, t, c, GradOut::Skip),
                scalar(&mut GradOut::Skip),
            ),
            (
                resist_corner(j, t, c, GradOut::Write(&mut fast_w)),
                scalar(&mut GradOut::Write(&mut slow_w)),
            ),
            (
                resist_corner(j, t, c, GradOut::Add(&mut fast_a, 1.02)),
                scalar(&mut GradOut::Add(&mut slow_a, 1.02)),
            ),
        ];
        for (fast, slow) in losses {
            if slow.is_nan() {
                assert!(fast.is_nan(), "{label}: loss");
            } else {
                assert_eq!(fast.to_bits(), slow.to_bits(), "{label}: loss");
            }
        }
        for (fast, slow) in [(&fast_w, &slow_w), (&fast_a, &slow_a)] {
            for i in 0..n {
                if slow[i].is_nan() {
                    assert!(fast[i].is_nan(), "{label}: g[{i}]");
                } else {
                    assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "{label}: g[{i}]");
                }
            }
        }
    }

    #[test]
    fn kernel_matches_scalar_reference_bitwise() {
        // Every tail length, then the 128² and 256² grids.
        let lengths = (0..20).chain([128 * 128, 256 * 256]);
        for n in lengths {
            let (j, t) = (intensity(n, n as u64), target(n));
            for dose in [1.0, 1.02, 0.98] {
                for weight in [0.0, 0.5, 1.0] {
                    let label = format!("n = {n}, dose {dose}, weight {weight}");
                    assert_paths_agree(&j, &t, &corner(dose, weight), &label);
                }
            }
        }
    }

    #[test]
    fn kernel_edge_inputs_match_scalar_reference() {
        // With θ = 1, I_th = 0 and dose 1, x is the intensity itself.
        let unit = ResistCorner {
            steepness: 1.0,
            threshold: 0.0,
            dose: 1.0,
            weight: 1.0,
        };
        let xs = [
            0.0,
            -0.0,
            36.99,
            37.0,
            37.01,
            39.99,
            SIGMOID_SAT,
            40.01,
            -36.99,
            -37.0,
            -37.01,
            -39.99,
            -40.0,
            -40.01,
            -744.9,
            -745.0,
            -745.5,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-310,
            -1e-310,
        ];
        let t: Vec<f64> = (0..xs.len()).map(|i| (i % 2) as f64).collect();
        assert_paths_agree(&xs, &t, &unit, "edge inputs");
        // Each lane position of the AVX2 body sees each input.
        for rot in 1..4 {
            let mut r = xs.to_vec();
            r.rotate_left(rot);
            assert_paths_agree(&r, &t, &unit, &format!("edge inputs rotated {rot}"));
        }
    }

    #[test]
    fn sigmoid_edge_values() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        for x in [37.0, 38.0, SIGMOID_SAT, 40.01, 1e300, f64::INFINITY] {
            assert_eq!(sigmoid(x), 1.0, "x = {x}");
        }
        assert!(sigmoid(36.0) < 1.0);
        // e = exp(−|x|) is exactly 0 at and below −745, so z is too.
        for x in [-745.0, -800.0, f64::NEG_INFINITY] {
            assert_eq!(sigmoid(x).to_bits(), 0, "x = {x}");
        }
        assert!(sigmoid(-744.0) > 0.0);
        assert!(sigmoid(f64::NAN).is_nan());
        // Against the libm logistic, within a few ulp of the result.
        for i in 0..4000 {
            let x = f64::from(i).mul_add(0.05, -100.0);
            let want = if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                x.exp() / (1.0 + x.exp())
            };
            assert!(ulps(sigmoid(x), want) <= 4, "x = {x}");
        }
    }

    #[test]
    fn kernel_applies_the_dose_to_the_intensity() {
        // x = θ·(dose·J − I_th), checked against an open-coded libm
        // evaluation: applying the dose to (J − I_th) instead moves z by
        // far more than the tolerance.
        let n = 64;
        let (j, t) = (intensity(n, 3), target(n));
        for dose in [1.02, 0.98, 1.3] {
            let c = corner(dose, 0.5);
            let mut g = vec![0.0; n];
            let loss = resist_corner(&j, &t, &c, GradOut::Write(&mut g));
            let mut want_loss = 0.0;
            for i in 0..n {
                let x = 50.0 * (dose * j[i] - 0.225);
                let z = 1.0 / (1.0 + (-x).exp());
                let diff = z - t[i];
                want_loss += diff * diff;
                let want_g = 0.5 * 2.0 * diff * 50.0 * z * (1.0 - z);
                assert!(
                    (g[i] - want_g).abs() <= 1e-12 * want_g.abs().max(1.0),
                    "g[{i}]"
                );
            }
            assert!((loss - want_loss).abs() <= 1e-12 * want_loss, "dose {dose}");
        }
    }

    #[test]
    fn kernel_edge_outputs() {
        let c = corner(1.0, 1.0);
        // +∞ prints (z = 1), −∞ does not (z = 0): no loss against a
        // matching target, and a zero, finite dL/dI.
        let j = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ];
        let t = [1.0, 0.0, 1.0, 0.0, 1.0];
        let mut g = [f64::NAN; 5];
        assert_eq!(resist_corner(&j, &t, &c, GradOut::Write(&mut g)), 0.0);
        assert!(g.iter().all(|&v| v == 0.0), "{g:?}");
        // A NaN intensity makes the loss NaN, in either lane position.
        for at in 0..6 {
            let mut j = vec![0.3; 6];
            j[at] = f64::NAN;
            let loss = resist_corner(&j, &[0.0; 6], &c, GradOut::Skip);
            assert!(loss.is_nan(), "NaN at {at}");
        }
    }

    /// The kernel over row pairs (blocks of `2·row` pixels, `row` even)
    /// with carried sums, against one call over the whole buffer: the
    /// reduced loss and every `g`, bit for bit, on the dispatched path and
    /// on the scalar reference, in each gradient mode.
    fn assert_blocks_agree(j: &[f64], t: &[f64], c: &ResistCorner, block: usize, label: &str) {
        let n = j.len();
        let base: Vec<f64> = uniform(7, n).iter().map(|v| v - 0.5).collect();
        let whole_scalar = |grad: &mut GradOut<'_>| {
            let mut sums = [0.0; 4];
            resist_corner_scalar(j, t, c, grad, 0, &mut sums);
            reduce_sums(&sums)
        };
        // `blocks(scalar, mode)`: the loss and gradient of the blocked run.
        let blocks = |scalar: bool, mode: usize| {
            let mut g = if mode == 2 {
                base.clone()
            } else {
                vec![0.0; n]
            };
            let mut sums = [0.0; 4];
            for ((jb, tb), gb) in j
                .chunks(block)
                .zip(t.chunks(block))
                .zip(g.chunks_mut(block))
            {
                let mut grad = match mode {
                    0 => GradOut::Skip,
                    1 => GradOut::Write(gb),
                    _ => GradOut::Add(gb, 1.02),
                };
                if scalar {
                    resist_corner_scalar(jb, tb, c, &mut grad, 0, &mut sums);
                } else {
                    resist_corner_sums(jb, tb, c, grad, &mut sums);
                }
            }
            (reduce_sums(&sums), g)
        };
        for mode in 0..3 {
            let mut g = if mode == 2 {
                base.clone()
            } else {
                vec![0.0; n]
            };
            let mut g_scalar = g.clone();
            let (want, want_scalar) = match mode {
                0 => (
                    resist_corner(j, t, c, GradOut::Skip),
                    whole_scalar(&mut GradOut::Skip),
                ),
                1 => (
                    resist_corner(j, t, c, GradOut::Write(&mut g)),
                    whole_scalar(&mut GradOut::Write(&mut g_scalar)),
                ),
                _ => (
                    resist_corner(j, t, c, GradOut::Add(&mut g, 1.02)),
                    whole_scalar(&mut GradOut::Add(&mut g_scalar, 1.02)),
                ),
            };
            for (scalar, want, want_g) in [(false, want, &g), (true, want_scalar, &g_scalar)] {
                let what = format!("{label}, mode {mode}, scalar {scalar}");
                let (loss, got_g) = blocks(scalar, mode);
                assert_eq!(loss.to_bits(), want.to_bits(), "{what}: loss");
                for (i, (a, b)) in got_g.iter().zip(want_g).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: g[{i}]");
                }
            }
        }
    }

    #[test]
    fn carried_sums_over_row_pairs_match_one_call() {
        // Row pairs of 2N pixels, N ≥ 2 even: every block is a multiple
        // of four pixels, on grids up to the 256 px one.
        for row in [2, 4, 6, 64, 256] {
            let n = 2 * row * 8.min(row);
            let (j, t) = (intensity(n, row as u64), target(n));
            for (dose, weight) in [(1.0, 1.0), (1.02, 0.5), (0.98, 0.0)] {
                let label = format!("rows of {row}, dose {dose}, weight {weight}");
                assert_blocks_agree(&j, &t, &corner(dose, weight), 2 * row, &label);
            }
        }
    }

    #[test]
    fn add_mode_folds_onto_the_existing_gradient() {
        let n = 23;
        let (j, t) = (intensity(n, 9), target(n));
        let c = corner(1.02, 1.0);
        let mut g = vec![0.0; n];
        resist_corner(&j, &t, &c, GradOut::Write(&mut g));
        let mut folded: Vec<f64> = (0..n).map(|i| i as f64 * 0.01).collect();
        let before = folded.clone();
        resist_corner(&j, &t, &c, GradOut::Add(&mut folded, 1.02));
        for i in 0..n {
            let want = before[i] + 1.02 * g[i];
            assert_eq!(folded[i].to_bits(), want.to_bits(), "i = {i}");
        }
    }
}
