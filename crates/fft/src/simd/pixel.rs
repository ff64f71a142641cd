//! The pixel-ILT kernel: everything one pixel-ILT iteration does per
//! pixel after the loss — the chain rule through the mask sigmoid, the
//! latent gradient's norms, the Adam step and the next mask — in one
//! pass, four pixels per AVX2 step, on the resist kernel's in-repo `exp`.
//!
//! # Why AVX2 equals the scalar reference
//!
//! [`pixel_ilt_step_scalar`] and [`latent_mask_scalar`] define every
//! output bit. The AVX2 bodies mirror them operation for operation with
//! correctly rounded packed ops (`vsqrtpd` and `vdivpd` included) and no
//! FMA; `|g|` and the domain test are bit masks, the L∞ update selects
//! exactly as the scalar comparison does (NaN included), and the sigmoid
//! is the resist kernel's four-lane one. The Adam step is
//! [`AdamStep::update`]'s arithmetic with its coefficients broadcast. The
//! gradient norms are summed in [`NormLanes`]' four lanes, which are the
//! vector accumulators' lanes: the AVX2 body takes them from the
//! [`PixelStep`] that carries them from block to block, and hands them
//! to the scalar reference for the last `n mod 4` pixels of a block. The
//! active-pixel count is an integer sum, so its order does not matter.

use super::resist::sigmoid;
use cfaopc_trace::NormLanes;

/// Adam's first-moment decay `β₁`.
const ADAM_BETA1: f64 = 0.9;
/// Adam's second-moment decay `β₂`.
const ADAM_BETA2: f64 = 0.999;
/// Adam's denominator fuzz `ε`.
const ADAM_EPS: f64 = 1e-8;

/// One Adam step over a parameter vector: its learning rate, this step's
/// bias corrections and the moment state it advances.
#[derive(Debug)]
pub struct AdamStep<'a> {
    /// Learning rate.
    pub lr: f64,
    /// This step's first-moment bias correction `1 − β₁ᵗ`.
    pub bc1: f64,
    /// This step's second-moment bias correction `1 − β₂ᵗ`.
    pub bc2: f64,
    /// First moments, one per parameter.
    pub m: &'a mut [f64],
    /// Second moments, one per parameter.
    pub v: &'a mut [f64],
}

impl<'a> AdamStep<'a> {
    /// Step `t` (counted from 1) at learning rate `lr` over moments `m`
    /// and `v`.
    pub fn new(lr: f64, t: i32, m: &'a mut [f64], v: &'a mut [f64]) -> Self {
        AdamStep {
            lr,
            bc1: 1.0 - ADAM_BETA1.powi(t),
            bc2: 1.0 - ADAM_BETA2.powi(t),
            m,
            v,
        }
    }

    /// Parameter `i`'s step: the new value of `p` for gradient `g`,
    /// advancing moments `i`. The one definition of the update's
    /// arithmetic, in this order:
    ///
    /// ```text
    /// m ← β₁·m + (1 − β₁)·g
    /// v ← β₂·v + (1 − β₂)·g·g
    /// p − lr·(m / bc1) / (√(v / bc2) + ε)
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `i` is past the moments.
    #[inline]
    pub fn update(&mut self, i: usize, p: f64, g: f64) -> f64 {
        self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g;
        self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * g * g;
        let m_hat = self.m[i] / self.bc1;
        let v_hat = self.v[i] / self.bc2;
        p - self.lr * m_hat / (v_hat.sqrt() + ADAM_EPS)
    }
}

/// What one [`pixel_ilt_step`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelStepStats {
    /// Pixels whose mask was above 0.5 before the step.
    pub active: usize,
    /// L2 norm of the latent gradient.
    pub grad_l2: f64,
    /// L∞ norm of the latent gradient (NaN if any entry is).
    pub grad_linf: f64,
}

/// The fused pixel-ILT pass. Per pixel, with `M = mask[i]` and
/// `P = latent[i]`:
///
/// ```text
/// g         = dL/dM · θ · M · (1 − M)      (in that order; 0 where
///                                            `domain` is false)
/// latent[i] = adam.update(i, P, g)
/// mask[i]   = sigmoid(θ · latent[i])        (the resist kernel's sigmoid)
/// ```
///
/// It counts the pixels with `M > 0.5` and takes `g`'s norms in
/// [`NormLanes`]' order, the order of `cfaopc_trace::grad_norms`.
/// Dispatches to AVX2 when available; both paths produce identical bits.
/// It is one [`PixelStep::block`] over the whole grid.
///
/// # Panics
///
/// Panics if `mask`, `latent`, `domain` or Adam's moments differ in
/// length from `grad_mask`.
pub fn pixel_ilt_step(
    grad_mask: &[f64],
    mask: &mut [f64],
    latent: &mut [f64],
    domain: Option<&[bool]>,
    steepness: f64,
    adam: AdamStep<'_>,
) -> PixelStepStats {
    assert_eq!(mask.len(), grad_mask.len(), "gradient/mask length mismatch");
    let mut step = PixelStep::new(mask, latent, domain, steepness, adam);
    step.block(0, grad_mask);
    step.stats()
}

/// [`pixel_ilt_step`] fed its dL/dM a block of pixels at a time, as the
/// gradient streams in: it holds the iteration's one [`AdamStep`] and
/// carries the gradient norms' [`NormLanes`] and the active count from
/// block to block, as [`super::resist_corner_sums`] carries its sums.
/// Entry `i` of the grid goes to lane `i mod 4` whatever block it comes
/// in, so blocks fed in pixel order, covering each pixel once, leave every
/// output bit and [`PixelStep::stats`] as one [`pixel_ilt_step`] call
/// over the whole grid.
#[derive(Debug)]
pub struct PixelStep<'a> {
    mask: &'a mut [f64],
    latent: &'a mut [f64],
    domain: Option<&'a [bool]>,
    theta: f64,
    adam: AdamStep<'a>,
    norms: NormLanes,
    active: usize,
}

impl<'a> PixelStep<'a> {
    /// The pass over `mask`, `latent` and, when given, `domain` at mask
    /// steepness `θ`, taking Adam step `adam`; no pixel is stepped yet.
    ///
    /// # Panics
    ///
    /// Panics if `latent`, `domain` or Adam's moments differ in length
    /// from `mask`.
    pub fn new(
        mask: &'a mut [f64],
        latent: &'a mut [f64],
        domain: Option<&'a [bool]>,
        steepness: f64,
        adam: AdamStep<'a>,
    ) -> Self {
        let n = mask.len();
        assert_eq!(latent.len(), n, "mask/latent length mismatch");
        if let Some(d) = domain {
            assert_eq!(d.len(), n, "mask/domain length mismatch");
        }
        assert!(
            adam.m.len() == n && adam.v.len() == n,
            "mask/moment length mismatch"
        );
        PixelStep {
            mask,
            latent,
            domain,
            theta: steepness,
            adam,
            norms: NormLanes::default(),
            active: 0,
        }
    }

    /// Steps pixels `at..at + grad_mask.len()`, `grad_mask` holding their
    /// dL/dM. A block starting at a multiple of four runs on AVX2 when it
    /// is available; any other (only a grid narrower than four pixels
    /// feeds one) runs on the scalar reference, whose bits the AVX2 body
    /// has.
    ///
    /// # Panics
    ///
    /// Panics if the block runs past the grid.
    pub fn block(&mut self, at: usize, grad_mask: &[f64]) {
        assert!(
            at + grad_mask.len() <= self.mask.len(),
            "pixels {at}..{} past a grid of {}",
            at + grad_mask.len(),
            self.mask.len()
        );
        #[cfg(target_arch = "x86_64")]
        let done = if at.is_multiple_of(4) && super::avx2_available() {
            // SAFETY: AVX2 was detected at runtime on this CPU, the only
            // precondition of the target_feature function; the block was
            // checked to lie inside every slice (`new` checked them equal).
            #[allow(unsafe_code)]
            unsafe {
                pixel_ilt_step_avx2(self, at, grad_mask)
            }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        pixel_ilt_step_scalar(self, at, grad_mask, done);
    }

    /// The active count and gradient norms of every pixel stepped so far.
    pub fn stats(&self) -> PixelStepStats {
        let (grad_l2, grad_linf) = self.norms.norms();
        PixelStepStats {
            active: self.active,
            grad_l2,
            grad_linf,
        }
    }
}

/// Scalar reference — the definition of [`pixel_ilt_step`]'s bits, and
/// the fallback for non-AVX2 targets. Runs entries `from..` of the block
/// of pixels `at..at + grad_mask.len()`.
fn pixel_ilt_step_scalar(s: &mut PixelStep<'_>, at: usize, grad_mask: &[f64], from: usize) {
    let theta = s.theta;
    for (i, &gm) in grad_mask.iter().enumerate().skip(from) {
        let i = at + i;
        let m = s.mask[i];
        if m > 0.5 {
            s.active += 1;
        }
        let mut g = gm * theta * m * (1.0 - m);
        if s.domain.is_some_and(|d| !d[i]) {
            g = 0.0;
        }
        s.norms.add(i, g);
        let p = s.adam.update(i, s.latent[i], g);
        s.latent[i] = p;
        s.mask[i] = sigmoid(theta * p);
    }
}

/// Writes the pixel-ILT mask of a latent field, `mask[i] =
/// sigmoid(θ · latent[i])` — the mask [`pixel_ilt_step`] leaves behind,
/// for a latent it has not stepped. Dispatches to AVX2 when available;
/// both paths produce identical bits.
///
/// # Panics
///
/// Panics if `mask` differs in length from `latent`.
pub fn latent_mask(latent: &[f64], steepness: f64, mask: &mut [f64]) {
    assert_eq!(mask.len(), latent.len(), "latent/mask length mismatch");
    #[cfg(target_arch = "x86_64")]
    let done = if super::avx2_available() {
        // SAFETY: AVX2 was detected at runtime on this CPU, the only
        // precondition of the target_feature function; the lengths were
        // checked equal above.
        #[allow(unsafe_code)]
        unsafe {
            latent_mask_avx2(latent, steepness, mask)
        }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    latent_mask_scalar(latent, steepness, mask, done);
}

/// Scalar reference of [`latent_mask`], from pixel `from` on.
fn latent_mask_scalar(latent: &[f64], theta: f64, mask: &mut [f64], from: usize) {
    for i in from..latent.len() {
        mask[i] = sigmoid(theta * latent[i]);
    }
}

/// AVX2 body: entries `0..4·⌊n/4⌋` of the block of `n` pixels from `at`
/// (a multiple of four, so vector lane `j` is norm lane `(at + j) mod
/// 4`), four per step. Carries the norm lanes and the active count in
/// `s` and returns the first entry it left to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the dispatcher gates
// on `avx2_available()`) and that pixels `at..at + grad_mask.len()` lie
// inside the mask, the latent, the domain and Adam's moments (`new` and
// `block` assert it); every load and store below is bounded by
// `i + 4 <= n`.
unsafe fn pixel_ilt_step_avx2(s: &mut PixelStep<'_>, at: usize, grad_mask: &[f64]) -> usize {
    use std::arch::x86_64::*;
    let n = grad_mask.len();
    let theta = _mm256_set1_pd(s.theta);
    let one = _mm256_set1_pd(1.0);
    let half = _mm256_set1_pd(0.5);
    let sign = _mm256_set1_pd(-0.0);
    // Adam's coefficients, broadcast.
    let lr = _mm256_set1_pd(s.adam.lr);
    let beta1 = _mm256_set1_pd(ADAM_BETA1);
    let keep1 = _mm256_set1_pd(1.0 - ADAM_BETA1);
    let beta2 = _mm256_set1_pd(ADAM_BETA2);
    let keep2 = _mm256_set1_pd(1.0 - ADAM_BETA2);
    let bc1 = _mm256_set1_pd(s.adam.bc1);
    let bc2 = _mm256_set1_pd(s.adam.bc2);
    let eps = _mm256_set1_pd(ADAM_EPS);
    // SAFETY: `at` is inside every slice (the block's bounds check).
    let (mom1, mom2, mp, pp, domain) = unsafe {
        (
            s.adam.m.as_mut_ptr().add(at),
            s.adam.v.as_mut_ptr().add(at),
            s.mask.as_mut_ptr().add(at),
            s.latent.as_mut_ptr().add(at),
            s.domain.map(|d| d.as_ptr().add(at)),
        )
    };
    let gp = grad_mask.as_ptr();
    // SAFETY: each lane array holds exactly four f64s.
    let (mut sum_sq, mut linf) = unsafe {
        (
            _mm256_loadu_pd(s.norms.sum_sq.as_ptr()),
            _mm256_loadu_pd(s.norms.linf.as_ptr()),
        )
    };
    let mut active = 0u32;
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds every load and store: the block's
        // gradient and, from `at`, the mask, the latent, Adam's moments
        // and the four domain bytes all have `n` entries.
        unsafe {
            let m = _mm256_loadu_pd(mp.add(i));
            let above = _mm256_cmp_pd::<_CMP_GT_OQ>(m, half);
            active += (_mm256_movemask_pd(above) as u32).count_ones();
            let gm = _mm256_mul_pd(_mm256_loadu_pd(gp.add(i)), theta);
            let mut g = _mm256_mul_pd(_mm256_mul_pd(gm, m), _mm256_sub_pd(one, m));
            if let Some(dp) = domain {
                // Four `bool`s (0 or 1) widened to four 64-bit lanes; a
                // zero lane is outside the domain and its `g` becomes +0.
                let bytes = dp.add(i).cast::<i32>().read_unaligned();
                let inside = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(bytes));
                let outside = _mm256_cmpeq_epi64(inside, _mm256_setzero_si256());
                g = _mm256_andnot_pd(_mm256_castsi256_pd(outside), g);
            }
            sum_sq = _mm256_add_pd(sum_sq, _mm256_mul_pd(g, g));
            let a = _mm256_andnot_pd(sign, g);
            let take = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(a, linf),
                _mm256_cmp_pd::<_CMP_UNORD_Q>(a, a),
            );
            linf = _mm256_blendv_pd(linf, a, take);
            let p = _mm256_loadu_pd(pp.add(i));
            let first = _mm256_add_pd(
                _mm256_mul_pd(beta1, _mm256_loadu_pd(mom1.add(i))),
                _mm256_mul_pd(keep1, g),
            );
            let second = _mm256_add_pd(
                _mm256_mul_pd(beta2, _mm256_loadu_pd(mom2.add(i))),
                _mm256_mul_pd(_mm256_mul_pd(keep2, g), g),
            );
            _mm256_storeu_pd(mom1.add(i), first);
            _mm256_storeu_pd(mom2.add(i), second);
            let m_hat = _mm256_div_pd(first, bc1);
            let v_hat = _mm256_div_pd(second, bc2);
            let den = _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps);
            let p = _mm256_sub_pd(p, _mm256_div_pd(_mm256_mul_pd(lr, m_hat), den));
            _mm256_storeu_pd(pp.add(i), p);
            _mm256_storeu_pd(
                mp.add(i),
                super::resist::sigmoid_pd(_mm256_mul_pd(theta, p)),
            );
        }
        i += 4;
    }
    // SAFETY: each lane array holds exactly four f64s.
    unsafe {
        _mm256_storeu_pd(s.norms.sum_sq.as_mut_ptr(), sum_sq);
        _mm256_storeu_pd(s.norms.linf.as_mut_ptr(), linf);
    }
    s.active += active as usize;
    i
}

/// AVX2 body of [`latent_mask`]: pixels `0..4·⌊n/4⌋`; returns the first
/// pixel it left to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the public dispatcher
// gates on `avx2_available()`) and that `mask` has `latent.len()`
// entries (its assert); every load and store is bounded by `i + 4 <= n`.
unsafe fn latent_mask_avx2(latent: &[f64], theta: f64, mask: &mut [f64]) -> usize {
    use std::arch::x86_64::*;
    let n = latent.len();
    let theta = _mm256_set1_pd(theta);
    let (lp, mp) = (latent.as_ptr(), mask.as_mut_ptr());
    let mut i = 0usize;
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the load and the store.
        unsafe {
            let x = _mm256_mul_pd(theta, _mm256_loadu_pd(lp.add(i)));
            _mm256_storeu_pd(mp.add(i), super::resist::sigmoid_pd(x));
        }
        i += 4;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SIGMOID_SAT;

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

    /// One step's inputs: dL/dM, latent, domain and Adam moments.
    struct Case {
        grad: Vec<f64>,
        latent: Vec<f64>,
        domain: Vec<bool>,
        m: Vec<f64>,
        v: Vec<f64>,
    }

    /// A latent spanning both saturated tails (`θ = 4` puts
    /// `±SIGMOID_SAT/θ` at ±10), gradients of both signs over several
    /// decades, a patchy domain, and moments as a late Adam step leaves
    /// them.
    fn case(n: usize, seed: u64) -> Case {
        let u = uniform(seed, 5 * n);
        let (a, rest) = u.split_at(n);
        let (b, rest) = rest.split_at(n);
        let (c, rest) = rest.split_at(n);
        let (d, e) = rest.split_at(n);
        Case {
            grad: a
                .iter()
                .zip(b)
                .map(|(&x, &y)| (x - 0.5) * 10f64.powf(8.0 * y - 6.0))
                .collect(),
            latent: c.iter().map(|&x| (x - 0.5) * 30.0).collect(),
            domain: d.iter().map(|&x| x < 0.7).collect(),
            m: e.iter().map(|&x| (x - 0.5) * 1e-3).collect(),
            v: e.iter().map(|&x| x * x * 1e-6).collect(),
        }
    }

    /// Adam's step `t` at learning rate 0.2 over moments `m` and `v`.
    fn adam<'a>(t: i32, m: &'a mut [f64], v: &'a mut [f64]) -> AdamStep<'a> {
        AdamStep::new(0.2, t, m, v)
    }

    fn same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if y.is_nan() {
                assert!(x.is_nan(), "{what}[{i}]: {x} vs NaN");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
            }
        }
    }

    /// One step through the dispatcher and through the scalar reference
    /// alone, from the same inputs: every output compared bit for bit.
    fn assert_paths_agree(c: &Case, mask: &[f64], with_domain: bool, t: i32, label: &str) {
        let theta = 4.0;
        let domain = with_domain.then_some(c.domain.as_slice());
        let (mut fast_mask, mut fast_latent) = (mask.to_vec(), c.latent.clone());
        let (mut fast_m, mut fast_v) = (c.m.clone(), c.v.clone());
        let fast = pixel_ilt_step(
            &c.grad,
            &mut fast_mask,
            &mut fast_latent,
            domain,
            theta,
            adam(t, &mut fast_m, &mut fast_v),
        );
        let (mut slow_mask, mut slow_latent) = (mask.to_vec(), c.latent.clone());
        let (mut slow_m, mut slow_v) = (c.m.clone(), c.v.clone());
        let mut pass = PixelStep::new(
            &mut slow_mask,
            &mut slow_latent,
            domain,
            theta,
            adam(t, &mut slow_m, &mut slow_v),
        );
        pixel_ilt_step_scalar(&mut pass, 0, &c.grad, 0);
        let slow = pass.stats();
        assert_eq!(fast.active, slow.active, "{label}: active");
        same_bits(
            &[fast.grad_l2, fast.grad_linf],
            &[slow.grad_l2, slow.grad_linf],
            label,
        );
        same_bits(&fast_latent, &slow_latent, &format!("{label}: latent"));
        same_bits(&fast_mask, &slow_mask, &format!("{label}: mask"));
        same_bits(&fast_m, &slow_m, &format!("{label}: m"));
        same_bits(&fast_v, &slow_v, &format!("{label}: v"));
    }

    /// Adam's first step and a late one.
    const STEPS: [i32; 2] = [1, 57];

    #[test]
    fn step_matches_scalar_reference_bitwise() {
        // Every tail length, then the 128² and 256² grids.
        for n in (0..20).chain([128 * 128, 256 * 256]) {
            let c = case(n, n as u64 + 1);
            let mut mask = vec![0.0; n];
            latent_mask_scalar(&c.latent, 4.0, &mut mask, 0);
            for with_domain in [false, true] {
                for t in STEPS {
                    let label = format!("n = {n}, domain {with_domain}, Adam step {t}");
                    assert_paths_agree(&c, &mask, with_domain, t, &label);
                }
            }
        }
    }

    #[test]
    fn blocks_in_pixel_order_equal_one_whole_step() {
        // Rows of a grid fed one at a time, as the gradient streams in:
        // widths that are multiples of four run every block on AVX2, the
        // others start blocks off a lane boundary and run them on the
        // scalar reference. Either way the carried lanes, the count and
        // every pixel match one call over the whole grid.
        for (w, h) in [(64, 64), (16, 5), (4, 1), (2, 7), (1, 9), (6, 3), (0, 4)] {
            let n = w * h;
            let c = case(n, (w * 31 + h) as u64);
            let mut mask = vec![0.0; n];
            latent_mask_scalar(&c.latent, 4.0, &mut mask, 0);
            for with_domain in [false, true] {
                let domain = with_domain.then_some(c.domain.as_slice());
                let (mut whole_mask, mut whole_latent) = (mask.clone(), c.latent.clone());
                let (mut whole_m, mut whole_v) = (c.m.clone(), c.v.clone());
                let whole = pixel_ilt_step(
                    &c.grad,
                    &mut whole_mask,
                    &mut whole_latent,
                    domain,
                    4.0,
                    adam(57, &mut whole_m, &mut whole_v),
                );
                let (mut rows_mask, mut rows_latent) = (mask.clone(), c.latent.clone());
                let (mut rows_m, mut rows_v) = (c.m.clone(), c.v.clone());
                let mut step = PixelStep::new(
                    &mut rows_mask,
                    &mut rows_latent,
                    domain,
                    4.0,
                    adam(57, &mut rows_m, &mut rows_v),
                );
                for y in 0..h {
                    step.block(y * w, &c.grad[y * w..][..w]);
                }
                let rows = step.stats();
                let label = format!("{w}x{h}, domain {with_domain}");
                assert_eq!(rows.active, whole.active, "{label}: active");
                same_bits(
                    &[rows.grad_l2, rows.grad_linf],
                    &[whole.grad_l2, whole.grad_linf],
                    &label,
                );
                same_bits(&rows_latent, &whole_latent, &format!("{label}: latent"));
                same_bits(&rows_mask, &whole_mask, &format!("{label}: mask"));
                same_bits(&rows_m, &whole_m, &format!("{label}: m"));
                same_bits(&rows_v, &whole_v, &format!("{label}: v"));
            }
        }
    }

    #[test]
    fn step_edge_inputs_match_scalar_reference() {
        // Signed zeros, infinities and NaN in dL/dM, the mask and the
        // latent, and latents on and past ±SIGMOID_SAT/θ.
        let grads = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e-310,
            2.5,
        ];
        let sat = SIGMOID_SAT / 4.0;
        let latents = [
            sat,
            -sat,
            sat * 1.01,
            -sat * 1.01,
            sat * 0.99,
            0.0,
            -0.0,
            200.0,
            -200.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let masks = [0.0, 0.5, 1.0, 0.25, 0.999, f64::NAN, 0.5000001];
        let n = grads.len() * latents.len();
        let mut c = case(n, 77);
        let mut mask = vec![0.0; n];
        for i in 0..n {
            c.grad[i] = grads[i % grads.len()];
            c.latent[i] = latents[i / grads.len()];
            mask[i] = masks[i % masks.len()];
        }
        for rot in 0..4 {
            let mut r = Case {
                grad: c.grad.clone(),
                latent: c.latent.clone(),
                domain: c.domain.clone(),
                m: c.m.clone(),
                v: c.v.clone(),
            };
            r.grad.rotate_left(rot);
            r.latent.rotate_left(rot);
            for with_domain in [false, true] {
                for t in STEPS {
                    let label =
                        format!("edge inputs rotated {rot}, domain {with_domain}, Adam step {t}");
                    assert_paths_agree(&r, &mask, with_domain, t, &label);
                }
            }
        }
    }

    #[test]
    fn step_is_the_open_coded_iteration() {
        // The chain rule, the domain, the norms, the Adam update and the
        // next mask, written out: Adam's third step at θ = 4.
        let n = 23;
        let c = case(n, 5);
        let mut mask = vec![0.0; n];
        latent_mask(&c.latent, 4.0, &mut mask);
        let (mut got_mask, mut got_latent) = (mask.clone(), c.latent.clone());
        let (mut m, mut v) = (c.m.clone(), c.v.clone());
        let stats = pixel_ilt_step(
            &c.grad,
            &mut got_mask,
            &mut got_latent,
            Some(&c.domain),
            4.0,
            adam(3, &mut m, &mut v),
        );
        let (bc1, bc2) = (1.0 - 0.9f64.powi(3), 1.0 - 0.999f64.powi(3));
        let mut g = vec![0.0; n];
        let mut active = 0;
        for i in 0..n {
            active += usize::from(mask[i] > 0.5);
            g[i] = if c.domain[i] {
                c.grad[i] * 4.0 * mask[i] * (1.0 - mask[i])
            } else {
                0.0
            };
            let m1 = 0.9 * c.m[i] + (1.0 - 0.9) * g[i];
            let v1 = 0.999 * c.v[i] + (1.0 - 0.999) * g[i] * g[i];
            let p = c.latent[i] - 0.2 * (m1 / bc1) / ((v1 / bc2).sqrt() + 1e-8);
            assert_eq!(
                (m[i].to_bits(), v[i].to_bits()),
                (m1.to_bits(), v1.to_bits())
            );
            assert_eq!(got_latent[i].to_bits(), p.to_bits(), "latent[{i}]");
            assert_eq!(
                got_mask[i].to_bits(),
                sigmoid(4.0 * p).to_bits(),
                "mask[{i}]"
            );
        }
        assert_eq!(stats.active, active);
        let (l2, linf) = cfaopc_trace::grad_norms(&g);
        assert_eq!(stats.grad_l2.to_bits(), l2.to_bits());
        assert_eq!(stats.grad_linf.to_bits(), linf.to_bits());
    }

    #[test]
    fn latent_mask_matches_scalar_reference_bitwise() {
        let sat = SIGMOID_SAT / 4.0;
        for n in (0..20).chain([128 * 128]) {
            let mut latent = case(n, n as u64 + 3).latent;
            let edges = [
                sat,
                -sat,
                sat * 1.01,
                -sat * 1.01,
                -0.0,
                f64::NAN,
                f64::INFINITY,
            ];
            for (l, e) in latent.iter_mut().zip(edges) {
                *l = e;
            }
            let (mut fast, mut slow) = (vec![0.0; n], vec![0.0; n]);
            latent_mask(&latent, 4.0, &mut fast);
            latent_mask_scalar(&latent, 4.0, &mut slow, 0);
            same_bits(&fast, &slow, &format!("n = {n}"));
        }
    }

    #[test]
    fn adam_update_is_its_formula() {
        let (mut m, mut v) = (vec![0.01], vec![2e-4]);
        let mut d = adam(3, &mut m, &mut v);
        let p = d.update(0, 1.5, -0.7);
        let (bc1, bc2) = (1.0 - 0.9f64.powi(3), 1.0 - 0.999f64.powi(3));
        let m1 = 0.9 * 0.01 + (1.0 - 0.9) * -0.7;
        let v1 = 0.999 * 2e-4 + (1.0 - 0.999) * -0.7 * -0.7;
        let want = 1.5 - 0.2 * (m1 / bc1) / ((v1 / bc2).sqrt() + 1e-8);
        assert_eq!(p.to_bits(), want.to_bits());
        assert_eq!((m[0], v[0]), (m1, v1));
    }
}
