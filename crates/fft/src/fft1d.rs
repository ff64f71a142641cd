//! One-dimensional radix-2 Cooley–Tukey FFT.
//!
//! The plan precomputes the bit-reversal permutation and the twiddle
//! factors for every butterfly stage so repeated transforms of the same
//! length (the common case: one plan per grid edge, thousands of row and
//! column transforms) pay no trigonometry at run time.

use crate::complex::Complex;
use crate::parallel::ColumnBlockMut;
use std::fmt;
use std::sync::Arc;

/// Error returned when constructing or applying an FFT plan with an
/// incompatible length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// The requested transform length is zero or not a power of two.
    LengthNotPowerOfTwo(usize),
    /// The buffer passed to an execute method does not match the plan length.
    LengthMismatch {
        /// Length the plan was built for.
        expected: usize,
        /// Length of the buffer that was provided.
        actual: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::LengthNotPowerOfTwo(n) => {
                write!(f, "fft length {n} is not a nonzero power of two")
            }
            FftError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match plan length {expected}"
                )
            }
        }
    }
}

impl std::error::Error for FftError {}

/// Direction of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time/space → frequency, kernel `e^{-2πi kn/N}`.
    Forward,
    /// Frequency → time/space, kernel `e^{+2πi kn/N}`, scaled by `1/N`.
    Inverse,
}

/// A reusable FFT plan for a fixed power-of-two length.
///
/// The plan is cheap to clone (twiddle tables are shared through [`Arc`])
/// and is `Send + Sync`, so one plan can drive many worker threads.
///
/// # Examples
///
/// ```
/// use cfaopc_fft::{Complex, Fft};
///
/// # fn main() -> Result<(), cfaopc_fft::FftError> {
/// let fft = Fft::new(8)?;
/// let mut data = vec![Complex::ZERO; 8];
/// data[0] = Complex::ONE; // impulse
/// fft.forward(&mut data)?;
/// // The spectrum of an impulse is flat.
/// for bin in &data {
///     assert!((bin.re - 1.0).abs() < 1e-12 && bin.im.abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    bit_rev: Arc<[u32]>,
    /// Forward twiddles laid out stage-major: for each stage `s`
    /// (half-size `m = 2^s`), `m` factors `e^{-iπ j/m}`, `j = 0..m`.
    twiddles: Arc<[Complex]>,
    /// Conjugated copy of `twiddles` for the inverse transform, so the
    /// butterfly loops index one table instead of conjugating per
    /// butterfly. `z.conj()` only flips a sign bit, so the precomputed
    /// table is bit-identical to conjugating at use.
    twiddles_inv: Arc<[Complex]>,
}

impl Fft {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthNotPowerOfTwo`] unless `n` is a nonzero
    /// power of two.
    pub fn new(n: usize) -> Result<Self, FftError> {
        if n == 0 || !n.is_power_of_two() {
            return Err(FftError::LengthNotPowerOfTwo(n));
        }
        let log2n = n.trailing_zeros();
        let mut bit_rev = vec![0u32; n];
        for (i, slot) in bit_rev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bit_rev[0] = 0;
        }
        // Total twiddle count: 1 + 2 + 4 + ... + n/2 = n - 1.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut m = 1usize;
        while m < n {
            for j in 0..m {
                twiddles.push(Complex::cis(-std::f64::consts::PI * j as f64 / m as f64));
            }
            m <<= 1;
        }
        let twiddles_inv: Vec<Complex> = twiddles.iter().map(|w| w.conj()).collect();
        Ok(Fft {
            n,
            bit_rev: bit_rev.into(),
            twiddles: twiddles.into(),
            twiddles_inv: twiddles_inv.into(),
        })
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: a plan covers at least one element. Provided
    /// alongside [`Fft::len`] per convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn check(&self, data: &[Complex]) -> Result<(), FftError> {
        if data.len() != self.n {
            return Err(FftError::LengthMismatch {
                expected: self.n,
                actual: data.len(),
            });
        }
        Ok(())
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-2πi kn/N}`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.dispatch(data, Direction::Forward);
        Ok(())
    }

    /// In-place inverse DFT: `x[n] = (1/N) Σ_k X[k] e^{+2πi kn/N}`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        self.dispatch(data, Direction::Inverse);
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
        Ok(())
    }

    /// In-place transform in the given [`Direction`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != self.len()`.
    pub fn transform(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        match dir {
            Direction::Forward => self.forward(data),
            Direction::Inverse => self.inverse(data),
        }
    }

    fn dispatch(&self, data: &mut [Complex], dir: Direction) {
        if self.n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..self.n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies; the direction picks one of the two
        // precomputed stage-major twiddle tables (the inverse table is the
        // conjugated copy — bit-identical to conjugating per butterfly).
        let tw = match dir {
            Direction::Forward => &self.twiddles,
            Direction::Inverse => &self.twiddles_inv,
        };
        #[cfg(target_arch = "x86_64")]
        {
            if self.n >= 4 && crate::simd::avx2_available() {
                // SAFETY: AVX2 was detected at runtime — the only
                // precondition of the target_feature function below.
                #[allow(unsafe_code)]
                unsafe {
                    butterflies_avx2(data, tw);
                }
                return;
            }
        }
        butterflies_scalar(data, tw);
    }

    /// In-place transform of every column of `block`, which must have
    /// `self.len()` rows: the column pass of a 2-D transform, run where
    /// the columns already lie instead of on a transposed copy.
    ///
    /// The plan's bit-reversal becomes swaps of row segments, and each
    /// radix-2 butterfly of [`butterflies_scalar`] becomes one
    /// [`butterfly_rows`] over a pair of row segments under one broadcast
    /// twiddle; the inverse then scales by `1/n`, as [`Fft::inverse`]
    /// does. Every element therefore goes through exactly the operations
    /// the 1-D transform of its gathered column applies to it, in the same
    /// order, and each column comes out bit-identical to that transform.
    ///
    /// # Panics
    ///
    /// Panics if `block.rows() != self.len()`.
    pub(crate) fn transform_columns(&self, mut block: ColumnBlockMut<'_, Complex>, dir: Direction) {
        let n = self.n;
        assert_eq!(block.rows(), n, "column length must match the plan");
        if n > 1 {
            for i in 0..n {
                let j = self.bit_rev[i] as usize;
                if i < j {
                    let (a, b) = block.row_pair_mut(i, j);
                    a.swap_with_slice(b);
                }
            }
            let tw = match dir {
                Direction::Forward => &self.twiddles,
                Direction::Inverse => &self.twiddles_inv,
            };
            let mut m = 1usize;
            let mut tw_base = 0usize;
            while m < n {
                let step = m << 1;
                for start in (0..n).step_by(step) {
                    for j in 0..m {
                        let (a, b) = block.row_pair_mut(start + j, start + j + m);
                        butterfly_rows(a, b, tw[tw_base + j]);
                    }
                }
                tw_base += m;
                m = step;
            }
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / n as f64;
            for r in 0..n {
                for z in block.row_mut(r) {
                    *z = z.scale(inv);
                }
            }
        }
    }
}

/// One butterfly of [`butterflies_scalar`] applied column by column to two
/// row segments: `(a, b) ← (a + b·w, a − b·w)` elementwise, under one
/// twiddle `w`. Dispatches to AVX2 when available; both paths produce
/// identical bits.
#[inline]
fn butterfly_rows(a: &mut [Complex], b: &mut [Complex], w: Complex) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::avx2_available() {
            // SAFETY: AVX2 was detected at runtime — the only
            // precondition of the target_feature function below.
            #[allow(unsafe_code)]
            unsafe {
                butterfly_rows_avx2(a, b, w);
            }
            return;
        }
    }
    butterfly_rows_scalar(a, b, w);
}

/// Scalar reference for [`butterfly_rows`]: the body of
/// [`butterflies_scalar`]'s inner loop, once per column.
#[inline]
fn butterfly_rows_scalar(a: &mut [Complex], b: &mut [Complex], w: Complex) {
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let top = *x;
        let bw = *y * w;
        *x = top + bw;
        *y = top - bw;
    }
}

/// AVX2 row-pair butterfly: two columns per register, the odd last column
/// through [`butterfly_rows_scalar`].
///
/// The lanes compute what the first stage of [`butterflies_avx2`] does
/// with a broadcast twiddle — `vmulpd` + `vaddsubpd` for `b·w`, then
/// `vaddpd`/`vsubpd` — so by the same argument every lane carries the
/// scalar bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the `butterfly_rows`
// gate). Every load and store below is bounded by `i + 2 <= len`, with
// `len` the shorter segment's length.
unsafe fn butterfly_rows_avx2(a: &mut [Complex], b: &mut [Complex], w: Complex) {
    use std::arch::x86_64::*;
    let len = a.len().min(b.len());
    let pa = a.as_mut_ptr() as *mut f64;
    let pb = b.as_mut_ptr() as *mut f64;
    let w_re = _mm256_set1_pd(w.re);
    let w_im = _mm256_set1_pd(w.im);
    let mut i = 0usize;
    while i + 2 <= len {
        // SAFETY: `i + 2 <= len` keeps both 2-complex loads and stores
        // inside their segments; `Complex` is `repr(C)`, so the f64 view
        // sees [re, im] pairs.
        unsafe {
            let x = _mm256_loadu_pd(pa.add(2 * i));
            let y = _mm256_loadu_pd(pb.add(2 * i));
            let y_swap = _mm256_permute_pd(y, 0b0101);
            let yw = _mm256_addsub_pd(_mm256_mul_pd(y, w_re), _mm256_mul_pd(y_swap, w_im));
            _mm256_storeu_pd(pa.add(2 * i), _mm256_add_pd(x, yw));
            _mm256_storeu_pd(pb.add(2 * i), _mm256_sub_pd(x, yw));
        }
        i += 2;
    }
    butterfly_rows_scalar(&mut a[i..len], &mut b[i..len], w);
}

/// Scalar butterfly ladder — the definition of the transform's numerical
/// semantics and the fallback for non-AVX2 targets. `data.len()` must be
/// a power of two ≥ 2 and `tw` its stage-major twiddle table (already
/// conjugated for inverse transforms).
#[inline]
fn butterflies_scalar(data: &mut [Complex], tw: &[Complex]) {
    let n = data.len();
    let mut m = 1usize;
    let mut tw_base = 0usize;
    while m < n {
        let step = m << 1;
        for start in (0..n).step_by(step) {
            for j in 0..m {
                let w = tw[tw_base + j];
                let a = data[start + j];
                let b = data[start + j + m] * w;
                data[start + j] = a + b;
                data[start + j + m] = a - b;
            }
        }
        tw_base += m;
        m = step;
    }
}

/// AVX2 butterfly ladder, two complex butterflies per vector op.
///
/// # Why this is bit-identical to [`butterflies_scalar`]
///
/// The twiddle product uses `vmulpd` + `vaddsubpd`: even lanes compute
/// `b.re·w.re − b.im·w.im` and odd lanes `b.im·w.re + b.re·w.im`. The
/// scalar `Complex::mul` computes `b.re·w.im + b.im·w.re` for the
/// imaginary part — the same two correctly rounded products added in the
/// other order, and IEEE-754 addition is commutative (one rounding of the
/// exact sum either way) — so every lane carries the scalar bits. The
/// `a ± b·w` adds and the first-stage deinterleave/reinterleave shuffles
/// (`vperm2f128` moves finished values only) preserve that. No FMA is
/// emitted: the intrinsics pin the instruction selection.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: callers must have verified AVX2 support (the `dispatch` gate);
// additionally `data.len()` must be a power of two ≥ 4 with `tw` its
// stage-major twiddle table — both guaranteed by plan construction. All
// pointer arithmetic below is bounded by those shapes.
unsafe fn butterflies_avx2(data: &mut [Complex], tw: &[Complex]) {
    use std::arch::x86_64::*;
    let n = data.len();
    debug_assert!(n >= 4 && n.is_power_of_two());
    let p = data.as_mut_ptr() as *mut f64;
    let twp = tw.as_ptr() as *const f64;

    // Stage m = 1: butterflies on adjacent pairs (a, b) with w = tw[0].
    // Two 2-complex registers are deinterleaved into an `a` vector and a
    // `b` vector, processed, and reinterleaved — the arithmetic per lane
    // matches the generic scalar butterfly with w = tw[0] exactly.
    // SAFETY: `i + 4 <= n` bounds all loads/stores; `Complex` is
    // `repr(C)` so the f64 view sees [re, im] pairs.
    unsafe {
        let w_re = _mm256_set1_pd(tw[0].re);
        let w_im = _mm256_set1_pd(tw[0].im);
        let mut i = 0usize;
        while i + 4 <= n {
            let v_lo = _mm256_loadu_pd(p.add(2 * i)); // a0 b0
            let v_hi = _mm256_loadu_pd(p.add(2 * i + 4)); // a1 b1
            let a = _mm256_permute2f128_pd(v_lo, v_hi, 0x20); // a0 a1
            let b = _mm256_permute2f128_pd(v_lo, v_hi, 0x31); // b0 b1
                                                              // b·w via mul/addsub (see the bit-identity argument above).
            let b_swap = _mm256_permute_pd(b, 0b0101);
            let bw = _mm256_addsub_pd(_mm256_mul_pd(b, w_re), _mm256_mul_pd(b_swap, w_im));
            let s = _mm256_add_pd(a, bw);
            let d = _mm256_sub_pd(a, bw);
            _mm256_storeu_pd(p.add(2 * i), _mm256_permute2f128_pd(s, d, 0x20));
            _mm256_storeu_pd(p.add(2 * i + 4), _mm256_permute2f128_pd(s, d, 0x31));
            i += 4;
        }
    }

    // Stages m ≥ 2: lanes j and j+1 live in one register already.
    let mut m = 2usize;
    let mut tw_base = 1usize;
    while m < n {
        let step = m << 1;
        let mut start = 0usize;
        while start < n {
            let mut j = 0usize;
            while j + 2 <= m {
                // SAFETY: `j + 2 <= m` keeps the twiddle load inside this
                // stage's table block and both data loads/stores inside
                // the current butterfly group (`start + j + m + 2 <=
                // start + step <= n`).
                unsafe {
                    let w = _mm256_loadu_pd(twp.add(2 * (tw_base + j))); // w0 w1
                    let a = _mm256_loadu_pd(p.add(2 * (start + j)));
                    let b = _mm256_loadu_pd(p.add(2 * (start + j + m)));
                    let w_re = _mm256_movedup_pd(w); // w0.re w0.re w1.re w1.re
                    let w_im = _mm256_permute_pd(w, 0b1111); // w0.im w0.im w1.im w1.im
                    let b_swap = _mm256_permute_pd(b, 0b0101);
                    let bw = _mm256_addsub_pd(_mm256_mul_pd(b, w_re), _mm256_mul_pd(b_swap, w_im));
                    _mm256_storeu_pd(p.add(2 * (start + j)), _mm256_add_pd(a, bw));
                    _mm256_storeu_pd(p.add(2 * (start + j + m)), _mm256_sub_pd(a, bw));
                }
                j += 2;
            }
            start += step;
        }
        tw_base += m;
        m = step;
    }
}

/// Reference O(n²) DFT used by the test-suite as ground truth.
///
/// Exposed publicly so downstream crates can sanity-check their own
/// frequency-domain constructions in tests; do not use it on large inputs.
/// Allocates a fresh output per call — fuzz and property loops should
/// prefer [`naive_dft_into`] with a reused buffer.
pub fn naive_dft(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; input.len()];
    naive_dft_into(input, dir, &mut out);
    out
}

/// [`naive_dft`] into a caller-owned buffer, so tight reference loops
/// (fuzzers, property tests) stop allocating per transform.
///
/// # Panics
///
/// Panics if `out.len() != input.len()` — this is test-support code, a
/// typed error would only obscure the broken harness.
pub fn naive_dft_into(input: &[Complex], dir: Direction, out: &mut [Complex]) {
    let n = input.len();
    assert_eq!(out.len(), n, "output buffer length must match the input");
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let phase = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            acc += x * Complex::cis(phase);
        }
        *slot = if matches!(dir, Direction::Inverse) {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "mismatch at {i}: {x:?} vs {y:?}");
        }
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(Fft::new(0), Err(FftError::LengthNotPowerOfTwo(0))));
        assert!(matches!(Fft::new(3), Err(FftError::LengthNotPowerOfTwo(3))));
        assert!(matches!(
            Fft::new(12),
            Err(FftError::LengthNotPowerOfTwo(12))
        ));
        assert!(Fft::new(16).is_ok());
    }

    #[test]
    fn rejects_wrong_buffer_length() {
        let fft = Fft::new(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        assert!(matches!(
            fft.forward(&mut buf),
            Err(FftError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn matches_naive_dft_for_all_small_sizes() {
        for log2 in 0..=9 {
            let n = 1usize << log2;
            let input = ramp(n);
            let expected = naive_dft(&input, Direction::Forward);
            let mut got = input.clone();
            Fft::new(n).unwrap().forward(&mut got).unwrap();
            assert_close(&got, &expected, 1e-8 * n as f64);
        }
    }

    #[test]
    fn inverse_matches_naive_inverse() {
        let n = 64;
        let input = ramp(n);
        let expected = naive_dft(&input, Direction::Inverse);
        let mut got = input.clone();
        Fft::new(n).unwrap().inverse(&mut got).unwrap();
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn roundtrip_recovers_input() {
        let n = 256;
        let input = ramp(n);
        let mut buf = input.clone();
        let fft = Fft::new(n).unwrap();
        fft.forward(&mut buf).unwrap();
        fft.inverse(&mut buf).unwrap();
        assert_close(&buf, &input, 1e-10);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let n = 32;
        let mut buf = vec![Complex::ZERO; n];
        buf[0] = Complex::ONE;
        Fft::new(n).unwrap().forward(&mut buf).unwrap();
        for z in &buf {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_concentrates_at_dc() {
        let n = 32;
        let mut buf = vec![Complex::from_re(2.0); n];
        Fft::new(n).unwrap().forward(&mut buf).unwrap();
        assert!((buf[0].re - 2.0 * n as f64).abs() < 1e-10);
        for z in buf.iter().skip(1) {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn shift_theorem() {
        // Shifting the input by s multiplies bin k by e^{-2πiks/N}.
        let n = 64;
        let input = ramp(n);
        let s = 5usize;
        let shifted: Vec<Complex> = (0..n).map(|i| input[(i + n - s) % n]).collect();
        let fft = Fft::new(n).unwrap();
        let mut a = input.clone();
        fft.forward(&mut a).unwrap();
        let mut b = shifted;
        fft.forward(&mut b).unwrap();
        for k in 0..n {
            let phase = Complex::cis(-2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64);
            assert!((a[k] * phase - b[k]).abs() < 1e-8);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let input = ramp(n);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = input;
        Fft::new(n).unwrap().forward(&mut freq).unwrap();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a = ramp(n);
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.3))
            .collect();
        let fft = Fft::new(n).unwrap();
        let alpha = Complex::new(1.5, -0.5);

        let mut lhs: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| alpha * x + y).collect();
        fft.forward(&mut lhs).unwrap();

        let mut fa = a.clone();
        fft.forward(&mut fa).unwrap();
        let mut fb = b.clone();
        fft.forward(&mut fb).unwrap();
        for k in 0..n {
            let rhs = alpha * fa[k] + fb[k];
            assert!((lhs[k] - rhs).abs() < 1e-8);
        }
    }

    #[test]
    fn avx2_butterflies_bit_identical_to_scalar() {
        // The dispatcher's contract: the SIMD ladder must reproduce the
        // scalar reference bit for bit, in both directions, at every size
        // the litho stack uses (and the small ones where the m=1 stage
        // dominates). When AVX2 is unavailable this degenerates to
        // scalar-vs-scalar, which still pins the shared butterfly body.
        for log2 in 2..=9 {
            let n = 1usize << log2;
            let plan = Fft::new(n).unwrap();
            for dir in [Direction::Forward, Direction::Inverse] {
                let tw = match dir {
                    Direction::Forward => &plan.twiddles,
                    Direction::Inverse => &plan.twiddles_inv,
                };
                let mut simd = ramp(n);
                plan.dispatch(&mut simd, dir);
                // dispatch() also bit-reverses; apply the same permutation
                // to the scalar ladder's input for a like-for-like run.
                let mut scalar_in = ramp(n);
                for i in 0..n {
                    let j = plan.bit_rev[i] as usize;
                    if i < j {
                        scalar_in.swap(i, j);
                    }
                }
                butterflies_scalar(&mut scalar_in, tw);
                for i in 0..n {
                    assert_eq!(
                        simd[i].re.to_bits(),
                        scalar_in[i].re.to_bits(),
                        "n={n} {dir:?} i={i}"
                    );
                    assert_eq!(
                        simd[i].im.to_bits(),
                        scalar_in[i].im.to_bits(),
                        "n={n} {dir:?} i={i}"
                    );
                }
            }
        }
    }

    /// Varied values with both signs in both parts, distinct per index.
    fn grid(len: usize) -> Vec<Complex> {
        (0..len)
            .map(|i| {
                let x = i as f64;
                Complex::new((x * 0.731).sin() * 3.0 - 0.4, (x * 0.277).cos() + 0.1)
            })
            .collect()
    }

    fn assert_bits(got: Complex, want: Complex, what: &str) {
        assert_eq!(
            got.re.to_bits(),
            want.re.to_bits(),
            "{what}: {got:?} vs {want:?}"
        );
        assert_eq!(
            got.im.to_bits(),
            want.im.to_bits(),
            "{what}: {got:?} vs {want:?}"
        );
    }

    #[test]
    fn column_pass_matches_gathered_1d_transforms_bit_for_bit() {
        // Reference: each column gathered into a buffer and run through
        // the 1-D plan. Columns outside the range must come back
        // untouched.
        let mut col = Vec::new();
        for log_h in 0..=7 {
            for log_w in 0..=7 {
                let (h, w) = (1usize << log_h, 1usize << log_w);
                let plan = Fft::new(h).unwrap();
                let input = grid(h * w);
                // Full width, first and last single columns, odd widths
                // (a one-column tail after the AVX2 pairs), and a
                // three-column run off the start.
                let ranges = [
                    0..w,
                    0..1,
                    w - 1..w,
                    1.min(w - 1)..w,
                    w / 3..(w / 3 + 3).min(w),
                ];
                for dir in [Direction::Forward, Direction::Inverse] {
                    for cols in &ranges {
                        let mut got = input.clone();
                        plan.transform_columns(ColumnBlockMut::new(&mut got, w, cols.clone()), dir);
                        for c in 0..w {
                            col.clear();
                            col.extend((0..h).map(|r| input[r * w + c]));
                            if cols.contains(&c) {
                                plan.transform(&mut col, dir).unwrap();
                            }
                            for r in 0..h {
                                let what = format!("{h}x{w} {dir:?} cols {cols:?} ({r},{c})");
                                assert_bits(got[r * w + c], col[r], &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "column length must match the plan")]
    fn column_pass_rejects_a_block_of_the_wrong_height() {
        let mut data = grid(8 * 4);
        Fft::new(4)
            .unwrap()
            .transform_columns(ColumnBlockMut::new(&mut data, 4, 0..4), Direction::Forward);
    }

    #[test]
    fn avx2_row_butterfly_bit_identical_to_scalar() {
        // Every segment length up to a few AVX2 pairs (odd ones leave the
        // scalar tail), against twiddles from real plans. Without AVX2
        // the dispatcher stands in, which runs the scalar path itself.
        let twiddles = Fft::new(64).unwrap().twiddles;
        for len in 0..=9 {
            for w in twiddles.iter().step_by(7).copied() {
                let (a0, b0) = (grid(len), grid(len + 11)[11..].to_vec());
                let (mut a_fast, mut b_fast) = (a0.clone(), b0.clone());
                #[cfg(target_arch = "x86_64")]
                if crate::simd::avx2_available() {
                    // SAFETY: AVX2 was detected at runtime.
                    #[allow(unsafe_code)]
                    unsafe {
                        butterfly_rows_avx2(&mut a_fast, &mut b_fast, w)
                    };
                } else {
                    butterfly_rows(&mut a_fast, &mut b_fast, w);
                }
                #[cfg(not(target_arch = "x86_64"))]
                butterfly_rows(&mut a_fast, &mut b_fast, w);
                let (mut a_slow, mut b_slow) = (a0, b0);
                butterfly_rows_scalar(&mut a_slow, &mut b_slow, w);
                for i in 0..len {
                    assert_bits(a_fast[i], a_slow[i], &format!("len {len} a[{i}]"));
                    assert_bits(b_fast[i], b_slow[i], &format!("len {len} b[{i}]"));
                }
            }
        }
    }

    #[test]
    fn inverse_twiddle_table_is_exact_conjugate() {
        let plan = Fft::new(64).unwrap();
        for (w, wi) in plan.twiddles.iter().zip(plan.twiddles_inv.iter()) {
            assert_eq!(w.re.to_bits(), wi.re.to_bits());
            assert_eq!(w.conj().im.to_bits(), wi.im.to_bits());
        }
    }

    #[test]
    fn naive_dft_into_matches_allocating_variant() {
        let input = ramp(16);
        let mut out = vec![Complex::ZERO; 16];
        for dir in [Direction::Forward, Direction::Inverse] {
            naive_dft_into(&input, dir, &mut out);
            let fresh = naive_dft(&input, dir);
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer length")]
    fn naive_dft_into_rejects_wrong_length() {
        let input = ramp(8);
        let mut out = vec![Complex::ZERO; 4];
        naive_dft_into(&input, Direction::Forward, &mut out);
    }

    #[test]
    fn length_one_is_identity() {
        let fft = Fft::new(1).unwrap();
        let mut buf = vec![Complex::new(3.0, -2.0)];
        fft.forward(&mut buf).unwrap();
        assert_eq!(buf[0], Complex::new(3.0, -2.0));
        fft.inverse(&mut buf).unwrap();
        assert_eq!(buf[0], Complex::new(3.0, -2.0));
    }
}
