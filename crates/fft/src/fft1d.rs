//! One-dimensional radix-2 Cooley–Tukey FFT.
//!
//! The plan precomputes the bit-reversal permutation and the twiddle
//! factors for every butterfly stage so repeated transforms of the same
//! length (the common case: one plan per grid edge, thousands of row and
//! column transforms) pay no trigonometry at run time.
//!
//! [`butterflies_scalar`] defines the arithmetic: after the bit-reversal
//! (kept as its list of transpositions, so applying it tests no index),
//! stage `m = 1, 2, 4, …, n/2` replaces each pair `(a, b)` at distance
//! `m` by `(a + b·w, a − b·w)`, and the inverse multiplies each result of
//! the last stage by `1/n` as it stores it, with no separate scaling
//! loop. The AVX2 bodies run the stages two per memory pass: stages `m`
//! and `2m` over each quadruple `j, j+m, j+2m, j+3m` of elements (1-D)
//! or rows (column pass), held in registers between the two, with one
//! stage on its own where the count is odd. Every element still goes
//! through exactly the operations of the scalar ladder, in the same
//! order, so the transforms are bit-identical to it by construction; the
//! unit tests pin both the 1-D transform and the in-place column pass to
//! it bit for bit.

use crate::complex::Complex;
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
    /// The bit-reversal permutation as its transpositions `(i, j)`,
    /// `i < j`, where `j` is `i` with its `log2 n` bits reversed. Walking
    /// the list swaps without testing every index.
    swaps: Arc<[(u32, u32)]>,
    /// Forward twiddles laid out stage-major: for each stage `s`
    /// (half-size `m = 2^s`), `m` factors `e^{-iπ j/m}`, `j = 0..m`, so
    /// stage `m`'s run starts at index `m − 1`.
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
        let bits = n.trailing_zeros();
        let swaps: Vec<(u32, u32)> = (0..n)
            .map(|i| i as u32)
            .filter_map(|i| {
                let j = i.reverse_bits().checked_shr(32 - bits).unwrap_or(0);
                (i < j).then_some((i, j))
            })
            .collect();
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
            swaps: swaps.into(),
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

    /// The stage-major twiddle table for `dir` (the inverse table is the
    /// conjugated copy — bit-identical to conjugating per butterfly) and
    /// the factor the last stage multiplies into its results: `1/n` for
    /// the inverse, none for the forward transform.
    fn ladder_args(&self, dir: Direction) -> (&[Complex], Option<f64>) {
        match dir {
            Direction::Forward => (&self.twiddles, None),
            Direction::Inverse => (&self.twiddles_inv, Some(1.0 / self.n as f64)),
        }
    }

    /// A length-1 transform is the identity, and the inverse's `1/1`
    /// scale leaves every non-NaN value unchanged, so `n = 1` returns at
    /// once.
    fn dispatch(&self, data: &mut [Complex], dir: Direction) {
        if self.n == 1 {
            return;
        }
        for &(i, j) in self.swaps.iter() {
            data.swap(i as usize, j as usize);
        }
        let (tw, scale) = self.ladder_args(dir);
        #[cfg(target_arch = "x86_64")]
        {
            if self.n >= 4 && crate::simd::avx2_available() {
                // SAFETY: AVX2 was detected at runtime — the only
                // precondition of the target_feature function below.
                #[allow(unsafe_code)]
                unsafe {
                    avx2::ladder(data, tw, scale);
                }
                return;
            }
        }
        butterflies_scalar(data, tw, scale);
    }

    /// In-place transform of every column of `block`, which must have
    /// `self.len()` rows: the column pass of a 2-D transform, run where
    /// the columns already lie instead of on a transposed copy.
    ///
    /// The plan's bit-reversal becomes swaps of row segments, and each
    /// radix-2 butterfly of [`butterflies_scalar`] becomes one butterfly
    /// over a pair of row segments under one broadcast twiddle, the
    /// inverse's `1/n` multiplied into the last stage's results. The AVX2
    /// body runs two stages per pass over row quadruples. Every element
    /// therefore goes through exactly the operations the 1-D transform of
    /// its gathered column applies to it, in the same order, and each
    /// column comes out bit-identical to that transform.
    ///
    /// # Panics
    ///
    /// Panics if `block.rows() != self.len()`.
    pub(crate) fn transform_columns(&self, mut block: ColumnBlockMut<'_, Complex>, dir: Direction) {
        let n = self.n;
        assert_eq!(block.rows(), n, "column length must match the plan");
        if n == 1 {
            return;
        }
        for &(i, j) in self.swaps.iter() {
            let (a, b) = block.row_pair_mut(i as usize, j as usize);
            a.swap_with_slice(b);
        }
        let (tw, scale) = self.ladder_args(dir);
        #[cfg(target_arch = "x86_64")]
        {
            if crate::simd::avx2_available() {
                // SAFETY: AVX2 was detected at runtime — the only
                // precondition of the target_feature function below.
                #[allow(unsafe_code)]
                unsafe {
                    avx2::column_ladder(&mut block, tw, scale);
                }
                return;
            }
        }
        column_ladder_scalar(&mut block, tw, scale);
    }
}

/// Columns `c0..c1` of a row-major buffer, seen as one mutable row
/// segment per row — the strided view the in-place FFT column pass works
/// on.
///
/// A view owns its segments exclusively: [`ColumnBlockMut::new`] borrows
/// the whole buffer for the view's lifetime.
pub(crate) struct ColumnBlockMut<'a, T> {
    /// Element `(0, c0)`.
    ptr: *mut T,
    /// Row stride of the underlying buffer.
    width: usize,
    rows: usize,
    /// Segment length `c1 − c0`.
    cols: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T> ColumnBlockMut<'a, T> {
    /// Columns `cols` of every row of `data`, a row-major buffer `width`
    /// elements wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or does not divide `data.len()`, or if
    /// `cols` is not a range inside `0..=width`.
    pub(crate) fn new(data: &'a mut [T], width: usize, cols: std::ops::Range<usize>) -> Self {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "buffer is not a whole number of rows"
        );
        assert!(
            cols.start <= cols.end && cols.end <= width,
            "column range out of bounds"
        );
        ColumnBlockMut {
            ptr: data.as_mut_ptr().wrapping_add(cols.start),
            width,
            rows: data.len() / width,
            cols: cols.end - cols.start,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of rows (segments).
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Row `r`'s segment.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row out of bounds");
        // SAFETY: `r < rows` and `c0 + cols <= width` keep the segment
        // inside the underlying buffer; the view owns its segments
        // exclusively (see the type docs) and `&mut self` keeps this the
        // only live one.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.add(r * self.width), self.cols)
        }
    }

    /// The segments of two distinct rows `i` and `j`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either row is out of bounds.
    pub(crate) fn row_pair_mut(&mut self, i: usize, j: usize) -> (&mut [T], &mut [T]) {
        assert!(
            i != j && i < self.rows && j < self.rows,
            "row pair out of bounds"
        );
        // SAFETY: as in `row_mut`, both segments lie inside the buffer and
        // belong to this view alone. Two distinct rows start `width`
        // elements apart or more, and a segment is at most `width` long,
        // so the two segments do not overlap.
        #[allow(unsafe_code)]
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.ptr.add(i * self.width), self.cols),
                std::slice::from_raw_parts_mut(self.ptr.add(j * self.width), self.cols),
            )
        }
    }

    /// The segments of rows `r`, `r + stride`, `r + 2·stride` and
    /// `r + 3·stride`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or row `r + 3·stride` is out of bounds.
    pub(crate) fn row_quad_mut(&mut self, r: usize, stride: usize) -> [&mut [T]; 4] {
        let last = stride.checked_mul(3).and_then(|s| s.checked_add(r));
        assert!(
            stride > 0 && last.is_some_and(|l| l < self.rows),
            "row quad out of bounds"
        );
        let (ptr, width, cols) = (self.ptr, self.width, self.cols);
        // SAFETY: as in `row_pair_mut`: all four rows are below `rows`, so
        // their segments lie inside the buffer and belong to this view
        // alone; a nonzero stride makes the rows distinct, and segments of
        // distinct rows do not overlap.
        #[allow(unsafe_code)]
        [0, 1, 2, 3].map(|q| unsafe {
            std::slice::from_raw_parts_mut(ptr.add((r + q * stride) * width), cols)
        })
    }
}

/// The radix-2 butterfly `(a, b) ← (a + b·w, a − b·w)`, each result then
/// multiplied by `scale` when one is given: the one operation sequence
/// every path of the transform applies to an element pair.
#[inline]
fn butterfly(a: &mut Complex, b: &mut Complex, w: Complex, scale: Option<f64>) {
    let top = *a;
    let bw = *b * w;
    (*a, *b) = (top + bw, top - bw);
    if let Some(s) = scale {
        (*a, *b) = (a.scale(s), b.scale(s));
    }
}

/// Scalar butterfly ladder — the definition of the transform's numerical
/// semantics and the fallback for non-AVX2 targets. `data.len()` must be
/// a power of two and `tw` its stage-major twiddle table (already
/// conjugated for inverse transforms); `scale` multiplies the results of
/// the last stage.
#[inline]
fn butterflies_scalar(data: &mut [Complex], tw: &[Complex], scale: Option<f64>) {
    let n = data.len();
    let mut m = 1usize;
    while m < n {
        let last = 2 * m == n;
        for block in data.chunks_exact_mut(2 * m) {
            let (lo, hi) = block.split_at_mut(m);
            for ((a, b), &w) in lo.iter_mut().zip(hi).zip(&tw[m - 1..]) {
                butterfly(a, b, w, scale.filter(|_| last));
            }
        }
        m <<= 1;
    }
}

/// One butterfly of [`butterflies_scalar`] applied column by column to two
/// row segments under one twiddle `w`.
#[inline]
fn butterfly_rows_scalar(a: &mut [Complex], b: &mut [Complex], w: Complex, scale: Option<f64>) {
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        butterfly(x, y, w, scale);
    }
}

/// Scalar column pass: [`butterflies_scalar`] with each butterfly over a
/// pair of bit-reversed row segments.
fn column_ladder_scalar(
    block: &mut ColumnBlockMut<'_, Complex>,
    tw: &[Complex],
    scale: Option<f64>,
) {
    let n = block.rows();
    let mut m = 1usize;
    while m < n {
        let last = 2 * m == n;
        for start in (0..n).step_by(2 * m) {
            for j in 0..m {
                let (a, b) = block.row_pair_mut(start + j, start + j + m);
                butterfly_rows_scalar(a, b, tw[m - 1 + j], scale.filter(|_| last));
            }
        }
        m <<= 1;
    }
}

/// AVX2 bodies of the 1-D ladder and the column pass, two complex values
/// per register and two radix-2 stages per memory pass.
///
/// # Why these are bit-identical to [`butterflies_scalar`]
///
/// Packed `vmulpd`/`vaddsubpd`/`vaddpd`/`vsubpd` round each lane exactly
/// as their scalar forms do. The twiddle product uses `vmulpd` +
/// `vaddsubpd`: even lanes compute `b.re·w.re − b.im·w.im` and odd lanes
/// `b.im·w.re + b.re·w.im`. The scalar `Complex::mul` computes
/// `b.re·w.im + b.im·w.re` for the imaginary part — the same two
/// correctly rounded products added in the other order, and IEEE-754
/// addition is commutative — so every lane carries the scalar bits. The
/// `a ± b·w` adds and the `1/n` multiply of the last pass are the scalar
/// ladder's own operations, and the 1-D stage 1's deinterleave and
/// reinterleave shuffles (`vperm2f128` moves finished values only) change
/// no bits. Fusing stages `m` and `2m` keeps each element's operations
/// and their order: stage `m` turns the quadruple `x0..x3` at `j, j+m, j+2m, j+3m` into
/// `(y0, y1)` and `(y2, y3)` under `w_m[j]`, then stage `2m` pairs
/// `(y0, y2)` under `w_2m[j]` and `(y1, y3)` under `w_2m[j+m]` — exactly
/// the pairs and twiddles the scalar ladder's stage `2m` gives those
/// positions. The `1/n` multiply follows the last add, as in the scalar
/// ladder; moving it to an earlier pass or ahead of that add would round
/// differently on subnormal values. No FMA is emitted: the
/// intrinsics pin the instruction selection.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{butterfly_rows_scalar, ColumnBlockMut, Complex};
    use std::arch::x86_64::*;

    /// A twiddle in registers: `(re lanes, im lanes)`.
    type Twiddle = (__m256d, __m256d);

    /// `w` broadcast to every lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(w: Complex) -> Twiddle {
        (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im))
    }

    /// The two twiddles `w[j]`, `w[j + 1]`, one per complex lane.
    ///
    /// # Panics
    ///
    /// Panics unless `j + 2 <= w.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn twiddle_pair(w: &[Complex], j: usize) -> Twiddle {
        let pair = &w[j..j + 2];
        // SAFETY: `pair` is two `repr(C)` complexes, four contiguous f64.
        #[allow(unsafe_code)]
        let v = unsafe { _mm256_loadu_pd(pair.as_ptr() as *const f64) };
        (_mm256_movedup_pd(v), _mm256_permute_pd(v, 0b1111))
    }

    /// `(a + b·w, a − b·w)` on two complex lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn butterfly(a: __m256d, b: __m256d, (w_re, w_im): Twiddle) -> (__m256d, __m256d) {
        let b_swap = _mm256_permute_pd(b, 0b0101);
        let bw = _mm256_addsub_pd(_mm256_mul_pd(b, w_re), _mm256_mul_pd(b_swap, w_im));
        (_mm256_add_pd(a, bw), _mm256_sub_pd(a, bw))
    }

    /// Stages `m` and `2m` on the quadruple `x` at `j, j+m, j+2m, j+3m`:
    /// `w` holds `w_m[j]`, `w_2m[j]` and `w_2m[j+m]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn stage_pair([x0, x1, x2, x3]: [__m256d; 4], w: [Twiddle; 3]) -> [__m256d; 4] {
        let (y0, y1) = butterfly(x0, x1, w[0]);
        let (y2, y3) = butterfly(x2, x3, w[0]);
        let (z0, z2) = butterfly(y0, y2, w[1]);
        let (z1, z3) = butterfly(y1, y3, w[2]);
        [z0, z1, z2, z3]
    }

    /// `v · s` in the last pass of an inverse (`SCALED`), `v` otherwise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn finish<const SCALED: bool>(v: __m256d, s: __m256d) -> __m256d {
        if SCALED {
            _mm256_mul_pd(v, s)
        } else {
            v
        }
    }

    /// The 1-D ladder on bit-reversed `data`: stage 1, then stages
    /// `(2, 4), (8, 16), …` in pairs, then a single stage `n/2` when the
    /// count after stage 1 is odd. `scale` multiplies the last pass's
    /// results.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a power of two `≥ 4` and `tw` holds
    /// its `n − 1` stage-major twiddles.
    #[target_feature(enable = "avx2")]
    pub(super) fn ladder(data: &mut [Complex], tw: &[Complex], scale: Option<f64>) {
        let n = data.len();
        assert!(
            n >= 4 && n.is_power_of_two() && tw.len() + 1 == n,
            "ladder needs a power-of-two length ≥ 4 and its twiddle table"
        );
        first_stage(data, tw[0]);
        let s = _mm256_set1_pd(scale.unwrap_or(1.0));
        let mut m = 2;
        while 4 * m < n {
            pair_pass::<false>(data, tw, m, s);
            m *= 4;
        }
        match (n / m, scale.is_some()) {
            (4, true) => pair_pass::<true>(data, tw, m, s),
            (4, false) => pair_pass::<false>(data, tw, m, s),
            (_, true) => single_pass::<true>(data, tw, m, s),
            (_, false) => single_pass::<false>(data, tw, m, s),
        }
    }

    /// Stage 1: butterflies on adjacent pairs under `w = tw[0]`. Two
    /// 2-complex registers are deinterleaved into an `a` vector and a `b`
    /// vector, processed, and reinterleaved. Stage 1 is never the last
    /// stage here (`n ≥ 4`), so it never scales.
    #[target_feature(enable = "avx2")]
    fn first_stage(data: &mut [Complex], w: Complex) {
        let w = splat(w);
        for quad in data.chunks_exact_mut(4) {
            let p = quad.as_mut_ptr() as *mut f64;
            // SAFETY: `quad` is four `repr(C)` complexes, eight contiguous
            // f64, which bounds both loads and both stores.
            #[allow(unsafe_code)]
            unsafe {
                let (lo, hi) = (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))); // a0 b0, a1 b1
                let (s, d) = butterfly(
                    _mm256_permute2f128_pd(lo, hi, 0x20), // a0 a1
                    _mm256_permute2f128_pd(lo, hi, 0x31), // b0 b1
                    w,
                );
                _mm256_storeu_pd(p, _mm256_permute2f128_pd(s, d, 0x20));
                _mm256_storeu_pd(p.add(4), _mm256_permute2f128_pd(s, d, 0x31));
            }
        }
    }

    /// Stages `m` and `2m` (`m ≥ 2`) in one pass: lanes `j, j+1` of the
    /// quadruple `j, j+m, j+2m, j+3m` of every block of `4m` elements go
    /// through [`stage_pair`], under twiddles loaded once per `j`.
    #[target_feature(enable = "avx2")]
    fn pair_pass<const SCALED: bool>(data: &mut [Complex], tw: &[Complex], m: usize, s: __m256d) {
        let n = data.len();
        let (w_m, w_2m) = (&tw[m - 1..2 * m - 1], &tw[2 * m - 1..4 * m - 1]);
        let p = data.as_mut_ptr() as *mut f64;
        let mut j = 0;
        while j + 2 <= m {
            let w = [
                twiddle_pair(w_m, j),
                twiddle_pair(w_2m, j),
                twiddle_pair(w_2m, j + m),
            ];
            let mut i = j;
            while i + 3 * m + 2 <= n {
                // SAFETY: `i + 3m + 2 <= n = data.len()` bounds the
                // two-complex loads and stores at `i`, `i + m`, `i + 2m`
                // and `i + 3m`; `Complex` is `repr(C)`, so the f64 view
                // sees [re, im] pairs.
                #[allow(unsafe_code)]
                unsafe {
                    let at = [i, i + m, i + 2 * m, i + 3 * m].map(|k| p.add(2 * k));
                    let x = [
                        _mm256_loadu_pd(at[0]),
                        _mm256_loadu_pd(at[1]),
                        _mm256_loadu_pd(at[2]),
                        _mm256_loadu_pd(at[3]),
                    ];
                    let [z0, z1, z2, z3] = stage_pair(x, w);
                    _mm256_storeu_pd(at[0], finish::<SCALED>(z0, s));
                    _mm256_storeu_pd(at[1], finish::<SCALED>(z1, s));
                    _mm256_storeu_pd(at[2], finish::<SCALED>(z2, s));
                    _mm256_storeu_pd(at[3], finish::<SCALED>(z3, s));
                }
                i += 4 * m;
            }
            j += 2;
        }
    }

    /// The last stage `m = n/2` on its own, when `log2 n` is even.
    #[target_feature(enable = "avx2")]
    fn single_pass<const SCALED: bool>(data: &mut [Complex], tw: &[Complex], m: usize, s: __m256d) {
        let w_m = &tw[m - 1..2 * m - 1];
        let (lo, hi) = data.split_at_mut(m);
        let (pa, pb) = (lo.as_mut_ptr() as *mut f64, hi.as_mut_ptr() as *mut f64);
        let len = lo.len().min(hi.len());
        let mut j = 0;
        while j + 2 <= len {
            let w = twiddle_pair(w_m, j);
            // SAFETY: `j + 2 <= len`, the shorter half's length, bounds
            // both two-complex loads and stores.
            #[allow(unsafe_code)]
            unsafe {
                let (a, b) = butterfly(
                    _mm256_loadu_pd(pa.add(2 * j)),
                    _mm256_loadu_pd(pb.add(2 * j)),
                    w,
                );
                _mm256_storeu_pd(pa.add(2 * j), finish::<SCALED>(a, s));
                _mm256_storeu_pd(pb.add(2 * j), finish::<SCALED>(b, s));
            }
            j += 2;
        }
    }

    /// The column pass on `block`'s bit-reversed rows: stages `(1, 2),
    /// (4, 8), …` in pairs over row quadruples, then a single stage `n/2`
    /// when `log2 n` is odd. `scale` multiplies the last pass's results.
    /// `block` must have at least two rows.
    ///
    /// Unlike the 1-D ladder's stage 1, which pairs neighbours inside one
    /// register, stage 1 here is a row-pair stage like any other, so it
    /// pairs with stage 2: where `log2 n` is even that saves a whole pass
    /// over a grid larger than L1.
    #[target_feature(enable = "avx2")]
    pub(super) fn column_ladder(
        block: &mut ColumnBlockMut<'_, Complex>,
        tw: &[Complex],
        scale: Option<f64>,
    ) {
        let n = block.rows();
        debug_assert!(n >= 2 && n.is_power_of_two() && tw.len() + 1 == n);
        let mut m = 1;
        while 4 * m < n {
            column_pair_pass::<false>(block, tw, m, 1.0);
            m *= 4;
        }
        let s = scale.unwrap_or(1.0);
        match (n / m, scale.is_some()) {
            (4, true) => column_pair_pass::<true>(block, tw, m, s),
            (4, false) => column_pair_pass::<false>(block, tw, m, s),
            (_, true) => column_single_pass::<true>(block, tw, m, s),
            (_, false) => column_single_pass::<false>(block, tw, m, s),
        }
    }

    /// Stages `m` and `2m` of the column pass: for each row quadruple
    /// `r, r+m, r+2m, r+3m`, [`quad_rows`] under its three broadcast
    /// twiddles.
    #[target_feature(enable = "avx2")]
    fn column_pair_pass<const SCALED: bool>(
        block: &mut ColumnBlockMut<'_, Complex>,
        tw: &[Complex],
        m: usize,
        scale: f64,
    ) {
        let (w_m, w_2m) = (&tw[m - 1..2 * m - 1], &tw[2 * m - 1..4 * m - 1]);
        for start in (0..block.rows()).step_by(4 * m) {
            for j in 0..m {
                let rows = block.row_quad_mut(start + j, m);
                quad_rows::<SCALED>(rows, [w_m[j], w_2m[j], w_2m[j + m]], scale);
            }
        }
    }

    /// The single last stage of the column pass: row pairs `(j, j + m)`
    /// with `m = n/2`.
    #[target_feature(enable = "avx2")]
    fn column_single_pass<const SCALED: bool>(
        block: &mut ColumnBlockMut<'_, Complex>,
        tw: &[Complex],
        m: usize,
        scale: f64,
    ) {
        for (j, &w) in tw[m - 1..2 * m - 1].iter().enumerate() {
            let (a, b) = block.row_pair_mut(j, j + m);
            pair_rows::<SCALED>(a, b, w, scale);
        }
    }

    /// [`stage_pair`] column by column over four row segments, two
    /// columns per register; an odd last column runs the same four
    /// butterflies through [`butterfly_rows_scalar`].
    #[target_feature(enable = "avx2")]
    fn quad_rows<const SCALED: bool>(mut rows: [&mut [Complex]; 4], w: [Complex; 3], scale: f64) {
        let len = rows.iter().map(|r| r.len()).min().unwrap_or(0);
        let p = rows.each_mut().map(|r| r.as_mut_ptr() as *mut f64);
        let (wv, s) = (
            [splat(w[0]), splat(w[1]), splat(w[2])],
            _mm256_set1_pd(scale),
        );
        let mut i = 0;
        while i + 2 <= len {
            // SAFETY: `i + 2 <= len`, the shortest segment's length,
            // bounds every two-complex load and store; `Complex` is
            // `repr(C)`, so the f64 view sees [re, im] pairs.
            #[allow(unsafe_code)]
            unsafe {
                let x = [
                    _mm256_loadu_pd(p[0].add(2 * i)),
                    _mm256_loadu_pd(p[1].add(2 * i)),
                    _mm256_loadu_pd(p[2].add(2 * i)),
                    _mm256_loadu_pd(p[3].add(2 * i)),
                ];
                let [z0, z1, z2, z3] = stage_pair(x, wv);
                _mm256_storeu_pd(p[0].add(2 * i), finish::<SCALED>(z0, s));
                _mm256_storeu_pd(p[1].add(2 * i), finish::<SCALED>(z1, s));
                _mm256_storeu_pd(p[2].add(2 * i), finish::<SCALED>(z2, s));
                _mm256_storeu_pd(p[3].add(2 * i), finish::<SCALED>(z3, s));
            }
            i += 2;
        }
        if i < len {
            let [r0, r1, r2, r3] = rows;
            let last = SCALED.then_some(scale);
            butterfly_rows_scalar(&mut r0[i..len], &mut r1[i..len], w[0], None);
            butterfly_rows_scalar(&mut r2[i..len], &mut r3[i..len], w[0], None);
            butterfly_rows_scalar(&mut r0[i..len], &mut r2[i..len], w[1], last);
            butterfly_rows_scalar(&mut r1[i..len], &mut r3[i..len], w[2], last);
        }
    }

    /// One butterfly over two row segments under the broadcast twiddle
    /// `w`, two columns per register and an odd last column through
    /// [`butterfly_rows_scalar`].
    #[target_feature(enable = "avx2")]
    fn pair_rows<const SCALED: bool>(a: &mut [Complex], b: &mut [Complex], w: Complex, scale: f64) {
        let len = a.len().min(b.len());
        let (pa, pb) = (a.as_mut_ptr() as *mut f64, b.as_mut_ptr() as *mut f64);
        let (wv, s) = (splat(w), _mm256_set1_pd(scale));
        let mut i = 0;
        while i + 2 <= len {
            // SAFETY: `i + 2 <= len`, the shorter segment's length, bounds
            // both two-complex loads and stores.
            #[allow(unsafe_code)]
            unsafe {
                let (x, y) = butterfly(
                    _mm256_loadu_pd(pa.add(2 * i)),
                    _mm256_loadu_pd(pb.add(2 * i)),
                    wv,
                );
                _mm256_storeu_pd(pa.add(2 * i), finish::<SCALED>(x, s));
                _mm256_storeu_pd(pb.add(2 * i), finish::<SCALED>(y, s));
            }
            i += 2;
        }
        butterfly_rows_scalar(&mut a[i..len], &mut b[i..len], w, SCALED.then_some(scale));
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

    /// Varied values with both signs in both parts, distinct per index,
    /// with `±0` and subnormal entries mixed in.
    fn grid(len: usize) -> Vec<Complex> {
        (0..len)
            .map(|i| {
                let x = i as f64;
                match i % 8 {
                    3 => Complex::new(0.0, -0.0),
                    6 => Complex::new(-f64::MIN_POSITIVE / 3.0, 5e-324 * x),
                    _ => Complex::new((x * 0.731).sin() * 3.0 - 0.4, (x * 0.277).cos() + 0.1),
                }
            })
            .collect()
    }

    /// Subnormal values and `±0` only. Their sums are exact while the
    /// twiddle products and the `1/n` scale round, so a scale moved to
    /// another pass or ahead of an add changes bits here; on normal values
    /// a power-of-two scale is exact and would hide the move.
    fn tiny(len: usize) -> Vec<Complex> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ len as u64;
        let mut part = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Sign and mantissa bits only: a zero exponent field.
            f64::from_bits(state & (1 << 63 | ((1 << 52) - 1)))
        };
        (0..len)
            .map(|i| match i % 11 {
                4 => Complex::new(-0.0, 0.0),
                _ => Complex::new(part(), part()),
            })
            .collect()
    }

    /// The transform as the radix-2 reference defines it: the
    /// bit-reversal, [`butterflies_scalar`] without a scale, then, for the
    /// inverse, a separate `1/n` scaling loop.
    fn reference(plan: &Fft, data: &mut [Complex], dir: Direction) {
        for i in 0..plan.n {
            let j = (i as u32)
                .reverse_bits()
                .checked_shr(32 - plan.n.trailing_zeros());
            let j = j.unwrap_or(0) as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let (tw, scale) = plan.ladder_args(dir);
        butterflies_scalar(data, tw, None);
        if let Some(s) = scale {
            for z in data.iter_mut() {
                *z = z.scale(s);
            }
        }
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
    fn transform_matches_the_radix2_reference_bit_for_bit() {
        // Whichever ladder the dispatcher picks (the fused AVX2 passes
        // from n = 4 up, the scalar one otherwise) must reproduce the
        // reference bit for bit, at every power of two up to 1024.
        for log2 in 0..=10 {
            let n = 1usize << log2;
            let plan = Fft::new(n).unwrap();
            for input in [grid(n), tiny(n)] {
                for dir in [Direction::Forward, Direction::Inverse] {
                    let mut got = input.clone();
                    plan.transform(&mut got, dir).unwrap();
                    let mut want = input.clone();
                    reference(&plan, &mut want, dir);
                    for i in 0..n {
                        assert_bits(got[i], want[i], &format!("n={n} {dir:?} i={i}"));
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_ladder_folds_the_scale_bit_for_bit() {
        // The non-AVX2 fallback multiplies 1/n into its last stage.
        for log2 in 1..=10 {
            let n = 1usize << log2;
            let plan = Fft::new(n).unwrap();
            let (tw, scale) = plan.ladder_args(Direction::Inverse);
            for input in [grid(n), tiny(n)] {
                let mut got = input.clone();
                butterflies_scalar(&mut got, tw, scale);
                let mut want = input;
                butterflies_scalar(&mut want, tw, None);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_bits(*g, w.scale(1.0 / n as f64), &format!("n={n} i={i}"));
                }
            }
        }
    }

    #[test]
    fn column_pass_matches_gathered_1d_transforms_bit_for_bit() {
        // Reference: each column gathered into a buffer and run through
        // the radix-2 reference. Columns outside the range must come back
        // untouched. Heights reach the 512-row columns of the largest
        // grids; widths cover every odd AVX2 tail up to 9 and the powers
        // of two.
        let mut want = Vec::new();
        for log_h in 0..=9 {
            let h = 1usize << log_h;
            let plan = Fft::new(h).unwrap();
            for w in (1..=9).chain([16, 32, 64, 128]) {
                // Full width, first and last single columns, everything
                // but the first column, and a three-column run off the
                // start.
                let ranges = [
                    0..w,
                    0..1,
                    w - 1..w,
                    1.min(w - 1)..w,
                    w / 3..(w / 3 + 3).min(w),
                ];
                for input in [grid(h * w), tiny(h * w)] {
                    for dir in [Direction::Forward, Direction::Inverse] {
                        want.clear();
                        want.extend((0..w).map(|c| {
                            let mut col: Vec<Complex> = (0..h).map(|r| input[r * w + c]).collect();
                            reference(&plan, &mut col, dir);
                            col
                        }));
                        for cols in &ranges {
                            let mut got = input.clone();
                            plan.transform_columns(
                                ColumnBlockMut::new(&mut got, w, cols.clone()),
                                dir,
                            );
                            for c in 0..w {
                                for r in 0..h {
                                    let expect = if cols.contains(&c) {
                                        want[c][r]
                                    } else {
                                        input[r * w + c]
                                    };
                                    let what = format!("{h}x{w} {dir:?} cols {cols:?} ({r},{c})");
                                    assert_bits(got[r * w + c], expect, &what);
                                }
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

    #[test]
    fn column_block_row_pairs_are_the_two_rows() {
        let mut data: Vec<u32> = (0..24).collect();
        let mut block = ColumnBlockMut::new(&mut data, 6, 2..5);
        let (a, b) = block.row_pair_mut(3, 1);
        assert_eq!((&*a, &*b), (&[20, 21, 22][..], &[8, 9, 10][..]));
        a.swap_with_slice(b);
        assert_eq!(block.row_mut(1), &[20, 21, 22]);
        assert_eq!(&data[18..24], &[18, 19, 8, 9, 10, 23]);
    }

    #[test]
    #[should_panic(expected = "row pair out of bounds")]
    fn column_block_rejects_a_repeated_row() {
        let mut data = vec![0u8; 12];
        let mut block = ColumnBlockMut::new(&mut data, 4, 0..4);
        let _ = block.row_pair_mut(1, 1);
    }

    #[test]
    fn column_block_row_quads_are_the_four_strided_rows() {
        let mut data: Vec<u32> = (0..40).collect();
        let mut block = ColumnBlockMut::new(&mut data, 4, 1..3);
        // Ten rows: the quad may reach the last one.
        let [a, b, c, d] = block.row_quad_mut(0, 3);
        assert_eq!(
            [&*a, &*b, &*c, &*d],
            [&[1, 2][..], &[13, 14], &[25, 26], &[37, 38]]
        );
    }

    #[test]
    #[should_panic(expected = "row quad out of bounds")]
    fn column_block_rejects_a_row_quad_past_the_last_row() {
        let mut data = vec![0u8; 40];
        let mut block = ColumnBlockMut::new(&mut data, 4, 0..4);
        let _ = block.row_quad_mut(2, 3);
    }

    #[test]
    #[should_panic(expected = "row quad out of bounds")]
    fn column_block_rejects_a_zero_row_quad_stride() {
        let mut data = vec![0u8; 40];
        let mut block = ColumnBlockMut::new(&mut data, 4, 0..4);
        let _ = block.row_quad_mut(0, 0);
    }

    #[test]
    #[should_panic(expected = "column range out of bounds")]
    fn column_block_rejects_columns_past_the_width() {
        let mut data = vec![0u8; 12];
        let _ = ColumnBlockMut::new(&mut data, 4, 2..5);
    }
}
