//! Two-dimensional FFT on row-major buffers.
//!
//! The 2-D transform is separable: FFT every row, then every column. The
//! column pass runs in place on the row-major data (see
//! `Fft::transform_columns`), so a transform moves no data between
//! layouts and allocates nothing. Every transform runs on the thread that
//! calls it: the lithography model runs whole transforms side by side,
//! one per kernel task, instead of splitting one across workers.

use crate::complex::Complex;
use crate::fft1d::{ColumnBlockMut, Direction, Fft, FftError};

/// A reusable plan for 2-D FFTs of a fixed `height × width` shape.
///
/// Both dimensions must be powers of two. The plan is `Send + Sync` and
/// cheap to clone (the 1-D twiddle tables are shared).
///
/// # Examples
///
/// ```
/// use cfaopc_fft::{Complex, Fft2d};
///
/// # fn main() -> Result<(), cfaopc_fft::FftError> {
/// let plan = Fft2d::new(4, 8)?;
/// let mut img = vec![Complex::ZERO; 4 * 8];
/// img[0] = Complex::ONE;
/// plan.forward(&mut img)?;
/// assert!(img.iter().all(|z| (z.re - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft2d {
    height: usize,
    width: usize,
    row_fft: Fft,
    col_fft: Fft,
}

impl Fft2d {
    /// Builds a plan for `height × width` transforms.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthNotPowerOfTwo`] if either dimension is not
    /// a nonzero power of two.
    pub fn new(height: usize, width: usize) -> Result<Self, FftError> {
        Ok(Fft2d {
            height,
            width,
            row_fft: Fft::new(width)?,
            col_fft: Fft::new(height)?,
        })
    }

    /// Convenience constructor for square transforms.
    ///
    /// # Errors
    ///
    /// Same as [`Fft2d::new`].
    pub fn square(n: usize) -> Result<Self, FftError> {
        Self::new(n, n)
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total element count `height × width`.
    #[inline]
    pub fn len(&self) -> usize {
        self.height * self.width
    }

    /// Returns `true` if the plan covers zero elements (never, by
    /// construction, but provided alongside `len` per convention).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check(&self, data: &[Complex]) -> Result<(), FftError> {
        if data.len() != self.len() {
            return Err(FftError::LengthMismatch {
                expected: self.len(),
                actual: data.len(),
            });
        }
        Ok(())
    }

    /// In-place forward 2-D DFT of a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != height*width`.
    pub fn forward(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.execute_with(data, Direction::Forward)
    }

    /// In-place inverse 2-D DFT (normalized by `1/(height·width)`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != height*width`.
    pub fn inverse(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.execute_with(data, Direction::Inverse)
    }

    /// [`Fft2d::inverse`] specialized for spectra whose support is
    /// confined to a band of rows (e.g. a pupil-filtered SOCS field): the
    /// row pass skips rows that are entirely zero, since their transform
    /// is zero.
    ///
    /// The only conceivable divergence from the unskipped transform is
    /// the *sign* of exact zeros inside skipped rows (a computed zero row
    /// can carry `-0.0` from sign-flipped products); every consumer
    /// squares or accumulates those entries, where the sign of zero is
    /// inert. Nonzero results are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != height*width`.
    pub fn inverse_sparse(&self, data: &mut [Complex]) -> Result<(), FftError> {
        self.check(data)?;
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        for row in data.chunks_mut(self.width) {
            // The scan short-circuits at the first nonzero entry, so dense
            // rows pay a handful of loads and sparse fields skip ~80% of
            // their row transforms.
            if row.iter().any(|z| z.re != 0.0 || z.im != 0.0) {
                self.row_fft.inverse(row)?;
            }
        }
        self.col_fft.transform_columns(
            ColumnBlockMut::new(data, self.width, 0..self.width),
            Direction::Inverse,
        );
        Ok(())
    }

    /// [`Fft2d::inverse`] for consumers that only read a subset of output
    /// **columns**: the column pass transforms only the columns flagged in
    /// `wanted` (indexed by `kx`, length `width`), one maximal run of
    /// consecutive wanted columns at a time.
    ///
    /// Entries in unwanted columns are left **unspecified** (they hold
    /// untransformed row-pass data). Wanted columns are bit-identical to
    /// the dense inverse — each column transform is independent, so
    /// skipping neighbours cannot perturb it. The adjoint litho pass uses
    /// this to evaluate `IFFT(B)` only on the pupil support.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `data.len() != height*width`
    /// or `wanted.len() != width`.
    pub fn inverse_cols(&self, data: &mut [Complex], wanted: &[bool]) -> Result<(), FftError> {
        self.check(data)?;
        if wanted.len() != self.width {
            return Err(FftError::LengthMismatch {
                expected: self.width,
                actual: wanted.len(),
            });
        }
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        for row in data.chunks_mut(self.width) {
            self.row_fft.inverse(row)?;
        }
        let mut c0 = 0;
        for run in wanted.chunk_by(|a, b| a == b) {
            if run[0] {
                self.col_fft.transform_columns(
                    ColumnBlockMut::new(data, self.width, c0..c0 + run.len()),
                    Direction::Inverse,
                );
            }
            c0 += run.len();
        }
        Ok(())
    }

    /// Shared body of [`Fft2d::forward`] and [`Fft2d::inverse`]: every
    /// row, then every column in place.
    fn execute_with(&self, data: &mut [Complex], dir: Direction) -> Result<(), FftError> {
        self.check(data)?;
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        for row in data.chunks_mut(self.width) {
            self.row_fft.transform(row, dir)?;
        }
        self.col_fft
            .transform_columns(ColumnBlockMut::new(data, self.width, 0..self.width), dir);
        Ok(())
    }
}

/// Maps a grid index to its signed centered frequency.
///
/// For an `n`-point DFT, bin `k` represents frequency `k` for `k < n/2`
/// and `k - n` otherwise; multiplied by the sample spacing this yields
/// cycles per unit length.
///
/// # Examples
///
/// ```
/// use cfaopc_fft::signed_freq;
/// assert_eq!(signed_freq(0, 8), 0);
/// assert_eq!(signed_freq(3, 8), 3);
/// assert_eq!(signed_freq(4, 8), -4);
/// assert_eq!(signed_freq(7, 8), -1);
/// ```
pub fn signed_freq(k: usize, n: usize) -> i64 {
    debug_assert!(k < n);
    if k < n / 2 || n <= 1 {
        k as i64
    } else {
        k as i64 - n as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft1d::naive_dft;

    fn naive_dft2(input: &[Complex], h: usize, w: usize, dir: Direction) -> Vec<Complex> {
        // Rows then columns with the reference 1-D DFT.
        let mut rows: Vec<Complex> = Vec::with_capacity(h * w);
        for r in 0..h {
            rows.extend(naive_dft(&input[r * w..(r + 1) * w], dir));
        }
        let mut out = vec![Complex::ZERO; h * w];
        for c in 0..w {
            let col: Vec<Complex> = (0..h).map(|r| rows[r * w + c]).collect();
            let tf = naive_dft(&col, dir);
            for r in 0..h {
                out[r * w + c] = tf[r];
            }
        }
        out
    }

    fn sample(h: usize, w: usize) -> Vec<Complex> {
        (0..h * w)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos() - 0.2))
            .collect()
    }

    #[test]
    fn matches_naive_2d_forward() {
        for (h, w) in [(4, 4), (8, 4), (4, 16), (16, 16)] {
            let input = sample(h, w);
            let expected = naive_dft2(&input, h, w, Direction::Forward);
            let mut got = input.clone();
            Fft2d::new(h, w).unwrap().forward(&mut got).unwrap();
            for (a, b) in got.iter().zip(&expected) {
                assert!((*a - *b).abs() < 1e-8, "{a:?} vs {b:?} ({h}x{w})");
            }
        }
    }

    #[test]
    fn roundtrip_2d() {
        let (h, w) = (32, 64);
        let input = sample(h, w);
        let plan = Fft2d::new(h, w).unwrap();
        let mut buf = input.clone();
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&input) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn dc_of_forward_is_sum() {
        let (h, w) = (8, 8);
        let input = sample(h, w);
        let total: Complex = input.iter().copied().sum();
        let mut buf = input;
        Fft2d::new(h, w).unwrap().forward(&mut buf).unwrap();
        assert!((buf[0] - total).abs() < 1e-9);
    }

    #[test]
    fn convolution_theorem_with_delta() {
        // Convolving with a shifted delta translates the image (cyclically).
        let n = 16;
        let plan = Fft2d::square(n).unwrap();
        let img = sample(n, n);
        let mut kernel = vec![Complex::ZERO; n * n];
        let (dy, dx) = (3usize, 5usize);
        kernel[dy * n + dx] = Complex::ONE;

        let mut fi = img.clone();
        plan.forward(&mut fi).unwrap();
        let mut fk = kernel;
        plan.forward(&mut fk).unwrap();
        let mut prod: Vec<Complex> = fi.iter().zip(&fk).map(|(&a, &b)| a * b).collect();
        plan.inverse(&mut prod).unwrap();

        for y in 0..n {
            for x in 0..n {
                let src = img[((y + n - dy) % n) * n + (x + n - dx) % n];
                assert!((prod[y * n + x] - src).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sparse_inverse_matches_dense_inverse() {
        // A pupil-like field: support confined to a few rows. The sparse
        // row-skipping inverse must agree with the dense inverse —
        // bit-identically on nonzero entries, up to the sign of zero on
        // exact zeros.
        let n = 32;
        let plan = Fft2d::square(n).unwrap();
        let mut field = vec![Complex::ZERO; n * n];
        for ky in [0usize, 1, 2, 30, 31] {
            for kx in 0..n {
                field[ky * n + kx] = Complex::new((kx as f64 * 0.3).sin(), kx as f64 * 0.01 - 0.1);
            }
        }
        let mut dense = field.clone();
        plan.inverse(&mut dense).unwrap();
        let mut sparse = field;
        plan.inverse_sparse(&mut sparse).unwrap();
        for i in 0..n * n {
            let (a, b) = (sparse[i], dense[i]);
            let same_re = a.re.to_bits() == b.re.to_bits() || (a.re == 0.0 && b.re == 0.0);
            let same_im = a.im.to_bits() == b.im.to_bits() || (a.im == 0.0 && b.im == 0.0);
            assert!(same_re && same_im, "pixel {i}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn sparse_inverse_of_dense_field_is_exact() {
        // No zero rows at all: the sparse path must degenerate to the
        // dense inverse bit for bit.
        let (h, w) = (16, 8);
        let field = sample(h, w);
        let plan = Fft2d::new(h, w).unwrap();
        let mut dense = field.clone();
        plan.inverse(&mut dense).unwrap();
        let mut sparse = field;
        plan.inverse_sparse(&mut sparse).unwrap();
        for i in 0..h * w {
            assert_eq!(sparse[i].re.to_bits(), dense[i].re.to_bits(), "pixel {i}");
            assert_eq!(sparse[i].im.to_bits(), dense[i].im.to_bits(), "pixel {i}");
        }
    }

    #[test]
    fn column_sampled_inverse_matches_dense_on_wanted_columns() {
        let (h, w) = (16, 32);
        let field = sample(h, w);
        let plan = Fft2d::new(h, w).unwrap();
        let mut dense = field.clone();
        plan.inverse(&mut dense).unwrap();
        // A pupil-like column mask: low and high (wrapped) frequencies.
        let wanted: Vec<bool> = (0..w).map(|kx| kx < 5 || kx >= w - 4).collect();
        let mut sampled = field;
        plan.inverse_cols(&mut sampled, &wanted).unwrap();
        for ky in 0..h {
            for (kx, &keep) in wanted.iter().enumerate() {
                if keep {
                    let (a, b) = (sampled[ky * w + kx], dense[ky * w + kx]);
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "({ky},{kx})");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "({ky},{kx})");
                }
            }
        }
    }

    #[test]
    fn column_sampled_inverse_rejects_wrong_mask_length() {
        let plan = Fft2d::new(8, 8).unwrap();
        let mut buf = vec![Complex::ZERO; 64];
        assert!(plan.inverse_cols(&mut buf, &[true; 7]).is_err());
    }

    #[test]
    fn rejects_wrong_size_buffer() {
        let plan = Fft2d::new(8, 8).unwrap();
        let mut buf = vec![Complex::ZERO; 63];
        assert!(plan.forward(&mut buf).is_err());
    }

    #[test]
    fn signed_freq_covers_edges() {
        assert_eq!(signed_freq(0, 1), 0);
        assert_eq!(signed_freq(1, 2), -1);
        let n = 16;
        let freqs: Vec<i64> = (0..n).map(|k| signed_freq(k, n)).collect();
        assert_eq!(*freqs.iter().min().unwrap(), -(n as i64) / 2);
        assert_eq!(*freqs.iter().max().unwrap(), n as i64 / 2 - 1);
    }
}
