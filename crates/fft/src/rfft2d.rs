//! Real-input 2-D FFT exploiting Hermitian symmetry.
//!
//! Masks are real, so their spectra obey `S(ky, kx) = conj(S(−ky, −kx))`
//! (indices mod grid). [`Rfft2d`] uses that twice:
//!
//! * **Row pass** — two real rows are packed as the real and imaginary
//!   parts of one complex row (`Z = r₀ + i·r₁`), transformed once, and
//!   unpacked via `F₀(k) = (Z(k) + conj(Z(−k)))/2`,
//!   `F₁(k) = (Z(k) − conj(Z(−k)))/(2i)` — halving the row transforms.
//! * **Column pass** — only the `w/2 + 1` non-redundant columns are
//!   transformed, in place on the row-major output; the remaining half of
//!   the spectrum is filled by the 2-D symmetry relation — halving the
//!   column transforms.
//!
//! [`Rfft2d::forward_re_into`] runs the mirrored trick for the gradient's
//! final `Re[FFT(·)]` step: the input is first projected onto its
//! Hermitian part (which leaves the real part of the transform unchanged,
//! since the anti-Hermitian remainder transforms to a purely imaginary
//! field), written row-major into a half-width scratch whose columns are
//! transformed in place, and two real output rows are then recovered from
//! each packed complex row transform.
//!
//! [`Rfft2d::forward_into`] and [`Rfft2d::forward_re_into`] take the full
//! complex spectrum in the row-major grid layout. Consumers whose spectra
//! live in a band of low frequencies, `|f| ≤ band` along the columns, use
//! the band variants instead: [`Rfft2d::forward_band_into`] transforms
//! only the band's columns, and [`Rfft2d::forward_re_band_into`] skips the
//! column transforms of the zero columns outside it. Their spectra are
//! **band-packed**: `height` rows of `m = min(2·band + 1, width)` columns,
//! column `f mod m` holding signed column frequency `f`, in a fraction of
//! the full grid's memory. The band alone fixes the layout: once it covers
//! every column (`m = width`), the packed layout is the full one.
//!
//! Every transform runs on the thread that calls it, as every [`Fft2d`]
//! transform does; the lithography model runs whole transforms side by
//! side in its per-stack tasks instead of splitting one across workers.

use crate::complex::Complex;
use crate::fft1d::{ColumnBlockMut, Direction, Fft, FftError};
use crate::fft2d::Fft2d;
use crate::workspace::BufferPool;

/// A reusable real-input 2-D FFT plan for a fixed `height × width` shape.
///
/// Both dimensions must be powers of two. The plan is `Send + Sync` and
/// cheap to clone; clones share the scratch pools.
///
/// # Examples
///
/// ```
/// use cfaopc_fft::{Complex, Fft2d, Rfft2d};
///
/// # fn main() -> Result<(), cfaopc_fft::FftError> {
/// let n = 8;
/// let img: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.3).sin()).collect();
/// let rplan = Rfft2d::square(n)?;
/// let mut spectrum = vec![Complex::ZERO; n * n];
/// rplan.forward_into(&img, &mut spectrum)?;
///
/// // Same spectrum as the complex plan applied to the real image.
/// let mut full: Vec<Complex> = img.iter().map(|&v| Complex::from_re(v)).collect();
/// Fft2d::square(n)?.forward(&mut full)?;
/// for (a, b) in spectrum.iter().zip(&full) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Rfft2d {
    height: usize,
    width: usize,
    row_fft: Fft,
    col_fft: Fft,
    /// Recycled packed-row buffers (`width` entries each).
    row_scratch: BufferPool<Complex>,
    /// Recycled row-major half-width scratch (`h · (w/2 + 1)` entries)
    /// for [`Rfft2d::forward_re_into`]'s column pass. Kept separate from
    /// the row pool so neither pool thrashes between buffer shapes.
    half_scratch: BufferPool<Complex>,
    /// Full complex plan for degenerate shapes (an edge shorter than 2
    /// rows leaves nothing to pack) — never used on production grids.
    fallback: Fft2d,
}

impl Rfft2d {
    /// Builds a plan for `height × width` real-input transforms.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthNotPowerOfTwo`] if either dimension is
    /// not a nonzero power of two.
    pub fn new(height: usize, width: usize) -> Result<Self, FftError> {
        Ok(Rfft2d {
            height,
            width,
            row_fft: Fft::new(width)?,
            col_fft: Fft::new(height)?,
            row_scratch: BufferPool::new(),
            half_scratch: BufferPool::new(),
            fallback: Fft2d::new(height, width)?,
        })
    }

    /// Convenience constructor for square transforms.
    ///
    /// # Errors
    ///
    /// Same as [`Rfft2d::new`].
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

    fn check(&self, actual: usize) -> Result<(), FftError> {
        if actual != self.len() {
            return Err(FftError::LengthMismatch {
                expected: self.len(),
                actual,
            });
        }
        Ok(())
    }

    /// Row width `m = min(2·band + 1, width)` of a band variant's packed
    /// spectrum, checked against its `len`. A grid of one row falls back
    /// to the complex plan, which packs nothing, so it takes only the full
    /// layout.
    fn band_stride(&self, len: usize, band: usize) -> Result<usize, FftError> {
        let stride = band.saturating_mul(2).saturating_add(1).min(self.width);
        let expected = self.height * stride;
        if len == expected && (stride == self.width || self.height >= 2) {
            Ok(stride)
        } else {
            Err(FftError::LengthMismatch {
                expected,
                actual: len,
            })
        }
    }

    /// Parks scratch for `transforms` transforms running at once on this
    /// plan and its clones: one packed-row buffer and one half-width grid
    /// each. Callers that run transforms in concurrent tasks call it first,
    /// so the scratch pools reach their high-water mark on the first run
    /// rather than whenever enough tasks first overlap.
    pub fn reserve(&self, transforms: usize) {
        self.row_scratch.reserve(transforms, self.width);
        self.half_scratch
            .reserve(transforms, self.height * (self.width / 2 + 1));
    }

    /// Forward 2-D DFT of a real field into a full complex spectrum.
    ///
    /// Equivalent to widening `src` to complex and running
    /// [`Fft2d::forward`], at roughly half the transform work (though not
    /// bit-identical to the complex plan — the packing reassociates a few
    /// additions).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `src` or `out` is not
    /// `height·width` long.
    pub fn forward_into(&self, src: &[f64], out: &mut [Complex]) -> Result<(), FftError> {
        self.forward_band_into(src, out, self.width / 2)
    }

    /// [`Rfft2d::forward_into`] on the output columns `kx` with
    /// `|signed_freq(kx)| ≤ band` alone, into a band-packed `out`
    /// (`height·m` entries, `m = min(2·band + 1, width)`, column `f mod m`
    /// holding frequency `f`): the column pass runs on those columns only.
    /// Every entry is written, with the bits of the same entry of
    /// [`Rfft2d::forward_into`], since column transforms are independent.
    /// `band ≥ width/2` is [`Rfft2d::forward_into`] itself.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `src` is not
    /// `height·width` long or `out` is not `height·m`.
    pub fn forward_band_into(
        &self,
        src: &[f64],
        out: &mut [Complex],
        band: usize,
    ) -> Result<(), FftError> {
        self.check(src.len())?;
        let stride = self.band_stride(out.len(), band)?;
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        let (h, w) = (self.height, self.width);
        if h < 2 || w < 2 {
            for (slot, &v) in out.iter_mut().zip(src) {
                *slot = Complex::from_re(v);
            }
            return self.fallback.forward(out);
        }
        let wh = w / 2 + 1;
        // The wanted non-redundant columns: the column pass transforms
        // them and the Hermitian fill reads no others.
        let cols = wh.min(band.saturating_add(1));

        // Row pass: rows (2p, 2p+1) share one complex transform, unpacked
        // into the wanted columns only.
        let mut buf = self.row_scratch.take(w);
        for (pair, chunk) in src
            .chunks_exact(2 * w)
            .zip(out.chunks_exact_mut(2 * stride))
        {
            let (r0, r1) = pair.split_at(w);
            for (slot, (&a, &b)) in buf.iter_mut().zip(r0.iter().zip(r1)) {
                *slot = Complex::new(a, b);
            }
            self.row_fft.forward(&mut buf)?;
            for k in 0..cols {
                let z = buf[k];
                let zm = buf[(w - k) & (w - 1)].conj();
                // F₀ = (Z + conj(Z(−k)))/2, F₁ = (Z − conj(Z(−k)))/(2i).
                chunk[k] = Complex::new((z.re + zm.re) * 0.5, (z.im + zm.im) * 0.5);
                chunk[stride + k] = Complex::new((z.im - zm.im) * 0.5, (zm.re - z.re) * 0.5);
            }
        }
        self.row_scratch.put(buf);

        // Column pass over the wanted non-redundant columns, in place.
        self.col_fft.transform_columns(
            ColumnBlockMut::new(out, stride, 0..cols),
            Direction::Forward,
        );

        // Hermitian fill of the wanted negative frequencies −f, in column
        // `stride − f`: S(ky,−f) = conj(S(−ky,f)). Reads stay in columns
        // below `cols` (already final), writes at or above it — disjoint,
        // so fill order is irrelevant.
        for ky in 0..h {
            let mirror_row = ((h - ky) % h) * stride;
            for f in 1..=band.min(w / 2 - 1) {
                out[ky * stride + stride - f] = out[mirror_row + f].conj();
            }
        }
        Ok(())
    }

    /// Writes `out = Re[FFT2D(freq)]` — the gradient's final shared
    /// forward transform — at roughly half the full transform's cost.
    ///
    /// The anti-Hermitian part of `freq` contributes only to the
    /// imaginary part of the transform, so `freq` is first projected onto
    /// its Hermitian part, whose transform is real and recoverable from
    /// `w/2 + 1` column transforms plus one packed complex row transform
    /// per *pair* of output rows.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `freq` or `out` is not
    /// `height·width` long.
    pub fn forward_re_into(&self, freq: &[Complex], out: &mut [f64]) -> Result<(), FftError> {
        self.forward_re_band_into(freq, out, self.width / 2)
    }

    /// [`Rfft2d::forward_re_into`] of a spectrum that is zero in every
    /// column `kx` with `|signed_freq(kx)| > band`, given band-packed as
    /// in [`Rfft2d::forward_band_into`]: the column pass runs on the
    /// band's columns alone, since the transform of a zero column is zero.
    /// The output is bit-identical to [`Rfft2d::forward_re_into`] of the
    /// full zero-padded spectrum, up to the sign of exact zeros.
    /// `band ≥ width/2` is [`Rfft2d::forward_re_into`] itself.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `out` is not
    /// `height·width` long or `freq` is not `height·m`.
    pub fn forward_re_band_into(
        &self,
        freq: &[Complex],
        out: &mut [f64],
        band: usize,
    ) -> Result<(), FftError> {
        let stride = self.band_stride(freq.len(), band)?;
        self.check(out.len())?;
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        let (h, w) = (self.height, self.width);
        if h < 2 || w < 2 {
            let mut buf = self.half_scratch.take(h * w);
            buf.copy_from_slice(freq);
            self.fallback.forward(&mut buf)?;
            for (slot, z) in out.iter_mut().zip(&buf) {
                *slot = z.re;
            }
            self.half_scratch.put(buf);
            return Ok(());
        }
        let wh = w / 2 + 1;

        // Hermitian projection + column transform, non-redundant columns
        // only, row-major in a half-width scratch. The projected input has
        // the 2-D symmetry, and the column DFT turns it into rows that are
        // Hermitian in kx (substituting ky → −ky in the column sum
        // conjugates the result and mirrors kx), so the redundant columns
        // are recoverable by conjugation. Only the band's columns are
        // computed: the row pass reads no others.
        let mut half = self.half_scratch.take(h * wh);
        let cols = wh.min(band.saturating_add(1));
        let mut block = ColumnBlockMut::new(&mut half, wh, 0..cols);
        for ky in 0..h {
            let row = &freq[ky * stride..][..stride];
            let mirror = &freq[(h - ky) % h * stride..][..stride];
            for (c, slot) in block.row_mut(ky).iter_mut().enumerate() {
                let z = row[c];
                // Frequency −c: column 0 for c = 0, `stride − c` otherwise.
                let zm = mirror[if c == 0 { 0 } else { stride - c }].conj();
                *slot = Complex::new((z.re + zm.re) * 0.5, (z.im + zm.im) * 0.5);
            }
        }
        self.col_fft.transform_columns(block, Direction::Forward);

        // Row pass: each transformed row is Hermitian in kx, so its row
        // DFT is real; packing rows (2p, 2p+1) as D = C(y₀) + i·C(y₁)
        // makes one transform yield both real output rows (real part →
        // y₀, imaginary part → y₁). Entries with `band < k < w − band`
        // pack transforms of zero columns, which are `+0` in both parts
        // whether mirrored or not, so they are written as zero.
        let mirrored = wh.max(w.saturating_sub(band));
        let pack = |c0: Complex, c1: Complex| Complex::new(c0.re - c1.im, c0.im + c1.re);
        let mut buf = self.row_scratch.take(w);
        for (rows, chunk) in half.chunks_exact(2 * wh).zip(out.chunks_exact_mut(2 * w)) {
            let (row0, row1) = rows.split_at(wh);
            for k in 0..cols {
                buf[k] = pack(row0[k], row1[k]);
            }
            buf[cols..mirrored].fill(Complex::ZERO);
            for k in mirrored..w {
                buf[k] = pack(row0[w - k].conj(), row1[w - k].conj());
            }
            self.row_fft.forward(&mut buf)?;
            let (out0, out1) = chunk.split_at_mut(w);
            for ((o0, o1), z) in out0.iter_mut().zip(out1).zip(&buf) {
                (*o0, *o1) = (z.re, z.im);
            }
        }
        self.row_scratch.put(buf);
        self.half_scratch.put(half);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft2d::Fft2d;

    fn real_sample(h: usize, w: usize) -> Vec<f64> {
        (0..h * w)
            .map(|i| (i as f64 * 0.13).sin() * 0.8 + (i as f64 * 0.029).cos() * 0.3 - 0.1)
            .collect()
    }

    fn complex_sample(h: usize, w: usize) -> Vec<Complex> {
        (0..h * w)
            .map(|i| Complex::new((i as f64 * 0.17).sin(), (i as f64 * 0.07).cos() - 0.2))
            .collect()
    }

    fn spectrum_tolerance(vals: &[Complex], n: usize) -> f64 {
        // Ulp-scaled: FFT rounding grows like ε·log₂(n)·‖X‖∞; allow a
        // small constant factor over that.
        let peak = vals.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        peak * f64::EPSILON * 8.0 * (n.max(2) as f64).log2()
    }

    #[test]
    fn matches_complex_plan_across_shapes() {
        for (h, w) in [(2, 2), (4, 8), (8, 4), (16, 16), (32, 8), (64, 64)] {
            let src = real_sample(h, w);
            let rplan = Rfft2d::new(h, w).unwrap();
            let mut got = vec![Complex::ZERO; h * w];
            rplan.forward_into(&src, &mut got).unwrap();

            let mut full: Vec<Complex> = src.iter().map(|&v| Complex::from_re(v)).collect();
            Fft2d::new(h, w).unwrap().forward(&mut full).unwrap();
            let tol = spectrum_tolerance(&full, h.max(w));
            for (i, (a, b)) in got.iter().zip(&full).enumerate() {
                assert!(
                    (*a - *b).abs() <= tol,
                    "({h}x{w}) bin {i}: {a:?} vs {b:?} (tol {tol:e})"
                );
            }
        }
    }

    #[test]
    fn output_is_hermitian_bit_exactly() {
        let (h, w) = (16, 8);
        let src = real_sample(h, w);
        let rplan = Rfft2d::new(h, w).unwrap();
        let mut spec = vec![Complex::ZERO; h * w];
        rplan.forward_into(&src, &mut spec).unwrap();
        for ky in 0..h {
            for kx in w / 2 + 1..w {
                let a = spec[ky * w + kx];
                let b = spec[((h - ky) % h) * w + (w - kx)].conj();
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "({ky},{kx})");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "({ky},{kx})");
            }
        }
    }

    #[test]
    fn forward_re_matches_full_transform() {
        for (h, w) in [(2, 2), (4, 8), (8, 4), (16, 16), (64, 64)] {
            let freq = complex_sample(h, w);
            let rplan = Rfft2d::new(h, w).unwrap();
            let mut got = vec![0.0f64; h * w];
            rplan.forward_re_into(&freq, &mut got).unwrap();

            let mut full = freq.clone();
            Fft2d::new(h, w).unwrap().forward(&mut full).unwrap();
            let tol = spectrum_tolerance(&full, h.max(w));
            for (i, (a, b)) in got.iter().zip(&full).enumerate() {
                assert!(
                    (a - b.re).abs() <= tol,
                    "({h}x{w}) pixel {i}: {a} vs {} (tol {tol:e})",
                    b.re
                );
            }
        }
    }

    /// The grid column of band-packed column `c` (`m` columns).
    fn grid_column(c: usize, band: usize, m: usize, w: usize) -> usize {
        if c <= band {
            c
        } else {
            w + c - m
        }
    }

    /// Every entry of `forward_band_into`'s band-packed output, prefilled
    /// with junk, must match `forward_into`'s entry at the same frequency
    /// bit for bit.
    fn check_band_forward(h: usize, w: usize, bands: &[usize]) {
        let src = real_sample(h, w);
        let rplan = Rfft2d::new(h, w).unwrap();
        let mut full = vec![Complex::ZERO; h * w];
        rplan.forward_into(&src, &mut full).unwrap();
        for &band in bands {
            let m = band.saturating_mul(2).saturating_add(1).min(w);
            let mut packed = vec![Complex::new(7.0, 7.0); h * m];
            rplan.forward_band_into(&src, &mut packed, band).unwrap();
            for ky in 0..h {
                for c in 0..m {
                    let (a, b) = (
                        packed[ky * m + c],
                        full[ky * w + grid_column(c, band, m, w)],
                    );
                    let what = format!("({h}x{w}) packed band {band} ({ky},{c})");
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}");
                }
            }
        }
    }

    /// `forward_re_band_into` on the band-packed columns of a spectrum
    /// that is zero outside the band must match `forward_re_into` on the
    /// full spectrum, up to the sign of exact zeros.
    fn check_band_forward_re(h: usize, w: usize, bands: &[usize]) {
        use crate::fft2d::signed_freq;
        let rplan = Rfft2d::new(h, w).unwrap();
        for &band in bands {
            let outside = |i: usize| signed_freq(i % w, w).unsigned_abs() as usize > band;
            let mut freq = complex_sample(h, w);
            for (i, z) in freq.iter_mut().enumerate() {
                if outside(i) {
                    *z = Complex::ZERO;
                }
            }
            let mut full = vec![0.0; h * w];
            rplan.forward_re_into(&freq, &mut full).unwrap();
            let m = band.saturating_mul(2).saturating_add(1).min(w);
            let packed: Vec<Complex> = (0..h * m)
                .map(|i| freq[i / m * w + grid_column(i % m, band, m, w)])
                .collect();
            let mut got = vec![7.0; h * w];
            rplan.forward_re_band_into(&packed, &mut got, band).unwrap();
            for (i, (a, b)) in got.iter().zip(&full).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0),
                    "({h}x{w}) band {band} pixel {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn band_forward_matches_full_on_wanted_columns() {
        for (h, w) in [(4, 8), (8, 4), (16, 16), (32, 64)] {
            check_band_forward(h, w, &[0, 1, 3, w / 2 - 1, w / 2, w, usize::MAX]);
        }
    }

    #[test]
    fn band_forward_re_matches_full_on_band_limited_input() {
        for (h, w) in [(4, 8), (8, 4), (16, 16), (32, 64)] {
            check_band_forward_re(h, w, &[0, 1, 3, w / 2 - 1, w / 2, usize::MAX]);
        }
    }

    #[test]
    fn band_variants_match_full_transforms_on_the_pupil_bands() {
        // The pupil bands of a 2048 nm tile (28) and a 4096 nm window
        // (57), on the 256 and 512 px grids the eval and paper suites run.
        for n in [256, 512] {
            check_band_forward(n, n, &[28, 57]);
            check_band_forward_re(n, n, &[28, 57]);
        }
    }

    #[test]
    fn degenerate_shapes_fall_back_to_full_plan() {
        for (h, w) in [(1, 8), (8, 1), (1, 1)] {
            let src = real_sample(h, w);
            let rplan = Rfft2d::new(h, w).unwrap();
            let mut got = vec![Complex::ZERO; h * w];
            rplan.forward_into(&src, &mut got).unwrap();
            let mut full: Vec<Complex> = src.iter().map(|&v| Complex::from_re(v)).collect();
            Fft2d::new(h, w).unwrap().forward(&mut full).unwrap();
            for (a, b) in got.iter().zip(&full) {
                assert!((*a - *b).abs() < 1e-12);
            }
            let freq = complex_sample(h, w);
            let mut re = vec![0.0f64; h * w];
            rplan.forward_re_into(&freq, &mut re).unwrap();
            let mut fullc = freq.clone();
            Fft2d::new(h, w).unwrap().forward(&mut fullc).unwrap();
            for (a, b) in re.iter().zip(&fullc) {
                assert!((a - b.re).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_wrong_lengths() {
        let rplan = Rfft2d::square(8).unwrap();
        let mut out = vec![Complex::ZERO; 64];
        assert!(matches!(
            rplan.forward_into(&[0.0; 63], &mut out),
            Err(FftError::LengthMismatch { .. })
        ));
        let mut short = vec![Complex::ZERO; 10];
        assert!(rplan.forward_into(&[0.0; 64], &mut short).is_err());
        let mut re = vec![0.0; 63];
        assert!(rplan.forward_re_into(&out, &mut re).is_err());
        // The band fixes the layout: 8 rows of 2·band + 1 = 3 columns at
        // band 1, and the full 8 × 8 grid at band 4 and above.
        let mut packed = vec![Complex::ZERO; 8 * 3];
        assert!(rplan.forward_band_into(&[0.0; 64], &mut packed, 1).is_ok());
        assert!(rplan.forward_band_into(&[0.0; 64], &mut packed, 2).is_err());
        assert!(rplan.forward_band_into(&[0.0; 64], &mut out, 1).is_err());
        assert!(rplan.forward_band_into(&[0.0; 64], &mut out, 4).is_ok());
        assert!(rplan.forward_re_band_into(&out, &mut [0.0; 64], 3).is_err());
        let mut wide = vec![Complex::ZERO; 8 * 9];
        assert!(rplan.forward_band_into(&[0.0; 64], &mut wide, 4).is_err());
        assert!(rplan
            .forward_re_band_into(&wide, &mut [0.0; 64], 4)
            .is_err());
        // A one-row grid falls back to the complex plan: full layout only.
        let row = Rfft2d::new(1, 8).unwrap();
        assert!(row
            .forward_band_into(&[0.0; 8], &mut [Complex::ZERO; 3], 1)
            .is_err());
    }

    #[test]
    fn constant_field_concentrates_at_dc() {
        let n = 16;
        let rplan = Rfft2d::square(n).unwrap();
        let mut spec = vec![Complex::ZERO; n * n];
        rplan.forward_into(&vec![0.5; n * n], &mut spec).unwrap();
        assert!((spec[0].re - 0.5 * (n * n) as f64).abs() < 1e-9);
        for z in spec.iter().skip(1) {
            assert!(z.abs() < 1e-9);
        }
    }
}
