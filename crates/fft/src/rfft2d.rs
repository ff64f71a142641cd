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
//! field), its non-negative columns written row-major into a scratch and
//! transformed there in place, and two real output rows are then
//! recovered from each packed complex row transform.
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
//! **Row-pair pieces.** Each band variant is two pieces, public so that a
//! caller can stream the real side of the transform one row pair at a
//! time instead of holding the whole `height × width` field:
//!
//! * [`Rfft2d::forward_band_into`] is [`RowPairs::forward_band_rows`] on
//!   every row pair (one packed row transform, unpacked into the band's
//!   non-negative columns), then [`Rfft2d::forward_band_columns`] (the
//!   column pass and the Hermitian fill).
//! * [`Rfft2d::forward_re_band_into`] is [`Rfft2d::forward_re_band_columns`]
//!   (the Hermitian projection and the column pass, into a caller's
//!   `height × (min(band, width/2) + 1)` buffer, the only columns the row
//!   pass reads), then [`RowPairs::forward_re_band_rows`] on every row pair
//!   (one packed row transform, two real output rows). [`Rfft2d::re_band_rows`]
//!   runs the first piece into a column buffer of the plan's own and hands
//!   out the second pair by pair ([`ReBandRows`]), for a caller that
//!   consumes the output as it comes.
//!
//! The row pieces are methods of [`RowPairs`], the packed-row scratch a
//! stream takes from the plan once ([`Rfft2d::row_pairs`]) rather than
//! once per pair. The whole-grid functions run exactly these pieces, so a
//! streamed transform has their bits. Each 2-D transform counts once, in
//! its column piece.
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
    /// Recycled row-major column scratch for
    /// [`Rfft2d::forward_re_band_into`]'s column pass: the band's
    /// non-negative columns, [`Rfft2d::half_band_len`] entries
    /// (`h · (w/2 + 1)` for the full transform). Kept separate from the row
    /// pool so neither pool thrashes between buffer shapes.
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

    /// The non-negative columns `min(band, width/2) + 1` a band variant
    /// transforms: the Hermitian fill and the packed row pass read no
    /// others.
    fn half_cols(&self, band: usize) -> usize {
        (self.width / 2 + 1).min(band.saturating_add(1))
    }

    /// Entries `height · (min(band, width/2) + 1)` of the column buffer
    /// [`Rfft2d::forward_re_band_columns`] writes and
    /// [`RowPairs::forward_re_band_rows`] reads.
    pub fn half_band_len(&self, band: usize) -> usize {
        self.height * self.half_cols(band)
    }

    /// Checks `len` against `expected`.
    fn check_len(expected: usize, len: usize) -> Result<(), FftError> {
        if len == expected {
            Ok(())
        } else {
            Err(FftError::LengthMismatch {
                expected,
                actual: len,
            })
        }
    }

    /// The shape the row-pair pieces need: at least two rows and two
    /// columns (smaller grids fall back to the complex plan, which has no
    /// row pairs), and `pair` one of the `height/2` pairs.
    fn assert_pair(&self, pair: usize) {
        assert!(
            self.height >= 2 && self.width >= 2,
            "a {}x{} grid has no row pairs",
            self.height,
            self.width
        );
        assert!(pair < self.height / 2, "row pair {pair} out of bounds");
    }

    /// Parks scratch for `transforms` transforms running at once on this
    /// plan and its clones: one packed-row buffer each, all that
    /// [`Rfft2d::forward_band_into`] and the row-pair pieces take. Callers
    /// that run transforms in concurrent tasks call it first, so the
    /// scratch pools reach their high-water mark on the first run rather
    /// than whenever enough tasks first overlap.
    pub fn reserve(&self, transforms: usize) {
        self.row_scratch.reserve(transforms, self.width);
    }

    /// [`Rfft2d::reserve`] for `transforms` concurrent runs of
    /// [`Rfft2d::forward_re_band_into`] at `band`, which also take one
    /// column buffer of [`Rfft2d::half_band_len`] entries each.
    pub fn reserve_re(&self, transforms: usize, band: usize) {
        self.reserve(transforms);
        self.half_scratch
            .reserve(transforms, self.half_band_len(band));
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
    /// It is [`RowPairs::forward_band_rows`] on every row pair, then
    /// [`Rfft2d::forward_band_columns`].
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
        self.band_stride(out.len(), band)?;
        let w = self.width;
        if self.height < 2 || w < 2 {
            cfaopc_trace::counters::FFT_2D.incr();
            cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
            for (slot, &v) in out.iter_mut().zip(src) {
                *slot = Complex::from_re(v);
            }
            return self.fallback.forward(out);
        }
        let mut pairs = self.row_pairs();
        for (pair, rows) in src.chunks_exact(2 * w).enumerate() {
            pairs.forward_band_rows(pair, rows, out, band)?;
        }
        self.forward_band_columns(out, band)
    }

    /// Packed-row scratch for a run of row-pair pieces on this plan
    /// ([`RowPairs::forward_band_rows`], [`RowPairs::forward_re_band_rows`]):
    /// taken from the plan's pool once, and returned when dropped.
    pub fn row_pairs(&self) -> RowPairs<'_> {
        RowPairs {
            plan: self,
            buf: self.row_scratch.take(self.width),
        }
    }

    /// The row pass of one pair: rows `(r₀, r₁)` packed as `Z = r₀ + i·r₁`
    /// in `buf`, transformed, and unpacked into the wanted columns of the
    /// two-row `chunk` of a band-packed spectrum.
    fn band_pair(
        &self,
        buf: &mut [Complex],
        rows: &[f64],
        chunk: &mut [Complex],
        band: usize,
    ) -> Result<(), FftError> {
        let w = self.width;
        let stride = chunk.len() / 2;
        let (r0, r1) = rows.split_at(w);
        for (slot, (&a, &b)) in buf.iter_mut().zip(r0.iter().zip(r1)) {
            *slot = Complex::new(a, b);
        }
        self.row_fft.forward(buf)?;
        for k in 0..self.half_cols(band) {
            let z = buf[k];
            let zm = buf[(w - k) & (w - 1)].conj();
            // F₀ = (Z + conj(Z(−k)))/2, F₁ = (Z − conj(Z(−k)))/(2i).
            chunk[k] = Complex::new((z.re + zm.re) * 0.5, (z.im + zm.im) * 0.5);
            chunk[stride + k] = Complex::new((z.im - zm.im) * 0.5, (zm.re - z.re) * 0.5);
        }
        Ok(())
    }

    /// The rest of [`Rfft2d::forward_band_into`] once
    /// [`RowPairs::forward_band_rows`] has filled every row pair of `out`:
    /// the column pass over the band's non-negative columns, in place, and
    /// the Hermitian fill of its negative ones. Counts one 2-D transform.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `out` is not `height·m`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has fewer than two rows or columns.
    pub fn forward_band_columns(&self, out: &mut [Complex], band: usize) -> Result<(), FftError> {
        let stride = self.band_stride(out.len(), band)?;
        self.assert_pair(0);
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        let (h, w) = (self.height, self.width);
        self.col_fft.transform_columns(
            ColumnBlockMut::new(out, stride, 0..self.half_cols(band)),
            Direction::Forward,
        );

        // Hermitian fill of the wanted negative frequencies −f, in column
        // `stride − f`: S(ky,−f) = conj(S(−ky,f)). Reads stay in the
        // transformed columns (already final), writes past them — disjoint,
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
    /// It is [`Rfft2d::re_band_rows`] with every row pair written in
    /// place.
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
        self.band_stride(freq.len(), band)?;
        self.check(out.len())?;
        let (h, w) = (self.height, self.width);
        if h < 2 || w < 2 {
            cfaopc_trace::counters::FFT_2D.incr();
            cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
            let mut buf = self.half_scratch.take(h * w);
            buf.copy_from_slice(freq);
            self.fallback.forward(&mut buf)?;
            for (slot, z) in out.iter_mut().zip(&buf) {
                *slot = z.re;
            }
            self.half_scratch.put(buf);
            return Ok(());
        }
        let mut rows = self.re_band_rows(freq, band)?;
        for (pair, out) in out.chunks_exact_mut(2 * w).enumerate() {
            rows.rows(pair, out)?;
        }
        Ok(())
    }

    /// [`Rfft2d::forward_re_band_into`] handed out one row pair at a time,
    /// so a caller can use each pair as it comes instead of holding the
    /// whole output: [`Rfft2d::forward_re_band_columns`] runs now, into a
    /// column buffer of [`Rfft2d::half_band_len`] entries from the plan's
    /// pool, and each [`ReBandRows::rows`] is
    /// [`RowPairs::forward_re_band_rows`] on it.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `freq` is not `height·m`
    /// long.
    ///
    /// # Panics
    ///
    /// Panics if the plan has fewer than two rows or columns.
    pub fn re_band_rows(&self, freq: &[Complex], band: usize) -> Result<ReBandRows<'_>, FftError> {
        let mut rows = ReBandRows {
            pairs: self.row_pairs(),
            half: self.half_scratch.take(self.half_band_len(band)),
            band,
        };
        self.forward_re_band_columns(freq, &mut rows.half, band)?;
        Ok(rows)
    }

    /// The first piece of [`Rfft2d::forward_re_band_into`]: the Hermitian
    /// projection of the band-packed `freq` and the column transforms of
    /// its non-negative band columns, written row-major into `half`
    /// ([`Rfft2d::half_band_len`] entries, `min(band, width/2) + 1` per
    /// row). [`RowPairs::forward_re_band_rows`] then turns each row pair of
    /// `half` into two output rows. Counts one 2-D transform.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `freq` is not `height·m`
    /// long or `half` is not [`Rfft2d::half_band_len`].
    ///
    /// # Panics
    ///
    /// Panics if the plan has fewer than two rows or columns.
    pub fn forward_re_band_columns(
        &self,
        freq: &[Complex],
        half: &mut [Complex],
        band: usize,
    ) -> Result<(), FftError> {
        let stride = self.band_stride(freq.len(), band)?;
        Self::check_len(self.half_band_len(band), half.len())?;
        self.assert_pair(0);
        cfaopc_trace::counters::FFT_2D.incr();
        cfaopc_trace::counters::FFT_2D_POINTS.add(self.len() as u64);
        let h = self.height;

        // Hermitian projection + column transform, non-redundant columns
        // only. The projected input has the 2-D symmetry, and the column
        // DFT turns it into rows that are Hermitian in kx (substituting
        // ky → −ky in the column sum conjugates the result and mirrors
        // kx), so the redundant columns are recoverable by conjugation.
        // Only the band's columns are computed: the row pass reads no
        // others.
        let cols = self.half_cols(band);
        let mut block = ColumnBlockMut::new(half, cols, 0..cols);
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
        Ok(())
    }

    /// The row pass of one pair: each column-transformed row is Hermitian
    /// in kx, so its row DFT is real; packing rows (2p, 2p+1) of `rows` as
    /// D = C(y₀) + i·C(y₁) in `buf` makes one transform yield both real
    /// output rows of `out` (real part → y₀, imaginary part → y₁).
    /// Entries with `band < k < w − band` pack transforms of zero columns,
    /// which are `+0` in both parts whether mirrored or not, so they are
    /// written as zero.
    fn re_band_pair(
        &self,
        buf: &mut [Complex],
        rows: &[Complex],
        out: &mut [f64],
        band: usize,
    ) -> Result<(), FftError> {
        let w = self.width;
        let cols = rows.len() / 2;
        let mirrored = (w / 2 + 1).max(w.saturating_sub(band));
        let pack = |c0: Complex, c1: Complex| Complex::new(c0.re - c1.im, c0.im + c1.re);
        let (row0, row1) = rows.split_at(cols);
        for k in 0..cols {
            buf[k] = pack(row0[k], row1[k]);
        }
        buf[cols..mirrored].fill(Complex::ZERO);
        for k in mirrored..w {
            buf[k] = pack(row0[w - k].conj(), row1[w - k].conj());
        }
        self.row_fft.forward(buf)?;
        let (out0, out1) = out.split_at_mut(w);
        for ((o0, o1), z) in out0.iter_mut().zip(out1).zip(buf.iter()) {
            (*o0, *o1) = (z.re, z.im);
        }
        Ok(())
    }
}

/// Packed-row scratch for a run of row-pair pieces on one plan, from
/// [`Rfft2d::row_pairs`]: taken from the plan's pool once and returned
/// when dropped, so a transform streamed one row pair at a time takes the
/// pool's lock twice, not twice per pair (concurrent streams on one plan
/// would otherwise contend for it on every pair).
#[derive(Debug)]
pub struct RowPairs<'a> {
    plan: &'a Rfft2d,
    buf: Vec<Complex>,
}

impl RowPairs<'_> {
    /// One row pair of [`Rfft2d::forward_band_into`]'s row pass: source
    /// rows `2·pair` and `2·pair + 1`, given as `rows` (`2·width` entries,
    /// row `2·pair` first), share one complex transform, unpacked into the
    /// band's non-negative columns of the same two rows of the band-packed
    /// `out`. Once every pair is in, [`Rfft2d::forward_band_columns`]
    /// finishes the transform with the bits of [`Rfft2d::forward_band_into`],
    /// which runs these same two pieces.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `rows` is not `2·width`
    /// long or `out` is not `height·m`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has fewer than two rows or columns, or `pair` is
    /// not below `height/2`.
    pub fn forward_band_rows(
        &mut self,
        pair: usize,
        rows: &[f64],
        out: &mut [Complex],
        band: usize,
    ) -> Result<(), FftError> {
        let plan = self.plan;
        let stride = plan.band_stride(out.len(), band)?;
        Rfft2d::check_len(2 * plan.width, rows.len())?;
        plan.assert_pair(pair);
        let chunk = &mut out[2 * pair * stride..][..2 * stride];
        plan.band_pair(&mut self.buf, rows, chunk, band)
    }

    /// The second piece of [`Rfft2d::forward_re_band_into`]: output rows
    /// `2·pair` and `2·pair + 1` into `out` (`2·width` entries, row
    /// `2·pair` first) from the same two rows of `half`, as
    /// [`Rfft2d::forward_re_band_columns`] wrote it. Each pair is
    /// independent of the others, with the bits of the whole transform's
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `half` is not
    /// [`Rfft2d::half_band_len`] long or `out` is not `2·width`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has fewer than two rows or columns, or `pair` is
    /// not below `height/2`.
    pub fn forward_re_band_rows(
        &mut self,
        half: &[Complex],
        pair: usize,
        out: &mut [f64],
        band: usize,
    ) -> Result<(), FftError> {
        let plan = self.plan;
        Rfft2d::check_len(plan.half_band_len(band), half.len())?;
        Rfft2d::check_len(2 * plan.width, out.len())?;
        plan.assert_pair(pair);
        let cols = plan.half_cols(band);
        plan.re_band_pair(
            &mut self.buf,
            &half[2 * pair * cols..][..2 * cols],
            out,
            band,
        )
    }
}

impl Drop for RowPairs<'_> {
    fn drop(&mut self) {
        self.plan.row_scratch.put(std::mem::take(&mut self.buf));
    }
}

/// One [`Rfft2d::forward_re_band_into`] whose column piece is done, from
/// [`Rfft2d::re_band_rows`]: it holds the column buffer and the row
/// pairs' packed-row scratch, both returned to the plan's pools when
/// dropped.
#[derive(Debug)]
pub struct ReBandRows<'a> {
    pairs: RowPairs<'a>,
    half: Vec<Complex>,
    band: usize,
}

impl ReBandRows<'_> {
    /// Output rows `2·pair` and `2·pair + 1` into `out` (`2·width`
    /// entries, row `2·pair` first), with the bits of the whole
    /// transform's rows.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if `out` is not `2·width`
    /// long.
    ///
    /// # Panics
    ///
    /// Panics if `pair` is not below `height/2`.
    pub fn rows(&mut self, pair: usize, out: &mut [f64]) -> Result<(), FftError> {
        self.pairs
            .forward_re_band_rows(&self.half, pair, out, self.band)
    }
}

impl Drop for ReBandRows<'_> {
    fn drop(&mut self) {
        let plan = self.pairs.plan;
        plan.half_scratch.put(std::mem::take(&mut self.half));
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

    /// The row-pair pieces, fed one pair at a time (the forward pairs in
    /// reverse order, since pairs are independent), must give the bits of
    /// the whole-grid band transforms on every entry, into buffers
    /// prefilled with junk.
    fn check_pieces(h: usize, w: usize, bands: &[usize]) {
        use crate::fft2d::signed_freq;
        let rplan = Rfft2d::new(h, w).unwrap();
        let src = real_sample(h, w);
        for &band in bands {
            let m = band.saturating_mul(2).saturating_add(1).min(w);
            let what = format!("({h}x{w}) band {band}");
            let mut whole = vec![Complex::new(7.0, 7.0); h * m];
            rplan.forward_band_into(&src, &mut whole, band).unwrap();
            let mut streamed = vec![Complex::new(-3.0, 5.0); h * m];
            let mut pairs = rplan.row_pairs();
            for pair in (0..h / 2).rev() {
                let rows = &src[2 * pair * w..][..2 * w];
                pairs
                    .forward_band_rows(pair, rows, &mut streamed, band)
                    .unwrap();
            }
            rplan.forward_band_columns(&mut streamed, band).unwrap();
            for (i, (a, b)) in streamed.iter().zip(&whole).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}: forward entry {i}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}: forward entry {i}");
            }

            // A band-limited spectrum, packed, through `forward_re`.
            let outside = |i: usize| signed_freq(i % w, w).unsigned_abs() as usize > band;
            let freq: Vec<Complex> = complex_sample(h, w)
                .into_iter()
                .enumerate()
                .map(|(i, z)| if outside(i) { Complex::ZERO } else { z })
                .collect();
            let packed: Vec<Complex> = (0..h * m)
                .map(|i| freq[i / m * w + grid_column(i % m, band, m, w)])
                .collect();
            let mut whole = vec![7.0; h * w];
            rplan
                .forward_re_band_into(&packed, &mut whole, band)
                .unwrap();
            let mut half = vec![Complex::new(9.0, -9.0); rplan.half_band_len(band)];
            rplan
                .forward_re_band_columns(&packed, &mut half, band)
                .unwrap();
            let mut rows = vec![0.0; 2 * w];
            for pair in 0..h / 2 {
                rows.fill(-7.0);
                pairs
                    .forward_re_band_rows(&half, pair, &mut rows, band)
                    .unwrap();
                let want = &whole[2 * pair * w..][..2 * w];
                for (x, (a, b)) in rows.iter().zip(want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{what}: pair {pair} pixel {x}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_pair_pieces_reproduce_the_band_transforms() {
        for (h, w) in [(2, 2), (4, 8), (8, 4), (16, 16), (32, 64)] {
            check_pieces(h, w, &[0, 1, 3, w / 2 - 1, w / 2, w, usize::MAX]);
        }
        // The 2048 nm tile's band at 256 px, and its reach.
        check_pieces(256, 256, &[28, 26]);
    }

    #[test]
    fn half_band_len_holds_the_non_negative_band_columns() {
        let rplan = Rfft2d::new(16, 32).unwrap();
        assert_eq!(rplan.half_band_len(0), 16);
        assert_eq!(rplan.half_band_len(3), 16 * 4);
        assert_eq!(rplan.half_band_len(16), 16 * 17);
        assert_eq!(rplan.half_band_len(usize::MAX), 16 * 17);
    }

    #[test]
    fn pieces_reject_wrong_lengths() {
        let rplan = Rfft2d::square(8).unwrap();
        let mut packed = vec![Complex::ZERO; 8 * 3];
        let mut half = vec![Complex::ZERO; 8 * 2];
        let mut pairs = rplan.row_pairs();
        assert!(pairs
            .forward_band_rows(0, &[0.0; 15], &mut packed, 1)
            .is_err());
        assert!(pairs
            .forward_band_rows(0, &[0.0; 16], &mut packed, 2)
            .is_err());
        assert!(rplan.forward_band_columns(&mut packed, 2).is_err());
        assert!(rplan
            .forward_re_band_columns(&packed, &mut half[..15], 1)
            .is_err());
        assert!(rplan
            .forward_re_band_columns(&packed, &mut half, 2)
            .is_err());
        assert!(pairs
            .forward_re_band_rows(&half, 0, &mut [0.0; 15], 1)
            .is_err());
        assert!(pairs
            .forward_re_band_rows(&half, 0, &mut [0.0; 16], 1)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "row pair 4 out of bounds")]
    fn pieces_reject_a_pair_past_the_grid() {
        let rplan = Rfft2d::square(8).unwrap();
        let half = vec![Complex::ZERO; rplan.half_band_len(1)];
        let _ = rplan
            .row_pairs()
            .forward_re_band_rows(&half, 4, &mut [0.0; 16], 1);
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
