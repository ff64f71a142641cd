//! The forward lithography model: Hopkins aerial image (Eq. 1) and the
//! threshold / sigmoid resist (Eq. 2).
//!
//! Every imaging entry point runs the mask FFT on the calling thread and
//! then the **per-stack phase** ([`LithoSimulator::per_stack`]): one
//! region with one task per focus stack, each task capped at its share of
//! the caller's width ([`par_map_coarse`]). Each task sums its stack's
//! dose-free intensity `J_d` in kernel order on the pupil grid and
//! streams it to the caller's per-stack work, a [`StackRows`] sink: the
//! corner images or prints, a CD probe's line, or the resist and loss of
//! the stack's corners. Imaging needs no field after its sum, so a task
//! computes its stack's fields one at a time in one buffer. The gradient
//! needs them again in its adjoint, so its task computes the stack's `K`
//! fields first, in a region of its own when its share is wider than one
//! worker ([`LithoSimulator::stack_fields`]), streams, runs the stack's
//! adjoint over the same fields (`crate::gradient`) and only then returns
//! them to the pool. At width 1 the stacks run one after the other, so a
//! call holds one stack's `K` fields, never both stacks' `2K`.
//! Transforms run on the thread of the task that calls them, so the
//! region count does not grow with the grid size.
//!
//! **The stream.** Below `S = N` (pupil grid smaller than the mask grid),
//! a stack task never holds a mask-grid `J_d` or `G_d` whole. The
//! upsampling's column piece turns `J_S`'s band into an `N × (L + 1)`
//! column buffer ([`cfaopc_fft::Rfft2d::forward_re_band_columns`]); each
//! row pair of `J_d` is then made from it
//! ([`cfaopc_fft::RowPairs::forward_re_band_rows`]) and handed to the sink,
//! which in the loss path resists the pair at each corner and pushes the
//! pair's folded dL/dI into the downsampling's row pass ([`Downsample`],
//! an `N × (2L + 1)` band-packed spectrum); the column pass runs once
//! every row is in. A task so holds two mask-grid band buffers and a few
//! rows: every element goes through the whole-grid transforms' operations
//! in their order, so every output bit is theirs. At `S = N` there is no
//! resampling: `J_S` is the mask-grid intensity, handed to the sink
//! whole, and `G_d` the pupil-grid buffer the adjoint reads whole.
//!
//! Every mask-grid spectrum the model reads or writes — the mask spectrum
//! and the gradient's spectral accumulator — is **band-packed**
//! (`crate::kernels`): `N` rows of `m = min(2R + 1, N)` columns, where
//! `R` is the kernels' reach. No complex buffer of the litho path spans
//! the full `N × N` grid unless `m = N`. Only the public
//! [`LithoSimulator::mask_spectrum`] / [`LithoSimulator::aerial_from_spectrum`]
//! pair speaks the full layout, and it converts at the boundary.

use crate::config::{LithoConfig, LithoError, ProcessCorner, RESIST_STEEPNESS};
use crate::gradient::GradientRows;
use crate::kernels::{Kernel, KernelSet};
use cfaopc_fft::parallel::{coarse_share, par_map, par_map_coarse, region_width};
use cfaopc_fft::simd::{accumulate_norm_sqr, sigmoid as resist_sigma};
use cfaopc_fft::{BufferPool, Complex, Fft2d, Rfft2d, RowPairs};
use cfaopc_grid::{BitGrid, Grid2D};

/// Aerial images at the three process corners.
#[derive(Debug, Clone)]
pub struct CornerImages {
    /// Nominal dose / best focus.
    pub nominal: Grid2D<f64>,
    /// Over-dose corner (prints fat).
    pub max: Grid2D<f64>,
    /// Under-dose, defocused corner (prints thin).
    pub min: Grid2D<f64>,
}

impl CornerImages {
    /// Borrow the image for `corner`.
    pub fn get(&self, corner: ProcessCorner) -> &Grid2D<f64> {
        match corner {
            ProcessCorner::Nominal => &self.nominal,
            ProcessCorner::Max => &self.max,
            ProcessCorner::Min => &self.min,
        }
    }
}

/// A reusable lithography simulator: FFT plans plus the SOCS kernel
/// stacks for a fixed grid size — one per distinct focus, shared by every
/// corner imaged at that focus.
///
/// The per-kernel work runs on the stacks' `S × S` pupil grid
/// ([`KernelSet::pupil_size`]); only the mask spectrum, the resampling of
/// each stack's intensity and of the gradient, the per-corner resist and
/// the gradient's final transform touch the `N × N` mask grid. The
/// spectra among them keep only the `N × m` band the kernels reach, and
/// the intensity and dL/dI between the two resamplings stream one row
/// pair at a time.
///
/// # Examples
///
/// Printing an open frame gives unit intensity:
///
/// ```
/// use cfaopc_litho::{LithoConfig, LithoSimulator};
/// use cfaopc_grid::Grid2D;
///
/// # fn main() -> Result<(), cfaopc_litho::LithoError> {
/// let cfg = LithoConfig::fast_test();
/// let sim = LithoSimulator::new(cfg.clone())?;
/// let open = Grid2D::new(cfg.size, cfg.size, 1.0);
/// let aerial = sim.aerial_image(&open, cfaopc_litho::ProcessCorner::Nominal)?;
/// let center = aerial[(cfg.size / 2, cfg.size / 2)];
/// assert!((center - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LithoSimulator {
    config: LithoConfig,
    /// Real-input plan on the mask grid for the mask FFT, the gradient's
    /// final `Re[FFT(·)]` and the mask-grid half of each resampling —
    /// each touches only real data on one side, so the Hermitian-symmetry
    /// plan halves its transform work.
    rplan: Rfft2d,
    /// Complex plan on the pupil grid: every per-kernel inverse.
    pupil_plan: Fft2d,
    /// Real-input plan on the pupil grid: the pupil half of each
    /// resampling (at `S = N`, unused and a clone of `rplan`).
    pupil_rplan: Rfft2d,
    /// The stacks' band `L` ([`KernelSet::band`]).
    band: usize,
    /// The stacks' reach `R`: the mask FFT and the gradient's final
    /// transform touch only the columns within it.
    reach: usize,
    /// Columns `m = min(2R + 1, N)` of every band-packed mask-grid
    /// spectrum ([`KernelSet::spectrum_width`]).
    spectrum_width: usize,
    /// The best-focus stack. A stack depends only on focus, and
    /// [`LithoConfig::defocus`] puts `Nominal` and `Max` at the same best
    /// focus (they differ only in dose), so both image through this one.
    in_focus: KernelSet,
    /// The `Min` corner's defocused stack.
    defocused: KernelSet,
    /// Recycled pupil-grid complex buffers: the per-kernel fields (shared
    /// with the adjoint pass) and the pupil side of each resampling.
    field_pool: BufferPool<Complex>,
    /// Recycled band-packed mask spectra and gradient accumulators
    /// (`N × m`).
    spectrum_pool: BufferPool<Complex>,
    /// Recycled band-packed mask-grid spectra (`N × (2L + 1)`): the mask
    /// side of each resampling.
    band_pool: BufferPool<Complex>,
    /// Recycled mask-grid column buffers of the upsampling stream
    /// (`N × (L + 1)`, [`Rfft2d::half_band_len`]).
    half_pool: BufferPool<Complex>,
    /// Recycled mask-grid row pairs (`2N`): a streamed intensity's, a
    /// streamed dL/dI's and a binary mask's.
    row_pool: BufferPool<f64>,
    /// Recycled pupil-grid real scratch (intensity and dL/dI before and
    /// after resampling; at `S = N`, the mask grid's).
    pupil_real_pool: BufferPool<f64>,
    /// Recycled adjoint output: one value per bin of every kernel of one
    /// stack, laid out by [`KernelSet`]'s bin ranges.
    bins_pool: BufferPool<Complex>,
}

/// Where a per-stack task ([`LithoSimulator::stack_rows`]) finds its
/// stack's fields.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    /// Fields the task computed ([`LithoSimulator::stack_fields`]) and
    /// keeps past the sum, in kernel order.
    Kept(&'a [Vec<Complex>]),
    /// The mask spectrum: the task computes each field in turn.
    Spectrum(&'a [Complex]),
}

impl LithoSimulator {
    /// Builds the simulator (validates the configuration and generates the
    /// in-focus and defocused kernel stacks).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError`] for invalid configurations.
    pub fn new(config: LithoConfig) -> Result<Self, LithoError> {
        config.validate()?;
        let rplan =
            Rfft2d::square(config.size).map_err(|_| LithoError::BadGridSize(config.size))?;
        let in_focus = KernelSet::generate(&config, ProcessCorner::Nominal)?;
        let defocused = KernelSet::generate(&config, ProcessCorner::Min)?;
        let s = in_focus.pupil_size();
        Ok(LithoSimulator {
            pupil_plan: Fft2d::square(s)?,
            pupil_rplan: if s == config.size {
                rplan.clone()
            } else {
                Rfft2d::square(s)?
            },
            band: in_focus.band(),
            reach: in_focus.reach,
            spectrum_width: in_focus.spectrum_width(),
            in_focus,
            defocused,
            rplan,
            config,
            field_pool: BufferPool::new(),
            spectrum_pool: BufferPool::new(),
            band_pool: BufferPool::new(),
            half_pool: BufferPool::new(),
            row_pool: BufferPool::new(),
            pupil_real_pool: BufferPool::new(),
            bins_pool: BufferPool::new(),
        })
    }

    /// The configuration this simulator was built from.
    #[inline]
    pub fn config(&self) -> &LithoConfig {
        &self.config
    }

    /// Grid edge in pixels.
    #[inline]
    pub fn size(&self) -> usize {
        self.config.size
    }

    /// Edge `S` of the pupil grid ([`KernelSet::pupil_size`]).
    #[inline]
    pub fn pupil_size(&self) -> usize {
        self.pupil_plan.width()
    }

    /// The kernel stack for `corner`. `Nominal` and `Max` share the same
    /// best-focus stack (the same allocation, not a copy).
    pub fn kernel_set(&self, corner: ProcessCorner) -> &KernelSet {
        self.stacks()[Self::stack_of(corner)]
    }

    /// The distinct stacks, one per focus: best focus, then defocused.
    pub(crate) fn stacks(&self) -> [&KernelSet; 2] {
        [&self.in_focus, &self.defocused]
    }

    /// Index into [`LithoSimulator::stacks`] of `corner`'s stack:
    /// [`LithoConfig::defocus`] puts `Nominal` and `Max` at best focus.
    pub(crate) fn stack_of(corner: ProcessCorner) -> usize {
        match corner {
            ProcessCorner::Nominal | ProcessCorner::Max => 0,
            ProcessCorner::Min => 1,
        }
    }

    /// The pupil-grid complex plan (the adjoint's per-kernel inverses).
    #[inline]
    pub(crate) fn pupil_plan(&self) -> &Fft2d {
        &self.pupil_plan
    }

    /// The pupil-grid complex pool (fields and the adjoint's per-kernel
    /// products).
    #[inline]
    pub(crate) fn field_pool(&self) -> &BufferPool<Complex> {
        &self.field_pool
    }

    /// The band-packed spectrum pool (mask spectrum, spectral
    /// accumulator): buffers of [`LithoSimulator::spectrum_len`] entries.
    #[inline]
    pub(crate) fn spectrum_pool(&self) -> &BufferPool<Complex> {
        &self.spectrum_pool
    }

    /// Entries `N · m` of a band-packed mask-grid spectrum.
    #[inline]
    pub(crate) fn spectrum_len(&self) -> usize {
        self.size() * self.spectrum_width
    }

    /// The pool of pupil-grid real buffers (intensity before upsampling,
    /// dL/dI after downsampling): the mask grid's at `S = N`.
    #[inline]
    pub(crate) fn pupil_real_pool(&self) -> &BufferPool<f64> {
        &self.pupil_real_pool
    }

    /// The adjoint's output pool: buffers of one value per bin of every
    /// kernel of one stack.
    #[inline]
    pub(crate) fn bins_pool(&self) -> &BufferPool<Complex> {
        &self.bins_pool
    }

    /// Whether the pupil grid is smaller than the mask grid, so the
    /// intensity and dL/dI move between them by resampling.
    #[inline]
    pub(crate) fn resampled(&self) -> bool {
        self.pupil_size() < self.size()
    }

    fn check_shape(&self, width: usize, height: usize) -> Result<(), LithoError> {
        if width != self.config.size || height != self.config.size {
            return Err(LithoError::ShapeMismatch {
                expected: (self.config.size, self.config.size),
                actual: (width, height),
            });
        }
        Ok(())
    }

    /// The mask-grid column of band-packed column `c`: frequency `c` up to
    /// the reach, `c − m` past it.
    fn grid_column(&self, c: usize) -> usize {
        if c <= self.reach {
            c
        } else {
            self.size() + c - self.spectrum_width
        }
    }

    /// Forward FFT of a real-valued mask on the columns the kernels reach
    /// (`|f| ≤ R` for every row), in the full row-major layout and zero
    /// in every other column: each kept entry has the bits of
    /// [`Rfft2d::forward_into`]'s. The imaging paths keep the same band
    /// packed; this unpacks it once for callers that index the full grid
    /// (such as [`Kernel::spectrum`]).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when the mask shape differs
    /// from the simulator grid.
    pub fn mask_spectrum(&self, mask: &Grid2D<f64>) -> Result<Vec<Complex>, LithoError> {
        let n = self.size();
        let packed = self.mask_spectrum_pooled(mask)?;
        let mut spectrum = vec![Complex::ZERO; n * n];
        for (row, band) in spectrum
            .chunks_exact_mut(n)
            .zip(packed.chunks_exact(self.spectrum_width))
        {
            for (c, &z) in band.iter().enumerate() {
                row[self.grid_column(c)] = z;
            }
        }
        self.spectrum_pool.put(packed);
        Ok(spectrum)
    }

    /// The band-packed spectrum of `mask` in a pooled buffer: `N` rows of
    /// `m` columns, computed by the band transform on the kept columns
    /// alone. Return it with `spectrum_pool().put(...)` when done.
    pub(crate) fn mask_spectrum_pooled(
        &self,
        mask: &Grid2D<f64>,
    ) -> Result<Vec<Complex>, LithoError> {
        self.check_shape(mask.width(), mask.height())?;
        self.band_spectrum(mask.as_slice())
    }

    /// [`LithoSimulator::mask_spectrum_pooled`] of a binary mask, read as
    /// `1.0` / `0.0` (the values of [`BitGrid::to_real`]) two rows at a
    /// time into a pooled row pair, each pair pushed into the band
    /// transform's row pass ([`RowPairs::forward_band_rows`]): no real copy
    /// of the whole mask.
    pub(crate) fn bit_spectrum_pooled(&self, mask: &BitGrid) -> Result<Vec<Complex>, LithoError> {
        self.check_shape(mask.width(), mask.height())?;
        let n = self.size();
        let bits = mask.as_grid().as_slice();
        let read = |v: &mut f64, &on: &bool| *v = if on { 1.0 } else { 0.0 };
        if n < 2 {
            // One pixel, no row pair: the whole-grid transform.
            let mut pixel = [0.0];
            read(&mut pixel[0], &bits[0]);
            return self.band_spectrum(&pixel);
        }
        let mut spectrum = self.spectrum_pool.take(self.spectrum_len());
        let mut rows = self.row_pool.take(2 * n);
        let mut pairs = self.rplan.row_pairs();
        for (pair, chunk) in bits.chunks_exact(2 * n).enumerate() {
            for (v, on) in rows.iter_mut().zip(chunk) {
                read(v, on);
            }
            pairs.forward_band_rows(pair, &rows, &mut spectrum, self.reach)?;
        }
        self.row_pool.put(rows);
        self.rplan.forward_band_columns(&mut spectrum, self.reach)?;
        Ok(spectrum)
    }

    fn band_spectrum(&self, pixels: &[f64]) -> Result<Vec<Complex>, LithoError> {
        let mut spectrum = self.spectrum_pool.take(self.spectrum_len());
        self.rplan
            .forward_band_into(pixels, &mut spectrum, self.reach)?;
        Ok(spectrum)
    }

    /// The gradient's final transform, `Re[FFT(acc)]` of a band-packed
    /// spectral accumulator, written into `rows` one row pair at a time
    /// ([`Rfft2d::re_band_rows`]); a grid of one row comes whole.
    pub(crate) fn spectral_rows<R: GradientRows + ?Sized>(
        &self,
        acc: &[Complex],
        rows: &mut R,
    ) -> Result<(), LithoError> {
        let n = self.size();
        if n < 2 {
            self.rplan
                .forward_re_band_into(acc, rows.rows_mut(0, n), self.reach)?;
            rows.rows_done(0, n);
            return Ok(());
        }
        let mut transform = self.rplan.re_band_rows(acc, self.reach)?;
        for pair in 0..n / 2 {
            transform.rows(pair, rows.rows_mut(2 * pair, 2))?;
            rows.rows_done(2 * pair, 2);
        }
        Ok(())
    }

    /// Aerial image from a precomputed mask spectrum in the full row-major
    /// layout (as [`LithoSimulator::mask_spectrum`] returns it): its band
    /// is packed once, and entries outside it are not read.
    ///
    /// `I(x) = dose(corner) · Σ_k μ_k |IFFT(H_k ⊙ F)(x)|²` — paper Eq. 1
    /// with the corner's dose applied on the mask grid, each kernel's
    /// transform run on the pupil grid ([`KernelSet::pupil_size`]).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::BadParameter`] when `spectrum` does not have
    /// `size²` entries (e.g. a spectrum computed on a different grid).
    pub fn aerial_from_spectrum(
        &self,
        spectrum: &[Complex],
        corner: ProcessCorner,
    ) -> Result<Grid2D<f64>, LithoError> {
        let n = self.size();
        if spectrum.len() != n * n {
            return Err(LithoError::BadParameter(format!(
                "spectrum has {} entries but the {n}x{n} grid needs {}",
                spectrum.len(),
                n * n,
            )));
        }
        let mut packed = self.spectrum_pool.take(self.spectrum_len());
        for (band, row) in packed
            .chunks_exact_mut(self.spectrum_width)
            .zip(spectrum.chunks_exact(n))
        {
            for (c, slot) in band.iter_mut().enumerate() {
                *slot = row[self.grid_column(c)];
            }
        }
        let image = self.corner_image(&packed, corner);
        self.spectrum_pool.put(packed);
        image
    }

    /// `corner`'s aerial image from a band-packed mask spectrum.
    fn corner_image(
        &self,
        spectrum: &[Complex],
        corner: ProcessCorner,
    ) -> Result<Grid2D<f64>, LithoError> {
        let n = self.config.size;
        let [image, _] = self.image_stack(self.kernel_set(corner), spectrum, || {
            CornerRows::new(self, &[corner], |dose, j| dose * j)
        })?;
        Ok(Grid2D::from_vec(n, n, image))
    }

    /// One stack's dose-free intensity `Σ_k μ_k |IFFT(H_k ⊙ spectrum)|²`
    /// on the mask grid, for a band-packed `spectrum`, streamed into the
    /// sink `make_sink` returns: the per-stack phase over `set` alone
    /// ([`LithoSimulator::per_stack`]), its one task on the calling
    /// thread computing the stack's fields in a region across the
    /// caller's width, then streaming.
    pub(crate) fn image_stack<S: StackRows>(
        &self,
        set: &KernelSet,
        spectrum: &[Complex],
        make_sink: impl Fn() -> S + Sync,
    ) -> Result<S::Out, LithoError> {
        let [out, _] = self.per_stack(&[set], spectrum, true, |_| {
            let fields = self.stack_fields(set, spectrum)?;
            let streamed = self.stack_rows(set, Source::Kept(&fields), &make_sink);
            self.recycle_fields(fields);
            streamed
        })?;
        Ok(out)
    }

    /// The imaging entry points on a mask, given its pooled band-packed
    /// `spectrum` (the mask FFT, on the calling thread): each stack's
    /// intensity streamed into the sink `make_sink(d)` returns, in one
    /// task per stack ([`LithoSimulator::per_stack`]), each task computing
    /// its stack's fields one at a time. One region. The spectrum goes
    /// back to its pool.
    pub(crate) fn image_stacks<S, F>(
        &self,
        spectrum: Vec<Complex>,
        make_sink: F,
    ) -> Result<[S::Out; 2], LithoError>
    where
        S: StackRows,
        F: Fn(usize) -> S + Sync,
    {
        let stacks = self.stacks();
        let per_stack = self.per_stack(&stacks, &spectrum, false, |d| {
            self.stack_rows(stacks[d], Source::Spectrum(&spectrum), || make_sink(d))
        });
        self.spectrum_pool.put(spectrum);
        per_stack
    }

    /// Checks that `spectrum` is band-packed on this simulator's mask grid
    /// and that each of `stacks` (at most one per focus) runs on its pupil
    /// grid and packs its bins in the same layout.
    ///
    /// # Panics
    ///
    /// Panics if `stacks` has more than two entries.
    fn check_stacks(&self, stacks: &[&KernelSet], spectrum: &[Complex]) -> Result<(), LithoError> {
        let n = self.config.size;
        let s = self.pupil_size();
        if spectrum.len() != self.spectrum_len() {
            return Err(LithoError::BadParameter(format!(
                "spectrum has {} entries but the {n}x{} band needs {}",
                spectrum.len(),
                self.spectrum_width,
                self.spectrum_len(),
            )));
        }
        assert!(stacks.len() <= 2, "at most one stack per focus");
        if let Some(set) = stacks
            .iter()
            .find(|set| set.pupil_size() != s || set.band() != self.band || set.reach != self.reach)
        {
            return Err(LithoError::BadParameter(format!(
                "kernel stack has pupil grid {}, band {} and reach {}, the simulator {s}, {} and {}",
                set.pupil_size(),
                set.band(),
                set.reach,
                self.band,
                self.reach,
            )));
        }
        Ok(())
    }

    /// Kernel `kernel`'s pupil-grid field `a_k = IFFT_S(Ĥ_k)` into `field`
    /// (fully overwritten), where `Ĥ_k` holds `(S²/N²) · H_k ⊙ spectrum`
    /// at the kernel's pupil-grid bins ([`KernelSet::pupil_size`]), read
    /// from the band-packed `spectrum` at the kernel's packed bins.
    ///
    /// Moving a kernel's bins by its centre bin only multiplies `a_k` by a
    /// phase ramp, so `|a_k|²` samples the mask-grid `|A_k|²` at every
    /// `N/S`-th pixel; band-limited to `[−L, L]²` with `2L + 1 ≤ S`, it is
    /// exactly interpolated back ([`LithoSimulator::move_band`]). At
    /// `S = N` nothing moves and nothing is resampled.
    fn kernel_field(
        &self,
        kernel: &Kernel,
        spectrum: &[Complex],
        field: &mut [Complex],
    ) -> Result<(), LithoError> {
        let (n, s) = (self.size(), self.pupil_size());
        let scale = (s * s) as f64 / (n * n) as f64;
        field.fill(Complex::ZERO);
        let bins = kernel
            .spectrum
            .iter()
            .zip(&kernel.pupil)
            .zip(&kernel.packed);
        for ((&(_, h), &p), &b) in bins {
            field[p as usize] = h * spectrum[b as usize] * scale;
        }
        // Kernel spectra are band-limited to the pupil, so most rows of
        // the product are all-zero: the sparse inverse skips them.
        Ok(self.pupil_plan.inverse_sparse(field)?)
    }

    /// Stack `set`'s pupil-grid fields, in kernel order, kept past the
    /// stack's sum: one task per kernel in one region across the calling
    /// thread's width (none at width 1), each running its inverse serially
    /// in a pooled buffer ([`LithoSimulator::kernel_field`]).
    ///
    /// The caller returns the fields with
    /// [`LithoSimulator::recycle_fields`].
    pub(crate) fn stack_fields(
        &self,
        set: &KernelSet,
        spectrum: &[Complex],
    ) -> Result<Vec<Vec<Complex>>, LithoError> {
        let s2 = self.pupil_size() * self.pupil_size();
        // Plan errors are unreachable (plan and buffers share one config)
        // but propagate as `LithoError::Fft`; pooled buffers from
        // completed kernels are dropped rather than repooled on that cold
        // path.
        let fields = par_map(set.kernels().len(), |k| -> Result<_, LithoError> {
            let mut field = self.field_pool.take(s2);
            self.kernel_field(&set.kernels()[k], spectrum, &mut field)?;
            Ok(field)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        Ok(fields)
    }

    /// The per-stack phase: `task(d)` for each of `stacks` (at most one
    /// per focus), one task per stack in one region
    /// ([`par_map_coarse`]), each capped at its share of the calling
    /// thread's width; slots past the last stack hold `T::default()`.
    /// At width 1 the tasks run one after the other, so a stack's buffers
    /// are back in their pools before the next stack takes any.
    ///
    /// A task sums its stack's intensity and streams it
    /// ([`LithoSimulator::stack_rows`]). With `kept`, it holds the stack's
    /// `K` fields ([`LithoSimulator::stack_fields`]) past the sum, plus
    /// one buffer for each thread of its share (the gradient's adjoint
    /// products; the upsampling's band spectrum needs one); without, it
    /// computes them one at a time in one buffer.
    ///
    /// Each summation and each transform runs on its task's thread in a
    /// fixed order, so every output bit is the same at any worker count.
    /// The tasks run concurrently, so every pool they take from is first
    /// reserved for as many tasks as can run at once: the field buffers
    /// above, two pupil-grid real buffers per task (`J_S` and the loss
    /// path's `G_d`), and below `S = N` one band-packed mask-grid
    /// spectrum, one column buffer, two row pairs and their two
    /// packed-row scratches, and the pupil plan's transform scratch.
    pub(crate) fn per_stack<T, F>(
        &self,
        stacks: &[&KernelSet],
        spectrum: &[Complex],
        kept: bool,
        task: F,
    ) -> Result<[T; 2], LithoError>
    where
        T: Default + Send,
        F: Fn(usize) -> Result<T, LithoError> + Sync,
    {
        self.check_stacks(stacks, spectrum)?;
        let n = self.config.size;
        let s2 = self.pupil_size() * self.pupil_size();
        let width = region_width(stacks.len());
        // The field buffers task `d` holds at its peak.
        let held_by = |d: usize| {
            let k = stacks[d].kernels().len();
            if kept {
                k + coarse_share(stacks.len(), d).min(k)
            } else {
                1
            }
        };
        // Tasks that run at once hold theirs together; tasks that run one
        // after the other, the most any one holds.
        let per_task = (0..stacks.len()).map(held_by);
        let held = if width > 1 {
            per_task.sum()
        } else {
            per_task.max().unwrap_or(0)
        };
        self.field_pool.reserve(held, s2);
        self.pupil_real_pool.reserve(2 * width, s2);
        if self.resampled() {
            self.band_pool.reserve(width, self.band_len());
            self.half_pool
                .reserve(width, self.rplan.half_band_len(self.band));
            self.row_pool.reserve(2 * width, 2 * n);
            self.rplan.reserve(2 * width);
            self.pupil_rplan.reserve_re(width, self.band);
        }
        let results = par_map_coarse(stacks.len(), task);
        let mut out: [T; 2] = Default::default();
        for (slot, result) in out.iter_mut().zip(results) {
            *slot = result?;
        }
        Ok(out)
    }

    /// A per-stack task's sum and stream, on the calling thread: stack
    /// `set`'s `J = Σ_k μ_k |a_k|²` summed on the pupil grid in ascending
    /// `k` — over the fields `source` keeps, or computing them one at a
    /// time in one pooled buffer — then handed to the sink `make_sink`
    /// returns. At `S = N` that is `J` itself, whole. Below it, `J_S`'s
    /// band goes through the upsampling's column piece
    /// ([`LithoSimulator::upsample_columns`]) and each row pair of the
    /// mask-grid `J` is made ([`RowPairs::forward_re_band_rows`]) and
    /// handed over in turn, so no mask-grid `J` is ever whole.
    pub(crate) fn stack_rows<S: StackRows>(
        &self,
        set: &KernelSet,
        source: Source<'_>,
        make_sink: impl FnOnce() -> S,
    ) -> Result<S::Out, LithoError> {
        let s2 = self.pupil_size() * self.pupil_size();
        let mut j = self.pupil_real_pool.take_zeroed(s2);
        match source {
            Source::Kept(fields) => {
                for (kernel, field) in set.kernels().iter().zip(fields) {
                    accumulate_norm_sqr(&mut j, field, kernel.weight);
                }
            }
            Source::Spectrum(spectrum) => {
                let mut field = self.field_pool.take(s2);
                for kernel in set.kernels() {
                    self.kernel_field(kernel, spectrum, &mut field)?;
                    accumulate_norm_sqr(&mut j, &field, kernel.weight);
                }
                self.field_pool.put(field);
            }
        }
        if !self.resampled() {
            let mut sink = make_sink();
            let fed = sink.rows(0, &j);
            self.pupil_real_pool.put(j);
            fed?;
            return sink.finish();
        }
        let mut half = self.half_pool.take(self.rplan.half_band_len(self.band));
        let moved = self.upsample_columns(&j, &mut half);
        self.pupil_real_pool.put(j);
        moved?;
        let mut sink = make_sink();
        let n = self.size();
        let mut rows = self.row_pool.take(2 * n);
        let mut pairs = self.rplan.row_pairs();
        for pair in 0..n / 2 {
            pairs.forward_re_band_rows(&half, pair, &mut rows, self.band)?;
            sink.rows(2 * pair, &rows)?;
        }
        self.row_pool.put(rows);
        self.half_pool.put(half);
        sink.finish()
    }

    /// Returns [`LithoSimulator::stack_fields`]' fields to the field pool.
    pub(crate) fn recycle_fields(&self, fields: Vec<Vec<Complex>>) {
        for field in fields {
            self.field_pool.put(field);
        }
    }

    /// Entries `N · (2L + 1)` of a band-packed mask-grid spectrum of the
    /// resampling.
    fn band_len(&self) -> usize {
        self.size() * (2 * self.band + 1)
    }

    /// The upsampling's first half: the pupil-grid intensity `j`'s band
    /// spectrum moved onto the mask grid ([`LithoSimulator::move_band`])
    /// and put through the mask-grid column piece
    /// ([`Rfft2d::forward_re_band_columns`]) into `half`
    /// ([`Rfft2d::half_band_len`] entries). Each row pair of `half` then
    /// gives two rows of the mask-grid intensity.
    fn upsample_columns(&self, j: &[f64], half: &mut [Complex]) -> Result<(), LithoError> {
        let (n, s) = (self.size(), self.pupil_size());
        let m = 2 * self.band + 1;
        let mut spec = self.field_pool.take(s * m);
        self.pupil_rplan
            .forward_band_into(j, &mut spec, self.band)?;
        // Rows outside [−L, L] stay zero.
        let mut band_spec = self.band_pool.take_zeroed(n * m);
        self.move_band(&spec, s, &mut band_spec, n);
        self.field_pool.put(spec);
        let columns = self
            .rplan
            .forward_re_band_columns(&band_spec, half, self.band);
        self.band_pool.put(band_spec);
        Ok(columns?)
    }

    /// The spectral step of the exact band-limited resampling between the
    /// pupil and mask grids. With `a` and `b` the source and destination
    /// edges,
    ///
    /// ```text
    /// dst = Re[ FFT_b( conj(FFT_a(src)) / a² on [−L, L]², 0 elsewhere ) ]
    /// ```
    ///
    /// is `IFFT_b` of the source spectrum kept on the band and scaled by
    /// `b²/a²` — the conjugate turns the forward transform into the
    /// inverse on a real result: trigonometric interpolation from the
    /// pupil grid, or the `[−L, L]²` low-pass sampled at every `N/S`-th
    /// pixel from the mask grid. This step writes the bracket: the band of
    /// `spec` (`FFT_a(src)`, band-packed, `2L + 1` columns) conjugated and
    /// scaled into the same bins of the zeroed band-packed `dst`.
    /// `2L + 1 ≤ S ≤ N`, so the band's bins are distinct on both grids.
    /// Both transforms around it use the real-input plans on the band's
    /// columns alone.
    fn move_band(&self, spec: &[Complex], a: usize, dst: &mut [Complex], b: usize) {
        let m = 2 * self.band + 1;
        let norm = 1.0 / (a * a) as f64;
        let l = self.band as i64;
        let wrap = |f: i64, m: usize| f.rem_euclid(m as i64) as usize;
        for fy in -l..=l {
            let (row_a, row_b) = (wrap(fy, a) * m, wrap(fy, b) * m);
            for fx in -l..=l {
                dst[row_b + wrap(fx, m)] = spec[row_a + wrap(fx, m)].conj().scale(norm);
            }
        }
    }

    /// Aerial image of a continuous mask at one corner.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn aerial_image(
        &self,
        mask: &Grid2D<f64>,
        corner: ProcessCorner,
    ) -> Result<Grid2D<f64>, LithoError> {
        let spectrum = self.mask_spectrum_pooled(mask)?;
        let image = self.corner_image(&spectrum, corner);
        self.spectrum_pool.put(spectrum);
        image
    }

    /// Aerial images at all three corners, sharing one mask FFT, one
    /// batched forward pass, and the in-focus intensity that `Nominal` and
    /// `Max` both use: `2K` pupil-grid kernel inverses for the three
    /// corners, plus one resampling per focus below `S = N`, in one pool
    /// region (one task per stack, each computing its own fields). Each
    /// corner's dose is applied on the mask grid, row by row as its
    /// stack's intensity streams into the images.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn aerial_corners(&self, mask: &Grid2D<f64>) -> Result<CornerImages, LithoError> {
        let n = self.config.size;
        let [[nominal, max], [min, _]] = self
            .image_stacks(self.mask_spectrum_pooled(mask)?, |d| {
                CornerRows::new(self, Self::corners_of(d), |dose, j| dose * j)
            })?;
        Ok(CornerImages {
            nominal: Grid2D::from_vec(n, n, nominal),
            max: Grid2D::from_vec(n, n, max),
            min: Grid2D::from_vec(n, n, min),
        })
    }

    /// Hard-threshold resist (paper Eq. 2): `Z = 1` where `I > I_th`.
    pub fn resist_binary(&self, aerial: &Grid2D<f64>) -> BitGrid {
        BitGrid::from_threshold(aerial, self.config.threshold)
    }

    /// Relaxed sigmoid resist used inside losses:
    /// `Z = 1 / (1 + e^{-θ_z (I - I_th)})`, evaluated by the loss's own
    /// resist kernel's sigmoid ([`cfaopc_fft::simd::sigmoid`]), so it
    /// equals the `Z` the loss sees pixel for pixel.
    pub fn resist_sigmoid(&self, aerial: &Grid2D<f64>) -> Grid2D<f64> {
        let th = self.config.threshold;
        aerial.map(|&i| resist_sigma(RESIST_STEEPNESS * (i - th)))
    }

    /// Prints a binary mask at one corner: aerial image + hard resist,
    /// the same bits as [`LithoSimulator::resist_binary`] of
    /// [`LithoSimulator::aerial_image`], without building the image.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print(&self, mask: &BitGrid, corner: ProcessCorner) -> Result<BitGrid, LithoError> {
        let n = self.size();
        let th = self.config.threshold;
        let spectrum = self.bit_spectrum_pooled(mask)?;
        let printed = self.image_stack(self.kernel_set(corner), &spectrum, || {
            CornerRows::new(self, &[corner], |dose, j| dose * j > th)
        });
        self.spectrum_pool.put(spectrum);
        let [printed, _] = printed?;
        Ok(BitGrid::from(Grid2D::from_vec(n, n, printed)))
    }

    /// Prints a binary mask at all corners (one FFT of the mask): the bits
    /// of [`LithoSimulator::resist_binary`] on each of
    /// [`LithoSimulator::aerial_corners`]' images, thresholded row by row
    /// from each focus's streamed dose-free intensity.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print_corners(&self, mask: &BitGrid) -> Result<[BitGrid; 3], LithoError> {
        let n = self.size();
        let th = self.config.threshold;
        let [[nominal, max], [min, _]] = self
            .image_stacks(self.bit_spectrum_pooled(mask)?, |d| {
                CornerRows::new(self, Self::corners_of(d), |dose, j| dose * j > th)
            })?;
        Ok([nominal, max, min].map(|bits| BitGrid::from(Grid2D::from_vec(n, n, bits))))
    }

    /// The corners imaged through stack `d` of [`LithoSimulator::stacks`],
    /// in corner order.
    fn corners_of(d: usize) -> &'static [ProcessCorner] {
        const STACKS: [&[ProcessCorner]; 2] = [
            &[ProcessCorner::Nominal, ProcessCorner::Max],
            &[ProcessCorner::Min],
        ];
        STACKS[d]
    }
}

/// A per-stack task's consumer of its stack's dose-free mask-grid
/// intensity `J_d` ([`LithoSimulator::per_stack`]), fed in blocks of
/// whole rows.
pub(crate) trait StackRows {
    /// What the task returns.
    type Out: Default + Send;

    /// Rows `first..first + j.len() / N` of `J_d`. The blocks arrive in
    /// row order and cover every row once: the whole grid at `S = N`, one
    /// row pair at a time below it.
    fn rows(&mut self, first: usize, j: &[f64]) -> Result<(), LithoError>;

    /// What the rows made, after the last block.
    fn finish(self) -> Result<Self::Out, LithoError>;
}

/// Per-pixel values `f(dose_c, J)` for up to two corners imaged at one
/// focus, collected row by row into one `N²` grid per corner: corner
/// images (`dose · J`) or prints (`dose · J > I_th`). Multiplication is
/// commutative and `Nominal`'s dose is exactly 1, so each product has the
/// bits of the dosed image's pixel.
struct CornerRows<T, F> {
    doses: [Option<f64>; 2],
    grids: [Vec<T>; 2],
    f: F,
}

impl<T, F: Fn(f64, f64) -> T> CornerRows<T, F> {
    /// Empty grids for `corners` (one or two) of `sim`.
    fn new(sim: &LithoSimulator, corners: &[ProcessCorner], f: F) -> Self {
        let n2 = sim.size() * sim.size();
        let mut doses = [None; 2];
        for (dose, &corner) in doses.iter_mut().zip(corners) {
            *dose = Some(sim.config.dose(corner));
        }
        CornerRows {
            doses,
            grids: doses.map(|dose| Vec::with_capacity(if dose.is_some() { n2 } else { 0 })),
            f,
        }
    }
}

impl<T: Send, F: Fn(f64, f64) -> T> StackRows for CornerRows<T, F> {
    type Out = [Vec<T>; 2];

    fn rows(&mut self, _first: usize, j: &[f64]) -> Result<(), LithoError> {
        let f = &self.f;
        for (grid, &dose) in self.grids.iter_mut().zip(self.doses.iter().flatten()) {
            grid.extend(j.iter().map(|&v| f(dose, v)));
        }
        Ok(())
    }

    fn finish(self) -> Result<Self::Out, LithoError> {
        Ok(self.grids)
    }
}

/// The downsampling half of a stack task's stream below `S = N`: the
/// mask-grid dL/dI `G_d`, written one row pair at a time into
/// [`Downsample::rows`] and pushed into the mask-grid row pass
/// ([`RowPairs::forward_band_rows`]), then the column pass and the move to
/// the pupil grid ([`Downsample::finish`]). It holds one band-packed
/// `N × (2L + 1)` spectrum, one row pair and its packed-row scratch,
/// never the whole `G_d`.
pub(crate) struct Downsample<'a> {
    sim: &'a LithoSimulator,
    rows: Vec<f64>,
    spec: Vec<Complex>,
    pairs: RowPairs<'a>,
}

impl<'a> Downsample<'a> {
    /// Takes the stream's buffers from `sim`'s pools.
    pub(crate) fn new(sim: &'a LithoSimulator) -> Self {
        Downsample {
            sim,
            rows: sim.row_pool.take(2 * sim.size()),
            spec: sim.band_pool.take(sim.band_len()),
            pairs: sim.rplan.row_pairs(),
        }
    }

    /// The row pair to fill before [`Downsample::push`] (`2N` entries).
    pub(crate) fn rows(&mut self) -> &mut [f64] {
        &mut self.rows
    }

    /// Pushes [`Downsample::rows`] as `G_d`'s rows `2·pair` and
    /// `2·pair + 1`.
    pub(crate) fn push(&mut self, pair: usize) -> Result<(), LithoError> {
        Ok(self
            .pairs
            .forward_band_rows(pair, &self.rows, &mut self.spec, self.sim.band)?)
    }

    /// After the last pair: the column pass, then `G_d`'s band moved onto
    /// the pupil grid ([`LithoSimulator::move_band`]) and transformed
    /// there into `G_S`, a buffer of the pupil real pool. The stream's
    /// buffers go back to their pools.
    pub(crate) fn finish(mut self) -> Result<Vec<f64>, LithoError> {
        let sim = self.sim;
        let (n, s) = (sim.size(), sim.pupil_size());
        let columns = sim.rplan.forward_band_columns(&mut self.spec, sim.band);
        sim.row_pool.put(self.rows);
        columns?;
        let mut band_spec = sim.field_pool.take_zeroed(s * (2 * sim.band + 1));
        sim.move_band(&self.spec, n, &mut band_spec, s);
        sim.band_pool.put(self.spec);
        let mut coarse = sim.pupil_real_pool.take(s * s);
        let moved = sim
            .pupil_rplan
            .forward_re_band_into(&band_spec, &mut coarse, sim.band);
        sim.field_pool.put(band_spec);
        moved?;
        Ok(coarse)
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Saturation threshold for [`sigmoid_sat`] and the resist kernel's
/// sigmoid (defined with the kernel in `cfaopc-fft`).
pub use cfaopc_fft::simd::SIGMOID_SAT;

/// [`sigmoid`] with an exact saturation shortcut: for `x ≥`
/// [`SIGMOID_SAT`] the `exp` call is skipped and `1.0` returned directly,
/// which is bit-identical to evaluating the full expression (see the
/// constant's docs for the rounding argument).
///
/// The shortcut pays off in the circle window of `cfaopc-core`'s
/// `compose`, where `α = 8` saturates every pixel 5 px or more inside a
/// circle. The resist does not use this function: its kernel
/// ([`cfaopc_fft::simd::resist_corner`]) evaluates its own sigmoid on an
/// in-repo `exp`.
#[inline]
pub fn sigmoid_sat(x: f64) -> f64 {
    if x >= SIGMOID_SAT {
        1.0
    } else {
        sigmoid(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_rect, Rect};

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::fast_test()).unwrap()
    }

    fn square_mask(n: usize, half: i32) -> BitGrid {
        let c = n as i32 / 2;
        let mut m = BitGrid::new(n, n);
        fill_rect(&mut m, Rect::new(c - half, c - half, c + half, c + half));
        m
    }

    #[test]
    fn wrong_length_spectrum_is_a_typed_error() {
        // Regression for the typed error path that replaced the old
        // `assert_eq!(spectrum.len(), n2)`: a spectrum computed on a
        // different grid must surface as `LithoError::BadParameter`, not
        // a panic.
        let s = sim();
        let short = vec![Complex::from_re(0.0); 7];
        let err = s
            .aerial_from_spectrum(&short, ProcessCorner::Nominal)
            .unwrap_err();
        assert!(matches!(err, LithoError::BadParameter(_)), "got {err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains('7'),
            "message should name the bad length: {msg}"
        );
    }

    #[test]
    fn empty_mask_prints_nothing() {
        let s = sim();
        let n = s.size();
        let printed = s
            .print(&BitGrid::new(n, n), ProcessCorner::Nominal)
            .unwrap();
        assert!(printed.is_clear());
    }

    #[test]
    fn open_frame_prints_everywhere() {
        let s = sim();
        let n = s.size();
        let mut open = BitGrid::new(n, n);
        fill_rect(&mut open, Rect::new(0, 0, n as i32, n as i32));
        let aerial = s
            .aerial_image(&open.to_real(), ProcessCorner::Nominal)
            .unwrap();
        for &v in aerial.as_slice() {
            assert!((v - 1.0).abs() < 1e-9, "open frame intensity {v}");
        }
        assert_eq!(s.resist_binary(&aerial).count_ones(), n * n);
    }

    #[test]
    fn large_square_prints_smaller_blurred() {
        let s = sim();
        let n = s.size();
        // 64px grid @32nm/px (fast_test tile 2048): 24px square = 768nm.
        let mask = square_mask(n, 12);
        let printed = s.print(&mask, ProcessCorner::Nominal).unwrap();
        assert!(printed.count_ones() > 0, "large feature must print");
        // The aerial image is band-limited: intensity at center is high,
        // far corner is dark.
        let aerial = s
            .aerial_image(&mask.to_real(), ProcessCorner::Nominal)
            .unwrap();
        assert!(aerial[(n / 2, n / 2)] > 0.5);
        assert!(aerial[(2, 2)] < 0.1);
    }

    #[test]
    fn dose_corners_are_monotonic() {
        let s = sim();
        let mask = square_mask(s.size(), 12);
        let [nom, max, min] = s.print_corners(&mask).unwrap();
        // Same focus for Max; higher dose ⇒ superset of nominal print.
        for p in nom.ones() {
            assert!(max.at(p), "max-dose print must cover nominal at {p}");
        }
        assert!(max.count_ones() >= nom.count_ones());
        assert!(min.count_ones() <= nom.count_ones());
    }

    #[test]
    fn defocus_softens_the_image() {
        // Isolate defocus: set both doses to 1.0 and compare corner images.
        let cfg = LithoConfig {
            dose_max: 1.0,
            dose_min: 1.0,
            defocus_nm: 80.0,
            ..LithoConfig::fast_test()
        };
        let s = LithoSimulator::new(cfg).unwrap();
        let n = s.size();
        let mask = square_mask(n, 4);
        let images = s.aerial_corners(&mask.to_real()).unwrap();
        let peak_nom = images
            .nominal
            .as_slice()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let peak_min = images.min.as_slice().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak_min < peak_nom,
            "defocus must lower the peak: {peak_min} vs {peak_nom}"
        );
    }

    #[test]
    fn aerial_is_nonnegative_and_finite() {
        let s = sim();
        let mask = square_mask(s.size(), 6);
        let aerial = s.aerial_image(&mask.to_real(), ProcessCorner::Min).unwrap();
        for &v in aerial.as_slice() {
            assert!(v >= 0.0 && v.is_finite());
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let s = sim();
        let wrong = Grid2D::new(16, 16, 0.0);
        assert!(matches!(
            s.aerial_image(&wrong, ProcessCorner::Nominal),
            Err(LithoError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn sigmoid_resist_brackets_binary() {
        let s = sim();
        let mask = square_mask(s.size(), 10);
        let aerial = s
            .aerial_image(&mask.to_real(), ProcessCorner::Nominal)
            .unwrap();
        let soft = s.resist_sigmoid(&aerial);
        let hard = s.resist_binary(&aerial);
        for (p, &z) in soft.iter() {
            assert!((0.0..=1.0).contains(&z));
            if hard.at(p) {
                assert!(z > 0.5);
            } else {
                assert!(z <= 0.5 + 1e-12);
            }
        }
    }

    #[test]
    fn resist_sigmoid_is_the_resist_kernels_sigma() {
        use cfaopc_fft::simd::{resist_corner, GradOut, ResistCorner};
        let s = sim();
        let mask = square_mask(s.size(), 10);
        let aerial = s.aerial_image(&mask.to_real(), ProcessCorner::Max).unwrap();
        let (theta, th) = (RESIST_STEEPNESS, s.config().threshold);
        let soft = s.resist_sigmoid(&aerial);
        // Pixel for pixel, the kernel's scalar σ.
        for (&i, &z) in aerial.as_slice().iter().zip(soft.as_slice()) {
            assert_eq!(z.to_bits(), resist_sigma(theta * (i - th)).to_bits());
        }
        // And the σ the kernel evaluates on its dispatched path: against
        // an all-zero target its loss is Σ z², in its lane order.
        let zeros = vec![0.0; aerial.as_slice().len()];
        let params = ResistCorner {
            steepness: theta,
            threshold: th,
            dose: 1.0,
            weight: 1.0,
        };
        let loss = resist_corner(aerial.as_slice(), &zeros, &params, GradOut::Skip);
        let mut sums = [0.0; 4];
        for (i, &z) in soft.as_slice().iter().enumerate() {
            sums[i % 4] += z * z;
        }
        let want = (sums[0] + sums[1]) + (sums[2] + sums[3]);
        assert_eq!(loss.to_bits(), want.to_bits());
    }

    #[test]
    fn sigmoid_function_properties() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!(sigmoid(30.0) > 0.999);
        assert!(sigmoid(-30.0) < 0.001);
        assert!((sigmoid(-700.0)).is_finite());
        assert!((sigmoid(700.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_sat_is_bit_identical_to_sigmoid() {
        // Sweep across the saturation boundary (including well past it):
        // the shortcut must never change a single bit.
        for i in 0..4000 {
            let x = f64::from(i).mul_add(0.05, -50.0);
            assert_eq!(sigmoid_sat(x).to_bits(), sigmoid(x).to_bits(), "x = {x}");
        }
        assert_eq!(sigmoid_sat(f64::INFINITY).to_bits(), 1.0f64.to_bits());
        assert_eq!(sigmoid_sat(SIGMOID_SAT).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn batched_corners_match_per_corner_accumulation() {
        // aerial_corners routes through the batched multi-stack region;
        // aerial_from_spectrum through the single-stack path. They must
        // agree bit-for-bit.
        let s = sim();
        let mask = square_mask(s.size(), 9).to_real();
        let batched = s.aerial_corners(&mask).unwrap();
        let spectrum = s.mask_spectrum(&mask).unwrap();
        for corner in [
            ProcessCorner::Nominal,
            ProcessCorner::Max,
            ProcessCorner::Min,
        ] {
            let single = s.aerial_from_spectrum(&spectrum, corner).unwrap();
            let both = single.as_slice().iter().zip(batched.get(corner).as_slice());
            for (a, b) in both {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn translation_equivariance() {
        // Shifting the mask shifts the print (cyclically) — a property of
        // the FFT-based convolution model.
        let s = sim();
        let n = s.size();
        let mask = square_mask(n, 6);
        let printed = s.print(&mask, ProcessCorner::Nominal).unwrap();
        let mut shifted = BitGrid::new(n, n);
        for p in mask.ones() {
            shifted.set(((p.x as usize) + 8) % n, p.y as usize, true);
        }
        let printed_shifted = s.print(&shifted, ProcessCorner::Nominal).unwrap();
        assert_eq!(printed.count_ones(), printed_shifted.count_ones());
        for p in printed.ones() {
            assert!(printed_shifted.get(((p.x as usize) + 8) % n, p.y as usize));
        }
    }
}
