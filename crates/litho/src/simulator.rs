//! The forward lithography model: Hopkins aerial image (Eq. 1) and the
//! threshold / sigmoid resist (Eq. 2).
//!
//! Every imaging entry point runs the mask FFT on the calling thread and
//! then the **per-stack phase** ([`LithoSimulator::per_stack`]): one
//! region with one task per focus stack. Each task sums its stack's
//! dose-free intensity `J_d` in kernel order, moves it to the mask grid
//! and hands it to the caller's per-stack work: the corner images, or
//! the resist and loss of the stack's corners. Imaging computes each
//! stack's fields inside its task, one at a time. The gradient needs
//! every field again in its adjoint, so it computes them first in a
//! region of their own, one task per kernel
//! ([`LithoSimulator::socs_fields`]), and ends with the per-kernel
//! adjoint (`crate::gradient`): three phases. Transforms run on the
//! thread of the task that calls them, so each phase is a single region,
//! whatever the grid size.
//!
//! Every mask-grid spectrum the model reads or writes — the mask spectrum
//! and the gradient's spectral accumulator — is **band-packed**
//! (`crate::kernels`): `N` rows of `m = min(2R + 1, N)` columns, where
//! `R` is the kernels' reach. No complex buffer of the litho path spans
//! the full `N × N` grid unless `m = N`. Only the public
//! [`LithoSimulator::mask_spectrum`] / [`LithoSimulator::aerial_from_spectrum`]
//! pair speaks the full layout, and it converts at the boundary.

use crate::config::{LithoConfig, LithoError, ProcessCorner, RESIST_STEEPNESS};
use crate::kernels::{Kernel, KernelSet};
use cfaopc_fft::parallel::{par_map, region_width};
use cfaopc_fft::simd::{accumulate_norm_sqr, sigmoid as resist_sigma};
use cfaopc_fft::{BufferPool, Complex, Fft2d, Rfft2d};
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
/// the gradient's final transform touch the `N × N` mask grid, and the
/// spectra among them keep only the `N × m` band the kernels reach.
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
    /// Recycled mask-grid real scratch (intensities, dL/dI).
    real_pool: BufferPool<f64>,
    /// Recycled pupil-grid real scratch (intensity and dL/dI before and
    /// after resampling).
    pupil_real_pool: BufferPool<f64>,
    /// Recycled adjoint output: one value per bin of every kernel of both
    /// stacks, laid out by [`KernelSet`]'s bin ranges.
    bins_pool: BufferPool<Complex>,
}

/// Every stack's pupil-grid fields, from
/// [`LithoSimulator::socs_fields`].
#[derive(Debug)]
pub(crate) struct Fields {
    /// `fields[offsets[d] + k]` is stack `d`'s kernel-`k` field.
    offsets: [usize; 3],
    /// Pupil-grid coherent fields `a_k`, from the field pool.
    fields: Vec<Vec<Complex>>,
}

impl Fields {
    /// Stack `d`'s fields, in kernel order.
    pub(crate) fn stack(&self, d: usize) -> &[Vec<Complex>] {
        &self.fields[self.offsets[d]..self.offsets[d + 1]]
    }
}

/// Where the per-stack phase ([`LithoSimulator::per_stack`]) finds each
/// stack's fields.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    /// Fields the loss path computed in its own region and keeps for the
    /// adjoint.
    Kept(&'a Fields),
    /// The mask spectrum: each stack task computes its own fields.
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
            real_pool: BufferPool::new(),
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

    /// The mask-grid real pool (per-corner intensity and dL/dI).
    #[inline]
    pub(crate) fn real_pool(&self) -> &BufferPool<f64> {
        &self.real_pool
    }

    /// The pool of pupil-grid real buffers (intensity before upsampling,
    /// dL/dI after downsampling): the mask grid's at `S = N`.
    #[inline]
    pub(crate) fn pupil_real_pool(&self) -> &BufferPool<f64> {
        if self.resampled() {
            &self.pupil_real_pool
        } else {
            &self.real_pool
        }
    }

    /// The adjoint's output pool: buffers of one value per bin of every
    /// kernel of both stacks.
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
    /// `1.0` / `0.0` (the values of [`BitGrid::to_real`]) from a pooled
    /// real buffer.
    pub(crate) fn bit_spectrum_pooled(&self, mask: &BitGrid) -> Result<Vec<Complex>, LithoError> {
        self.check_shape(mask.width(), mask.height())?;
        let mut pixels = self.real_pool.take(self.size() * self.size());
        for (v, &on) in pixels.iter_mut().zip(mask.as_grid().as_slice()) {
            *v = if on { 1.0 } else { 0.0 };
        }
        let spectrum = self.band_spectrum(&pixels);
        self.real_pool.put(pixels);
        spectrum
    }

    fn band_spectrum(&self, pixels: &[f64]) -> Result<Vec<Complex>, LithoError> {
        let mut spectrum = self.spectrum_pool.take(self.spectrum_len());
        self.rplan
            .forward_band_into(pixels, &mut spectrum, self.reach)?;
        Ok(spectrum)
    }

    /// The gradient's final transform: `grad = Re[FFT(acc)]`, for a
    /// band-packed spectral accumulator.
    pub(crate) fn spectral_to_pixels(
        &self,
        acc: &[Complex],
        grad: &mut [f64],
    ) -> Result<(), LithoError> {
        Ok(self.rplan.forward_re_band_into(acc, grad, self.reach)?)
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
        let dose = self.config.dose(corner);
        let mut intensity = self.dose_free_intensity(self.kernel_set(corner), spectrum)?;
        for v in &mut intensity {
            *v *= dose;
        }
        Ok(Grid2D::from_vec(n, n, intensity))
    }

    /// The dose-free intensity `Σ_k μ_k |IFFT(H_k ⊙ spectrum)|²` on the
    /// mask grid, for one stack and a band-packed `spectrum`: its fields
    /// in one region, then its intensity on the calling thread. The
    /// buffer comes from the real pool; return it with
    /// `real_pool().put(...)` when done.
    pub(crate) fn dose_free_intensity(
        &self,
        set: &KernelSet,
        spectrum: &[Complex],
    ) -> Result<Vec<f64>, LithoError> {
        let stacks = [set];
        let fields = self.socs_fields(&stacks, spectrum)?;
        let [intensity, _] = self.per_stack(&stacks, Source::Kept(&fields), |_, j| Ok(j))?;
        self.recycle_fields(fields);
        Ok(intensity)
    }

    /// The imaging entry points on a mask, given its pooled band-packed
    /// `spectrum` (the mask FFT, on the calling thread): `f(d, J_d)` in
    /// one task per stack ([`LithoSimulator::per_stack`]), each task
    /// computing its stack's fields itself. One region. The spectrum goes
    /// back to its pool.
    pub(crate) fn image_stacks<R, F>(
        &self,
        spectrum: Vec<Complex>,
        f: F,
    ) -> Result<[R; 2], LithoError>
    where
        R: Default + Send,
        F: Fn(usize, Vec<f64>) -> Result<R, LithoError> + Sync,
    {
        let per_stack = self.per_stack(&self.stacks(), Source::Spectrum(&spectrum), f);
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
    /// exactly interpolated back ([`LithoSimulator::resample`]). At
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

    /// Phase 1 of the loss path: every stack's pupil-grid fields (at most
    /// one stack per focus), kept for the adjoint, one task per kernel in
    /// one region, stack-major and kernel-ascending. Each task runs its
    /// inverse serially in a pooled buffer
    /// ([`LithoSimulator::kernel_field`]).
    ///
    /// The caller returns the fields with
    /// [`LithoSimulator::recycle_fields`].
    ///
    /// # Panics
    ///
    /// Panics if `stacks` has more than two entries.
    pub(crate) fn socs_fields(
        &self,
        stacks: &[&KernelSet],
        spectrum: &[Complex],
    ) -> Result<Fields, LithoError> {
        self.check_stacks(stacks, spectrum)?;
        let s2 = self.pupil_size() * self.pupil_size();
        // offsets[d] is the first global task of stack d (prefix sums).
        let mut offsets = [0usize; 3];
        for (d, set) in stacks.iter().enumerate() {
            offsets[d + 1] = offsets[d] + set.kernels().len();
        }
        // Plan errors are unreachable (plan and buffers share one config)
        // but propagate as `LithoError::Fft`; pooled buffers from
        // completed kernels are dropped rather than repooled on that cold
        // path.
        let fields = par_map(offsets[stacks.len()], |t| -> Result<_, LithoError> {
            let d = usize::from(t >= offsets[1]);
            let mut field = self.field_pool.take(s2);
            self.kernel_field(&stacks[d].kernels()[t - offsets[d]], spectrum, &mut field)?;
            Ok(field)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        Ok(Fields { offsets, fields })
    }

    /// The per-stack phase: one task per stack, in one region. Task `d`
    /// sums stack `d`'s dose-free intensity `J_d = Σ_k μ_k |a_k|²` on the
    /// pupil grid in ascending `k` — from the fields `source` keeps, or
    /// computing them one at a time in one pooled buffer, since imaging
    /// needs no field after its sum — resamples it onto the mask grid
    /// below `S = N`, and returns `f(d, J_d)`. `J_d` comes from the real
    /// pool, and `f` returns it there or keeps it. Slots past the last
    /// stack hold `R::default()`.
    ///
    /// Each summation and each transform runs on its task's thread in a
    /// fixed order, so every output bit is the same at any worker count.
    /// The tasks run concurrently, so every pool they take from is first
    /// reserved for as many tasks as can run at once: two mask-grid real
    /// buffers per task (`J_d` and the loss path's `G_d`), two pupil-grid
    /// ones, one field buffer, and one resampling's spectra and transform
    /// scratch on each grid.
    pub(crate) fn per_stack<R, F>(
        &self,
        stacks: &[&KernelSet],
        source: Source<'_>,
        f: F,
    ) -> Result<[R; 2], LithoError>
    where
        R: Default + Send,
        F: Fn(usize, Vec<f64>) -> Result<R, LithoError> + Sync,
    {
        if let Source::Spectrum(spectrum) = source {
            self.check_stacks(stacks, spectrum)?;
        }
        let n = self.config.size;
        let s2 = self.pupil_size() * self.pupil_size();
        let width = region_width(stacks.len());
        self.real_pool.reserve(2 * width, n * n);
        self.field_pool.reserve(width, s2);
        if self.resampled() {
            self.pupil_real_pool.reserve(2 * width, s2);
            self.band_pool.reserve(width, n * (2 * self.band + 1));
            self.rplan.reserve(width);
            self.pupil_rplan.reserve(width);
        }
        let results = par_map(stacks.len(), |d| {
            let j = self.stack_intensity(stacks[d], d, source)?;
            f(d, j)
        });
        let mut out: [R; 2] = Default::default();
        for (slot, result) in out.iter_mut().zip(results) {
            *slot = result?;
        }
        Ok(out)
    }

    /// Stack `set`'s (the `d`-th stack's) dose-free mask-grid intensity,
    /// on the calling thread: `J = Σ_k μ_k |a_k|²` summed in ascending
    /// `k`, then resampled below `S = N`.
    fn stack_intensity(
        &self,
        set: &KernelSet,
        d: usize,
        source: Source<'_>,
    ) -> Result<Vec<f64>, LithoError> {
        let s2 = self.pupil_size() * self.pupil_size();
        let pool = self.pupil_real_pool();
        let mut j = pool.take_zeroed(s2);
        match source {
            Source::Kept(fields) => {
                for (kernel, field) in set.kernels().iter().zip(fields.stack(d)) {
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
            return Ok(j);
        }
        let mut fine = self.real_pool.take(self.config.size * self.config.size);
        let moved = self.resample(&j, &mut fine);
        pool.put(j);
        moved?;
        Ok(fine)
    }

    /// Returns [`Fields::fields`] to the field pool.
    pub(crate) fn recycle_fields(&self, fields: Fields) {
        for field in fields.fields {
            self.field_pool.put(field);
        }
    }

    /// Exact band-limited resampling of a real field between the pupil
    /// and mask grids, whichever way `src.len()` says: trigonometric
    /// interpolation from the pupil grid, or the `[−L, L]²` low-pass
    /// sampled at every `N/S`-th pixel from the mask grid. With `a` and
    /// `b` the source and destination edges,
    ///
    /// ```text
    /// dst = Re[ FFT_b( conj(FFT_a(src)) / a² on [−L, L]², 0 elsewhere ) ]
    /// ```
    ///
    /// which is `IFFT_b` of the source spectrum kept on the band and
    /// scaled by `b²/a²` — the conjugate turns the forward transform into
    /// the inverse on a real result. Both transforms use the real-input
    /// plans. `2L + 1 ≤ S ≤ N`, so the band's bins are distinct on both
    /// grids. Only the band's columns are ever read or written, so both
    /// spectra are band-packed (`2L + 1` columns; the mask side's from
    /// its own pool), not full grids.
    pub(crate) fn resample(&self, src: &[f64], dst: &mut [f64]) -> Result<(), LithoError> {
        let up = src.len() < dst.len();
        let ((from, from_pool), (to, to_pool)) = {
            let pupil = (&self.pupil_rplan, &self.field_pool);
            let mask = (&self.rplan, &self.band_pool);
            if up {
                (pupil, mask)
            } else {
                (mask, pupil)
            }
        };
        let (a, b) = (from.width(), to.width());
        let band = self.band;
        let m = 2 * band + 1;
        let mut spec = from_pool.take(a * m);
        from.forward_band_into(src, &mut spec, band)?;
        // Rows outside [−L, L] stay zero.
        let mut band_spec = to_pool.take_zeroed(b * m);
        let norm = 1.0 / (a * a) as f64;
        let l = band as i64;
        let wrap = |f: i64, m: usize| f.rem_euclid(m as i64) as usize;
        for fy in -l..=l {
            let (row_a, row_b) = (wrap(fy, a) * m, wrap(fy, b) * m);
            for fx in -l..=l {
                band_spec[row_b + wrap(fx, m)] = spec[row_a + wrap(fx, m)].conj().scale(norm);
            }
        }
        from_pool.put(spec);
        to.forward_re_band_into(&band_spec, dst, band)?;
        to_pool.put(band_spec);
        Ok(())
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
    /// corners, plus one resampling per focus below `S = N`, in two pool
    /// regions (the fields, then one task per stack). Each corner's dose
    /// is applied on the mask grid.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn aerial_corners(&self, mask: &Grid2D<f64>) -> Result<CornerImages, LithoError> {
        let n = self.config.size;
        let [in_focus, mut min] =
            self.image_stacks(self.mask_spectrum_pooled(mask)?, |_, j| Ok(j))?;
        // `Nominal` images at dose 1 (`LithoConfig::dose`): `J` itself.
        let dose_max = self.config.dose(ProcessCorner::Max);
        let mut max = self.real_pool.take(n * n);
        for (m, &j) in max.iter_mut().zip(&in_focus) {
            *m = dose_max * j;
        }
        let dose_min = self.config.dose(ProcessCorner::Min);
        for v in &mut min {
            *v *= dose_min;
        }
        Ok(CornerImages {
            nominal: Grid2D::from_vec(n, n, in_focus),
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
        let spectrum = self.bit_spectrum_pooled(mask)?;
        let intensity = self.dose_free_intensity(self.kernel_set(corner), &spectrum);
        self.spectrum_pool.put(spectrum);
        let intensity = intensity?;
        let printed = self.threshold(&intensity, corner);
        self.real_pool.put(intensity);
        Ok(printed)
    }

    /// Prints a binary mask at all corners (one FFT of the mask): the bits
    /// of [`LithoSimulator::resist_binary`] on each of
    /// [`LithoSimulator::aerial_corners`]' images, thresholded straight
    /// from each focus's dose-free intensity, whose buffers go back to the
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print_corners(&self, mask: &BitGrid) -> Result<[BitGrid; 3], LithoError> {
        let [in_focus, defocused] =
            self.image_stacks(self.bit_spectrum_pooled(mask)?, |_, j| Ok(j))?;
        let printed = [
            self.threshold(&in_focus, ProcessCorner::Nominal),
            self.threshold(&in_focus, ProcessCorner::Max),
            self.threshold(&defocused, ProcessCorner::Min),
        ];
        self.real_pool.put(in_focus);
        self.real_pool.put(defocused);
        Ok(printed)
    }

    /// The hard resist of `corner` on its focus's dose-free intensity `j`:
    /// `dose · J > I_th`. Multiplication is commutative and `Nominal`'s
    /// dose is exactly 1, so each product has the bits of the aerial
    /// image's pixel.
    fn threshold(&self, j: &[f64], corner: ProcessCorner) -> BitGrid {
        let n = self.size();
        let (dose, th) = (self.config.dose(corner), self.config.threshold);
        let prints = j.iter().map(|&v| dose * v > th).collect();
        BitGrid::from(Grid2D::from_vec(n, n, prints))
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
