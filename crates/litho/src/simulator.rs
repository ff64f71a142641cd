//! The forward lithography model: Hopkins aerial image (Eq. 1) and the
//! threshold / sigmoid resist (Eq. 2).

use crate::config::{LithoConfig, LithoError, ProcessCorner};
use crate::kernels::KernelSet;
use cfaopc_fft::parallel::{par_for, region_width};
use cfaopc_fft::simd::accumulate_norm_sqr;
use cfaopc_fft::{BufferPool, Complex, Fft2d, Rfft2d};
use cfaopc_grid::{BitGrid, Grid2D};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

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

/// A reusable lithography simulator: FFT plan plus the SOCS kernel stacks
/// for a fixed grid size — one per distinct focus, shared by every corner
/// imaged at that focus.
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
    plan: Fft2d,
    /// Real-input plan for the mask FFT and the gradient's final
    /// `Re[FFT(·)]` — both touch only real data on one side, so the
    /// Hermitian-symmetry plan halves their transform work.
    rplan: Rfft2d,
    /// The best-focus stack. A stack depends only on focus, and
    /// [`LithoConfig::defocus`] puts `Nominal` and `Max` at the same best
    /// focus (they differ only in dose), so both image through this one.
    in_focus: KernelSet,
    /// The `Min` corner's defocused stack.
    defocused: KernelSet,
    /// Recycled full-grid complex field buffers for the per-kernel
    /// convolutions (shared with the adjoint pass), so the steady-state
    /// forward model performs no per-call field allocations.
    field_pool: BufferPool<Complex>,
    /// Recycled full-grid real scratch (intensity, dL/dI) for the loss
    /// and gradient path.
    real_pool: BufferPool<f64>,
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
        let plan = Fft2d::square(config.size).map_err(|_| LithoError::BadGridSize(config.size))?;
        let rplan =
            Rfft2d::square(config.size).map_err(|_| LithoError::BadGridSize(config.size))?;
        Ok(LithoSimulator {
            in_focus: KernelSet::generate(&config, ProcessCorner::Nominal)?,
            defocused: KernelSet::generate(&config, ProcessCorner::Min)?,
            plan,
            rplan,
            config,
            field_pool: BufferPool::new(),
            real_pool: BufferPool::new(),
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

    /// The kernel stack for `corner`. `Nominal` and `Max` share the same
    /// best-focus stack (the same allocation, not a copy).
    pub fn kernel_set(&self, corner: ProcessCorner) -> &KernelSet {
        match corner {
            ProcessCorner::Nominal | ProcessCorner::Max => &self.in_focus,
            ProcessCorner::Min => &self.defocused,
        }
    }

    /// The FFT plan (shared with the adjoint pass).
    #[inline]
    pub fn plan(&self) -> &Fft2d {
        &self.plan
    }

    /// The real-input FFT plan (mask spectrum, gradient's final
    /// `Re[FFT(·)]`).
    #[inline]
    pub fn rplan(&self) -> &Rfft2d {
        &self.rplan
    }

    /// The simulator's shared scratch pool for full-grid complex fields
    /// (used by the gradient's adjoint pass as well).
    #[inline]
    pub(crate) fn field_pool(&self) -> &BufferPool<Complex> {
        &self.field_pool
    }

    /// The simulator's shared scratch pool for full-grid real buffers
    /// (per-corner intensity and dL/dI in the loss path).
    #[inline]
    pub(crate) fn real_pool(&self) -> &BufferPool<f64> {
        &self.real_pool
    }

    fn check_mask(&self, mask: &Grid2D<f64>) -> Result<(), LithoError> {
        if mask.width() != self.config.size || mask.height() != self.config.size {
            return Err(LithoError::ShapeMismatch {
                expected: (self.config.size, self.config.size),
                actual: (mask.width(), mask.height()),
            });
        }
        Ok(())
    }

    /// Forward FFT of a real-valued mask via the Hermitian-symmetry
    /// real-input plan (half the row transforms of the complex plan).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] when the mask shape differs
    /// from the simulator grid.
    pub fn mask_spectrum(&self, mask: &Grid2D<f64>) -> Result<Vec<Complex>, LithoError> {
        self.check_mask(mask)?;
        let mut spectrum = vec![Complex::ZERO; mask.as_slice().len()];
        self.rplan.forward_into(mask.as_slice(), &mut spectrum)?;
        Ok(spectrum)
    }

    /// [`LithoSimulator::mask_spectrum`] into a pooled buffer; return it
    /// with `field_pool().put(...)` when done.
    pub(crate) fn mask_spectrum_pooled(
        &self,
        mask: &Grid2D<f64>,
    ) -> Result<Vec<Complex>, LithoError> {
        self.check_mask(mask)?;
        let mut spectrum = self.field_pool.take(mask.as_slice().len());
        self.rplan.forward_into(mask.as_slice(), &mut spectrum)?;
        Ok(spectrum)
    }

    /// Aerial image from a precomputed mask spectrum.
    ///
    /// `I(x) = dose(corner) · Σ_k μ_k |IFFT(H_k ⊙ F)(x)|²` — paper Eq. 1
    /// with the corner's dose folded in. Kernels are evaluated in a single
    /// flat parallel region on the persistent pool.
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
        let n = self.config.size;
        let set = self.kernel_set(corner);
        let dose = self.config.dose(corner);
        let intensity = self.accumulate_intensity(set, spectrum, dose)?;
        Ok(Grid2D::from_vec(n, n, intensity))
    }

    /// Shared SOCS intensity accumulation:
    /// `scale · Σ_k μ_k |IFFT(H_k ⊙ spectrum)|²`.
    ///
    /// One **flat** parallel region spans the kernels — each task runs its
    /// IFFT serially on its claimed thread (no nested regions to thrash the
    /// pool) in a pooled field buffer (no per-kernel allocations). Kernel
    /// partials merge into the single accumulator through an ordered
    /// turnstile, strictly in kernel order, so the floating-point sum is
    /// **bit-identical** between serial (`CFAOPC_THREADS=1`) and parallel
    /// runs. Claims are handed out in increasing `k`, so turnstile waits
    /// are short in practice.
    pub(crate) fn accumulate_intensity(
        &self,
        set: &KernelSet,
        spectrum: &[Complex],
        scale: f64,
    ) -> Result<Vec<f64>, LithoError> {
        let mut images = self.accumulate_intensity_multi(&[(set, scale)], spectrum)?;
        Ok(images.pop().unwrap_or_default())
    }

    /// Batched variant of [`LithoSimulator::accumulate_intensity`]: one
    /// image per `(stack, scale)` entry, all computed in **one** flat
    /// parallel region.
    ///
    /// Entries naming the same stack (by identity, as `Nominal` and `Max`
    /// do) share its coherent fields: each distinct stack's `K` IFFTs run
    /// once and feed every image that uses it. Task `t` maps to (distinct
    /// stack `d`, kernel `k`) in stack-major, kernel-ascending order, and
    /// the turnstile orders merges by the global task index. Each image
    /// therefore still sees its own stack's kernels strictly in ascending
    /// `k`, each `|A_k|²` weighted by `μ_k · scale` — the same summation
    /// as separate per-entry calls — so batching and sharing are
    /// bit-identical to the per-corner path while keeping every worker
    /// busy across stack boundaries.
    ///
    /// When `kernel_energy_floor < 1.0` the tail of each (weight-sorted)
    /// stack is skipped per [`KernelSet::active_count`].
    pub(crate) fn accumulate_intensity_multi(
        &self,
        stacks: &[(&KernelSet, f64)],
        spectrum: &[Complex],
    ) -> Result<Vec<Vec<f64>>, LithoError> {
        let n = self.config.size;
        let n2 = n * n;
        if spectrum.len() != n2 {
            return Err(LithoError::BadParameter(format!(
                "spectrum has {} entries but the {n}x{n} grid needs {n2}",
                spectrum.len(),
            )));
        }
        let shared = SharedStacks::new(stacks);
        let floor = self.config.kernel_energy_floor;
        // offsets[d] is the first global task of distinct stack d (prefix
        // sums).
        let mut offsets = [0usize; 4];
        for d in 0..shared.count {
            offsets[d + 1] = offsets[d] + stacks[shared.first[d]].0.active_count(floor);
        }
        let total = offsets[shared.count];
        let images: Vec<Vec<f64>> = stacks.iter().map(|_| vec![0.0f64; n2]).collect();
        // (next task allowed to merge, per-stack accumulators) under one
        // lock.
        let merge = Mutex::new((0usize, images));
        let turnstile = Condvar::new();
        // Each running task holds one field (until its merge turn).
        self.field_pool.reserve(region_width(total), n2);
        par_for(total, |t| {
            let d = offsets[1..=shared.count]
                .iter()
                .position(|&o| t < o)
                .unwrap_or(shared.count - 1);
            let set = stacks[shared.first[d]].0;
            let k = t - offsets[d];
            // Catching here keeps a panicking kernel from wedging the
            // turnstile: the turn advances no matter how compute ends.
            let computed = catch_unwind(AssertUnwindSafe(|| {
                let mut field = self.field_pool.take(n2);
                set.apply(k, spectrum, &mut field);
                // Kernel spectra are band-limited to the pupil, so most
                // rows of the product are all-zero: the sparse inverse
                // skips them.
                self.plan
                    .inverse_serial_sparse(&mut field)
                    .expect("plan matches grid by construction");
                field
            }));
            let weight = set.kernels()[k].weight;
            let mut guard = merge.lock().unwrap_or_else(|e| e.into_inner());
            while guard.0 != t {
                guard = turnstile.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            if let Ok(field) = &computed {
                for (i, image) in guard.1.iter_mut().enumerate() {
                    if shared.of[i] == d {
                        accumulate_norm_sqr(image, field, weight * stacks[i].1);
                    }
                }
            }
            guard.0 += 1;
            turnstile.notify_all();
            drop(guard);
            match computed {
                Ok(field) => self.field_pool.put(field),
                Err(payload) => resume_unwind(payload),
            }
        });
        let (_, images) = merge.into_inner().unwrap_or_else(|e| e.into_inner());
        Ok(images)
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
        let spectrum = self.mask_spectrum(mask)?;
        self.aerial_from_spectrum(&spectrum, corner)
    }

    /// Aerial images at all three corners, sharing one mask FFT, one
    /// batched parallel region, and the in-focus fields that `Nominal` and
    /// `Max` both use: `2K` kernel IFFTs for the three corners.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn aerial_corners(&self, mask: &Grid2D<f64>) -> Result<CornerImages, LithoError> {
        let n = self.config.size;
        let spectrum = self.mask_spectrum_pooled(mask)?;
        let stacks = [
            ProcessCorner::Nominal,
            ProcessCorner::Max,
            ProcessCorner::Min,
        ]
        .map(|corner| (self.kernel_set(corner), self.config.dose(corner)));
        let mut images = self.accumulate_intensity_multi(&stacks, &spectrum)?;
        self.field_pool.put(spectrum);
        let min = Grid2D::from_vec(n, n, images.pop().unwrap_or_default());
        let max = Grid2D::from_vec(n, n, images.pop().unwrap_or_default());
        let nominal = Grid2D::from_vec(n, n, images.pop().unwrap_or_default());
        Ok(CornerImages { nominal, max, min })
    }

    /// Hard-threshold resist (paper Eq. 2): `Z = 1` where `I > I_th`.
    pub fn resist_binary(&self, aerial: &Grid2D<f64>) -> BitGrid {
        BitGrid::from_threshold(aerial, self.config.threshold)
    }

    /// Relaxed sigmoid resist used inside losses:
    /// `Z = 1 / (1 + e^{-θ_z (I - I_th)})`.
    pub fn resist_sigmoid(&self, aerial: &Grid2D<f64>) -> Grid2D<f64> {
        let th = self.config.threshold;
        let steep = self.config.resist_steepness;
        aerial.map(|&i| sigmoid_sat(steep * (i - th)))
    }

    /// Prints a binary mask at one corner: aerial image + hard resist.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print(&self, mask: &BitGrid, corner: ProcessCorner) -> Result<BitGrid, LithoError> {
        let aerial = self.aerial_image(&mask.to_real(), corner)?;
        Ok(self.resist_binary(&aerial))
    }

    /// Prints a binary mask at all corners (one FFT of the mask).
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
    pub fn print_corners(&self, mask: &BitGrid) -> Result<[BitGrid; 3], LithoError> {
        let images = self.aerial_corners(&mask.to_real())?;
        Ok([
            self.resist_binary(&images.nominal),
            self.resist_binary(&images.max),
            self.resist_binary(&images.min),
        ])
    }
}

/// Which entries of a per-image `(stack, scale)` list (at most one per
/// process corner) name the same kernel stack, compared by identity.
///
/// Distinct stacks are numbered in order of first appearance, so the entry
/// order alone fixes the forward task order. Fixed arrays keep the map off
/// the heap in the hot paths.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedStacks {
    /// Distinct-stack index of each entry.
    pub(crate) of: [usize; 3],
    /// Entry index at which each distinct stack first appears.
    pub(crate) first: [usize; 3],
    /// Number of distinct stacks.
    pub(crate) count: usize,
}

impl SharedStacks {
    /// Groups `stacks` by stack identity.
    ///
    /// # Panics
    ///
    /// Panics if `stacks` has more than three entries.
    pub(crate) fn new(stacks: &[(&KernelSet, f64)]) -> Self {
        assert!(stacks.len() <= 3, "at most one stack per process corner");
        let mut shared = SharedStacks {
            of: [0; 3],
            first: [0; 3],
            count: 0,
        };
        for (i, &(set, _)) in stacks.iter().enumerate() {
            let seen = (0..shared.count).find(|&d| std::ptr::eq(stacks[shared.first[d]].0, set));
            shared.of[i] = seen.unwrap_or_else(|| {
                shared.first[shared.count] = i;
                shared.count += 1;
                shared.count - 1
            });
        }
        shared
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

/// Saturation threshold for [`sigmoid_sat`].
///
/// For `x ≥ 37`, `e^{-x} < 2^{-53} = ulp(1.0)/2`, so `1.0 + e^{-x}`
/// rounds to exactly `1.0` and `sigmoid(x) == 1.0` bit-for-bit. 40 keeps
/// a safety margin over that bound while still short-circuiting the vast
/// majority of saturated resist pixels.
pub const SIGMOID_SAT: f64 = 40.0;

/// [`sigmoid`] with an exact saturation shortcut: for `x ≥`
/// [`SIGMOID_SAT`] the `exp` call is skipped and `1.0` returned directly,
/// which is bit-identical to evaluating the full expression (see the
/// constant's docs for the rounding argument). Steep resist models push
/// most in-feature pixels deep into saturation, so this removes the bulk
/// of the `exp` calls from the loss path.
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
