//! Manual adjoint of the lithography forward model.
//!
//! There is no autodiff here: this module implements, by hand, the exact
//! gradient of the relaxed ILT loss (paper Eq. 6)
//!
//! ```text
//! L = w_l2 · ‖Z_nom − T‖² + w_pvb · (‖Z_max − T‖² + ‖Z_min − T‖²)
//! Z_c = σ(θ_z (I_c − I_th)),   I_c = dose_c · Σ_k μ_k |IFFT(H_k ⊙ FFT(M))|²
//! ```
//!
//! with respect to every pixel of the continuous mask `M`. Derivation
//! (per corner, per kernel, with `A_k = IFFT(H_k ⊙ F)`, `F = FFT(M)`):
//!
//! ```text
//! ∂L/∂I        = 2 w_c (Z − T) · θ_z Z (1 − Z)
//! ∂I/∂|A_k|²   = dose_c μ_k
//! ∂L/∂M        = Σ_k 2 dose_c μ_k · Re[ FFT( H_k ⊙ IFFT( G ⊙ conj(A_k) ) ) ]
//! ```
//!
//! where `G = ∂L/∂I` and the outer `FFT` is shared across kernels and
//! corners (the spectral contributions are accumulated sparsely on the
//! kernels' bins first, then transformed once). The fields `A_k` depend
//! only on the kernel stack, so `Nominal` and `Max` (one best-focus stack
//! at two doses) share theirs: the forward pass runs `K` IFFTs per
//! distinct focus, `2K` in all.
//!
//! The adjoint folds the same way. `IFFT` is linear, so for the corners
//! `c` of one stack `d`, with `c1` its first corner that carries weight,
//!
//! ```text
//! Σ_{c∈d} 2 dose_c μ_k · H_k ⊙ IFFT( G_c ⊙ conj(A_k) )
//!     = 2 dose_c1 μ_k · H_k ⊙ IFFT( G_d ⊙ conj(A_k) )
//! G_d = Σ_{c∈d} (dose_c / dose_c1) · ∂L/∂I_c
//! ```
//!
//! so the adjoint runs `K` IFFTs per weighted stack, `2K` at the default
//! weights. A stack with one weighted corner has `G_d = ∂L/∂I_c1` with no
//! ratio applied, so its arithmetic is exactly the per-corner adjoint's;
//! only folding two corners reorders float sums.
//!
//! **The pupil grid.** Every per-kernel transform above runs on the
//! stack's `S × S` pupil grid (`KernelSet::pupil_size`), not the `N × N`
//! mask grid. Kernel `k`'s bins `f` move to `f − c_k` (an integer centre
//! bin, wrapped mod `S`) and the forward scatter carries `S²/N²`, so
//!
//! ```text
//! a_k(y) = IFFT_S( (S²/N²) · (H_k ⊙ F)(· + c_k) )(y)
//!        = e^{−2πi c_k·y/S} · A_k(y·N/S)
//! ```
//!
//! `|a_k|²` samples `|A_k|²` at every `N/S`-th pixel, and `|A_k|²` lives
//! on `[−L, L]²` (`L` = `KernelSet::band`, the widest span of one
//! kernel's bins). With `2L + 1 ≤ S` those samples fix `I` exactly:
//! `I = IFFT_N( (N²/S²) · FFT_S(I_S) on [−L, L]² )` (the resampling of
//! `LithoSimulator::move_band`). The adjoint needs `G ⊙ conj(A_k)` only at
//! the frequencies `f − f'` between two of kernel `k`'s bins, all inside
//! `[−L, L]²`, so `G` may be replaced by its low-pass `G_L` — sampled on
//! the pupil grid, `G_S = IFFT_S( (S²/N²) · FFT_N(G) on [−L, L]² )`. The
//! read at bin `f` sums `G_L ⊙ conj(A_k) · e^{2πi f·x/N}`, whose
//! frequencies `g − f' + f` all lie in `[−2L, 2L]²`, so `2L + 1 ≤ S` keeps
//! every nonzero one from aliasing onto the sum, and the centre's phase
//! cancels:
//!
//! ```text
//! IFFT_N( G ⊙ conj(A_k) )(f) = IFFT_S( G_S ⊙ conj(a_k) )(f − c_k)
//! ```
//!
//! for every bin `f` of kernel `k`. Each such pupil-grid inverse is read
//! only on kernel `k`'s bins, so its column pass runs on kernel `k`'s
//! columns alone (`Kernel::columns`). At `S = N` nothing moves or is
//! resampled, and the arithmetic is the mask-grid path's bit for bit.
//!
//! A call therefore runs, at `S = N`, the mask FFT, `4K` kernel
//! transforms and the final `FFT`: `4K + 2`. Below it, the `4K` kernel
//! transforms are `S²`, and each focus's dose-free intensity
//! `J = Σ_k μ_k |a_k|²` and each weighted stack's `G_d` cost one `S²` and
//! one `N²` transform to resample: `6` mask-grid transforms at the
//! default weights, whatever `K` is. Each corner applies its dose to its
//! focus's `J` inside the resist kernel (`cfaopc_fft::simd::resist_corner`),
//! which also writes its `∂L/∂I` — or adds it, scaled by the dose ratio,
//! onto `c1`'s for the fold above.
//!
//! **Phases.** [`loss_and_gradient_into`] runs the mask FFT on the
//! calling thread, then one pool region with one task per focus stack
//! (`LithoSimulator::per_stack`), each capped at its share of the
//! caller's width, and each running its stack's whole SOCS pass:
//!
//! 1. the stack's `K` forward fields, one task per kernel in a region of
//!    the task's own when its share is wider than one worker;
//! 2. the stack's `J` summed and streamed (`crate::simulator`): below
//!    `S = N`, each upsampled row pair of `J` runs through the resist
//!    kernel at each of the stack's corners (the fold of `Max` onto
//!    `Nominal` stays inside the in-focus stack's task, and each corner's
//!    partial loss sums carry from pair to pair), and the pair's folded
//!    `G_d` goes straight into the downsampling's row pass, whose column
//!    pass runs after the last pair; no mask-grid `J` or `G_d` is ever
//!    whole;
//! 3. when one of its corners carries weight, the stack's adjoint over the
//!    same fields, one task per kernel capped like the fields, each
//!    writing its kernel's values into the kernel's own slots of the
//!    stack's own pooled buffer;
//!
//! and only then are the stack's fields returned to the pool. The adjoint
//! needs a stack's fields only for that stack's `G_d`, so at width 1,
//! where the stacks run one after the other, a call holds `K + 1`
//! pupil-grid field buffers at a time: one stack's fields and one adjoint
//! product. Every transform runs on the thread of the task that calls it.
//! The corner losses and the adjoint's values are merged after the
//! region, on the calling thread and in a fixed order (corner order;
//! stack-major and kernel-ascending), so every output bit is the same at
//! any worker count. That much is [`loss_and_spectral_gradient`]; the
//! mask is not read after it. The final `Re[FFT]` then runs on the
//! calling thread ([`GradientSpectrum::stream`]), one row pair at a time
//! into a [`GradientRows`] consumer: a grid for
//! [`loss_and_gradient_into`], the pixel-ILT loop's blur and step for
//! `cfaopc_ilt::run_pixel_ilt`, which so never holds a whole dL/dM.
//! [`loss_only`] needs no field after its stack's sum, so each of its
//! stack tasks computes its fields one at a time and stops after phase 2.
//!
//! **Band-packed spectra.** Every bin of every kernel lies within the
//! kernels' reach `R` along both axes, so the mask spectrum the fields
//! read and the spectral accumulator the adjoint's values are added into
//! keep only the `m = min(2R + 1, N)` columns with `|f| ≤ R`, column
//! `f mod m` holding frequency `f` (`crate::kernels`): `N × m` entries
//! instead of `N²`. The fields read each bin at its packed index
//! (`Kernel::packed`), the merge adds each value at the same index in the
//! order a full-grid accumulator took them, and the final transform
//! (`cfaopc_fft::Rfft2d::re_band_rows`) reads the packed layout with the
//! full layout's bits, so the gradient is unchanged to the bit.

use crate::config::{LithoError, NonFiniteTerm, ProcessCorner, RESIST_STEEPNESS};
use crate::kernels::KernelSet;
use crate::simulator::{Downsample, LithoSimulator, Source, StackRows};
use cfaopc_fft::parallel::par_map;
use cfaopc_fft::simd::{conj_mul_real, reduce_sums, resist_corner_sums, GradOut, ResistCorner};
use cfaopc_fft::Complex;
use cfaopc_grid::Grid2D;
use std::sync::Mutex;

/// Weights of the two loss terms (paper Eq. 6 uses `L = L2 + L_pvb`,
/// i.e. both 1).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LossWeights {
    /// Weight of the nominal-corner squared-L2 term.
    pub l2: f64,
    /// Weight of the process-variation term (outer + inner corners).
    pub pvb: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights { l2: 1.0, pvb: 1.0 }
    }
}

/// Relaxed loss values from one forward evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct LossValues {
    /// `‖Z_nom − T‖²` with the sigmoid resist.
    pub l2: f64,
    /// `‖Z_max − T‖² + ‖Z_min − T‖²` with the sigmoid resist.
    pub pvb: f64,
    /// Weighted total.
    pub total: f64,
}

impl LossValues {
    /// The first non-finite loss term, if any — the loss half of the
    /// numerical-health guard (`l2`, then `pvb`, then `total`).
    pub fn non_finite_term(&self) -> Option<NonFiniteTerm> {
        if !self.l2.is_finite() {
            Some(NonFiniteTerm::LossL2)
        } else if !self.pvb.is_finite() {
            Some(NonFiniteTerm::LossPvb)
        } else if !self.total.is_finite() {
            Some(NonFiniteTerm::LossTotal)
        } else {
            None
        }
    }
}

fn corner_plan(weights: LossWeights) -> [(ProcessCorner, f64); 3] {
    [
        (ProcessCorner::Nominal, weights.l2),
        (ProcessCorner::Max, weights.pvb),
        (ProcessCorner::Min, weights.pvb),
    ]
}

/// What one stack's stream returns to the loss ([`LossRows`]).
#[derive(Debug, Default)]
struct StackLoss {
    /// The losses of the stack's corners, in corner order.
    losses: [f64; 2],
    /// `(dose_c1, G_d)`: the stack's folded dL/dI on the pupil grid, when
    /// the gradient is wanted and one of its corners carries weight.
    folded: Option<(f64, Vec<f64>)>,
}

/// What one stack's task of [`loss_and_gradient_into`] returns.
#[derive(Debug, Default)]
struct StackGrad {
    /// The losses of the stack's corners, in corner order.
    losses: [f64; 2],
    /// The adjoint's value at every bin of every kernel of the stack, laid
    /// out by [`KernelSet::bin_range`], when one of its corners carries
    /// weight.
    bins: Option<Vec<Complex>>,
}

/// Where a corner's dL/dI goes.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Nowhere: no gradient, or no weight.
    Skip,
    /// Into `G_d`: the stack's first weighted corner `c1`.
    Write,
    /// Added onto `G_d`, scaled by `dose_c / dose_c1`.
    Add(f64),
}

/// Where a stack's folded dL/dI is built.
enum FoldTarget<'a> {
    /// At `S = N`, `G_d` itself, whole: the pupil-grid buffer the adjoint
    /// reads.
    Whole(Vec<f64>),
    /// Below `S = N`, row pair by row pair, downsampled on the way.
    Stream(Downsample<'a>),
}

/// The per-stack work of the relaxed loss, run in stack `d`'s task as its
/// dose-free intensity streams in ([`StackRows`]): each of the stack's
/// corners through the resist kernel at its own dose, its partial sums
/// carried from block to block — the one loss evaluation behind
/// [`loss_only`] and [`loss_and_gradient_into`], so their losses agree to
/// the bit. Row pairs are `2N ≡ 0 (mod 4)` pixels, so each pixel lands in
/// the partial sum of its index in the whole grid and every loss has the
/// bits of one kernel call over the whole intensity.
///
/// With `gradient`, each weighted corner's dL/dI is kept too. The adjoint
/// is linear in dL/dI and a stack's corners share its fields, so each
/// weighted corner's `g` folds onto the stack's first weighted corner
/// `c1` as `(dose_c / dose_c1) · g`, added by the kernel into `c1`'s rows
/// (the fold is per pixel, so doing it a row pair at a time changes no
/// bit). Below `S = N` the folded rows then stream to the pupil grid
/// ([`Downsample`]), since only `G_d`'s band `[−L, L]²` reaches the bins
/// the adjoint reads.
struct LossRows<'a> {
    sim: &'a LithoSimulator,
    target: &'a [f64],
    /// The stack's corners in corner order (one or two).
    corners: [Option<(ResistCorner, Fold)>; 2],
    /// Each corner's partial sums ([`resist_corner_sums`]).
    sums: [[f64; 4]; 2],
    /// `dose_c1` and where `G_d` is built, when it is wanted.
    folded: Option<(f64, FoldTarget<'a>)>,
}

impl<'a> LossRows<'a> {
    fn new(
        sim: &'a LithoSimulator,
        d: usize,
        target: &'a [f64],
        weights: LossWeights,
        gradient: bool,
    ) -> Self {
        let cfg = sim.config();
        let mut corners = [None; 2];
        let mut dose_1 = None;
        let stack = corner_plan(weights)
            .into_iter()
            .filter(|&(corner, _)| LithoSimulator::stack_of(corner) == d);
        for (slot, (corner, w_c)) in corners.iter_mut().zip(stack) {
            let dose = cfg.dose(corner);
            let fold = match dose_1 {
                _ if !gradient || w_c == 0.0 => Fold::Skip,
                Some(dose_1) => Fold::Add(dose / dose_1),
                None => {
                    dose_1 = Some(dose);
                    Fold::Write
                }
            };
            let resist = ResistCorner {
                steepness: RESIST_STEEPNESS,
                threshold: cfg.threshold,
                dose,
                weight: w_c,
            };
            *slot = Some((resist, fold));
        }
        let folded = dose_1.map(|dose| {
            let s2 = sim.pupil_size() * sim.pupil_size();
            let g = if sim.resampled() {
                FoldTarget::Stream(Downsample::new(sim))
            } else {
                // Fully overwritten by `c1`, so unspecified pool contents
                // are fine.
                FoldTarget::Whole(sim.pupil_real_pool().take(s2))
            };
            (dose, g)
        });
        LossRows {
            sim,
            target,
            corners,
            sums: [[0.0; 4]; 2],
            folded,
        }
    }
}

impl StackRows for LossRows<'_> {
    type Out = StackLoss;

    fn rows(&mut self, first: usize, j: &[f64]) -> Result<(), LithoError> {
        let at = first * self.sim.size();
        let target = &self.target[at..][..j.len()];
        let mut g = match &mut self.folded {
            None => None,
            Some((_, FoldTarget::Whole(g))) => Some(&mut g[at..][..j.len()]),
            Some((_, FoldTarget::Stream(down))) => Some(down.rows()),
        };
        let corners = self.corners.iter().flatten();
        for ((resist, fold), sums) in corners.zip(&mut self.sums) {
            let grad = match (*fold, g.as_deref_mut()) {
                (Fold::Write, Some(g)) => GradOut::Write(g),
                (Fold::Add(ratio), Some(g)) => GradOut::Add(g, ratio),
                _ => GradOut::Skip,
            };
            resist_corner_sums(j, target, resist, grad, sums);
        }
        if let Some((_, FoldTarget::Stream(down))) = &mut self.folded {
            down.push(first / 2)?;
        }
        Ok(())
    }

    fn finish(self) -> Result<StackLoss, LithoError> {
        let folded = match self.folded {
            None => None,
            Some((dose, FoldTarget::Whole(g))) => Some((dose, g)),
            Some((dose, FoldTarget::Stream(down))) => Some((dose, down.finish()?)),
        };
        Ok(StackLoss {
            losses: self.sums.map(|sums| reduce_sums(&sums)),
            folded,
        })
    }
}

/// The loss values from each stack's corner losses (in corner order),
/// merged after the per-stack region in corner order, so the sums are the
/// same at any worker count: `l2` is the nominal corner's loss and `pvb`
/// is `(0 + max) + min`.
fn merge_losses(weights: LossWeights, stacks: [[f64; 2]; 2]) -> LossValues {
    let mut values = LossValues::default();
    let mut next = [0usize; 2];
    for (corner, _) in corner_plan(weights) {
        let d = LithoSimulator::stack_of(corner);
        let corner_loss = stacks[d][next[d]];
        next[d] += 1;
        match corner {
            ProcessCorner::Nominal => values.l2 = corner_loss,
            _ => values.pvb += corner_loss,
        }
    }
    values.total = weights.l2 * values.l2 + weights.pvb * values.pvb;
    values
}

/// Stack `set`'s adjoint, in its task of [`loss_and_gradient_into`]: per
/// kernel, `b = G_d ⊙ conj(a_k)` on the pupil grid, then
/// `2·μ_k·dose_c1·H_k ⊙ IFFT(b)` read at the kernel's pupil bins into the
/// kernel's own slots of one pooled buffer of the stack's bins. One task
/// per kernel, in a region across the calling task's width; each takes
/// one `b` buffer.
fn stack_adjoint(
    sim: &LithoSimulator,
    set: &KernelSet,
    fields: &[Vec<Complex>],
    dose: f64,
    g: &[f64],
) -> Result<Vec<Complex>, LithoError> {
    let s2 = sim.pupil_size() * sim.pupil_size();
    let mut bins = sim.bins_pool().take(set.bin_count());
    let out = Mutex::new(bins.as_mut_slice());
    let results = par_map(set.kernels().len(), |k| -> Result<(), LithoError> {
        let kernel = &set.kernels()[k];
        let mut b = sim.field_pool().take(s2);
        conj_mul_real(&mut b, &fields[k], g);
        // The transform's output is only sampled on this kernel's bins
        // below, so the column pass can skip every column outside its
        // mask — sampled columns are bit-identical to the dense path.
        sim.pupil_plan().inverse_cols(&mut b, &kernel.columns)?;
        let scale = 2.0 * kernel.weight * dose;
        let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
        let slots = &mut out[set.bin_range(k)];
        for (slot, (&(_, h), &p)) in slots
            .iter_mut()
            .zip(kernel.spectrum.iter().zip(&kernel.pupil))
        {
            *slot = h * b[p as usize] * scale;
        }
        drop(out);
        sim.field_pool().put(b);
        Ok(())
    });
    for result in results {
        result?;
    }
    Ok(bins)
}

/// Evaluates the relaxed loss **and** its exact gradient with respect to
/// the continuous mask.
///
/// The returned gradient has the same shape as `mask`; descending it is
/// the pixel-level ILT step (paper §4.1), and chaining it through the
/// circle-to-pixel transformation is the circle-level step (paper §4.2,
/// Eq. 16).
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `mask` or `target` do not
/// match the simulator grid.
pub fn loss_and_gradient(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> Result<(LossValues, Grid2D<f64>), LithoError> {
    let mut grad = Grid2D::new(sim.size(), sim.size(), 0.0);
    let values = loss_and_gradient_into(sim, mask, target, weights, &mut grad)?;
    Ok((values, grad))
}

/// [`loss_and_gradient`] into a caller-owned gradient grid: the
/// [`GradientSpectrum`] of [`loss_and_spectral_gradient`], streamed into
/// `grad` one row pair at a time, in place.
///
/// All scratch (band-packed mask spectrum, pupil-grid fields, per-stack
/// intensity and dL/dI on the pupil grid and their mask-grid streams'
/// band buffers and row pairs, each stack's adjoint output, band-packed
/// spectral accumulator, the final transform's column buffer) comes from
/// the simulator's and its plans' buffer pools, and `grad` is fully
/// overwritten (reallocated only on a grid-size change) — so a caller
/// looping over iterations with a persistent `grad` sees **zero net heap
/// growth** in steady state: the allocations left (the regions'
/// bookkeeping and result lists) are freed before the call returns, and
/// none of them grows with the kernels' bins, as
/// `crates/core/tests/alloc.rs` enforces. [`loss_and_gradient`] is the
/// convenience wrapper that allocates a fresh grid per call.
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `mask` or `target` do not
/// match the simulator grid.
pub fn loss_and_gradient_into(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
    grad: &mut Grid2D<f64>,
) -> Result<LossValues, LithoError> {
    let _span = cfaopc_trace::span("litho.loss_and_gradient");
    let gradient = spectral_gradient(sim, mask, target, weights)?;
    let n = sim.size();
    if grad.width() != n || grad.height() != n {
        *grad = Grid2D::new(n, n, 0.0);
    }
    let values = gradient.values();
    gradient.stream(&mut GridRows(grad))?;
    Ok(values)
}

/// The relaxed loss and its gradient up to the last transform: everything
/// [`loss_and_gradient_into`] does before `Re[FFT]` turns the spectral
/// accumulator into dL/dM. The mask is read only here, so a caller can
/// step it while the gradient streams ([`GradientSpectrum::stream`]): the
/// pixel-ILT loop holds no mask-grid dL/dM of its own.
///
/// The `litho.loss_and_gradient` span times this part alone; the final
/// transform is timed with whatever its consumer does (the pixel ILT's
/// blur and step, under `ilt.pixel`).
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `mask` or `target` do not
/// match the simulator grid.
pub fn loss_and_spectral_gradient<'a>(
    sim: &'a LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> Result<GradientSpectrum<'a>, LithoError> {
    let _span = cfaopc_trace::span("litho.loss_and_gradient");
    spectral_gradient(sim, mask, target, weights)
}

/// A consumer of the gradient dL/dM, written into it by
/// [`GradientSpectrum::stream`] in blocks of whole rows, in row order and
/// each row once: two rows at a time (one block of the whole grid when it
/// has a single row). The stream writes each block where the consumer
/// says, so neither side copies it.
pub trait GradientRows {
    /// The `count · N` entries rows `first..first + count` are written
    /// into, row `first` first.
    fn rows_mut(&mut self, first: usize, count: usize) -> &mut [f64];

    /// Rows `first..first + count` are written into
    /// [`GradientRows::rows_mut`]'s entries.
    fn rows_done(&mut self, first: usize, count: usize);
}

/// An `N × N` grid taking each block in place: the whole gradient, as
/// [`loss_and_gradient_into`] returns it.
struct GridRows<'a>(&'a mut Grid2D<f64>);

impl GradientRows for GridRows<'_> {
    fn rows_mut(&mut self, first: usize, count: usize) -> &mut [f64] {
        let w = self.0.width();
        &mut self.0.as_mut_slice()[first * w..][..count * w]
    }

    fn rows_done(&mut self, _first: usize, _count: usize) {}
}

/// One loss evaluation whose gradient is still the band-packed spectral
/// accumulator, from [`loss_and_spectral_gradient`]: it borrows the
/// simulator only, and returns the accumulator to its pool when dropped.
#[derive(Debug)]
pub struct GradientSpectrum<'a> {
    sim: &'a LithoSimulator,
    values: LossValues,
    acc: Vec<Complex>,
}

impl GradientSpectrum<'_> {
    /// The loss values.
    pub fn values(&self) -> LossValues {
        self.values
    }

    /// Runs the final transform, dL/dM = `Re[FFT(acc)]`
    /// (`cfaopc_fft::Rfft2d::re_band_rows`), handing `rows` each row pair
    /// as it is made, with the bits of the whole grid's transform.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::Fft`] if a transform fails.
    pub fn stream<R: GradientRows + ?Sized>(self, rows: &mut R) -> Result<(), LithoError> {
        self.sim.spectral_rows(&self.acc, rows)
    }
}

impl Drop for GradientSpectrum<'_> {
    fn drop(&mut self) {
        self.sim.spectrum_pool().put(std::mem::take(&mut self.acc));
    }
}

/// [`loss_and_spectral_gradient`] without its span: the mask FFT, the
/// per-stack region and the merge of the stacks' adjoint values into the
/// spectral accumulator.
fn spectral_gradient<'a>(
    sim: &'a LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> Result<GradientSpectrum<'a>, LithoError> {
    let n = sim.size();
    if target.width() != n || target.height() != n {
        return Err(LithoError::ShapeMismatch {
            expected: (n, n),
            actual: (target.width(), target.height()),
        });
    }
    let stacks = sim.stacks();
    let spectrum = sim.mask_spectrum_pooled(mask)?;
    // Each stack's bins wait for the merge after the region.
    let most_bins = stacks.iter().map(|set| set.bin_count()).max();
    sim.bins_pool()
        .reserve(stacks.len(), most_bins.unwrap_or(0));
    // One task per stack: its fields, then its corners' resist, loss and
    // folded G_d — the per-stack work `loss_only` runs, on the same fields
    // summed in the same order, so the two agree to the bit — then its
    // adjoint over the same fields.
    let per_stack = sim.per_stack(&stacks, &spectrum, true, |d| {
        let set = stacks[d];
        let fields = sim.stack_fields(set, &spectrum)?;
        let streamed = sim.stack_rows(set, Source::Kept(&fields), || {
            LossRows::new(sim, d, target.as_slice(), weights, true)
        });
        let stack = streamed.and_then(|StackLoss { losses, folded }| {
            let bins = folded.map(|(dose, g)| {
                let bins = stack_adjoint(sim, set, &fields, dose, &g);
                sim.pupil_real_pool().put(g);
                bins
            });
            Ok(StackGrad {
                losses,
                bins: bins.transpose()?,
            })
        });
        sim.recycle_fields(fields);
        stack
    });
    sim.spectrum_pool().put(spectrum);
    let per_stack = per_stack?;
    let values = merge_losses(weights, per_stack.each_ref().map(|stack| stack.losses));

    // Band-packed spectral gradient accumulator: only the kernels' bins
    // are ever nonzero. Serial, stack-major and kernel-ascending
    // accumulation keeps the gradient bit-identical across thread counts.
    let mut acc = sim.spectrum_pool().take_zeroed(sim.spectrum_len());
    for (set, stack) in stacks.iter().zip(&per_stack) {
        let Some(bins) = &stack.bins else { continue };
        for (k, kernel) in set.kernels().iter().enumerate() {
            for (&b, &v) in kernel.packed.iter().zip(&bins[set.bin_range(k)]) {
                acc[b as usize] += v;
            }
        }
    }
    for bins in per_stack.into_iter().filter_map(|stack| stack.bins) {
        sim.bins_pool().put(bins);
    }
    Ok(GradientSpectrum { sim, values, acc })
}

/// Evaluates the relaxed loss only (no gradient) — cheaper when a line
/// search or a metric snapshot is all that is needed. It opens one pool
/// region, one task per stack, each computing its stack's fields one at
/// a time.
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] on shape mismatch.
pub fn loss_only(
    sim: &LithoSimulator,
    mask: &Grid2D<f64>,
    target: &Grid2D<f64>,
    weights: LossWeights,
) -> Result<LossValues, LithoError> {
    let _span = cfaopc_trace::span("litho.loss_only");
    let n = sim.size();
    if target.width() != n || target.height() != n {
        return Err(LithoError::ShapeMismatch {
            expected: (n, n),
            actual: (target.width(), target.height()),
        });
    }
    let per_stack = sim.image_stacks(sim.mask_spectrum_pooled(mask)?, |d| {
        LossRows::new(sim, d, target.as_slice(), weights, false)
    })?;
    Ok(merge_losses(weights, per_stack.map(|stack| stack.losses)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LithoConfig;
    use cfaopc_fft::simd::resist_corner;
    use cfaopc_grid::{fill_rect, BitGrid, Rect};

    fn small_sim() -> LithoSimulator {
        LithoSimulator::new(small_config()).unwrap()
    }

    fn small_config() -> LithoConfig {
        LithoConfig {
            size: 32,
            kernel_count: 4,
            ..LithoConfig::default()
        }
    }

    fn smooth_mask(n: usize) -> Grid2D<f64> {
        let mut g = Grid2D::new(n, n, 0.0);
        for y in 0..n {
            for x in 0..n {
                let fx = x as f64 / n as f64;
                let fy = y as f64 / n as f64;
                g[(x, y)] = 0.5
                    + 0.35
                        * (2.0 * std::f64::consts::PI * fx).sin()
                        * (2.0 * std::f64::consts::PI * fy).cos();
            }
        }
        g
    }

    fn target_square(n: usize) -> Grid2D<f64> {
        let mut t = BitGrid::new(n, n);
        let c = n as i32 / 2;
        fill_rect(&mut t, Rect::new(c - 6, c - 4, c + 6, c + 4));
        t.to_real()
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Both terms; the nominal corner alone, so the adjoint skips both
        // zero-weight corners; the process-variation corners alone; doses
        // far from 1, so a fold that drops `Max`'s dose, applies it twice
        // or inverts its ratio, or a `Min` adjoint without its dose,
        // moves the gradient well past the tolerance.
        let cases = [
            (small_config(), LossWeights::default()),
            (small_config(), LossWeights { l2: 1.0, pvb: 0.0 }),
            (small_config(), LossWeights { l2: 0.0, pvb: 1.0 }),
            (
                LithoConfig {
                    dose_max: 1.3,
                    dose_min: 0.7,
                    ..small_config()
                },
                LossWeights::default(),
            ),
            // 128 px on the 2048 nm tile: a 64-bin pupil grid, so the
            // intensity and dL/dI are resampled between the grids.
            (
                LithoConfig {
                    size: 128,
                    ..small_config()
                },
                LossWeights::default(),
            ),
        ];
        for (cfg, weights) in cases {
            let doses = (cfg.dose_max, cfg.dose_min);
            let sim = LithoSimulator::new(cfg).unwrap();
            let n = sim.size();
            let mask = smooth_mask(n);
            let target = target_square(n);
            let (_, grad) = loss_and_gradient(&sim, &mask, &target, weights).unwrap();

            let eps = 1e-5;
            // The probes scale with the grid, so the 32 px cases keep
            // theirs.
            let probes = [(16usize, 16usize), (10, 20), (3, 3), (25, 12), (16, 10)];
            for (x, y) in probes.map(|(x, y)| (x * n / 32, y * n / 32)) {
                let mut plus = mask.clone();
                plus[(x, y)] += eps;
                let mut minus = mask.clone();
                minus[(x, y)] -= eps;
                let lp = loss_only(&sim, &plus, &target, weights).unwrap().total;
                let lm = loss_only(&sim, &minus, &target, weights).unwrap().total;
                let fd = (lp - lm) / (2.0 * eps);
                let an = grad[(x, y)];
                let denom = fd.abs().max(an.abs()).max(1e-6);
                assert!(
                    (fd - an).abs() / denom < 1e-3,
                    "{n} px, doses {doses:?}, {weights:?}: gradient mismatch \
                     at ({x},{y}): fd={fd}, analytic={an}"
                );
            }
        }
    }

    #[test]
    fn loss_and_gradient_agree_with_loss_only() {
        let sim = small_sim();
        let n = sim.size();
        let mask = smooth_mask(n);
        let target = target_square(n);
        let weights = LossWeights { l2: 1.0, pvb: 0.5 };
        let (v1, _) = loss_and_gradient(&sim, &mask, &target, weights).unwrap();
        let v2 = loss_only(&sim, &mask, &target, weights).unwrap();
        // Both paths run the same forward arithmetic in the same order,
        // so the loss values agree to the bit.
        assert_eq!(v1.l2.to_bits(), v2.l2.to_bits());
        assert_eq!(v1.pvb.to_bits(), v2.pvb.to_bits());
        assert_eq!(v1.total.to_bits(), v2.total.to_bits());
    }

    #[test]
    fn loss_only_is_the_resist_of_the_corner_images() {
        // The loss applies each corner's dose to its focus's intensity
        // inside the resist kernel; `aerial_corners` applies it on the
        // mask grid. Both form θ·(dose·J − I_th) from the same `dose·J`,
        // so the loss is the kernel run on the corner images at dose 1,
        // bit for bit — at S = N and below it.
        let resampled = LithoSimulator::new(LithoConfig {
            size: 128,
            ..small_config()
        })
        .unwrap();
        assert!(resampled.pupil_size() < resampled.size());
        for sim in [small_sim(), resampled] {
            let n = sim.size();
            let (mask, target) = (smooth_mask(n), target_square(n));
            let images = sim.aerial_corners(&mask).unwrap();
            let cfg = sim.config();
            let params = ResistCorner {
                steepness: RESIST_STEEPNESS,
                threshold: cfg.threshold,
                dose: 1.0,
                weight: 1.0,
            };
            let resist = |image: &Grid2D<f64>| {
                resist_corner(image.as_slice(), target.as_slice(), &params, GradOut::Skip)
            };
            let values = loss_only(&sim, &mask, &target, LossWeights::default()).unwrap();
            assert_eq!(
                values.l2.to_bits(),
                resist(&images.nominal).to_bits(),
                "{n} px"
            );
            let pvb = resist(&images.max) + resist(&images.min);
            assert_eq!(values.pvb.to_bits(), pvb.to_bits(), "{n} px");
        }
    }

    #[test]
    fn perfect_target_match_has_small_gradient_at_plateau() {
        // A mask equal to an easily-printable target yields a much smaller
        // loss than an empty mask.
        let sim = small_sim();
        let n = sim.size();
        let target = target_square(n);
        let weights = LossWeights::default();
        let good = loss_only(&sim, &target, &target, weights).unwrap().total;
        let empty = loss_only(&sim, &Grid2D::new(n, n, 0.0), &target, weights)
            .unwrap()
            .total;
        assert!(good < empty, "printing the target beats printing nothing");
    }

    #[test]
    fn descending_the_gradient_reduces_the_loss() {
        let sim = small_sim();
        let n = sim.size();
        let target = target_square(n);
        let mut mask = target.clone();
        let weights = LossWeights::default();
        let (before, grad) = loss_and_gradient(&sim, &mask, &target, weights).unwrap();
        let norm: f64 = grad.as_slice().iter().map(|g| g * g).sum::<f64>().sqrt();
        let step = 0.05 / norm.max(1e-12);
        for (m, g) in mask.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *m = (*m - step * g).clamp(0.0, 1.0);
        }
        let after = loss_only(&sim, &mask, &target, weights).unwrap();
        assert!(
            after.total <= before.total,
            "descent step increased loss: {} -> {}",
            before.total,
            after.total
        );
    }

    #[test]
    fn zero_weights_zero_gradient() {
        let sim = small_sim();
        let n = sim.size();
        let mask = smooth_mask(n);
        let target = target_square(n);
        let (v, grad) =
            loss_and_gradient(&sim, &mask, &target, LossWeights { l2: 0.0, pvb: 0.0 }).unwrap();
        assert_eq!(v.total, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn rejects_mismatched_target() {
        let sim = small_sim();
        let n = sim.size();
        let mask = Grid2D::new(n, n, 0.0);
        let target = Grid2D::new(8, 8, 0.0);
        assert!(loss_and_gradient(&sim, &mask, &target, LossWeights::default()).is_err());
        assert!(loss_only(&sim, &mask, &target, LossWeights::default()).is_err());
    }
}
