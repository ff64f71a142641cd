//! Pixel-level ILT: gradient descent on a latent pixel field (paper §4.1).
//!
//! The mask is parameterized as `M = σ(θ_m · P)` with an unconstrained
//! latent field `P` (the shifted-sigmoid binarization of MOSAIC/MultiILT);
//! the loss is the relaxed `L2 + L_pvb` of Eq. 6 and its gradient comes
//! from the hand-derived adjoint in `cfaopc-litho`.
//!
//! The mask-grid gradient dL/dM is never whole: it streams out of the
//! litho call's last transform one row pair at a time, through the
//! gradient blur's passes (each a 3-row window over the pass below it)
//! into the fused per-pixel step, row by row. A run holds five `N²` grids
//! (the target, the latent, Adam's two moments and the mask), four when
//! the latent is a warm start moved in.

use crate::optimizer::Optimizer;
use cfaopc_fft::simd::{latent_mask, PixelStep, PixelStepStats};
use cfaopc_grid::{dilate, BitGrid, Grid2D, Structuring};
use cfaopc_litho::{
    loss_and_spectral_gradient, CancelToken, GradientRows, LithoError, LithoSimulator, LossValues,
    LossWeights, NonFiniteTerm,
};
use cfaopc_trace::{IterationRecord, Stage, TelemetrySink};

/// Where latent pixels are allowed to move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateDomain {
    /// Every pixel optimizes — SRAFs can nucleate anywhere (MOSAIC; the
    /// level set too, whose gradient vanishes away from its front).
    Full,
    /// Only pixels within `halo_nm` of the target may change — masks stay
    /// near the main features (the NeuralILT- and MultiILT-like
    /// profiles).
    NearTarget {
        /// Halo radius around the target, nanometres.
        halo_nm: f64,
    },
}

/// Configuration of one pixel-level ILT run.
#[derive(Debug, Clone, PartialEq)]
pub struct PixelIltConfig {
    /// Gradient steps.
    pub iterations: usize,
    /// Adam's learning rate.
    pub lr: f64,
    /// Loss term weights (Eq. 6 uses 1/1).
    pub weights: LossWeights,
    /// Steepness `θ_m` of the mask sigmoid (paper §4.1 follows \[10\]).
    pub mask_steepness: f64,
    /// Update domain.
    pub domain: UpdateDomain,
    /// 3×3 box-blur passes applied to the mask gradient before the chain
    /// rule — smoother gradients yield smoother, lower-complexity masks
    /// (the surrogate for the neural regularization of Neural-ILT).
    pub grad_smoothing: usize,
}

impl Default for PixelIltConfig {
    fn default() -> Self {
        PixelIltConfig {
            iterations: 30,
            lr: 0.2,
            weights: LossWeights::default(),
            mask_steepness: 4.0,
            domain: UpdateDomain::Full,
            grad_smoothing: 0,
        }
    }
}

/// Outcome of a pixel-level ILT run.
#[derive(Debug, Clone)]
pub struct IltResult {
    /// Final latent field.
    pub latent: Grid2D<f64>,
    /// Final continuous mask `σ(θ_m P)`.
    pub mask_continuous: Grid2D<f64>,
    /// Final binary mask (continuous mask thresholded at 0.5).
    pub mask_binary: BitGrid,
    /// Relaxed loss after every iteration (index 0 = after the first step).
    pub loss_history: Vec<LossValues>,
}

/// Per-run inputs of an optimizer entry point: this crate's
/// [`run_pixel_ilt`] and `cfaopc_core::run_circleopt`.
/// `RunCtx::default()` is a plain run.
pub struct RunCtx<'a, I> {
    /// Warm start in the optimizer's own parameters (a pixel latent here,
    /// circles for CircleOpt), replacing its initialization.
    pub init: Option<I>,
    /// Receives one [`IterationRecord`] per optimizer step. Attaching a
    /// sink never changes the optimization: results are bit-identical to
    /// the untraced run.
    pub sink: Option<&'a mut dyn TelemetrySink>,
    /// Polled once at the top of every iteration; a cancelled token aborts
    /// with [`LithoError::Cancelled`] before any further simulation work,
    /// leaving the simulator's shared state (kernels, FFT plans, buffer
    /// pools) and the worker pool fully reusable, the same exit as the
    /// [`LithoError::NonFinite`] health guard.
    pub cancel: Option<&'a CancelToken>,
}

impl<I> Default for RunCtx<'_, I> {
    fn default() -> Self {
        RunCtx {
            init: None,
            sink: None,
            cancel: None,
        }
    }
}

/// Runs pixel-level ILT for `target` on `sim`.
///
/// The latent starts at `P = +1` inside the target and `−1` outside, or
/// at `ctx.init`, a warm-start latent (the multi-resolution engine
/// warm-starts finer levels with it, the level set each chunk between
/// re-initializations). The sink receives stage
/// [`Stage::PixelIlt`] records, where `active` counts mask pixels above
/// 0.5.
///
/// Each iteration evaluates the loss up to the gradient's last transform
/// ([`loss_and_spectral_gradient`]), then streams dL/dM row pair by row
/// pair ([`cfaopc_litho::GradientSpectrum::stream`]) through the
/// optional gradient blur into one fused pass per row
/// ([`cfaopc_fft::simd::PixelStep`]): the chain rule through the mask
/// sigmoid, the latent gradient's norms, the Adam step and the next mask,
/// on the calling thread. Every bit is that of the whole-grid loop —
/// the gradient into a grid, each blur pass over the whole grid, then
/// one [`cfaopc_fft::simd::pixel_ilt_step`] — which holds two more grids.
///
/// Every iteration the numerical-health guard then checks the loss terms
/// and the latent gradient's L2/L∞ norms; a NaN or Inf aborts the run
/// with [`LithoError::NonFinite`] naming the iteration and offending term
/// (the poisoned record is still delivered to the sink first, for
/// post-mortems; the already stepped latent is dropped).
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `target` or the warm-start
/// latent does not match the simulator grid, [`LithoError::NonFinite`]
/// when the health guard trips, or [`LithoError::Cancelled`] when
/// `ctx.cancel` fires mid-run.
pub fn run_pixel_ilt(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &PixelIltConfig,
    ctx: RunCtx<'_, Grid2D<f64>>,
) -> Result<IltResult, LithoError> {
    let RunCtx {
        init,
        mut sink,
        cancel,
    } = ctx;
    let _span = cfaopc_trace::span("ilt.pixel");
    let n = sim.size();
    if target.width() != n || target.height() != n {
        return Err(LithoError::ShapeMismatch {
            expected: (n, n),
            actual: (target.width(), target.height()),
        });
    }
    if let Some(l) = &init {
        if l.width() != n || l.height() != n {
            return Err(LithoError::ShapeMismatch {
                expected: (n, n),
                actual: (l.width(), l.height()),
            });
        }
    }
    let target_real = target.to_real();

    // Latent init: explicit warm start, or ±1 inside/outside the target.
    let mut latent: Vec<f64> = match init {
        Some(l) => l.into_vec(),
        None => target
            .as_grid()
            .as_slice()
            .iter()
            .map(|&inside| if inside { 1.0 } else { -1.0 })
            .collect(),
    };

    // Domain indicator.
    let domain: Option<Vec<bool>> = match config.domain {
        UpdateDomain::Full => None,
        UpdateDomain::NearTarget { halo_nm } => {
            let halo_px = sim.config().nm_to_px(halo_nm).round().max(1.0) as i32;
            let allowed = dilate(target, Structuring::Disk(halo_px));
            Some(allowed.as_grid().as_slice().to_vec())
        }
    };

    let theta = config.mask_steepness;
    let mut optimizer = Optimizer::new(config.lr, latent.len());
    let mut history = Vec::with_capacity(config.iterations);
    // The mask and the blur's row windows are reused every iteration, so
    // a steady-state iteration allocates no grid (`tests/alloc.rs` in
    // `cfaopc-core`).
    let mut mask = Grid2D::new(n, n, 0.0);
    latent_mask(&latent, theta, mask.as_mut_slice());
    let mut windows = vec![0.0; BlurRows::window_len(n, config.grad_smoothing)];

    for it in 0..config.iterations {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(LithoError::Cancelled { iteration: it });
        }
        let gradient = loss_and_spectral_gradient(sim, &mask, &target_real, config.weights)?;
        let values = gradient.values();
        history.push(values);
        // The mask is stepped as dL/dM streams in: one fused pass per row
        // (dL/dP = dL/dM · θ m (1 − m), 0 outside the domain; the
        // gradient norms; this iteration's Adam step; the next mask
        // σ(θ P)), after the blur's passes.
        let step = PixelStep::new(
            mask.as_mut_slice(),
            &mut latent,
            domain.as_deref(),
            theta,
            optimizer.descent(),
        );
        let mut rows = StepRows {
            blur: BlurRows::new(n, n, config.grad_smoothing, &mut windows),
            step,
        };
        gradient.stream(&mut rows)?;
        let stats = rows.finish();
        let term = values.non_finite_term().or_else(|| {
            (!stats.grad_l2.is_finite() || !stats.grad_linf.is_finite())
                .then_some(NonFiniteTerm::Gradient)
        });
        if let Some(s) = sink.as_deref_mut() {
            s.record(&IterationRecord {
                stage: Stage::PixelIlt,
                iteration: it,
                loss_l2: values.l2,
                loss_pvb: values.pvb,
                loss_total: values.total,
                sparsity: 0.0,
                active: stats.active,
                grad_l2: stats.grad_l2,
                grad_linf: stats.grad_linf,
            });
        }
        if let Some(term) = term {
            cfaopc_trace::counters::NONFINITE_ABORTS.incr();
            return Err(LithoError::NonFinite {
                iteration: it,
                term,
            });
        }
    }

    let mask_binary = BitGrid::from_threshold(&mask, 0.5);
    Ok(IltResult {
        latent: Grid2D::from_vec(n, n, latent),
        mask_continuous: mask,
        mask_binary,
        loss_history: history,
    })
}

/// Rows a level of [`BlurRows`] keeps: the three a blur window reads,
/// rounded up to two whole row pairs, so each block the gradient stream
/// writes lands in one piece.
const WINDOW_ROWS: usize = 4;

/// The gradient blur's passes, streamed: rows of a `width × height` grid
/// come in blocks in row order (level 0), and each pass `k` is a 3-row
/// window over level `k − 1` that makes its row `y` once level `k − 1`'s
/// row `y + 1` (or its last row) is in. Row `y` of a level lives in slot
/// `y mod 4` of that level's [`WINDOW_ROWS`] rows, so the whole cascade
/// holds `4·(passes + 1)` rows. Each output has the bits of a whole-grid
/// clamped 3×3 box blur ([`blur3_row`]).
struct BlurRows<'a> {
    width: usize,
    height: usize,
    passes: usize,
    /// The levels' rows, level `k` at `k · WINDOW_ROWS · width`.
    windows: &'a mut [f64],
}

impl<'a> BlurRows<'a> {
    /// Entries of the windows of a `width`-wide cascade of `passes`.
    fn window_len(width: usize, passes: usize) -> usize {
        WINDOW_ROWS * width * (passes + 1)
    }

    /// A cascade over `windows` ([`BlurRows::window_len`] entries).
    fn new(width: usize, height: usize, passes: usize, windows: &'a mut [f64]) -> Self {
        assert_eq!(windows.len(), Self::window_len(width, passes));
        BlurRows {
            width,
            height,
            passes,
            windows,
        }
    }

    /// Where level-0 rows `first..first + count` go: a block that does
    /// not wrap past the fourth slot (two rows from an even row, or one).
    fn rows_mut(&mut self, first: usize, count: usize) -> &mut [f64] {
        let slot = first % WINDOW_ROWS;
        assert!(slot + count <= WINDOW_ROWS, "rows {first}+{count} wrap");
        &mut self.windows[slot * self.width..][..count * self.width]
    }

    /// Level-0 rows `first..first + count` are in: runs every row they
    /// complete, handing each of the last level's to `out` with its index.
    fn rows_done(&mut self, first: usize, count: usize, mut out: impl FnMut(usize, &[f64])) {
        for y0 in first..first + count {
            self.advance(y0, &mut out);
        }
    }

    /// After the last row: the rows each pass still owes.
    fn drain(&mut self, mut out: impl FnMut(usize, &[f64])) {
        for y0 in self.height..self.height + self.passes {
            self.advance(y0, &mut out);
        }
    }

    /// Level 0 is in up to row `y0` (past the last row while draining):
    /// level `k`'s row `y0 − k`, for each pass in order, then the last
    /// level's row `y0 − passes` to `out`.
    fn advance(&mut self, y0: usize, out: &mut impl FnMut(usize, &[f64])) {
        let (w, h) = (self.width, self.height);
        let level = WINDOW_ROWS * w;
        let slot = |y: usize| (y % WINDOW_ROWS) * w;
        let row = |y0: usize, k: usize| y0.checked_sub(k).filter(|&y| y < h);
        for k in 1..=self.passes {
            let Some(y) = row(y0, k) else { continue };
            let (below, above) = self.windows.split_at_mut(k * level);
            let src = &below[(k - 1) * level..];
            let rows = [y.saturating_sub(1), y, (y + 1).min(h - 1)].map(|r| &src[slot(r)..][..w]);
            blur3_row(rows, &mut above[slot(y)..][..w]);
        }
        if let Some(y) = row(y0, self.passes) {
            out(y, &self.windows[self.passes * level + slot(y)..][..w]);
        }
    }
}

/// One row of a 3×3 box-blur pass with clamped borders, into `out`:
/// `rows` are the input rows above, at and below it (the row itself in
/// place of a missing neighbour), and each output is its nine neighbours
/// added to `0.0` row by row, left to right, then divided by 9. Interior
/// pixels read three shifted slices of each row, in a loop the compiler
/// runs several pixels at a time; the two edge pixels clamp their
/// columns. Both add in the same order, so every pixel has the bits of
/// the clamped whole-grid loop.
fn blur3_row(rows: [&[f64]; 3], out: &mut [f64]) {
    let w = out.len();
    let clamped = |x: usize| {
        let mut acc = 0.0;
        for row in rows {
            for xx in [x.saturating_sub(1), x, (x + 1).min(w - 1)] {
                acc += row[xx];
            }
        }
        acc / 9.0
    };
    if w < 3 {
        for (x, o) in out.iter_mut().enumerate() {
            *o = clamped(x);
        }
        return;
    }
    out[0] = clamped(0);
    out[w - 1] = clamped(w - 1);
    // Interior: nine equal-length shifted slices, so the loop carries no
    // bounds check and no clamp.
    let k = w - 2;
    let [a, b, c] = rows;
    let [a0, a1, a2, b0, b1, b2, c0, c1, c2] = [
        (a, 0),
        (a, 1),
        (a, 2),
        (b, 0),
        (b, 1),
        (b, 2),
        (c, 0),
        (c, 1),
        (c, 2),
    ]
    .map(|(row, dx)| &row[dx..dx + k]);
    let inner = &mut out[1..=k];
    for x in 0..k {
        let acc = 0.0 + a0[x] + a1[x] + a2[x] + b0[x] + b1[x] + b2[x] + c0[x] + c1[x] + c2[x];
        inner[x] = acc / 9.0;
    }
}

/// The rest of a pixel-ILT iteration on dL/dM as the litho call streams
/// it ([`GradientRows`]): the blur's passes, then the fused step on each
/// row of the last pass (or of dL/dM itself, with no pass).
struct StepRows<'a> {
    blur: BlurRows<'a>,
    step: PixelStep<'a>,
}

impl StepRows<'_> {
    /// After the stream: the rows the blur still owes, stepped, and the
    /// iteration's active count and gradient norms.
    fn finish(mut self) -> PixelStepStats {
        let step = &mut self.step;
        self.blur.drain(|y, row| step.block(y * row.len(), row));
        self.step.stats()
    }
}

impl GradientRows for StepRows<'_> {
    fn rows_mut(&mut self, first: usize, count: usize) -> &mut [f64] {
        self.blur.rows_mut(first, count)
    }

    fn rows_done(&mut self, first: usize, count: usize) {
        let step = &mut self.step;
        self.blur
            .rows_done(first, count, |y, row| step.block(y * row.len(), row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_rect, Rect};
    use cfaopc_litho::LithoConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::fast_test()).unwrap()
    }

    fn traced(sink: &mut dyn TelemetrySink) -> RunCtx<'_, Grid2D<f64>> {
        RunCtx {
            sink: Some(sink),
            ..RunCtx::default()
        }
    }

    fn bar_target(n: usize) -> BitGrid {
        let mut t = BitGrid::new(n, n);
        // 64px/2048nm grid: a 96nm x 768nm bar.
        fill_rect(&mut t, Rect::new(30, 20, 33, 44));
        t
    }

    #[test]
    fn loss_decreases_over_iterations() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 12,
            ..PixelIltConfig::default()
        };
        let result = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let first = result.loss_history.first().unwrap().total;
        let last = result.loss_history.last().unwrap().total;
        assert!(last < first, "ILT failed to descend: {first} -> {last}");
    }

    #[test]
    fn optimized_mask_beats_raw_target_on_the_objective() {
        // Compare the relaxed L2+PVB objective of the final binary mask
        // against the raw target used as a mask.
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 25,
            ..PixelIltConfig::default()
        };
        let result = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let w = LossWeights::default();
        let opt = cfaopc_litho::loss_only(&s, &result.mask_binary.to_real(), &target.to_real(), w)
            .unwrap()
            .total;
        let raw = cfaopc_litho::loss_only(&s, &target.to_real(), &target.to_real(), w)
            .unwrap()
            .total;
        assert!(opt < raw, "optimized {opt} should beat raw {raw}");
    }

    #[test]
    fn near_target_domain_confines_the_mask() {
        let s = sim();
        let n = s.size();
        let target = bar_target(n);
        let cfg = PixelIltConfig {
            iterations: 10,
            domain: UpdateDomain::NearTarget { halo_nm: 96.0 },
            ..PixelIltConfig::default()
        };
        let result = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let halo_px = s.config().nm_to_px(96.0).round() as i32;
        let allowed = dilate(&target, Structuring::Disk(halo_px));
        for p in result.mask_binary.ones() {
            assert!(allowed.at(p), "mask pixel {p} escaped the domain");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 6,
            ..PixelIltConfig::default()
        };
        let a = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let b = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        assert_eq!(a.mask_binary, b.mask_binary);
        assert_eq!(a.loss_history.len(), b.loss_history.len());
    }

    #[test]
    fn zero_iterations_returns_initialization() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 0,
            ..PixelIltConfig::default()
        };
        let result = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        assert!(result.loss_history.is_empty());
        assert_eq!(result.mask_binary, target);
    }

    /// `passes` blur passes of `g` through [`BlurRows`], fed `block` rows
    /// at a time (the last block shorter on an odd height), the way the
    /// gradient stream feeds it. Unwritten window slots hold NaN.
    fn streamed_blur(g: &Grid2D<f64>, passes: usize, block: usize) -> Grid2D<f64> {
        let (w, h) = (g.width(), g.height());
        let mut windows = vec![f64::NAN; BlurRows::window_len(w, passes)];
        let mut blur = BlurRows::new(w, h, passes, &mut windows);
        let mut out = Grid2D::new(w, h, f64::NAN);
        let mut put = |y: usize, row: &[f64]| {
            out.as_mut_slice()[y * w..][..w].copy_from_slice(row);
        };
        for first in (0..h).step_by(block) {
            let count = block.min(h - first);
            blur.rows_mut(first, count)
                .copy_from_slice(&g.as_slice()[first * w..][..count * w]);
            blur.rows_done(first, count, &mut put);
        }
        blur.drain(&mut put);
        out
    }

    #[test]
    fn box_blur_preserves_mean() {
        let mut g = Grid2D::new(8, 8, 0.0);
        g[(3, 3)] = 9.0;
        let b = streamed_blur(&g, 1, 2);
        let sum: f64 = b.as_slice().iter().sum();
        assert!((sum - 9.0).abs() < 1e-9);
        assert!((b[(3, 3)] - 1.0).abs() < 1e-9);
    }

    /// The clamped 3×3 loop: the nine neighbours added to `0.0` row by
    /// row, left to right, through clamped indices.
    fn box_blur3_clamped(g: &Grid2D<f64>) -> Grid2D<f64> {
        let (w, h) = (g.width(), g.height());
        let mut out = Grid2D::new(w, h, 0.0);
        for y in 0..h as i32 {
            for x in 0..w as i32 {
                let mut acc = 0.0;
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let xx = (x + dx).clamp(0, w as i32 - 1) as usize;
                        let yy = (y + dy).clamp(0, h as i32 - 1) as usize;
                        acc += g[(xx, yy)];
                    }
                }
                out[(x as usize, y as usize)] = acc / 9.0;
            }
        }
        out
    }

    #[test]
    fn box_blur_matches_the_clamped_loop_bitwise() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = [1, 2, 3, 4, 5, 7, 16, 33];
        for &w in &edges {
            for &h in &edges {
                // Values over many decades, both signs, and signed zeros
                // (`0.0 + -0.0` is `+0.0`, so the first add matters).
                let values: Vec<f64> = (0..w * h)
                    .map(|_| match next() % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        r => {
                            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                            (u - 0.5) * 10f64.powi(r as i32 * 3 - 12)
                        }
                    })
                    .collect();
                let g = Grid2D::from_vec(w, h, values);
                // Cascaded passes, fed a row or a row pair at a time.
                let mut want = g.clone();
                for passes in 0..=3 {
                    for block in [1, 2] {
                        let got = streamed_blur(&g, passes, block);
                        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{w}x{h}, {passes} passes in blocks of {block}, pixel {i}: {a} vs {b}"
                            );
                        }
                    }
                    want = box_blur3_clamped(&want);
                }
            }
        }
    }

    #[test]
    fn rejects_wrong_target_shape() {
        let s = sim();
        let target = BitGrid::new(8, 8);
        assert!(run_pixel_ilt(&s, &target, &PixelIltConfig::default(), RunCtx::default()).is_err());
    }

    #[test]
    fn traced_run_is_bit_identical_and_records_every_iteration() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 6,
            ..PixelIltConfig::default()
        };
        let plain = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let mut sink = cfaopc_trace::MemorySink::new();
        let traced = run_pixel_ilt(&s, &target, &cfg, traced(&mut sink)).unwrap();
        assert_eq!(plain.mask_binary, traced.mask_binary);
        for (a, b) in plain.latent.as_slice().iter().zip(traced.latent.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sink perturbed the latent");
        }
        let recs = sink.records();
        assert_eq!(recs.len(), cfg.iterations);
        for (it, (r, h)) in recs.iter().zip(&plain.loss_history).enumerate() {
            assert_eq!(r.stage, Stage::PixelIlt);
            assert_eq!(r.iteration, it);
            assert_eq!(r.loss_total.to_bits(), h.total.to_bits());
            assert!(r.active > 0);
            assert!(r.grad_l2.is_finite() && r.grad_linf <= r.grad_l2);
        }
    }

    #[test]
    fn poisoned_weights_abort_with_typed_diagnostic() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 8,
            weights: LossWeights {
                l2: f64::NAN,
                pvb: 1.0,
            },
            ..PixelIltConfig::default()
        };
        // The raw l2/pvb terms stay finite; the weighted total is the
        // first poisoned quantity the guard sees. The fused pass has
        // already stepped the latent with the poisoned gradient when the
        // guard runs; the run must still end with the typed error.
        match run_pixel_ilt(&s, &target, &cfg, RunCtx::default()) {
            Err(LithoError::NonFinite { iteration, term }) => {
                assert_eq!(iteration, 0);
                assert_eq!(term, NonFiniteTerm::LossTotal);
            }
            other => panic!("expected NonFinite abort, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_record_reaches_the_sink_before_the_abort() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 8,
            weights: LossWeights {
                l2: 1.0,
                pvb: f64::INFINITY,
            },
            ..PixelIltConfig::default()
        };
        let mut sink = cfaopc_trace::MemorySink::new();
        let err = run_pixel_ilt(&s, &target, &cfg, traced(&mut sink)).unwrap_err();
        assert!(matches!(err, LithoError::NonFinite { iteration: 0, .. }));
        let recs = sink.records();
        assert_eq!(recs.len(), 1, "the poisoned iteration must still record");
        assert!(!recs[0].loss_total.is_finite());
        // The fused pass took the norms of the poisoned gradient.
        assert!(!recs[0].grad_l2.is_finite());
    }
}
