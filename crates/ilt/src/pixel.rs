//! Pixel-level ILT: gradient descent on a latent pixel field (paper §4.1).
//!
//! The mask is parameterized as `M = σ(θ_m · P)` with an unconstrained
//! latent field `P` (the shifted-sigmoid binarization of MOSAIC/MultiILT);
//! the loss is the relaxed `L2 + L_pvb` of Eq. 6 and its gradient comes
//! from the hand-derived adjoint in `cfaopc-litho`.

use crate::optimizer::{Optimizer, OptimizerKind};
use cfaopc_grid::{dilate, BitGrid, Grid2D, Structuring};
use cfaopc_litho::{
    loss_and_gradient_into, sigmoid, CancelToken, LithoError, LithoSimulator, LossValues,
    LossWeights, NonFiniteTerm,
};
use cfaopc_trace::{grad_norms, IterationRecord, Stage, TelemetrySink};

/// Where latent pixels are allowed to move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateDomain {
    /// Every pixel optimizes — SRAFs can nucleate anywhere (MOSAIC,
    /// MultiILT style).
    Full,
    /// Only pixels within `halo_nm` of the target may change — masks stay
    /// near the main features and grow no SRAFs (DevelSet-style level-set
    /// evolution keeps the front near the initial shape).
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
    /// Optimizer and learning rate.
    pub optimizer: OptimizerKind,
    /// Loss term weights (Eq. 6 uses 1/1).
    pub weights: LossWeights,
    /// Steepness `θ_m` of the mask sigmoid (paper §4.1 follows \[10\]).
    pub mask_steepness: f64,
    /// Magnitude of the latent initialization (`P = ±init_amplitude`).
    pub init_amplitude: f64,
    /// Update domain.
    pub domain: UpdateDomain,
    /// 3×3 box-blur passes applied to the mask gradient before the chain
    /// rule — smoother gradients yield smoother, lower-complexity masks
    /// (the surrogate for the neural regularization of Neural-ILT).
    pub grad_smoothing: usize,
    /// Initialize the latent from the target dilated by this many nm
    /// (0 = the raw target).
    pub init_dilation_nm: f64,
}

impl Default for PixelIltConfig {
    fn default() -> Self {
        PixelIltConfig {
            iterations: 30,
            optimizer: OptimizerKind::adam(0.2),
            weights: LossWeights::default(),
            mask_steepness: 4.0,
            init_amplitude: 1.0,
            domain: UpdateDomain::Full,
            grad_smoothing: 0,
            init_dilation_nm: 0.0,
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
/// `ctx.init` is a warm-start latent (the multi-resolution engine
/// warm-starts finer levels with it). The sink receives stage
/// [`Stage::PixelIlt`] records, where `active` counts mask pixels above
/// 0.5.
///
/// Every iteration the numerical-health guard checks the loss terms and
/// the latent gradient's L2/L∞ norms; a NaN or Inf aborts the run with
/// [`LithoError::NonFinite`] naming the iteration and offending term
/// (the poisoned record is still delivered to the sink first, for
/// post-mortems).
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

    // Latent init: explicit warm start, or ±amplitude inside/outside the
    // (possibly dilated) target.
    let mut latent: Vec<f64> = match init {
        Some(l) => l.into_vec(),
        None => {
            let init_px = sim.config().nm_to_px(config.init_dilation_nm).round() as i32;
            let seed = if init_px > 0 {
                dilate(target, Structuring::Disk(init_px))
            } else {
                target.clone()
            };
            let amp = config.init_amplitude;
            seed.to_real()
                .as_slice()
                .iter()
                .map(|&v| if v > 0.5 { amp } else { -amp })
                .collect()
        }
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
    let mut optimizer = Optimizer::new(config.optimizer, latent.len());
    let mut history = Vec::with_capacity(config.iterations);
    let mut grad_p = vec![0.0f64; latent.len()];
    // The mask, dL/dM and the blur's output are reused every iteration,
    // so a steady-state iteration allocates no grid (`tests/alloc.rs` in
    // `cfaopc-core`).
    let mut mask = Grid2D::new(n, n, 0.0);
    let mut grad_m = Grid2D::new(n, n, 0.0);
    let blur_px = if config.grad_smoothing > 0 { n } else { 0 };
    let mut blurred = Grid2D::new(blur_px, blur_px, 0.0);

    for it in 0..config.iterations {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(LithoError::Cancelled { iteration: it });
        }
        mask_from_latent(&latent, theta, &mut mask);
        let values = loss_and_gradient_into(sim, &mask, &target_real, config.weights, &mut grad_m)?;
        history.push(values);
        for _ in 0..config.grad_smoothing {
            box_blur3_into(&grad_m, &mut blurred);
            std::mem::swap(&mut grad_m, &mut blurred);
        }
        // Chain rule through the sigmoid: dL/dP = dL/dM · θ m (1 − m).
        let mut active = 0usize;
        for i in 0..latent.len() {
            let m = mask.as_slice()[i];
            if m > 0.5 {
                active += 1;
            }
            let mut g = grad_m.as_slice()[i] * theta * m * (1.0 - m);
            if let Some(dom) = &domain {
                if !dom[i] {
                    g = 0.0;
                }
            }
            grad_p[i] = g;
        }
        let (grad_l2, grad_linf) = grad_norms(&grad_p);
        let term = values.non_finite_term().or_else(|| {
            (!grad_l2.is_finite() || !grad_linf.is_finite()).then_some(NonFiniteTerm::Gradient)
        });
        if let Some(s) = sink.as_deref_mut() {
            s.record(&IterationRecord {
                stage: Stage::PixelIlt,
                iteration: it,
                loss_l2: values.l2,
                loss_pvb: values.pvb,
                loss_total: values.total,
                sparsity: 0.0,
                active,
                grad_l2,
                grad_linf,
            });
        }
        if let Some(term) = term {
            cfaopc_trace::counters::NONFINITE_ABORTS.incr();
            return Err(LithoError::NonFinite {
                iteration: it,
                term,
            });
        }
        optimizer.step(&mut latent, &grad_p);
    }

    mask_from_latent(&latent, theta, &mut mask);
    let mask_binary = BitGrid::from_threshold(&mask, 0.5);
    Ok(IltResult {
        latent: Grid2D::from_vec(n, n, latent),
        mask_continuous: mask,
        mask_binary,
        loss_history: history,
    })
}

/// Writes `M = σ(θ P)` into `mask`.
fn mask_from_latent(latent: &[f64], theta: f64, mask: &mut Grid2D<f64>) {
    for (m, &p) in mask.as_mut_slice().iter_mut().zip(latent) {
        *m = sigmoid(theta * p);
    }
}

/// One 3×3 box-blur pass of `g` with clamped borders, into `out` (same
/// shape).
fn box_blur3_into(g: &Grid2D<f64>, out: &mut Grid2D<f64>) {
    let (w, h) = (g.width(), g.height());
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

    #[test]
    fn init_dilation_grows_initial_mask() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = PixelIltConfig {
            iterations: 0,
            init_dilation_nm: 64.0,
            ..PixelIltConfig::default()
        };
        let result = run_pixel_ilt(&s, &target, &cfg, RunCtx::default()).unwrap();
        assert!(result.mask_binary.count_ones() > target.count_ones());
    }

    #[test]
    fn box_blur_preserves_mean() {
        let mut g = Grid2D::new(8, 8, 0.0);
        g[(3, 3)] = 9.0;
        let mut b = Grid2D::new(8, 8, f64::NAN);
        box_blur3_into(&g, &mut b);
        let sum: f64 = b.as_slice().iter().sum();
        assert!((sum - 9.0).abs() < 1e-9);
        assert!((b[(3, 3)] - 1.0).abs() < 1e-9);
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
        // first poisoned quantity the guard sees.
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
    }
}
