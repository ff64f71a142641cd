//! CircleOpt: the two-stage optimization-based CFAOPC solver (paper §4).
//!
//! Stage 1 (pixel-level initialization, §4.1): a short MOSAIC-style
//! pixel ILT run generates rough mask shapes and SRAFs.
//!
//! Stage 2 (circle-based ILT, §4.2): the pixel mask is reparameterized
//! into sparse circles via CircleRule; then every iteration
//!
//! 1. quantizes centers/radii through straight-through estimators
//!    (Eq. 7–9),
//! 2. renders the dense mask with the differentiable circle-to-pixel
//!    transformation (Eq. 10–11),
//! 3. evaluates the relaxed `L2 + PVB` lithography loss and its pixel
//!    gradient (Eq. 15 without the sparsity term, via the hand-derived
//!    adjoint),
//! 4. routes the gradient back to the `4n` circle parameters (Eq. 12–14,
//!    windowed aggregation Eq. 16),
//! 5. adds the Lasso sparsity subgradient `γ·sign(q)` (Eq. 17), and
//! 6. takes an Adam step.
//!
//! The final mask is the union of circles with `q > 0.5` — a mask that
//! satisfies the circular fracturing constraint *by construction*.

use crate::compose::{ComposeConfig, ComposeWorkspace};
use crate::repr::SparseCircles;
use crate::soft::SoftWorkspace;
use cfaopc_fracture::{circle_rule, CircleRuleConfig, CircularMask};
use cfaopc_grid::{BitGrid, Grid2D};
use cfaopc_ilt::{run_pixel_ilt, IltEngine, Optimizer, RunCtx};
use cfaopc_litho::{
    loss_and_gradient_into, CancelToken, LithoError, LithoSimulator, LossValues, LossWeights,
    NonFiniteTerm,
};
use cfaopc_trace::{grad_norms, IterationRecord, Stage, TelemetrySink};
use serde::{Deserialize, Serialize};

/// CircleOpt hyper-parameters. Defaults are the paper's §5 constants:
/// optimization step 0.1, `γ = 3`, radii `[12, 76]` nm, sample distance
/// 32 nm; `α = 8` and the activation threshold
/// [`Q_THRESHOLD`](crate::Q_THRESHOLD) are fixed. Pipelines build it with
/// [`CircleOptConfig::for_grid`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircleOptConfig {
    /// Stage-1 pixel ILT steps ("only a few steps", §4.1).
    pub init_iterations: usize,
    /// Stage-2 circle-level ILT steps.
    pub circle_iterations: usize,
    /// Optimization step size (paper: 0.1), used as the Adam learning
    /// rate over the `4n` circle parameters.
    pub step: f64,
    /// Sparsity weight `γ` at the run's grid (paper: 3 at 1 nm/px). Zero
    /// disables the regularizer (the Table 3 ablation).
    pub gamma: f64,
    /// CircleRule parameters for the sparse reparameterization (radius
    /// bounds double as the STE clip range).
    pub rule: CircleRuleConfig,
    /// Loss weights (Eq. 6 / Eq. 15 use 1/1).
    pub weights: LossWeights,
    /// Apply the writability clean-up
    /// ([`CircleRuleConfig::writable_mask`]: a 1-px opening, then removal
    /// of regions smaller than the `R_min` disk) to the stage-1 mask
    /// before fracturing.
    pub cleanup_init: bool,
    /// How circles combine into the dense mask: the paper's hard max
    /// with argmax gradient routing (Eq. 11–14), or the smooth softmax
    /// alternative (ablation).
    pub composition: Composition,
    /// Apply the STE indicator gates (Eq. 9). Disabling lets parameters
    /// drift outside the writer's limits (ablation).
    pub ste_gates: bool,
}

/// Dense-mask composition strategy (see [`CircleOptConfig::composition`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Composition {
    /// Paper Eq. 11: per-pixel max, gradients through the argmax only.
    Max,
    /// Softmax-weighted blend with sharpness `beta`; gradients reach
    /// every circle covering a pixel.
    Softmax {
        /// Sharpness; `→ ∞` recovers [`Composition::Max`].
        beta: f64,
    },
}

impl Default for CircleOptConfig {
    fn default() -> Self {
        CircleOptConfig {
            init_iterations: 12,
            circle_iterations: 40,
            step: 0.1,
            gamma: 3.0,
            rule: CircleRuleConfig::default(),
            weights: LossWeights::default(),
            cleanup_init: true,
            composition: Composition::Max,
            ste_gates: true,
        }
    }
}

impl CircleOptConfig {
    /// The configuration every pipeline runs on a grid of `tile_px` pixels
    /// per 2048 nm tile, with the given iteration counts.
    ///
    /// The paper's `γ = 3` is calibrated at 1 nm/px (2048²); the
    /// per-activation lithography gradient scales with the circle's pixel
    /// area, so `γ` is rescaled by `(tile_px/2048)²` to keep the
    /// Lasso/fidelity balance resolution-independent.
    pub fn for_grid(tile_px: usize, init_iterations: usize, circle_iterations: usize) -> Self {
        CircleOptConfig {
            init_iterations,
            circle_iterations,
            gamma: 3.0 * (tile_px as f64 / 2048.0).powi(2),
            ..CircleOptConfig::default()
        }
    }
}

/// Per-iteration trace of the circle-level stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircleOptTrace {
    /// Relaxed lithography losses at this iteration.
    pub loss: LossValues,
    /// Sparsity penalty `γ Σ|qᵢ|`.
    pub sparsity: f64,
    /// Circles with `q` above the activation threshold.
    pub active: usize,
}

/// Outcome of a CircleOpt run.
#[derive(Debug, Clone)]
pub struct CircleOptResult {
    /// Final sparse circular representation (all circles, incl. pruned).
    pub circles: SparseCircles,
    /// The final fractured mask: active circles, quantized.
    pub mask: CircularMask,
    /// The final mask rasterized: a **derived, cached** field, computed
    /// exactly once at the end of the run and always equal to
    /// `mask.rasterize(width, height)` at the simulator grid size. Use
    /// this instead of re-rasterizing `mask`.
    pub mask_raster: BitGrid,
    /// The stage-1 pixel mask that seeded the reparameterization.
    pub init_mask: BitGrid,
    /// Stage-2 per-iteration trace.
    pub history: Vec<CircleOptTrace>,
}

impl CircleOptResult {
    /// Final shot count (`#Shot`).
    pub fn shot_count(&self) -> usize {
        self.mask.shot_count()
    }
}

/// Runs the full CircleOpt pipeline on `target`.
///
/// `ctx.init` is a warm restart: the circle-level stage starts from those
/// circles, skipping the pixel-level initialization and the CircleRule
/// reparameterization (`init_mask` is then empty). The sink receives one
/// [`IterationRecord`] per optimizer step: stage-1 pixel iterations
/// ([`Stage::PixelIlt`]) followed by stage-2 circle iterations
/// ([`Stage::CircleOpt`], where `sparsity` is the Lasso penalty
/// `γ Σ|qᵢ|` and `active` counts circles above
/// [`Q_THRESHOLD`](crate::Q_THRESHOLD)); recording
/// is allocation-free when the sink is (see `cfaopc_trace::MemorySink`).
/// The cancel token is polled at the top of every iteration of both
/// stages, so a daemon can cancel one job and keep serving on the same
/// simulator (see `cfaopc-serve`).
///
/// # Errors
///
/// Returns [`LithoError::ShapeMismatch`] when `target` does not match the
/// simulator grid, [`LithoError::NonFinite`] when the numerical-health
/// guard trips, or [`LithoError::Cancelled`] when `ctx.cancel` fires
/// mid-run.
///
/// # Examples
///
/// ```no_run
/// use cfaopc_core::{run_circleopt, CircleOptConfig, RunCtx};
/// use cfaopc_grid::{fill_rect, BitGrid, Rect};
/// use cfaopc_litho::{LithoConfig, LithoSimulator};
///
/// # fn main() -> Result<(), cfaopc_litho::LithoError> {
/// let sim = LithoSimulator::new(LithoConfig::default())?;
/// let mut target = BitGrid::new(512, 512);
/// fill_rect(&mut target, Rect::new(100, 120, 130, 380));
/// let result = run_circleopt(&sim, &target, &CircleOptConfig::default(), RunCtx::default())?;
/// println!("#Shot = {}", result.shot_count());
/// # Ok(())
/// # }
/// ```
pub fn run_circleopt(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &CircleOptConfig,
    ctx: RunCtx<'_, SparseCircles>,
) -> Result<CircleOptResult, LithoError> {
    let RunCtx {
        init,
        mut sink,
        cancel,
    } = ctx;
    let _span = cfaopc_trace::span("core.circleopt");
    let n = sim.size();
    if target.width() != n || target.height() != n {
        return Err(LithoError::ShapeMismatch {
            expected: (n, n),
            actual: (target.width(), target.height()),
        });
    }
    let pixel_nm = sim.config().pixel_nm();
    let (r_min, r_max) = config.rule.radius_range_px(pixel_nm);

    let (mut circles, init_mask) = match init {
        Some(circles) => (circles, BitGrid::new(n, n)),
        None => {
            // Stage 1: pixel-level initialization (MOSAIC, a few steps).
            let mut init_cfg = IltEngine::Mosaic.config(config.init_iterations);
            init_cfg.weights = config.weights;
            // The cast reborrows the sink for stage 1 only.
            let stage1 = RunCtx {
                init: None,
                sink: sink.as_deref_mut().map(|s| s as &mut dyn TelemetrySink),
                cancel,
            };
            let init = run_pixel_ilt(sim, target, &init_cfg, stage1)?;
            let init_mask = if config.cleanup_init {
                config.rule.writable_mask(&init.mask_binary, pixel_nm)
            } else {
                init.mask_binary
            };
            // Sparse circular reparameterization (Algorithm 1).
            let seed_mask = circle_rule(&init_mask, &config.rule, pixel_nm);
            (SparseCircles::from_circular_mask(&seed_mask), init_mask)
        }
    };
    if circles.is_empty() {
        return Ok(CircleOptResult {
            mask: CircularMask::new(),
            mask_raster: BitGrid::new(n, n),
            circles,
            init_mask,
            history: Vec::new(),
        });
    }

    let compose_cfg = ComposeConfig {
        clip_gates: config.ste_gates,
        ..ComposeConfig::new(n, r_min, r_max)
    };
    let target_real = target.to_real();
    let mut flat = circles.to_flat();
    let mut optimizer = Optimizer::new(config.step, flat.len());
    let mut history = Vec::with_capacity(config.circle_iterations);

    // Every buffer the iteration touches lives outside the loop (the
    // compose workspaces, the mask gradient, the parameter gradient), so
    // the steady-state iteration — hard-max or softmax — performs zero
    // heap allocations, asserted by `tests/alloc.rs`.
    let mut ws = ComposeWorkspace::new();
    let mut soft_ws = SoftWorkspace::new();
    let mut grad_mask = Grid2D::new(n, n, 0.0);
    let mut grads: Vec<f64> = Vec::new();
    for it in 0..config.circle_iterations {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(LithoError::Cancelled { iteration: it });
        }
        circles.set_from_flat(&flat);
        let loss = match config.composition {
            Composition::Max => {
                ws.compose(&circles, &compose_cfg);
                let loss = loss_and_gradient_into(
                    sim,
                    ws.mask(),
                    &target_real,
                    config.weights,
                    &mut grad_mask,
                )?;
                ws.backward_into(&grad_mask, &mut grads);
                loss
            }
            Composition::Softmax { beta } => {
                soft_ws.compose(&circles, &compose_cfg, beta);
                let loss = loss_and_gradient_into(
                    sim,
                    soft_ws.mask(),
                    &target_real,
                    config.weights,
                    &mut grad_mask,
                )?;
                soft_ws.backward_into(&grad_mask, &mut grads);
                loss
            }
        };
        // Lasso sparsity on the activations (Eq. 17): subgradient
        // γ·sign(q), 0 at q = 0.
        let mut sparsity = 0.0;
        for (i, c) in circles.circles.iter().enumerate() {
            sparsity += c.q.abs();
            grads[4 * i + 3] += config.gamma * c.q.signum() * if c.q == 0.0 { 0.0 } else { 1.0 };
        }
        let sparsity = config.gamma * sparsity;
        let active = circles.active_count();
        history.push(CircleOptTrace {
            loss,
            sparsity,
            active,
        });
        // Numerical-health guard: a NaN/Inf loss, sparsity, or gradient
        // terminates the run now instead of burning the remaining
        // iterations on garbage. The gradient scan doubles as the
        // telemetry norms.
        let (grad_l2, grad_linf) = grad_norms(&grads);
        let term = loss.non_finite_term().or_else(|| {
            if !sparsity.is_finite() {
                Some(NonFiniteTerm::Sparsity)
            } else if !grad_l2.is_finite() || !grad_linf.is_finite() {
                Some(NonFiniteTerm::Gradient)
            } else {
                None
            }
        });
        if let Some(s) = sink.as_deref_mut() {
            s.record(&IterationRecord {
                stage: Stage::CircleOpt,
                iteration: it,
                loss_l2: loss.l2,
                loss_pvb: loss.pvb,
                loss_total: loss.total,
                sparsity,
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
        optimizer.step(&mut flat, &grads);
    }
    circles.set_from_flat(&flat);

    let mask = circles.to_circular_mask(n, n, r_min, r_max);
    let mask_raster = mask.rasterize(n, n);
    Ok(CircleOptResult {
        mask,
        mask_raster,
        circles,
        init_mask,
        history,
    })
}

/// `run_circleopt` with a sink; kept only for the benchmark's pipeline
/// replicas in `perf/`, which call it by this name.
#[doc(hidden)]
pub fn run_circleopt_traced(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &CircleOptConfig,
    sink: &mut dyn TelemetrySink,
) -> Result<CircleOptResult, LithoError> {
    let ctx = RunCtx {
        sink: Some(sink),
        ..RunCtx::default()
    };
    run_circleopt(sim, target, config, ctx)
}

/// `run_circleopt` with a sink and a cancel token; kept only for the
/// benchmark's pipeline replicas in `perf/`, which call it by this name.
#[doc(hidden)]
pub fn run_circleopt_cancellable(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &CircleOptConfig,
    sink: &mut dyn TelemetrySink,
    cancel: &CancelToken,
) -> Result<CircleOptResult, LithoError> {
    let ctx = RunCtx {
        init: None,
        sink: Some(sink),
        cancel: Some(cancel),
    };
    run_circleopt(sim, target, config, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_rect, Rect};
    use cfaopc_litho::LithoConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig {
            size: 128,
            kernel_count: 6,
            ..LithoConfig::default()
        })
        .unwrap()
    }

    fn fast_cfg() -> CircleOptConfig {
        CircleOptConfig {
            init_iterations: 8,
            circle_iterations: 10,
            ..CircleOptConfig::default()
        }
    }

    fn warm(circles: SparseCircles) -> RunCtx<'static, SparseCircles> {
        RunCtx {
            init: Some(circles),
            ..RunCtx::default()
        }
    }

    fn bar_target(n: usize) -> BitGrid {
        let mut t = BitGrid::new(n, n);
        // 16 nm/px: a 96nm x 768nm bar.
        fill_rect(&mut t, Rect::new(61, 40, 67, 88));
        t
    }

    #[test]
    fn for_grid_rescales_gamma_to_the_paper_weight_at_1_nm_per_px() {
        for (px, gamma) in [
            (64, 3.0 / 1024.0),
            (128, 3.0 / 256.0),
            (256, 3.0 / 64.0),
            (2048, 3.0),
        ] {
            let cfg = CircleOptConfig::for_grid(px, 4, 5);
            assert_eq!(cfg.gamma.to_bits(), f64::to_bits(gamma), "{px} px");
            assert_eq!(
                cfg,
                CircleOptConfig {
                    init_iterations: 4,
                    circle_iterations: 5,
                    gamma,
                    ..CircleOptConfig::default()
                }
            );
        }
    }

    #[test]
    fn pipeline_produces_a_circular_mask() {
        let s = sim();
        let target = bar_target(s.size());
        let result = run_circleopt(&s, &target, &fast_cfg(), RunCtx::default()).unwrap();
        assert!(result.shot_count() > 0, "no shots");
        let (r_min, r_max) = fast_cfg().rule.radius_range_px(s.config().pixel_nm());
        for shot in result.mask.shots() {
            assert!(shot.r >= r_min && shot.r <= r_max);
        }
        // The raster really is the union of the shots (circular
        // constraint by construction).
        assert_eq!(result.mask_raster, result.mask.rasterize(128, 128));
        assert_eq!(result.history.len(), 10);
    }

    #[test]
    fn circle_stage_descends_the_loss() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = CircleOptConfig {
            circle_iterations: 14,
            gamma: 0.0, // isolate the lithography objective
            ..fast_cfg()
        };
        let result = run_circleopt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let first = result.history.first().unwrap().loss.total;
        let last = result.history.last().unwrap().loss.total;
        assert!(
            last < first,
            "circle ILT failed to descend: {first} -> {last}"
        );
    }

    #[test]
    fn sparsity_prunes_shots() {
        let s = sim();
        let target = bar_target(s.size());
        let without = run_circleopt(
            &s,
            &target,
            &CircleOptConfig {
                gamma: 0.0,
                ..fast_cfg()
            },
            RunCtx::default(),
        )
        .unwrap();
        let with = run_circleopt(
            &s,
            &target,
            &CircleOptConfig {
                gamma: 30.0, // aggressive to make the effect decisive
                ..fast_cfg()
            },
            RunCtx::default(),
        )
        .unwrap();
        assert!(
            with.shot_count() < without.shot_count(),
            "sparsity failed to prune: {} vs {}",
            with.shot_count(),
            without.shot_count()
        );
        assert!(with.shot_count() > 0);
    }

    #[test]
    fn empty_target_yields_empty_mask() {
        let s = sim();
        let empty = BitGrid::new(s.size(), s.size());
        let result = run_circleopt(&s, &empty, &fast_cfg(), RunCtx::default()).unwrap();
        assert_eq!(result.shot_count(), 0);
        assert!(result.history.is_empty());
        assert!(result.mask_raster.is_clear());
    }

    #[test]
    fn deterministic() {
        let s = sim();
        let target = bar_target(s.size());
        let a = run_circleopt(&s, &target, &fast_cfg(), RunCtx::default()).unwrap();
        let b = run_circleopt(&s, &target, &fast_cfg(), RunCtx::default()).unwrap();
        assert_eq!(a.mask, b.mask);
    }

    #[test]
    fn warm_restart_continues_from_given_circles() {
        let s = sim();
        let target = bar_target(s.size());
        let first = run_circleopt(&s, &target, &fast_cfg(), RunCtx::default()).unwrap();
        let more = CircleOptConfig {
            circle_iterations: 5,
            ..fast_cfg()
        };
        let restarted = run_circleopt(&s, &target, &more, warm(first.circles.clone())).unwrap();
        assert_eq!(restarted.history.len(), 5);
        assert!(restarted.shot_count() > 0);
        // The warm start skips stage 1 entirely.
        assert!(restarted.init_mask.is_clear());
        // Restarting must not blow up the objective.
        let before = first.history.last().unwrap().loss.total;
        let after = restarted.history.last().unwrap().loss.total;
        assert!(
            after < before * 1.5,
            "restart regressed: {before} -> {after}"
        );
    }

    #[test]
    fn rejects_mismatched_target() {
        let s = sim();
        let target = BitGrid::new(16, 16);
        let one_circle = SparseCircles {
            circles: vec![crate::CircleParams {
                x: 64.0,
                y: 64.0,
                r: 3.0,
                q: 1.0,
            }],
        };
        let no_iterations = CircleOptConfig {
            circle_iterations: 0,
            ..fast_cfg()
        };
        // The full pipeline, a warm start with no circles, and a warm
        // start that runs no circle iteration: none reaches the loss.
        for (cfg, ctx) in [
            (fast_cfg(), RunCtx::default()),
            (fast_cfg(), warm(SparseCircles::default())),
            (no_iterations, warm(one_circle)),
        ] {
            match run_circleopt(&s, &target, &cfg, ctx) {
                Err(LithoError::ShapeMismatch { expected, actual }) => {
                    assert_eq!(expected, (128, 128));
                    assert_eq!(actual, (16, 16));
                }
                other => panic!("expected ShapeMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn softmax_composition_descends_and_produces_shots() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = CircleOptConfig {
            circle_iterations: 14,
            gamma: 0.0,
            composition: Composition::Softmax { beta: 20.0 },
            ..fast_cfg()
        };
        let result = run_circleopt(&s, &target, &cfg, RunCtx::default()).unwrap();
        assert!(result.shot_count() > 0);
        let first = result.history.first().unwrap().loss.total;
        let last = result.history.last().unwrap().loss.total;
        assert!(
            last < first,
            "softmax ILT failed to descend: {first} -> {last}"
        );
    }

    #[test]
    fn traced_run_is_bit_identical_and_covers_both_stages() {
        let s = sim();
        let target = bar_target(s.size());
        let cfg = fast_cfg();
        let plain = run_circleopt(&s, &target, &cfg, RunCtx::default()).unwrap();
        let mut sink = cfaopc_trace::MemorySink::new();
        let ctx = RunCtx {
            sink: Some(&mut sink),
            ..RunCtx::default()
        };
        let traced = run_circleopt(&s, &target, &cfg, ctx).unwrap();
        assert_eq!(plain.mask, traced.mask);
        assert_eq!(plain.mask_raster, traced.mask_raster);
        for (a, b) in plain.history.iter().zip(&traced.history) {
            assert_eq!(a.loss.total.to_bits(), b.loss.total.to_bits());
            assert_eq!(a.sparsity.to_bits(), b.sparsity.to_bits());
        }
        let recs = sink.records();
        assert_eq!(recs.len(), cfg.init_iterations + cfg.circle_iterations);
        assert!(recs[..cfg.init_iterations]
            .iter()
            .all(|r| r.stage == Stage::PixelIlt));
        let circle = &recs[cfg.init_iterations..];
        for (it, (r, h)) in circle.iter().zip(&plain.history).enumerate() {
            assert_eq!(r.stage, Stage::CircleOpt);
            assert_eq!(r.iteration, it);
            assert_eq!(r.loss_total.to_bits(), h.loss.total.to_bits());
            assert_eq!(r.sparsity.to_bits(), h.sparsity.to_bits());
            assert_eq!(r.active, h.active);
            assert!(r.grad_l2.is_finite() && r.grad_linf <= r.grad_l2);
        }
    }

    #[test]
    fn poisoned_weights_abort_the_circle_stage_with_typed_diagnostic() {
        let s = sim();
        let target = bar_target(s.size());
        // A finite stage-1 seeds the circles; the circle stage then runs
        // under poisoned weights and must trip the guard at iteration 0.
        let seeded = run_circleopt(&s, &target, &fast_cfg(), RunCtx::default()).unwrap();
        let cfg = CircleOptConfig {
            weights: cfaopc_litho::LossWeights {
                l2: f64::NAN,
                pvb: 1.0,
            },
            ..fast_cfg()
        };
        match run_circleopt(&s, &target, &cfg, warm(seeded.circles)) {
            Err(LithoError::NonFinite { iteration, term }) => {
                assert_eq!(iteration, 0);
                assert_eq!(term, NonFiniteTerm::LossTotal);
            }
            other => panic!("expected NonFinite abort, got {other:?}"),
        }
    }
}
