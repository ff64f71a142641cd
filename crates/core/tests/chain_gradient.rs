//! Finite-difference check of the whole CircleOpt gradient chain.
//!
//! Circle parameters `(x, y, r, q)` → max-composition (Eq. 10–11) or its
//! softmax alternative (with `quantize: false` so the STE's rounding
//! staircase is out of the way) →
//! the three-corner SOCS loss (Eq. 6) and its hand-derived adjoint, which
//! folds `Nominal`'s and `Max`'s dL/dI onto their shared field → the
//! composition backward (Eq. 12–14), plus the Lasso term `γ·Σ|q|`
//! (Eq. 17). Each layer has a finite-difference test of its own; this one
//! catches what only the composed map shows, such as a gradient grid
//! handed over transposed or at the wrong scale.

use cfaopc_core::{compose, compose_soft, CircleParams, ComposeConfig, Composition, SparseCircles};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{loss_and_gradient, loss_only, LithoConfig, LithoSimulator, LossWeights};

const N: usize = 32;
/// Lasso weight; large enough that its subgradient is a visible share of
/// each activation's gradient.
const GAMMA: f64 = 0.5;
/// A raised activation floor: circles at or below it are pruned from
/// both composition passes.
const Q_FLOOR: f64 = 0.3;
/// Index of the circle whose activation sits below [`Q_FLOOR`].
const PRUNED: usize = 2;

fn sim(kernel_energy_floor: f64) -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size: N,
        kernel_count: 4,
        kernel_energy_floor,
        ..LithoConfig::default()
    })
    .unwrap()
}

fn compose_config() -> ComposeConfig {
    ComposeConfig {
        quantize: false,
        q_floor: Q_FLOOR,
        ..ComposeConfig::new(N, 2, 12)
    }
}

fn target() -> Grid2D<f64> {
    let mut t = BitGrid::new(N, N);
    fill_rect(&mut t, Rect::new(9, 11, 23, 21));
    t.to_real()
}

/// Two overlapping circles that straddle the target's edges, so the
/// argmax routing, the rims and the loss all matter, and one circle
/// below the activation floor.
fn circles() -> SparseCircles {
    let circle = |x, y, r, q| CircleParams { x, y, r, q };
    SparseCircles {
        circles: vec![
            circle(12.3, 15.1, 5.2, 0.9),
            circle(20.7, 16.4, 4.1, 0.7),
            circle(16.2, 24.6, 3.3, 0.2),
        ],
    }
}

fn lasso(circles: &SparseCircles) -> f64 {
    GAMMA * circles.circles.iter().map(|c| c.q.abs()).sum::<f64>()
}

/// The litho part of the objective: the relaxed loss of the composed
/// mask.
fn litho_total(sim: &LithoSimulator, circles: &SparseCircles, composition: Composition) -> f64 {
    let mask = match composition {
        Composition::Max => compose(circles, &compose_config()).mask,
        Composition::Softmax { beta } => compose_soft(circles, &compose_config(), beta).mask,
    };
    loss_only(sim, &mask, &target(), LossWeights::default())
        .unwrap()
        .total
}

/// The litho part of the gradient, chained by hand: the adjoint's mask
/// gradient through the composition backward.
fn litho_gradient(
    sim: &LithoSimulator,
    circles: &SparseCircles,
    composition: Composition,
) -> Vec<f64> {
    let grad_mask = |mask| {
        loss_and_gradient(sim, mask, &target(), LossWeights::default())
            .unwrap()
            .1
    };
    match composition {
        Composition::Max => {
            let composite = compose(circles, &compose_config());
            composite.backward(&grad_mask(&composite.mask))
        }
        Composition::Softmax { beta } => {
            let composite = compose_soft(circles, &compose_config(), beta);
            composite.backward(&grad_mask(&composite.mask))
        }
    }
}

/// Full objective and gradient, Lasso included (its subgradient
/// `γ·sign(q)`, as CircleOpt adds it).
fn objective(sim: &LithoSimulator, circles: &SparseCircles, composition: Composition) -> f64 {
    litho_total(sim, circles, composition) + lasso(circles)
}

fn gradient(sim: &LithoSimulator, circles: &SparseCircles, composition: Composition) -> Vec<f64> {
    let mut grads = litho_gradient(sim, circles, composition);
    for (i, c) in circles.circles.iter().enumerate() {
        grads[4 * i + 3] += GAMMA * c.q.signum();
    }
    grads
}

/// `circles` with flat parameter `p` moved by `delta`.
fn nudged(circles: &SparseCircles, p: usize, delta: f64) -> SparseCircles {
    let mut flat = circles.to_flat();
    flat[p] += delta;
    let mut out = circles.clone();
    out.set_from_flat(&flat);
    out
}

/// Central difference of `f` along flat parameter `p`.
fn central_difference(
    f: impl Fn(&SparseCircles) -> f64,
    circles: &SparseCircles,
    p: usize,
    eps: f64,
) -> f64 {
    (f(&nudged(circles, p, eps)) - f(&nudged(circles, p, -eps))) / (2.0 * eps)
}

#[test]
fn chain_gradient_matches_finite_differences() {
    let base = circles();
    // The exact model and truncated SOCS, through either composition.
    for composition in [Composition::Max, Composition::Softmax { beta: 20.0 }] {
        for floor in [1.0, 0.5] {
            let sim = sim(floor);
            let analytic = gradient(&sim, &base, composition);
            let eps = 1e-6;
            for (p, &an) in analytic.iter().enumerate() {
                let fd = central_difference(|c| objective(&sim, c, composition), &base, p, eps);
                let denom = fd.abs().max(an.abs()).max(1e-3);
                assert!(
                    (fd - an).abs() / denom < 1e-6,
                    "{composition:?}, floor {floor}, circle {} param {}: fd={fd}, analytic={an}",
                    p / 4,
                    p % 4
                );
            }
        }
    }
}

#[test]
fn a_circle_below_the_activation_floor_gets_no_chain_gradient() {
    let base = circles();
    assert!(base.circles[PRUNED].q < Q_FLOOR);
    for floor in [1.0, 0.5] {
        let sim = sim(floor);
        let chain = litho_gradient(&sim, &base, Composition::Max);
        for (p, &an) in chain.iter().enumerate().skip(4 * PRUNED).take(4) {
            // Neither pass sees the pruned circle, so the composed mask,
            // and with it the litho loss, does not move at all.
            assert_eq!(an, 0.0, "floor {floor}, param {}", p % 4);
            let fd = central_difference(|c| litho_total(&sim, c, Composition::Max), &base, p, 1e-6);
            assert_eq!(fd, 0.0, "floor {floor}, param {}", p % 4);
        }
        // Only the Lasso term, which acts on every activation, reaches
        // its `q`.
        let full = gradient(&sim, &base, Composition::Max);
        assert_eq!(full[4 * PRUNED + 3], GAMMA);
    }
}

#[test]
fn a_step_down_the_chain_gradient_lowers_the_objective() {
    let base = circles();
    for floor in [1.0, 0.5] {
        let sim = sim(floor);
        let before = objective(&sim, &base, Composition::Max);
        let grads = gradient(&sim, &base, Composition::Max);
        let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
        assert!(norm > 0.0);
        let step = 1e-2 / norm;
        let mut flat = base.to_flat();
        for (v, g) in flat.iter_mut().zip(&grads) {
            *v -= step * g;
        }
        let mut after_circles = base.clone();
        after_circles.set_from_flat(&flat);
        let after = objective(&sim, &after_circles, Composition::Max);
        assert!(
            after < before,
            "floor {floor}: descent step raised the objective {before} -> {after}"
        );
    }
}
