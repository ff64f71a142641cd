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
//!
//! With `quantize: true` the STE (Eq. 8–9) sits in front of the chain: it
//! has no finite difference to check against (its forward is a
//! staircase), so its tests check the straight-through rule instead. An
//! in-range circle's chain gradient is the continuous chain gradient at
//! its rounded parameters, and the clip gates zero exactly the clipped
//! coordinate's gradient.

use cfaopc_core::{compose, compose_soft, CircleParams, ComposeConfig, Composition, SparseCircles};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{loss_and_gradient, loss_only, LithoConfig, LithoSimulator, LossWeights};

const N: usize = 32;
/// Lasso weight; large enough that its subgradient is a visible share of
/// each activation's gradient.
const GAMMA: f64 = 0.5;
/// Index of the circle with a negative activation, which the hard max
/// prunes from both composition passes.
const PRUNED: usize = 2;

fn sim() -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size: N,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap()
}

fn compose_config() -> ComposeConfig {
    ComposeConfig {
        quantize: false,
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
/// with a negative activation.
fn circles() -> SparseCircles {
    let circle = |x, y, r, q| CircleParams { x, y, r, q };
    SparseCircles {
        circles: vec![
            circle(12.3, 15.1, 5.2, 0.9),
            circle(20.7, 16.4, 4.1, 0.7),
            circle(16.2, 24.6, 3.3, -0.2),
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
    let sim = sim();
    for composition in [Composition::Max, Composition::Softmax { beta: 20.0 }] {
        let analytic = gradient(&sim, &base, composition);
        let eps = 1e-6;
        for (p, &an) in analytic.iter().enumerate() {
            let fd = central_difference(|c| objective(&sim, c, composition), &base, p, eps);
            let denom = fd.abs().max(an.abs()).max(1e-3);
            assert!(
                (fd - an).abs() / denom < 1e-6,
                "{composition:?}, circle {} param {}: fd={fd}, analytic={an}",
                p / 4,
                p % 4
            );
        }
    }
}

#[test]
fn a_circle_with_a_negative_activation_gets_no_chain_gradient() {
    let base = circles();
    assert!(base.circles[PRUNED].q < 0.0);
    let sim = sim();
    let chain = litho_gradient(&sim, &base, Composition::Max);
    for (p, &an) in chain.iter().enumerate().skip(4 * PRUNED).take(4) {
        // Neither pass sees the pruned circle, so the composed mask, and
        // with it the litho loss, does not move at all.
        assert_eq!(an, 0.0, "param {}", p % 4);
        let fd = central_difference(|c| litho_total(&sim, c, Composition::Max), &base, p, 1e-6);
        assert_eq!(fd, 0.0, "param {}", p % 4);
    }
    // Only the Lasso term, which acts on every activation, reaches its
    // `q`.
    let full = gradient(&sim, &base, Composition::Max);
    assert_eq!(full[4 * PRUNED + 3], -GAMMA);
}

#[test]
fn a_step_down_the_chain_gradient_lowers_the_objective() {
    let base = circles();
    let sim = sim();
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
        "descent step raised the objective {before} -> {after}"
    );
}

/// Radius clip range of the STE tests: small enough that a circle can
/// sit past `r_max` inside the 32 px tile.
const R_RANGE: (i32, i32) = (2, 6);

/// The STE's composition: quantized, with or without its clip gates.
fn ste_config(clip_gates: bool) -> ComposeConfig {
    ComposeConfig {
        clip_gates,
        ..ComposeConfig::new(N, R_RANGE.0, R_RANGE.1)
    }
}

/// Two in-range circles, one whose radius is past `r_max` and one whose
/// centre is left of the grid.
fn ste_circles() -> SparseCircles {
    let circle = |x, y, r, q| CircleParams { x, y, r, q };
    SparseCircles {
        circles: vec![
            circle(12.3, 15.1, 5.2, 0.9),
            circle(20.7, 16.4, 4.1, 0.7),
            circle(17.4, 26.2, 7.6, 0.8),
            circle(-1.4, 14.6, 4.3, 0.8),
        ],
    }
}

/// Index of the circle past `r_max`, and of the one past the grid edge.
const PAST_R_MAX: usize = 2;
const PAST_EDGE: usize = 3;

/// The circles where the STE's forward pass puts them: each coordinate
/// clipped to its range and rounded.
fn ste_placed(circles: &SparseCircles) -> SparseCircles {
    let edge = (N - 1) as f64;
    let (r_min, r_max) = (f64::from(R_RANGE.0), f64::from(R_RANGE.1));
    let mut out = circles.clone();
    for c in &mut out.circles {
        c.x = c.x.clamp(0.0, edge).round();
        c.y = c.y.clamp(0.0, edge).round();
        c.r = c.r.clamp(r_min, r_max).round();
    }
    out
}

/// The chain gradient through `config`'s composition.
fn chain_at(
    sim: &LithoSimulator,
    circles: &SparseCircles,
    config: &ComposeConfig,
    composition: Composition,
) -> Vec<f64> {
    let grad_mask = |mask| {
        loss_and_gradient(sim, mask, &target(), LossWeights::default())
            .unwrap()
            .1
    };
    match composition {
        Composition::Max => {
            let composite = compose(circles, config);
            composite.backward(&grad_mask(&composite.mask))
        }
        Composition::Softmax { beta } => {
            let composite = compose_soft(circles, config, beta);
            composite.backward(&grad_mask(&composite.mask))
        }
    }
}

fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * got.abs().max(want.abs()),
        "{what}: {got} vs {want}"
    );
}

#[test]
fn ste_passes_the_continuous_chain_gradient_straight_through() {
    let base = ste_circles();
    let placed = ste_placed(&base);
    let continuous = ComposeConfig {
        quantize: false,
        ..ste_config(true)
    };
    let sim = sim();
    for composition in [Composition::Max, Composition::Softmax { beta: 20.0 }] {
        let straight = chain_at(&sim, &placed, &continuous, composition);
        let gated = chain_at(&sim, &base, &ste_config(true), composition);
        let ungated = chain_at(&sim, &base, &ste_config(false), composition);
        for i in 0..base.circles.len() {
            for (k, name) in ["x", "y", "r"].into_iter().enumerate() {
                let p = 4 * i + k;
                let what = format!("{composition:?}, circle {i} {name}");
                let clipped = (i, k) == (PAST_R_MAX, 2) || (i, k) == (PAST_EDGE, 0);
                if clipped {
                    // The gate has something to block, and blocks all of it.
                    assert!(straight[p] != 0.0, "{what}: no straight-through gradient");
                    assert_eq!(gated[p], 0.0, "{what} with clip gates");
                } else {
                    assert_close(gated[p], straight[p], &format!("{what} with clip gates"));
                }
                assert_close(
                    ungated[p],
                    straight[p],
                    &format!("{what} without clip gates"),
                );
            }
        }
    }
}
