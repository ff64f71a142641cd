//! Level-set inverse lithography (the DevelSet [4] / GPU-level-set [9]
//! family), run on the pixel-ILT loop.
//!
//! The mask is the sub-zero set of a level-set function `φ` (negative
//! inside), relaxed as `M = σ(−φ/ε)`. That is pixel ILT with latent
//! `P = −φ` and mask steepness `θ = 1/ε`: the chain rule
//! (`∂M/∂φ = −(1/ε)·M(1−M)`), the Adam step and the mask are
//! [`run_pixel_ilt`]'s operations, negated exactly. What the level set
//! adds is its start and its stabilization: `φ` starts as the target's
//! signed distance, and every [`REINIT_EVERY`] steps it is
//! **re-initialized** to the signed distance of its own zero level set —
//! the classical fix that keeps `|∇φ| ≈ 1` — with fresh Adam moments,
//! since the old ones refer to the pre-reinit surface.
//!
//! Because `∂M/∂φ` vanishes away from the interface, the evolution moves
//! the existing front but does not nucleate new regions: level-set masks
//! carry **no SRAFs**, exactly the DevelSet profile the paper's Table 1/2
//! rely on.

use crate::pixel::{run_pixel_ilt, IltResult, PixelIltConfig, RunCtx};
use cfaopc_fft::simd::latent_mask;
use cfaopc_grid::{distance_to, BitGrid, Grid2D};
use cfaopc_litho::{LithoError, LithoSimulator};

/// Level-set steps between re-initializations of `φ` to a signed
/// distance.
const REINIT_EVERY: usize = 10;

/// Signed distance to the boundary of `mask`: negative inside, positive
/// outside, approximately `|∇φ| = 1`.
pub fn signed_distance(mask: &BitGrid) -> Grid2D<f64> {
    let (w, h) = (mask.width(), mask.height());
    let mut complement = BitGrid::new(w, h);
    for y in 0..h {
        for x in 0..w {
            complement.set(x, y, !mask.get(x, y));
        }
    }
    let d_out = distance_to(mask); // 0 inside the mask
    let d_in = distance_to(&complement); // 0 outside the mask
    let mut phi = Grid2D::new(w, h, 0.0f64);
    for i in 0..w * h {
        phi.as_mut_slice()[i] = d_out.as_slice()[i] - d_in.as_slice()[i];
    }
    phi
}

/// Runs the level set for `config.iterations` steps from `target`'s own
/// boundary: [`run_pixel_ilt`] in chunks of [`REINIT_EVERY`] steps, the
/// first warm-started from `−signed_distance(target)`, each later one
/// from `−signed_distance` of the previous latent's zero set. When the
/// last chunk ends on a re-initialization, the returned latent and mask
/// are the re-initialized ones.
///
/// # Errors
///
/// As [`run_pixel_ilt`]: [`LithoError::ShapeMismatch`] when `target`
/// does not match the simulator grid.
pub(crate) fn run_levelset(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &PixelIltConfig,
) -> Result<IltResult, LithoError> {
    let mut latent = latent_of(target);
    let mut history = Vec::with_capacity(config.iterations);
    let mut remaining = config.iterations;
    loop {
        let steps = remaining.min(REINIT_EVERY);
        remaining -= steps;
        let chunk = PixelIltConfig {
            iterations: steps,
            ..config.clone()
        };
        let warm = RunCtx {
            init: Some(latent),
            ..RunCtx::default()
        };
        let mut run = run_pixel_ilt(sim, target, &chunk, warm)?;
        history.append(&mut run.loss_history);
        if steps == REINIT_EVERY {
            // A full chunk ends on a re-initialization; the next chunk's
            // `run_pixel_ilt` starts Adam afresh.
            latent = latent_of(&BitGrid::from_threshold(&run.latent, 0.0));
            if remaining > 0 {
                continue;
            }
            latent_mask(
                latent.as_slice(),
                config.mask_steepness,
                run.mask_continuous.as_mut_slice(),
            );
            run.mask_binary = BitGrid::from_threshold(&run.mask_continuous, 0.5);
            run.latent = latent;
        }
        run.loss_history = history;
        return Ok(run);
    }
}

/// The level-set latent `P = −φ` of `mask`: its negated signed distance.
fn latent_of(mask: &BitGrid) -> Grid2D<f64> {
    signed_distance(mask).map(|&d| -d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_engine, IltEngine};
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

    fn bar_target(n: usize) -> BitGrid {
        let mut t = BitGrid::new(n, n);
        fill_rect(&mut t, Rect::new(61, 40, 67, 88));
        t
    }

    #[test]
    fn signed_distance_signs_and_magnitude() {
        let mut m = BitGrid::new(32, 32);
        fill_rect(&mut m, Rect::new(8, 8, 24, 24));
        let phi = signed_distance(&m);
        assert!(phi[(16, 16)] < -6.0, "deep inside: {}", phi[(16, 16)]);
        assert!(phi[(0, 0)] > 6.0, "far outside: {}", phi[(0, 0)]);
        // Just inside the boundary.
        assert!((phi[(8, 16)] + 1.0).abs() < 0.5, "{}", phi[(8, 16)]);
    }

    #[test]
    fn zero_level_set_recovers_the_mask() {
        let mut m = BitGrid::new(32, 32);
        fill_rect(&mut m, Rect::new(5, 9, 20, 27));
        let phi = signed_distance(&m);
        let back = BitGrid::from_threshold(&phi.map(|&p| -p), 0.0);
        assert_eq!(back, m);
    }

    fn develset(s: &LithoSimulator, target: &BitGrid, iterations: usize) -> IltResult {
        run_engine(s, target, IltEngine::DevelSetLike, iterations).unwrap()
    }

    #[test]
    fn levelset_descends_the_loss() {
        let s = sim();
        let target = bar_target(s.size());
        let result = develset(&s, &target, 30);
        let first = result.loss_history.first().unwrap().total;
        let last = result.loss_history.last().unwrap().total;
        assert!(
            last < first,
            "level set failed to descend: {first} -> {last}"
        );
    }

    #[test]
    fn levelset_masks_have_no_srafs() {
        let s = sim();
        let target = bar_target(s.size());
        let result = develset(&s, &target, 30);
        // Every mask pixel stays near the target front (no remote
        // nucleation).
        let phi_t = signed_distance(&target);
        for p in result.mask_binary.ones() {
            let d = phi_t[(p.x as usize, p.y as usize)];
            assert!(
                d < 12.0,
                "mask pixel {p} nucleated {d:.1} px away from the front"
            );
        }
        assert!(result.mask_binary.count_ones() > 0);
    }

    #[test]
    fn reinit_restores_signed_distance() {
        // A run that ends on a re-initialization leaves a distance-like
        // latent: |φ| near the front stays bounded rather than exploding.
        let s = sim();
        let target = bar_target(s.size());
        let result = develset(&s, &target, REINIT_EVERY);
        // Latent = -φ; near the mask boundary it must be small.
        let boundary = cfaopc_grid::boundary_pixels(&result.mask_binary);
        for p in boundary.ones().into_iter().take(50) {
            let v = result.latent[(p.x as usize, p.y as usize)].abs();
            assert!(v < 5.0, "φ at boundary {p} drifted to {v}");
        }
    }

    #[test]
    fn deterministic() {
        let s = sim();
        let target = bar_target(s.size());
        let a = develset(&s, &target, 30);
        let b = develset(&s, &target, 30);
        assert_eq!(a.mask_binary, b.mask_binary);
    }

    #[test]
    fn rejects_wrong_shape() {
        let s = sim();
        let target = BitGrid::new(16, 16);
        assert!(run_engine(&s, &target, IltEngine::DevelSetLike, 30).is_err());
    }
}
