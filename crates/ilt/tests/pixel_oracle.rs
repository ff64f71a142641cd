//! Whole-run oracle of `run_pixel_ilt`'s fused per-pixel pass.
//!
//! The oracle is the per-iteration loop the fused pass replaced, written
//! out as separate scalar loops: the mask `σ(θ P)` from the latent, the
//! loss, the clamped 3×3 gradient blur, the chain rule with its domain,
//! `grad_norms`, the health guard and `Optimizer::step`. Its sigmoid is
//! the kernel's scalar one (`cfaopc_fft::simd::sigmoid`, on the in-repo
//! `exp`). `run_pixel_ilt` must reproduce it bit for bit — latent,
//! continuous mask, loss history and sink records — for every engine
//! profile, at 64 px (mask grid = pupil grid) and at 128 px (resampled
//! pupil grid).
//!
//! The DevelSet-like level set runs on `run_pixel_ilt` in chunks between
//! re-initializations of `φ`. Its oracle is the standalone level-set
//! loop that did this before, on the same sigmoid: `run_engine` must
//! reproduce it bit for bit, ending mid-chunk and on a
//! re-initialization.

use cfaopc_fft::simd::sigmoid;
use cfaopc_grid::{dilate, fill_rect, BitGrid, Grid2D, Rect, Structuring};
use cfaopc_ilt::{
    run_engine, run_pixel_ilt, signed_distance, IltEngine, Optimizer, PixelIltConfig, RunCtx,
    UpdateDomain,
};
use cfaopc_litho::{
    loss_and_gradient, loss_and_gradient_into, LithoConfig, LithoSimulator, LossValues, LossWeights,
};
use cfaopc_trace::{grad_norms, IterationRecord, MemorySink, Stage};

const ITERATIONS: usize = 7;

fn sim(size: usize) -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap()
}

/// A bar and a square pad, scaled to the grid, with room around them
/// for the update domain to end inside the tile.
fn target(n: usize) -> BitGrid {
    let s = (n / 64) as i32;
    let mut t = BitGrid::new(n, n);
    fill_rect(&mut t, Rect::new(20 * s, 14 * s, 25 * s, 46 * s));
    fill_rect(&mut t, Rect::new(34 * s, 26 * s, 44 * s, 36 * s));
    t
}

/// The clamped 3×3 box blur.
fn blur(g: &Grid2D<f64>) -> Grid2D<f64> {
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

/// What one run leaves: latent, continuous mask, loss history, records.
type Run = (Vec<f64>, Vec<f64>, Vec<LossValues>, Vec<IterationRecord>);

/// The separate-loop pixel ILT.
fn oracle(sim: &LithoSimulator, target: &BitGrid, config: &PixelIltConfig) -> Run {
    let n = sim.size();
    let mut latent: Vec<f64> = target
        .to_real()
        .as_slice()
        .iter()
        .map(|&v| if v > 0.5 { 1.0 } else { -1.0 })
        .collect();
    let domain = match config.domain {
        UpdateDomain::Full => None,
        UpdateDomain::NearTarget { halo_nm } => {
            let halo_px = sim.config().nm_to_px(halo_nm).round().max(1.0) as i32;
            Some(dilate(target, Structuring::Disk(halo_px)))
        }
    };
    let theta = config.mask_steepness;
    let target_real = target.to_real();
    let mut optimizer = Optimizer::new(config.lr, latent.len());
    let mut mask = Grid2D::new(n, n, 0.0);
    let mut grad_m = Grid2D::new(n, n, 0.0);
    let mut grad_p = vec![0.0; latent.len()];
    let (mut history, mut records) = (Vec::new(), Vec::new());
    for it in 0..config.iterations {
        for (m, &p) in mask.as_mut_slice().iter_mut().zip(&latent) {
            *m = sigmoid(theta * p);
        }
        let values =
            loss_and_gradient_into(sim, &mask, &target_real, config.weights, &mut grad_m).unwrap();
        history.push(values);
        for _ in 0..config.grad_smoothing {
            grad_m = blur(&grad_m);
        }
        let mut active = 0;
        for (i, gp) in grad_p.iter_mut().enumerate() {
            let m = mask.as_slice()[i];
            if m > 0.5 {
                active += 1;
            }
            let mut g = grad_m.as_slice()[i] * theta * m * (1.0 - m);
            if domain.as_ref().is_some_and(|d| !d.as_grid().as_slice()[i]) {
                g = 0.0;
            }
            *gp = g;
        }
        let (grad_l2, grad_linf) = grad_norms(&grad_p);
        records.push(IterationRecord {
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
        assert!(values.non_finite_term().is_none() && grad_l2.is_finite());
        optimizer.step(&mut latent, &grad_p);
    }
    for (m, &p) in mask.as_mut_slice().iter_mut().zip(&latent) {
        *m = sigmoid(theta * p);
    }
    (latent, mask.into_vec(), history, records)
}

fn same_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// The engine profiles.
fn configs() -> Vec<(&'static str, PixelIltConfig)> {
    vec![
        ("Mosaic", IltEngine::Mosaic.config(ITERATIONS)),
        ("MultiIltLike", IltEngine::MultiIltLike.config(ITERATIONS)),
        ("NeuralIltLike", IltEngine::NeuralIltLike.config(ITERATIONS)),
        ("DevelSetLike", IltEngine::DevelSetLike.config(ITERATIONS)),
    ]
}

#[test]
fn run_pixel_ilt_equals_the_separate_loop_oracle_bitwise() {
    for size in [64, 128] {
        let sim = sim(size);
        let target = target(size);
        for (name, config) in configs() {
            let label = format!("{name} at {size} px");
            let (latent, mask, history, records) = oracle(&sim, &target, &config);
            let mut sink = MemorySink::new();
            let ctx = RunCtx {
                sink: Some(&mut sink),
                ..RunCtx::default()
            };
            let run = run_pixel_ilt(&sim, &target, &config, ctx).unwrap();
            same_bits(run.latent.as_slice(), &latent, &format!("{label}: latent"));
            same_bits(
                run.mask_continuous.as_slice(),
                &mask,
                &format!("{label}: mask"),
            );
            let losses = |h: &[LossValues]| -> Vec<f64> {
                h.iter().flat_map(|v| [v.l2, v.pvb, v.total]).collect()
            };
            same_bits(
                &losses(&run.loss_history),
                &losses(&history),
                &format!("{label}: loss history"),
            );
            assert_eq!(sink.records().len(), records.len(), "{label}: records");
            for (got, want) in sink.records().iter().zip(&records) {
                assert_eq!(
                    (got.stage, got.iteration, got.active),
                    (want.stage, want.iteration, want.active),
                    "{label}"
                );
                same_bits(
                    &[
                        got.loss_l2,
                        got.loss_pvb,
                        got.loss_total,
                        got.sparsity,
                        got.grad_l2,
                        got.grad_linf,
                    ],
                    &[
                        want.loss_l2,
                        want.loss_pvb,
                        want.loss_total,
                        want.sparsity,
                        want.grad_l2,
                        want.grad_linf,
                    ],
                    &format!("{label}: record {}", want.iteration),
                );
            }
            // The domain leaves some latent pixels untouched.
            if let UpdateDomain::NearTarget { .. } = config.domain {
                let init = oracle(
                    &sim,
                    &target,
                    &PixelIltConfig {
                        iterations: 0,
                        ..config.clone()
                    },
                )
                .0;
                assert!(
                    latent.iter().zip(&init).any(|(a, b)| a == b),
                    "{label}: the domain covers every pixel"
                );
            }
        }
    }
}

/// What a level-set run leaves: latent, continuous mask, loss history
/// and binary mask.
type LevelSetRun = (Vec<f64>, Vec<f64>, Vec<LossValues>, BitGrid);

/// The standalone level-set loop: `M = σ(−φ/ε)` with `ε = 1.5`, the
/// chain rule onto `φ`, Adam at 0.4, and every 10 steps `φ` reset to the
/// signed distance of its zero set with fresh Adam moments.
fn levelset_oracle(sim: &LithoSimulator, target: &BitGrid, iterations: usize) -> LevelSetRun {
    let (n, epsilon, reinit_every) = (sim.size(), 1.5, 10);
    let target_real = target.to_real();
    let mut phi = signed_distance(target).into_vec();
    let inv_eps = 1.0 / epsilon;
    let mut optimizer = Optimizer::new(0.4, phi.len());
    let mut history = Vec::with_capacity(iterations);
    let mut grad_phi = vec![0.0f64; phi.len()];
    for step in 0..iterations {
        let mask = Grid2D::from_vec(n, n, phi.iter().map(|&p| sigmoid(-p * inv_eps)).collect());
        let (values, grad_m) =
            loss_and_gradient(sim, &mask, &target_real, LossWeights::default()).unwrap();
        history.push(values);
        for (g, (&m, &gm)) in grad_phi
            .iter_mut()
            .zip(mask.as_slice().iter().zip(grad_m.as_slice()))
        {
            *g = -gm * inv_eps * m * (1.0 - m);
        }
        optimizer.step(&mut phi, &grad_phi);
        if (step + 1) % reinit_every == 0 {
            let binary = BitGrid::from_threshold(
                &Grid2D::from_vec(n, n, phi.iter().map(|&p| -p).collect()),
                0.0,
            );
            phi = signed_distance(&binary).into_vec();
            optimizer = Optimizer::new(0.4, phi.len());
        }
    }
    let latent = phi.iter().map(|&p| -p).collect();
    let mask: Vec<f64> = phi.iter().map(|&p| sigmoid(-p * inv_eps)).collect();
    let binary = BitGrid::from_threshold(&Grid2D::from_vec(n, n, mask.clone()), 0.5);
    (latent, mask, history, binary)
}

#[test]
fn develset_like_equals_the_level_set_oracle_bitwise() {
    for size in [64, 128] {
        let sim = sim(size);
        let target = target(size);
        // Mid-chunk, one step past a re-initialization, and ending on
        // the second and third.
        for iterations in [7, 12, 20, 30] {
            let label = format!("{iterations} steps at {size} px");
            let (latent, mask, history, binary) = levelset_oracle(&sim, &target, iterations);
            let run = run_engine(&sim, &target, IltEngine::DevelSetLike, iterations).unwrap();
            same_bits(run.latent.as_slice(), &latent, &format!("{label}: latent"));
            same_bits(
                run.mask_continuous.as_slice(),
                &mask,
                &format!("{label}: mask"),
            );
            let losses = |h: &[LossValues]| -> Vec<f64> {
                h.iter().flat_map(|v| [v.l2, v.pvb, v.total]).collect()
            };
            same_bits(
                &losses(&run.loss_history),
                &losses(&history),
                &format!("{label}: loss history"),
            );
            assert_eq!(run.mask_binary, binary, "{label}: binary mask");
        }
    }
}
