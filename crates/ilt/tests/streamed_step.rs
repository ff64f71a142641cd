//! The streamed pixel-ILT iteration against the whole-grid loop.
//!
//! `run_pixel_ilt` never holds dL/dM whole: the litho call's last
//! transform hands it over one row pair at a time, the gradient blur runs
//! as cascaded 3-row windows and the fused step runs row by row, carrying
//! its norm lanes and active count. The reference here is the loop it
//! replaced, kept only in this file: `loss_and_gradient_into` into a
//! grid, each blur pass over the whole grid (`box_blur3_into`), then one
//! `pixel_ilt_step` over the whole grid. Every iteration's losses,
//! gradient norms and active count, and the final latent and mask, must
//! match it bit for bit, for every engine profile (no blur; one pass; two
//! passes with the near-target domain; the level set's warm-started
//! chunk), at 64 px (mask grid = pupil grid), 128 and 256 px on a
//! 2048 nm tile and 128 px on a 4096 nm window, at one and four workers.
//!
//! One umbrella test pins `CFAOPC_THREADS=4` before the pool is first
//! consulted (each integration-test file is its own process).

use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_fft::simd::{latent_mask, pixel_ilt_step};
use cfaopc_grid::{dilate, fill_rect, BitGrid, Grid2D, Rect, Structuring};
use cfaopc_ilt::{
    run_pixel_ilt, signed_distance, IltEngine, Optimizer, PixelIltConfig, RunCtx, UpdateDomain,
};
use cfaopc_litho::{loss_and_gradient_into, LithoConfig, LithoSimulator};
use cfaopc_trace::MemorySink;

const ITERATIONS: usize = 3;

/// What one iteration reports: the three losses, then `grad_l2` and
/// `grad_linf`, as bits, and the active count.
type Iteration = ([u64; 5], usize);

/// What a run leaves: every iteration's report, the latent and the mask.
struct Run {
    iterations: Vec<Iteration>,
    latent: Vec<f64>,
    mask: Vec<f64>,
}

/// A bar and a square pad, scaled to the grid, and two shapes on its
/// edges: a bar along the last rows and a pad in the first columns near
/// the first rows. The update domains then reach every border, so the
/// blur's clamped rows and columns and its last rows move the result.
fn target(n: usize) -> BitGrid {
    let s = (n / 64) as i32;
    let mut t = BitGrid::new(n, n);
    fill_rect(&mut t, Rect::new(20 * s, 14 * s, 25 * s, 46 * s));
    fill_rect(&mut t, Rect::new(34 * s, 26 * s, 44 * s, 36 * s));
    fill_rect(&mut t, Rect::new(8 * s, 61 * s, 56 * s, 64 * s));
    fill_rect(&mut t, Rect::new(0, 2 * s, 4 * s, 8 * s));
    t
}

/// One 3×3 box-blur pass of `g` with clamped borders, into `out` (same
/// shape): the whole-grid blur `run_pixel_ilt` ran before the stream.
/// Each output is its nine neighbours added to `0.0` row by row, left to
/// right, then divided by 9; interior pixels read three row slices,
/// border pixels clamp their indices, in the same order.
fn box_blur3_into(g: &Grid2D<f64>, out: &mut Grid2D<f64>) {
    let (w, h) = (g.width(), g.height());
    let src = g.as_slice();
    let clamped = |x: usize, y: usize| {
        let mut acc = 0.0;
        for yy in [y.saturating_sub(1), y, (y + 1).min(h - 1)] {
            for xx in [x.saturating_sub(1), x, (x + 1).min(w - 1)] {
                acc += src[yy * w + xx];
            }
        }
        acc / 9.0
    };
    for (y, row) in out.as_mut_slice().chunks_exact_mut(w.max(1)).enumerate() {
        if y == 0 || y + 1 == h || w < 3 {
            for (x, o) in row.iter_mut().enumerate() {
                *o = clamped(x, y);
            }
            continue;
        }
        row[0] = clamped(0, y);
        row[w - 1] = clamped(w - 1, y);
        let k = w - 2;
        let [a0, a1, a2, b0, b1, b2, c0, c1, c2] = [
            (y - 1, 0),
            (y - 1, 1),
            (y - 1, 2),
            (y, 0),
            (y, 1),
            (y, 2),
            (y + 1, 0),
            (y + 1, 1),
            (y + 1, 2),
        ]
        .map(|(yy, dx)| &src[yy * w + dx..yy * w + dx + k]);
        let inner = &mut row[1..=k];
        for x in 0..k {
            let acc = 0.0 + a0[x] + a1[x] + a2[x] + b0[x] + b1[x] + b2[x] + c0[x] + c1[x] + c2[x];
            inner[x] = acc / 9.0;
        }
    }
}

/// The whole-grid loop: dL/dM into a grid, each blur pass over the whole
/// grid, one fused step over the whole grid.
fn whole_grid(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &PixelIltConfig,
    init: Option<&Grid2D<f64>>,
) -> Run {
    let n = sim.size();
    let target_real = target.to_real();
    let mut latent: Vec<f64> = match init {
        Some(l) => l.as_slice().to_vec(),
        None => target
            .as_grid()
            .as_slice()
            .iter()
            .map(|&inside| if inside { 1.0 } else { -1.0 })
            .collect(),
    };
    let domain: Option<Vec<bool>> = match config.domain {
        UpdateDomain::Full => None,
        UpdateDomain::NearTarget { halo_nm } => {
            let halo_px = sim.config().nm_to_px(halo_nm).round().max(1.0) as i32;
            Some(
                dilate(target, Structuring::Disk(halo_px))
                    .as_grid()
                    .as_slice()
                    .to_vec(),
            )
        }
    };
    let theta = config.mask_steepness;
    let mut optimizer = Optimizer::new(config.lr, latent.len());
    let mut mask = Grid2D::new(n, n, 0.0);
    latent_mask(&latent, theta, mask.as_mut_slice());
    let mut grad_m = Grid2D::new(n, n, 0.0);
    let mut blurred = Grid2D::new(n, n, 0.0);
    let mut iterations = Vec::new();
    for _ in 0..config.iterations {
        let values =
            loss_and_gradient_into(sim, &mask, &target_real, config.weights, &mut grad_m).unwrap();
        for _ in 0..config.grad_smoothing {
            box_blur3_into(&grad_m, &mut blurred);
            std::mem::swap(&mut grad_m, &mut blurred);
        }
        let stats = pixel_ilt_step(
            grad_m.as_slice(),
            mask.as_mut_slice(),
            &mut latent,
            domain.as_deref(),
            theta,
            optimizer.descent(),
        );
        iterations.push((
            [
                values.l2,
                values.pvb,
                values.total,
                stats.grad_l2,
                stats.grad_linf,
            ]
            .map(f64::to_bits),
            stats.active,
        ));
    }
    Run {
        iterations,
        latent,
        mask: mask.into_vec(),
    }
}

/// `run_pixel_ilt`, its iterations read from the sink.
fn streamed(
    sim: &LithoSimulator,
    target: &BitGrid,
    config: &PixelIltConfig,
    init: Option<&Grid2D<f64>>,
) -> Run {
    let mut sink = MemorySink::new();
    let ctx = RunCtx {
        init: init.cloned(),
        sink: Some(&mut sink),
        cancel: None,
    };
    let run = run_pixel_ilt(sim, target, config, ctx).unwrap();
    let iterations = sink
        .records()
        .iter()
        .map(|r| {
            (
                [r.loss_l2, r.loss_pvb, r.loss_total, r.grad_l2, r.grad_linf].map(f64::to_bits),
                r.active,
            )
        })
        .collect();
    Run {
        iterations,
        latent: run.latent.into_vec(),
        mask: run.mask_continuous.into_vec(),
    }
}

fn same_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

#[test]
fn streamed_pixel_ilt_equals_the_whole_grid_loop_bitwise() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");
    for (size, tile_nm) in [(64, 2048.0), (128, 2048.0), (256, 2048.0), (128, 4096.0)] {
        let sim = LithoSimulator::new(LithoConfig {
            size,
            tile_nm,
            kernel_count: 4,
            ..LithoConfig::default()
        })
        .unwrap();
        let target = target(size);
        // The level set's chunk: its profile, warm-started from the
        // target's negated signed distance.
        let level_set = signed_distance(&target).map(|&d| -d);
        let runs = [
            (IltEngine::Mosaic, None),
            (IltEngine::MultiIltLike, None),
            (IltEngine::NeuralIltLike, None),
            (IltEngine::DevelSetLike, Some(&level_set)),
        ];
        for (engine, init) in runs {
            let config = engine.config(ITERATIONS);
            let want = whole_grid(&sim, &target, &config, init);
            for workers in [1, 4] {
                let label = format!("{engine:?} at {size} px on {tile_nm} nm, {workers} workers");
                let got = with_worker_limit(workers, || streamed(&sim, &target, &config, init));
                assert_eq!(got.iterations.len(), ITERATIONS, "{label}: records");
                for (it, (g, w)) in got.iterations.iter().zip(&want.iterations).enumerate() {
                    assert_eq!(
                        g, w,
                        "{label}, iteration {it}: (l2, pvb, total, grad_l2, grad_linf) bits and active"
                    );
                }
                same_bits(&got.latent, &want.latent, &format!("{label}: latent"));
                same_bits(&got.mask, &want.mask, &format!("{label}: mask"));
            }
        }
    }
}
