//! Pool regions per litho call. Every imaging entry point and the loss
//! open one region with one task per focus stack, each task capped at its
//! share of the caller's width. Imaging and the loss alone compute each
//! stack's fields one at a time inside its task, so they open nothing
//! more. The gradient's stack task runs its stack's whole SOCS pass —
//! its `K` fields, its intensity's resampling, its corners' resist and
//! loss, its folded dL/dI's resampling, and the adjoint over the same
//! fields — and its per-kernel loops open a region of their own only when
//! its share is wider than one worker: at 4 workers each stack task has
//! 2, so a call opens 1 + 2 per stack (1 + 1 for a stack none of whose
//! corners carries weight, which runs no adjoint), and at 2 workers each
//! has 1, so a call opens 1. Imaging one stack (`aerial_image`) runs its
//! one task on the calling thread, its fields in one region across the
//! whole width. At width 1 nothing opens a region. The mask FFT, the
//! final `Re[FFT]` and every resampling transform run on the thread that
//! calls them, so the count does not grow with the grid. No 2-D transform
//! opens a region of its own, on either plan.
//!
//! The region count comes from the process-wide trace counter, so this
//! binary holds one test: no other test can open regions concurrently.

use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_fft::{Complex, Fft2d};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{
    loss_and_gradient_into, loss_only, LithoConfig, LithoSimulator, LossWeights, ProcessCorner,
};
use cfaopc_trace::counters::POOL_REGIONS;

/// Pool regions opened by `f`.
fn regions_during(f: impl FnOnce()) -> u64 {
    let before = POOL_REGIONS.get();
    f();
    POOL_REGIONS.get() - before
}

#[test]
fn each_litho_call_opens_one_region_per_stack_phase() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");
    cfaopc_trace::set_enabled(true);

    let plan = Fft2d::square(256).unwrap();
    let mut field: Vec<Complex> = (0..256 * 256)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let regions = regions_during(|| {
        plan.forward(&mut field).unwrap();
        plan.inverse(&mut field).unwrap();
    });
    assert_eq!(regions, 0, "Fft2d forward + inverse at 256 px");

    // 256 px on a 2048 nm tile resamples between a 64² pupil grid and the
    // mask grid; 128 px on a 4096 nm window runs at S = N.
    for (size, tile_nm) in [(256, 2048.0), (128, 4096.0)] {
        let sim = LithoSimulator::new(LithoConfig {
            size,
            tile_nm,
            ..LithoConfig::fast_test()
        })
        .unwrap();
        assert_eq!(sim.pupil_size() < size, tile_nm == 2048.0);
        let n = size as i32;
        let mut target = BitGrid::new(size, size);
        fill_rect(&mut target, Rect::new(n / 4, n / 5, 3 * n / 4, 4 * n / 5));
        let target = target.to_real();
        let mask = Grid2D::from_vec(
            size,
            size,
            target.as_slice().iter().map(|&t| 0.2 + 0.6 * t).collect(),
        );
        let mut grad = Grid2D::new(size, size, 0.0);
        // (width, gradient at both weights, gradient with no weight on
        // the defocused stack, one stack's image, per-stack phase alone)
        for (width, gradient, l2_only, one_stack, per_stack) in
            [(4, 5, 4, 1, 1), (2, 1, 1, 1, 1), (1, 0, 0, 0, 0)]
        {
            with_worker_limit(width, || {
                for (weights, want) in [
                    (LossWeights::default(), gradient),
                    (LossWeights { l2: 1.0, pvb: 0.0 }, l2_only),
                ] {
                    let call = |grad: &mut Grid2D<f64>| {
                        loss_and_gradient_into(&sim, &mask, &target, weights, grad).unwrap();
                    };
                    call(&mut grad);
                    let regions = regions_during(|| call(&mut grad));
                    assert_eq!(
                        regions, want,
                        "loss_and_gradient_into at {size} px on {tile_nm} nm, width {width}, \
                         {weights:?}"
                    );
                    let regions = regions_during(|| {
                        loss_only(&sim, &mask, &target, weights).unwrap();
                    });
                    assert_eq!(
                        regions, per_stack,
                        "loss_only at {size} px on {tile_nm} nm, width {width}, {weights:?}"
                    );
                }
                let regions = regions_during(|| {
                    sim.aerial_corners(&mask).unwrap();
                });
                assert_eq!(
                    regions, per_stack,
                    "aerial_corners at {size} px on {tile_nm} nm, width {width}"
                );
                let regions = regions_during(|| {
                    sim.aerial_image(&mask, ProcessCorner::Min).unwrap();
                });
                assert_eq!(
                    regions, one_stack,
                    "aerial_image at {size} px on {tile_nm} nm, width {width}"
                );
            });
        }
    }
}
