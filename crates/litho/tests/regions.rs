//! Pool regions per litho call. A call runs in phases, one region each.
//! The gradient has three: the per-kernel forward fields, one task per
//! focus stack (its intensity's resampling, its corners' resist and loss,
//! and its folded dL/dI's resampling), and the per-kernel adjoint.
//! Imaging and the loss alone run only the per-stack phase, each task
//! computing its stack's fields. The mask FFT, the final `Re[FFT]` and
//! every resampling transform run on the thread that calls them, so the
//! count does not grow with the grid. No 2-D transform opens a region of
//! its own, on either plan.
//!
//! The region count comes from the process-wide trace counter, so this
//! binary holds one test: no other test can open regions concurrently.

use cfaopc_fft::parallel::worker_count;
use cfaopc_fft::{Complex, Fft2d};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{loss_and_gradient_into, loss_only, LithoConfig, LithoSimulator, LossWeights};
use cfaopc_trace::counters::POOL_REGIONS;

/// Pool regions opened by `f`.
fn regions_during(f: impl FnOnce()) -> u64 {
    let before = POOL_REGIONS.get();
    f();
    POOL_REGIONS.get() - before
}

#[test]
fn each_litho_call_opens_one_region_per_phase() {
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
        for weights in [LossWeights::default(), LossWeights { l2: 1.0, pvb: 0.0 }] {
            let call = |grad: &mut Grid2D<f64>| {
                loss_and_gradient_into(&sim, &mask, &target, weights, grad).unwrap();
            };
            call(&mut grad);
            let regions = regions_during(|| call(&mut grad));
            assert_eq!(
                regions, 3,
                "loss_and_gradient_into at {size} px on {tile_nm} nm, {weights:?}"
            );
            let regions = regions_during(|| {
                loss_only(&sim, &mask, &target, weights).unwrap();
            });
            assert_eq!(
                regions, 1,
                "loss_only at {size} px on {tile_nm} nm, {weights:?}"
            );
        }
        let regions = regions_during(|| {
            sim.aerial_corners(&mask).unwrap();
        });
        assert_eq!(regions, 1, "aerial_corners at {size} px on {tile_nm} nm");
    }
}
