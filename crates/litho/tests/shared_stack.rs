//! `Nominal` and `Max` image through one best-focus SOCS stack, so one
//! evaluation runs `K` kernel IFFTs per distinct focus: `2K` for the three
//! corners. The adjoint folds the corners of a stack before its IFFTs, so
//! it too runs `K` per weighted stack.
//!
//! Below `S = N` the per-kernel transforms run on the `S × S` pupil
//! grid, and the work on the `N × N` mask grid is fixed: per call, the
//! mask FFT, two transforms to resample each focus's dose-free intensity
//! (`Nominal` and `Max` share one), two to resample each weighted stack's
//! dL/dI, and the final `Re[FFT]`.
//!
//! The FFT counts come from the process-wide trace counters, so these
//! tests have their own binary and take turns: no other test can
//! transform concurrently and skew the count.

use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{
    loss_and_gradient_into, LithoConfig, LithoSimulator, LossWeights, ProcessCorner,
};
use cfaopc_trace::counters::{FFT_2D, FFT_2D_POINTS};
use std::sync::Mutex;

/// Held by each test for its whole run.
static COUNTERS: Mutex<()> = Mutex::new(());

/// 2-D FFTs run by `f`.
fn ffts_during(f: impl FnOnce()) -> u64 {
    let before = FFT_2D.get();
    f();
    FFT_2D.get() - before
}

/// 2-D FFTs and their grid points run by `f`.
fn work_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (FFT_2D.get(), FFT_2D_POINTS.get());
    f();
    (FFT_2D.get() - before.0, FFT_2D_POINTS.get() - before.1)
}

#[test]
fn nominal_and_max_share_one_stack_and_its_fields() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    cfaopc_trace::set_enabled(true);
    let cfg = LithoConfig::fast_test();
    let sim = LithoSimulator::new(cfg.clone()).unwrap();
    let nominal = sim.kernel_set(ProcessCorner::Nominal);
    assert!(
        std::ptr::eq(nominal, sim.kernel_set(ProcessCorner::Max)),
        "Nominal and Max must be the same stack, not two equal ones"
    );
    assert!(!std::ptr::eq(nominal, sim.kernel_set(ProcessCorner::Min)));
    let k = nominal.kernels().len() as u64;
    assert_eq!(k, cfg.kernel_count as u64, "one kernel per source point");

    let n = sim.size();
    let mut target = BitGrid::new(n, n);
    fill_rect(&mut target, Rect::new(20, 16, 44, 48));
    let target = target.to_real();
    let mask = Grid2D::from_vec(
        n,
        n,
        target.as_slice().iter().map(|&t| 0.2 + 0.6 * t).collect(),
    );
    let mut grad = Grid2D::new(n, n, 0.0);

    // Mask FFT + K fields per distinct focus (2K) + one adjoint IFFT per
    // (weighted stack, kernel) (2K) + the final shared Re[FFT].
    let loss_ffts = ffts_during(|| {
        loss_and_gradient_into(&sim, &mask, &target, LossWeights::default(), &mut grad).unwrap();
    });
    assert_eq!(loss_ffts, 4 * k + 2, "loss_and_gradient_into at K = {k}");

    // Mask FFT + K fields per distinct focus.
    let aerial_ffts = ffts_during(|| {
        sim.aerial_corners(&mask).unwrap();
    });
    assert_eq!(aerial_ffts, 2 * k + 1, "aerial_corners at K = {k}");
}

#[test]
fn mask_grid_work_does_not_grow_with_the_kernel_count() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    cfaopc_trace::set_enabled(true);
    let n = 256u64;
    let mut per_k = Vec::new();
    for k in [6u64, 12] {
        let sim = LithoSimulator::new(LithoConfig {
            size: n as usize,
            kernel_count: k as usize,
            ..LithoConfig::fast_test()
        })
        .unwrap();
        let s = sim.pupil_size() as u64;
        assert_eq!(s, 64, "a 2048 nm tile has a 64-bin pupil grid");
        let mut target = BitGrid::new(n as usize, n as usize);
        fill_rect(&mut target, Rect::new(80, 64, 176, 192));
        let target = target.to_real();
        let mask = Grid2D::from_vec(
            n as usize,
            n as usize,
            target.as_slice().iter().map(|&t| 0.2 + 0.6 * t).collect(),
        );
        let mut grad = Grid2D::new(n as usize, n as usize, 0.0);

        // Mask grid: mask FFT, 2 per focus to resample its intensity,
        // 2 per weighted stack to resample its dL/dI, the final Re[FFT].
        // Pupil grid: 2K fields, 2K adjoint inverses, and the pupil side
        // of the 4 resamplings.
        let loss = work_during(|| {
            loss_and_gradient_into(&sim, &mask, &target, LossWeights::default(), &mut grad)
                .unwrap();
        });
        assert_eq!(
            loss,
            (4 * k + 10, 6 * n * n + (4 * k + 4) * s * s),
            "K = {k}"
        );

        // Mask FFT, 2K fields, 2 per focus to resample its intensity.
        let aerial = work_during(|| {
            sim.aerial_corners(&mask).unwrap();
        });
        assert_eq!(
            aerial,
            (2 * k + 5, 3 * n * n + (2 * k + 2) * s * s),
            "K = {k}"
        );
        per_k.push((loss, aerial, s));
    }
    // Doubling K adds only pupil-grid transforms.
    let [(loss_6, aerial_6, s), (loss_12, aerial_12, _)] = per_k[..] else {
        unreachable!()
    };
    assert_eq!(loss_12.0 - loss_6.0, 24);
    assert_eq!(loss_12.1 - loss_6.1, 24 * s * s);
    assert_eq!(aerial_12.0 - aerial_6.0, 12);
    assert_eq!(aerial_12.1 - aerial_6.1, 12 * s * s);
}
