//! `Nominal` and `Max` image through one best-focus SOCS stack, so one
//! evaluation runs `K` kernel IFFTs per distinct focus: `2K` for the three
//! corners. The adjoint folds the corners of a stack before its IFFTs, so
//! it too runs `K` per weighted stack.
//!
//! The FFT count comes from the process-wide trace counter, so this test
//! has its own binary: no other test can transform concurrently and skew
//! the count.

use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{
    loss_and_gradient_into, LithoConfig, LithoSimulator, LossWeights, ProcessCorner,
};
use cfaopc_trace::counters::FFT_2D;

/// 2-D FFTs run by `f`.
fn ffts_during(f: impl FnOnce()) -> u64 {
    let before = FFT_2D.get();
    f();
    FFT_2D.get() - before
}

#[test]
fn nominal_and_max_share_one_stack_and_its_fields() {
    cfaopc_trace::set_enabled(true);
    let cfg = LithoConfig::fast_test();
    let sim = LithoSimulator::new(cfg.clone()).unwrap();
    let nominal = sim.kernel_set(ProcessCorner::Nominal);
    assert!(
        std::ptr::eq(nominal, sim.kernel_set(ProcessCorner::Max)),
        "Nominal and Max must be the same stack, not two equal ones"
    );
    assert!(!std::ptr::eq(nominal, sim.kernel_set(ProcessCorner::Min)));
    let k = nominal.active_count(cfg.kernel_energy_floor) as u64;
    assert_eq!(
        k, cfg.kernel_count as u64,
        "the exact model keeps every kernel"
    );

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
