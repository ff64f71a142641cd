//! Property-based tests for the lithography model.

use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_litho::{
    loss_and_gradient, loss_only, LithoConfig, LithoSimulator, LossWeights, ProcessCorner,
};
use proptest::prelude::*;

fn sim() -> LithoSimulator {
    LithoSimulator::new(LithoConfig {
        size: 32,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap()
}

fn arb_mask() -> impl Strategy<Value = Grid2D<f64>> {
    proptest::collection::vec(0.0f64..1.0, 32 * 32).prop_map(|v| Grid2D::from_vec(32, 32, v))
}

fn arb_rects() -> impl Strategy<Value = BitGrid> {
    proptest::collection::vec((2i32..28, 2i32..28, 2i32..8, 2i32..8), 1..4).prop_map(|v| {
        let mut t = BitGrid::new(32, 32);
        for (x, y, w, h) in v {
            fill_rect(&mut t, Rect::new(x, y, x + w, y + h));
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aerial_intensity_is_nonnegative_and_finite(mask in arb_mask()) {
        let s = sim();
        for corner in ProcessCorner::ALL {
            let aerial = s.aerial_image(&mask, corner).unwrap();
            for &v in aerial.as_slice() {
                prop_assert!(v >= 0.0 && v.is_finite());
            }
        }
    }

    #[test]
    fn dose_scales_intensity_linearly(mask in arb_mask()) {
        // Max and Min corners share the nominal pupil at zero defocus
        // only when defocus is 0; build such a config explicitly.
        let s = LithoSimulator::new(LithoConfig {
            size: 32,
            kernel_count: 4,
            defocus_nm: 0.0,
            ..LithoConfig::default()
        })
        .unwrap();
        let nom = s.aerial_image(&mask, ProcessCorner::Nominal).unwrap();
        let max = s.aerial_image(&mask, ProcessCorner::Max).unwrap();
        let min = s.aerial_image(&mask, ProcessCorner::Min).unwrap();
        for i in 0..32 * 32 {
            prop_assert!((max.as_slice()[i] - 1.02 * nom.as_slice()[i]).abs() < 1e-9);
            prop_assert!((min.as_slice()[i] - 0.98 * nom.as_slice()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn loss_is_nonnegative_and_consistent(mask in arb_mask(), target in arb_rects()) {
        let s = sim();
        let t = target.to_real();
        let v = loss_only(&s, &mask, &t, LossWeights::default()).unwrap();
        prop_assert!(v.l2 >= 0.0 && v.pvb >= 0.0);
        prop_assert!((v.total - (v.l2 + v.pvb)).abs() < 1e-9);
        let (v2, grad) = loss_and_gradient(&s, &mask, &t, LossWeights::default()).unwrap();
        prop_assert!((v.total - v2.total).abs() < 1e-9);
        for &g in grad.as_slice() {
            prop_assert!(g.is_finite());
        }
    }

    #[test]
    fn small_descent_step_never_increases_loss_much(target in arb_rects()) {
        let s = sim();
        let t = target.to_real();
        let mask = t.clone();
        let w = LossWeights::default();
        let (before, grad) = loss_and_gradient(&s, &mask, &t, w).unwrap();
        let norm = grad.as_slice().iter().map(|g| g * g).sum::<f64>().sqrt();
        prop_assume!(norm > 1e-9);
        let step = 1e-3 / norm;
        let stepped = Grid2D::from_vec(
            32,
            32,
            mask.as_slice()
                .iter()
                .zip(grad.as_slice())
                .map(|(&m, &g)| m - step * g)
                .collect(),
        );
        let after = loss_only(&s, &stepped, &t, w).unwrap();
        prop_assert!(after.total <= before.total + 1e-9,
            "tiny descent step increased loss: {} -> {}", before.total, after.total);
    }

    #[test]
    fn empty_and_open_masks_are_extremes(target in arb_rects()) {
        // The all-dark mask prints nothing; the open frame prints
        // everything; any target loss lies between the two extremes'
        // pixel counts.
        let s = sim();
        let empty = s.print(&BitGrid::new(32, 32), ProcessCorner::Nominal).unwrap();
        prop_assert!(empty.is_clear());
        let mut open_mask = BitGrid::new(32, 32);
        fill_rect(&mut open_mask, Rect::new(0, 0, 32, 32));
        let open_print = s.print(&open_mask, ProcessCorner::Nominal).unwrap();
        prop_assert_eq!(open_print.count_ones(), 32 * 32);
        let _ = target; // target participates only to randomize the run
    }
}
