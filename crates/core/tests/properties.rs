//! Property-based tests for the CircleOpt machinery.

use cfaopc_core::{
    compose, compose_serial, compose_soft, compose_soft_serial, CircleParams, ComposeConfig,
    ComposeWorkspace, SparseCircles, TILE,
};
use cfaopc_grid::Grid2D;
use proptest::prelude::*;

const N: usize = 48;

fn arb_circles(max_n: usize) -> impl Strategy<Value = SparseCircles> {
    proptest::collection::vec(
        (4.0f64..44.0, 4.0f64..44.0, 2.0f64..10.0, -0.5f64..1.5),
        1..max_n,
    )
    .prop_map(|v| SparseCircles {
        circles: v
            .into_iter()
            .map(|(x, y, r, q)| CircleParams { x, y, r, q })
            .collect(),
    })
}

/// Overlapping circles crowded around the N=48 grid's tile boundary
/// (x = y = [`TILE`]), so every case exercises windows straddling
/// multiple tiles; `q` spans negatives to cover pruned circles.
fn arb_straddling_circles(max_n: usize) -> impl Strategy<Value = SparseCircles> {
    let b = TILE as f64;
    proptest::collection::vec(
        (
            b - 8.0..b + 8.0,
            b - 8.0..b + 8.0,
            2.0f64..10.0,
            -0.5f64..1.5,
        ),
        2..max_n,
    )
    .prop_map(|v| SparseCircles {
        circles: v
            .into_iter()
            .map(|(x, y, r, q)| CircleParams { x, y, r, q })
            .collect(),
    })
}

fn cfg() -> ComposeConfig {
    ComposeConfig::new(N, 2, 10)
}

/// A deterministic non-uniform mask gradient, so backward bit-identity
/// checks see varied per-pixel weights.
fn wavy_grad() -> Grid2D<f64> {
    Grid2D::from_vec(
        N,
        N,
        (0..N * N)
            .map(|i| ((i as f64 * 0.7310).sin() - 0.3) * 0.2)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mask_value_equals_winning_circle(circles in arb_circles(8)) {
        let c = compose(&circles, &cfg());
        for y in 0..N {
            for x in 0..N {
                let idx = c.argmax[(x, y)];
                let v = c.mask[(x, y)];
                if idx < 0 {
                    prop_assert_eq!(v, 0.0);
                } else {
                    prop_assert!(v > 0.0, "claimed pixel with non-positive value {v}");
                }
            }
        }
    }

    #[test]
    fn mask_bounded_by_max_activation(circles in arb_circles(8)) {
        let c = compose(&circles, &cfg());
        let q_max = circles
            .circles
            .iter()
            .map(|c| c.q)
            .fold(0.0f64, f64::max)
            .max(0.0);
        for &v in c.mask.as_slice() {
            prop_assert!(v >= 0.0 && v <= q_max + 1e-12, "{v} vs {q_max}");
        }
    }

    #[test]
    fn zero_gradient_yields_zero_parameter_gradient(circles in arb_circles(6)) {
        let c = compose(&circles, &cfg());
        let zeros = Grid2D::new(N, N, 0.0);
        let grads = c.backward(&zeros);
        prop_assert!(grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn softmax_mask_below_hard_mask_plus_epsilon(circles in arb_circles(6)) {
        // Softmax averaging can only fall at or below the hard max.
        let hard = compose(&circles, &cfg());
        let soft = compose_soft(&circles, &cfg(), 20.0);
        for (s, h) in soft.mask.as_slice().iter().zip(hard.mask.as_slice()) {
            prop_assert!(*s <= *h + 1e-9, "soft {s} exceeds hard {h}");
        }
    }

    #[test]
    fn final_mask_respects_radius_bounds(circles in arb_circles(10)) {
        let mask = circles.to_circular_mask(N, N, 2, 10);
        for shot in mask.shots() {
            prop_assert!(shot.r >= 2 && shot.r <= 10);
            prop_assert!(shot.x >= 0 && shot.x < N as i32);
            prop_assert!(shot.y >= 0 && shot.y < N as i32);
        }
        prop_assert_eq!(mask.shot_count(), circles.active_count());
    }

    #[test]
    fn flat_roundtrip_is_lossless(circles in arb_circles(10)) {
        let mut copy = circles.clone();
        let flat = circles.to_flat();
        copy.set_from_flat(&flat);
        prop_assert_eq!(copy, circles);
    }

    #[test]
    fn tiled_compose_bit_identical_to_serial(circles in arb_circles(16)) {
        let tiled = compose(&circles, &cfg());
        let serial = compose_serial(&circles, &cfg());
        prop_assert_eq!(&tiled.mask, &serial.mask);
        prop_assert_eq!(&tiled.argmax, &serial.argmax);
        let grad = wavy_grad();
        prop_assert_eq!(tiled.backward(&grad), serial.backward_serial(&grad));
    }

    #[test]
    fn tile_straddling_overlaps_bit_identical_to_serial(circles in arb_straddling_circles(12)) {
        let tiled = compose(&circles, &cfg());
        let serial = compose_serial(&circles, &cfg());
        prop_assert_eq!(&tiled.mask, &serial.mask);
        prop_assert_eq!(&tiled.argmax, &serial.argmax);
        let grad = wavy_grad();
        prop_assert_eq!(tiled.backward(&grad), serial.backward_serial(&grad));
    }

    #[test]
    fn reused_workspace_bit_identical_to_serial(
        first in arb_circles(12),
        second in arb_straddling_circles(8),
    ) {
        // Dirty-tile tracking across renders must leave no stale pixels:
        // a workspace that rendered `first` then `second` matches a
        // from-scratch serial compose of `second` exactly.
        let mut ws = ComposeWorkspace::new();
        ws.compose(&first, &cfg());
        ws.compose(&second, &cfg());
        let serial = compose_serial(&second, &cfg());
        prop_assert_eq!(ws.mask(), &serial.mask);
        prop_assert_eq!(ws.argmax(), &serial.argmax);
        let grad = wavy_grad();
        let mut grads = Vec::new();
        ws.backward_into(&grad, &mut grads);
        prop_assert_eq!(grads, serial.backward_serial(&grad));
    }

    #[test]
    fn fused_backward_with_pruning_bit_identical_to_serial(
        circles in arb_straddling_circles(10),
        lowered_by in 0.0f64..0.8,
    ) {
        // Activations lowered so that a varying share is at or below 0
        // make both paths skip circles; the fused sweep and the serial
        // reference must skip the same set and still agree bit for bit
        // on the survivors' gradients.
        let mut circles = circles;
        for c in &mut circles.circles {
            c.q -= lowered_by;
        }
        let config = cfg();
        let mut ws = ComposeWorkspace::new();
        ws.compose(&circles, &config);
        let serial = compose_serial(&circles, &config);
        prop_assert_eq!(ws.mask(), &serial.mask);
        prop_assert_eq!(ws.argmax(), &serial.argmax);
        let grad = wavy_grad();
        let mut grads = Vec::new();
        ws.backward_into(&grad, &mut grads);
        prop_assert_eq!(grads, serial.backward_serial(&grad));
    }

    #[test]
    fn tiled_soft_compose_bit_identical_to_serial(circles in arb_straddling_circles(8)) {
        let beta = 20.0;
        let tiled = compose_soft(&circles, &cfg(), beta);
        let serial = compose_soft_serial(&circles, &cfg(), beta);
        prop_assert_eq!(&tiled.mask, &serial.mask);
        let grad = wavy_grad();
        prop_assert_eq!(tiled.backward(&grad), serial.backward_serial(&grad));
    }

    #[test]
    fn quantized_compose_is_translation_consistent(dx in 1i32..4) {
        // Moving one circle by an integer offset translates its window.
        let a = SparseCircles {
            circles: vec![CircleParams { x: 20.0, y: 24.0, r: 6.0, q: 1.0 }],
        };
        let b = SparseCircles {
            circles: vec![CircleParams { x: 20.0 + dx as f64, y: 24.0, r: 6.0, q: 1.0 }],
        };
        let ca = compose(&a, &cfg());
        let cb = compose(&b, &cfg());
        for y in 0..N {
            for x in 0..N as i32 - dx {
                prop_assert!(
                    (ca.mask[(x as usize, y)] - cb.mask[((x + dx) as usize, y)]).abs() < 1e-12
                );
            }
        }
    }
}
