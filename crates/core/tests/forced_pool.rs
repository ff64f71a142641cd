//! Bit-identity of the composition engine across worker counts.
//!
//! A single umbrella test pins `CFAOPC_THREADS=4` before the pool is
//! first consulted (same pattern as the fft crate's concurrency tests),
//! so a real 4-worker pool is exercised even on single-core CI
//! machines. Every scenario is then run three ways — serial reference,
//! engine under `with_worker_limit(1)`, and engine on the full forced
//! pool — and all three must agree bit for bit: the dirty-tile claiming
//! order and the fused backward's band-partial merge are designed to be
//! schedule-independent, and this is where that claim is checked.
//! (Separate `#[test]`s would race on the process-wide pool setup.)

use cfaopc_core::{
    compose_serial, compose_soft_serial, CircleParams, ComposeConfig, ComposeWorkspace,
    SoftWorkspace, SparseCircles, TILE,
};
use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_grid::Grid2D;

const N: usize = 3 * TILE + 7; // ragged edge tiles included
const BETA: f64 = 20.0;

fn cfg() -> ComposeConfig {
    ComposeConfig::new(N, 2, 10)
}

fn wavy_grad() -> Grid2D<f64> {
    Grid2D::from_vec(
        N,
        N,
        (0..N * N)
            .map(|i| ((i as f64 * 0.7310).sin() - 0.3) * 0.2)
            .collect(),
    )
}

/// A deterministic pseudo-random circle set: overlapping, spanning tile
/// boundaries, with `q` values both above and below any sensible floor.
fn scattered_circles(count: usize, seed: u64) -> SparseCircles {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    };
    let circles = (0..count)
        .map(|_| CircleParams {
            x: 4.0 + next() * (N as f64 - 8.0),
            y: 4.0 + next() * (N as f64 - 8.0),
            r: 2.0 + next() * 8.0,
            q: next() * 2.0 - 0.5,
        })
        .collect();
    SparseCircles { circles }
}

/// Circles crowded onto the tile-boundary cross at `x = y = TILE`, so
/// windows straddle up to four tiles.
fn straddling_circles() -> SparseCircles {
    let b = TILE as f64;
    SparseCircles {
        circles: vec![
            CircleParams {
                x: b - 1.5,
                y: b + 0.5,
                r: 9.0,
                q: 1.3,
            },
            CircleParams {
                x: b + 2.0,
                y: b - 3.0,
                r: 7.5,
                q: 0.7,
            },
            CircleParams {
                x: b + 0.25,
                y: b + 0.25,
                r: 4.0,
                q: 1.9,
            },
            CircleParams {
                x: b - 6.0,
                y: b - 6.0,
                r: 6.0,
                q: -0.2,
            },
            CircleParams {
                x: 2.0 * b,
                y: b,
                r: 8.0,
                q: 0.4,
            },
        ],
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Hard-max path: workspace forward + fused backward at the ambient
/// worker count must match the serial reference exactly.
fn check_hard(circles: &SparseCircles, config: &ComposeConfig, label: &str) {
    let reference = compose_serial(circles, config);
    let grad = wavy_grad();
    let ref_grads = reference.backward_serial(&grad);

    let run = || {
        let mut ws = ComposeWorkspace::new();
        ws.compose(circles, config);
        assert_eq!(ws.mask(), &reference.mask, "{label}: mask mismatch");
        assert_eq!(ws.argmax(), &reference.argmax, "{label}: argmax mismatch");
        let mut grads = Vec::new();
        ws.backward_into(&grad, &mut grads);
        assert_eq!(
            bits(&grads),
            bits(&ref_grads),
            "{label}: fused backward not bit-identical"
        );
    };

    with_worker_limit(1, run);
    run(); // full forced pool
}

/// Soft path: same three-way agreement.
fn check_soft(circles: &SparseCircles, config: &ComposeConfig, label: &str) {
    let reference = compose_soft_serial(circles, config, BETA);
    let grad = wavy_grad();
    let ref_grads = reference.backward_serial(&grad);

    let run = || {
        let mut ws = SoftWorkspace::new();
        ws.compose(circles, config, BETA);
        assert_eq!(ws.mask(), &reference.mask, "{label}: soft mask mismatch");
        let mut grads = Vec::new();
        ws.backward_into(&grad, &mut grads);
        assert_eq!(
            bits(&grads),
            bits(&ref_grads),
            "{label}: soft backward not bit-identical"
        );
    };

    with_worker_limit(1, run);
    run();
}

/// A workspace reused across several different circle sets (the
/// optimizer's steady state) must stay bit-identical at every render.
fn reused_workspace_stays_identical() {
    let sets = [
        scattered_circles(24, 11),
        straddling_circles(),
        scattered_circles(3, 99),
        scattered_circles(40, 5),
    ];
    let grad = wavy_grad();
    let mut ws = ComposeWorkspace::new();
    let mut soft_ws = SoftWorkspace::new();
    let mut grads = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        ws.compose(set, &cfg());
        let reference = compose_serial(set, &cfg());
        assert_eq!(ws.mask(), &reference.mask, "render {i}: stale mask");
        assert_eq!(ws.argmax(), &reference.argmax, "render {i}: stale argmax");
        ws.backward_into(&grad, &mut grads);
        assert_eq!(
            bits(&grads),
            bits(&reference.backward_serial(&grad)),
            "render {i}: stale backward"
        );

        soft_ws.compose(set, &cfg(), BETA);
        let soft_ref = compose_soft_serial(set, &cfg(), BETA);
        assert_eq!(
            soft_ws.mask(),
            &soft_ref.mask,
            "render {i}: stale soft mask"
        );
        soft_ws.backward_into(&grad, &mut grads);
        assert_eq!(
            bits(&grads),
            bits(&soft_ref.backward_serial(&grad)),
            "render {i}: stale soft backward"
        );
    }
}

#[test]
fn engine_bit_identical_across_worker_counts() {
    // Must run before anything touches the pool in this process.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let config = cfg();

    check_hard(&scattered_circles(32, 1), &config, "scattered");
    check_hard(&straddling_circles(), &config, "straddling");
    check_soft(&scattered_circles(32, 2), &config, "soft scattered");
    check_soft(&straddling_circles(), &config, "soft straddling");

    // q ≤ 0 pruning must not change which circles the parallel engine
    // skips relative to the serial reference: the same set with every
    // activation lowered by 0.5, so about half of it is pruned.
    let mut lowered = scattered_circles(32, 3);
    for c in &mut lowered.circles {
        c.q -= 0.5;
    }
    check_hard(&lowered, &config, "q <= 0 pruning");

    reused_workspace_stays_identical();
}
