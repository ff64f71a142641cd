//! Thread-count invariance of the litho forward model.
//!
//! The forward pass computes the kernels' fields in parallel regions and
//! sums the intensities serially in kernel order after each, so the
//! floating-point summation order — and therefore every output bit —
//! must not depend on how many workers execute it. Each test pins
//! `CFAOPC_THREADS=4` before the pool exists, then compares the pooled
//! run against a forced fully-serial run of the same process: at 64 px,
//! where the pupil grid is the mask grid, at 256 px, where the
//! intensity and dL/dI are resampled between a 64² pupil grid and the
//! mask grid, and at 128 px on a 4096 nm window, whose pupil grid is
//! again the mask grid.

use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Point, Rect};
use cfaopc_litho::{
    bossung_surface, loss_and_gradient, loss_only, CdAxis, CdProbe, LithoConfig, LithoSimulator,
    LossValues, LossWeights, ProcessCorner,
};

fn test_mask(n: usize) -> Grid2D<f64> {
    let values = (0..n * n)
        .map(|i| {
            let (x, y) = (i % n, i / n);
            // A few rectangles plus a smooth ramp: nontrivial spectrum.
            let solid = (x > n / 4 && x < n / 2 && y > n / 8 && y < n - n / 4) as u8 as f64;
            solid.max(0.3 * ((x * y) as f64 / (n * n) as f64))
        })
        .collect();
    Grid2D::from_vec(n, n, values)
}

fn bits(g: &Grid2D<f64>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn loss_bits(v: &LossValues) -> [u64; 3] {
    [v.l2.to_bits(), v.pvb.to_bits(), v.total.to_bits()]
}

/// `loss_and_gradient` and `loss_only` on the pool against a serial run,
/// at both loss terms, the nominal term alone (the adjoint skips the
/// defocused stack) and the process-variation terms alone (stack 0's
/// first weighted corner is `Max`).
fn assert_losses_match(sim: &LithoSimulator, mask: &Grid2D<f64>, target: &Grid2D<f64>) {
    let n = sim.size();
    for weights in [
        LossWeights::default(),
        LossWeights { l2: 1.0, pvb: 0.0 },
        LossWeights { l2: 0.0, pvb: 2.0 },
    ] {
        let (pv, pg) = loss_and_gradient(sim, mask, target, weights).unwrap();
        let (sv, sg) =
            with_worker_limit(1, || loss_and_gradient(sim, mask, target, weights).unwrap());
        assert_eq!(loss_bits(&pv), loss_bits(&sv), "{n} px, {weights:?}");
        assert_eq!(
            bits(&pg),
            bits(&sg),
            "{n} px gradient with weights {weights:?} depends on thread count"
        );
        let po = loss_only(sim, mask, target, weights).unwrap();
        let so = with_worker_limit(1, || loss_only(sim, mask, target, weights).unwrap());
        assert_eq!(
            loss_bits(&po),
            loss_bits(&so),
            "{n} px loss_only, {weights:?}"
        );
        assert_eq!(
            loss_bits(&po),
            loss_bits(&pv),
            "{n} px loss_only vs gradient"
        );
    }
}

#[test]
fn aerial_images_are_bit_identical_serial_vs_parallel() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig::fast_test()).unwrap();
    let mask = test_mask(sim.size());

    for corner in ProcessCorner::ALL {
        let parallel = sim.aerial_image(&mask, corner).unwrap();
        let serial = with_worker_limit(1, || sim.aerial_image(&mask, corner).unwrap());
        let pbits: Vec<u64> = parallel.as_slice().iter().map(|v| v.to_bits()).collect();
        let sbits: Vec<u64> = serial.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            pbits, sbits,
            "aerial image at {corner:?} depends on thread count"
        );
    }

    // The corner bundle goes through the same accumulator; check it too.
    let parallel = sim.aerial_corners(&mask).unwrap();
    let serial = with_worker_limit(1, || sim.aerial_corners(&mask).unwrap());
    for corner in ProcessCorner::ALL {
        let pbits: Vec<u64> = parallel
            .get(corner)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let sbits: Vec<u64> = serial
            .get(corner)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            pbits, sbits,
            "corner bundle at {corner:?} depends on thread count"
        );
    }
}

#[test]
fn loss_and_gradient_is_bit_identical_serial_vs_parallel() {
    // The batched multi-corner forward/adjoint regions merge through
    // task-ordered serial reductions (intensity, spectral gradient): no
    // output bit may depend on worker count.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig::fast_test()).unwrap();
    let n = sim.size();
    let mask = test_mask(n);
    let mut target = BitGrid::new(n, n);
    fill_rect(
        &mut target,
        Rect::new(
            n as i32 / 4,
            n as i32 / 4,
            3 * n as i32 / 4,
            3 * n as i32 / 4,
        ),
    );
    let target = target.to_real();
    assert_losses_match(&sim, &mask, &target);
}

#[test]
fn bossung_surface_is_bit_identical_serial_vs_parallel() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig::fast_test()).unwrap();
    let n = sim.size();
    let mut mask = BitGrid::new(n, n);
    fill_rect(
        &mut mask,
        Rect::new(n as i32 / 4, 3, 3 * n as i32 / 4, n as i32 - 3),
    );
    let probe = CdProbe {
        at: Point::new(n as i32 / 2, n as i32 / 2),
        axis: CdAxis::Horizontal,
    };
    let defocus = [0.0, 50.0, 100.0];
    let doses = [0.96, 1.0, 1.04];

    let parallel = bossung_surface(&sim, &mask, &probe, &defocus, &doses).unwrap();
    let serial = with_worker_limit(1, || {
        bossung_surface(&sim, &mask, &probe, &defocus, &doses).unwrap()
    });
    assert_eq!(parallel.points.len(), serial.points.len());
    for (p, s) in parallel.points.iter().zip(&serial.points) {
        assert_eq!(
            p.cd_nm.map(f64::to_bits),
            s.cd_nm.map(f64::to_bits),
            "CD at defocus {} dose {} depends on thread count",
            p.defocus_nm,
            p.dose
        );
    }

    // The condensed metric must agree exactly as well.
    let cd_target = (n as f64 / 2.0) * sim.config().pixel_nm();
    let pw = parallel.window_fraction(cd_target, 0.25);
    let sw = serial.window_fraction(cd_target, 0.25);
    assert_eq!(pw.to_bits(), sw.to_bits());
}

#[test]
fn resampled_outputs_are_bit_identical_serial_vs_parallel() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig {
        size: 256,
        ..LithoConfig::fast_test()
    })
    .unwrap();
    let n = sim.size();
    assert!(sim.pupil_size() < n, "256 px on 2048 nm resamples");
    let mask = test_mask(n);

    let parallel = sim.aerial_corners(&mask).unwrap();
    let serial = with_worker_limit(1, || sim.aerial_corners(&mask).unwrap());
    for corner in ProcessCorner::ALL {
        assert_eq!(
            bits(parallel.get(corner)),
            bits(serial.get(corner)),
            "resampled {corner:?} image depends on thread count"
        );
    }

    let mut target = BitGrid::new(n, n);
    fill_rect(&mut target, Rect::new(64, 48, 192, 208));
    assert_losses_match(&sim, &mask, &target.to_real());

    let mut printed = BitGrid::new(n, n);
    fill_rect(&mut printed, Rect::new(96, 12, 160, 244));
    let probe = CdProbe {
        at: Point::new(128, 128),
        axis: CdAxis::Horizontal,
    };
    let (defocus, doses) = ([0.0, 60.0], [0.97, 1.0, 1.03]);
    let parallel = bossung_surface(&sim, &printed, &probe, &defocus, &doses).unwrap();
    let serial = with_worker_limit(1, || {
        bossung_surface(&sim, &printed, &probe, &defocus, &doses).unwrap()
    });
    assert!(parallel.points.iter().any(|p| p.cd_nm.is_some()));
    for (p, s) in parallel.points.iter().zip(&serial.points) {
        assert_eq!(p.cd_nm.map(f64::to_bits), s.cd_nm.map(f64::to_bits));
    }
}

#[test]
fn window_outputs_are_bit_identical_serial_vs_parallel() {
    // The chip's 4096 nm windows at 128 px: the pupil grid is the mask
    // grid (S = N), so nothing is resampled and each stack task holds its
    // folded dL/dI on the mask grid.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig {
        size: 128,
        tile_nm: 4096.0,
        ..LithoConfig::fast_test()
    })
    .unwrap();
    let n = sim.size();
    assert_eq!(sim.pupil_size(), n, "128 px on 4096 nm runs at S = N");
    let mask = test_mask(n);

    let parallel = sim.aerial_corners(&mask).unwrap();
    let serial = with_worker_limit(1, || sim.aerial_corners(&mask).unwrap());
    for corner in ProcessCorner::ALL {
        assert_eq!(
            bits(parallel.get(corner)),
            bits(serial.get(corner)),
            "window {corner:?} image depends on thread count"
        );
    }

    let mut target = BitGrid::new(n, n);
    fill_rect(&mut target, Rect::new(32, 24, 96, 104));
    assert_losses_match(&sim, &mask, &target.to_real());
}
