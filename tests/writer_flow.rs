//! Integration: CircleOpt output → shot list → e-beam writer, end to end.

use cfaopc::prelude::*;

#[test]
fn circleopt_shots_survive_the_writer() {
    let sim = LithoSimulator::new(LithoConfig {
        size: 256,
        kernel_count: 6,
        ..LithoConfig::default()
    })
    .unwrap();
    let n = sim.size();
    let px = sim.config().pixel_nm();
    let target = benchmark_case(8).unwrap().rasterize(n);
    let result = run_circleopt(
        &sim,
        &target,
        &CircleOptConfig::for_grid(n, 8, 12),
        RunCtx::default(),
    )
    .unwrap();
    assert!(result.shot_count() > 0);

    // Round-trip through the writer interchange format.
    let list = ShotList::new(result.mask.clone(), n, n, px);
    let parsed = ShotList::from_text(&list.to_text()).unwrap();
    assert_eq!(parsed.mask, result.mask);

    // Write the mask on the simulated e-beam machine with the paper's
    // short-range blur. Masks are written at 4x magnification, so the
    // writer grid pitch is 4x the wafer-scale pitch.
    let writer = WriterModel::new(n, px * 4.0, EbeamPsf::forward_only(30.0)).unwrap();
    let shots = WriterModel::dose_circles(&parsed.mask);
    let intended = intended_pattern(&shots, n);
    let corrected = correct_proximity(&writer, &shots).shots;
    let err = writer.writing_error(&corrected, &intended);
    assert!(
        err < intended.count_ones() / 4,
        "writing error {err} vs intent {} px",
        intended.count_ones()
    );

    // And the written mask still prints the target acceptably: its
    // lithography L2 stays within 2x of the directly-rasterized mask's.
    let written = writer.write(&corrected);
    let direct = evaluate_mask(&sim, &result.mask_raster, &target, &EpeConfig::default()).unwrap();
    let via_writer = evaluate_mask(&sim, &written, &target, &EpeConfig::default()).unwrap();
    assert!(
        via_writer.l2 <= direct.l2 * 2.0 + 2000.0,
        "writing degraded printing too much: {} vs {}",
        via_writer.l2,
        direct.l2
    );
}

#[test]
fn meef_of_an_optimized_mask_is_finite() {
    let sim = LithoSimulator::new(LithoConfig {
        size: 128,
        kernel_count: 6,
        ..LithoConfig::default()
    })
    .unwrap();
    let n = sim.size();
    let target = benchmark_case(10).unwrap().rasterize(n);
    let probe = CdProbe {
        at: Point::new(n as i32 / 2, n as i32 / 2),
        axis: CdAxis::Horizontal,
    };
    let result = run_circleopt(
        &sim,
        &target,
        &CircleOptConfig::for_grid(n, 6, 8),
        RunCtx::default(),
    )
    .unwrap();
    let meef = measure_meef(&sim, &result.mask_raster, &probe).unwrap();
    if let Some(report) = meef {
        assert!(report.meef.is_finite());
        assert!(report.cd_nominal_nm > 0.0);
    }
}
