//! End-to-end seam-correctness and determinism tests for the chip
//! decomposition.
//!
//! Everything runs under one umbrella `#[test]` that forces
//! `CFAOPC_THREADS=4` before the process-wide pool is first touched
//! (the same pattern as `crates/core/tests/forced_pool.rs`), so the
//! parallel claims below are exercised against a real multi-worker pool
//! regardless of the host machine.

use cfaopc_chip::{
    accumulate_window, axis_weights, extract_window_into, merge_tile_shots, normalize_blend,
    run_chip_case_full, run_chip_suite, run_tile, ChipGeometry, ChipSource, ChipSpec,
};
use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_fracture::CircleShot;
use cfaopc_grid::{BitGrid, Rect};
use cfaopc_layouts::{generate_chip, ChipLayout};
use cfaopc_litho::{LithoSimulator, ProcessCorner};

/// A small two-chip-free spec: one seeded 2×2 chip, light iteration
/// budgets — enough to produce real shots on every run mode.
fn small_spec() -> ChipSpec {
    ChipSpec {
        name: "test-2x2".into(),
        tile_px: 32,
        kernel_count: 6,
        rule_iterations: 4,
        opt_init_iterations: 2,
        opt_circle_iterations: 4,
        chips: vec![ChipSource::Generated {
            seed: 5,
            tiles_x: 2,
            tiles_y: 2,
        }],
    }
}

/// A feature fully inside tile (0,0)'s interior *and* invisible to every
/// other tile's window (x, y < 1024 nm), on a 2×2 chip.
fn single_feature_chip() -> ChipLayout {
    ChipLayout::new("single", 2, 2, vec![Rect::new(300, 400, 1000, 560)])
}

#[test]
fn chip_pipeline_under_forced_four_worker_pool() {
    // Must run before anything touches the pool in this process.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    interior_feature_matches_single_tile_run();
    halo_makes_interior_intensity_decomposition_independent();
    chip_report_bytes_identical_across_worker_limits();
}

/// Satellite property (a): a feature fully inside one tile's interior
/// produces bit-identical merged shots to a single-tile (one window,
/// full pool) run, and no other tile contributes anything.
fn interior_feature_matches_single_tile_run() {
    let spec = small_spec();
    let chip = single_feature_chip();
    let sim = LithoSimulator::new(spec.litho_config()).unwrap();
    let geom = spec.geometry(&chip);

    let outcome = run_chip_case_full(&spec, &sim, &chip).unwrap();
    assert!(
        outcome.record.rule.shots > 0 && outcome.record.opt.shots > 0,
        "feature produced no shots: {:?}",
        outcome.record
    );
    for t in &outcome.record.tiles[1..] {
        assert_eq!(
            (t.rule_shots, t.opt_shots),
            (0, 0),
            "tile {} saw a feature it does not own",
            t.name
        );
    }

    // Single-tile reference: the same window target, optimized on the
    // full pool (the chip run capped each tile at its pool share).
    let target = chip.rasterize(spec.tile_px);
    let win = geom.window_px();
    let mut window = BitGrid::new(win, win);
    extract_window_into(&target, geom.window_origin(0, 0), &mut window);
    let reference = run_tile(&sim, &window, &spec).unwrap();

    let merged = |shots: &[CircleShot]| {
        let mut out = Vec::new();
        let mut owners = Vec::new();
        merge_tile_shots(&geom, 0, shots, &mut out, &mut owners);
        out
    };
    assert_eq!(
        outcome.rule_mask.shots(),
        merged(reference.rule.shots()),
        "rule shots differ from the single-tile run"
    );
    assert_eq!(
        outcome.opt_mask.shots(),
        merged(reference.opt.shots()),
        "opt shots differ from the single-tile run"
    );
}

/// Satellite property (b): with the halo (1024 nm) far beyond the
/// optical interaction radius (~λ/NA ≈ 143 nm), the blended interior
/// aerial intensity of a decomposed chip tracks a whole-chip
/// single-window simulation. A 2×2 chip of 32 px tiles spans exactly one
/// 64 px window, so the same simulator provides the reference.
///
/// The band-limited pupil gives the SOCS kernels power-law (sinc-like)
/// tails — the relative intensity leak of a single mask pixel is still
/// ~1e-3 at 512 nm and ~3e-4 at 1024 nm — so coherent cross-terms with
/// out-of-window content bound any finite-halo decomposition to ~1e-2
/// interior error here. The property asserted is therefore two-sided:
/// the stitched error stays within that physical bound, *and* it beats
/// a haloless naive abutment (each tile simulated alone and pasted) by
/// a wide margin — measured ~2.2e-2 vs ~2.1e-1, an order of magnitude.
fn halo_makes_interior_intensity_decomposition_independent() {
    let spec = small_spec();
    let chip = generate_chip(5, 2, 2);
    let geom = ChipGeometry::new(2, 2, spec.tile_px);
    let sim = LithoSimulator::new(spec.litho_config()).unwrap();
    let mask = chip.rasterize(spec.tile_px);
    let (cw, ch) = (geom.chip_width_px(), geom.chip_height_px());

    let reference = sim
        .aerial_image(&mask.to_real(), ProcessCorner::Nominal)
        .unwrap();

    let weights = axis_weights(&geom);
    let mut acc = vec![0.0; cw * ch];
    let mut wsum = vec![0.0; cw * ch];
    let win = geom.window_px();
    for i in 0..geom.tile_count() {
        let (tx, ty) = geom.tile_at(i);
        let origin = geom.window_origin(tx, ty);
        let mut window = BitGrid::new(win, win);
        extract_window_into(&mask, origin, &mut window);
        let aerial = sim
            .aerial_image(&window.to_real(), ProcessCorner::Nominal)
            .unwrap();
        accumulate_window(
            aerial.as_slice(),
            win,
            origin,
            &weights,
            &weights,
            cw,
            ch,
            &mut acc,
            &mut wsum,
        );
    }
    normalize_blend(&mut acc, &wsum);

    // Haloless strawman: each 32-px tile simulated alone, pasted in place.
    let tile_cfg = cfaopc_litho::LithoConfig {
        size: spec.tile_px,
        tile_nm: f64::from(cfaopc_layouts::TILE_NM),
        kernel_count: spec.kernel_count,
        ..cfaopc_litho::LithoConfig::default()
    };
    let tsim = LithoSimulator::new(tile_cfg).unwrap();
    let t = spec.tile_px;
    let mut naive = vec![0.0; cw * ch];
    for i in 0..geom.tile_count() {
        let (tx, ty) = geom.tile_at(i);
        let mut tile = BitGrid::new(t, t);
        extract_window_into(&mask, ((tx * t) as i32, (ty * t) as i32), &mut tile);
        let a = tsim
            .aerial_image(&tile.to_real(), ProcessCorner::Nominal)
            .unwrap();
        for y in 0..t {
            for x in 0..t {
                naive[(ty * t + y) * cw + tx * t + x] = a.as_slice()[y * t + x];
            }
        }
    }

    let guard = 8; // px of chip border excluded (periodic-wrap artifacts)
    let mut max_diff = 0.0f64;
    let mut max_naive = 0.0f64;
    for y in guard..ch - guard {
        for x in guard..cw - guard {
            let r = reference.as_slice()[y * cw + x];
            max_diff = max_diff.max((acc[y * cw + x] - r).abs());
            max_naive = max_naive.max((naive[y * cw + x] - r).abs());
        }
    }
    assert!(
        max_diff < 3e-2,
        "stitched interior intensity outside the physical bound: max |Δ| = {max_diff:.3e}"
    );
    assert!(
        max_diff * 5.0 < max_naive,
        "halo stitching should beat naive abutment by ≥5×: {max_diff:.3e} vs {max_naive:.3e}"
    );
}

/// Satellite property (c): the chip report is byte-identical between a
/// serial run (`with_worker_limit(1)`) and the forced 4-worker pool.
fn chip_report_bytes_identical_across_worker_limits() {
    let spec = small_spec();
    let serial = with_worker_limit(1, || run_chip_suite(&spec)).unwrap();
    let parallel = run_chip_suite(&spec).unwrap();
    assert!(!serial.chips[0].tiles.is_empty(), "suite produced no tiles");
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "CHIP_RESULTS.json differs between 1 and 4 workers"
    );
}
