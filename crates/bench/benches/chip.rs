//! Full-chip decomposition benchmarks: the end-to-end `chip-tiny` suite
//! (what the CI gate runs), one 4×4 decomposed chip case, and the two
//! stitch-phase hot paths in isolation — partition-of-unity blending of
//! precomputed window images and interior-owned shot merging. Run with
//! `cargo bench -p cfaopc-bench --bench chip`.
//!
//! Every case runs under `cfaopc_bench::snapshot`'s policy, and the
//! results are written through its snapshot writer (default
//! `BENCH_chip.json`, override with `CFAOPC_BENCH_CHIP_OUT`), so
//! `scripts/check_bench.py` gates it against
//! `eval/baselines/BENCH_chip.json` like the other snapshots.

use cfaopc_bench::snapshot::{run_case, write_snapshot, CaseResult};
use cfaopc_chip::{
    accumulate_window, axis_weights, extract_window_into, merge_tile_shots, normalize_blend,
    run_chip_case_full, run_chip_suite, run_tile, ChipSpec,
};
use cfaopc_fft::parallel::{pool_thread_count, worker_count};
use cfaopc_grid::BitGrid;
use cfaopc_litho::{LithoSimulator, ProcessCorner};
use std::hint::black_box;

fn main() {
    println!(
        "cfaopc chip benchmarks: {} workers ({} pool threads)\n",
        worker_count(),
        pool_thread_count(),
    );
    let mut results: Vec<CaseResult> = Vec::new();

    // End to end: the CI-gated suite (2 chips, 20 tiles total).
    let spec = ChipSpec::named("chip-tiny").unwrap();
    results.push(run_case("chip_suite_tiny", || {
        black_box(run_chip_suite(&spec).unwrap());
    }));

    // One decomposed 4×4 chip with a shared simulator (the per-chip
    // steady state inside the suite loop).
    let sim = LithoSimulator::new(spec.litho_config()).unwrap();
    let chip = spec.chips[0].chip();
    results.push(run_case("chip_case_4x4", || {
        black_box(run_chip_case_full(&spec, &sim, &chip).unwrap());
    }));

    // Stitch-phase hot paths in isolation, on precomputed inputs.
    let geom = spec.geometry(&chip);
    let target = chip.rasterize(spec.tile_px);
    let win = geom.window_px();
    let (cw, ch) = (geom.chip_width_px(), geom.chip_height_px());
    let windows: Vec<BitGrid> = (0..geom.tile_count())
        .map(|i| {
            let (tx, ty) = geom.tile_at(i);
            let mut w = BitGrid::new(win, win);
            extract_window_into(&target, geom.window_origin(tx, ty), &mut w);
            w
        })
        .collect();
    let images: Vec<Vec<f64>> = windows
        .iter()
        .map(|w| {
            sim.aerial_image(&w.to_real(), ProcessCorner::Nominal)
                .unwrap()
                .as_slice()
                .to_vec()
        })
        .collect();
    let weights = axis_weights(&geom);
    let mut acc = vec![0.0; cw * ch];
    let mut wsum = vec![0.0; cw * ch];
    results.push(run_case("stitch_blend_4x4", || {
        acc.iter_mut().for_each(|v| *v = 0.0);
        wsum.iter_mut().for_each(|v| *v = 0.0);
        for (i, image) in images.iter().enumerate() {
            let (tx, ty) = geom.tile_at(i);
            accumulate_window(
                image,
                win,
                geom.window_origin(tx, ty),
                &weights,
                &weights,
                cw,
                ch,
                &mut acc,
                &mut wsum,
            );
        }
        normalize_blend(&mut acc, &wsum);
        black_box(&acc);
    }));

    // Shot merge: per-tile pipelines once, then the merge loop alone.
    let tiles: Vec<_> = windows
        .iter()
        .map(|w| run_tile(&sim, w, &spec).unwrap())
        .collect();
    let mut shots = Vec::new();
    let mut owners = Vec::new();
    results.push(run_case("merge_shots_4x4", || {
        shots.clear();
        owners.clear();
        for (i, t) in tiles.iter().enumerate() {
            merge_tile_shots(&geom, i, t.opt.shots(), &mut shots, &mut owners);
        }
        black_box(shots.len());
    }));

    write_snapshot("CFAOPC_BENCH_CHIP_OUT", "BENCH_chip.json", vec![], &results);
}
