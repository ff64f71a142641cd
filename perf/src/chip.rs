//! `chip_small`: the chip decomposition entry point,
//! `cfaopc_chip::run_chip_case_full`, on one shared window simulator.

use crate::common::{self, Outcome, PassCosts, Quality, RunConfig, Scale, SetupTimes};
use crate::ledger::{self, StageLedger, TimingSink, TraceRun};
use cfaopc_chip::{
    accumulate_window, axis_weights, compare_chip_reports, extract_window_into, merge_tile_shots,
    normalize_blend, run_chip_case_full, run_chip_suite, ChipGeometry, ChipMethodOutcome,
    ChipRecord, ChipReport, ChipSource, ChipSpec, TileRecord, TileShots,
};
use cfaopc_core::run_circleopt_traced;
use cfaopc_eval::Tolerance;
use cfaopc_fft::parallel::{par_map, with_worker_limit, worker_count, worker_shares};
use cfaopc_fracture::{check_mrc, circle_rule, CircularMask, MrcRules, MrcViolation};
use cfaopc_grid::{BitGrid, Grid2D};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::ChipLayout;
use cfaopc_litho::{LithoError, LithoSimulator, ProcessCorner};
use cfaopc_metrics::{epe_violations, l2_error, pvb, EpeConfig};
use cfaopc_trace::span;
use std::time::Instant;

/// The committed golden report of the `chip-tiny` suite.
const GOLDEN_CHIP_TINY: &str = include_str!("../../eval/golden_chip.json");

/// The chip suite a run measures: the `chip-small` settings on a 3×3
/// seed-generated chip and the 2×2 benchmark mosaic (13 windows of
/// 128 px), small enough that a run holds several passes; at
/// [`Scale::Small`] the `chip-tiny` shape. Seed 1 generates from the
/// committed suites' first chip seed.
pub fn plan(cfg: &RunConfig) -> ChipSpec {
    let a = if cfg.seed == 1 {
        3
    } else {
        common::derive_seed(cfg.seed, 2)
    };
    let generated = |seed, tiles_x, tiles_y| ChipSource::Generated {
        seed,
        tiles_x,
        tiles_y,
    };
    match cfg.scale {
        Scale::Full => ChipSpec {
            chips: vec![
                generated(a, 3, 3),
                ChipSource::BenchmarkMosaic {
                    tiles_x: 2,
                    tiles_y: 2,
                },
            ],
            ..ChipSpec::named("chip-small").expect("built-in suite")
        },
        Scale::Small => ChipSpec {
            chips: vec![
                generated(a, 4, 4),
                ChipSource::BenchmarkMosaic {
                    tiles_x: 2,
                    tiles_y: 2,
                },
            ],
            ..ChipSpec::named("chip-tiny").expect("built-in suite")
        },
    }
}

struct Inputs {
    chips: Vec<ChipLayout>,
    sim: LithoSimulator,
    build_s: f64,
}

/// Generates the chips and readies the shared window simulator on the
/// first chip's first non-empty window.
fn setup(spec: &ChipSpec) -> Result<Inputs, String> {
    let chips: Vec<ChipLayout> = spec.chips.iter().map(ChipSource::chip).collect();
    let first = first_busy_window(spec, chips.first().ok_or("empty chip suite")?)?;
    let (sim, build_s) = common::ready_optical_setup(&spec.litho_config(), &first)?;
    Ok(Inputs {
        chips,
        sim,
        build_s,
    })
}

/// Runs the `chip-tiny` suite and checks it against its golden report.
fn warm_up(out: &mut Outcome) -> Result<(), String> {
    let spec = ChipSpec::named("chip-tiny").expect("built-in suite");
    let report = run_chip_suite(&spec).map_err(|e| e.to_string())?;
    let golden = ChipReport::from_json_str(GOLDEN_CHIP_TINY)?;
    let drifts = compare_chip_reports(&golden, &report, &Tolerance::default());
    out.check(drifts.is_empty(), || {
        let lines: Vec<String> = drifts.iter().map(ToString::to_string).collect();
        format!("chip golden drift:\n{}", lines.join("\n"))
    });
    Ok(())
}

fn run_real(
    spec: &ChipSpec,
    sim: &LithoSimulator,
    chip: &ChipLayout,
) -> Result<ChipRecord, String> {
    run_chip_case_full(spec, sim, chip)
        .map(|o| o.record)
        .map_err(|e| e.to_string())
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when a chip fails to run.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let spec = plan(cfg);
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let inputs = setups.repeat(|| setup(&spec), |_| Ok(()))?;
    warm_up(&mut out)?;
    if cfg.trace {
        trace(&spec, &inputs, &mut out)?;
        return Ok(out);
    }

    let mut references: Vec<ChipRecord> = Vec::new();
    // Every chip's wall time in every pass; a pass runs each chip once,
    // and its cost is the pass's CPU time per window.
    let (mut latency, mut costs) = (Vec::new(), PassCosts::default());
    let start = Instant::now();
    while costs.passes() == 0 || common::since(start) < cfg.seconds {
        costs.start()?;
        let mut windows = 0;
        for (i, chip) in inputs.chips.iter().enumerate() {
            let (record, wall) = common::timed(|| run_real(&spec, &inputs.sim, chip));
            let record = record?;
            out.attempted += 1;
            latency.push(wall);
            windows += chip.tile_count();
            match references.get(i) {
                Some(reference) => out.check(*reference == record, || {
                    format!("chip {} differs from its first run", record.name)
                }),
                None => references.push(record),
            }
        }
        costs.end(windows)?;
    }
    out.metric("peak_rss_mb", common::peak_rss_mb()?);
    setups.repeat(|| setup(&spec), |_| Ok(()))?;
    costs.record(&mut out, &setups, &latency)?;
    let mut quality = Quality::default();
    for ((record, chip), source) in references.iter().zip(&inputs.chips).zip(&spec.chips) {
        if matches!(source, ChipSource::BenchmarkMosaic { .. }) {
            let target = chip.rasterize(spec.tile_px);
            quality.add(
                record.opt.l2,
                record.opt.pvb,
                record.opt.shots,
                &target,
                spec.pixel_nm(),
            );
        }
    }
    quality.record(&mut out)?;
    Ok(out)
}

/// The traced run on the suite's first chip: the real entry point with
/// tracing off and on, a replica with the benchmark's spans, then its
/// first non-empty window at every worker and at one worker.
fn trace(spec: &ChipSpec, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let (sim, chip) = (&inputs.sim, &inputs.chips[0]);
    let overhead = ledger::measure_overhead(|_| run_real(spec, sim, chip))?;
    let untraced = overhead.outputs[0].clone();
    out.check(overhead.outputs.iter().all(|r| *r == untraced), || {
        "traced and untraced chip records differ".into()
    });

    ledger::reset_trace(true);
    let (replica, replica_wall_s) = common::timed(|| replica_chip(spec, sim, chip));
    let (spans, counters) = ledger::collect_trace();
    let replica = replica.map_err(|e| format!("replica: {e}"))?;
    out.check(replica.record == untraced, || {
        "replica chip record differs from run_chip_case_full".into()
    });

    let window = first_busy_window(spec, chip)?;
    let scaling = ledger::measure_scaling(worker_count(), |limit| {
        with_worker_limit(limit, || replica_tile(sim, &window, spec))
            .map(|(shots, _)| (shots.rule, shots.opt))
            .map_err(|e| e.to_string())
    })?;
    out.check(
        scaling.outputs.iter().all(|s| *s == scaling.outputs[0]),
        || "one-worker and all-worker window shots differ".into(),
    );

    TraceRun {
        workers: worker_count(),
        share: replica.share,
        replica_wall_s,
        item_busy_s: replica.busy_s,
        spans,
        counters,
        stages: replica.stages,
        untraced_wall_s: overhead.untraced_wall_s,
        traced_wall_s: overhead.traced_wall_s,
        sim_build_ms: inputs.build_s * 1e3,
        parallel: scaling.parallel,
        serial: scaling.serial,
    }
    .record(out);
    Ok(())
}

fn windows(geom: &ChipGeometry, target: &BitGrid) -> Vec<BitGrid> {
    let win = geom.window_px();
    (0..geom.tile_count())
        .map(|i| {
            let (tx, ty) = geom.tile_at(i);
            let mut w = BitGrid::new(win, win);
            extract_window_into(target, geom.window_origin(tx, ty), &mut w);
            w
        })
        .collect()
}

/// The first window target of `chip` with any feature in it.
fn first_busy_window(spec: &ChipSpec, chip: &ChipLayout) -> Result<BitGrid, String> {
    windows(&spec.geometry(chip), &chip.rasterize(spec.tile_px))
        .into_iter()
        .find(|w| !w.is_clear())
        .ok_or_else(|| format!("chip {} has no non-empty window", chip.name))
}

struct ReplicaChip {
    record: ChipRecord,
    stages: StageLedger,
    share: usize,
    busy_s: f64,
}

/// `cfaopc_chip::run_chip_case_full`, call for call, with spans around
/// the layer calls the program does not already trace.
fn replica_chip(
    spec: &ChipSpec,
    sim: &LithoSimulator,
    chip: &ChipLayout,
) -> Result<ReplicaChip, LithoError> {
    let geom = spec.geometry(chip);
    let target = chip.rasterize(spec.tile_px);
    let windows = windows(&geom, &target);
    let tiles = geom.tile_count();
    let workers = worker_count();
    let concurrent = workers.min(tiles).max(1);
    let shares = worker_shares(workers, concurrent);
    let results = par_map(tiles, |i| {
        with_worker_limit(shares[i % concurrent], || {
            common::timed(|| replica_tile(sim, &windows[i], spec))
        })
    });
    let mut stages = StageLedger::default();
    let (mut tile_shots, mut busy_s) = (Vec::with_capacity(tiles), 0.0);
    for (i, (result, wall)) in results.into_iter().enumerate() {
        let (shots, ledger) = result?;
        tile_shots.push(shots);
        stages.merge(ledger);
        busy_s += wall * shares[i % concurrent] as f64;
    }
    let rule_merged = merge(&geom, &tile_shots, true);
    let opt_merged = merge(&geom, &tile_shots, false);
    let rule = replica_stitch(spec, sim, &geom, &target, &rule_merged)?;
    let opt = replica_stitch(spec, sim, &geom, &target, &opt_merged)?;
    let tile_records = (0..tiles)
        .map(|i| {
            let (tx, ty) = geom.tile_at(i);
            let owned = |owners: &[u32]| owners.iter().filter(|&&o| o == i as u32).count();
            TileRecord {
                name: format!("t{tx}x{ty}"),
                rule_shots: owned(&rule_merged.1),
                opt_shots: owned(&opt_merged.1),
            }
        })
        .collect();
    Ok(ReplicaChip {
        record: ChipRecord {
            name: chip.name.clone(),
            tiles_x: chip.tiles_x,
            tiles_y: chip.tiles_y,
            area_nm2: chip.area_nm2(),
            rects: chip.rects.len(),
            rule,
            opt,
            tiles: tile_records,
        },
        stages,
        share: shares[0],
        busy_s,
    })
}

/// `cfaopc_chip::run_tile` with spans and a timing sink.
fn replica_tile(
    sim: &LithoSimulator,
    window_target: &BitGrid,
    spec: &ChipSpec,
) -> Result<(TileShots, StageLedger), LithoError> {
    let mut stages = StageLedger::default();
    if window_target.is_clear() {
        return Ok((TileShots::default(), stages));
    }
    let pixel_nm = sim.config().pixel_nm();
    let opt_config = spec.circleopt_config();
    let pixel = {
        let _s = span("perf.multires");
        run_engine(
            sim,
            window_target,
            IltEngine::MultiIltLike,
            spec.rule_iterations,
        )?
    };
    let rule = {
        let _s = span("perf.circle_rule");
        circle_rule(&pixel.mask_binary, &opt_config.rule, pixel_nm)
    };
    let mut sink = TimingSink::new(opt_config.init_iterations + opt_config.circle_iterations);
    let opt = run_circleopt_traced(sim, window_target, &opt_config, &mut sink)?;
    stages.add_run(&sink, sink.elapsed(), opt.circles.len(), opt.shot_count());
    Ok((
        TileShots {
            rule,
            opt: opt.mask,
        },
        stages,
    ))
}

fn merge(geom: &ChipGeometry, tiles: &[TileShots], rule: bool) -> (CircularMask, Vec<u32>) {
    let (mut shots, mut owners) = (Vec::new(), Vec::new());
    for (i, t) in tiles.iter().enumerate() {
        let mask = if rule { &t.rule } else { &t.opt };
        merge_tile_shots(geom, i, mask.shots(), &mut shots, &mut owners);
    }
    (CircularMask::from_shots(shots), owners)
}

/// The harness's seam blend and chip scoring. Spans cover the window
/// images inside each pool task and the serial blend on the caller, not
/// the caller's wait for the pool.
fn replica_stitch(
    spec: &ChipSpec,
    sim: &LithoSimulator,
    geom: &ChipGeometry,
    chip_target: &BitGrid,
    merged: &(CircularMask, Vec<u32>),
) -> Result<ChipMethodOutcome, LithoError> {
    let (mask, owners) = merged;
    let (cw, ch) = (geom.chip_width_px(), geom.chip_height_px());
    let win = geom.window_px();
    let pixel_nm = spec.pixel_nm();
    let chip_raster = mask.rasterize(cw, ch);
    let tiles = geom.tile_count();
    let workers = worker_count();
    let concurrent = workers.min(tiles).max(1);
    let shares = worker_shares(workers, concurrent);
    let images = par_map(tiles, |i| {
        with_worker_limit(shares[i % concurrent], || {
            let _s = span("perf.score");
            let (tx, ty) = geom.tile_at(i);
            let mut window = BitGrid::new(win, win);
            extract_window_into(&chip_raster, geom.window_origin(tx, ty), &mut window);
            sim.aerial_corners(&window.to_real())
        })
    });

    let _s = span("perf.score");
    let weights = axis_weights(geom);
    let mut prints: Vec<BitGrid> = Vec::with_capacity(3);
    for corner in [
        ProcessCorner::Nominal,
        ProcessCorner::Max,
        ProcessCorner::Min,
    ] {
        let mut acc = vec![0.0; cw * ch];
        let mut wsum = vec![0.0; cw * ch];
        for (i, images) in images.iter().enumerate() {
            let images = images.as_ref().map_err(Clone::clone)?;
            let (tx, ty) = geom.tile_at(i);
            accumulate_window(
                images.get(corner).as_slice(),
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
        let blended = Grid2D::from_vec(cw, ch, acc);
        prints.push(BitGrid::from_threshold(&blended, sim.config().threshold));
    }
    let (r_min, r_max) = spec.circleopt_config().rule.radius_range_px(pixel_nm);
    let mrc = check_mrc(
        mask,
        &MrcRules {
            r_min,
            r_max,
            min_spacing: 2.0,
        },
    );
    let cross_seam = mrc
        .violations
        .iter()
        .filter(|v| match v {
            MrcViolation::SpacingTooSmall { a, b, .. } => owners[*a] != owners[*b],
            _ => false,
        })
        .count();
    Ok(ChipMethodOutcome {
        l2: l2_error(&prints[0], chip_target, pixel_nm),
        pvb: pvb(&prints[1], &prints[2], pixel_nm),
        epe: epe_violations(&prints[0], chip_target, &EpeConfig::default(), pixel_nm),
        shots: mask.shot_count(),
        mrc_violations: mrc.violations.len(),
        cross_seam_violations: cross_seam,
    })
}
