//! The full-chip decomposition harness.
//!
//! [`run_chip_suite`] drives every chip of a [`ChipSpec`] through the
//! decomposed pipeline: chip raster → per-tile halo windows → pixel ILT
//! + CircleRule / CircleOpt per window (in parallel on the persistent
//!   pool) → interior-owned shot merge → partition-of-unity aerial blend →
//!   chip-level metrics and cross-seam MRC.
//!
//! # Sharding model
//!
//! Tiles are independent, so the harness parallelizes at the *tile*
//! level, exactly the whole-case sharding `cfaopc_eval` uses: one
//! `par_map` region over the tile list, each tile capping its inner
//! parallel regions at its share from
//! [`worker_shares`]`(workers, min(tiles, workers))`, with shares keyed
//! off the tile index so the schedule is timing-independent.
//!
//! # Determinism
//!
//! `CHIP_RESULTS.json` is reproducible to the byte across runs and
//! across `CFAOPC_THREADS` values:
//!
//! * `par_map` collects per-tile results in index order and every inner
//!   parallel path is bit-identical to its serial execution (asserted by
//!   the fft/litho/core concurrency tests);
//! * shot merging walks tiles in row-major order and keeps each shot
//!   exactly once (its centre's owner emits it);
//! * the seam blend accumulates window intensities serially in the same
//!   row-major tile order, so float non-associativity never reorders —
//!   the weights are exact small integers and the per-pixel weight sum
//!   divides out as a partition of unity;
//! * wall-clock timing is never recorded.

use crate::geometry::ChipGeometry;
use crate::report::{ChipMethodOutcome, ChipRecord, ChipReport, TileRecord};
use crate::spec::ChipSpec;
use crate::stitch::{
    accumulate_window, axis_weights, extract_window_into, merge_tile_shots, normalize_blend,
};
use cfaopc_core::{run_circleopt, RunCtx};
use cfaopc_fft::parallel::{par_map, with_worker_limit, worker_count, worker_shares};
use cfaopc_fracture::{check_mrc, circle_rule, CircularMask, MrcRules, MrcViolation};
use cfaopc_grid::{BitGrid, Grid2D};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::ChipLayout;
use cfaopc_litho::{LithoError, LithoSimulator, ProcessCorner};
use cfaopc_metrics::{epe_violations, l2_error, pvb, EpeConfig};
use std::fmt;

/// Errors from a chip-decomposition run.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipError {
    /// The shared window simulator could not be built.
    Config(LithoError),
    /// A per-tile pipeline or the stitch phase failed (named for
    /// context; `tile` is `"<stitch>"` for blend-phase failures).
    Litho {
        /// The chip that failed.
        chip: String,
        /// The tile (or `"<stitch>"`) that failed.
        tile: String,
        /// The underlying error.
        error: LithoError,
    },
    /// Anything else (report parsing, golden comparison I/O).
    Other(String),
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::Config(e) => write!(f, "window configuration: {e}"),
            ChipError::Litho { chip, tile, error } => write!(f, "chip {chip} tile {tile}: {error}"),
            ChipError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ChipError {}

/// Both fractured masks one tile's pipeline produces, in window pixel
/// coordinates.
#[derive(Debug, Clone, Default)]
pub struct TileShots {
    /// MultiILT + CircleRule (the rule-based baseline).
    pub rule: CircularMask,
    /// CircleOpt (the paper's optimization-based method).
    pub opt: CircularMask,
}

/// Runs the per-tile pipeline on one halo window: pixel ILT feeding
/// CircleRule, plus a CircleOpt run, both against `window_target`.
/// Empty windows short-circuit to empty masks — emptiness is a pure
/// function of the inputs, so the shortcut preserves determinism.
///
/// # Errors
///
/// Returns [`LithoError`] when the simulator or an optimizer fails.
pub fn run_tile(
    sim: &LithoSimulator,
    window_target: &BitGrid,
    spec: &ChipSpec,
) -> Result<TileShots, LithoError> {
    if window_target.is_clear() {
        return Ok(TileShots::default());
    }
    let pixel_nm = sim.config().pixel_nm();
    let opt_config = spec.circleopt_config();
    let pixel = run_engine(
        sim,
        window_target,
        IltEngine::MultiIltLike,
        spec.rule_iterations,
    )?;
    let rule = circle_rule(&pixel.mask_binary, &opt_config.rule, pixel_nm);
    let opt = run_circleopt(sim, window_target, &opt_config, RunCtx::default())?;
    Ok(TileShots {
        rule,
        opt: opt.mask,
    })
}

/// One method's merged chip mask plus the owner index of every shot.
struct MergedMask {
    mask: CircularMask,
    owners: Vec<u32>,
}

fn merge_method(geom: &ChipGeometry, tiles: &[TileShots], rule: bool) -> MergedMask {
    let mut shots = Vec::new();
    let mut owners = Vec::new();
    for (i, t) in tiles.iter().enumerate() {
        let mask = if rule { &t.rule } else { &t.opt };
        merge_tile_shots(geom, i, mask.shots(), &mut shots, &mut owners);
    }
    MergedMask {
        mask: CircularMask::from_shots(shots),
        owners,
    }
}

/// Blends the merged mask's per-window aerial images into chip-level
/// prints at the three process corners, then scores them.
fn stitched_outcome(
    spec: &ChipSpec,
    sim: &LithoSimulator,
    geom: &ChipGeometry,
    chip_target: &BitGrid,
    merged: &MergedMask,
) -> Result<ChipMethodOutcome, LithoError> {
    let (cw, ch) = (geom.chip_width_px(), geom.chip_height_px());
    let win = geom.window_px();
    let pixel_nm = spec.pixel_nm();
    let chip_raster = merged.mask.rasterize(cw, ch);

    // Per-window corner images of the *merged* mask, in parallel with
    // index-keyed shares (results land in tile order).
    let tiles = geom.tile_count();
    let workers = worker_count();
    let concurrent = workers.min(tiles).max(1);
    let shares = worker_shares(workers, concurrent);
    let images = par_map(tiles, |i| {
        with_worker_limit(shares[i % concurrent], || {
            let (tx, ty) = geom.tile_at(i);
            let mut window = BitGrid::new(win, win);
            extract_window_into(&chip_raster, geom.window_origin(tx, ty), &mut window);
            sim.aerial_corners(&window.to_real())
        })
    });

    // Serial partition-of-unity accumulation in row-major tile order.
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
            let images = match images {
                Ok(images) => images,
                Err(e) => return Err(e.clone()),
            };
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

    // Cross-seam MRC: radius bounds from the CircleRule config (the
    // writer's physical limits), spacing rule between disjoint shot
    // groups; a spacing violation whose shots came from different tiles
    // is a seam artifact by construction.
    let rule_cfg = spec.circleopt_config().rule;
    let (r_min, r_max) = rule_cfg.radius_range_px(pixel_nm);
    let mrc = check_mrc(
        &merged.mask,
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
            MrcViolation::SpacingTooSmall { a, b, .. } => merged.owners[*a] != merged.owners[*b],
            _ => false,
        })
        .count();

    Ok(ChipMethodOutcome {
        l2: l2_error(&prints[0], chip_target, pixel_nm),
        pvb: pvb(&prints[1], &prints[2], pixel_nm),
        epe: epe_violations(&prints[0], chip_target, &EpeConfig::default(), pixel_nm),
        shots: merged.mask.shot_count(),
        mrc_violations: mrc.violations.len(),
        cross_seam_violations: cross_seam,
    })
}

/// A chip record plus the merged chip-level masks it was scored on —
/// what the CLI serializes to CSHOT shot lists.
#[derive(Debug, Clone)]
pub struct ChipOutcome {
    /// The per-chip report record.
    pub record: ChipRecord,
    /// Merged rule-baseline shots in chip pixel coordinates.
    pub rule_mask: CircularMask,
    /// Merged CircleOpt shots in chip pixel coordinates.
    pub opt_mask: CircularMask,
}

/// Runs one chip through the decomposed pipeline with a shared window
/// simulator.
///
/// # Errors
///
/// Returns [`ChipError::Litho`] naming the first failing tile (tile
/// selection follows row-major order, so it is deterministic).
pub fn run_chip_case_full(
    spec: &ChipSpec,
    sim: &LithoSimulator,
    chip: &ChipLayout,
) -> Result<ChipOutcome, ChipError> {
    let geom = spec.geometry(chip);
    let target = chip.rasterize(spec.tile_px);
    let win = geom.window_px();

    // Window targets, then the per-tile pipelines on the pool.
    let tiles = geom.tile_count();
    let windows: Vec<BitGrid> = (0..tiles)
        .map(|i| {
            let (tx, ty) = geom.tile_at(i);
            let mut w = BitGrid::new(win, win);
            extract_window_into(&target, geom.window_origin(tx, ty), &mut w);
            w
        })
        .collect();
    let workers = worker_count();
    let concurrent = workers.min(tiles).max(1);
    let shares = worker_shares(workers, concurrent);
    let results = par_map(tiles, |i| {
        with_worker_limit(shares[i % concurrent], || run_tile(sim, &windows[i], spec))
    });
    let mut tile_shots = Vec::with_capacity(tiles);
    for (i, r) in results.into_iter().enumerate() {
        let (tx, ty) = geom.tile_at(i);
        tile_shots.push(r.map_err(|error| ChipError::Litho {
            chip: chip.name.clone(),
            tile: format!("t{tx}x{ty}"),
            error,
        })?);
    }

    let stitch_err = |error: LithoError| ChipError::Litho {
        chip: chip.name.clone(),
        tile: "<stitch>".into(),
        error,
    };
    let rule_merged = merge_method(&geom, &tile_shots, true);
    let opt_merged = merge_method(&geom, &tile_shots, false);
    let rule = stitched_outcome(spec, sim, &geom, &target, &rule_merged).map_err(stitch_err)?;
    let opt = stitched_outcome(spec, sim, &geom, &target, &opt_merged).map_err(stitch_err)?;

    let tile_records = (0..tiles)
        .map(|i| {
            let (tx, ty) = geom.tile_at(i);
            let owned = |owners: &[u32]| owners.iter().filter(|&&o| o == i as u32).count();
            TileRecord {
                name: format!("t{tx}x{ty}"),
                rule_shots: owned(&rule_merged.owners),
                opt_shots: owned(&opt_merged.owners),
            }
        })
        .collect();

    Ok(ChipOutcome {
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
        rule_mask: rule_merged.mask,
        opt_mask: opt_merged.mask,
    })
}

/// Runs every chip of `spec` and assembles the suite report. Chips run
/// sequentially — each one already shards its tiles across the whole
/// pool.
///
/// # Errors
///
/// Returns [`ChipError::Config`] when the window simulator cannot be
/// built, or the first per-chip error in suite order.
pub fn run_chip_suite(spec: &ChipSpec) -> Result<ChipReport, ChipError> {
    let sim = LithoSimulator::new(spec.litho_config()).map_err(ChipError::Config)?;
    let mut records = Vec::with_capacity(spec.chips.len());
    for source in &spec.chips {
        let chip = source.chip();
        records.push(run_chip_case_full(spec, &sim, &chip)?.record);
    }
    let geom = ChipGeometry::new(1, 1, spec.tile_px);
    Ok(ChipReport {
        suite: spec.name.clone(),
        tile_px: spec.tile_px,
        window_px: geom.window_px(),
        halo_px: geom.halo_px(),
        kernel_count: spec.kernel_count,
        chips: records,
    })
}
