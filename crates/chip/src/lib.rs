//! Full-chip multi-tile decomposition with halo stitching.
//!
//! Everything below `cfaopc-chip` optimizes one tile at a time; this
//! crate scales the pipeline to chips of many tiles — the
//! `TileSize`/`Offset`/`ILTSize` filter-window pattern of full-chip ILT
//! flows:
//!
//! 1. **Decompose** — the chip raster is covered by overlapping
//!    simulation windows: each tile owns a `tile_px` square interior and
//!    simulates a `2·tile_px` window around it, a halo of `tile_px/2`
//!    pixels (≥ 1000 nm at every supported pitch — far beyond the
//!    ~λ/NA ≈ 143 nm optical interaction radius).
//! 2. **Optimize** — every window runs the full per-tile pipeline (pixel
//!    ILT → CircleRule and CircleOpt) in parallel on the persistent
//!    worker pool, sharded exactly like `cfaopc_eval` (index-keyed
//!    shares through
//!    [`par_map_coarse`](cfaopc_fft::parallel::par_map_coarse), so results
//!    are byte-identical to serial at any `CFAOPC_THREADS`).
//! 3. **Merge** — each shot belongs to the tile that owns its centre
//!    pixel; owned shots translate to chip coordinates and concatenate
//!    in row-major tile order into one chip-level CSHOT list, checked
//!    for MRC violations *across seams* (spacing violations whose shots
//!    came from different tiles).
//! 4. **Stitch** — per-window aerial images of the merged mask blend
//!    into chip-level intensity under deterministic partition-of-unity
//!    tent weights; thresholding the blend yields chip prints at all
//!    three process corners, scored with the standard L2/PVB/EPE
//!    metrics.
//!
//! The result (`CHIP_RESULTS.json`) is byte-stable across runs and
//! thread counts and is gated against a committed golden file in CI,
//! like the single-tile eval suites.
//!
//! # Examples
//!
//! ```no_run
//! use cfaopc_chip::{run_chip_suite, ChipSpec};
//!
//! let spec = ChipSpec::named("chip-tiny").unwrap();
//! let report = run_chip_suite(&spec).unwrap();
//! println!("{}", report.markdown_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geometry;
mod harness;
mod report;
mod spec;
mod stitch;

pub use geometry::ChipGeometry;
pub use harness::{
    run_chip_case_full, run_chip_suite, run_tile, ChipError, ChipOutcome, TileShots,
};
pub use report::{
    compare_chip_reports, ChipMethodOutcome, ChipRecord, ChipReport, TileRecord, SCHEMA,
};
pub use spec::{ChipSource, ChipSpec};
pub use stitch::{
    accumulate_window, accumulate_windows, axis_weights, extract_window_into, merge_tile_shots,
    normalize_blend,
};
