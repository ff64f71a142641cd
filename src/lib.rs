//! # cfaopc — fracturing-aware curvilinear ILT for circular e-beam mask writers
//!
//! A from-scratch Rust reproduction of *"Fracturing-aware Curvilinear ILT
//! via Circular E-beam Mask Writer"* (DAC 2024): inverse lithography that
//! emits masks already fractured into the overlapping variable-radius
//! circles of the circular e-beam writer.
//!
//! The facade re-exports every subsystem:
//!
//! * [`fft`] — self-contained 1-D/2-D FFT,
//! * [`grid`] — pixel geometry (rasterization, skeletons, morphology),
//! * [`litho`] — Hopkins/Abbe lithography simulation + manual adjoint,
//! * [`layouts`] — the ten benchmark tiles (Table 2 areas),
//! * [`ilt`] — pixel-level ILT engines (MOSAIC + SOTA-like baselines),
//! * [`fracture`] — rectangular fracturing, **CircleRule**, circle MRC,
//! * [`circleopt`] — **CircleOpt**, the paper's optimization-based method,
//! * [`metrics`] — L2 / PVB / EPE / shot count, result tables,
//! * [`eval`] — the sharded end-to-end evaluation harness behind
//!   `cfaopc eval` (suites, `RESULTS.json`, golden-file drift checks),
//! * [`chip`] — full-chip multi-tile decomposition behind `cfaopc chip`
//!   (halo windows, parallel per-tile pipelines, partition-of-unity seam
//!   stitching, cross-seam MRC, `CHIP_RESULTS.json`),
//! * [`viz`] — PGM/SVG rendering,
//! * [`trace`] — opt-in observability: hierarchical spans, atomic
//!   counters, and per-iteration [`trace::TelemetrySink`] records.
//!
//! # Quickstart
//!
//! ```
//! use cfaopc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small grid so this doc test stays fast; experiments use 512².
//! let sim = LithoSimulator::new(LithoConfig {
//!     size: 128,
//!     kernel_count: 4,
//!     ..LithoConfig::default()
//! })?;
//! let mut target = BitGrid::new(128, 128);
//! fill_rect(&mut target, Rect::new(56, 40, 64, 90));
//!
//! // Rule-based: pixel ILT, then fracture into circles.
//! let pixel = run_engine(&sim, &target, IltEngine::Mosaic, 4)?;
//! let circles = circle_rule(&pixel.mask_binary, &CircleRuleConfig::default(), 16.0);
//!
//! // Optimization-based: optimize the circles directly.
//! let opt = run_circleopt(
//!     &sim,
//!     &target,
//!     &CircleOptConfig { init_iterations: 2, circle_iterations: 2, ..CircleOptConfig::default() },
//!     RunCtx::default(),
//! )?;
//! println!("CircleRule {} shots, CircleOpt {} shots", circles.shot_count(), opt.shot_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cfaopc_chip as chip;
pub use cfaopc_core as circleopt;
pub use cfaopc_ebeam as ebeam;
pub use cfaopc_eval as eval;
pub use cfaopc_fft as fft;
pub use cfaopc_fracture as fracture;
pub use cfaopc_grid as grid;
pub use cfaopc_ilt as ilt;
pub use cfaopc_layouts as layouts;
pub use cfaopc_litho as litho;
pub use cfaopc_metrics as metrics;
pub use cfaopc_serve as serve;
pub use cfaopc_trace as trace;
pub use cfaopc_viz as viz;

/// One-stop imports for applications.
pub mod prelude {
    pub use cfaopc_chip::{
        compare_chip_reports, run_chip_case_full, run_chip_suite, ChipGeometry, ChipReport,
        ChipSpec,
    };
    pub use cfaopc_core::{
        compose, compose_soft, run_circleopt, ste, CircleOptConfig, CircleOptResult, CircleParams,
        ComposeConfig, Composition, RunCtx, SparseCircles,
    };
    pub use cfaopc_ebeam::{correct_proximity, intended_pattern, DosedShot, EbeamPsf, WriterModel};
    pub use cfaopc_eval::{
        compare_reports, run_suite, run_suite_timed, CaseRecord, EvalReport, SuiteSpec, Tolerance,
    };
    pub use cfaopc_fracture::{
        check_mrc, circle_rule, rect_fracture, rect_shot_count, CircleRuleConfig, CircleShot,
        CircularMask, MrcRules, ShotList,
    };
    pub use cfaopc_grid::{fill_circle, fill_rect, BitGrid, Grid2D, Point, Rect};
    pub use cfaopc_ilt::{run_engine, run_pixel_ilt, IltEngine, IltResult, PixelIltConfig};
    pub use cfaopc_layouts::{
        all_cases, benchmark_case, generate_chip, generate_layout, ChipLayout, Layout,
        PAPER_AREAS_NM2, TILE_NM,
    };
    pub use cfaopc_litho::{
        bossung_surface, measure_cd, standard_sweep, CdAxis, CdProbe, LithoConfig, LithoSimulator,
        LossWeights, ProcessCorner,
    };
    pub use cfaopc_metrics::{
        epe_report, epe_violations, evaluate_mask, l2_error, measure_meef, pvb, EpeConfig,
        EpeReport, MaskMetrics, MeefReport, MetricRow, MetricTable,
    };
    pub use cfaopc_trace::{IterationRecord, JsonlSink, MemorySink, Stage, TelemetrySink};
    pub use cfaopc_viz::{save_pgm, SvgScene};
}
