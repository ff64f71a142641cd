//! Pixel-level inverse lithography (ILT) engines.
//!
//! Gradient-based mask optimization over a latent pixel field, the
//! substrate under both halves of the paper:
//!
//! * CircleRule (paper §3) fractures masks produced by these engines;
//! * CircleOpt (paper §4) uses [`IltEngine::Mosaic`] for its pixel-level
//!   initialization stage.
//!
//! See [`run_pixel_ilt`] for the optimizer loop and [`RunCtx`] for its
//! per-run inputs (warm start, telemetry sink, cancel token),
//! [`IltEngine`] / [`run_engine`] for the named baseline profiles (the
//! DevelSet-like level set runs on the same loop), and [`Optimizer`] for
//! the shared Adam state (the circle-level stage reuses it). The
//! per-pixel work of every pixel-ILT iteration runs in
//! `cfaopc_fft::simd::PixelStep`, a row at a time as the gradient streams
//! in, so this crate stays free of `unsafe`.
//!
//! # Examples
//!
//! ```
//! use cfaopc_grid::{fill_rect, BitGrid, Rect};
//! use cfaopc_ilt::{run_pixel_ilt, PixelIltConfig, RunCtx};
//! use cfaopc_litho::{LithoConfig, LithoSimulator};
//!
//! # fn main() -> Result<(), cfaopc_litho::LithoError> {
//! let sim = LithoSimulator::new(LithoConfig::fast_test())?;
//! let mut target = BitGrid::new(64, 64);
//! fill_rect(&mut target, Rect::new(30, 20, 33, 44));
//! let cfg = PixelIltConfig { iterations: 5, ..PixelIltConfig::default() };
//! let result = run_pixel_ilt(&sim, &target, &cfg, RunCtx::default())?;
//! assert_eq!(result.mask_binary.width(), 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engines;
mod levelset;
mod optimizer;
mod pixel;

pub use engines::{downsample_majority, run_engine, upsample_nearest, IltEngine};
pub use levelset::signed_distance;
pub use optimizer::Optimizer;
pub use pixel::{run_pixel_ilt, IltResult, PixelIltConfig, RunCtx, UpdateDomain};
