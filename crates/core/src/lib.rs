//! **CircleOpt** — circular fracturing-aware inverse lithography.
//!
//! This crate is the paper's primary contribution: masks optimized
//! *directly in the circular-shot domain* of the variable-radius e-beam
//! writer, so the result is simultaneously a high-quality ILT mask and a
//! finished fracturing solution.
//!
//! The pieces, mapped to the paper:
//!
//! | Module / item        | Paper section                                    |
//! |----------------------|--------------------------------------------------|
//! | [`SparseCircles`]    | §4.2 sparse circular reparameterization          |
//! | [`ste`]              | Eq. 7–9 straight-through estimators              |
//! | [`compose`]          | Eq. 10–11 differentiable circle-to-pixel map     |
//! | [`Composite::backward`] | Eq. 12–14 + Eq. 16 manual gradients           |
//! | [`run_circleopt`]    | the full two-stage pipeline (Fig. 3), Eq. 15/17  |
//!
//! # Examples
//!
//! ```
//! use cfaopc_core::{run_circleopt, CircleOptConfig, RunCtx};
//! use cfaopc_grid::{fill_rect, BitGrid, Rect};
//! use cfaopc_litho::{LithoConfig, LithoSimulator};
//!
//! # fn main() -> Result<(), cfaopc_litho::LithoError> {
//! // A small, fast setup (tests / doc builds); real experiments use the
//! // default 512² grid.
//! let sim = LithoSimulator::new(LithoConfig {
//!     size: 128,
//!     kernel_count: 4,
//!     ..LithoConfig::default()
//! })?;
//! let mut target = BitGrid::new(128, 128);
//! fill_rect(&mut target, Rect::new(61, 40, 67, 88));
//! let config = CircleOptConfig::for_grid(128, 2, 2);
//! let result = run_circleopt(&sim, &target, &config, RunCtx::default())?;
//! assert!(result.shot_count() > 0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the composition engine's render/backward
// kernels carry narrow, per-site `#[allow(unsafe_code)]` exemptions for
// the disjoint-tile slice views and the AVX2 dispatch (each with a
// `// SAFETY:` contract, enforced by lint rule L1). Everything else in
// the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod optimize;
mod repr;
mod simd;
mod soft;
mod ste;

pub use cfaopc_ilt::RunCtx;
pub use compose::{compose, compose_serial, ComposeConfig, ComposeWorkspace, Composite, TILE};
pub use optimize::Composition;
pub use optimize::{run_circleopt, CircleOptConfig, CircleOptResult, CircleOptTrace};
#[doc(hidden)]
pub use optimize::{run_circleopt_cancellable, run_circleopt_traced};
pub use repr::{CircleParams, SparseCircles, Q_THRESHOLD};
pub use soft::{compose_soft, compose_soft_serial, SoftComposite, SoftWorkspace};
pub use ste::{ste, SteValue};
