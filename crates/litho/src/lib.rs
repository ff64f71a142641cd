//! Partially coherent lithography simulation for CFAOPC.
//!
//! Implements the paper's preliminaries (§2.1–§2.2) from first principles:
//!
//! * the optics, fixed at the ICCAD-13 conventions (193 nm, NA 1.35, an
//!   annular source σ 0.6–0.9) and the relaxed resist's
//!   [`RESIST_STEEPNESS`];
//! * [`LithoConfig`] — resist threshold, process corners, grid geometry;
//! * [`KernelSet`] — Abbe/SOCS kernel generation (the `h_k`, `μ_k` of
//!   Eq. 1), stored sparsely on the pupil support;
//! * [`LithoSimulator`] — the Hopkins forward model
//!   `I = Σ_k μ_k |h_k ⊗ M|²` via FFT, plus the threshold resist (Eq. 2)
//!   and its sigmoid relaxation;
//! * [`loss_and_gradient`] — the hand-derived adjoint of the ILT loss
//!   `L = L2 + L_pvb` (Eq. 6) with respect to every mask pixel.
//!
//! # Examples
//!
//! ```
//! use cfaopc_litho::{LithoConfig, LithoSimulator, ProcessCorner};
//! use cfaopc_grid::{fill_rect, BitGrid, Rect};
//!
//! # fn main() -> Result<(), cfaopc_litho::LithoError> {
//! let cfg = LithoConfig::fast_test();
//! let sim = LithoSimulator::new(cfg.clone())?;
//! let mut mask = BitGrid::new(cfg.size, cfg.size);
//! fill_rect(&mut mask, Rect::new(20, 20, 44, 44));
//! let printed = sim.print(&mask, cfaopc_litho::ProcessCorner::Nominal)?;
//! assert!(printed.count_ones() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod gradient;
mod kernels;
mod process_window;
mod simulator;

pub use config::{
    CancelToken, LithoConfig, LithoError, NonFiniteTerm, ProcessCorner, RESIST_STEEPNESS,
};
pub use gradient::{
    loss_and_gradient, loss_and_gradient_into, loss_and_spectral_gradient, loss_only, GradientRows,
    GradientSpectrum, LossValues, LossWeights,
};
pub use kernels::{Kernel, KernelSet};
pub use process_window::{
    bossung_surface, cd_through_focus, measure_cd, standard_sweep, BossungPoint, BossungSurface,
    CdAxis, CdProbe,
};
pub use simulator::{sigmoid, sigmoid_sat, CornerImages, LithoSimulator, SIGMOID_SAT};
