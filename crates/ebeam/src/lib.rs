//! E-beam mask-writer simulation for CFAOPC.
//!
//! The paper's motivation chain rests on two mask-writing claims:
//! rectangular-fractured curvilinear masks are "prone to writing errors
//! due to short-range e-beam blur in the 20–40 nm range", and the
//! circular writer's lower shot count cuts write time and improves
//! yield. This crate makes those claims measurable:
//!
//! * [`EbeamPsf`] — the double-Gaussian proximity function (forward blur
//!   `α`, backscatter `β`/`η`), with its analytic transfer function;
//! * [`WriterModel`] — additive per-shot dose deposition (circular and
//!   VSB-rectangular shots), FFT blur, develop at half the clearing dose,
//!   writing-error and write-time measures, seeded flash-dose noise;
//! * [`correct_proximity`] — iterative per-shot proximity-effect
//!   correction (PEC): five damped sweeps, doses clamped to `[0.3, 3]`.
//!
//! # Examples
//!
//! ```
//! use cfaopc_ebeam::{intended_pattern, DosedShot, EbeamPsf, WriterModel};
//! use cfaopc_fracture::{CircleShot, CircularMask};
//!
//! # fn main() -> Result<(), cfaopc_fft::FftError> {
//! let writer = WriterModel::new(128, 4.0, EbeamPsf::forward_only(25.0))?;
//! let mask = CircularMask::from_shots(vec![
//!     CircleShot::new(60, 64, 10),
//!     CircleShot::new(72, 64, 10),
//! ]);
//! let shots = WriterModel::dose_circles(&mask);
//! let written = writer.write(&shots);
//! let intended = intended_pattern(&shots, 128);
//! assert!(written.count_ones() > 0);
//! assert!(writer.writing_error(&shots, &intended) < intended.count_ones());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pec;
mod psf;
mod writer;

pub use pec::{correct_proximity, PecResult};
pub use psf::EbeamPsf;
pub use writer::{intended_pattern, DosedShot, WriterModel};
