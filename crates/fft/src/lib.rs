//! Self-contained FFT substrate for the CFAOPC lithography stack.
//!
//! The Hopkins diffraction model (paper Eq. 1) evaluates `h_k ⊗ M` as
//! `IFFT(FFT(h_k) · FFT(M))`; this crate provides everything that pipeline
//! needs without external numerics dependencies:
//!
//! * [`Complex`] — a 16-byte double-precision complex number,
//! * [`Fft`] — a reusable 1-D radix-2 plan with precomputed twiddles,
//! * [`Fft2d`] — a separable 2-D plan whose column pass runs in place on
//!   the row-major data (no transpose, no scratch), on the calling thread,
//! * [`Rfft2d`] — a real-input 2-D plan that exploits Hermitian symmetry
//!   to roughly halve the transform work for real masks,
//! * [`parallel`] — persistent-worker-pool helpers the rest of the
//!   workspace reuses for data-parallel loops,
//! * [`simd`] — the workspace's shared AVX2 detection latch and bit-exact
//!   vector kernels for complex-field inner loops, the resist and the
//!   pixel-ILT iteration,
//! * [`workspace`] — recyclable buffer pools for hot-loop scratch space,
//! * [`naive_dft`] / [`naive_dft_into`] — O(n²) reference transforms for
//!   tests.
//!
//! # Examples
//!
//! Low-pass filtering an image through the frequency domain:
//!
//! ```
//! use cfaopc_fft::{Complex, Fft2d, signed_freq};
//!
//! # fn main() -> Result<(), cfaopc_fft::FftError> {
//! let n = 32;
//! let plan = Fft2d::square(n)?;
//! let mut img: Vec<Complex> = (0..n * n)
//!     .map(|i| Complex::from_re(if i % 7 == 0 { 1.0 } else { 0.0 }))
//!     .collect();
//! plan.forward(&mut img)?;
//! for ky in 0..n {
//!     for kx in 0..n {
//!         let fy = signed_freq(ky, n);
//!         let fx = signed_freq(kx, n);
//!         if fx * fx + fy * fy > 16 {
//!             img[ky * n + kx] = Complex::ZERO;
//!         }
//!     }
//! }
//! plan.inverse(&mut img)?;
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the persistent worker pool in [`parallel`]
// lends non-`'static` closures to long-lived threads and hands tasks
// disjoint slots of shared buffers, the in-place column pass views a
// row-major grid as strided row segments, and the [`simd`] and FFT
// butterfly kernels use AVX2 intrinsics — each through a tightly-scoped
// `#[allow(unsafe_code)]` site with its own safety argument. Everything
// else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod fft1d;
mod fft2d;
pub mod parallel;
mod rfft2d;
pub mod simd;
pub mod workspace;

pub use complex::Complex;
pub use fft1d::{naive_dft, naive_dft_into, Direction, Fft, FftError};
pub use fft2d::{signed_freq, Fft2d};
pub use rfft2d::{Rfft2d, RowPairs};
pub use workspace::BufferPool;
