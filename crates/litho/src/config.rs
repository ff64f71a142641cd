//! Optical and resist model configuration.

use cfaopc_fft::FftError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation handle for the optimizer entry points.
///
/// Clones share one flag; any clone may [`cancel`](CancelToken::cancel)
/// (e.g. a daemon's client handler) and the optimizer observes it at the
/// top of each iteration, returning [`LithoError::Cancelled`]. A clone
/// made by [`with_deadline`](CancelToken::with_deadline) shares the flag
/// and also reads as cancelled once its deadline has passed, so a
/// timeout is enforced by the same poll, with no thread watching the
/// clock. The flag is a plain relaxed load/store — cancellation needs no
/// ordering beyond "eventually seen", and the observing iteration
/// boundary is a deterministic function of when the store lands (or the
/// deadline passes), never of thread scheduling within an iteration.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone sharing this token's flag that also reads as cancelled
    /// from `deadline` on.
    pub fn with_deadline(&self, deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested or the deadline has
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.timed_out()
    }

    /// Whether this token's deadline has passed; never for a token made
    /// without one.
    pub fn timed_out(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Error raised for invalid lithography configurations.
#[derive(Debug, Clone, PartialEq)]
pub enum LithoError {
    /// The grid edge is not a nonzero power of two.
    BadGridSize(usize),
    /// A physical parameter is out of range (message explains which).
    BadParameter(String),
    /// A mask buffer does not match the simulator's grid shape. Both sides
    /// are reported in the same unit — `(width, height)` in pixels — so the
    /// message never mixes a pixel count with a grid edge.
    ShapeMismatch {
        /// Grid shape the simulator expects, as `(width, height)` pixels.
        expected: (usize, usize),
        /// Shape of the buffer provided, as `(width, height)` pixels.
        actual: (usize, usize),
    },
    /// The numerical-health guard caught a NaN/Inf during optimization.
    ///
    /// Raised by `run_pixel_ilt` and `run_circleopt` instead of silently
    /// burning the remaining iterations on garbage. Carries enough context
    /// to localize the blow-up: which iteration, and which term went
    /// non-finite first.
    NonFinite {
        /// Zero-based iteration at which the guard tripped.
        iteration: usize,
        /// The first loss/gradient term observed to be non-finite.
        term: NonFiniteTerm,
    },
    /// An FFT plan rejected a buffer. Unreachable when plans and buffers
    /// come from the same [`LithoConfig`], but propagated as a typed error
    /// instead of panicking so the library surface stays panic-free.
    Fft(FftError),
    /// The run observed its [`CancelToken`] and stopped early.
    ///
    /// Raised by the cancellable optimizer entry points at the top of an
    /// iteration — the same clean mid-run exit the [`LithoError::NonFinite`]
    /// health guard takes, so a cancelled run leaves shared simulator
    /// state (kernels, FFT plans, buffer pools, the worker pool) fully
    /// reusable by the next run.
    Cancelled {
        /// Zero-based iteration at which the cancellation was observed.
        iteration: usize,
    },
}

impl From<FftError> for LithoError {
    fn from(err: FftError) -> Self {
        LithoError::Fft(err)
    }
}

/// Which quantity tripped the [`LithoError::NonFinite`] health guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFiniteTerm {
    /// The fidelity (L2) loss term.
    LossL2,
    /// The process-variation-band loss term.
    LossPvb,
    /// The weighted total loss.
    LossTotal,
    /// The Lasso sparsity penalty.
    Sparsity,
    /// The parameter gradient (any entry NaN/Inf, detected via its norms).
    Gradient,
}

impl fmt::Display for NonFiniteTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NonFiniteTerm::LossL2 => "L2 loss",
            NonFiniteTerm::LossPvb => "PVB loss",
            NonFiniteTerm::LossTotal => "total loss",
            NonFiniteTerm::Sparsity => "sparsity penalty",
            NonFiniteTerm::Gradient => "gradient",
        };
        f.write_str(s)
    }
}

impl fmt::Display for LithoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LithoError::BadGridSize(n) => write!(f, "grid size {n} is not a power of two"),
            LithoError::BadParameter(msg) => write!(f, "invalid parameter: {msg}"),
            LithoError::ShapeMismatch { expected, actual } => write!(
                f,
                "mask is {}x{} pixels but the simulator expects {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            LithoError::NonFinite { iteration, term } => write!(
                f,
                "non-finite {term} at iteration {iteration}; run aborted by the numerical-health guard"
            ),
            LithoError::Fft(err) => write!(f, "fft plan rejected a buffer: {err}"),
            LithoError::Cancelled { iteration } => {
                write!(f, "run cancelled at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for LithoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LithoError::Fft(err) => Some(err),
            _ => None,
        }
    }
}

/// Process-window corner of the simulation (paper §2.3: PVB is measured
/// between the maximum and minimum process corners).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessCorner {
    /// Nominal dose, best focus.
    Nominal,
    /// Over-dose corner (prints fat) — `dose_max`, best focus.
    Max,
    /// Under-dose, defocused corner (prints thin) — `dose_min`,
    /// `defocus_nm` of focus error.
    Min,
}

impl ProcessCorner {
    /// All three corners in `[Nominal, Max, Min]` order.
    pub const ALL: [ProcessCorner; 3] = [
        ProcessCorner::Nominal,
        ProcessCorner::Max,
        ProcessCorner::Min,
    ];
}

/// Exposure wavelength in nanometres (193 nm ArF immersion).
pub(crate) const WAVELENGTH_NM: f64 = 193.0;
/// Numerical aperture of the projection lens.
pub(crate) const NA: f64 = 1.35;
/// Inner partial-coherence factor of the annular source.
pub(crate) const SIGMA_INNER: f64 = 0.6;
/// Outer partial-coherence factor of the annular source.
pub(crate) const SIGMA_OUTER: f64 = 0.9;
/// Steepness `θ_z` of the relaxed (sigmoid) resist used inside losses.
pub const RESIST_STEEPNESS: f64 = 50.0;

const _: () = assert!(WAVELENGTH_NM > 0.0 && NA > 0.0);
const _: () = assert!(0.0 <= SIGMA_INNER && SIGMA_INNER < SIGMA_OUTER && SIGMA_OUTER <= 1.0);

/// Configuration of the simulation grid, the imaging corners and the
/// resist threshold. The optics are the fixed ICCAD-2013 contest
/// conventions of the paper's setup (193 nm, NA 1.35, an annular source
/// σ 0.6–0.9, the relaxed resist's [`RESIST_STEEPNESS`]).
///
/// Defaults: intensity threshold 0.225 and ±2 % dose corners on a
/// 2048 nm tile. The grid is `size × size` pixels covering
/// `tile_nm × tile_nm` nanometres, so the pixel pitch is `tile_nm / size`.
///
/// # Examples
///
/// ```
/// use cfaopc_litho::LithoConfig;
///
/// let cfg = LithoConfig { size: 256, ..LithoConfig::default() };
/// assert_eq!(cfg.pixel_nm(), 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LithoConfig {
    /// Grid edge in pixels (power of two).
    pub size: usize,
    /// Physical tile edge in nanometres (the ICCAD-13 tiles are 2048 nm).
    pub tile_nm: f64,
    /// Number of source sample points = number of SOCS kernels per corner.
    pub kernel_count: usize,
    /// Resist intensity threshold `I_th` (paper Eq. 2).
    pub threshold: f64,
    /// Dose of the over-exposure corner (e.g. `1.02`).
    pub dose_max: f64,
    /// Dose of the under-exposure corner (e.g. `0.98`).
    pub dose_min: f64,
    /// Focus error of the `Min` corner in nanometres.
    pub defocus_nm: f64,
}

impl Default for LithoConfig {
    fn default() -> Self {
        LithoConfig {
            size: 512,
            tile_nm: 2048.0,
            kernel_count: 12,
            threshold: 0.225,
            dose_max: 1.02,
            dose_min: 0.98,
            defocus_nm: 25.0,
        }
    }
}

impl LithoConfig {
    /// A small, fast configuration for unit tests (64² grid, 6 kernels).
    pub fn fast_test() -> Self {
        LithoConfig {
            size: 64,
            kernel_count: 6,
            ..LithoConfig::default()
        }
    }

    /// Pixel pitch in nanometres.
    #[inline]
    pub fn pixel_nm(&self) -> f64 {
        self.tile_nm / self.size as f64
    }

    /// Converts a length in nanometres to (fractional) pixels.
    #[inline]
    pub fn nm_to_px(&self, nm: f64) -> f64 {
        nm / self.pixel_nm()
    }

    /// Converts a pixel count to nanometres.
    #[inline]
    pub fn px_to_nm(&self, px: f64) -> f64 {
        px * self.pixel_nm()
    }

    /// Dose multiplier applied at `corner`.
    #[inline]
    pub fn dose(&self, corner: ProcessCorner) -> f64 {
        match corner {
            ProcessCorner::Nominal => 1.0,
            ProcessCorner::Max => self.dose_max,
            ProcessCorner::Min => self.dose_min,
        }
    }

    /// Focus error in nanometres applied at `corner`.
    #[inline]
    pub fn defocus(&self, corner: ProcessCorner) -> f64 {
        match corner {
            ProcessCorner::Min => self.defocus_nm,
            _ => 0.0,
        }
    }

    /// Validates physical and numerical constraints.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError`] when the grid is not a power of two; the
    /// tile is not positive; there are no kernels; the doses do not
    /// bracket 1.0; the threshold is out of range; or the pupil is
    /// narrower than one frequency bin (`NA/λ · tile_nm < 1`). A pupil
    /// wider than the grid is not an error: the kernels keep only the bins
    /// up to Nyquist. Every pupil holds DC, so a clipped one spans at least
    /// `N/2 − 1` bins, and the pupil grid is then the whole grid (`S = N`,
    /// see [`crate::KernelSet::pupil_size`]).
    pub fn validate(&self) -> Result<(), LithoError> {
        if self.size == 0 || !self.size.is_power_of_two() {
            return Err(LithoError::BadGridSize(self.size));
        }
        if self.tile_nm <= 0.0 || self.tile_nm.is_nan() {
            return Err(LithoError::BadParameter("tile_nm must be positive".into()));
        }
        if self.kernel_count == 0 {
            return Err(LithoError::BadParameter(
                "kernel_count must be at least 1".into(),
            ));
        }
        if !(self.dose_min > 0.0 && self.dose_min <= 1.0 && self.dose_max >= 1.0) {
            return Err(LithoError::BadParameter(format!(
                "doses must bracket 1.0, got [{}, {}]",
                self.dose_min, self.dose_max
            )));
        }
        if !(self.threshold > 0.0 && self.threshold < 1.0) {
            return Err(LithoError::BadParameter(format!(
                "threshold must lie in (0,1), got {}",
                self.threshold
            )));
        }
        // The pupil (radius NA/λ in frequency space) must resolve to at
        // least one frequency bin: NA/λ >= 1/tile.
        let cutoff = NA / WAVELENGTH_NM;
        if cutoff * self.tile_nm < 1.0 {
            return Err(LithoError::BadParameter(
                "pupil smaller than one frequency bin; enlarge tile_nm".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        LithoConfig::default().validate().unwrap();
        LithoConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn pixel_pitch() {
        let cfg = LithoConfig::default();
        assert_eq!(cfg.pixel_nm(), 4.0);
        assert_eq!(cfg.nm_to_px(32.0), 8.0);
        assert_eq!(cfg.px_to_nm(8.0), 32.0);
    }

    #[test]
    fn rejects_bad_grid() {
        let cfg = LithoConfig {
            size: 100,
            ..LithoConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(LithoError::BadGridSize(100))));
    }

    #[test]
    fn rejects_bad_doses() {
        let cfg = LithoConfig {
            dose_min: 1.2,
            ..LithoConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = LithoConfig {
            dose_max: 0.9,
            ..LithoConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn corner_dose_and_defocus() {
        let cfg = LithoConfig::default();
        assert_eq!(cfg.dose(ProcessCorner::Nominal), 1.0);
        assert_eq!(cfg.dose(ProcessCorner::Max), 1.02);
        assert_eq!(cfg.dose(ProcessCorner::Min), 0.98);
        assert_eq!(cfg.defocus(ProcessCorner::Nominal), 0.0);
        assert_eq!(cfg.defocus(ProcessCorner::Min), 25.0);
    }

    #[test]
    fn a_deadline_clone_shares_the_flag_and_times_out() {
        let token = CancelToken::new();
        let past = token.with_deadline(Instant::now());
        let future = token.with_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        assert!(past.is_cancelled() && past.timed_out());
        assert!(!token.is_cancelled() && !token.timed_out());
        assert!(!future.is_cancelled() && !future.timed_out());
        future.cancel();
        assert!(token.is_cancelled() && past.is_cancelled());
        assert!(
            !token.timed_out() && !future.timed_out(),
            "a cancel is not a timeout"
        );
    }

    #[test]
    fn error_display_nonempty() {
        let e = LithoError::BadGridSize(7);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn shape_mismatch_reports_consistent_units() {
        // Regression: `actual` used to hold a raw pixel count while
        // `expected` held the grid edge, producing "mask has 256 pixels but
        // the simulator expects 64x64" for a 16x16 mask on a 64x64 grid.
        let e = LithoError::ShapeMismatch {
            expected: (64, 64),
            actual: (16, 16),
        };
        assert_eq!(
            e.to_string(),
            "mask is 16x16 pixels but the simulator expects 64x64"
        );
    }
}
