//! The mask-writer exposure model.
//!
//! Shots deposit dose **additively** (overlapping circular shots stack,
//! which is what makes the circular writer's overlap-friendly fracturing
//! physically meaningful); the dose map is blurred by the e-beam PSF and
//! the resist develops where the delivered dose exceeds a threshold.
//! Per-shot dose errors (flash-to-flash current noise) are modeled as
//! seeded multiplicative perturbations — masks with more shots integrate
//! more noise along their boundaries, the mechanism behind "fewer shots →
//! better mask yield".

use crate::psf::EbeamPsf;
use cfaopc_fft::{Complex, FftError, Rfft2d};
use cfaopc_fracture::{CircleShot, CircularMask};
use cfaopc_grid::{disk_points, BitGrid, Grid2D, Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One shot with an explicit relative dose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DosedShot {
    /// A circular shot.
    Circle {
        /// Geometry.
        shot: CircleShot,
        /// Relative dose (1.0 = nominal clearing dose).
        dose: f64,
    },
    /// A rectangular (VSB) shot.
    Rect {
        /// Geometry (half-open pixel rect).
        rect: Rect,
        /// Relative dose.
        dose: f64,
    },
}

impl DosedShot {
    /// The shot's relative dose.
    pub fn dose(&self) -> f64 {
        match self {
            DosedShot::Circle { dose, .. } | DosedShot::Rect { dose, .. } => *dose,
        }
    }

    fn with_dose(self, dose: f64) -> DosedShot {
        match self {
            DosedShot::Circle { shot, .. } => DosedShot::Circle { shot, dose },
            DosedShot::Rect { rect, .. } => DosedShot::Rect { rect, dose },
        }
    }
}

/// Develop threshold as a fraction of the nominal clearing dose.
const DEVELOP_THRESHOLD: f64 = 0.5;

/// The writer: grid geometry, PSF and a develop threshold of half the
/// nominal clearing dose.
#[derive(Debug, Clone)]
pub struct WriterModel {
    size: usize,
    pixel_nm: f64,
    psf: EbeamPsf,
    plan: Rfft2d,
    /// The PSF's transfer function divided by `size²`, the inverse
    /// transform's normalization.
    transfer: Vec<f64>,
}

impl WriterModel {
    /// Builds a writer for an `size × size` grid with `pixel_nm` pitch.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] when `size` is not a supported FFT size (a
    /// non-zero power of two) — mirroring `LithoSimulator::new`, which
    /// surfaces the same condition instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if the PSF is physically invalid (see [`EbeamPsf::validate`]).
    pub fn new(size: usize, pixel_nm: f64, psf: EbeamPsf) -> Result<Self, FftError> {
        psf.validate();
        let plan = Rfft2d::square(size)?;
        let norm = 1.0 / (size * size) as f64;
        let transfer = psf
            .transfer_function(size, pixel_nm)
            .into_iter()
            .map(|h| h * norm)
            .collect();
        Ok(WriterModel {
            size,
            pixel_nm,
            psf,
            plan,
            transfer,
        })
    }

    /// Grid edge in pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Pixel pitch in nm.
    pub fn pixel_nm(&self) -> f64 {
        self.pixel_nm
    }

    /// The PSF in use.
    pub fn psf(&self) -> &EbeamPsf {
        &self.psf
    }

    /// Converts a circular mask to unit-dose shots.
    pub fn dose_circles(mask: &CircularMask) -> Vec<DosedShot> {
        mask.shots()
            .iter()
            .map(|&shot| DosedShot::Circle { shot, dose: 1.0 })
            .collect()
    }

    /// Converts a rectangle decomposition to unit-dose shots.
    pub fn dose_rects(rects: &[Rect]) -> Vec<DosedShot> {
        rects
            .iter()
            .map(|&rect| DosedShot::Rect { rect, dose: 1.0 })
            .collect()
    }

    /// Raw (pre-blur) deposited dose: every shot adds its dose to the
    /// pixels it covers. Overlaps accumulate.
    pub fn deposit(&self, shots: &[DosedShot]) -> Grid2D<f64> {
        let n = self.size;
        let mut dose = Grid2D::new(n, n, 0.0f64);
        for s in shots {
            match *s {
                DosedShot::Circle { shot, dose: d } => {
                    for p in disk_points(shot.center(), shot.r, n, n) {
                        dose[(p.x as usize, p.y as usize)] += d;
                    }
                }
                DosedShot::Rect { rect, dose: d } => {
                    let x0 = rect.x0.max(0) as usize;
                    let y0 = rect.y0.max(0) as usize;
                    let x1 = (rect.x1.max(0) as usize).min(n);
                    let y1 = (rect.y1.max(0) as usize).min(n);
                    for y in y0..y1 {
                        for x in x0..x1 {
                            dose[(x, y)] += d;
                        }
                    }
                }
            }
        }
        dose
    }

    /// Delivered dose: deposit, then blur with the e-beam PSF (FFT).
    pub fn expose(&self, shots: &[DosedShot]) -> Grid2D<f64> {
        let deposited = self.deposit(shots);
        self.blur(&deposited)
    }

    /// Blurs an arbitrary dose map with the writer's PSF.
    ///
    /// Both transforms run on the real-input plan: the dose is real, and
    /// the blurred dose is `Re IFFT(Y) = Re FFT(conj Y) / size²` for the
    /// filtered spectrum `Y`, an identity that holds for any `Y`.
    pub fn blur(&self, dose: &Grid2D<f64>) -> Grid2D<f64> {
        let n = self.size;
        let mut spectrum = vec![Complex::ZERO; n * n];
        self.plan
            .forward_into(dose.as_slice(), &mut spectrum)
            .expect("plan matches size");
        for (z, &h) in spectrum.iter_mut().zip(&self.transfer) {
            *z = z.conj().scale(h);
        }
        let mut blurred = vec![0.0; n * n];
        self.plan
            .forward_re_into(&spectrum, &mut blurred)
            .expect("plan matches size");
        Grid2D::from_vec(n, n, blurred)
    }

    /// Develops the resist: pixels with delivered dose above threshold.
    pub fn develop(&self, delivered: &Grid2D<f64>) -> BitGrid {
        BitGrid::from_threshold(delivered, DEVELOP_THRESHOLD)
    }

    /// One-call writing simulation: expose and develop.
    pub fn write(&self, shots: &[DosedShot]) -> BitGrid {
        self.develop(&self.expose(shots))
    }

    /// Writing error: symmetric difference between the written pattern
    /// and the intended mask, in pixels.
    pub fn writing_error(&self, shots: &[DosedShot], intended: &BitGrid) -> usize {
        self.write(shots).xor_count(intended)
    }

    /// Applies seeded multiplicative flash-dose noise:
    /// `dose_i ← dose_i · (1 + σ·ξ_i)` with `ξ ~ U(−√3, √3)` (unit
    /// variance), clamped at 0.
    pub fn with_dose_noise(shots: &[DosedShot], sigma: f64, seed: u64) -> Vec<DosedShot> {
        let mut rng = StdRng::seed_from_u64(seed);
        let half_width = 3f64.sqrt();
        shots
            .iter()
            .map(|&s| {
                let xi: f64 = rng.gen_range(-half_width..half_width);
                let factor = (1.0 + sigma * xi).max(0.0);
                s.with_dose(s.dose() * factor)
            })
            .collect()
    }

    /// Write-time estimate: `shots · (flash_us + settle_us)`, in seconds.
    /// The circular writer's shot-count advantage translates linearly
    /// into mask-write time.
    pub fn write_time_s(shot_count: usize, flash_us: f64, settle_us: f64) -> f64 {
        shot_count as f64 * (flash_us + settle_us) * 1e-6
    }
}

/// Rasterization helper: the intended pattern of a set of unit-dose
/// shots (pure union, no physics) — what the fracturing stage believes
/// it is writing.
pub fn intended_pattern(shots: &[DosedShot], size: usize) -> BitGrid {
    let mut mask = BitGrid::new(size, size);
    for s in shots {
        match *s {
            DosedShot::Circle { shot, .. } => {
                cfaopc_grid::fill_circle(&mut mask, Point::new(shot.x, shot.y), shot.r);
            }
            DosedShot::Rect { rect, .. } => {
                cfaopc_grid::fill_rect(&mut mask, rect);
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::fill_rect;

    fn writer() -> WriterModel {
        WriterModel::new(128, 4.0, EbeamPsf::forward_only(25.0)).unwrap()
    }

    #[test]
    fn non_power_of_two_grid_is_an_error_not_a_panic() {
        // Regression: this used to `.expect(...)` and bring the process
        // down; now it surfaces the FFT-size error like LithoSimulator.
        for bad in [0usize, 3, 96, 129] {
            assert!(WriterModel::new(bad, 4.0, EbeamPsf::forward_only(25.0)).is_err());
        }
        assert!(WriterModel::new(64, 4.0, EbeamPsf::forward_only(25.0)).is_ok());
    }

    #[test]
    fn big_rect_delivers_full_dose_inside() {
        let w = writer();
        let shots = vec![DosedShot::Rect {
            rect: Rect::new(20, 20, 108, 108),
            dose: 1.0,
        }];
        let delivered = w.expose(&shots);
        assert!(
            (delivered[(64, 64)] - 1.0).abs() < 1e-6,
            "{}",
            delivered[(64, 64)]
        );
        assert!(delivered[(4, 4)] < 0.05);
        // The edge delivers ~half dose (Gaussian symmetric).
        assert!((delivered[(20, 64)] - 0.5).abs() < 0.1);
    }

    #[test]
    fn written_rect_matches_intended_away_from_corners() {
        let w = writer();
        let rect = Rect::new(30, 30, 98, 98);
        let shots = vec![DosedShot::Rect { rect, dose: 1.0 }];
        let written = w.write(&shots);
        let mut intended = BitGrid::new(128, 128);
        fill_rect(&mut intended, rect);
        // Error concentrates at corners; it must be small relative to area.
        let err = written.xor_count(&intended);
        assert!(err < intended.count_ones() / 10, "error {err}");
    }

    #[test]
    fn blur_rounds_corners() {
        let w = writer();
        let rect = Rect::new(30, 30, 98, 98);
        let written = w.write(&[DosedShot::Rect { rect, dose: 1.0 }]);
        // Corner pixel of the intended rect fails to print (under-dosed).
        assert!(!written.get(30, 30));
        // Deep inside prints.
        assert!(written.get(64, 64));
    }

    #[test]
    fn overlapping_circles_accumulate_dose() {
        let w = writer();
        let shots = vec![
            DosedShot::Circle {
                shot: CircleShot::new(60, 64, 10),
                dose: 1.0,
            },
            DosedShot::Circle {
                shot: CircleShot::new(70, 64, 10),
                dose: 1.0,
            },
        ];
        let raw = w.deposit(&shots);
        assert_eq!(raw[(65, 64)], 2.0, "overlap must stack");
        assert_eq!(raw[(52, 64)], 1.0);
        assert_eq!(raw[(0, 0)], 0.0);
    }

    #[test]
    fn underdosed_shots_fail_to_print() {
        let w = writer();
        let shot = |dose| {
            vec![DosedShot::Circle {
                shot: CircleShot::new(64, 64, 12),
                dose,
            }]
        };
        assert!(w.write(&shot(1.0)).count_ones() > 0);
        assert_eq!(w.write(&shot(0.3)).count_ones(), 0);
    }

    #[test]
    fn dose_noise_is_seeded_and_bounded() {
        let shots = WriterModel::dose_circles(&CircularMask::from_shots(vec![
            CircleShot::new(40, 40, 8),
            CircleShot::new(80, 80, 8),
        ]));
        let a = WriterModel::with_dose_noise(&shots, 0.05, 7);
        let b = WriterModel::with_dose_noise(&shots, 0.05, 7);
        let c = WriterModel::with_dose_noise(&shots, 0.05, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for s in &a {
            assert!((s.dose() - 1.0).abs() <= 0.05 * 3f64.sqrt() + 1e-12);
        }
    }

    #[test]
    fn noisier_doses_increase_writing_error() {
        // Heavily-overlapped circle chain: the clean write is smooth, so
        // flash-dose noise is the dominant error source. Compare mean
        // error across seeds at two noise levels.
        let w = writer();
        let mask = CircularMask::from_shots(
            (0..20)
                .map(|i| CircleShot::new(24 + i * 4, 64, 8))
                .collect(),
        );
        let shots = WriterModel::dose_circles(&mask);
        let intended = intended_pattern(&shots, 128);
        let mean_err = |sigma: f64| -> f64 {
            (0..8)
                .map(|seed| {
                    let noisy = WriterModel::with_dose_noise(&shots, sigma, seed);
                    w.writing_error(&noisy, &intended) as f64
                })
                .sum::<f64>()
                / 8.0
        };
        let quiet = mean_err(0.05);
        let loud = mean_err(0.30);
        assert!(
            loud > quiet,
            "more dose noise must mean more writing error: {quiet} vs {loud}"
        );
    }

    #[test]
    fn write_time_scales_with_shots() {
        assert_eq!(WriterModel::write_time_s(1000, 0.2, 0.3), 5e-4);
        assert!(
            WriterModel::write_time_s(100, 0.2, 0.3) < WriterModel::write_time_s(200, 0.2, 0.3)
        );
    }

    #[test]
    fn intended_pattern_unions_shots() {
        let shots = vec![
            DosedShot::Circle {
                shot: CircleShot::new(20, 20, 5),
                dose: 0.1, // dose irrelevant for intent
            },
            DosedShot::Rect {
                rect: Rect::new(40, 40, 50, 45),
                dose: 1.0,
            },
        ];
        let intent = intended_pattern(&shots, 64);
        assert!(intent.get(20, 20));
        assert!(intent.get(45, 42));
        assert!(!intent.get(60, 60));
    }
}
