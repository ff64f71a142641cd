//! Focus–exposure (Bossung) analysis and process-window measurement.
//!
//! The circular e-beam writer paper chain (our ref. [7], "Best depth of
//! focus on 22-nm logic wafers with less shot count") motivates
//! curvilinear masks through the *process window*: the region of the
//! focus–exposure plane where a feature's critical dimension (CD) stays
//! within tolerance. This module sweeps defocus and dose, measures CD
//! through a probe, and integrates the window — letting the repository
//! quantify the process-window claims behind PVB.

use crate::config::{LithoError, ProcessCorner};
use crate::kernels::KernelSet;
use crate::simulator::{LithoSimulator, StackRows};
use cfaopc_grid::{BitGrid, Point};

/// Direction along which a CD is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CdAxis {
    /// Width of the printed run crossing the probe horizontally.
    Horizontal,
    /// Height of the printed run crossing the probe vertically.
    Vertical,
}

/// A CD probe: measure the printed run through `at` along `axis`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdProbe {
    /// A point expected to lie inside the printed feature.
    pub at: Point,
    /// Measurement direction.
    pub axis: CdAxis,
}

/// Measures the critical dimension at a probe: the length (in nm) of the
/// contiguous printed run through `probe.at`, or `None` when the probe
/// point itself does not print.
pub fn measure_cd(printed: &BitGrid, probe: &CdProbe, pixel_nm: f64) -> Option<f64> {
    cd_of_run(|p| printed.at(p), probe, pixel_nm)
}

/// [`measure_cd`] on a print given pixel by pixel: `prints(p)` is
/// whether `p` prints (`false` off the grid), asked only along the probe's
/// run and one pixel past each end.
fn cd_of_run(prints: impl Fn(Point) -> bool, probe: &CdProbe, pixel_nm: f64) -> Option<f64> {
    if !prints(probe.at) {
        return None;
    }
    let (dx, dy) = match probe.axis {
        CdAxis::Horizontal => (1, 0),
        CdAxis::Vertical => (0, 1),
    };
    let mut len = 1i64;
    let mut p = probe.at;
    loop {
        p = Point::new(p.x + dx, p.y + dy);
        if prints(p) {
            len += 1;
        } else {
            break;
        }
    }
    p = probe.at;
    loop {
        p = Point::new(p.x - dx, p.y - dy);
        if prints(p) {
            len += 1;
        } else {
            break;
        }
    }
    Some(len as f64 * pixel_nm)
}

/// One focus–exposure condition and its measured CD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BossungPoint {
    /// Focus error in nm.
    pub defocus_nm: f64,
    /// Relative exposure dose.
    pub dose: f64,
    /// Measured CD in nm (`None` = feature failed to print at the probe).
    pub cd_nm: Option<f64>,
}

/// The focus–exposure CD matrix for one mask and probe.
#[derive(Debug, Clone, PartialEq)]
pub struct BossungSurface {
    /// Row-major `(defocus, dose)` grid of measurements; dose varies
    /// fastest.
    pub points: Vec<BossungPoint>,
    /// The defocus values swept.
    pub defocus_nm: Vec<f64>,
    /// The dose values swept.
    pub doses: Vec<f64>,
}

impl BossungSurface {
    /// The measured CD at sweep indices `(focus_idx, dose_idx)`.
    pub fn cd(&self, focus_idx: usize, dose_idx: usize) -> Option<f64> {
        self.points[focus_idx * self.doses.len() + dose_idx].cd_nm
    }

    /// Fraction of swept focus–exposure conditions whose CD stays within
    /// `±tolerance` (relative) of `cd_target_nm` — the discrete
    /// process-window area, normalized to the sweep rectangle.
    pub fn window_fraction(&self, cd_target_nm: f64, tolerance: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let lo = cd_target_nm * (1.0 - tolerance);
        let hi = cd_target_nm * (1.0 + tolerance);
        let hits = self
            .points
            .iter()
            .filter(|p| p.cd_nm.is_some_and(|cd| cd >= lo && cd <= hi))
            .count();
        hits as f64 / self.points.len() as f64
    }
}

/// Sweeps focus and exposure for a fixed mask, measuring CD at a probe.
///
/// Uses the simulator's optics and one mask FFT for the whole sweep, kept
/// band-packed in the simulator's pool. A defocus at one of the
/// simulator's own stack foci images through that stack (the same kernels
/// a regenerated stack would hold, bit for bit); any other regenerates
/// the stack. Each focus keeps only the probe's row (horizontal) or
/// column (vertical) of its intensity as the rows stream past, and each
/// dose thresholds only the pixels the CD probe visits.
///
/// # Errors
///
/// Returns [`LithoError`] on shape mismatches or invalid derived
/// configurations.
pub fn bossung_surface(
    sim: &LithoSimulator,
    mask: &BitGrid,
    probe: &CdProbe,
    defocus_values_nm: &[f64],
    doses: &[f64],
) -> Result<BossungSurface, LithoError> {
    let cfg = sim.config();
    let spectrum = sim.bit_spectrum_pooled(mask)?;
    let n = cfg.size as i32;
    let mut points = Vec::with_capacity(defocus_values_nm.len() * doses.len());
    for &defocus in defocus_values_nm {
        let own = [ProcessCorner::Nominal, ProcessCorner::Min]
            .into_iter()
            .find(|&corner| cfg.defocus(corner).to_bits() == defocus.to_bits());
        let generated;
        let set = match own {
            Some(corner) => sim.kernel_set(corner),
            None => {
                generated = KernelSet::generate_with_defocus(cfg, defocus)?;
                &generated
            }
        };
        // The dose-free intensity on the probe's line for this focus;
        // doses scale it linearly.
        let line = sim.image_stack(set, &spectrum, || ProbeLine::new(cfg.size, probe))?;
        for &dose in doses {
            // `BitGrid::from_threshold` of the dosed image, pixel by pixel
            // along the probe's line, the only pixels `cd_of_run` asks for.
            let prints = |p: Point| {
                (0..n).contains(&p.x)
                    && (0..n).contains(&p.y)
                    && line[ProbeLine::index(probe, p)] * dose > cfg.threshold
            };
            points.push(BossungPoint {
                defocus_nm: defocus,
                dose,
                cd_nm: cd_of_run(prints, probe, cfg.pixel_nm()),
            });
        }
    }
    sim.spectrum_pool().put(spectrum);
    Ok(BossungSurface {
        points,
        defocus_nm: defocus_values_nm.to_vec(),
        doses: doses.to_vec(),
    })
}

/// The dose-free intensity along a CD probe's line, kept as a stack's
/// intensity streams past ([`StackRows`]): row `at.y` for a horizontal
/// probe, column `at.x` for a vertical one. A line off the grid stays
/// zero and is never read.
struct ProbeLine {
    n: usize,
    probe: CdProbe,
    line: Vec<f64>,
}

impl ProbeLine {
    fn new(n: usize, probe: &CdProbe) -> Self {
        ProbeLine {
            n,
            probe: *probe,
            line: vec![0.0; n],
        }
    }

    /// Where on-grid pixel `p` of the probe's line sits in the line.
    fn index(probe: &CdProbe, p: Point) -> usize {
        match probe.axis {
            CdAxis::Horizontal => p.x as usize,
            CdAxis::Vertical => p.y as usize,
        }
    }
}

impl StackRows for ProbeLine {
    type Out = Vec<f64>;

    fn rows(&mut self, first: usize, j: &[f64]) -> Result<(), LithoError> {
        let at = self.probe.at;
        for (y, row) in (first..).zip(j.chunks_exact(self.n)) {
            match self.probe.axis {
                CdAxis::Horizontal if usize::try_from(at.y) == Ok(y) => {
                    self.line.copy_from_slice(row);
                }
                CdAxis::Vertical => {
                    if let Some(&v) = usize::try_from(at.x).ok().and_then(|x| row.get(x)) {
                        self.line[y] = v;
                    }
                }
                CdAxis::Horizontal => {}
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<f64>, LithoError> {
        Ok(self.line)
    }
}

/// Convenience: the symmetric sweep the examples use
/// (`defocus ∈ {0, ±step, …}`, `dose ∈ 1 ± k·2 %`).
pub fn standard_sweep(
    max_defocus_nm: f64,
    focus_steps: usize,
    dose_span: f64,
    dose_steps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let focus: Vec<f64> = (0..=focus_steps)
        .map(|i| max_defocus_nm * i as f64 / focus_steps.max(1) as f64)
        .collect();
    let doses: Vec<f64> = (0..=dose_steps)
        .map(|i| 1.0 - dose_span + 2.0 * dose_span * i as f64 / dose_steps.max(1) as f64)
        .collect();
    (focus, doses)
}

/// A compact focus sweep for one mask: CD through focus at nominal
/// dose (a Bossung slice).
///
/// # Errors
///
/// Returns [`LithoError`] as in [`bossung_surface`].
pub fn cd_through_focus(
    sim: &LithoSimulator,
    mask: &BitGrid,
    probe: &CdProbe,
    defocus_values_nm: &[f64],
) -> Result<Vec<Option<f64>>, LithoError> {
    let surface = bossung_surface(sim, mask, probe, defocus_values_nm, &[1.0])?;
    Ok(surface.points.iter().map(|p| p.cd_nm).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LithoConfig;
    use cfaopc_grid::{fill_rect, Rect};

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::fast_test()).unwrap()
    }

    fn bar_mask(n: usize) -> (BitGrid, CdProbe) {
        let mut m = BitGrid::new(n, n);
        // 64px @ 32nm/px: a 160nm-wide, 768nm-tall bar.
        fill_rect(&mut m, Rect::new(30, 20, 35, 44));
        (
            m,
            CdProbe {
                at: Point::new(32, 32),
                axis: CdAxis::Horizontal,
            },
        )
    }

    #[test]
    fn measure_cd_counts_the_run() {
        let (m, probe) = bar_mask(64);
        assert_eq!(measure_cd(&m, &probe, 32.0), Some(160.0));
        let miss = CdProbe {
            at: Point::new(2, 2),
            axis: CdAxis::Horizontal,
        };
        assert_eq!(measure_cd(&m, &miss, 32.0), None);
    }

    #[test]
    fn measure_cd_vertical() {
        let (m, _) = bar_mask(64);
        let probe = CdProbe {
            at: Point::new(32, 32),
            axis: CdAxis::Vertical,
        };
        assert_eq!(measure_cd(&m, &probe, 32.0), Some(768.0));
    }

    #[test]
    fn dose_increases_cd() {
        let s = sim();
        let (m, probe) = bar_mask(s.size());
        let surface = bossung_surface(&s, &m, &probe, &[0.0], &[0.9, 1.0, 1.1]).unwrap();
        let cds: Vec<f64> = surface
            .points
            .iter()
            .map(|p| p.cd_nm.unwrap_or(0.0))
            .collect();
        assert!(
            cds[0] <= cds[1] && cds[1] <= cds[2],
            "CD must grow with dose: {cds:?}"
        );
        assert!(cds[2] > 0.0);
    }

    #[test]
    fn heavy_defocus_degrades_cd() {
        let s = sim();
        let (m, probe) = bar_mask(s.size());
        let cds = cd_through_focus(&s, &m, &probe, &[0.0, 300.0]).unwrap();
        let nominal = cds[0].unwrap_or(0.0);
        let blurred = cds[1].unwrap_or(0.0);
        assert!(
            blurred < nominal,
            "300nm defocus should thin the print: {nominal} -> {blurred}"
        );
    }

    #[test]
    fn window_fraction_counts_in_tolerance_points() {
        let surface = BossungSurface {
            points: vec![
                BossungPoint {
                    defocus_nm: 0.0,
                    dose: 1.0,
                    cd_nm: Some(100.0),
                },
                BossungPoint {
                    defocus_nm: 0.0,
                    dose: 1.1,
                    cd_nm: Some(125.0),
                },
                BossungPoint {
                    defocus_nm: 50.0,
                    dose: 1.0,
                    cd_nm: None,
                },
                BossungPoint {
                    defocus_nm: 50.0,
                    dose: 1.1,
                    cd_nm: Some(95.0),
                },
            ],
            defocus_nm: vec![0.0, 50.0],
            doses: vec![1.0, 1.1],
        };
        // Target 100 ±10%: hits are 100 and 95 → 2/4.
        assert_eq!(surface.window_fraction(100.0, 0.10), 0.5);
        assert_eq!(surface.cd(0, 0), Some(100.0));
        assert_eq!(surface.cd(1, 0), None);
    }

    #[test]
    fn standard_sweep_shapes() {
        let (focus, doses) = standard_sweep(80.0, 4, 0.04, 4);
        assert_eq!(focus, vec![0.0, 20.0, 40.0, 60.0, 80.0]);
        assert_eq!(doses.len(), 5);
        assert!((doses[0] - 0.96).abs() < 1e-12);
        assert!((doses[4] - 1.04).abs() < 1e-12);
        assert!((doses[2] - 1.0).abs() < 1e-12);
    }
}
