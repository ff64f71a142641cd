//! Proximity-effect correction (PEC) by iterative per-shot dose
//! assignment.
//!
//! Backscatter couples every shot to its neighbours: dense regions
//! over-expose, isolated ones under-expose. The classical fix assigns
//! each shot a dose factor and iterates a fixed point: measure the
//! delivered dose at each shot's center, then scale the shot's dose by
//! `target / delivered`. With the additive double-Gaussian model this
//! converges in a handful of sweeps.

use crate::writer::{DosedShot, WriterModel};
use cfaopc_grid::Point;

/// Fixed-point sweeps.
const ITERATIONS: usize = 5;
/// Target delivered dose at shot centers (the clearing dose).
const TARGET: f64 = 1.0;
/// Dose clamp range (writers bound per-flash dose).
const DOSE_RANGE: (f64, f64) = (0.3, 3.0);
/// Damping factor in `(0, 1]`; 1 = undamped fixed point.
const DAMPING: f64 = 0.8;

const _: () = assert!(0.0 < DOSE_RANGE.0 && DOSE_RANGE.0 <= TARGET && TARGET <= DOSE_RANGE.1);
const _: () = assert!(0.0 < DAMPING && DAMPING <= 1.0);

/// The probe point of a shot: its center (circles) or centroid (rects).
fn probe(shot: &DosedShot) -> Point {
    match shot {
        DosedShot::Circle { shot, .. } => shot.center(),
        DosedShot::Rect { rect, .. } => {
            Point::new((rect.x0 + rect.x1) / 2, (rect.y0 + rect.y1) / 2)
        }
    }
}

/// Result of a PEC run.
#[derive(Debug, Clone)]
pub struct PecResult {
    /// The dose-corrected shots.
    pub shots: Vec<DosedShot>,
    /// RMS deviation of the delivered center doses from the target,
    /// before correction.
    pub rms_error_before: f64,
    /// Same, after correction.
    pub rms_error_after: f64,
}

/// Runs iterative dose correction for `shots` on `writer`: five damped
/// (0.8) fixed-point sweeps towards the clearing dose at every shot's
/// probe point, each dose clamped to `[0.3, 3.0]`.
pub fn correct_proximity(writer: &WriterModel, shots: &[DosedShot]) -> PecResult {
    let mut current: Vec<DosedShot> = shots.to_vec();
    let rms_error_before = center_rms_error(writer, &current);
    for _ in 0..ITERATIONS {
        let delivered = writer.expose(&current);
        current = current
            .iter()
            .map(|s| {
                let p = probe(s);
                let got = delivered.get(p).copied().unwrap_or(TARGET).max(1e-6);
                let ideal = s.dose() * TARGET / got;
                let damped = s.dose() + DAMPING * (ideal - s.dose());
                let clamped = damped.clamp(DOSE_RANGE.0, DOSE_RANGE.1);
                match *s {
                    DosedShot::Circle { shot, .. } => DosedShot::Circle {
                        shot,
                        dose: clamped,
                    },
                    DosedShot::Rect { rect, .. } => DosedShot::Rect {
                        rect,
                        dose: clamped,
                    },
                }
            })
            .collect();
    }
    let rms_error_after = center_rms_error(writer, &current);
    PecResult {
        shots: current,
        rms_error_before,
        rms_error_after,
    }
}

fn center_rms_error(writer: &WriterModel, shots: &[DosedShot]) -> f64 {
    if shots.is_empty() {
        return 0.0;
    }
    let delivered = writer.expose(shots);
    let sum_sq: f64 = shots
        .iter()
        .map(|s| {
            let p = probe(s);
            let got = delivered.get(p).copied().unwrap_or(TARGET);
            (got - TARGET) * (got - TARGET)
        })
        .sum();
    (sum_sq / shots.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psf::EbeamPsf;
    use cfaopc_fracture::CircleShot;

    fn writer_with_backscatter() -> WriterModel {
        WriterModel::new(
            128,
            4.0,
            EbeamPsf {
                alpha_nm: 25.0,
                beta_nm: 200.0, // short "backscatter" so it acts on-tile
                eta: 0.6,
            },
        )
        .unwrap()
    }

    fn dense_and_isolated() -> Vec<DosedShot> {
        // A dense cluster plus one isolated shot: backscatter over-doses
        // the cluster relative to the loner.
        let mut shots: Vec<DosedShot> = (0..5)
            .flat_map(|i| {
                (0..5).map(move |j| DosedShot::Circle {
                    shot: CircleShot::new(30 + i * 8, 30 + j * 8, 5),
                    dose: 1.0,
                })
            })
            .collect();
        shots.push(DosedShot::Circle {
            shot: CircleShot::new(100, 100, 5),
            dose: 1.0,
        });
        shots
    }

    #[test]
    fn pec_reduces_center_dose_error() {
        let w = writer_with_backscatter();
        let shots = dense_and_isolated();
        let result = correct_proximity(&w, &shots);
        assert!(
            result.rms_error_after < result.rms_error_before,
            "PEC failed: {} -> {}",
            result.rms_error_before,
            result.rms_error_after
        );
        assert!(result.rms_error_after < 0.35 * result.rms_error_before);
    }

    #[test]
    fn pec_lowers_dense_doses_below_isolated() {
        let w = writer_with_backscatter();
        let shots = dense_and_isolated();
        let result = correct_proximity(&w, &shots);
        let cluster_mean: f64 = result.shots[..25].iter().map(DosedShot::dose).sum::<f64>() / 25.0;
        let isolated = result.shots[25].dose();
        assert!(
            cluster_mean < isolated,
            "cluster {cluster_mean} should be dosed below isolated {isolated}"
        );
    }

    #[test]
    fn doses_respect_the_clamp() {
        let w = writer_with_backscatter();
        // Isolated circles of radius 1, 2 and 3 px receive a small
        // fraction of the clearing dose at their centres: unclamped, the
        // correction would drive them to about 37, 15 and 7.
        let mut shots = dense_and_isolated();
        shots.extend([(10, 110, 1), (60, 110, 2), (110, 10, 3)].map(|(x, y, r)| {
            DosedShot::Circle {
                shot: CircleShot::new(x, y, r),
                dose: 1.0,
            }
        }));
        let result = correct_proximity(&w, &shots);
        for s in &result.shots {
            assert!((DOSE_RANGE.0..=DOSE_RANGE.1).contains(&s.dose()), "{s:?}");
        }
        for s in &result.shots[26..] {
            assert_eq!(s.dose(), DOSE_RANGE.1, "{s:?}");
        }
    }

    #[test]
    fn empty_shot_list_is_a_noop() {
        let w = writer_with_backscatter();
        let result = correct_proximity(&w, &[]);
        assert!(result.shots.is_empty());
        assert_eq!(result.rms_error_before, 0.0);
        assert_eq!(result.rms_error_after, 0.0);
    }
}
