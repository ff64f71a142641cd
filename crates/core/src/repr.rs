//! Sparse circular reparameterization (paper §4.2).
//!
//! A mask becomes a list of four-element tuples
//! `{(x₁,y₁,r₁,q₁), …, (xₙ,yₙ,rₙ,qₙ)}`: center, radius and a learnable
//! *activation* `q` whose magnitude decides whether the circle exists in
//! the final mask (`q >` [`Q_THRESHOLD`] keeps the shot). All four entries are
//! continuous during optimization; the straight-through estimator of
//! [`crate::ste`] maps centers and radii back onto the integer pixel
//! grid.

use cfaopc_fracture::{CircleShot, CircularMask};
use serde::{Deserialize, Serialize};

/// Activation threshold: a circle with `q > 0.5` exists in the final
/// mask (paper §4.2).
pub const Q_THRESHOLD: f64 = 0.5;

/// One circle's continuous parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircleParams {
    /// Center column (continuous).
    pub x: f64,
    /// Center row (continuous).
    pub y: f64,
    /// Radius (continuous).
    pub r: f64,
    /// Activation; the circle exists in the final mask when `q > 0.5`.
    pub q: f64,
}

/// The sparse circular representation of a mask.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseCircles {
    /// Per-circle parameters.
    pub circles: Vec<CircleParams>,
}

impl SparseCircles {
    /// Builds the representation from a fractured mask, initializing
    /// every activation to 1 (paper: "We initialize qᵢ to 1 for all the
    /// circles").
    pub fn from_circular_mask(mask: &CircularMask) -> Self {
        SparseCircles {
            circles: mask
                .shots()
                .iter()
                .map(|s| CircleParams {
                    x: s.x as f64,
                    y: s.y as f64,
                    r: s.r as f64,
                    q: 1.0,
                })
                .collect(),
        }
    }

    /// Number of circles (alive or not).
    pub fn len(&self) -> usize {
        self.circles.len()
    }

    /// `true` when there are no circles.
    pub fn is_empty(&self) -> bool {
        self.circles.is_empty()
    }

    /// Number of circles with `q >` [`Q_THRESHOLD`] (the final shot
    /// count).
    pub fn active_count(&self) -> usize {
        self.circles.iter().filter(|c| c.q > Q_THRESHOLD).count()
    }

    /// Recovers the fractured mask: circles with `q >` [`Q_THRESHOLD`],
    /// centers and radii rounded and clamped onto the grid — by
    /// construction this mask "definitely meets the circular constraints
    /// for CFAOPC since each circle serves as one shot" (paper §4.2).
    pub fn to_circular_mask(
        &self,
        width: usize,
        height: usize,
        r_min: i32,
        r_max: i32,
    ) -> CircularMask {
        self.circles
            .iter()
            .filter(|c| c.q > Q_THRESHOLD)
            .map(|c| {
                CircleShot::new(
                    (c.x.round() as i32).clamp(0, width as i32 - 1),
                    (c.y.round() as i32).clamp(0, height as i32 - 1),
                    (c.r.round() as i32).clamp(r_min, r_max),
                )
            })
            .collect()
    }

    /// Flattens to the `4n` parameter vector `[x₀,y₀,r₀,q₀, x₁, …]` the
    /// optimizer steps over.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.circles.len() * 4);
        for c in &self.circles {
            out.extend_from_slice(&[c.x, c.y, c.r, c.q]);
        }
        out
    }

    /// Rebuilds the parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of 4 or does not match
    /// the current circle count.
    pub fn set_from_flat(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.circles.len() * 4, "flat length mismatch");
        for (c, chunk) in self.circles.iter_mut().zip(flat.chunks_exact(4)) {
            c.x = chunk[0];
            c.y = chunk[1];
            c.r = chunk[2];
            c.q = chunk[3];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseCircles {
        SparseCircles {
            circles: vec![
                CircleParams {
                    x: 10.2,
                    y: 20.7,
                    r: 5.4,
                    q: 0.9,
                },
                CircleParams {
                    x: 30.0,
                    y: 40.0,
                    r: 99.0,
                    q: 0.2,
                },
            ],
        }
    }

    #[test]
    fn from_circular_mask_inits_q_to_one() {
        let m = CircularMask::from_shots(vec![CircleShot::new(5, 6, 7)]);
        let s = SparseCircles::from_circular_mask(&m);
        assert_eq!(s.len(), 1);
        assert_eq!(s.circles[0].q, 1.0);
        assert_eq!(s.circles[0].x, 5.0);
    }

    #[test]
    fn active_count_thresholds_q() {
        let mut s = sample();
        assert_eq!(s.active_count(), 1);
        s.circles[0].q = Q_THRESHOLD; // strict: `q = Q_THRESHOLD` is inactive
        assert_eq!(s.active_count(), 0);
    }

    #[test]
    fn to_circular_mask_rounds_clamps_and_filters() {
        let s = sample();
        let m = s.to_circular_mask(64, 64, 3, 19);
        assert_eq!(m.shot_count(), 1);
        let shot = m.shots()[0];
        assert_eq!((shot.x, shot.y), (10, 21));
        assert_eq!(shot.r, 5);
        // The inactive circle (q=0.2) with r=99 was dropped, not clamped.
    }

    #[test]
    fn flat_roundtrip() {
        let mut s = sample();
        let flat = s.to_flat();
        assert_eq!(flat.len(), 8);
        let mut flat2 = flat.clone();
        flat2[4] = 31.5;
        s.set_from_flat(&flat2);
        assert_eq!(s.circles[1].x, 31.5);
        assert_eq!(s.to_flat(), flat2);
    }

    #[test]
    #[should_panic(expected = "flat length mismatch")]
    fn set_from_flat_checks_len() {
        let mut s = sample();
        s.set_from_flat(&[0.0; 7]);
    }
}
