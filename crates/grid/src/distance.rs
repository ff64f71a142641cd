//! Exact Euclidean distance transforms (Felzenszwalb–Huttenlocher).
//!
//! The EPE metric asks, for a sample point on a target edge, how far the
//! printed contour is; the squared-distance transform of the contour
//! answers that in O(n) per pixel. CircleRule's coverage completion uses
//! the interior distance to place each completion circle at the deepest
//! uncovered pixel of its region (radii come from the cover-rate sweep).

use crate::grid::{BitGrid, Grid2D};

const INF: f64 = 1e20;

/// 1-D squared-distance transform (lower envelope of parabolas).
fn dt1d(f: &[f64], out: &mut [f64], v: &mut [usize], z: &mut [f64]) {
    let n = f.len();
    debug_assert!(out.len() == n && v.len() >= n && z.len() > n);
    let mut k = 0usize;
    v[0] = 0;
    z[0] = -INF;
    z[1] = INF;
    for q in 1..n {
        loop {
            let p = v[k];
            let s = ((f[q] + (q * q) as f64) - (f[p] + (p * p) as f64))
                / (2.0 * q as f64 - 2.0 * p as f64);
            if s <= z[k] {
                debug_assert!(k > 0);
                k -= 1;
            } else {
                k += 1;
                v[k] = q;
                z[k] = s;
                z[k + 1] = INF;
                break;
            }
        }
    }
    k = 0;
    for (q, slot) in out.iter_mut().enumerate() {
        while z[k + 1] < q as f64 {
            k += 1;
        }
        let p = v[k];
        let d = q as f64 - p as f64;
        *slot = d * d + f[p];
    }
}

/// Squared Euclidean distance from every pixel to the nearest **set**
/// pixel of `sites`. Pixels of `sites` map to `0`; if `sites` is empty
/// every pixel maps to a value ≥ `1e20` (effectively infinity).
pub fn squared_distance_to(sites: &BitGrid) -> Grid2D<f64> {
    let (w, h) = (sites.width(), sites.height());
    let mut field = Grid2D::new(w, h, 0.0f64);
    for y in 0..h {
        for x in 0..w {
            field[(x, y)] = if sites.get(x, y) { 0.0 } else { INF };
        }
    }
    if w == 0 || h == 0 {
        return field;
    }
    let m = w.max(h);
    let mut buf = vec![0.0f64; m];
    let mut out = vec![0.0f64; m];
    let mut v = vec![0usize; m];
    let mut z = vec![0.0f64; m + 1];
    // Columns first.
    for x in 0..w {
        for y in 0..h {
            buf[y] = field[(x, y)];
        }
        dt1d(&buf[..h], &mut out[..h], &mut v, &mut z);
        for y in 0..h {
            field[(x, y)] = out[y];
        }
    }
    // Then rows.
    for y in 0..h {
        buf[..w].copy_from_slice(field.row(y));
        dt1d(&buf[..w], &mut out[..w], &mut v, &mut z);
        for x in 0..w {
            field[(x, y)] = out[x];
        }
    }
    field
}

/// Euclidean distance (not squared) to the nearest set pixel of `sites`.
pub fn distance_to(sites: &BitGrid) -> Grid2D<f64> {
    squared_distance_to(sites).map(|&d| d.sqrt())
}

/// For every **set** pixel of `mask`, the Euclidean distance to the
/// nearest background pixel (the "interior radius"); background pixels
/// map to `0`. The largest inscribed circle at `p` has radius
/// `interior(p) - 1` (in whole pixels).
pub fn interior_distance(mask: &BitGrid) -> Grid2D<f64> {
    let (w, h) = (mask.width(), mask.height());
    let mut background = BitGrid::new(w, h);
    for y in 0..h {
        for x in 0..w {
            background.set(x, y, !mask.get(x, y));
        }
    }
    let mut d = distance_to(&background);
    // A mask that fills the whole grid has no background; treat the grid
    // border as background so radii stay finite.
    if background.is_clear() {
        for y in 0..h {
            for x in 0..w {
                let b = (x.min(w - 1 - x).min(y).min(h - 1 - y) + 1) as f64;
                d[(x, y)] = b;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Point;
    use crate::raster::{fill_circle, fill_rect, Rect};

    #[test]
    fn distance_to_single_site() {
        let mut sites = BitGrid::new(9, 9);
        sites.set(4, 4, true);
        let d = distance_to(&sites);
        assert_eq!(d[(4, 4)], 0.0);
        assert!((d[(7, 8)] - 5.0).abs() < 1e-9);
        assert!((d[(0, 0)] - 32f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn distance_matches_brute_force() {
        let mut sites = BitGrid::new(24, 16);
        sites.set(3, 2, true);
        sites.set(20, 13, true);
        sites.set(10, 7, true);
        let d = squared_distance_to(&sites);
        let pts = sites.ones();
        for y in 0..16 {
            for x in 0..24 {
                let p = Point::new(x as i32, y as i32);
                let brute = pts.iter().map(|s| p.dist_sqr(*s)).min().unwrap() as f64;
                assert!((d[(x, y)] - brute).abs() < 1e-6, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn empty_sites_give_infinite_distance() {
        let sites = BitGrid::new(4, 4);
        let d = squared_distance_to(&sites);
        assert!(d.as_slice().iter().all(|&v| v >= 1e19));
    }

    #[test]
    fn interior_distance_of_rect() {
        let mut m = BitGrid::new(32, 32);
        fill_rect(&mut m, Rect::new(8, 8, 24, 24));
        let d = interior_distance(&m);
        // Center pixel is 8 px from the nearest background pixel.
        assert!((d[(15, 15)] - 8.0).abs() <= 2f64.sqrt());
        // Edge pixel is 1 away from background.
        assert_eq!(d[(8, 15)], 1.0);
        // Background maps to 0.
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn interior_distance_bounds_inscribed_circle() {
        let mut m = BitGrid::new(64, 64);
        fill_circle(&mut m, Point::new(32, 32), 14);
        let d = interior_distance(&m);
        let r_est = d[(32, 32)] - 1.0;
        // Largest inscribed circle at the center has radius 14.
        assert!((13.0..=15.0).contains(&r_est), "estimate {r_est}");
    }

    #[test]
    fn full_mask_uses_border_fallback() {
        let mut m = BitGrid::new(8, 8);
        fill_rect(&mut m, Rect::new(0, 0, 8, 8));
        let d = interior_distance(&m);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(3, 3)], 4.0);
        assert!(d.as_slice().iter().all(|&v| v.is_finite()));
    }
}
