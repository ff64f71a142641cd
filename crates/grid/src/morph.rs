//! Binary morphology: dilation, erosion, opening, closing.
//!
//! Used to clean pixel-ILT masks before fracturing (remove single-pixel
//! specks that would violate the minimum shot radius) and to build the
//! optimization domains of the baseline ILT engines.
//!
//! Disk morphology runs on the exact Euclidean distance transform
//! ([`squared_distance_to`]): one O(n²) pass over an n×n grid whatever the
//! radius, instead of probing all ~πr² offsets of the disk at every
//! pixel. The transform is exact on integer squared distances, so the
//! thresholds below select the same pixels as that probe, bit for bit.

use crate::distance::squared_distance_to;
use crate::grid::{BitGrid, Point};

/// Structuring element shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structuring {
    /// Square of half-width `r` (Chebyshev ball) — separable and fast.
    Square(i32),
    /// Disk of radius `r` (Euclidean ball: offsets with `dx² + dy² ≤ r²`).
    Disk(i32),
}

/// Dilation: a pixel is set if any pixel under the structuring element is
/// set. Square elements run separably (two 1-D passes); a disk keeps every
/// pixel whose squared distance to the mask is at most `r²`.
pub fn dilate(mask: &BitGrid, elem: Structuring) -> BitGrid {
    match elem {
        Structuring::Square(r) => separable_extreme(mask, r.max(0), true),
        Structuring::Disk(r) => {
            let r2 = disk_r2(r);
            BitGrid::from(squared_distance_to(mask).map(|&d2| d2 <= r2))
        }
    }
}

/// Erosion: a pixel stays set only if every pixel under the structuring
/// element is set (off-grid counts as background). A disk keeps the pixels
/// farther than `r` from both the background and the grid's outside: the
/// nearest off-grid pixel lies straight across the closest edge, at
/// `min(x + 1, w − x, y + 1, h − y)`.
pub fn erode(mask: &BitGrid, elem: Structuring) -> BitGrid {
    match elem {
        Structuring::Square(r) => separable_extreme(mask, r.max(0), false),
        Structuring::Disk(r) => {
            let r2 = disk_r2(r);
            let (w, h) = (mask.width(), mask.height());
            let background = BitGrid::from(mask.as_grid().map(|&set| !set));
            let d2 = squared_distance_to(&background);
            let mut out = BitGrid::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let edge = (x + 1).min(w - x).min(y + 1).min(h - y) as f64;
                    out.set(x, y, d2[(x, y)].min(edge * edge) > r2);
                }
            }
            out
        }
    }
}

/// Opening: erosion then dilation — removes specks smaller than the element.
pub fn open(mask: &BitGrid, elem: Structuring) -> BitGrid {
    dilate(&erode(mask, elem), elem)
}

/// Closing: dilation then erosion — fills pinholes smaller than the element.
pub fn close(mask: &BitGrid, elem: Structuring) -> BitGrid {
    erode(&dilate(mask, elem), elem)
}

/// `r²` of a disk element on the distance transform's scale; negative
/// radii act as radius 0. Squares below 2⁵³ convert exactly, and anything
/// larger already exceeds the squared diagonal of any grid that fits in
/// memory, so the threshold never rounds across a grid distance.
fn disk_r2(r: i32) -> f64 {
    let r = i64::from(r.max(0));
    (r * r) as f64
}

/// Separable max/min filter for square structuring elements.
fn separable_extreme(mask: &BitGrid, r: i32, any: bool) -> BitGrid {
    let (w, h) = (mask.width(), mask.height());
    let mut tmp = BitGrid::new(w, h);
    for y in 0..h {
        for x in 0..w as i32 {
            let mut hit = !any;
            for dx in -r..=r {
                let v = mask.at(Point::new(x + dx, y as i32));
                if any && v {
                    hit = true;
                    break;
                }
                if !any && !v {
                    hit = false;
                    break;
                }
            }
            tmp.set(x as usize, y, hit);
        }
    }
    let mut out = BitGrid::new(w, h);
    for y in 0..h as i32 {
        for x in 0..w {
            let mut hit = !any;
            for dy in -r..=r {
                let v = tmp.at(Point::new(x as i32, y + dy));
                if any && v {
                    hit = true;
                    break;
                }
                if !any && !v {
                    hit = false;
                    break;
                }
            }
            out.set(x, y as usize, hit);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::{fill_rect, Rect};

    fn rect_mask(w: usize, h: usize, r: Rect) -> BitGrid {
        let mut m = BitGrid::new(w, h);
        fill_rect(&mut m, r);
        m
    }

    #[test]
    fn dilate_square_grows_rect() {
        let m = rect_mask(16, 16, Rect::new(6, 6, 10, 10));
        let d = dilate(&m, Structuring::Square(2));
        let expected = rect_mask(16, 16, Rect::new(4, 4, 12, 12));
        assert_eq!(d, expected);
    }

    #[test]
    fn erode_square_shrinks_rect() {
        let m = rect_mask(16, 16, Rect::new(4, 4, 12, 12));
        let e = erode(&m, Structuring::Square(2));
        let expected = rect_mask(16, 16, Rect::new(6, 6, 10, 10));
        assert_eq!(e, expected);
    }

    #[test]
    fn erode_then_dilate_removes_speck() {
        let mut m = rect_mask(32, 32, Rect::new(8, 8, 20, 20));
        m.set(28, 2, true); // isolated speck
        let opened = open(&m, Structuring::Square(1));
        assert!(!opened.get(28, 2));
        assert!(opened.get(10, 10));
        assert_eq!(opened.count_ones(), 144);
    }

    #[test]
    fn close_fills_pinhole() {
        let mut m = rect_mask(32, 32, Rect::new(8, 8, 20, 20));
        m.set(14, 14, false); // pinhole
        let closed = close(&m, Structuring::Square(1));
        assert!(closed.get(14, 14));
    }

    #[test]
    fn disk_dilation_is_symmetric() {
        let mut m = BitGrid::new(17, 17);
        m.set(8, 8, true);
        let d = dilate(&m, Structuring::Disk(4));
        assert_eq!(d.count_ones(), crate::raster::disk_area(4));
        for (dx, dy) in [(4, 0), (-4, 0), (0, 4), (0, -4)] {
            assert!(d.at(Point::new(8 + dx, 8 + dy)));
        }
        assert!(!d.at(Point::new(8 + 3, 8 + 3))); // 3√2 > 4
    }

    #[test]
    fn erosion_treats_border_as_background() {
        let m = rect_mask(8, 8, Rect::new(0, 0, 8, 8));
        let e = erode(&m, Structuring::Square(1));
        // Border ring erodes away.
        assert_eq!(e.count_ones(), 36);
        assert!(!e.get(0, 0));
        assert!(e.get(1, 1));
    }

    #[test]
    fn dilation_erosion_duality_on_interior() {
        // dilate(mask) == !erode(!mask) away from the border.
        let m = rect_mask(24, 24, Rect::new(9, 9, 15, 15));
        let d = dilate(&m, Structuring::Disk(2));
        let mut inv = BitGrid::new(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                inv.set(x, y, !m.get(x, y));
            }
        }
        let e = erode(&inv, Structuring::Disk(2));
        for y in 4..20 {
            for x in 4..20 {
                assert_eq!(d.get(x, y), !e.get(x, y), "at ({x},{y})");
            }
        }
    }

    #[test]
    fn zero_radius_is_identity() {
        let m = rect_mask(8, 8, Rect::new(2, 2, 5, 7));
        assert_eq!(dilate(&m, Structuring::Square(0)), m);
        assert_eq!(erode(&m, Structuring::Disk(0)), m);
    }
}
