//! Connected-component labeling (Algorithm 1 line 5:
//! `findConnectedRegions`).

use crate::grid::{BitGrid, Grid2D, Point};
use crate::raster::Rect;
use std::collections::VecDeque;

/// Pixel connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// Von Neumann neighbourhood (up/down/left/right).
    Four,
    /// Moore neighbourhood (the paper's skeleton graph uses the eight
    /// pixels around each position, §3).
    #[default]
    Eight,
}

impl Connectivity {
    /// Neighbour offsets for this connectivity.
    pub fn offsets(self) -> &'static [(i32, i32)] {
        match self {
            Connectivity::Four => &[(1, 0), (-1, 0), (0, 1), (0, -1)],
            Connectivity::Eight => &[
                (1, 0),
                (-1, 0),
                (0, 1),
                (0, -1),
                (1, 1),
                (1, -1),
                (-1, 1),
                (-1, -1),
            ],
        }
    }
}

/// One connected region of set pixels.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region label (index into the label map, starting at 1).
    pub label: u32,
    /// All pixels of the region, in discovery order.
    pub points: Vec<Point>,
    /// Tight bounding box.
    pub bbox: Rect,
}

impl Region {
    /// Pixel count.
    pub fn area(&self) -> usize {
        self.points.len()
    }

    /// Renders the region alone into its bounding box padded by `pad`
    /// pixels on every side and clamped to a `width × height` grid.
    /// Returns the crop and its origin: region pixel `p` sits at
    /// `p - origin` in the crop.
    ///
    /// With `pad >= 1`, a distance transform of the crop is exact for the
    /// region: every crop side either lies on the grid edge or is a ring
    /// of background, and clamping any background pixel outside the crop
    /// onto the crop gives a background pixel at least as close to every
    /// region pixel. So [`interior_distance`](crate::interior_distance)
    /// of the crop, read at `p - origin`, equals the full-grid
    /// transform of the region alone at `p`, bit for bit. The whole-grid
    /// fallback fires on the crop exactly when the region fills the grid.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfaopc_grid::{connected_components, fill_rect, BitGrid, Connectivity, Point, Rect};
    ///
    /// let mut m = BitGrid::new(16, 16);
    /// fill_rect(&mut m, Rect::new(0, 5, 4, 9));
    /// let region = &connected_components(&m, Connectivity::Eight).regions[0];
    /// let (crop, origin) = region.padded_crop(1, 16, 16);
    /// assert_eq!(origin, Point::new(0, 4)); // clamped on the left edge
    /// assert_eq!((crop.width(), crop.height()), (5, 6));
    /// assert!(crop.get(3, 1) && !crop.get(4, 1));
    /// ```
    pub fn padded_crop(&self, pad: i32, width: usize, height: usize) -> (BitGrid, Point) {
        let x0 = (self.bbox.x0 - pad).max(0);
        let y0 = (self.bbox.y0 - pad).max(0);
        let x1 = (self.bbox.x1 + pad).min(width as i32);
        let y1 = (self.bbox.y1 + pad).min(height as i32);
        let mut crop = BitGrid::new((x1 - x0) as usize, (y1 - y0) as usize);
        for &p in &self.points {
            crop.set((p.x - x0) as usize, (p.y - y0) as usize, true);
        }
        (crop, Point::new(x0, y0))
    }
}

/// Result of labeling: per-pixel labels (0 = background) and the regions.
#[derive(Debug, Clone)]
pub struct Labeling {
    /// Label map; `0` is background, regions are `1..=regions.len()`.
    pub labels: Grid2D<u32>,
    /// Regions indexed by `label - 1`.
    pub regions: Vec<Region>,
}

/// Labels the connected regions of `mask` by BFS flood fill.
///
/// Regions are reported in raster order of their first pixel, so the
/// result is deterministic.
///
/// # Examples
///
/// ```
/// use cfaopc_grid::{BitGrid, connected_components, Connectivity};
///
/// let mut m = BitGrid::new(8, 8);
/// m.set(0, 0, true);
/// m.set(1, 1, true); // touches (0,0) diagonally
/// m.set(5, 5, true);
/// let four = connected_components(&m, Connectivity::Four);
/// let eight = connected_components(&m, Connectivity::Eight);
/// assert_eq!(four.regions.len(), 3);
/// assert_eq!(eight.regions.len(), 2);
/// ```
pub fn connected_components(mask: &BitGrid, conn: Connectivity) -> Labeling {
    let (w, h) = (mask.width(), mask.height());
    let mut labels = Grid2D::new(w, h, 0u32);
    let mut regions = Vec::new();
    let mut queue = VecDeque::new();
    for y in 0..h {
        for x in 0..w {
            if !mask.get(x, y) || labels[(x, y)] != 0 {
                continue;
            }
            let label = regions.len() as u32 + 1;
            let seed = Point::new(x as i32, y as i32);
            labels[(x, y)] = label;
            queue.push_back(seed);
            let mut points = Vec::new();
            let (mut x0, mut y0, mut x1, mut y1) = (seed.x, seed.y, seed.x + 1, seed.y + 1);
            while let Some(p) = queue.pop_front() {
                points.push(p);
                x0 = x0.min(p.x);
                y0 = y0.min(p.y);
                x1 = x1.max(p.x + 1);
                y1 = y1.max(p.y + 1);
                for &(dx, dy) in conn.offsets() {
                    let q = Point::new(p.x + dx, p.y + dy);
                    if mask.at(q) {
                        if let Some(l) = labels.get_mut(q) {
                            if *l == 0 {
                                *l = label;
                                queue.push_back(q);
                            }
                        }
                    }
                }
            }
            regions.push(Region {
                label,
                points,
                bbox: Rect::new(x0, y0, x1, y1),
            });
        }
    }
    Labeling { labels, regions }
}

/// Removes connected regions smaller than `min_area` pixels.
///
/// Used as mask-writability hygiene: features smaller than the minimum
/// writable shot cannot be manufactured and only inflate fracture
/// counts.
pub fn remove_small_regions(mask: &BitGrid, min_area: usize, conn: Connectivity) -> BitGrid {
    let labeling = connected_components(mask, conn);
    let mut out = BitGrid::new(mask.width(), mask.height());
    for region in &labeling.regions {
        if region.area() >= min_area {
            for &p in &region.points {
                out.set_at(p, true);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::{fill_circle, fill_rect};

    #[test]
    fn remove_small_regions_keeps_big_drops_small() {
        let mut m = BitGrid::new(32, 32);
        fill_rect(&mut m, Rect::new(2, 2, 12, 12)); // 100 px
        m.set(20, 20, true); // 1 px speck
        m.set(25, 25, true);
        m.set(25, 26, true); // 2 px speck
        let cleaned = remove_small_regions(&m, 3, Connectivity::Eight);
        assert_eq!(cleaned.count_ones(), 100);
        assert!(!cleaned.get(20, 20));
        assert!(!cleaned.get(25, 25));
    }

    #[test]
    fn remove_small_regions_zero_threshold_is_identity() {
        let mut m = BitGrid::new(8, 8);
        m.set(1, 1, true);
        assert_eq!(remove_small_regions(&m, 0, Connectivity::Four), m);
        assert_eq!(remove_small_regions(&m, 1, Connectivity::Four), m);
    }

    #[test]
    fn empty_mask_has_no_regions() {
        let m = BitGrid::new(8, 8);
        let l = connected_components(&m, Connectivity::Eight);
        assert!(l.regions.is_empty());
        assert!(l.labels.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn single_rect_is_one_region_with_bbox() {
        let mut m = BitGrid::new(16, 16);
        fill_rect(&mut m, Rect::new(3, 4, 9, 10));
        let l = connected_components(&m, Connectivity::Four);
        assert_eq!(l.regions.len(), 1);
        let r = &l.regions[0];
        assert_eq!(r.area(), 36);
        assert_eq!(r.bbox, Rect::new(3, 4, 9, 10));
        assert_eq!(r.label, 1);
    }

    #[test]
    fn two_disjoint_circles() {
        let mut m = BitGrid::new(32, 32);
        fill_circle(&mut m, Point::new(6, 6), 3);
        fill_circle(&mut m, Point::new(24, 24), 4);
        let l = connected_components(&m, Connectivity::Eight);
        assert_eq!(l.regions.len(), 2);
        assert_eq!(
            l.regions.iter().map(Region::area).sum::<usize>(),
            m.count_ones()
        );
    }

    #[test]
    fn labels_match_regions() {
        let mut m = BitGrid::new(16, 16);
        fill_rect(&mut m, Rect::new(0, 0, 4, 4));
        fill_rect(&mut m, Rect::new(8, 8, 12, 12));
        let l = connected_components(&m, Connectivity::Four);
        for region in &l.regions {
            for &p in &region.points {
                assert_eq!(l.labels[(p.x as usize, p.y as usize)], region.label);
            }
        }
    }

    #[test]
    fn touching_corner_differs_by_connectivity() {
        let mut m = BitGrid::new(4, 4);
        m.set(0, 0, true);
        m.set(1, 1, true);
        assert_eq!(
            connected_components(&m, Connectivity::Four).regions.len(),
            2
        );
        assert_eq!(
            connected_components(&m, Connectivity::Eight).regions.len(),
            1
        );
    }

    #[test]
    fn region_to_mask_roundtrip() {
        let mut m = BitGrid::new(16, 16);
        fill_circle(&mut m, Point::new(8, 8), 5);
        let l = connected_components(&m, Connectivity::Eight);
        assert_eq!(l.regions.len(), 1);
        // A pad that reaches past every edge clamps the crop to the grid.
        let (back, origin) = l.regions[0].padded_crop(8, 16, 16);
        assert_eq!(origin, Point::new(0, 0));
        assert_eq!(back, m);
    }

    #[test]
    fn raster_order_is_deterministic() {
        let mut m = BitGrid::new(8, 8);
        m.set(7, 0, true);
        m.set(0, 7, true);
        let l = connected_components(&m, Connectivity::Four);
        // (7,0) is encountered first in raster order.
        assert_eq!(l.regions[0].points[0], Point::new(7, 0));
        assert_eq!(l.regions[1].points[0], Point::new(0, 7));
    }
}
