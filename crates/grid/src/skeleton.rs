//! Morphological skeletonization (Algorithm 1 line 7: `findSkeleton`).
//!
//! Zhang–Suen thinning: iteratively peels boundary pixels that do not
//! break 8-connectivity until a one-pixel-wide, 8-connected skeleton
//! remains — exactly the "connected curve in the pixel grid" the paper's
//! DFS point sampling walks (§3, Figure 2(a)).

use crate::grid::{BitGrid, Point};

/// Computes the Zhang–Suen skeleton of `mask`.
///
/// The result is a subset of `mask` that is one pixel wide and preserves
/// the 8-connectivity of each region.
///
/// # Examples
///
/// ```
/// use cfaopc_grid::{skeletonize, BitGrid, fill_rect, Rect};
///
/// let mut m = BitGrid::new(32, 16);
/// fill_rect(&mut m, Rect::new(2, 5, 30, 11)); // a fat horizontal bar
/// let s = skeletonize(&m);
/// assert!(s.count_ones() > 0);
/// assert!(s.count_ones() < m.count_ones() / 3);
/// ```
pub fn skeletonize(mask: &BitGrid) -> BitGrid {
    let mut img = mask.clone();
    let (w, h) = (img.width(), img.height());
    let mut to_clear: Vec<(usize, usize)> = Vec::new();
    loop {
        let mut changed = false;
        for sub_iteration in 0..2 {
            to_clear.clear();
            for y in 0..h {
                for x in 0..w {
                    if img.get(x, y) && removable(&img, x as i32, y as i32, sub_iteration) {
                        to_clear.push((x, y));
                    }
                }
            }
            if !to_clear.is_empty() {
                changed = true;
                for &(x, y) in &to_clear {
                    img.set(x, y, false);
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Zhang–Suen erases 2x2 blocks completely; every input region must
    // keep at least one skeleton pixel (Algorithm 1 samples a point per
    // region), so reinstate the deepest pixel of any vanished region.
    let regions =
        crate::components::connected_components(mask, crate::components::Connectivity::Eight);
    for region in &regions.regions {
        if region.points.iter().any(|&p| img.at(p)) {
            continue;
        }
        // Depth on the region's own padded crop (exact; see `padded_crop`).
        let (crop, o) = region.padded_crop(1, w, h);
        let depth = crate::distance::interior_distance(&crop);
        let deepest = region
            .points
            .iter()
            .copied()
            .max_by(|a, b| {
                let da = depth[((a.x - o.x) as usize, (a.y - o.y) as usize)];
                let db = depth[((b.x - o.x) as usize, (b.y - o.y) as usize)];
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("regions are nonempty");
        img.set_at(deepest, true);
    }
    img
}

/// Neighbourhood in Zhang–Suen order: P2..P9 clockwise starting north.
fn neighbours(img: &BitGrid, x: i32, y: i32) -> [bool; 8] {
    [
        img.at(Point::new(x, y - 1)),     // P2 N
        img.at(Point::new(x + 1, y - 1)), // P3 NE
        img.at(Point::new(x + 1, y)),     // P4 E
        img.at(Point::new(x + 1, y + 1)), // P5 SE
        img.at(Point::new(x, y + 1)),     // P6 S
        img.at(Point::new(x - 1, y + 1)), // P7 SW
        img.at(Point::new(x - 1, y)),     // P8 W
        img.at(Point::new(x - 1, y - 1)), // P9 NW
    ]
}

fn removable(img: &BitGrid, x: i32, y: i32, sub_iteration: usize) -> bool {
    let p = neighbours(img, x, y);
    let b: usize = p.iter().filter(|&&v| v).count();
    if !(2..=6).contains(&b) {
        return false;
    }
    // A(P1): 0→1 transitions around the ring.
    let a = (0..8).filter(|&i| !p[i] && p[(i + 1) % 8]).count();
    if a != 1 {
        return false;
    }
    let (p2, p4, p6, p8) = (p[0], p[2], p[4], p[6]);
    if sub_iteration == 0 {
        !(p4 && p6 && (p2 || p8))
    } else {
        !(p2 && p8 && (p4 || p6))
    }
}

/// Returns the skeleton pixels that have exactly one 8-neighbour on the
/// skeleton (curve endpoints) — useful for seeding deterministic walks.
pub fn endpoints(skeleton: &BitGrid) -> Vec<Point> {
    let mut out = Vec::new();
    for y in 0..skeleton.height() as i32 {
        for x in 0..skeleton.width() as i32 {
            let p = Point::new(x, y);
            if !skeleton.at(p) {
                continue;
            }
            let n = neighbours(skeleton, x, y).iter().filter(|&&v| v).count();
            if n == 1 {
                out.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{connected_components, Connectivity};
    use crate::raster::{fill_circle, fill_rect, Rect};

    #[test]
    fn empty_mask_has_empty_skeleton() {
        let m = BitGrid::new(16, 16);
        assert!(skeletonize(&m).is_clear());
    }

    #[test]
    fn single_pixel_survives() {
        let mut m = BitGrid::new(8, 8);
        m.set(4, 4, true);
        let s = skeletonize(&m);
        assert_eq!(s.count_ones(), 1);
        assert!(s.get(4, 4));
    }

    #[test]
    fn horizontal_bar_thins_to_a_line() {
        let mut m = BitGrid::new(64, 32);
        fill_rect(&mut m, Rect::new(4, 12, 60, 19)); // 7 px tall
        let s = skeletonize(&m);
        // Skeleton should be ~1 px thick: per column in the interior, at
        // most 2 set pixels (Zhang-Suen can leave short staircases).
        for x in 10..54 {
            let col: usize = (0..32).filter(|&y| s.get(x, y)).count();
            assert!(
                (1..=2).contains(&col),
                "column {x} has {col} skeleton pixels"
            );
        }
    }

    #[test]
    fn skeleton_is_subset_of_mask() {
        let mut m = BitGrid::new(48, 48);
        fill_circle(&mut m, Point::new(24, 24), 10);
        let s = skeletonize(&m);
        for p in s.ones() {
            assert!(m.at(p));
        }
    }

    #[test]
    fn skeleton_preserves_connectivity() {
        // An L-shaped bar must stay one connected skeleton.
        let mut m = BitGrid::new(64, 64);
        fill_rect(&mut m, Rect::new(8, 8, 16, 56));
        fill_rect(&mut m, Rect::new(8, 48, 56, 56));
        let regions_before = connected_components(&m, Connectivity::Eight).regions.len();
        let s = skeletonize(&m);
        let regions_after = connected_components(&s, Connectivity::Eight).regions.len();
        assert_eq!(regions_before, 1);
        assert_eq!(regions_after, 1);
        assert!(s.count_ones() > 40);
    }

    #[test]
    fn disk_skeleton_is_small_and_central() {
        let mut m = BitGrid::new(40, 40);
        fill_circle(&mut m, Point::new(20, 20), 9);
        let s = skeletonize(&m);
        assert!(s.count_ones() >= 1);
        assert!(
            s.count_ones() <= 16,
            "disk skeleton too big: {}",
            s.count_ones()
        );
        for p in s.ones() {
            assert!(
                p.dist(Point::new(20, 20)) <= 4.0,
                "skeleton pixel {p} far from center"
            );
        }
    }

    #[test]
    fn endpoints_of_straight_line() {
        let mut m = BitGrid::new(32, 8);
        for x in 4..28 {
            m.set(x, 4, true);
        }
        let ends = endpoints(&m);
        assert_eq!(ends.len(), 2);
        assert!(ends.contains(&Point::new(4, 4)));
        assert!(ends.contains(&Point::new(27, 4)));
    }

    #[test]
    fn two_regions_keep_two_skeletons() {
        let mut m = BitGrid::new(64, 32);
        fill_rect(&mut m, Rect::new(2, 4, 28, 12));
        fill_rect(&mut m, Rect::new(36, 18, 60, 26));
        let s = skeletonize(&m);
        let l = connected_components(&s, Connectivity::Eight);
        assert_eq!(l.regions.len(), 2);
    }
}
