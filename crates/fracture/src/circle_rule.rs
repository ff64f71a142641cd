//! CircleRule: the paper's rule-based circular fracturer (§3, Algorithm 1).
//!
//! A binarized mask is split into connected regions; each region is
//! thinned to its skeleton; a DFS walks the skeleton graph sampling a
//! point every `m` steps; at each sampled point the radius grows from
//! `R_min` until the cover rate `|C(u,r) ∩ A_i| / |C(u,r)|` drops below
//! the threshold `I`.

use crate::shots::{CircleShot, CircularMask};
use cfaopc_grid::{
    connected_components, disk_area, endpoints, open, remove_small_regions, skeletonize, BitGrid,
    Connectivity, Point, Structuring,
};
use serde::{Deserialize, Serialize};

/// Minimum shot radius `R_min`, nm (paper §5).
const R_MIN_NM: f64 = 12.0;
/// Maximum shot radius `R_max`, nm (paper §5).
const R_MAX_NM: f64 = 76.0;
/// Cover-rate threshold `I` (paper §5).
const COVER_THRESHOLD: f64 = 0.9;

const _: () = assert!(0.0 < R_MIN_NM && R_MIN_NM <= R_MAX_NM);
const _: () = assert!(0.0 < COVER_THRESHOLD && COVER_THRESHOLD <= 1.0);

/// CircleRule hyper-parameters, lengths in nanometres (converted to pixels
/// with the grid pitch at call time). The shot radii `[12, 76]` nm and
/// the cover threshold `I = 0.9` are the paper's §5 constants; the
/// default sample distance is its 32 nm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircleRuleConfig {
    /// Distance `m` between consecutive sampled skeleton points.
    pub sample_distance_nm: f64,
    /// Radius policy. Algorithm 1's pseudocode literally adds the *first*
    /// radius whose cover rate drops **below** `I` (lines 19–23); the
    /// evident intent — and our default (`false`) — is the *last* radius
    /// still covering at least `I`, clamped to `R_min`.
    /// Set `true` for the literal pseudocode behaviour.
    // NOTE(paper): see DESIGN.md, "Deviations".
    pub first_below_threshold: bool,
    /// Minimum fraction of each region's pixels that must end up inside
    /// some circle. Skeleton sampling alone under-covers fat blobs whose
    /// medial axis degenerates (a disk thins to a single point) when the
    /// blob half-width exceeds `R_max`; a greedy completion pass adds
    /// circles at the deepest uncovered pixels until this fraction is
    /// reached. Set to `0.0` for the paper's pure Algorithm 1.
    // NOTE(paper): coverage completion is an extension; Algorithm 1 stops
    // after the skeleton walk.
    pub min_region_coverage: f64,
}

impl Default for CircleRuleConfig {
    fn default() -> Self {
        CircleRuleConfig {
            sample_distance_nm: 32.0,
            first_below_threshold: false,
            min_region_coverage: 0.97,
        }
    }
}

impl CircleRuleConfig {
    /// Sample distance in pixels (at least 1).
    pub fn sample_distance_px(&self, pixel_nm: f64) -> u32 {
        (self.sample_distance_nm / pixel_nm).round().max(1.0) as u32
    }

    /// `(R_min, R_max)` in pixels (at least 1, ordered).
    pub fn radius_range_px(&self, pixel_nm: f64) -> (i32, i32) {
        let r_min = (R_MIN_NM / pixel_nm).round().max(1.0) as i32;
        let r_max = ((R_MAX_NM / pixel_nm).round() as i32).max(r_min);
        (r_min, r_max)
    }

    /// The writability clean-up of a pixel mask before fracturing: a
    /// 1-px morphological opening, then removal of the 8-connected
    /// regions smaller than the `R_min` disk. Such specks cannot be
    /// written as circular shots and only inflate fracture counts.
    pub fn writable_mask(&self, mask: &BitGrid, pixel_nm: f64) -> BitGrid {
        let (r_min, _) = self.radius_range_px(pixel_nm);
        let opened = open(mask, Structuring::Disk(1));
        remove_small_regions(&opened, disk_area(r_min), Connectivity::Eight)
    }
}

/// Fractures a binary mask into overlapping circular shots (Algorithm 1).
///
/// `pixel_nm` is the grid pitch used to convert the nm-denominated
/// configuration into pixels.
///
/// # Examples
///
/// ```
/// use cfaopc_fracture::{circle_rule, CircleRuleConfig};
/// use cfaopc_grid::{fill_circle, BitGrid, Point};
///
/// let mut mask = BitGrid::new(128, 128);
/// fill_circle(&mut mask, Point::new(64, 64), 15);
/// let circles = circle_rule(&mask, &CircleRuleConfig::default(), 4.0);
/// assert!(circles.shot_count() >= 1);
/// ```
pub fn circle_rule(mask: &BitGrid, config: &CircleRuleConfig, pixel_nm: f64) -> CircularMask {
    let (w, h) = (mask.width(), mask.height());
    let m_px = config.sample_distance_px(pixel_nm);
    let (r_min, r_max) = config.radius_range_px(pixel_nm);
    let labeling = connected_components(mask, Connectivity::Eight);
    let mut out = CircularMask::new();
    let mut visited = BitGrid::new(w, h);

    for region in &labeling.regions {
        // Skeletonize the region on a padded crop of its bounding box
        // (Zhang–Suen is O(area · passes); cropping keeps it local).
        let (crop, Point { x: bx0, y: by0 }) = region.padded_crop(2, w, h);
        let skeleton_crop = skeletonize(&crop);

        // Deterministic seed: an endpoint when the skeleton has one
        // (walks start at curve tips), else the first pixel.
        // NOTE(paper): Algorithm 1 samples the seed randomly; a fixed
        // seed makes runs reproducible and changes nothing else.
        let seed_crop = endpoints(&skeleton_crop)
            .first()
            .copied()
            .or_else(|| skeleton_crop.ones().first().copied());
        let Some(seed_crop) = seed_crop else {
            continue;
        };

        // DFS-based point sampling (Algorithm 1, lines 9–18).
        let mut region_shots: Vec<CircleShot> = Vec::new();
        let mut stack: Vec<(Point, u32)> = vec![(seed_crop, 0)];
        while let Some((u, cnt)) = stack.pop() {
            let gu = Point::new(u.x + bx0, u.y + by0);
            if visited.at(gu) {
                continue;
            }
            visited.set_at(gu, true);
            for &(dx, dy) in Connectivity::Eight.offsets() {
                let v = Point::new(u.x + dx, u.y + dy);
                if skeleton_crop.at(v) && !visited.at(Point::new(v.x + bx0, v.y + by0)) {
                    stack.push((v, cnt + 1));
                }
            }
            if cnt % m_px == 0 {
                let r = select_radius(
                    &labeling.labels,
                    region.label,
                    gu,
                    r_min,
                    r_max,
                    config.first_below_threshold,
                );
                out.push(CircleShot::new(gu.x, gu.y, r));
                region_shots.push(CircleShot::new(gu.x, gu.y, r));
            }
        }

        // Greedy coverage completion for fat regions (see the field docs
        // on `min_region_coverage`).
        if config.min_region_coverage > 0.0 {
            complete_coverage(
                &labeling.labels,
                region,
                &mut region_shots,
                &mut out,
                r_min,
                r_max,
                config,
            );
        }
    }
    out
}

/// Adds circles at the deepest uncovered pixels of `region` until
/// `min_region_coverage` of its area is inside some circle.
fn complete_coverage(
    labels: &cfaopc_grid::Grid2D<u32>,
    region: &cfaopc_grid::Region,
    region_shots: &mut Vec<CircleShot>,
    out: &mut CircularMask,
    r_min: i32,
    r_max: i32,
    config: &CircleRuleConfig,
) {
    let area = region.points.len();
    let allowed_uncovered = ((1.0 - config.min_region_coverage) * area as f64) as usize;
    let covered_by = |shots: &[CircleShot], p: Point| shots.iter().any(|s| s.contains(p));
    let mut uncovered: Vec<Point> = region
        .points
        .iter()
        .copied()
        .filter(|&p| !covered_by(region_shots, p))
        .collect();
    if uncovered.len() <= allowed_uncovered {
        return;
    }
    // Depth of every region pixel (distance to the region's boundary),
    // used to place completion circles as deep inside as possible. The
    // padded crop gives the same depths as the full grid.
    let (crop, o) = region.padded_crop(1, labels.width(), labels.height());
    let depth = cfaopc_grid::interior_distance(&crop);
    let budget = area / cfaopc_grid::disk_area(r_min).max(1) + 8;
    for _ in 0..budget {
        if uncovered.len() <= allowed_uncovered {
            break;
        }
        let &deepest = uncovered
            .iter()
            .max_by(|a, b| {
                let da = depth[((a.x - o.x) as usize, (a.y - o.y) as usize)];
                let db = depth[((b.x - o.x) as usize, (b.y - o.y) as usize)];
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("uncovered nonempty");
        let r = select_radius(
            labels,
            region.label,
            deepest,
            r_min,
            r_max,
            config.first_below_threshold,
        );
        let shot = CircleShot::new(deepest.x, deepest.y, r);
        region_shots.push(shot);
        out.push(shot);
        uncovered.retain(|&p| !shot.contains(p));
    }
}

/// Circle radius selection (Algorithm 1, lines 19–23): grow `r` until the
/// cover rate `|C(u,r) ∩ A_i| / |C(u,r)|` drops below [`COVER_THRESHOLD`].
///
/// Implemented with a single sweep over the `R_max` disk that buckets
/// pixels by the smallest enclosing integer radius, so the cover rate of
/// every candidate radius comes from one prefix sum.
fn select_radius(
    labels: &cfaopc_grid::Grid2D<u32>,
    label: u32,
    center: Point,
    r_min: i32,
    r_max: i32,
    first_below: bool,
) -> i32 {
    let mut inside_by_r = vec![0usize; (r_max + 1) as usize];
    for dy in -r_max..=r_max {
        for dx in -r_max..=r_max {
            let d2 = (dx * dx + dy * dy) as i64;
            if d2 > (r_max as i64) * (r_max as i64) {
                continue;
            }
            let p = Point::new(center.x + dx, center.y + dy);
            if labels.get(p).copied() == Some(label) {
                let r_idx = (d2 as f64).sqrt().ceil() as usize;
                // ceil(sqrt) can overshoot on perfect squares; snap down.
                let r_idx = if r_idx > 0 && ((r_idx - 1) * (r_idx - 1)) as i64 >= d2 {
                    r_idx - 1
                } else {
                    r_idx
                };
                inside_by_r[r_idx.min(r_max as usize)] += 1;
            }
        }
    }
    let mut cumulative = 0usize;
    let mut cum_inside = vec![0usize; (r_max + 1) as usize];
    for r in 0..=r_max as usize {
        cumulative += inside_by_r[r];
        cum_inside[r] = cumulative;
    }
    for r in r_min..=r_max {
        let cover = cum_inside[r as usize] as f64 / disk_area(r) as f64;
        if cover < COVER_THRESHOLD {
            return if first_below { r } else { (r - 1).max(r_min) };
        }
    }
    r_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_circle, fill_rect, Rect};

    const PX: f64 = 4.0; // 512-style grid pitch

    fn cfg() -> CircleRuleConfig {
        CircleRuleConfig::default()
    }

    #[test]
    fn empty_mask_gives_no_shots() {
        let mask = BitGrid::new(64, 64);
        assert!(circle_rule(&mask, &cfg(), PX).is_empty());
    }

    #[test]
    fn disk_is_covered_by_few_shots() {
        let mut mask = BitGrid::new(128, 128);
        fill_circle(&mut mask, Point::new(64, 64), 15);
        let circles = circle_rule(&mask, &cfg(), PX);
        assert!(circles.shot_count() >= 1);
        assert!(
            circles.shot_count() <= 6,
            "a disk needs few circular shots, got {}",
            circles.shot_count()
        );
        // Union recovers most of the disk.
        let raster = circles.rasterize(128, 128);
        let inter = raster.intersection_count(&mask);
        assert!(inter as f64 >= 0.7 * mask.count_ones() as f64);
    }

    #[test]
    fn radii_respect_bounds() {
        let mut mask = BitGrid::new(256, 256);
        fill_rect(&mut mask, Rect::new(20, 100, 230, 140)); // fat bar
        fill_circle(&mut mask, Point::new(60, 40), 4); // tiny dot
        let circles = circle_rule(&mask, &cfg(), PX);
        let (r_min, r_max) = cfg().radius_range_px(PX);
        for s in circles.shots() {
            assert!(s.r >= r_min && s.r <= r_max, "radius {} out of bounds", s.r);
        }
    }

    #[test]
    fn bar_shots_follow_the_spine() {
        let mut mask = BitGrid::new(256, 128);
        fill_rect(&mut mask, Rect::new(20, 56, 230, 72)); // 16px tall bar
        let circles = circle_rule(&mask, &cfg(), PX);
        assert!(circles.shot_count() >= 3, "{}", circles.shot_count());
        for s in circles.shots() {
            assert!(
                (s.y - 64).abs() <= 4,
                "shot at ({}, {}) far from the spine",
                s.x,
                s.y
            );
        }
    }

    #[test]
    fn larger_sample_distance_means_fewer_shots() {
        let mut mask = BitGrid::new(256, 256);
        fill_rect(&mut mask, Rect::new(20, 60, 230, 76));
        fill_rect(&mut mask, Rect::new(20, 160, 230, 176));
        let dense = circle_rule(
            &mask,
            &CircleRuleConfig {
                sample_distance_nm: 16.0,
                ..cfg()
            },
            PX,
        );
        let sparse = circle_rule(
            &mask,
            &CircleRuleConfig {
                sample_distance_nm: 64.0,
                ..cfg()
            },
            PX,
        );
        assert!(
            sparse.shot_count() < dense.shot_count(),
            "sparse {} vs dense {}",
            sparse.shot_count(),
            dense.shot_count()
        );
    }

    #[test]
    fn literal_pseudocode_radii_are_one_larger() {
        let mut mask = BitGrid::new(128, 128);
        fill_circle(&mut mask, Point::new(64, 64), 12);
        let default = circle_rule(&mask, &cfg(), PX);
        let literal = circle_rule(
            &mask,
            &CircleRuleConfig {
                first_below_threshold: true,
                ..cfg()
            },
            PX,
        );
        assert_eq!(default.shot_count(), literal.shot_count());
        for (a, b) in default.shots().iter().zip(literal.shots()) {
            assert!(
                b.r - a.r <= 1 && b.r >= a.r,
                "default {} literal {}",
                a.r,
                b.r
            );
        }
    }

    #[test]
    fn every_region_gets_at_least_one_shot() {
        let mut mask = BitGrid::new(256, 256);
        fill_circle(&mut mask, Point::new(40, 40), 8);
        fill_circle(&mut mask, Point::new(180, 60), 10);
        fill_rect(&mut mask, Rect::new(40, 150, 220, 170));
        let circles = circle_rule(&mask, &cfg(), PX);
        for &c in &[
            Point::new(40, 40),
            Point::new(180, 60),
            Point::new(130, 160),
        ] {
            assert!(
                circles.shots().iter().any(|s| s.center().dist(c) < 60.0),
                "no shot near region at {c}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let mut mask = BitGrid::new(128, 128);
        fill_rect(&mut mask, Rect::new(10, 10, 100, 30));
        fill_circle(&mut mask, Point::new(80, 90), 13);
        let a = circle_rule(&mask, &cfg(), PX);
        let b = circle_rule(&mask, &cfg(), PX);
        assert_eq!(a, b);
    }

    #[test]
    fn config_px_conversions() {
        let c = cfg();
        assert_eq!(c.sample_distance_px(4.0), 8);
        assert_eq!(c.radius_range_px(4.0), (3, 19));
        assert_eq!(c.sample_distance_px(1.0), 32);
        assert_eq!(c.radius_range_px(1.0), (12, 76));
        // Coarse grids clamp to 1.
        assert_eq!(c.sample_distance_px(64.0), 1);
        assert_eq!(c.radius_range_px(64.0), (1, 1));
    }
}
