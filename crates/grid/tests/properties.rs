//! Property-based tests for the geometry substrate.

use cfaopc_grid::{
    connected_components, dilate, disk_area, disk_points, erode, fill_circle, fill_rect,
    interior_distance, skeletonize, BitGrid, Connectivity, Point, Rect, Structuring,
};
use proptest::prelude::*;

fn small_rects() -> impl Strategy<Value = Vec<Rect>> {
    proptest::collection::vec(
        (0i32..56, 0i32..56, 1i32..12, 1i32..12)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h)),
        1..6,
    )
}

fn mask_from_rects(rects: &[Rect]) -> BitGrid {
    let mut m = BitGrid::new(64, 64);
    for &r in rects {
        fill_rect(&mut m, r);
    }
    m
}

/// Masks of every shape from 1×1 up to 40×40, each pixel set with
/// probability `fill`% — 0 gives an empty mask, 100 a full one, and every
/// density in between puts features on the border.
fn random_mask() -> impl Strategy<Value = BitGrid> {
    (1usize..=40, 1usize..=40, 0u32..=100).prop_flat_map(|(w, h, fill)| {
        proptest::collection::vec(0u32..100, w * h).prop_map(move |cells| {
            let mut m = BitGrid::new(w, h);
            for (i, &c) in cells.iter().enumerate() {
                m.set(i % w, i / w, c < fill);
            }
            m
        })
    })
}

/// [`random_mask`] with its four corner pixels and the middle pixel of
/// each side set, so some region touches every border and every corner.
fn bordered_mask() -> impl Strategy<Value = BitGrid> {
    random_mask().prop_map(|mut m| {
        let (w, h) = (m.width(), m.height());
        for (x, y) in [
            (0, 0),
            (w - 1, 0),
            (0, h - 1),
            (w - 1, h - 1),
            (w / 2, 0),
            (w / 2, h - 1),
            (0, h / 2),
            (w - 1, h / 2),
        ] {
            m.set(x, y, true);
        }
        m
    })
}

/// Checks the crop contract of `Region::padded_crop` on every region of
/// `mask`: at pad 1 and pad 2, `interior_distance` of the crop, read at
/// `p - origin`, equals bit for bit the full-grid `interior_distance` of
/// the region alone at every region pixel `p`.
fn check_crop_depths(mask: &BitGrid) -> Result<(), TestCaseError> {
    let (w, h) = (mask.width(), mask.height());
    for region in &connected_components(mask, Connectivity::Eight).regions {
        let mut alone = BitGrid::new(w, h);
        for &p in &region.points {
            alone.set_at(p, true);
        }
        let full = interior_distance(&alone);
        for pad in [1, 2] {
            let (crop, origin) = region.padded_crop(pad, w, h);
            let local = interior_distance(&crop);
            for &p in &region.points {
                let got = local[((p.x - origin.x) as usize, (p.y - origin.y) as usize)];
                let want = full[(p.x as usize, p.y as usize)];
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{}x{} grid, region {} (bbox {:?}), pad {pad}, pixel {p}: crop {got} vs full {want}",
                    w,
                    h,
                    region.label,
                    region.bbox
                );
            }
        }
    }
    Ok(())
}

/// Reference disk morphology: probe every offset with `dx² + dy² ≤ r²`
/// at every pixel. Dilation sets a pixel when any probe hits the mask;
/// erosion keeps it only when every probe does, off-grid probes counting
/// as background. O(r²) per pixel — a test oracle only.
fn disk_sweep(mask: &BitGrid, r: i32, dilation: bool) -> BitGrid {
    let r = r.max(0);
    let r2 = i64::from(r) * i64::from(r);
    let mut offsets = Vec::new();
    for dy in -r..=r {
        for dx in -r..=r {
            if i64::from(dx) * i64::from(dx) + i64::from(dy) * i64::from(dy) <= r2 {
                offsets.push((dx, dy));
            }
        }
    }
    let (w, h) = (mask.width(), mask.height());
    let mut out = BitGrid::new(w, h);
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            let mut probes = offsets
                .iter()
                .map(|&(dx, dy)| mask.at(Point::new(x + dx, y + dy)));
            let hit = if dilation {
                probes.any(|v| v)
            } else {
                probes.all(|v| v)
            };
            out.set(x as usize, y as usize, hit);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn components_partition_the_mask(rects in small_rects()) {
        let m = mask_from_rects(&rects);
        let l = connected_components(&m, Connectivity::Eight);
        let total: usize = l.regions.iter().map(|r| r.points.len()).sum();
        prop_assert_eq!(total, m.count_ones());
        // Labels are consistent and non-overlapping.
        let mut seen = std::collections::HashSet::new();
        for region in &l.regions {
            for &p in &region.points {
                prop_assert!(seen.insert(p), "pixel {} in two regions", p);
                prop_assert!(m.at(p));
            }
        }
    }

    #[test]
    fn skeleton_is_subset_and_preserves_component_count(rects in small_rects()) {
        let m = mask_from_rects(&rects);
        let s = skeletonize(&m);
        for p in s.ones() {
            prop_assert!(m.at(p));
        }
        let before = connected_components(&m, Connectivity::Eight).regions.len();
        let after = connected_components(&s, Connectivity::Eight).regions.len();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn dilation_grows_erosion_shrinks(rects in small_rects(), r in 0i32..=12) {
        let m = mask_from_rects(&rects);
        let d = dilate(&m, Structuring::Disk(r));
        let e = erode(&m, Structuring::Disk(r));
        prop_assert!(d.count_ones() >= m.count_ones());
        prop_assert!(e.count_ones() <= m.count_ones());
        // Monotonicity: mask ⊆ dilation, erosion ⊆ mask.
        for p in m.ones() {
            prop_assert!(d.at(p));
        }
        for p in e.ones() {
            prop_assert!(m.at(p));
        }
    }

    #[test]
    fn disk_points_consistent_with_disk_area(cx in -10i32..74, cy in -10i32..74, r in 0i32..12) {
        // Unclipped count never exceeds disk_area; equality when fully on-grid.
        let pts = disk_points(Point::new(cx, cy), r, 64, 64);
        prop_assert!(pts.len() <= disk_area(r));
        if cx - r >= 0 && cy - r >= 0 && cx + r < 64 && cy + r < 64 {
            prop_assert_eq!(pts.len(), disk_area(r));
        }
        // Every reported point is on-grid and inside the disk.
        for p in pts {
            prop_assert!(p.x >= 0 && p.x < 64 && p.y >= 0 && p.y < 64);
            prop_assert!(p.dist_sqr(Point::new(cx, cy)) <= (r as i64) * (r as i64));
        }
    }

    #[test]
    fn fill_circle_equals_disk_points(cx in 0i32..32, cy in 0i32..32, r in 0i32..10) {
        let mut m = BitGrid::new(32, 32);
        fill_circle(&mut m, Point::new(cx, cy), r);
        let pts = disk_points(Point::new(cx, cy), r, 32, 32);
        prop_assert_eq!(m.count_ones(), pts.len());
        for p in pts {
            prop_assert!(m.at(p));
        }
    }

    #[test]
    fn xor_count_is_a_metric(a in small_rects(), b in small_rects()) {
        let ma = mask_from_rects(&a);
        let mb = mask_from_rects(&b);
        prop_assert_eq!(ma.xor_count(&ma), 0);
        prop_assert_eq!(ma.xor_count(&mb), mb.xor_count(&ma));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn disk_morphology_matches_the_brute_force_sweep(mask in random_mask(), r in 0i32..=12) {
        prop_assert_eq!(dilate(&mask, Structuring::Disk(r)), disk_sweep(&mask, r, true));
        prop_assert_eq!(erode(&mask, Structuring::Disk(r)), disk_sweep(&mask, r, false));
    }

    #[test]
    fn crop_interior_distance_matches_the_full_grid(mask in bordered_mask()) {
        check_crop_depths(&mask)?;
    }

    #[test]
    fn disk_morphology_matches_the_sweep_on_layout_masks(rects in small_rects(), r in 0i32..=12) {
        // Rectangles up to 12 px on a 64 px grid, clipped where they run
        // off the border.
        let m = mask_from_rects(&rects);
        prop_assert_eq!(dilate(&m, Structuring::Disk(r)), disk_sweep(&m, r, true));
        prop_assert_eq!(erode(&m, Structuring::Disk(r)), disk_sweep(&m, r, false));
    }
}

#[test]
fn disk_morphology_matches_the_sweep_on_degenerate_grids() {
    let single_off = BitGrid::new(1, 1);
    let mut single_on = BitGrid::new(1, 1);
    single_on.set(0, 0, true);
    let mut full = BitGrid::new(9, 5);
    fill_rect(&mut full, Rect::new(0, 0, 9, 5));
    let mut corner = BitGrid::new(7, 7);
    corner.set(0, 0, true);
    let masks = [single_off, single_on, BitGrid::new(9, 5), full, corner];
    for mask in &masks {
        for r in -1..=12 {
            assert_eq!(
                dilate(mask, Structuring::Disk(r)),
                disk_sweep(mask, r, true),
                "dilate {}x{} r={r}",
                mask.width(),
                mask.height()
            );
            assert_eq!(
                erode(mask, Structuring::Disk(r)),
                disk_sweep(mask, r, false),
                "erode {}x{} r={r}",
                mask.width(),
                mask.height()
            );
        }
    }
}

#[test]
fn crop_interior_distance_matches_on_single_pixels_and_full_grids() {
    for (w, h) in [(1, 1), (1, 5), (5, 1), (3, 3), (5, 4)] {
        // One set pixel at every position.
        for y in 0..h {
            for x in 0..w {
                let mut m = BitGrid::new(w, h);
                m.set(x, y, true);
                check_crop_depths(&m).unwrap();
            }
        }
        // The full grid: its one region takes the border fallback.
        let mut full = BitGrid::new(w, h);
        fill_rect(&mut full, Rect::new(0, 0, w as i32, h as i32));
        check_crop_depths(&full).unwrap();
    }
}
