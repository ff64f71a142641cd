//! Pinned CircleRule shot lists for masks where coverage completion fires.
//!
//! Completion places each circle at the deepest uncovered pixel of its
//! region, so one wrong depth pixel moves a shot. The property tests only
//! bound radii and coverage; these lists are exact. Every mask is at
//! 16 nm pitch (`R_min` 1 px, `R_max` 5 px), so the skeleton walk alone
//! leaves each region under-covered.

use cfaopc_fracture::{circle_rule, CircleRuleConfig};
use cfaopc_grid::{fill_circle, fill_rect, BitGrid, Point, Rect};

const PITCH_NM: f64 = 16.0;

fn shots(mask: &BitGrid) -> Vec<(i32, i32, i32)> {
    circle_rule(mask, &CircleRuleConfig::default(), PITCH_NM)
        .shots()
        .iter()
        .map(|s| (s.x, s.y, s.r))
        .collect()
}

/// How many shots the skeleton walk places before completion.
fn walk_only(mask: &BitGrid) -> usize {
    let cfg = CircleRuleConfig {
        min_region_coverage: 0.0,
        ..CircleRuleConfig::default()
    };
    circle_rule(mask, &cfg, PITCH_NM).shot_count()
}

#[test]
fn fat_disk_away_from_the_origin() {
    let mut mask = BitGrid::new(64, 64);
    fill_circle(&mut mask, Point::new(38, 30), 14);
    let expected = [
        (38, 30, 5),
        (37, 35, 5),
        (33, 31, 5),
        (43, 31, 5),
        (37, 25, 5),
        (42, 26, 5),
        (42, 36, 5),
        (32, 26, 5),
        (32, 36, 5),
        (47, 27, 5),
        (41, 21, 5),
        (38, 40, 5),
        (47, 35, 5),
        (28, 30, 5),
        (33, 21, 5),
        (46, 22, 3),
        (33, 41, 2),
        (43, 41, 2),
        (27, 35, 2),
        (27, 25, 2),
    ];
    assert_eq!(walk_only(&mask), 1);
    assert_eq!(shots(&mask), expected);
}

/// Two regions, each in a grid corner, so both crops are clamped: the
/// top-left one on its left and top sides, the bottom-right one on its
/// right and bottom sides.
#[test]
fn regions_in_grid_corners() {
    let mut mask = BitGrid::new(48, 48);
    fill_circle(&mut mask, Point::new(47, 47), 16);
    fill_rect(&mut mask, Rect::new(0, 0, 20, 14));
    let expected = [
        (7, 6, 5),
        (9, 6, 5),
        (11, 6, 5),
        (6, 0, 1),
        (4, 0, 1),
        (2, 0, 1),
        (0, 0, 1),
        (5, 1, 2),
        (1, 1, 1),
        (8, 1, 2),
        (3, 2, 3),
        (0, 3, 1),
        (10, 0, 1),
        (2, 5, 3),
        (12, 1, 2),
        (14, 0, 1),
        (1, 8, 2),
        (15, 2, 3),
        (16, 10, 4),
        (16, 5, 5),
        (3, 10, 4),
        (12, 11, 3),
        (8, 11, 3),
        (45, 34, 3),
        (44, 36, 4),
        (43, 38, 5),
        (42, 40, 5),
        (40, 42, 5),
        (38, 43, 5),
        (36, 44, 4),
        (34, 45, 3),
        (42, 41, 5),
        (47, 47, 1),
        (46, 46, 1),
        (45, 47, 1),
        (47, 45, 1),
        (44, 46, 2),
        (47, 43, 1),
        (42, 47, 1),
        (36, 38, 2),
        (38, 36, 2),
        (31, 47, 1),
        (32, 42, 1),
        (33, 41, 1),
    ];
    assert_eq!(walk_only(&mask), 12);
    assert_eq!(shots(&mask), expected);
}

/// A mask that fills the grid has no background: the depth map falls
/// back to the distance from the grid border.
#[test]
fn mask_filling_the_whole_grid() {
    let mut mask = BitGrid::new(24, 24);
    fill_rect(&mut mask, Rect::new(0, 0, 24, 24));
    let expected = [
        (11, 11, 5),
        (15, 15, 5),
        (10, 16, 5),
        (16, 10, 5),
        (7, 7, 5),
        (6, 12, 5),
        (12, 6, 5),
        (5, 18, 5),
        (18, 5, 5),
        (19, 19, 5),
        (14, 20, 5),
        (20, 14, 5),
        (3, 3, 4),
        (2, 8, 3),
        (8, 2, 3),
        (9, 22, 2),
        (1, 22, 1),
        (22, 9, 2),
        (22, 1, 1),
        (1, 14, 2),
        (14, 1, 2),
        (1, 11, 2),
        (11, 1, 2),
        (23, 23, 1),
        (7, 23, 1),
        (4, 23, 1),
        (2, 23, 1),
        (0, 23, 1),
    ];
    assert_eq!(walk_only(&mask), 1);
    assert_eq!(shots(&mask), expected);
}
