//! Multi-tile chip layouts for full-chip decomposition experiments.
//!
//! A [`ChipLayout`] is a `tiles_x × tiles_y` array of 2048 nm tiles with
//! one flat rectangle list in chip nanometre coordinates. Two builders
//! are provided: [`generate_chip`] (seeded random tiles plus features
//! *forced to straddle every tile seam*, so halo stitching is actually
//! exercised) and [`ChipLayout::from_tiles`] (a mosaic of existing
//! single-tile layouts, e.g. the benchmark cases).
//!
//! Seam straddlers are confined to the keep-out band the per-tile
//! generator never enters (`|coord − seam| ≤ STRADDLE_LENGTH/2 <
//! MARGIN`), so straddlers and tile shapes stay pairwise disjoint by
//! construction; the unit tests verify it.

use crate::generator::MARGIN;
use crate::{generate_layout, Layout, TILE_NM};
use cfaopc_grid::{fill_rect, BitGrid, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chip: `tiles_x × tiles_y` tiles of [`TILE_NM`] nm each, with all
/// rectangles in chip-level nanometre coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipLayout {
    /// Chip name, e.g. `chip3_4x4`.
    pub name: String,
    /// Tile columns.
    pub tiles_x: usize,
    /// Tile rows.
    pub tiles_y: usize,
    /// Non-overlapping rectangles in chip nanometre coordinates.
    pub rects: Vec<Rect>,
}

impl ChipLayout {
    /// Creates a chip layout from rectangles (chip nm coordinates).
    pub fn new(name: impl Into<String>, tiles_x: usize, tiles_y: usize, rects: Vec<Rect>) -> Self {
        ChipLayout {
            name: name.into(),
            tiles_x,
            tiles_y,
            rects,
        }
    }

    /// Builds a chip by tiling `tiles` (cycled) across the grid,
    /// translating each copy to its tile origin.
    pub fn from_tiles(
        name: impl Into<String>,
        tiles_x: usize,
        tiles_y: usize,
        tiles: &[Layout],
    ) -> Self {
        let mut rects = Vec::new();
        if !tiles.is_empty() {
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    let tile = &tiles[(ty * tiles_x + tx) % tiles.len()];
                    let (dx, dy) = (tx as i32 * TILE_NM, ty as i32 * TILE_NM);
                    for r in &tile.rects {
                        rects.push(r.translated(dx, dy));
                    }
                }
            }
        }
        ChipLayout::new(name, tiles_x, tiles_y, rects)
    }

    /// Chip width in nanometres (`tiles_x · TILE_NM`).
    pub fn width_nm(&self) -> i32 {
        self.tiles_x as i32 * TILE_NM
    }

    /// Chip height in nanometres (`tiles_y · TILE_NM`).
    pub fn height_nm(&self) -> i32 {
        self.tiles_y as i32 * TILE_NM
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// Total pattern area in nm² (rectangles are assumed disjoint; both
    /// builders guarantee it and the unit tests verify).
    pub fn area_nm2(&self) -> i64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// Rasterizes onto a `(tiles_x·px_per_tile) × (tiles_y·px_per_tile)`
    /// grid, so one pixel spans `TILE_NM / px_per_tile` nm — the same
    /// pitch [`Layout::rasterize`] uses at `size = px_per_tile`.
    pub fn rasterize(&self, px_per_tile: usize) -> BitGrid {
        let w = self.tiles_x * px_per_tile;
        let h = self.tiles_y * px_per_tile;
        let mut mask = BitGrid::new(w, h);
        for r in &self.rects {
            fill_rect(&mut mask, r.scaled(px_per_tile as i32, TILE_NM));
        }
        mask
    }
}

/// Features forced across each interior seam, per adjacent tile pair.
const STRADDLERS_PER_SEAM: usize = 2;
/// Total straddler length across the seam (half on each side), nm.
const STRADDLE_LENGTH: i32 = 360;
/// Straddler width range, nm.
const STRADDLE_WIDTH: (i32, i32) = (60, 90);

// The tile margin doubles as the seam keep-out band.
const _: () = assert!(0 < STRADDLE_LENGTH / 2 && STRADDLE_LENGTH / 2 < MARGIN);

/// SplitMix64-style mix so every tile draws from an independent stream.
fn tile_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates a deterministic pseudo-random chip for `seed`.
///
/// Every tile gets independent random content from
/// [`generate_layout`] (translated to its tile origin), then every
/// interior seam — vertical and horizontal — receives two wires
/// centered on the seam line, one batch per adjacent tile pair,
/// rejection-sampled against each other. Straddlers never touch
/// per-tile shapes because both respect the tile margin band; the
/// straddler half-length is below the margin.
///
/// # Examples
///
/// ```
/// use cfaopc_layouts::{generate_chip, TILE_NM};
///
/// let chip = generate_chip(3, 4, 4);
/// assert_eq!(chip, generate_chip(3, 4, 4)); // deterministic
/// // At least one rect crosses the first vertical seam.
/// assert!(chip
///     .rects
///     .iter()
///     .any(|r| r.x0 < TILE_NM && r.x1 > TILE_NM));
/// ```
pub fn generate_chip(seed: u64, tiles_x: usize, tiles_y: usize) -> ChipLayout {
    let mut rects: Vec<Rect> = Vec::new();
    // Per-tile content, translated into chip coordinates.
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let idx = (ty * tiles_x + tx) as u64;
            let tile = generate_layout(tile_seed(seed, idx));
            let (dx, dy) = (tx as i32 * TILE_NM, ty as i32 * TILE_NM);
            for r in &tile.rects {
                rects.push(r.translated(dx, dy));
            }
        }
    }

    // Seam straddlers, drawn from their own stream so tile content and
    // seam content stay independent.
    let mut rng = StdRng::seed_from_u64(tile_seed(seed, u64::MAX));
    let half = STRADDLE_LENGTH / 2;
    let clearance = 60;
    let mut straddlers: Vec<Rect> = Vec::new();
    let place = |straddlers: &mut Vec<Rect>,
                 rng: &mut StdRng,
                 seam_rect: &dyn Fn(i32, i32) -> Rect,
                 lo: i32,
                 hi: i32| {
        for _ in 0..STRADDLERS_PER_SEAM {
            for _attempt in 0..64 {
                let w = rng.gen_range(STRADDLE_WIDTH.0..=STRADDLE_WIDTH.1);
                if hi - w <= lo {
                    break;
                }
                let pos = rng.gen_range(lo..hi - w);
                let candidate = seam_rect(pos, w);
                let padded = Rect::new(
                    candidate.x0 - clearance,
                    candidate.y0 - clearance,
                    candidate.x1 + clearance,
                    candidate.y1 + clearance,
                );
                if straddlers.iter().all(|r| r.intersect(&padded).is_none()) {
                    straddlers.push(candidate);
                    break;
                }
            }
        }
    };

    // Vertical seams: horizontal wires crossing x = sx·TILE_NM, one
    // batch per tile row, y confined to the row's interior band.
    for sx in 1..tiles_x as i32 {
        for ty in 0..tiles_y as i32 {
            let seam = sx * TILE_NM;
            let (lo, hi) = (ty * TILE_NM + MARGIN, (ty + 1) * TILE_NM - MARGIN);
            place(
                &mut straddlers,
                &mut rng,
                &|y, w| Rect::new(seam - half, y, seam + half, y + w),
                lo,
                hi,
            );
        }
    }
    // Horizontal seams: vertical wires crossing y = sy·TILE_NM.
    for sy in 1..tiles_y as i32 {
        for tx in 0..tiles_x as i32 {
            let seam = sy * TILE_NM;
            let (lo, hi) = (tx * TILE_NM + MARGIN, (tx + 1) * TILE_NM - MARGIN);
            place(
                &mut straddlers,
                &mut rng,
                &|x, w| Rect::new(x, seam - half, x + w, seam + half),
                lo,
                hi,
            );
        }
    }
    rects.extend(straddlers);

    ChipLayout::new(
        format!("chip{seed}_{tiles_x}x{tiles_y}"),
        tiles_x,
        tiles_y,
        rects,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_cases;

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        assert_eq!(generate_chip(7, 3, 2), generate_chip(7, 3, 2));
        assert_ne!(generate_chip(1, 3, 2).rects, generate_chip(2, 3, 2).rects);
    }

    #[test]
    fn every_interior_seam_has_a_straddler() {
        let chip = generate_chip(3, 4, 4);
        for sx in 1..4 {
            let seam = sx * TILE_NM;
            assert!(
                chip.rects.iter().any(|r| r.x0 < seam && r.x1 > seam),
                "no straddler across vertical seam {sx}"
            );
        }
        for sy in 1..4 {
            let seam = sy * TILE_NM;
            assert!(
                chip.rects.iter().any(|r| r.y0 < seam && r.y1 > seam),
                "no straddler across horizontal seam {sy}"
            );
        }
    }

    #[test]
    fn chip_rects_are_pairwise_disjoint_and_inside_the_chip() {
        for seed in [0, 3, 11] {
            let chip = generate_chip(seed, 3, 3);
            for (i, a) in chip.rects.iter().enumerate() {
                assert!(a.x0 >= 0 && a.y0 >= 0, "seed {seed}: {a:?}");
                assert!(
                    a.x1 <= chip.width_nm() && a.y1 <= chip.height_nm(),
                    "seed {seed}: {a:?}"
                );
                for b in chip.rects.iter().skip(i + 1) {
                    assert!(
                        a.intersect(b).is_none(),
                        "seed {seed}: {a:?} overlaps {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn raster_matches_single_tile_pitch() {
        let chip = ChipLayout::from_tiles("mosaic", 2, 2, &all_cases()[..4]);
        let raster = chip.rasterize(64);
        assert_eq!((raster.width(), raster.height()), (128, 128));
        // Tile (0,0) of the mosaic is case1; its window of the chip
        // raster must equal case1 rasterized alone at the same pitch.
        let solo = all_cases()[0].rasterize(64);
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(solo.get(x, y), raster.get(x, y), "({x},{y})");
            }
        }
    }

    #[test]
    fn mosaic_area_is_sum_of_tiles() {
        let tiles = all_cases();
        let chip = ChipLayout::from_tiles("mosaic", 2, 2, &tiles[..4]);
        let expected: i64 = tiles[..4].iter().map(Layout::area_nm2).sum();
        assert_eq!(chip.area_nm2(), expected);
    }
}
