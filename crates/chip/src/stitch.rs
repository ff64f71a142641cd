//! Seam stitching and shot merging — the chip-assembly hot path.
//!
//! Four kernels assemble per-tile results into chip-level artifacts,
//! all driven in the fixed row-major tile order so the outcome is a pure
//! function of the inputs:
//!
//! * [`extract_window_into`] copies a tile's halo window out of the chip
//!   raster (zero-padded outside the chip),
//! * [`accumulate_window`] adds one tile's window intensity into the
//!   chip accumulator under the tent weights ([`accumulate_windows`]
//!   adds the three corners' at once, under one weight sum),
//! * [`normalize_blend`] divides by the per-pixel weight sum, turning
//!   the tent weights into a partition of unity,
//! * [`merge_tile_shots`] keeps exactly the shots whose centres fall in
//!   the emitting tile's interior, translated to chip coordinates.
//!
//! All of them are listed in `lint/hotpaths.toml`: they run per pixel
//! per tile (per process corner) and must not allocate — callers own
//! every buffer.

use crate::geometry::ChipGeometry;
use cfaopc_fracture::CircleShot;
use cfaopc_grid::BitGrid;

/// Copies the window at `origin` (chip pixels, possibly negative) out of
/// `chip` into `out`; pixels outside the chip read as empty. `out`
/// carries the window dimensions and is fully overwritten.
pub fn extract_window_into(chip: &BitGrid, origin: (i32, i32), out: &mut BitGrid) {
    let (cw, ch) = (chip.width() as i32, chip.height() as i32);
    for wy in 0..out.height() {
        let cy = origin.1 + wy as i32;
        for wx in 0..out.width() {
            let cx = origin.0 + wx as i32;
            let v = cx >= 0 && cx < cw && cy >= 0 && cy < ch && chip.get(cx as usize, cy as usize);
            out.set(wx, wy, v);
        }
    }
}

/// Accumulates one tile's window intensity into the chip blend:
/// `acc[p] += wx·wy·window[p]`, `wsum[p] += wx·wy` for every window
/// pixel `p` that lands inside the chip. `wx`/`wy` are the per-axis tent
/// weights (length = window edge); `acc`/`wsum` are row-major
/// `chip_w × chip_h` buffers. Accumulation order is the caller's tile
/// order, so the blend is deterministic despite float non-associativity.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_window(
    window: &[f64],
    win_w: usize,
    origin: (i32, i32),
    wx: &[f64],
    wy: &[f64],
    chip_w: usize,
    chip_h: usize,
    acc: &mut [f64],
    wsum: &mut [f64],
) {
    accumulate_windows([window], win_w, origin, wx, wy, chip_w, chip_h, [acc], wsum);
}

/// [`accumulate_window`] for `C` images of one window (the three process
/// corners' intensities) at once: `acc[c][p] += wx·wy·windows[c][p]` for
/// each image `c`, and `wsum[p] += wx·wy` once. The weights do not depend
/// on the image, so one weight sum serves every accumulator, and each
/// accumulator sees the same operations in the same order as one
/// [`accumulate_window`] call would give it.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_windows<const C: usize>(
    windows: [&[f64]; C],
    win_w: usize,
    origin: (i32, i32),
    wx: &[f64],
    wy: &[f64],
    chip_w: usize,
    chip_h: usize,
    mut acc: [&mut [f64]; C],
    wsum: &mut [f64],
) {
    let win_h = windows
        .first()
        .map_or(0, |window| window.len().checked_div(win_w).unwrap_or(0));
    for (y, &wy) in wy.iter().enumerate().take(win_h) {
        let cy = origin.1 + y as i32;
        if cy < 0 || cy >= chip_h as i32 {
            continue;
        }
        let row = cy as usize * chip_w;
        let wrow = y * win_w;
        for x in 0..win_w {
            let cx = origin.0 + x as i32;
            if cx < 0 || cx >= chip_w as i32 {
                continue;
            }
            let w = wx[x] * wy;
            let i = row + cx as usize;
            for (acc, window) in acc.iter_mut().zip(windows) {
                acc[i] += w * window[wrow + x];
            }
            wsum[i] += w;
        }
    }
}

/// Divides the accumulated intensity by the per-pixel weight sum. Every
/// chip pixel is covered by its owner's window with a positive weight,
/// so `wsum > 0` everywhere; the guard only protects degenerate callers.
pub fn normalize_blend(acc: &mut [f64], wsum: &[f64]) {
    for (a, &w) in acc.iter_mut().zip(wsum) {
        if w > 0.0 {
            *a /= w;
        }
    }
}

/// Translates one tile's window-coordinate shots to chip coordinates and
/// appends those the tile *owns* (shot centre in the tile interior) to
/// `shots`, recording the emitting tile's linear index in `owners`.
/// Halo shots are dropped — the neighbouring tile that owns that region
/// emits its own copy — so the merged list has no duplicates and its
/// order is the (tile, shot) emission order.
pub fn merge_tile_shots(
    geom: &ChipGeometry,
    tile_index: usize,
    tile_shots: &[CircleShot],
    shots: &mut Vec<CircleShot>,
    owners: &mut Vec<u32>,
) {
    let (tx, ty) = geom.tile_at(tile_index);
    let origin = geom.window_origin(tx, ty);
    for s in tile_shots {
        let (cx, cy) = (origin.0 + s.x, origin.1 + s.y);
        if geom.owns(tx, ty, cx, cy) {
            shots.push(CircleShot::new(cx, cy, s.r));
            owners.push(tile_index as u32);
        }
    }
}

/// Builds the per-axis tent-weight table for a geometry's window edge.
pub fn axis_weights(geom: &ChipGeometry) -> Vec<f64> {
    (0..geom.window_px()).map(|u| geom.tent_weight(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::{fill_rect, Rect};

    #[test]
    fn extraction_zero_pads_outside_the_chip() {
        let mut chip = BitGrid::new(8, 8);
        fill_rect(&mut chip, Rect::new(0, 0, 8, 8));
        let mut out = BitGrid::new(4, 4);
        extract_window_into(&chip, (-2, 6), &mut out);
        // Columns 0–1 are left padding; rows 2–3 fall below the chip.
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(out.get(x, y), x >= 2 && y < 2, "({x},{y})");
            }
        }
    }

    #[test]
    fn partition_of_unity_after_normalization() {
        let g = ChipGeometry::new(3, 2, 8);
        let (cw, ch) = (g.chip_width_px(), g.chip_height_px());
        let w = axis_weights(&g);
        let mut acc = vec![0.0; cw * ch];
        let mut wsum = vec![0.0; cw * ch];
        // Blend constant-1 windows: the normalized result must be exactly
        // 1 everywhere iff the weights form a partition of unity.
        let ones = vec![1.0; g.window_px() * g.window_px()];
        for i in 0..g.tile_count() {
            let (tx, ty) = g.tile_at(i);
            accumulate_window(
                &ones,
                g.window_px(),
                g.window_origin(tx, ty),
                &w,
                &w,
                cw,
                ch,
                &mut acc,
                &mut wsum,
            );
        }
        normalize_blend(&mut acc, &wsum);
        for (i, v) in acc.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-12, "pixel {i}: {v}");
        }
    }

    #[test]
    fn merge_keeps_owned_shots_only_with_chip_coordinates() {
        let g = ChipGeometry::new(2, 1, 16); // window 32, halo 8
        let tile_shots = [
            CircleShot::new(8, 16, 2),  // window centre-left
            CircleShot::new(30, 16, 2), // right halo band
            CircleShot::new(4, 16, 2),  // left halo band
        ];
        // From tile 0 (origin (-8,-8)) only the first shot lands in the
        // tile's own interior x ∈ [0, 16): chip (0, 8). The others map to
        // chip x = 22 (tile 1's land) and x = −4 (off chip).
        let mut shots = Vec::new();
        let mut owners = Vec::new();
        merge_tile_shots(&g, 0, &tile_shots, &mut shots, &mut owners);
        assert_eq!(shots, vec![CircleShot::new(0, 8, 2)]);
        assert_eq!(owners, vec![0]);

        // From tile 1 (origin (8,-8)) the same first shot maps to chip
        // (16, 8) — inside tile 1's interior x ∈ [16, 32); the others map
        // to chip x = 38 (off chip) and x = 12 (tile 0's land).
        shots.clear();
        owners.clear();
        merge_tile_shots(&g, 1, &tile_shots, &mut shots, &mut owners);
        assert_eq!(shots, vec![CircleShot::new(16, 8, 2)]);
        assert_eq!(owners, vec![1]);
    }
}
