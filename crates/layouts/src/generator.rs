//! Seeded random layout generation for stress tests beyond the ten
//! benchmark tiles.
//!
//! Produces M1-style tiles: a mix of line arrays (dense pitch), isolated
//! wires, and contact-like blocks, deterministic per seed. Used by the
//! fuzz/stress examples and property tests to exercise the full pipeline
//! on geometry the benchmark set does not cover.

use crate::{Layout, TILE_NM};
use cfaopc_grid::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of line arrays (each 2–5 parallel wires).
const LINE_ARRAYS: usize = 2;
/// Number of isolated wires.
const ISOLATED_WIRES: usize = 2;
/// Number of contact-like blocks.
const CONTACTS: usize = 2;
/// Wire width range, nm.
const WIRE_WIDTH: (i32, i32) = (48, 96);
/// Wire length range, nm.
const WIRE_LENGTH: (i32, i32) = (400, 1100);
/// Array pitch range, nm (edge to edge spacing = pitch − width).
const PITCH: (i32, i32) = (140, 260);
/// Keep-out margin from the tile edge, nm; the chip generator's seam
/// straddlers live inside it.
pub(crate) const MARGIN: i32 = 220;

/// Generates a deterministic pseudo-random tile for `seed`.
///
/// Shapes are placed by rejection sampling with a 60 nm clearance; if the
/// tile fills up, later shapes are skipped, so the shape count is an
/// upper bound.
///
/// # Examples
///
/// ```
/// use cfaopc_layouts::generate_layout;
///
/// let a = generate_layout(7);
/// assert_eq!(a, generate_layout(7)); // deterministic per seed
/// assert!(a.area_nm2() > 0);
/// ```
pub fn generate_layout(seed: u64) -> Layout {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rects: Vec<Rect> = Vec::new();
    let clearance = 60;

    let try_place = |rects: &mut Vec<Rect>, rng: &mut StdRng, w: i32, h: i32| -> Option<Rect> {
        for _ in 0..64 {
            let x = rng.gen_range(MARGIN..(TILE_NM - MARGIN - w).max(MARGIN + 1));
            let y = rng.gen_range(MARGIN..(TILE_NM - MARGIN - h).max(MARGIN + 1));
            let candidate = Rect::new(x, y, x + w, y + h);
            let padded = Rect::new(
                x - clearance,
                y - clearance,
                x + w + clearance,
                y + h + clearance,
            );
            if rects.iter().all(|r| r.intersect(&padded).is_none()) {
                rects.push(candidate);
                return Some(candidate);
            }
        }
        None
    };

    // Line arrays.
    for _ in 0..LINE_ARRAYS {
        let horizontal: bool = rng.gen();
        let count = rng.gen_range(2..=5);
        let width = rng.gen_range(WIRE_WIDTH.0..=WIRE_WIDTH.1);
        let length = rng.gen_range(WIRE_LENGTH.0..=WIRE_LENGTH.1);
        let pitch = rng.gen_range(PITCH.0.max(width + 60)..=PITCH.1.max(width + 61));
        let (w, h) = if horizontal {
            (length, width + (count - 1) * pitch)
        } else {
            (width + (count - 1) * pitch, length)
        };
        if let Some(anchor) = try_place(&mut rects, &mut rng, w, h) {
            // Replace the bounding placeholder with the actual wires.
            rects.pop();
            for i in 0..count {
                let off = i * pitch;
                let wire = if horizontal {
                    Rect::new(
                        anchor.x0,
                        anchor.y0 + off,
                        anchor.x0 + length,
                        anchor.y0 + off + width,
                    )
                } else {
                    Rect::new(
                        anchor.x0 + off,
                        anchor.y0,
                        anchor.x0 + off + width,
                        anchor.y0 + length,
                    )
                };
                rects.push(wire);
            }
        }
    }
    // Isolated wires.
    for _ in 0..ISOLATED_WIRES {
        let horizontal: bool = rng.gen();
        let width = rng.gen_range(WIRE_WIDTH.0..=WIRE_WIDTH.1);
        let length = rng.gen_range(WIRE_LENGTH.0..=WIRE_LENGTH.1);
        let (w, h) = if horizontal {
            (length, width)
        } else {
            (width, length)
        };
        try_place(&mut rects, &mut rng, w, h);
    }
    // Contacts.
    for _ in 0..CONTACTS {
        let w = rng.gen_range(60..=200);
        let h = rng.gen_range(60..=200);
        try_place(&mut rects, &mut rng, w, h);
    }

    Layout::new(format!("random{seed}"), rects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate_layout(42), generate_layout(42));
        assert_ne!(generate_layout(1).rects, generate_layout(2).rects);
    }

    #[test]
    fn shapes_are_disjoint_and_inside_the_margin() {
        for seed in 0..20 {
            let layout = generate_layout(seed);
            assert!(!layout.rects.is_empty(), "seed {seed} produced nothing");
            for (i, a) in layout.rects.iter().enumerate() {
                assert!(a.x0 >= MARGIN && a.y0 >= MARGIN, "seed {seed}");
                assert!(
                    a.x1 <= TILE_NM - MARGIN && a.y1 <= TILE_NM - MARGIN,
                    "seed {seed}: {a:?}"
                );
                for b in layout.rects.iter().skip(i + 1) {
                    assert!(
                        a.intersect(b).is_none(),
                        "seed {seed}: {a:?} overlaps {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rasterizes_cleanly() {
        let layout = generate_layout(5);
        let mask = layout.rasterize(256);
        assert!(mask.count_ones() > 0);
    }
}
