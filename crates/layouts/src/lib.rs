//! Benchmark layout tiles for CFAOPC experiments.
//!
//! The paper evaluates on the ICCAD-2013 mask-optimization contest suite:
//! ten 2048 nm × 2048 nm M1 tiles from industrial 32 nm designs. The
//! original GDS clips are not redistributable, so this crate ships **ten
//! deterministic synthetic tiles** whose *total pattern areas match the
//! paper's Table 2 `Area(nm²)` column exactly, case by case*, and whose
//! geometry spans the same regimes (dense line arrays, isolated wires,
//! small blocks/contacts, one large square for case 10).
//!
//! Layouts are lists of axis-aligned rectangles in nanometre coordinates;
//! [`Layout::rasterize`] scales them onto any power-of-two pixel grid.
//! A minimal GLP-like text format is provided for interchange.
//!
//! # Examples
//!
//! ```
//! use cfaopc_layouts::benchmark_case;
//!
//! let case10 = benchmark_case(10).unwrap();
//! assert_eq!(case10.area_nm2(), 102_400);
//! let target = case10.rasterize(256);
//! assert!(target.count_ones() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chip;
mod generator;

pub use chip::{generate_chip, ChipLayout};
pub use generator::generate_layout;

use cfaopc_grid::{fill_rect, BitGrid, Rect};
use std::fmt;

/// Pattern areas from the paper's Table 2, indexed by case number 1–10.
pub const PAPER_AREAS_NM2: [i64; 10] = [
    215_344, 169_280, 213_504, 82_560, 281_958, 286_234, 229_149, 128_544, 317_581, 102_400,
];

/// Physical tile edge of every benchmark case, in nanometres.
pub const TILE_NM: i32 = 2048;

/// Error type for layout construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Case number outside `1..=10`.
    UnknownCase(usize),
    /// A GLP line could not be parsed (line number, content).
    Parse(usize, String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::UnknownCase(n) => {
                write!(f, "unknown benchmark case {n} (expected 1..=10)")
            }
            LayoutError::Parse(line, text) => write!(f, "cannot parse GLP line {line}: {text:?}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// A rectilinear layout tile: named, with rectangles in nm coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Case name, e.g. `case3`.
    pub name: String,
    /// Non-overlapping rectangles in nanometre coordinates on the tile.
    pub rects: Vec<Rect>,
}

impl Layout {
    /// Creates a layout from rectangles (nm coordinates).
    pub fn new(name: impl Into<String>, rects: Vec<Rect>) -> Self {
        Layout {
            name: name.into(),
            rects,
        }
    }

    /// Total pattern area in nm² (rectangles are assumed disjoint —
    /// the shipped benchmarks are, and the unit tests verify it).
    pub fn area_nm2(&self) -> i64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// Rasterizes onto a `size × size` grid covering the full tile, so one
    /// pixel spans `TILE_NM / size` nm. Coordinates scale by `size/2048`
    /// with truncation; at `size = 2048` the raster area equals
    /// [`Layout::area_nm2`] exactly.
    pub fn rasterize(&self, size: usize) -> BitGrid {
        let mut mask = BitGrid::new(size, size);
        for r in &self.rects {
            fill_rect(&mut mask, r.scaled(size as i32, TILE_NM));
        }
        mask
    }

    /// Serializes to the GLP-like text format:
    /// one `RECT x0 y0 x1 y1` line per rectangle after a header.
    pub fn to_glp(&self) -> String {
        let mut out = format!("BEGIN {}\nTILE {TILE_NM}\n", self.name);
        for r in &self.rects {
            out.push_str(&format!("RECT {} {} {} {}\n", r.x0, r.y0, r.x1, r.y1));
        }
        out.push_str("END\n");
        out
    }

    /// Parses the GLP-like text format produced by [`Layout::to_glp`].
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Parse`] for malformed lines.
    pub fn from_glp(text: &str) -> Result<Layout, LayoutError> {
        let mut name = String::from("unnamed");
        let mut rects = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line == "END" {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next() {
                Some("BEGIN") => {
                    name = it.next().unwrap_or("unnamed").to_string();
                }
                Some("TILE") => {}
                Some("RECT") => {
                    let vals: Vec<i32> = it.filter_map(|t| t.parse().ok()).collect();
                    if vals.len() != 4 {
                        return Err(LayoutError::Parse(i + 1, line.to_string()));
                    }
                    rects.push(Rect::new(vals[0], vals[1], vals[2], vals[3]));
                }
                _ => return Err(LayoutError::Parse(i + 1, line.to_string())),
            }
        }
        Ok(Layout { name, rects })
    }
}

/// `(x, y, w, h)` helper for the case tables.
const fn r(x: i32, y: i32, w: i32, h: i32) -> Rect {
    // Rect::new normalizes, but these are already normalized; build
    // directly so the function can be const.
    Rect {
        x0: x,
        y0: y,
        x1: x + w,
        y1: y + h,
    }
}

/// Returns benchmark case `n` (1-based, matching the paper's Table 2).
///
/// # Errors
///
/// Returns [`LayoutError::UnknownCase`] when `n ∉ 1..=10`.
pub fn benchmark_case(n: usize) -> Result<Layout, LayoutError> {
    let rects: Vec<Rect> = match n {
        // Dense horizontal wire pair + routing block + via landing pad.
        1 => vec![
            r(300, 500, 1200, 80),
            r(300, 760, 1200, 80),
            r(300, 1020, 200, 100),
            r(700, 1032, 44, 76),
        ],
        // Vertical wire pair with a horizontal strap below.
        2 => vec![
            r(640, 300, 70, 900),
            r(940, 300, 70, 900),
            r(560, 1420, 541, 80),
        ],
        // Three-line dense array + block (the paper's hardest case).
        3 => vec![
            r(380, 600, 1100, 60),
            r(380, 800, 1100, 60),
            r(380, 1000, 1100, 60),
            r(860, 1240, 152, 102),
        ],
        // Sparse: one isolated wire + stub.
        4 => vec![r(500, 900, 800, 70), r(820, 1140, 332, 80)],
        // Four-line array + side block.
        5 => vec![
            r(420, 480, 1000, 60),
            r(420, 720, 1000, 60),
            r(420, 960, 1000, 60),
            r(420, 1200, 1000, 60),
            r(1550, 700, 162, 259),
        ],
        // Five-line array + two narrow vertical stubs.
        6 => vec![
            r(460, 400, 900, 60),
            r(460, 640, 900, 60),
            r(460, 880, 900, 60),
            r(460, 1120, 900, 60),
            r(460, 1360, 900, 60),
            r(1500, 500, 46, 87),
            r(1560, 900, 44, 278),
        ],
        // Four thin lines (50 nm!) + tall block.
        7 => vec![
            r(440, 560, 1000, 50),
            r(440, 810, 1000, 50),
            r(440, 1060, 1000, 50),
            r(440, 1310, 1000, 50),
            r(1600, 800, 103, 283),
        ],
        // Two wires with a landing pad between them.
        8 => vec![
            r(560, 760, 800, 70),
            r(560, 1100, 800, 70),
            r(940, 920, 176, 94),
        ],
        // Five-line array + square pad + small bar.
        9 => vec![
            r(400, 400, 1000, 60),
            r(400, 620, 1000, 60),
            r(400, 840, 1000, 60),
            r(400, 1060, 1000, 60),
            r(400, 1280, 1000, 60),
            r(1600, 560, 100, 100),
            r(1620, 1000, 57, 133),
        ],
        // One large centered square (matches the real ICCAD-13 case 10).
        10 => vec![r(864, 864, 320, 320)],
        other => return Err(LayoutError::UnknownCase(other)),
    };
    Ok(Layout::new(format!("case{n}"), rects))
}

/// All ten benchmark cases in order.
pub fn all_cases() -> Vec<Layout> {
    (1..=10)
        .map(|n| benchmark_case(n).expect("cases 1..=10 exist"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_match_table2_exactly() {
        for n in 1..=10 {
            let layout = benchmark_case(n).unwrap();
            assert_eq!(
                layout.area_nm2(),
                PAPER_AREAS_NM2[n - 1],
                "case {n} area mismatch"
            );
        }
    }

    #[test]
    fn rects_are_pairwise_disjoint() {
        for layout in all_cases() {
            for (i, a) in layout.rects.iter().enumerate() {
                for b in layout.rects.iter().skip(i + 1) {
                    assert!(
                        a.intersect(b).is_none(),
                        "{}: {a:?} overlaps {b:?}",
                        layout.name
                    );
                }
            }
        }
    }

    #[test]
    fn rects_fit_the_tile_with_litho_margin() {
        for layout in all_cases() {
            for rect in &layout.rects {
                assert!(rect.x0 >= 200 && rect.y0 >= 200, "{}", layout.name);
                assert!(
                    rect.x1 <= TILE_NM - 200 && rect.y1 <= TILE_NM - 200,
                    "{}: {rect:?} too close to the tile edge",
                    layout.name
                );
            }
        }
    }

    #[test]
    fn full_resolution_raster_area_is_exact() {
        for layout in all_cases() {
            let mask = layout.rasterize(2048);
            assert_eq!(
                mask.count_ones() as i64,
                layout.area_nm2(),
                "{}",
                layout.name
            );
        }
    }

    #[test]
    fn downsampled_raster_area_is_close() {
        for layout in all_cases() {
            let mask = layout.rasterize(512);
            let px_area = mask.count_ones() as i64 * 16; // (2048/512)² nm² per px
            let err = (px_area - layout.area_nm2()).abs() as f64 / layout.area_nm2() as f64;
            assert!(err < 0.12, "{}: {:.3} relative error", layout.name, err);
        }
    }

    #[test]
    fn glp_roundtrip() {
        for layout in all_cases() {
            let text = layout.to_glp();
            let back = Layout::from_glp(&text).unwrap();
            assert_eq!(back, layout);
        }
    }

    #[test]
    fn glp_rejects_garbage() {
        assert!(matches!(
            Layout::from_glp("RECT 1 2 3"),
            Err(LayoutError::Parse(1, _))
        ));
        assert!(matches!(
            Layout::from_glp("CIRCLE 1 2 3 4"),
            Err(LayoutError::Parse(1, _))
        ));
    }

    #[test]
    fn unknown_case_is_an_error() {
        assert!(matches!(
            benchmark_case(0),
            Err(LayoutError::UnknownCase(0))
        ));
        assert!(matches!(
            benchmark_case(11),
            Err(LayoutError::UnknownCase(11))
        ));
    }

    #[test]
    fn cases_are_distinct() {
        let cases = all_cases();
        for (i, a) in cases.iter().enumerate() {
            for b in cases.iter().skip(i + 1) {
                assert_ne!(a.rects, b.rects);
            }
        }
    }

    /// FNV-1a over every rectangle's four coordinates, in list order.
    fn rect_digest(rects: &[Rect]) -> u64 {
        let bytes = rects
            .iter()
            .flat_map(|r| [r.x0, r.y0, r.x1, r.y1].map(i32::to_le_bytes));
        bytes.flatten().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn seeded_generators_are_pinned() {
        // The generated tiles of the `tiny` (seed 7) and `small` (11, 17)
        // suites and the `chip-tiny` chip: their reports and goldens
        // depend on these exact rectangle lists.
        let mut pins: Vec<(usize, u64)> = [7, 11, 17]
            .into_iter()
            .map(|seed| generate_layout(seed).rects)
            .map(|rects| (rects.len(), rect_digest(&rects)))
            .collect();
        let chip = generate_chip(3, 4, 4);
        pins.push((chip.rects.len(), rect_digest(&chip.rects)));
        assert_eq!(
            pins,
            [
                (9, 0xe223_ff12_88d8_f7c7),
                (11, 0x0d6c_42a7_25c9_3d7d),
                (11, 0x91b3_077f_8146_7125),
                (192, 0xc347_fa4e_b5bf_b721),
            ]
        );
    }
}
