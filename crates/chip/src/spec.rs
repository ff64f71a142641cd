//! Chip suite definitions: which chips to run, at what scale.
//!
//! Like `cfaopc_eval::SuiteSpec`, a chip suite is fully self-contained —
//! chip layouts come from seeded generators or the deterministic
//! benchmark mosaic, and every solver knob is pinned here — so two runs
//! of the same suite perform identical work regardless of machine or
//! thread count.

use crate::geometry::ChipGeometry;
use cfaopc_core::{scaled_gamma, CircleOptConfig};
use cfaopc_layouts::{all_cases, generate_chip, ChipGeneratorConfig, ChipLayout, TILE_NM};
use cfaopc_litho::LithoConfig;

/// Where a chip's layout comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipSource {
    /// A seeded chip from `cfaopc_layouts::generate_chip` with the
    /// default chip-generator configuration (seam straddlers included).
    Generated {
        /// Generator seed.
        seed: u64,
        /// Tile columns.
        tiles_x: usize,
        /// Tile rows.
        tiles_y: usize,
    },
    /// The ten benchmark tiles cycled into a mosaic (no straddlers —
    /// exercises the pure-interior path).
    BenchmarkMosaic {
        /// Tile columns.
        tiles_x: usize,
        /// Tile rows.
        tiles_y: usize,
    },
}

impl ChipSource {
    /// Materializes the chip layout.
    pub fn chip(&self) -> ChipLayout {
        match self {
            ChipSource::Generated {
                seed,
                tiles_x,
                tiles_y,
            } => generate_chip(*seed, *tiles_x, *tiles_y, &ChipGeneratorConfig::default()),
            ChipSource::BenchmarkMosaic { tiles_x, tiles_y } => ChipLayout::from_tiles(
                format!("mosaic_{tiles_x}x{tiles_y}"),
                *tiles_x,
                *tiles_y,
                &all_cases(),
            ),
        }
    }
}

/// The full, self-contained definition of one chip-decomposition run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Suite name, recorded in `CHIP_RESULTS.json`.
    pub name: String,
    /// Owned tile edge in pixels; each tile simulates a `2·tile_px`
    /// window (power of two so the FFT stack applies).
    pub tile_px: usize,
    /// SOCS kernels per process corner.
    pub kernel_count: usize,
    /// Pixel-ILT iterations for the CircleRule baseline path.
    pub rule_iterations: usize,
    /// CircleOpt stage-1 (pixel init) iterations.
    pub opt_init_iterations: usize,
    /// CircleOpt stage-2 (circle-level) iterations.
    pub opt_circle_iterations: usize,
    /// The chips, in report order.
    pub chips: Vec<ChipSource>,
}

impl ChipSpec {
    /// Looks a suite up by name. `chip-tiny` is the CI-gated suite: a
    /// seeded 4×4 chip with forced seam straddlers plus a 2×2 benchmark
    /// mosaic, both at 32 px tiles (64 px windows).
    pub fn named(name: &str) -> Option<ChipSpec> {
        match name {
            "chip-tiny" => Some(ChipSpec {
                name: "chip-tiny".into(),
                tile_px: 32,
                kernel_count: 6,
                rule_iterations: 4,
                opt_init_iterations: 2,
                opt_circle_iterations: 4,
                chips: vec![
                    ChipSource::Generated {
                        seed: 3,
                        tiles_x: 4,
                        tiles_y: 4,
                    },
                    ChipSource::BenchmarkMosaic {
                        tiles_x: 2,
                        tiles_y: 2,
                    },
                ],
            }),
            "chip-small" => Some(ChipSpec {
                name: "chip-small".into(),
                tile_px: 64,
                kernel_count: 6,
                rule_iterations: 8,
                opt_init_iterations: 4,
                opt_circle_iterations: 12,
                chips: vec![
                    ChipSource::Generated {
                        seed: 3,
                        tiles_x: 4,
                        tiles_y: 4,
                    },
                    ChipSource::Generated {
                        seed: 11,
                        tiles_x: 6,
                        tiles_y: 4,
                    },
                    ChipSource::BenchmarkMosaic {
                        tiles_x: 3,
                        tiles_y: 3,
                    },
                ],
            }),
            _ => None,
        }
    }

    /// The names of the built-in chip suites, for CLI help.
    pub const NAMES: [&'static str; 2] = ["chip-tiny", "chip-small"];

    /// The decomposition geometry for one chip of this suite.
    pub fn geometry(&self, chip: &ChipLayout) -> ChipGeometry {
        ChipGeometry::new(chip.tiles_x, chip.tiles_y, self.tile_px)
    }

    /// The per-window lithography configuration: the window spans two
    /// tile pitches (`2 · TILE_NM` nm) at the same nm/px as the chip
    /// raster, so window simulations and chip metrics share one pitch.
    pub fn litho_config(&self) -> LithoConfig {
        LithoConfig {
            size: 2 * self.tile_px,
            tile_nm: 2.0 * f64::from(TILE_NM),
            kernel_count: self.kernel_count,
            ..LithoConfig::default()
        }
    }

    /// Chip-raster pixel pitch in nanometres.
    pub fn pixel_nm(&self) -> f64 {
        f64::from(TILE_NM) / self.tile_px as f64
    }

    /// The CircleOpt configuration, with the sparsity weight rescaled to
    /// the grid resolution exactly as `cfaopc_eval::SuiteSpec` does
    /// (`tile_px` pixels span one 2048 nm tile pitch).
    pub fn circleopt_config(&self) -> CircleOptConfig {
        CircleOptConfig {
            init_iterations: self.opt_init_iterations,
            circle_iterations: self.opt_circle_iterations,
            gamma: scaled_gamma(self.tile_px),
            // At chip pitches (TILE_NM / tile_px ≥ 32 nm/px) minimum
            // features span only 1–3 px, so the default 1-px morphological
            // opening of the init mask would erase them and CircleOpt
            // would seed no circles at all. The r_min region filter in
            // CircleRule still enforces writability.
            cleanup_init: false,
            ..CircleOptConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_suites_resolve_and_validate() {
        for name in ChipSpec::NAMES {
            let spec = ChipSpec::named(name).unwrap();
            assert_eq!(spec.name, name);
            assert!(!spec.chips.is_empty());
            spec.litho_config().validate().unwrap();
        }
        assert!(ChipSpec::named("nope").is_none());
    }

    #[test]
    fn tiny_suite_has_a_4x4_generated_chip() {
        let spec = ChipSpec::named("chip-tiny").unwrap();
        assert!(matches!(
            spec.chips[0],
            ChipSource::Generated {
                tiles_x: 4,
                tiles_y: 4,
                ..
            }
        ));
        let chip = spec.chips[0].chip();
        assert_eq!(chip.tile_count(), 16);
        assert!(chip.area_nm2() > 0);
    }

    #[test]
    fn window_pitch_matches_chip_pitch() {
        let spec = ChipSpec::named("chip-tiny").unwrap();
        let cfg = spec.litho_config();
        assert!((cfg.pixel_nm() - spec.pixel_nm()).abs() < 1e-12);
        assert_eq!(cfg.size, 64);
    }
}
