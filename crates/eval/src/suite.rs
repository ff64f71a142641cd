//! Suite definitions: which testcases to run, at what scale.
//!
//! A suite is fully determined by its spec — layouts come either from
//! the ten deterministic benchmark tiles or from the seeded random
//! generator, and every solver knob is pinned here — so two runs of the
//! same suite produce identical work regardless of machine or thread
//! count.

use cfaopc_core::CircleOptConfig;
use cfaopc_layouts::{benchmark_case, generate_layout, Layout, LayoutError};
use cfaopc_litho::LithoConfig;

/// Where a testcase's layout comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseSource {
    /// One of the ten ICCAD-style benchmark tiles (`1..=10`).
    Benchmark(usize),
    /// A seeded tile from `cfaopc_layouts::generate_layout`.
    Generated(u64),
}

impl CaseSource {
    /// Materializes the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] for an out-of-range benchmark case.
    pub fn layout(&self) -> Result<Layout, LayoutError> {
        match self {
            CaseSource::Benchmark(n) => benchmark_case(*n),
            CaseSource::Generated(seed) => Ok(generate_layout(*seed)),
        }
    }
}

/// The full, self-contained definition of one evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSpec {
    /// Suite name, recorded in `RESULTS.json`.
    pub name: String,
    /// Simulation grid edge in pixels (power of two).
    pub size: usize,
    /// SOCS kernels per process corner.
    pub kernel_count: usize,
    /// Pixel-ILT iterations for the CircleRule baseline path.
    pub rule_iterations: usize,
    /// CircleOpt stage-1 (pixel init) iterations.
    pub opt_init_iterations: usize,
    /// CircleOpt stage-2 (circle-level) iterations.
    pub opt_circle_iterations: usize,
    /// Focus values swept for the process-window metric (nm).
    pub window_defocus_nm: Vec<f64>,
    /// Dose values swept for the process-window metric.
    pub window_doses: Vec<f64>,
    /// Relative CD tolerance defining the process window. Suites widen
    /// this at coarser grids so the band spans at least one pixel of CD
    /// quantization (±10 % of a 96 nm wire is sub-pixel at 16 nm/px).
    pub window_cd_tolerance: f64,
    /// The testcases, in report order.
    pub cases: Vec<CaseSource>,
}

impl SuiteSpec {
    /// Looks a suite up by name: `tiny` (integration tests), `small`
    /// (the CI golden suite) or `paper` (experiment scale).
    pub fn named(name: &str) -> Option<SuiteSpec> {
        match name {
            "tiny" => Some(SuiteSpec {
                name: "tiny".into(),
                size: 64,
                kernel_count: 6,
                rule_iterations: 4,
                opt_init_iterations: 2,
                opt_circle_iterations: 4,
                window_defocus_nm: vec![0.0, 60.0],
                window_doses: vec![0.96, 1.0, 1.04],
                window_cd_tolerance: 0.40,
                cases: vec![CaseSource::Benchmark(4), CaseSource::Generated(7)],
            }),
            "small" => Some(SuiteSpec {
                name: "small".into(),
                size: 128,
                kernel_count: 6,
                rule_iterations: 8,
                opt_init_iterations: 4,
                opt_circle_iterations: 12,
                window_defocus_nm: vec![0.0, 50.0, 100.0],
                window_doses: vec![0.96, 1.0, 1.04],
                window_cd_tolerance: 0.25,
                cases: (1..=10)
                    .map(CaseSource::Benchmark)
                    .chain([CaseSource::Generated(11), CaseSource::Generated(17)])
                    .collect(),
            }),
            "paper" => Some(SuiteSpec {
                name: "paper".into(),
                size: 256,
                kernel_count: 8,
                rule_iterations: 30,
                opt_init_iterations: 15,
                opt_circle_iterations: 40,
                window_defocus_nm: vec![0.0, 50.0, 100.0],
                window_doses: vec![0.96, 1.0, 1.04],
                window_cd_tolerance: 0.15,
                cases: (1..=10).map(CaseSource::Benchmark).collect(),
            }),
            _ => None,
        }
    }

    /// The names of the built-in suites, for CLI help.
    pub const NAMES: [&'static str; 3] = ["tiny", "small", "paper"];

    /// The lithography configuration every case of the suite uses.
    pub fn litho_config(&self) -> LithoConfig {
        LithoConfig {
            size: self.size,
            kernel_count: self.kernel_count,
            ..LithoConfig::default()
        }
    }

    /// The CircleOpt configuration at the suite's grid
    /// ([`CircleOptConfig::for_grid`]).
    pub fn circleopt_config(&self) -> CircleOptConfig {
        CircleOptConfig::for_grid(
            self.size,
            self.opt_init_iterations,
            self.opt_circle_iterations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_suites_resolve() {
        for name in SuiteSpec::NAMES {
            let suite = SuiteSpec::named(name).unwrap();
            assert_eq!(suite.name, name);
            assert!(!suite.cases.is_empty());
            assert!(suite.size.is_power_of_two());
            suite.litho_config().validate().unwrap();
        }
        assert!(SuiteSpec::named("nope").is_none());
    }

    #[test]
    fn small_suite_is_the_benchmark_set_plus_seeded_tiles() {
        let suite = SuiteSpec::named("small").unwrap();
        assert_eq!(suite.cases.len(), 12);
        assert_eq!(suite.cases[0], CaseSource::Benchmark(1));
        assert!(matches!(suite.cases[10], CaseSource::Generated(_)));
    }

    #[test]
    fn sources_materialize_deterministically() {
        let a = CaseSource::Generated(11).layout().unwrap();
        let b = CaseSource::Generated(11).layout().unwrap();
        assert_eq!(a, b);
        assert!(CaseSource::Benchmark(3).layout().is_ok());
        assert!(CaseSource::Benchmark(11).layout().is_err());
    }

    #[test]
    fn gamma_rescales_with_grid() {
        let tiny = SuiteSpec::named("tiny").unwrap().circleopt_config();
        let paper = SuiteSpec::named("paper").unwrap().circleopt_config();
        assert!(tiny.gamma < paper.gamma);
        assert!((paper.gamma - 3.0 * (256.0f64 / 2048.0).powi(2)).abs() < 1e-12);
    }
}
