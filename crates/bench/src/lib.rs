//! Shared experiment harness for the table/figure binaries.
//!
//! Every binary (`table1`, `table2`, `table3`, `fig1`, `fig6`, `fig7`)
//! builds an [`Experiment`] from the environment and reuses the same
//! evaluation plumbing, so the numbers across tables are consistent.
//!
//! Environment knobs:
//!
//! * `CFAOPC_SIZE`  — grid edge in pixels (default 256; the paper's
//!   native scale is 2048 = 1 nm/px; 512 is a good fidelity/speed
//!   compromise),
//! * `CFAOPC_CASES` — comma-separated case subset (default all ten),
//! * `CFAOPC_ITERS` — pixel-ILT iterations per engine (default 30),
//! * `CFAOPC_KERNELS` — SOCS kernels per corner (default 8).
//!
//! A variable set to a value that does not parse (or a case outside
//! `1..=10`) stops the binary with an `error:` line naming the variable
//! and the value; an unset variable takes its default.
//!
//! Artifacts (CSV/SVG/PGM) are written under `target/experiments/`.
//!
//! The microbenchmarks (`benches/`) share [`snapshot`]: one timing
//! policy and one JSON snapshot writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;

use cfaopc_core::{run_circleopt, CircleOptConfig, CircleOptResult, RunCtx};
use cfaopc_fracture::{circle_rule, rect_shot_count, CircleRuleConfig, CircularMask};
use cfaopc_grid::{upsample_bilinear, BitGrid};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::{all_cases, benchmark_case, Layout};
use cfaopc_litho::{LithoConfig, LithoSimulator};
use cfaopc_metrics::{evaluate_mask, EpeConfig, MaskMetrics, MetricTable};
use std::ffi::OsString;
use std::path::PathBuf;

/// The shared experiment context.
pub struct Experiment {
    /// Lithography simulator at the experiment resolution.
    pub sim: LithoSimulator,
    /// Benchmark tiles to run.
    pub cases: Vec<Layout>,
    /// Pixel-ILT iterations for the baseline engines.
    pub ilt_iterations: usize,
    /// Artifact output directory.
    pub out_dir: PathBuf,
}

impl Experiment {
    /// Builds the context from `CFAOPC_*` environment variables (see the
    /// crate docs).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (bad grid size).
    pub fn from_env() -> Self {
        let size = env("CFAOPC_SIZE", 256, count);
        let kernels = env("CFAOPC_KERNELS", 8, count);
        let ilt_iterations = env("CFAOPC_ITERS", 30, count);
        let cases = env("CFAOPC_CASES", all_cases(), case_list);
        let config = LithoConfig {
            size,
            kernel_count: kernels,
            ..LithoConfig::default()
        };
        let sim = LithoSimulator::new(config).expect("valid litho configuration");
        let out_dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&out_dir).expect("create target/experiments");
        Experiment {
            sim,
            cases,
            ilt_iterations,
            out_dir,
        }
    }

    /// Grid edge in pixels.
    pub fn size(&self) -> usize {
        self.sim.size()
    }

    /// Pixel pitch in nm.
    pub fn pixel_nm(&self) -> f64 {
        self.sim.config().pixel_nm()
    }

    /// Rasterizes a layout at the experiment resolution.
    pub fn target(&self, layout: &Layout) -> BitGrid {
        layout.rasterize(self.size())
    }

    /// Runs a pixel-ILT engine and applies the writability clean-up
    /// before fracturing ([`CircleRuleConfig::writable_mask`]: a 1-px
    /// opening, then removal of regions smaller than the minimum writable
    /// circular shot, `R_min` = 12 nm). The paper's 1 nm/px masks are
    /// implicitly clean at our coarser pitch.
    pub fn pixel_mask(&self, engine: IltEngine, target: &BitGrid) -> BitGrid {
        let result =
            run_engine(&self.sim, target, engine, self.ilt_iterations).expect("engine run");
        CircleRuleConfig::default().writable_mask(&result.mask_binary, self.pixel_nm())
    }

    /// Evaluates a rasterized mask and attaches a shot count.
    pub fn eval(&self, mask: &BitGrid, target: &BitGrid, shots: usize) -> MaskMetrics {
        let mut m =
            evaluate_mask(&self.sim, mask, target, &EpeConfig::default()).expect("evaluation");
        m.shots = shots;
        m
    }

    /// Pixel mask → VSB metrics. The rectangle shot count is measured at
    /// the mask writer's native 1 nm/px resolution (see
    /// [`Experiment::native_rect_shots`]); L2/PVB/EPE are measured at the
    /// experiment resolution.
    pub fn eval_vsb(&self, pixel_mask: &BitGrid, target: &BitGrid) -> MaskMetrics {
        self.eval(pixel_mask, target, self.native_rect_shots(pixel_mask))
    }

    /// VSB rectangle count at the writer's native 1 nm/px grid.
    ///
    /// Rectangle counts scale with boundary-row counts, i.e. with
    /// resolution, so fracturing the coarse raster directly would
    /// understate VSB cost by `2048/size`. The coarse mask is bilinearly
    /// upsampled (reconstructing the smooth curvilinear boundary) and
    /// re-thresholded at 1 nm before rectangle decomposition. Circular
    /// shot counts need no such correction — they are resolution-
    /// invariant (one shot per circle regardless of the grid).
    pub fn native_rect_shots(&self, pixel_mask: &BitGrid) -> usize {
        let factor = (2048 / self.size()).max(1);
        if factor == 1 {
            return rect_shot_count(pixel_mask);
        }
        let fine = upsample_bilinear(&pixel_mask.to_real(), factor);
        rect_shot_count(&BitGrid::from_threshold(&fine, 0.5))
    }

    /// Pixel mask → CircleRule metrics and the fractured mask.
    pub fn eval_circle_rule(
        &self,
        pixel_mask: &BitGrid,
        target: &BitGrid,
        rule: &CircleRuleConfig,
    ) -> (MaskMetrics, CircularMask) {
        let circles = circle_rule(pixel_mask, rule, self.pixel_nm());
        let raster = circles.rasterize(self.size(), self.size());
        let metrics = self.eval(&raster, target, circles.shot_count());
        (metrics, circles)
    }

    /// CircleOpt configuration at the experiment resolution
    /// ([`CircleOptConfig::for_grid`]), with the iteration counts
    /// `cfaopc fracture` derives from `--iters`.
    pub fn circleopt_config(&self) -> CircleOptConfig {
        CircleOptConfig::for_grid(
            self.size(),
            self.ilt_iterations.div_ceil(2),
            self.ilt_iterations + 10,
        )
    }

    /// Runs CircleOpt and evaluates it.
    pub fn eval_circleopt(
        &self,
        target: &BitGrid,
        config: &CircleOptConfig,
    ) -> (MaskMetrics, CircleOptResult) {
        let result =
            run_circleopt(&self.sim, target, config, RunCtx::default()).expect("circleopt run");
        let metrics = self.eval(&result.mask_raster, target, result.shot_count());
        (metrics, result)
    }

    /// Writes a table's CSV artifact and prints it.
    pub fn emit(&self, file_stem: &str, table: &MetricTable) {
        print!("{table}");
        let path = self.out_dir.join(format!("{file_stem}.csv"));
        std::fs::write(&path, table.to_csv()).expect("write csv");
        println!("-> {}\n", path.display());
    }

    /// Artifact path helper.
    pub fn artifact(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// `key`'s value from the environment, parsed by `parse`; `default`
/// when unset. A value that does not parse exits with status 1.
fn env<T>(key: &str, default: T, parse: impl Fn(&str) -> Option<T>) -> T {
    parse_var(key, std::env::var_os(key), default, parse).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Parses `raw`, the value of the variable `key`: `default` when unset.
///
/// # Errors
///
/// Names the variable and the value when `parse` rejects it.
fn parse_var<T>(
    key: &str,
    raw: Option<OsString>,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let Some(raw) = raw else { return Ok(default) };
    let v = raw.to_string_lossy();
    parse(&v).ok_or_else(|| format!("{key}: invalid value {v:?}"))
}

fn count(v: &str) -> Option<usize> {
    v.trim().parse().ok()
}

/// A comma-separated list of benchmark case numbers (`1..=10`).
fn case_list(list: &str) -> Option<Vec<Layout>> {
    list.split(',')
        .map(|t| benchmark_case(count(t)?).ok())
        .collect()
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, exp: &Experiment) {
    println!(
        "### {what} — {0}x{0} px ({1} nm/px), {2} kernels/corner, {3} ILT iters, {4} cases",
        exp.size(),
        exp.pixel_nm(),
        exp.sim
            .kernel_set(cfaopc_litho::ProcessCorner::Nominal)
            .kernels()
            .len(),
        exp.ilt_iterations,
        exp.cases.len()
    );
    println!("### paper-native scale: CFAOPC_SIZE=2048 (1 nm/px); defaults favour wall-clock\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unparsable_values_name_the_variable_and_the_value() {
        assert_eq!(parse_var("CFAOPC_SIZE", None, 256, count), Ok(256));
        assert_eq!(
            parse_var("CFAOPC_SIZE", Some(" 64 ".into()), 256, count),
            Ok(64)
        );
        for (key, value) in [
            ("CFAOPC_SIZE", "64x"),
            ("CFAOPC_ITERS", "two"),
            ("CFAOPC_KERNELS", ""),
        ] {
            let parsed = parse_var(key, Some(value.into()), 0, count);
            assert_eq!(parsed, Err(format!("{key}: invalid value {value:?}")));
        }
        let names = |list: &str| {
            let parsed = parse_var("CFAOPC_CASES", Some(list.into()), Vec::new(), case_list);
            parsed.map(|c| c.into_iter().map(|l| l.name).collect::<Vec<_>>())
        };
        assert_eq!(names("3, 7"), Ok(vec!["case3".to_string(), "case7".into()]));
        for list in ["3,x", "3,11", ""] {
            assert_eq!(
                names(list),
                Err(format!("CFAOPC_CASES: invalid value {list:?}"))
            );
        }
    }
}
