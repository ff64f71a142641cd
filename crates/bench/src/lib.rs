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
//! Artifacts (CSV/SVG/PGM) are written under `target/experiments/`.
//!
//! The microbenchmarks (`benches/`) share [`snapshot`]: one timing
//! policy and one JSON snapshot writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;

use cfaopc_core::{run_circleopt, scaled_gamma, CircleOptConfig, CircleOptResult, RunCtx};
use cfaopc_fracture::{circle_rule, rect_shot_count, CircleRuleConfig, CircularMask};
use cfaopc_grid::{
    disk_area, open, remove_small_regions, upsample_bilinear, BitGrid, Connectivity, Structuring,
};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::{all_cases, benchmark_case, Layout};
use cfaopc_litho::{LithoConfig, LithoSimulator};
use cfaopc_metrics::{evaluate_mask, EpeConfig, MaskMetrics, MetricTable};
use std::path::{Path, PathBuf};

/// The shared experiment context.
pub struct Experiment {
    /// Lithography simulator at the experiment resolution.
    pub sim: LithoSimulator,
    /// Benchmark tiles to run.
    pub cases: Vec<Layout>,
    /// EPE measurement parameters.
    pub epe: EpeConfig,
    /// Pixel-ILT iterations for the baseline engines.
    pub ilt_iterations: usize,
    /// Artifact output directory.
    pub out_dir: PathBuf,
}

impl Experiment {
    /// Builds the context from `CFAOPC_*` environment variables.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (bad grid size, unknown case).
    pub fn from_env() -> Self {
        let size = env_usize("CFAOPC_SIZE", 256);
        let kernels = env_usize("CFAOPC_KERNELS", 8);
        let ilt_iterations = env_usize("CFAOPC_ITERS", 30);
        let config = LithoConfig {
            size,
            kernel_count: kernels,
            ..LithoConfig::default()
        };
        let sim = LithoSimulator::new(config).expect("valid litho configuration");
        let cases = match std::env::var("CFAOPC_CASES") {
            Ok(list) => list
                .split(',')
                .map(|t| {
                    benchmark_case(t.trim().parse().expect("case number")).expect("case in 1..=10")
                })
                .collect(),
            Err(_) => all_cases(),
        };
        let out_dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&out_dir).expect("create target/experiments");
        Experiment {
            sim,
            cases,
            epe: EpeConfig::default(),
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

    /// Runs a pixel-ILT engine and applies mask-writability hygiene
    /// before fracturing: a 1-px morphological opening, then removal of
    /// connected regions smaller than the minimum writable circular shot
    /// (`R_min` = 12 nm) — such features cannot be manufactured on the
    /// circular writer and only inflate fracture counts. The paper's
    /// 1 nm/px masks are implicitly clean at our coarser pitch.
    pub fn pixel_mask(&self, engine: IltEngine, target: &BitGrid) -> BitGrid {
        let result =
            run_engine(&self.sim, target, engine, self.ilt_iterations).expect("engine run");
        let opened = open(&result.mask_binary, Structuring::Disk(1));
        let (r_min, _) = CircleRuleConfig::default().radius_range_px(self.pixel_nm());
        remove_small_regions(&opened, disk_area(r_min), Connectivity::Eight)
    }

    /// Evaluates a rasterized mask and attaches a shot count.
    pub fn eval(&self, mask: &BitGrid, target: &BitGrid, shots: usize) -> MaskMetrics {
        let mut m = evaluate_mask(&self.sim, mask, target, &self.epe).expect("evaluation");
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

    /// CircleOpt configuration tuned for the experiment resolution (`γ`
    /// rescaled by [`scaled_gamma`]).
    pub fn circleopt_config(&self) -> CircleOptConfig {
        CircleOptConfig {
            init_iterations: self.ilt_iterations.div_ceil(2),
            circle_iterations: self.ilt_iterations + 10,
            gamma: scaled_gamma(self.size()),
            ..CircleOptConfig::default()
        }
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

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
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

/// Convenience: does `path` exist already (artifacts reused across bins)?
pub fn exists(path: &Path) -> bool {
    path.exists()
}
