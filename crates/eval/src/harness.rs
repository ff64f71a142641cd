//! The sharded end-to-end evaluation harness.
//!
//! [`run_suite`] drives the full pipeline for every testcase of a
//! [`SuiteSpec`]: layout → pixel ILT → CircleRule (rule baseline) and
//! CircleOpt (the paper's method) → the four paper metrics plus a
//! process-window fraction.
//!
//! # Sharding model
//!
//! Testcases are independent, so the harness parallelizes at the
//! *testcase* level: one [`par_map_coarse`] region over the case list on
//! the persistent worker pool. Each case then runs its inner parallel
//! regions (FFTs, aerial images, tiled composition) under
//! `with_worker_limit` set to its share of the pool from
//! `worker_shares(workers, min(cases, workers))`, which distributes
//! the remainder instead of leaving workers idle: with 4 workers and 12
//! cases each case computes serially while 4 cases run concurrently;
//! with 4 workers and 3 cases the shares are `[2, 1, 1]` (the old
//! `workers / slots` split idled a worker); with 16 workers and 4 cases
//! each case gets 4-way inner parallelism. Shares are assigned by case
//! index (`shares[i % slots]`), not by claim order, so the schedule —
//! and therefore the report — is independent of thread timing.
//!
//! # Determinism
//!
//! The report is reproducible to the byte across runs *and across
//! `CFAOPC_THREADS` values**: `par_map_coarse` collects case records in index
//! order, every inner parallel path is bit-identical to its serial
//! execution (asserted by the fft/litho/core concurrency tests), and
//! wall-clock timing is excluded from the report unless explicitly
//! requested ([`run_suite_timed`]) — which is the one switch that
//! sacrifices byte-identity.

use crate::suite::{CaseSource, SuiteSpec};
use cfaopc_core::{run_circleopt, RunCtx};
use cfaopc_fft::parallel::par_map_coarse;
use cfaopc_fracture::circle_rule;
use cfaopc_grid::{BitGrid, Point};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::{Layout, LayoutError, TILE_NM};
use cfaopc_litho::{bossung_surface, CdAxis, CdProbe, LithoError, LithoSimulator};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use cfaopc_trace::{MemorySink, Stage};
use std::fmt;
use std::time::Instant;

/// Errors from an evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A testcase layout could not be materialized.
    Layout(LayoutError),
    /// The simulator or an optimizer failed (named case for context).
    Litho {
        /// The testcase that failed.
        case: String,
        /// The underlying error.
        error: LithoError,
    },
    /// Anything else (report parsing, golden comparison I/O).
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Layout(e) => write!(f, "layout error: {e}"),
            EvalError::Litho { case, error } => write!(f, "case {case}: {error}"),
            EvalError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<LayoutError> for EvalError {
    fn from(e: LayoutError) -> Self {
        EvalError::Layout(e)
    }
}

/// The paper's four metrics plus the process-window fraction, for one
/// method on one case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodOutcome {
    /// Squared L2 of the nominal print vs the target, nm².
    pub l2: f64,
    /// Process-variation band, nm².
    pub pvb: f64,
    /// EPE violation count.
    pub epe: usize,
    /// Circular shot count.
    pub shots: usize,
    /// Fraction of the swept focus–exposure grid with CD in tolerance.
    pub window: f64,
}

/// Condensed per-case iteration telemetry from the CircleOpt run's
/// [`MemorySink`] records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetrySummary {
    /// Stage-1 (pixel init) iterations recorded.
    pub pixel_iterations: usize,
    /// First stage-1 total loss (0 when no iterations ran).
    pub pixel_loss_first: f64,
    /// Last stage-1 total loss.
    pub pixel_loss_last: f64,
    /// Stage-2 (circle-level) iterations recorded.
    pub circle_iterations: usize,
    /// First stage-2 total loss.
    pub circle_loss_first: f64,
    /// Last stage-2 total loss.
    pub circle_loss_last: f64,
    /// Final Lasso sparsity penalty.
    pub final_sparsity: f64,
    /// Active circles after the final iteration.
    pub final_active: usize,
}

/// Everything the harness measures for one testcase.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseRecord {
    /// Case name (`case3`, `random11`, …).
    pub name: String,
    /// Total pattern area in nm².
    pub area_nm2: i64,
    /// Rectangle count of the layout.
    pub rects: usize,
    /// MultiILT + CircleRule (the rule-based baseline).
    pub rule: MethodOutcome,
    /// CircleOpt (the paper's optimization-based method).
    pub opt: MethodOutcome,
    /// CircleOpt iteration telemetry.
    pub telemetry: TelemetrySummary,
    /// Wall time for the whole case in milliseconds; `None` in
    /// deterministic (default) mode.
    pub wall_ms: Option<f64>,
}

/// One full evaluation run: the suite identity plus per-case records in
/// suite order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Suite name.
    pub suite: String,
    /// Grid edge in pixels.
    pub size: usize,
    /// Kernels per corner.
    pub kernel_count: usize,
    /// Per-case records, in the suite's case order.
    pub cases: Vec<CaseRecord>,
}

impl EvalReport {
    /// Arithmetic means of a metric over all cases for (rule, opt).
    pub fn mean(&self, metric: impl Fn(&MethodOutcome) -> f64) -> (f64, f64) {
        if self.cases.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.cases.len() as f64;
        let rule = self.cases.iter().map(|c| metric(&c.rule)).sum::<f64>() / n;
        let opt = self.cases.iter().map(|c| metric(&c.opt)).sum::<f64>() / n;
        (rule, opt)
    }
}

/// Runs `spec` sharded across the worker pool, without timing — the
/// deterministic mode whose `RESULTS.json` is byte-identical across
/// runs and thread counts.
///
/// # Errors
///
/// Returns the first [`EvalError`] any case produced (cases are still
/// all attempted; error selection follows suite order, so it is
/// deterministic too).
pub fn run_suite(spec: &SuiteSpec) -> Result<EvalReport, EvalError> {
    run_suite_impl(spec, false)
}

/// [`run_suite`] with per-case wall-clock timing recorded in
/// [`CaseRecord::wall_ms`]. Timing is inherently nondeterministic, so
/// reports produced this way are not byte-stable.
///
/// # Errors
///
/// As [`run_suite`].
pub fn run_suite_timed(spec: &SuiteSpec) -> Result<EvalReport, EvalError> {
    run_suite_impl(spec, true)
}

fn run_suite_impl(spec: &SuiteSpec, timing: bool) -> Result<EvalReport, EvalError> {
    let layouts: Vec<Layout> = spec
        .cases
        .iter()
        .map(CaseSource::layout)
        .collect::<Result<_, _>>()?;

    // Coarse-grained outer parallelism: whole testcases are claimed from
    // the pool; each one caps its inner regions at its share so nested
    // parallelism does not oversubscribe the pool.
    let results: Vec<Result<CaseRecord, EvalError>> =
        par_map_coarse(layouts.len(), |i| run_case(spec, &layouts[i], timing));

    let cases = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(EvalReport {
        suite: spec.name.clone(),
        size: spec.size,
        kernel_count: spec.kernel_count,
        cases,
    })
}

fn run_case(spec: &SuiteSpec, layout: &Layout, timing: bool) -> Result<CaseRecord, EvalError> {
    let started = Instant::now();
    let litho_err = |error: LithoError| EvalError::Litho {
        case: layout.name.clone(),
        error,
    };

    let sim = LithoSimulator::new(spec.litho_config()).map_err(litho_err)?;
    let n = sim.size();
    let pixel_nm = sim.config().pixel_nm();
    let target = layout.rasterize(n);
    let probe = window_probe(layout, n);

    // Rule-based baseline: MultiILT-like pixel ILT, then CircleRule.
    let pixel = run_engine(&sim, &target, IltEngine::MultiIltLike, spec.rule_iterations)
        .map_err(litho_err)?;
    let rule_mask = circle_rule(&pixel.mask_binary, &spec.circleopt_config().rule, pixel_nm);
    let rule_raster = rule_mask.rasterize(n, n);
    let rule = method_outcome(
        spec,
        &sim,
        &rule_raster,
        &target,
        rule_mask.shot_count(),
        probe.as_ref(),
    )
    .map_err(litho_err)?;

    // Optimization-based method: CircleOpt, with a memory sink capturing
    // one record per optimizer iteration.
    let mut sink = MemorySink::with_capacity(
        spec.opt_init_iterations + spec.opt_circle_iterations + spec.opt_circle_iterations / 2,
    );
    let ctx = RunCtx {
        sink: Some(&mut sink),
        ..RunCtx::default()
    };
    let opt_result =
        run_circleopt(&sim, &target, &spec.circleopt_config(), ctx).map_err(litho_err)?;
    let opt = method_outcome(
        spec,
        &sim,
        &opt_result.mask_raster,
        &target,
        opt_result.shot_count(),
        probe.as_ref(),
    )
    .map_err(litho_err)?;

    Ok(CaseRecord {
        name: layout.name.clone(),
        area_nm2: layout.area_nm2(),
        rects: layout.rects.len(),
        rule,
        opt,
        telemetry: summarize(&sink),
        wall_ms: timing.then(|| started.elapsed().as_secs_f64() * 1e3),
    })
}

fn method_outcome(
    spec: &SuiteSpec,
    sim: &LithoSimulator,
    raster: &BitGrid,
    target: &BitGrid,
    shots: usize,
    probe: Option<&(CdProbe, f64)>,
) -> Result<MethodOutcome, LithoError> {
    let metrics = evaluate_mask(sim, raster, target, &EpeConfig::default())?;
    let window = match probe {
        Some((probe, cd_target_nm)) => bossung_surface(
            sim,
            raster,
            probe,
            &spec.window_defocus_nm,
            &spec.window_doses,
        )?
        .window_fraction(*cd_target_nm, spec.window_cd_tolerance),
        None => 0.0,
    };
    Ok(MethodOutcome {
        l2: metrics.l2,
        pvb: metrics.pvb,
        epe: metrics.epe,
        shots,
        window,
    })
}

/// Picks the process-window probe for a layout: the centre of its
/// largest rectangle, measuring CD across the rectangle's short side.
/// Ties break on the lowest `(y0, x0)` so the choice is deterministic.
/// Returns `None` for an empty layout.
fn window_probe(layout: &Layout, size: usize) -> Option<(CdProbe, f64)> {
    let rect = layout.rects.iter().max_by_key(|r| {
        (
            i64::from(r.width()) * i64::from(r.height()),
            -i64::from(r.y0),
            -i64::from(r.x0),
        )
    })?;
    let to_px = |nm: i32| (i64::from(nm) * size as i64 / i64::from(TILE_NM)) as i32;
    let at = Point::new(
        to_px(midpoint(rect.x0, rect.x1)),
        to_px(midpoint(rect.y0, rect.y1)),
    );
    let axis = if rect.width() <= rect.height() {
        CdAxis::Horizontal
    } else {
        CdAxis::Vertical
    };
    let cd_target_nm = f64::from(rect.width().min(rect.height()));
    Some((CdProbe { at, axis }, cd_target_nm))
}

fn midpoint(a: i32, b: i32) -> i32 {
    (a + b) / 2
}

fn summarize(sink: &MemorySink) -> TelemetrySummary {
    let mut summary = TelemetrySummary::default();
    for rec in sink.records() {
        match rec.stage {
            Stage::PixelIlt => {
                if summary.pixel_iterations == 0 {
                    summary.pixel_loss_first = rec.loss_total;
                }
                summary.pixel_iterations += 1;
                summary.pixel_loss_last = rec.loss_total;
            }
            Stage::CircleOpt => {
                if summary.circle_iterations == 0 {
                    summary.circle_loss_first = rec.loss_total;
                }
                summary.circle_iterations += 1;
                summary.circle_loss_last = rec.loss_total;
                summary.final_sparsity = rec.sparsity;
                summary.final_active = rec.active;
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfaopc_grid::Rect;
    use cfaopc_trace::IterationRecord;

    #[test]
    fn probe_targets_the_largest_rect() {
        let layout = Layout::new(
            "t",
            vec![
                Rect::new(0, 0, 100, 100),
                Rect::new(200, 200, 300, 1000), // largest: 100 x 800
            ],
        );
        let (probe, cd) = window_probe(&layout, 256).unwrap();
        assert_eq!(cd, 100.0);
        assert_eq!(probe.axis, CdAxis::Horizontal);
        // Centre (250, 600) nm → (31, 75) px at 256 px / 2048 nm.
        assert_eq!(probe.at, Point::new(31, 75));
    }

    #[test]
    fn probe_of_wide_rect_measures_vertically() {
        let layout = Layout::new("t", vec![Rect::new(100, 100, 900, 180)]);
        let (probe, cd) = window_probe(&layout, 128).unwrap();
        assert_eq!(probe.axis, CdAxis::Vertical);
        assert_eq!(cd, 80.0);
    }

    #[test]
    fn probe_of_empty_layout_is_none() {
        assert!(window_probe(&Layout::new("e", vec![]), 64).is_none());
    }

    #[test]
    fn telemetry_summary_splits_stages() {
        let mut sink = MemorySink::new();
        let rec = |stage, iteration, loss_total, sparsity, active| IterationRecord {
            stage,
            iteration,
            loss_l2: 0.0,
            loss_pvb: 0.0,
            loss_total,
            sparsity,
            active,
            grad_l2: 0.0,
            grad_linf: 0.0,
        };
        use cfaopc_trace::TelemetrySink as _;
        sink.record(&rec(Stage::PixelIlt, 0, 10.0, 0.0, 5));
        sink.record(&rec(Stage::PixelIlt, 1, 8.0, 0.0, 5));
        sink.record(&rec(Stage::CircleOpt, 0, 6.0, 1.0, 4));
        sink.record(&rec(Stage::CircleOpt, 1, 5.0, 0.5, 3));
        let s = summarize(&sink);
        assert_eq!(s.pixel_iterations, 2);
        assert_eq!(s.pixel_loss_first, 10.0);
        assert_eq!(s.pixel_loss_last, 8.0);
        assert_eq!(s.circle_iterations, 2);
        assert_eq!(s.circle_loss_first, 6.0);
        assert_eq!(s.circle_loss_last, 5.0);
        assert_eq!(s.final_sparsity, 0.5);
        assert_eq!(s.final_active, 3);
    }

    #[test]
    fn report_means_average_both_methods() {
        let outcome = |l2| MethodOutcome {
            l2,
            pvb: 0.0,
            epe: 0,
            shots: 0,
            window: 0.0,
        };
        let case = |name: &str, rule_l2, opt_l2| CaseRecord {
            name: name.into(),
            area_nm2: 0,
            rects: 0,
            rule: outcome(rule_l2),
            opt: outcome(opt_l2),
            telemetry: TelemetrySummary::default(),
            wall_ms: None,
        };
        let report = EvalReport {
            suite: "t".into(),
            size: 64,
            kernel_count: 6,
            cases: vec![case("a", 10.0, 4.0), case("b", 20.0, 6.0)],
        };
        assert_eq!(report.mean(|m| m.l2), (15.0, 5.0));
        let empty = EvalReport {
            cases: vec![],
            ..report
        };
        assert_eq!(empty.mean(|m| m.l2), (0.0, 0.0));
    }
}
