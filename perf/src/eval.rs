//! `eval_small` and `tile_large`: the evaluation harness entry point,
//! `cfaopc_eval::run_suite_timed`.
//!
//! Both run the same per-case pipeline (pixel ILT → CircleRule, and
//! CircleOpt, each scored with the paper metrics plus a focus–exposure
//! sweep). They differ in how the pool is used: `eval_small` runs many
//! short cases one per worker, `tile_large` runs one large case at a
//! time with every worker inside it.

use crate::common::{self, Outcome, PassCosts, Quality, RunConfig, Scale, SetupTimes};
use crate::ledger::{self, StageLedger, TimingSink, TraceRun};
use cfaopc_core::run_circleopt_traced;
use cfaopc_eval::{
    compare_reports, run_suite_timed, CaseRecord, CaseSource, EvalReport, MethodOutcome, SuiteSpec,
    TelemetrySummary, Tolerance,
};
use cfaopc_fft::parallel::{par_map, with_worker_limit, worker_count, worker_shares};
use cfaopc_fracture::circle_rule;
use cfaopc_grid::{BitGrid, Point};
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::{Layout, TILE_NM};
use cfaopc_litho::{bossung_surface, CdAxis, CdProbe, LithoError, LithoSimulator};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use cfaopc_trace::{span, Stage};
use std::time::Instant;

/// The committed golden report of the `small` suite.
const GOLDEN_SMALL: &str = include_str!("../../eval/golden.json");

/// What one eval-harness workload runs.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// Suites run back to back, one `run_suite_timed` call each, to make
    /// one pass.
    pub specs: Vec<SuiteSpec>,
    /// The untimed warm-up suite.
    pub warmup: SuiteSpec,
    /// A golden report the warm-up must match.
    pub golden: Option<&'static str>,
}

fn generated_tiles(seed: u64) -> [u64; 2] {
    if seed == 1 {
        // Seed 1 is the committed `small` suite, so its golden applies.
        [11, 17]
    } else {
        [common::derive_seed(seed, 0), common::derive_seed(seed, 1)]
    }
}

/// `eval_small`: the `small` suite shape (ten benchmark tiles plus two
/// seed-generated tiles at 128 px); at [`Scale::Small`] the `tiny`
/// suite with its generated tile drawn from the seed.
pub fn plan_eval_small(cfg: &RunConfig) -> EvalPlan {
    let [a, b] = generated_tiles(cfg.seed);
    let spec = match cfg.scale {
        Scale::Full => SuiteSpec {
            cases: (1..=10)
                .map(CaseSource::Benchmark)
                .chain([CaseSource::Generated(a), CaseSource::Generated(b)])
                .collect(),
            ..SuiteSpec::named("small").expect("built-in suite")
        },
        Scale::Small => SuiteSpec {
            cases: vec![CaseSource::Benchmark(4), CaseSource::Generated(a)],
            ..SuiteSpec::named("tiny").expect("built-in suite")
        },
    };
    EvalPlan {
        specs: vec![spec.clone()],
        warmup: spec,
        golden: (cfg.seed == 1 && cfg.scale == Scale::Full).then_some(GOLDEN_SMALL),
    }
}

/// `tile_large`: benchmark cases 3 and 8 and a seed-generated tile at
/// 256 px, one after the other with the whole pool inside each, at the small
/// suite's iteration budget; at [`Scale::Small`] the same at 64 px with
/// the tiny budget. A second benchmark tile keeps the cost from hanging
/// on the one generated layout, whose cost changes with the seed.
pub fn plan_tile_large(cfg: &RunConfig) -> EvalPlan {
    let base = match cfg.scale {
        Scale::Full => SuiteSpec {
            name: "tile_large".into(),
            size: 256,
            window_cd_tolerance: 0.15,
            cases: vec![],
            ..SuiteSpec::named("small").expect("built-in suite")
        },
        Scale::Small => SuiteSpec {
            name: "tile_large".into(),
            cases: vec![],
            ..SuiteSpec::named("tiny").expect("built-in suite")
        },
    };
    let one = |source| SuiteSpec {
        cases: vec![source],
        ..base.clone()
    };
    let generated = CaseSource::Generated(generated_tiles(cfg.seed)[0]);
    EvalPlan {
        specs: vec![
            one(CaseSource::Benchmark(3)),
            one(CaseSource::Benchmark(8)),
            one(generated),
        ],
        warmup: SuiteSpec {
            rule_iterations: 1,
            opt_init_iterations: 1,
            opt_circle_iterations: 1,
            ..one(CaseSource::Benchmark(3))
        },
        golden: None,
    }
}

/// Materialized inputs of one plan.
struct Inputs {
    /// Per spec: the case layouts.
    layouts: Vec<Vec<Layout>>,
}

/// Generates every layout and readies the optical setup on the first
/// one; returns the inputs and the simulator build time in seconds. The
/// harness builds its own simulator per case, so this one only prices
/// the set-up.
fn setup(plan: &EvalPlan) -> Result<(Inputs, f64), String> {
    let layouts = plan
        .specs
        .iter()
        .map(|s| {
            s.cases
                .iter()
                .map(CaseSource::layout)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let spec = &plan.specs[0];
    let first = layouts[0].first().ok_or("empty suite")?;
    let (_, build_s) =
        common::ready_optical_setup(&spec.litho_config(), &first.rasterize(spec.size))?;
    Ok((Inputs { layouts }, build_s))
}

fn strip_timing(report: &EvalReport) -> EvalReport {
    let mut r = report.clone();
    for c in &mut r.cases {
        c.wall_ms = None;
    }
    r
}

fn run_real(spec: &SuiteSpec) -> Result<EvalReport, String> {
    run_suite_timed(spec).map_err(|e| e.to_string())
}

/// Runs the warm-up and checks it against the golden report, if any.
fn warm_up(plan: &EvalPlan, out: &mut Outcome) -> Result<(), String> {
    let report = run_real(&plan.warmup)?;
    if let Some(text) = plan.golden {
        let golden = EvalReport::from_json_str(text)?;
        let drifts = compare_reports(&golden, &strip_timing(&report), &Tolerance::default());
        out.check(drifts.is_empty(), || {
            let lines: Vec<String> = drifts.iter().map(ToString::to_string).collect();
            format!("golden drift:\n{}", lines.join("\n"))
        });
    }
    Ok(())
}

/// Runs the workload described by `plan`.
///
/// # Errors
///
/// Returns a message when an input cannot be built or the harness fails.
pub fn run(plan: &EvalPlan, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let (inputs, build_s) = setups.repeat(|| setup(plan), |_| Ok(()))?;
    warm_up(plan, &mut out)?;
    if cfg.trace {
        trace(plan, &inputs, build_s, &mut out)?;
        return Ok(out);
    }

    let mut references: Vec<EvalReport> = Vec::new();
    // Every case's wall time in every pass; passes are whole, so every
    // case is counted equally often. The cost is sampled once a pass.
    let (mut latency, mut costs) = (Vec::new(), PassCosts::default());
    let start = Instant::now();
    for pass in 0.. {
        costs.start()?;
        let mut cases = 0;
        for (i, spec) in plan.specs.iter().enumerate() {
            let report = run_real(spec)?;
            cases += report.cases.len();
            latency.extend(
                report
                    .cases
                    .iter()
                    .filter_map(|c| c.wall_ms)
                    .map(|ms| ms / 1e3),
            );
            let stripped = strip_timing(&report);
            match references.get(i) {
                Some(reference) => out.check(*reference == stripped, || {
                    format!(
                        "pass {pass} of {} differs from its first pass",
                        stripped.suite
                    )
                }),
                None => references.push(stripped),
            }
        }
        out.attempted += cases;
        costs.end(cases)?;
        if common::since(start) >= cfg.seconds {
            break;
        }
    }
    out.metric("peak_rss_mb", common::peak_rss_mb()?);
    setups.repeat(|| setup(plan), |_| Ok(()))?;
    costs.record(&mut out, &setups, &latency)?;
    let mut quality = Quality::default();
    for ((spec, report), layouts) in plan.specs.iter().zip(&references).zip(&inputs.layouts) {
        let pixel_nm = f64::from(TILE_NM) / spec.size as f64;
        for ((case, layout), source) in report.cases.iter().zip(layouts).zip(&spec.cases) {
            if matches!(source, CaseSource::Benchmark(_)) {
                let target = layout.rasterize(spec.size);
                quality.add(case.opt.l2, case.opt.pvb, case.opt.shots, &target, pixel_nm);
            }
        }
    }
    quality.record(&mut out)?;
    Ok(out)
}

/// The traced run: the real entry point with tracing off and on, then a
/// replica pass with the benchmark's spans, then one case at every
/// worker and at one worker.
fn trace(plan: &EvalPlan, inputs: &Inputs, build_s: f64, out: &mut Outcome) -> Result<(), String> {
    let spec = &plan.specs[0];
    let layouts = &inputs.layouts[0];
    let overhead = ledger::measure_overhead(|_| run_real(spec).map(|r| strip_timing(&r)))?;
    let untraced = overhead.outputs[0].clone();
    out.check(overhead.outputs.iter().all(|r| *r == untraced), || {
        "traced and untraced reports differ".into()
    });

    let workers = worker_count();
    let concurrent = workers.min(layouts.len()).max(1);
    let shares = worker_shares(workers, concurrent);
    ledger::reset_trace(true);
    let (cases, replica_wall_s) = common::timed(|| {
        par_map(layouts.len(), |i| {
            with_worker_limit(shares[i % concurrent], || {
                common::timed(|| replica_case(spec, &layouts[i]))
            })
        })
    });
    let (spans, counters) = ledger::collect_trace();
    let mut stages = StageLedger::default();
    let mut records = Vec::with_capacity(cases.len());
    let mut item_busy_s = 0.0;
    for (i, (result, wall)) in cases.into_iter().enumerate() {
        let (record, ledger) = result.map_err(|e| format!("replica {}: {e}", layouts[i].name))?;
        records.push(record);
        stages.merge(ledger);
        item_busy_s += wall * shares[i % concurrent] as f64;
    }
    let replica = EvalReport {
        suite: spec.name.clone(),
        size: spec.size,
        kernel_count: spec.kernel_count,
        cases: records,
    };
    out.check(replica == untraced, || {
        "replica report differs from run_suite_timed".into()
    });

    let scaling = ledger::measure_scaling(workers, |limit| {
        with_worker_limit(limit, || replica_case(spec, &layouts[0]))
            .map(|(record, _)| record)
            .map_err(|e| e.to_string())
    })?;
    out.check(
        scaling.outputs.iter().all(|r| *r == scaling.outputs[0]),
        || "one-worker and all-worker case records differ".into(),
    );

    TraceRun {
        workers,
        share: shares[0],
        replica_wall_s,
        item_busy_s,
        spans,
        counters,
        stages,
        untraced_wall_s: overhead.untraced_wall_s,
        traced_wall_s: overhead.traced_wall_s,
        sim_build_ms: build_s * 1e3,
        parallel: scaling.parallel,
        serial: scaling.serial,
    }
    .record(out);
    Ok(())
}

/// `cfaopc_eval`'s per-case pipeline, call for call, with a span around
/// each layer call the program does not already trace.
fn replica_case(
    spec: &SuiteSpec,
    layout: &Layout,
) -> Result<(CaseRecord, StageLedger), LithoError> {
    let sim = {
        let _s = span("perf.sim_build");
        LithoSimulator::new(spec.litho_config())?
    };
    let n = sim.size();
    let pixel_nm = sim.config().pixel_nm();
    let target = layout.rasterize(n);
    let probe = window_probe(layout, n);

    let pixel = {
        let _s = span("perf.multires");
        run_engine(&sim, &target, IltEngine::MultiIltLike, spec.rule_iterations)?
    };
    let rule_mask = {
        let _s = span("perf.circle_rule");
        circle_rule(&pixel.mask_binary, &spec.circleopt_config().rule, pixel_nm)
    };
    let rule_raster = rule_mask.rasterize(n, n);
    let rule = score(
        spec,
        &sim,
        &rule_raster,
        &target,
        rule_mask.shot_count(),
        probe.as_ref(),
    )?;

    let mut sink = TimingSink::new(spec.opt_init_iterations + spec.opt_circle_iterations);
    let opt_result = run_circleopt_traced(&sim, &target, &spec.circleopt_config(), &mut sink)?;
    let mut stages = StageLedger::default();
    stages.add_run(
        &sink,
        sink.elapsed(),
        opt_result.circles.len(),
        opt_result.shot_count(),
    );
    let opt = score(
        spec,
        &sim,
        &opt_result.mask_raster,
        &target,
        opt_result.shot_count(),
        probe.as_ref(),
    )?;
    let record = CaseRecord {
        name: layout.name.clone(),
        area_nm2: layout.area_nm2(),
        rects: layout.rects.len(),
        rule,
        opt,
        telemetry: summarize(&sink),
        wall_ms: None,
    };
    Ok((record, stages))
}

fn score(
    spec: &SuiteSpec,
    sim: &LithoSimulator,
    raster: &BitGrid,
    target: &BitGrid,
    shots: usize,
    probe: Option<&(CdProbe, f64)>,
) -> Result<MethodOutcome, LithoError> {
    let _s = span("perf.score");
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

/// The harness's process-window probe: the centre of the largest
/// rectangle, measured across its short side.
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
        to_px((rect.x0 + rect.x1) / 2),
        to_px((rect.y0 + rect.y1) / 2),
    );
    let axis = if rect.width() <= rect.height() {
        CdAxis::Horizontal
    } else {
        CdAxis::Vertical
    };
    Some((
        CdProbe { at, axis },
        f64::from(rect.width().min(rect.height())),
    ))
}

/// The harness's condensed iteration telemetry.
fn summarize(sink: &TimingSink) -> TelemetrySummary {
    let mut s = TelemetrySummary::default();
    for rec in sink.records() {
        match rec.stage {
            Stage::PixelIlt => {
                if s.pixel_iterations == 0 {
                    s.pixel_loss_first = rec.loss_total;
                }
                s.pixel_iterations += 1;
                s.pixel_loss_last = rec.loss_total;
            }
            Stage::CircleOpt => {
                if s.circle_iterations == 0 {
                    s.circle_loss_first = rec.loss_total;
                }
                s.circle_iterations += 1;
                s.circle_loss_last = rec.loss_total;
                s.final_sparsity = rec.sparsity;
                s.final_active = rec.active;
            }
        }
    }
    s
}
