//! CircleOpt inner-loop benchmarks: the tiled parallel composition
//! engine against its retained serial reference, plus a full CircleOpt
//! iteration (compose → litho gradient → backward → Adam step) in both
//! the real pooled loop and the allocating serial form. Run with
//! `cargo bench -p cfaopc-bench --bench circleopt`.
//!
//! Grid/shot sizes follow the tentpole acceptance matrix: 512² and 1024²
//! with 100 and 1000 circles. The fused compose+backward path is timed
//! as its own case pair (`fused_serial_*` / `fused_engine_*`) — a single
//! closure running forward then backward — rather than summing the
//! medians of separately timed phases, which fabricates a ratio no run
//! ever achieved. Every case runs under `cfaopc_bench::snapshot`'s
//! policy (warm-up, 7 samples, topped up to 15 below 20 ms). Results are
//! written as a JSON snapshot (default `BENCH_circleopt.json`, override
//! with `CFAOPC_BENCH_CIRCLEOPT_OUT`) including serial-vs-engine speedup
//! ratios computed from both medians (`speedup`) and minima
//! (`speedup_min`, the statistic the CI gate compares).
//!
//! The full-iteration cases need a lithography simulator; 512² runs by
//! default, the 1024² variant is opt-in via `CFAOPC_BENCH_FULL=1` to
//! keep CI smoke runs fast. The pooled case is `run_circleopt` itself,
//! warm-started from the circles (no stage 1), with a sink that stamps
//! the time and a counting global allocator's counters (local to this
//! binary) at every record: its samples are the times between
//! consecutive records after warm-up, under the same policy, and the
//! snapshot's `steady_state_net_bytes_per_iteration` and
//! `steady_state_transient_allocs_per_iteration` are the largest
//! per-iteration counter deltas of the same window at 512². The serial
//! case runs the same iteration allocating, with the loop's own compose
//! config, loss weights, γ and Adam step.
//!
//! After timing, a short tracing-enabled CircleOpt run emits a JSONL
//! telemetry artifact (per-iteration records, counters, span tree) next
//! to the perf snapshot: default `BENCH_circleopt_telemetry.jsonl`,
//! override with `CFAOPC_BENCH_CIRCLEOPT_TRACE_OUT`. The timed cases run
//! with tracing disabled, so the medians measure the untraced hot path.

use cfaopc_bench::snapshot::{
    needs_top_up, run_case, write_snapshot, CaseResult, TIMED_ITERS, TIMED_ITERS_FAST, WARMUP_ITERS,
};
use cfaopc_core::{
    compose_serial, run_circleopt, CircleOptConfig, CircleParams, ComposeConfig, ComposeWorkspace,
    RunCtx, SparseCircles,
};
use cfaopc_fft::parallel::{pool_thread_count, worker_count};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_ilt::Optimizer;
use cfaopc_litho::{loss_and_gradient, LithoConfig, LithoSimulator};
use cfaopc_trace::json::Json;
use cfaopc_trace::{IterationRecord, TelemetrySink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::time::Instant;

// --- allocation accounting -------------------------------------------------

struct CountingAlloc;

static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus relaxed counters; the
// counters have no effect on the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: forwards `layout` unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards the pointer/layout pair it was handed to
    // `System.dealloc` without modification.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Stamps the time and the allocation counters at every record into a
/// vector sized up front, so recording allocates nothing.
struct IterationClock {
    stamps: Vec<(Instant, isize, usize)>,
}

impl TelemetrySink for IterationClock {
    fn record(&mut self, _rec: &IterationRecord) {
        self.stamps.push((
            Instant::now(),
            NET_BYTES.load(Ordering::SeqCst),
            ALLOC_CALLS.load(Ordering::SeqCst),
        ));
    }
}

/// A speedup row derived from two *measured* cases — medians for the
/// human-facing table, minimums for the CI gate's noise-resistant view.
fn speedup(case: String, serial: &CaseResult, tiled: &CaseResult) -> Json {
    let ratio = |a: u128, b: u128| Json::Num((a as f64 / b.max(1) as f64 * 1e3).round() / 1e3);
    Json::Obj(vec![
        ("case".into(), Json::Str(case)),
        (
            "serial_median_ns".into(),
            Json::Num(serial.median_ns as f64),
        ),
        ("tiled_median_ns".into(), Json::Num(tiled.median_ns as f64)),
        ("speedup".into(), ratio(serial.median_ns, tiled.median_ns)),
        ("serial_min_ns".into(), Json::Num(serial.min_ns as f64)),
        ("tiled_min_ns".into(), Json::Num(tiled.min_ns as f64)),
        ("speedup_min".into(), ratio(serial.min_ns, tiled.min_ns)),
    ])
}

// --- deterministic workloads ----------------------------------------------

/// Low-discrepancy circle placement over the grid: fractional parts of
/// multiples of irrational constants, radii cycling 4..16 px, with a few
/// activations at or below 0 so pruning is part of the workload.
fn make_circles(n: usize, count: usize) -> SparseCircles {
    const PHI: f64 = 0.618_033_988_749_894_9;
    const PSI: f64 = 0.754_877_666_246_692_7;
    let span = n as f64 - 16.0;
    SparseCircles {
        circles: (0..count)
            .map(|i| {
                let x = 8.0 + ((i as f64 * PHI) % 1.0) * span;
                let y = 8.0 + ((i as f64 * PSI) % 1.0) * span;
                let r = 4.0 + ((i * 7) % 13) as f64;
                let q = match i % 7 {
                    0 => -0.3,
                    1 => 0.4,
                    _ => 1.0,
                };
                CircleParams { x, y, r, q }
            })
            .collect(),
    }
}

fn compose_cfg(n: usize) -> ComposeConfig {
    ComposeConfig::new(n, 2, 20)
}

fn main() {
    let mut results: Vec<CaseResult> = Vec::new();
    let mut speedups: Vec<Json> = Vec::new();
    println!(
        "cfaopc circleopt benchmarks: {} workers ({} pool threads)\n",
        worker_count(),
        pool_thread_count(),
    );

    // Compose + backward: serial reference vs tiled parallel engine.
    for &(n, count) in &[(512usize, 100usize), (512, 1000), (1024, 100), (1024, 1000)] {
        let sparse = make_circles(n, count);
        let cfg = compose_cfg(n);
        let grad = Grid2D::new(n, n, 0.01);

        let serial_compose = run_case(format!("compose_serial_{n}_{count}c"), || {
            black_box(compose_serial(&sparse, &cfg));
        });
        let mut ws = ComposeWorkspace::new();
        let tiled_compose = run_case(format!("compose_tiled_{n}_{count}c"), || {
            ws.compose(&sparse, &cfg);
            black_box(ws.mask());
        });
        speedups.push(speedup(
            format!("compose_{n}_{count}c"),
            &serial_compose,
            &tiled_compose,
        ));

        let composite = compose_serial(&sparse, &cfg);
        let serial_backward = run_case(format!("backward_serial_{n}_{count}c"), || {
            black_box(composite.backward_serial(&grad));
        });
        let mut grads = Vec::new();
        let tiled_backward = run_case(format!("backward_fused_{n}_{count}c"), || {
            ws.backward_into(&grad, &mut grads);
            black_box(grads.len());
        });
        speedups.push(speedup(
            format!("backward_{n}_{count}c"),
            &serial_backward,
            &tiled_backward,
        ));

        // The acceptance metric: compose + backward as one *timed* run
        // each — summing the medians of the two separately timed phases
        // misstates the pipeline cost (cache-warm effects), so the fused
        // cases below are measured end to end.
        let fused_serial = run_case(format!("fused_serial_{n}_{count}c"), || {
            let composite = compose_serial(&sparse, &cfg);
            black_box(composite.backward_serial(&grad));
        });
        let fused_engine = run_case(format!("fused_engine_{n}_{count}c"), || {
            ws.compose(&sparse, &cfg);
            ws.backward_into(&grad, &mut grads);
            black_box(grads.len());
        });
        speedups.push(speedup(
            format!("compose+backward_{n}_{count}c"),
            &fused_serial,
            &fused_engine,
        ));
        results.extend([
            serial_compose,
            tiled_compose,
            serial_backward,
            tiled_backward,
            fused_serial,
            fused_engine,
        ]);
    }

    // Full CircleOpt iterations: allocating serial form vs the real
    // loop, plus the steady-state allocation profile.
    let full_sizes: &[usize] = if std::env::var("CFAOPC_BENCH_FULL").is_ok_and(|v| v == "1") {
        &[512, 1024]
    } else {
        &[512]
    };
    let mut steady_net_bytes: Option<isize> = None;
    let mut steady_allocs: Option<usize> = None;
    for &n in full_sizes {
        // 1000 circles at 512² (scaled with grid edge): the tentpole's
        // acceptance workload, where composition is a meaningful slice
        // of the iteration rather than measurement noise.
        let count = 1000 * n / 512;
        let sim = LithoSimulator::new(LithoConfig {
            size: n,
            kernel_count: 4,
            ..LithoConfig::default()
        })
        .unwrap();
        let mut target = BitGrid::new(n, n);
        let c = n as i32 / 2;
        fill_rect(&mut target, Rect::new(c - 40, c - 120, c + 40, c + 120));
        let target_real = target.to_real();
        let config = CircleOptConfig {
            circle_iterations: WARMUP_ITERS + TIMED_ITERS_FAST,
            ..CircleOptConfig::default()
        };
        let (r_min, r_max) = config.rule.radius_range_px(sim.config().pixel_nm());
        let cfg = ComposeConfig::new(n, r_min, r_max);
        let (weights, gamma) = (config.weights, config.gamma);
        let sparse = make_circles(n, count);

        // Serial/allocating: fresh compose, allocating gradient call,
        // allocating backward, over the loop's own compose config, loss
        // weights, γ and Adam step.
        let mut flat_s = sparse.to_flat();
        let mut optimizer_s = Optimizer::new(config.step, flat_s.len());
        let mut circles_s = sparse.clone();
        let serial = run_case(format!("iteration_serial_{n}_{count}c"), || {
            circles_s.set_from_flat(&flat_s);
            let composite = compose_serial(&circles_s, &cfg);
            let (_loss, grad_mask) =
                loss_and_gradient(&sim, &composite.mask, &target_real, weights).unwrap();
            let mut grads = composite.backward_serial(&grad_mask);
            for (i, p) in circles_s.circles.iter().enumerate() {
                grads[4 * i + 3] += gamma * p.q.signum() * if p.q == 0.0 { 0.0 } else { 1.0 };
            }
            optimizer_s.step(&mut flat_s, &grads);
            black_box(&flat_s);
        });

        // Pooled: `run_circleopt` itself from the same circles. Each
        // sample is the time from one record to the next, one whole
        // iteration of the real loop. The run is long enough for a
        // top-up; the policy decides how many samples count.
        let mut clock = IterationClock {
            stamps: Vec::with_capacity(config.circle_iterations),
        };
        let ctx = RunCtx {
            init: Some(sparse),
            sink: Some(&mut clock),
            cancel: None,
        };
        run_circleopt(&sim, &target, &config, ctx).unwrap();
        // Per iteration after warm-up: (time, net bytes, alloc calls).
        let mut deltas: Vec<_> = clock.stamps[WARMUP_ITERS - 1..]
            .windows(2)
            .map(|w| (w[1].0 - w[0].0, w[1].1 - w[0].1, w[1].2 - w[0].2))
            .collect();
        let first: Vec<u128> = deltas[..TIMED_ITERS]
            .iter()
            .map(|d| d.0.as_nanos())
            .collect();
        if !needs_top_up(&first) {
            deltas.truncate(TIMED_ITERS);
        }
        if n == 512 {
            steady_net_bytes = deltas.iter().map(|d| d.1).max();
            steady_allocs = deltas.iter().map(|d| d.2).max();
            println!(
                "steady-state iteration allocations: net {} bytes, {} transient alloc calls (largest per iteration)",
                steady_net_bytes.unwrap_or(0),
                steady_allocs.unwrap_or(0)
            );
        }
        let pooled = CaseResult::from_samples(
            format!("iteration_pooled_{n}_{count}c"),
            deltas.iter().map(|d| d.0.as_nanos()).collect(),
        );

        speedups.push(speedup(format!("iteration_{n}_{count}c"), &serial, &pooled));
        results.extend([serial, pooled]);
    }

    write_snapshot(
        "CFAOPC_BENCH_CIRCLEOPT_OUT",
        "BENCH_circleopt.json",
        vec![
            (
                "steady_state_net_bytes_per_iteration",
                steady_net_bytes.map_or(Json::Null, |v| Json::Num(v as f64)),
            ),
            (
                "steady_state_transient_allocs_per_iteration",
                steady_allocs.map_or(Json::Null, Json::int),
            ),
            ("speedups", Json::Arr(speedups)),
        ],
        &results,
    );

    write_telemetry_artifact();
}

/// A short tracing-enabled CircleOpt run, recorded as a JSONL telemetry
/// artifact alongside the perf snapshot. Runs *after* every timed case so
/// enabling the trace layer cannot perturb the medians.
fn write_telemetry_artifact() {
    let path = std::env::var("CFAOPC_BENCH_CIRCLEOPT_TRACE_OUT")
        .unwrap_or_else(|_| "BENCH_circleopt_telemetry.jsonl".to_string());
    let n = 256;
    let sim = LithoSimulator::new(LithoConfig {
        size: n,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap();
    let mut target = BitGrid::new(n, n);
    let c = n as i32 / 2;
    fill_rect(&mut target, Rect::new(c - 20, c - 60, c + 20, c + 60));
    let config = CircleOptConfig {
        init_iterations: 6,
        circle_iterations: 12,
        ..CircleOptConfig::default()
    };

    cfaopc_trace::reset();
    cfaopc_trace::set_enabled(true);
    let file = match std::fs::File::create(&path) {
        Ok(f) => std::io::BufWriter::new(f),
        Err(e) => {
            eprintln!("failed to create telemetry artifact {path}: {e}");
            return;
        }
    };
    let mut sink = cfaopc_trace::JsonlSink::new(file);
    let ctx = RunCtx {
        sink: Some(&mut sink),
        ..RunCtx::default()
    };
    let run = run_circleopt(&sim, &target, &config, ctx);
    let summary = sink.write_summary().and_then(|()| sink.flush());
    cfaopc_trace::set_enabled(false);
    match (run, summary) {
        (Ok(result), Ok(())) => println!(
            "telemetry artifact written to {path} ({} shots traced)",
            result.shot_count()
        ),
        (Err(e), _) => eprintln!("telemetry run failed: {e}"),
        (_, Err(e)) => eprintln!("failed to write telemetry artifact {path}: {e}"),
    }
}
