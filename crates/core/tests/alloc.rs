//! Guard: the steady-state CircleOpt iteration (hard-max path) performs
//! **zero net heap growth** after warm-up.
//!
//! The iteration body below is the same sequence `run_circleopt_impl`
//! executes per step — compose into a reused [`ComposeWorkspace`],
//! pooled `loss_and_gradient_into`, `backward_into` a reused gradient
//! buffer, Lasso subgradient, Adam step — driven through the public API
//! so a counting global allocator can watch it. Transient allocations
//! that free within the iteration (parallel-region bookkeeping, the
//! adjoint's per-kernel contribution lists) net to zero; what this test
//! forbids is *growth*: any buffer allocated per iteration and kept, or
//! reallocated bigger each step, shows up as a positive byte delta.
//!
//! `backward_into` runs the fused compose+backward path (band-partial
//! scratch lives in the workspace), so this guard also pins the fused
//! sweep's steady state to zero growth once the partials buffer warms
//! up. The lib crates keep `unsafe` denied by default with narrow
//! per-site `// SAFETY:`-documented exemptions in the render/backward
//! kernels; the allocator shim here is unsafe and lives only in this
//! test binary.
//!
//! The byte counter is process-wide, so both composition paths run one
//! after the other inside a **single** test: the test harness gives every
//! test its own thread, and a second test running, starting up or shutting
//! down would allocate inside this one's measured window. Growth must be
//! zero at any `CFAOPC_THREADS` and under any scheduling: the thread pool
//! finishes starting its workers before the first region runs and frees
//! each region's bookkeeping before the region returns, and every region
//! whose tasks borrow pooled scratch reserves one buffer per thread it can
//! run, so no pool's high-water mark waits on the first time two workers
//! happen to overlap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use cfaopc_core::{CircleParams, ComposeConfig, ComposeWorkspace, SoftWorkspace, SparseCircles};
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_ilt::{Optimizer, OptimizerKind};
use cfaopc_litho::{loss_and_gradient_into, LithoConfig, LithoSimulator, LossWeights};
use cfaopc_trace::{grad_norms, IterationRecord, MemorySink, Stage, TelemetrySink};

/// Wraps the system allocator, tracking net live bytes.
struct CountingAlloc;

static NET_BYTES: AtomicIsize = AtomicIsize::new(0);

fn net_bytes() -> isize {
    NET_BYTES.load(Ordering::SeqCst)
}

// SAFETY: pure pass-through to `System` plus a relaxed byte counter; the
// counter has no effect on the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: forwards `layout` unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
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
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: usize = 3;
const MEASURED: usize = 6;

struct Fixture {
    sim: LithoSimulator,
    target_real: Grid2D<f64>,
    circles: SparseCircles,
    compose_cfg: ComposeConfig,
}

/// `size` 64 images on the full grid; at 128 the 2048 nm tile's 64² pupil
/// grid is smaller than the mask grid, so the per-kernel work runs on
/// pupil-grid buffers and the intensity and dL/dI are resampled.
fn fixture(size: usize) -> Fixture {
    let sim = LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap();
    let n = sim.size();
    let mut target = BitGrid::new(n, n);
    fill_rect(&mut target, Rect::new(24, 16, 40, 48));
    let target_real = target.to_real();

    // A spread of circles covering several tiles, some destined to go
    // negative under Lasso pressure (exercising the q-floor skip).
    let circles = SparseCircles {
        circles: (0..12)
            .map(|i| CircleParams {
                x: 12.0 + 4.0 * (i % 4) as f64,
                y: 14.0 + 11.0 * (i / 4) as f64,
                r: 4.0 + (i % 3) as f64,
                q: if i % 5 == 0 { 0.05 } else { 1.0 },
            })
            .collect(),
    };
    let compose_cfg = ComposeConfig::new(n, 2, 8);
    Fixture {
        sim,
        target_real,
        circles,
        compose_cfg,
    }
}

/// Records one telemetry iteration exactly as `run_circleopt_impl` does —
/// gradient norms plus a sink record — so the measurement covers the
/// tracing hot path, not just the numeric one.
fn record_iteration(sink: &mut MemorySink, it: usize, sparsity: f64, grads: &[f64]) {
    let (grad_l2, grad_linf) = grad_norms(grads);
    sink.record(&IterationRecord {
        stage: Stage::CircleOpt,
        iteration: it,
        loss_l2: 0.0,
        loss_pvb: 0.0,
        loss_total: 0.0,
        sparsity,
        active: 0,
        grad_l2,
        grad_linf,
    });
}

#[test]
fn steady_state_iterations_are_allocation_free() {
    // Tracing stays enabled for the whole binary: spans, counters, and
    // the sink all run inside the measured windows and must not allocate
    // once their nodes/buffers exist (warm-up covers first-touch).
    cfaopc_trace::set_enabled(true);
    for size in [64, 128] {
        hard_max_iteration_is_allocation_free(size);
        softmax_iteration_is_allocation_free(size);
    }
}

fn hard_max_iteration_is_allocation_free(size: usize) {
    let Fixture {
        sim,
        target_real,
        mut circles,
        compose_cfg,
    } = fixture(size);
    let n = sim.size();
    let weights = LossWeights::default();
    let gamma = 3.0;

    let mut flat = circles.to_flat();
    let mut optimizer = Optimizer::new(OptimizerKind::adam(0.1), flat.len());
    let mut ws = ComposeWorkspace::new();
    let mut grad_mask = Grid2D::new(n, n, 0.0);
    let mut grads: Vec<f64> = Vec::new();
    let mut sink = MemorySink::with_capacity(WARMUP + MEASURED);

    let mut baseline = 0isize;
    for it in 0..WARMUP + MEASURED {
        let _span = cfaopc_trace::span("alloc_test.hard_max_iter");
        circles.set_from_flat(&flat);
        ws.compose(&circles, &compose_cfg);
        let _loss =
            loss_and_gradient_into(&sim, ws.mask(), &target_real, weights, &mut grad_mask).unwrap();
        ws.backward_into(&grad_mask, &mut grads);
        let mut sparsity = 0.0;
        for (i, c) in circles.circles.iter().enumerate() {
            sparsity += c.q.abs();
            grads[4 * i + 3] += gamma * c.q.signum() * if c.q == 0.0 { 0.0 } else { 1.0 };
        }
        record_iteration(&mut sink, it, gamma * sparsity, &grads);
        optimizer.step(&mut flat, &grads);
        if it + 1 == WARMUP {
            baseline = net_bytes();
        }
    }
    let growth = net_bytes() - baseline;
    assert_eq!(
        growth, 0,
        "steady-state CircleOpt iterations at {size} px grew the heap by {growth} bytes over {MEASURED} iterations"
    );
    assert_eq!(sink.records().len(), WARMUP + MEASURED);
}

fn softmax_iteration_is_allocation_free(size: usize) {
    // Same guard for the softmax composition branch: the reused
    // `SoftWorkspace` (numerator/normalizer grids, tile buckets) plus
    // `backward_into` must reach zero net growth after warm-up, with the
    // telemetry path attached exactly as in the hard-max run.
    let Fixture {
        sim,
        target_real,
        mut circles,
        compose_cfg,
    } = fixture(size);
    let n = sim.size();
    let weights = LossWeights::default();
    let gamma = 3.0;
    let beta = 20.0;

    let mut flat = circles.to_flat();
    let mut optimizer = Optimizer::new(OptimizerKind::adam(0.1), flat.len());
    let mut soft_ws = SoftWorkspace::new();
    let mut grad_mask = Grid2D::new(n, n, 0.0);
    let mut grads: Vec<f64> = Vec::new();
    let mut sink = MemorySink::with_capacity(WARMUP + MEASURED);

    let mut baseline = 0isize;
    for it in 0..WARMUP + MEASURED {
        let _span = cfaopc_trace::span("alloc_test.softmax_iter");
        circles.set_from_flat(&flat);
        soft_ws.compose(&circles, &compose_cfg, beta);
        let _loss =
            loss_and_gradient_into(&sim, soft_ws.mask(), &target_real, weights, &mut grad_mask)
                .unwrap();
        soft_ws.backward_into(&grad_mask, &mut grads);
        let mut sparsity = 0.0;
        for (i, c) in circles.circles.iter().enumerate() {
            sparsity += c.q.abs();
            grads[4 * i + 3] += gamma * c.q.signum() * if c.q == 0.0 { 0.0 } else { 1.0 };
        }
        record_iteration(&mut sink, it, gamma * sparsity, &grads);
        optimizer.step(&mut flat, &grads);
        if it + 1 == WARMUP {
            baseline = net_bytes();
        }
    }
    let growth = net_bytes() - baseline;
    assert_eq!(
        growth, 0,
        "steady-state softmax iterations at {size} px grew the heap by {growth} bytes over {MEASURED} iterations"
    );
    assert_eq!(sink.records().len(), WARMUP + MEASURED);
}
