//! Guard: steady-state CircleOpt iterations, hard-max and softmax,
//! perform **zero net heap growth** after warm-up, and a steady-state
//! pixel-ILT iteration (CircleOpt's stage 1 and the baseline engines)
//! allocates no per-iteration grid.
//!
//! The guard drives the real loop: `run_circleopt` with a warm start (no
//! stage 1) and a sink whose `record` snapshots the net live bytes of a
//! counting global allocator into a preallocated array. Between the
//! record of the last warm-up iteration and the record of the last
//! measured one, the loop runs its whole body: compose into the reused
//! workspace, pooled `loss_and_gradient_into`, `backward_into` the reused
//! gradient buffer, the Lasso subgradient, the health guard's gradient
//! norms, the sink record and the Adam step. Transient allocations that
//! free within the iteration (parallel-region bookkeeping, the adjoint's
//! per-kernel contribution lists) net to zero; what this test forbids is
//! *growth*: any buffer allocated per iteration and kept, or reallocated
//! bigger each step, shows up as a positive byte delta.
//!
//! `backward_into` runs the fused compose+backward path (band-partial
//! scratch lives in the workspace), so this guard also pins the fused
//! sweep's steady state to zero growth once the partials buffer warms
//! up. The lib crates keep `unsafe` denied by default with narrow
//! per-site `// SAFETY:`-documented exemptions in the render/backward
//! kernels; the allocator shim here is unsafe and lives only in this
//! test binary.
//!
//! Stage 1 runs `run_pixel_ilt` the same way, with the `Mosaic`,
//! `MultiIltLike` and `NeuralIltLike` configs (0, 1 and 2 gradient-blur
//! passes). Its loop reuses its mask, gradient and blur buffers, so the
//! *gross* bytes one steady-state iteration allocates (what the simulator's
//! parallel regions allocate and free inside the call) are the same at
//! 128 and 256 px: a grid allocated per iteration would scale with N².
//!
//! The byte counters are process-wide, so every run goes one
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
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use cfaopc_core::{
    run_circleopt, CircleOptConfig, CircleParams, Composition, RunCtx, SparseCircles,
};
use cfaopc_grid::{fill_rect, BitGrid, Rect};
use cfaopc_ilt::{run_pixel_ilt, IltEngine};
use cfaopc_litho::{LithoConfig, LithoSimulator};
use cfaopc_trace::{IterationRecord, TelemetrySink};

/// Wraps the system allocator, tracking net live bytes and gross
/// allocated bytes.
struct CountingAlloc;

static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
static GROSS_BYTES: AtomicUsize = AtomicUsize::new(0);

fn net_bytes() -> isize {
    NET_BYTES.load(Ordering::SeqCst)
}

fn gross_bytes() -> usize {
    GROSS_BYTES.load(Ordering::SeqCst)
}

fn count_alloc(size: usize) {
    NET_BYTES.fetch_add(size as isize, Ordering::SeqCst);
    GROSS_BYTES.fetch_add(size, Ordering::SeqCst);
}

// SAFETY: pure pass-through to `System` plus relaxed byte counters; the
// counters have no effect on the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: forwards `layout` unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
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
        GROSS_BYTES.fetch_add(new_size, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: usize = 3;
const MEASURED: usize = 6;
const ITERATIONS: usize = WARMUP + MEASURED;

/// Snapshots the net live and gross allocated bytes at every record,
/// into arrays sized up front so that recording allocates nothing.
struct HeapProbe {
    net: [isize; ITERATIONS],
    gross: [usize; ITERATIONS],
    seen: usize,
}

impl HeapProbe {
    fn new() -> Self {
        HeapProbe {
            net: [0; ITERATIONS],
            gross: [0; ITERATIONS],
            seen: 0,
        }
    }
}

impl TelemetrySink for HeapProbe {
    fn record(&mut self, _rec: &IterationRecord) {
        self.net[self.seen] = net_bytes();
        self.gross[self.seen] = gross_bytes();
        self.seen += 1;
    }
}

/// `size` 64 images on the full grid; at 128 the 2048 nm tile's 64² pupil
/// grid is smaller than the mask grid, so the per-kernel work runs on
/// pupil-grid buffers and the intensity and dL/dI are resampled.
fn fixture(size: usize) -> (LithoSimulator, BitGrid, SparseCircles) {
    let sim = LithoSimulator::new(LithoConfig {
        size,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap();
    let n = sim.size();
    let mut target = BitGrid::new(n, n);
    fill_rect(&mut target, Rect::new(24, 16, 40, 48));

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
    (sim, target, circles)
}

#[test]
fn steady_state_iterations_are_allocation_free() {
    // Tracing stays enabled for the whole binary: spans, counters, and
    // the sink all run inside the measured windows and must not allocate
    // once their nodes/buffers exist (warm-up covers first-touch).
    cfaopc_trace::set_enabled(true);
    for size in [64, 128] {
        for composition in [Composition::Max, Composition::Softmax { beta: 20.0 }] {
            let (sim, target, circles) = fixture(size);
            let config = CircleOptConfig {
                circle_iterations: ITERATIONS,
                composition,
                ..CircleOptConfig::default()
            };
            let mut probe = HeapProbe::new();
            let ctx = RunCtx {
                init: Some(circles),
                sink: Some(&mut probe),
                cancel: None,
            };
            run_circleopt(&sim, &target, &config, ctx).unwrap();
            assert_eq!(probe.seen, ITERATIONS);
            let growth = probe.net[ITERATIONS - 1] - probe.net[WARMUP - 1];
            assert_eq!(
                growth, 0,
                "steady-state {composition:?} iterations at {size} px grew the heap by {growth} bytes over {MEASURED} iterations"
            );
        }
    }

    // Stage 1: the same window over `run_pixel_ilt`, and the gross bytes
    // of its last iteration at two grid sizes.
    for engine in [
        IltEngine::Mosaic,
        IltEngine::MultiIltLike,
        IltEngine::NeuralIltLike,
    ] {
        let config = engine.config(ITERATIONS);
        let gross = [128, 256].map(|size| {
            let (sim, target, _) = fixture(size);
            let mut probe = HeapProbe::new();
            let ctx = RunCtx {
                sink: Some(&mut probe),
                ..RunCtx::default()
            };
            run_pixel_ilt(&sim, &target, &config, ctx).unwrap();
            assert_eq!(probe.seen, ITERATIONS);
            let growth = probe.net[ITERATIONS - 1] - probe.net[WARMUP - 1];
            assert_eq!(
                growth, 0,
                "steady-state {engine:?} pixel iterations at {size} px grew the heap by {growth} bytes over {MEASURED} iterations"
            );
            probe.gross[ITERATIONS - 1] - probe.gross[ITERATIONS - 2]
        });
        assert_eq!(
            gross[0], gross[1],
            "one steady-state {engine:?} pixel iteration allocates {} B at 128 px but {} B at 256 px",
            gross[0], gross[1]
        );
    }
}
