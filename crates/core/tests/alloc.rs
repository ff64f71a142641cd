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
//! free within the iteration (parallel-region bookkeeping and result
//! lists) net to zero; what this test forbids is
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
//! passes) and `DevelSetLike`'s (the level set's chunks). Its loop reuses its mask, gradient and blur buffers, so the
//! *gross* bytes one steady-state iteration allocates (what the simulator's
//! parallel regions allocate and free inside the call) are the same at
//! 128 and 256 px on a 2048 nm tile: a grid allocated per iteration would
//! scale with N². They are also the same at 128 px on a 4096 nm window,
//! whose kernels hold four times the bins: a per-bin list allocated per
//! call would scale with them.
//!
//! Scoring is held to the same rule: a steady-state `evaluate_mask`
//! (`print_corners`, then L2, PVB and EPE on the prints) allocates no
//! buffer of `N²` f64 or complex elements, at 64 and 256 px on a 2048 nm
//! tile and at 128 px on a 4096 nm window. Its band-packed spectrum and
//! pupil-grid intensities come from the simulator's pools and go back to
//! them; only the three printed bit grids are new.
//!
//! Below `S = N` no litho call needs a mask-grid grid of its own at all,
//! warm or cold: each stack task streams its intensity and dL/dI one row
//! pair at a time. On a fresh simulator at 256 px on a 2048 nm tile
//! (`S = 64`), whose pools are empty, the first `loss_and_gradient_into`,
//! `loss_only` and `evaluate_mask` allocate every buffer they use, and
//! none of them holds `N²` f64 (an intensity or dL/dI), `N²` complex (a
//! full spectrum) or `N × (N/2 + 1)` complex elements (a transform's full
//! half spectrum). Only the caller's mask, target and gradient are `N²`.
//! At `S = N` (128 px on a 4096 nm window) each pupil-grid field is an
//! `N²` complex buffer, and a fresh simulator's first
//! `loss_and_gradient_into` on one worker allocates at most `K + 1` of
//! them: the focus stacks run one after the other, each returning its
//! `K` fields before the next stack takes any.
//!
//! The byte counters are process-wide, so every run goes one after the
//! other on the main thread of a binary built without the test harness
//! (`harness = false` in `Cargo.toml`): libtest runs each test on a
//! thread of its own, and that thread's or the harness's allocations
//! (a second test running, or lazy set-up landing inside the first
//! window) would count against the code under test. Growth must be
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
use cfaopc_fft::parallel::with_worker_limit;
use cfaopc_grid::{fill_rect, BitGrid, Grid2D, Rect};
use cfaopc_ilt::{run_pixel_ilt, IltEngine};
use cfaopc_litho::{loss_and_gradient_into, loss_only, LithoConfig, LithoSimulator, LossWeights};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use cfaopc_trace::{IterationRecord, TelemetrySink};

/// Wraps the system allocator, tracking net live bytes and gross
/// allocated bytes.
struct CountingAlloc;

static NET_BYTES: AtomicIsize = AtomicIsize::new(0);
static GROSS_BYTES: AtomicUsize = AtomicUsize::new(0);
/// The edge `N` of the grid a window watches (`0` when none does), and
/// the allocations of a mask-grid buffer seen since, by kind ([`Grids`]).
static GRID_WATCH: AtomicUsize = AtomicUsize::new(0);
static GRID_ALLOCS: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

/// Mask-grid buffers allocated in a window: `N²` f64, `N²` complex and
/// `N × (N/2 + 1)` complex elements.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Grids {
    real: usize,
    complex: usize,
    half: usize,
}

impl Grids {
    fn total(self) -> usize {
        self.real + self.complex + self.half
    }
}

fn net_bytes() -> isize {
    NET_BYTES.load(Ordering::SeqCst)
}

fn gross_bytes() -> usize {
    GROSS_BYTES.load(Ordering::SeqCst)
}

fn count_alloc(size: usize) {
    NET_BYTES.fetch_add(size as isize, Ordering::SeqCst);
    GROSS_BYTES.fetch_add(size, Ordering::SeqCst);
    watch_grid(size);
}

fn watch_grid(size: usize) {
    let n = GRID_WATCH.load(Ordering::SeqCst);
    let (real, complex) = (8, 16);
    let grids = [n * n * real, n * n * complex, n * (n / 2 + 1) * complex];
    if let Some(kind) = grids.iter().position(|&bytes| n != 0 && bytes == size) {
        GRID_ALLOCS[kind].fetch_add(1, Ordering::SeqCst);
    }
}

/// The mask-grid buffers `f` allocates, watching an `n × n` grid.
fn grid_allocs(n: usize, f: impl FnOnce()) -> Grids {
    for count in &GRID_ALLOCS {
        count.store(0, Ordering::SeqCst);
    }
    GRID_WATCH.store(n, Ordering::SeqCst);
    f();
    GRID_WATCH.store(0, Ordering::SeqCst);
    let [real, complex, half] = GRID_ALLOCS
        .each_ref()
        .map(|count| count.load(Ordering::SeqCst));
    Grids {
        real,
        complex,
        half,
    }
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
        watch_grid(new_size);
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

/// `size` 64 images a 2048 nm tile on the full grid; at 128 the tile's
/// 64² pupil grid is smaller than the mask grid, so the per-kernel work
/// runs on pupil-grid buffers and the intensity and dL/dI are resampled.
/// A 4096 nm window at 128 px runs on the full grid again.
fn fixture(size: usize, tile_nm: f64) -> (LithoSimulator, BitGrid, SparseCircles) {
    let sim = LithoSimulator::new(LithoConfig {
        size,
        tile_nm,
        kernel_count: 4,
        ..LithoConfig::default()
    })
    .unwrap();
    let n = sim.size();
    let mut target = BitGrid::new(n, n);
    fill_rect(&mut target, Rect::new(24, 16, 40, 48));

    // A spread of circles covering several tiles, some destined to go
    // negative under Lasso pressure (exercising the `q ≤ 0` skip).
    let spread = (0..12).map(|i| CircleParams {
        x: 12.0 + 4.0 * (i % 4) as f64,
        y: 14.0 + 11.0 * (i / 4) as f64,
        r: 4.0 + (i % 3) as f64,
        q: if i % 5 == 0 { 0.05 } else { 1.0 },
    });
    // A cluster that comes back after warm-up: its activations start
    // below 0, so the hard-max passes skip it and the Lasso
    // subgradient is its only gradient. Adam's steps of about `step` =
    // 0.1 carry every `q` from −0.35 above 0 at the fourth step, inside
    // the measured window, and sixteen circles enter the tile bins at
    // once, past any count a bin held during warm-up.
    let revived = (0..16).map(|i| CircleParams {
        x: 44.0 + (i % 4) as f64,
        y: 44.0 + (i / 4) as f64,
        r: 4.0,
        q: -0.35,
    });
    let circles = SparseCircles {
        circles: spread.chain(revived).collect(),
    };
    (sim, target, circles)
}

fn main() {
    steady_state_iterations_are_allocation_free();
    println!("alloc guard: steady-state iterations are allocation-free");
}

fn steady_state_iterations_are_allocation_free() {
    // Tracing stays enabled for the whole binary: spans, counters, and
    // the sink all run inside the measured windows and must not allocate
    // once their nodes/buffers exist (warm-up covers first-touch).
    cfaopc_trace::set_enabled(true);
    for size in [64, 128] {
        for composition in [Composition::Max, Composition::Softmax { beta: 20.0 }] {
            let (sim, target, circles) = fixture(size, 2048.0);
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
    // of its last iteration at two grid sizes and two tile sizes.
    let shapes = [(128, 2048.0), (256, 2048.0), (128, 4096.0)];
    for engine in [
        IltEngine::Mosaic,
        IltEngine::MultiIltLike,
        IltEngine::NeuralIltLike,
        IltEngine::DevelSetLike,
    ] {
        let config = engine.config(ITERATIONS);
        let gross = shapes.map(|(size, tile_nm)| {
            let (sim, target, _) = fixture(size, tile_nm);
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
                "steady-state {engine:?} pixel iterations at {size} px on {tile_nm} nm grew the heap by {growth} bytes over {MEASURED} iterations"
            );
            probe.gross[ITERATIONS - 1] - probe.gross[ITERATIONS - 2]
        });
        for ((size, tile_nm), bytes) in shapes.iter().zip(gross).skip(1) {
            assert_eq!(
                gross[0], bytes,
                "one steady-state {engine:?} pixel iteration allocates {} B at 128 px on 2048 nm but {bytes} B at {size} px on {tile_nm} nm",
                gross[0]
            );
        }
    }

    // Scoring: the second `evaluate_mask` on one simulator, after the
    // first has filled its pools.
    for (size, tile_nm) in [(64, 2048.0), (256, 2048.0), (128, 4096.0)] {
        let (sim, target, _) = fixture(size, tile_nm);
        let score = || evaluate_mask(&sim, &target, &target, &EpeConfig::default()).unwrap();
        score();
        let grids = grid_allocs(size, || {
            score();
        })
        .total();
        assert_eq!(
            grids, 0,
            "a steady-state evaluate_mask at {size} px on {tile_nm} nm allocated {grids} mask-grid buffers"
        );
    }

    // Cold calls below `S = N`: each entry point's first call on a fresh
    // simulator, whose pools it fills.
    let size = 256;
    let fresh = || {
        let (sim, target, _) = fixture(size, 2048.0);
        assert!(sim.pupil_size() < size, "the grid must be resampled");
        let real = target.to_real();
        (sim, target, real)
    };
    let weights = LossWeights::default();
    let (sim, _, real) = fresh();
    let mut grad = Grid2D::new(size, size, 0.0);
    let gradient = grid_allocs(size, || {
        loss_and_gradient_into(&sim, &real, &real, weights, &mut grad).unwrap();
    });
    let (sim, _, real) = fresh();
    let loss = grid_allocs(size, || {
        loss_only(&sim, &real, &real, weights).unwrap();
    });
    let (sim, target, _) = fresh();
    let score = grid_allocs(size, || {
        evaluate_mask(&sim, &target, &target, &EpeConfig::default()).unwrap();
    });
    assert_eq!(
        [gradient, loss, score].map(Grids::total),
        [0, 0, 0],
        "the first loss_and_gradient_into, loss_only and evaluate_mask at {size} px on 2048 nm \
         allocated that many mask-grid buffers"
    );

    // A cold gradient at `S = N` (128 px on a 4096 nm window), where each
    // pupil-grid field is an `N²` complex buffer. On one worker the stack
    // tasks run one after the other and each returns its fields before
    // the next takes any, so the call allocates one stack's `K` fields and
    // one adjoint product: `K + 1`, not both stacks' `2K + 1`.
    let (sim, target, _) = fixture(128, 4096.0);
    assert_eq!(sim.pupil_size(), sim.size(), "the window runs at S = N");
    let kernels = sim.config().kernel_count;
    let real = target.to_real();
    let mut grad = Grid2D::new(128, 128, 0.0);
    let cold = with_worker_limit(1, || {
        grid_allocs(128, || {
            loss_and_gradient_into(&sim, &real, &real, weights, &mut grad).unwrap();
        })
    });
    assert!(
        cold.complex <= kernels + 1,
        "the first loss_and_gradient_into at 128 px on 4096 nm on one worker allocated \
         {} N² complex buffers; K + 1 = {}",
        cold.complex,
        kernels + 1
    );
}
