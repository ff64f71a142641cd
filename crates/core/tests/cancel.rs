//! Cancellation and teardown coverage under a forced 4-worker pool.
//!
//! A daemon's whole reuse story rests on one property: a run aborted
//! mid-flight — by a client cancel ([`LithoError::Cancelled`]) or by the
//! numerical-health guard ([`LithoError::NonFinite`]) — must leave the
//! worker pool and the simulator's cached kernel/FFT/buffer-pool state
//! exactly as reusable as a run that finished. One umbrella test pins
//! `CFAOPC_THREADS=4` before the pool is first consulted (separate
//! `#[test]`s would race on the process-wide pool setup), aborts runs
//! every way we support, and then demands a clean rerun on the *same*
//! simulator be bit-identical to the pristine reference.

use cfaopc_core::{run_circleopt, CircleOptConfig, RunCtx};
use cfaopc_fft::parallel::{pool_thread_count, worker_count};
use cfaopc_grid::{fill_rect, BitGrid, Rect};
use cfaopc_litho::{
    CancelToken, LithoConfig, LithoError, LithoSimulator, LossWeights, NonFiniteTerm,
};
use cfaopc_trace::{IterationRecord, MemorySink, TelemetrySink};

/// Sink that flips a [`CancelToken`] after `after` records — the
/// in-process analog of a client cancelling over the wire.
struct CancelAfter {
    token: CancelToken,
    after: usize,
    seen: usize,
}

impl TelemetrySink for CancelAfter {
    fn record(&mut self, _rec: &IterationRecord) {
        self.seen += 1;
        if self.seen == self.after {
            self.token.cancel();
        }
    }
}

fn bar_target(n: usize) -> BitGrid {
    let mut t = BitGrid::new(n, n);
    fill_rect(&mut t, Rect::new(61, 40, 67, 88));
    t
}

#[test]
fn aborted_runs_leave_pool_and_simulator_reusable() {
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    let sim = LithoSimulator::new(LithoConfig {
        size: 128,
        kernel_count: 6,
        ..LithoConfig::default()
    })
    .unwrap();
    let target = bar_target(sim.size());
    let cfg = CircleOptConfig {
        init_iterations: 4,
        circle_iterations: 8,
        ..CircleOptConfig::default()
    };

    // Pristine reference on the shared simulator; warms the pool.
    let mut ref_sink = MemorySink::new();
    let ctx = RunCtx {
        sink: Some(&mut ref_sink),
        ..RunCtx::default()
    };
    let reference = run_circleopt(&sim, &target, &cfg, ctx).unwrap();
    assert!(
        reference.shot_count() > 0,
        "reference run must do real work"
    );
    let threads_before = pool_thread_count();
    assert!(threads_before > 0, "forced pool must actually exist");

    // 1. Pre-cancelled token: observed at stage-1 iteration 0, before
    //    any simulation work.
    let token = CancelToken::new();
    token.cancel();
    let ctx = RunCtx {
        cancel: Some(&token),
        ..RunCtx::default()
    };
    match run_circleopt(&sim, &target, &cfg, ctx) {
        Err(LithoError::Cancelled { iteration }) => assert_eq!(iteration, 0),
        other => panic!("expected immediate Cancelled, got {other:?}"),
    }

    // 2. Mid-run client cancel: the sink cancels while handling the
    //    record of stage-2 iteration 1 (after 4 pixel + 2 circle
    //    records), so the loop top of iteration 2 must observe it.
    let token = CancelToken::new();
    let mut cancelling = CancelAfter {
        token: token.clone(),
        after: cfg.init_iterations + 2,
        seen: 0,
    };
    let ctx = RunCtx {
        init: None,
        sink: Some(&mut cancelling),
        cancel: Some(&token),
    };
    match run_circleopt(&sim, &target, &cfg, ctx) {
        Err(LithoError::Cancelled { iteration }) => {
            assert_eq!(iteration, 2, "cancel observed at the next iteration top")
        }
        other => panic!("expected mid-run Cancelled, got {other:?}"),
    }

    // 3. Typed health-guard abort mid-run: poisoned weights on a warm
    //    restart trip NonFinite in the circle stage.
    let bad = CircleOptConfig {
        weights: LossWeights {
            l2: f64::NAN,
            pvb: 1.0,
        },
        ..cfg.clone()
    };
    let ctx = RunCtx {
        init: Some(reference.circles.clone()),
        ..RunCtx::default()
    };
    match run_circleopt(&sim, &target, &bad, ctx) {
        Err(LithoError::NonFinite { iteration, term }) => {
            assert_eq!(iteration, 0);
            assert_eq!(term, NonFiniteTerm::LossTotal);
        }
        other => panic!("expected NonFinite abort, got {other:?}"),
    }

    // After all three aborts: same simulator, same pool, clean token —
    // the rerun must be bit-identical to the pristine reference, down to
    // the telemetry stream.
    let token = CancelToken::new();
    let mut rerun_sink = MemorySink::new();
    let ctx = RunCtx {
        init: None,
        sink: Some(&mut rerun_sink),
        cancel: Some(&token),
    };
    let rerun = run_circleopt(&sim, &target, &cfg, ctx).unwrap();
    assert_eq!(rerun.mask, reference.mask);
    assert_eq!(rerun.mask_raster, reference.mask_raster);
    assert_eq!(rerun.history.len(), reference.history.len());
    for (a, b) in rerun.history.iter().zip(&reference.history) {
        assert_eq!(a.loss.total.to_bits(), b.loss.total.to_bits());
        assert_eq!(a.sparsity.to_bits(), b.sparsity.to_bits());
        assert_eq!(a.active, b.active);
    }
    assert_eq!(rerun_sink.records(), ref_sink.records());

    // The aborts spawned no replacement threads and leaked no workers.
    assert_eq!(
        pool_thread_count(),
        threads_before,
        "aborts must not cost pool threads"
    );
}
