//! Worker-pool concurrency guarantees.
//!
//! A single umbrella test pins `CFAOPC_THREADS=4` before the pool
//! configuration is first consulted, so a real 4-worker pool is
//! exercised even on single-core CI machines, then checks every
//! guarantee sequentially in that known configuration. (Separate
//! `#[test]`s would race on the process-wide pool setup.)

use cfaopc_fft::parallel::{
    coarse_share, par_index_claim, par_map, par_map_coarse, pool_thread_count, region_width,
    with_worker_limit, worker_count,
};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn pool_guarantees_with_forced_four_workers() {
    // Must run before anything touches the pool in this process.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    steady_state_spawns_no_new_threads();
    panics_cross_the_pool_boundary();
    coarse_tasks_split_their_callers_width();
}

/// Current thread count of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .expect("parsing /proc/self/status")
}

/// One `par_map` region and one `par_index_claim` region over `0..64`.
fn regions() {
    let squares = par_map(64, |i| i * i);
    assert_eq!(squares.iter().sum::<usize>(), (0..64).map(|i| i * i).sum());
    let hits = AtomicUsize::new(0);
    par_index_claim(64, 4, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 64);
}

fn steady_state_spawns_no_new_threads() {
    // First parallel region: the pool is created here (lazily).
    regions();
    assert_eq!(
        pool_thread_count(),
        worker_count() - 1,
        "pool spawns workers minus the participating caller"
    );

    #[cfg(target_os = "linux")]
    let os_threads_before = process_thread_count();
    for _ in 0..20 {
        regions();
    }
    assert_eq!(
        pool_thread_count(),
        worker_count() - 1,
        "steady-state regions must reuse the pool"
    );
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_thread_count(),
        os_threads_before,
        "steady-state regions must not change the process thread count"
    );
}

fn panics_cross_the_pool_boundary() {
    let result = std::panic::catch_unwind(|| {
        par_index_claim(256, 1, |i| {
            if i == 200 {
                panic!("worker panic escapes");
            }
        });
    });
    assert!(
        result.is_err(),
        "a panic on a pool worker must reach the caller"
    );

    // Every index of a fresh region still runs: the pool fully recovered.
    let hits = AtomicUsize::new(0);
    par_index_claim(256, 1, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 256);
}

/// `par_map_coarse` splits the width of the thread that opens it: a task
/// capped by `with_worker_limit` hands its coarse subtasks shares of its
/// own cap, never of the whole pool (the innermost limit wins, so a share
/// of the pool would raise the cap).
fn coarse_tasks_split_their_callers_width() {
    let widths = || par_map_coarse(2, |_| region_width(8));
    assert_eq!(widths(), vec![2, 2], "4 workers over two tasks");
    assert_eq!((coarse_share(2, 0), coarse_share(2, 1)), (2, 2));
    with_worker_limit(1, || {
        assert_eq!(widths(), vec![1, 1], "inside a 1-worker cap");
        assert_eq!((coarse_share(2, 0), coarse_share(2, 1)), (1, 1));
    });
    with_worker_limit(3, || {
        assert_eq!(widths(), vec![2, 1], "inside a 3-worker cap");
        assert_eq!((coarse_share(2, 0), coarse_share(2, 1)), (2, 1));
    });
}
