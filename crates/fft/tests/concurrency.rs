//! Worker-pool concurrency guarantees.
//!
//! A single umbrella test pins `CFAOPC_THREADS=4` before the pool
//! configuration is first consulted, so a real 4-worker pool is
//! exercised even on single-core CI machines, then checks every
//! guarantee sequentially in that known configuration. (Separate
//! `#[test]`s would race on the process-wide pool setup.)

use cfaopc_fft::parallel::{par_index_claim, pool_thread_count, with_worker_limit, worker_count};
use cfaopc_fft::{Complex, Fft2d};
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 64;

fn test_signal() -> Vec<Complex> {
    (0..N * N)
        .map(|i| {
            let x = i as f64;
            Complex::new(
                (x * 0.37).sin() + 0.25 * (x * 0.011).cos(),
                (x * 0.73).cos(),
            )
        })
        .collect()
}

fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

#[test]
fn pool_guarantees_with_forced_four_workers() {
    // Must run before anything touches the pool in this process.
    std::env::set_var("CFAOPC_THREADS", "4");
    assert_eq!(worker_count(), 4, "CFAOPC_THREADS must win at pool setup");

    serial_and_parallel_transforms_are_bit_identical();
    steady_state_spawns_no_new_threads();
    panics_cross_the_pool_boundary();
}

fn serial_and_parallel_transforms_are_bit_identical() {
    let plan = Fft2d::square(N).unwrap();
    let signal = test_signal();

    let mut parallel_fwd = signal.clone();
    plan.forward(&mut parallel_fwd).unwrap();
    let mut serial_fwd = signal.clone();
    plan.forward_serial(&mut serial_fwd).unwrap();
    assert_eq!(
        bits(&parallel_fwd),
        bits(&serial_fwd),
        "forward: pool vs forward_serial"
    );

    // A worker limit of 1 must reproduce the same bits through the
    // public parallel entry points.
    let mut limited_fwd = signal.clone();
    with_worker_limit(1, || plan.forward(&mut limited_fwd).unwrap());
    assert_eq!(
        bits(&parallel_fwd),
        bits(&limited_fwd),
        "forward: pool vs worker_limit(1)"
    );

    let mut parallel_inv = parallel_fwd.clone();
    plan.inverse(&mut parallel_inv).unwrap();
    let mut serial_inv = parallel_fwd.clone();
    plan.inverse_serial(&mut serial_inv).unwrap();
    assert_eq!(
        bits(&parallel_inv),
        bits(&serial_inv),
        "inverse: pool vs inverse_serial"
    );
    let mut limited_inv = parallel_fwd.clone();
    with_worker_limit(1, || plan.inverse(&mut limited_inv).unwrap());
    assert_eq!(
        bits(&parallel_inv),
        bits(&limited_inv),
        "inverse: pool vs worker_limit(1)"
    );
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

fn steady_state_spawns_no_new_threads() {
    let plan = Fft2d::square(N).unwrap();
    let mut buf = test_signal();
    // First parallel region: the pool is created here (lazily).
    plan.forward(&mut buf).unwrap();
    assert_eq!(
        pool_thread_count(),
        worker_count() - 1,
        "pool spawns workers minus the participating caller"
    );

    #[cfg(target_os = "linux")]
    let os_threads_before = process_thread_count();
    for _ in 0..20 {
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
    }
    assert_eq!(
        pool_thread_count(),
        worker_count() - 1,
        "steady-state transforms must reuse the pool"
    );
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_thread_count(),
        os_threads_before,
        "steady-state transforms must not change the process thread count"
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
