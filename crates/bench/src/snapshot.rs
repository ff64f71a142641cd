//! The bench binaries' one timing policy and one snapshot writer
//! (`cargo bench -p cfaopc-bench`).
//!
//! Every case is warmed up with [`WARMUP_ITERS`] untimed calls, then
//! timed over [`TIMED_ITERS`] samples; a case whose median lands under
//! [`FAST_CASE_NS`] is topped up to [`TIMED_ITERS_FAST`] samples, because
//! sub-20 ms cases are noisy at 7 and the CI gate
//! (`scripts/check_bench.py`) compares `min_ns` while the printed table
//! is median-based. A snapshot is one pretty-printed JSON object:
//! `worker_count`, `pool_threads`, the bench's own fields, then `cases`
//! (`name`, `iters`, `min_ns`, `median_ns`, `mean_ns` each).

use cfaopc_fft::parallel::{pool_thread_count, worker_count};
use cfaopc_trace::json::Json;
use std::time::Instant;

/// Untimed calls before a case's samples.
pub const WARMUP_ITERS: usize = 2;
/// Samples per case.
pub const TIMED_ITERS: usize = 7;
/// Samples for a case whose median over [`TIMED_ITERS`] is under
/// [`FAST_CASE_NS`].
pub const TIMED_ITERS_FAST: usize = 15;
/// The median below which a case is topped up: 20 ms.
pub const FAST_CASE_NS: u128 = 20_000_000;

/// Timing summary of one case, in nanoseconds.
pub struct CaseResult {
    /// Case name, the key `scripts/check_bench.py` matches on.
    pub name: String,
    /// Number of samples.
    pub iters: usize,
    /// Fastest sample.
    pub min_ns: u128,
    /// Median sample.
    pub median_ns: u128,
    /// Mean sample.
    pub mean_ns: u128,
}

impl CaseResult {
    /// Summarizes `samples` (at least one, in nanoseconds) and prints
    /// the case's line.
    pub fn from_samples(name: impl Into<String>, mut samples: Vec<u128>) -> CaseResult {
        let name = name.into();
        samples.sort_unstable();
        let min_ns = samples[0];
        let median_ns = samples[samples.len() / 2];
        let mean_ns = samples.iter().sum::<u128>() / samples.len() as u128;
        println!(
            "{:<40} min {:>12.3} ms   median {:>12.3} ms   mean {:>12.3} ms   ({} iters)",
            name,
            min_ns as f64 / 1e6,
            median_ns as f64 / 1e6,
            mean_ns as f64 / 1e6,
            samples.len(),
        );
        CaseResult {
            name,
            iters: samples.len(),
            min_ns,
            median_ns,
            mean_ns,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("iters".into(), Json::int(self.iters)),
            ("min_ns".into(), Json::Num(self.min_ns as f64)),
            ("median_ns".into(), Json::Num(self.median_ns as f64)),
            ("mean_ns".into(), Json::Num(self.mean_ns as f64)),
        ])
    }
}

/// Times `f` under the module's policy (see the module docs).
pub fn run_case(name: impl Into<String>, mut f: impl FnMut()) -> CaseResult {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let mut sample = || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos()
    };
    let mut samples: Vec<u128> = (0..TIMED_ITERS).map(|_| sample()).collect();
    if needs_top_up(&samples) {
        samples.extend((TIMED_ITERS..TIMED_ITERS_FAST).map(|_| sample()));
    }
    CaseResult::from_samples(name, samples)
}

/// Whether a case's first [`TIMED_ITERS`] samples call for topping it
/// up to [`TIMED_ITERS_FAST`]: their median is under [`FAST_CASE_NS`].
pub fn needs_top_up(samples: &[u128]) -> bool {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2] < FAST_CASE_NS
}

/// Writes the snapshot of `results` with the bench's own `fields` to the
/// path in the environment variable `path_var` (default `default_path`)
/// and prints where it went.
pub fn write_snapshot(
    path_var: &str,
    default_path: &str,
    fields: Vec<(&str, Json)>,
    results: &[CaseResult],
) {
    let path = std::env::var(path_var).unwrap_or_else(|_| default_path.to_string());
    let mut doc = vec![
        ("worker_count".to_string(), Json::int(worker_count())),
        ("pool_threads".to_string(), Json::int(pool_thread_count())),
    ];
    doc.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    doc.push((
        "cases".to_string(),
        Json::Arr(results.iter().map(CaseResult::to_json).collect()),
    ));
    match std::fs::write(&path, Json::Obj(doc).to_string_pretty()) {
        Ok(()) => println!("\nperf snapshot written to {path}"),
        Err(e) => eprintln!("\nfailed to write perf snapshot: {e}"),
    }
}
