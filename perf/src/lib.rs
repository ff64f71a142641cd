//! `cfaopc-perf`: one end-to-end benchmark over the repository's real
//! entry points, with a per-layer ledger from a separate traced run.
//!
//! Each workload drives a public entry point — the eval harness, the
//! chip decomposition, the job daemon over loopback TCP — measures it
//! for a fixed time, checks its outputs, and reports the metrics named
//! in `BENCHMARK.json`. See `README.md` for the workloads, the metric
//! catalogue and how to compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod chip;
pub mod common;
pub mod compare;
pub mod cpu;
pub mod eval;
pub mod ledger;
pub mod serve;
pub mod speed;
pub mod stats;

pub use catalog::{Catalog, MetricDef};
pub use common::{Outcome, RunConfig, Scale};

/// Runs workload `name`.
///
/// # Errors
///
/// Returns a message for an unknown workload or a run that could not
/// produce its metrics.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "eval_small" => eval::run(&eval::plan_eval_small(cfg), cfg),
        "tile_large" => eval::run(&eval::plan_tile_large(cfg), cfg),
        "chip_small" => chip::run(cfg),
        "serve_mixed" => serve::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}
