//! End-to-end evaluation harness for CFAOPC: benchmark suites, sharded
//! execution, deterministic `RESULTS.json` reports and golden-file
//! drift checks.
//!
//! This is the crate behind `cfaopc eval`. It is the first subsystem
//! that exercises every other crate end to end: layouts → pixel ILT →
//! CircleRule and CircleOpt → metrics (L2 / PVB / EPE / #Shot) plus a
//! process-window fraction, with per-case iteration telemetry captured
//! through `cfaopc-trace`.
//!
//! Three ideas organize the crate:
//!
//! * [`SuiteSpec`] pins *everything* that affects the numbers — the
//!   testcase list (benchmark tiles and seeded generator tiles), grid
//!   scale, solver iteration budgets, and the focus–exposure sweep — so
//!   a suite name fully determines the workload.
//! * [`run_suite`] shards whole testcases across the persistent worker
//!   pool (coarse outer parallelism; inner regions get their share via
//!   `with_worker_limit`) and produces an [`EvalReport`] that
//!   serializes to byte-identical JSON across runs and across
//!   `CFAOPC_THREADS` values.
//! * [`compare_reports`] diffs a fresh report against a blessed
//!   `golden.json` with per-metric tolerances, returning a drift list
//!   CI can fail on.
//!
//! # Examples
//!
//! ```no_run
//! use cfaopc_eval::{run_suite, SuiteSpec};
//!
//! let spec = SuiteSpec::named("small").expect("built-in suite");
//! let report = run_suite(&spec)?;
//! std::fs::write("RESULTS.json", report.to_json_string())?;
//! println!("{}", report.markdown_table());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod golden;
mod harness;
mod report;
mod suite;

pub use cfaopc_trace::json::{Json, JsonError};
pub use golden::{compare_reports, metric_drifts, Drift, Tolerance};
pub use harness::{
    run_suite, run_suite_timed, CaseRecord, EvalError, EvalReport, MethodOutcome, TelemetrySummary,
};
pub use report::SCHEMA;
pub use suite::{CaseSource, SuiteSpec};
