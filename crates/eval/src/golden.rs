//! Golden-file comparison: per-metric drift detection with tolerances.
//!
//! `cfaopc eval --check eval/golden.json` runs the suite and calls
//! [`compare_reports`] against the blessed report. The harness itself is
//! bitwise deterministic on a given platform, so the tolerance exists
//! for one reason only: cross-platform libm differences (`sin`/`cos`
//! in the kernel stack can differ in the last ulp between glibc
//! versions), which after thresholding can shift a metric slightly.
//! Hence the acceptance rule per metric:
//!
//! ```text
//! |got − golden| ≤ abs_tol + rel_tol · |golden|
//! ```
//!
//! with defaults generous enough for a last-ulp upstream wiggle
//! (`rel = 0.02`, `abs = 0.5` — the absolute floor covers discrete
//! metrics like EPE and shot counts near zero) and strict enough to
//! catch real regressions, which move these metrics by whole percents.

use crate::harness::{EvalReport, MethodOutcome};
use std::fmt;

/// Per-metric acceptance band for golden comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative tolerance against the golden magnitude.
    pub rel: f64,
    /// Absolute tolerance floor (covers integer metrics near zero).
    pub abs: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            rel: 0.02,
            abs: 0.5,
        }
    }
}

impl Tolerance {
    /// The allowed absolute deviation for a golden value.
    pub fn allowed(&self, golden: f64) -> f64 {
        self.abs + self.rel * golden.abs()
    }
}

/// One metric that moved beyond tolerance (or a structural mismatch).
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Testcase name, or `"<report>"` for structural mismatches.
    pub case: String,
    /// `"rule"`, `"opt"`, or `"-"` for structural mismatches.
    pub method: String,
    /// Metric name (`l2`, `pvb`, `epe`, `shots`, `window`), or a
    /// description for structural mismatches.
    pub metric: String,
    /// Golden value.
    pub golden: f64,
    /// Measured value.
    pub got: f64,
    /// The acceptance band that was exceeded.
    pub allowed: f64,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<5} {:<8} golden {:>14.4}  got {:>14.4}  |drift| {:>12.4} > allowed {:.4}",
            self.case,
            self.method,
            self.metric,
            self.golden,
            self.got,
            (self.got - self.golden).abs(),
            self.allowed
        )
    }
}

impl Drift {
    /// A structural mismatch (suite, grid, case list), reported against
    /// `"<report>"` with no tolerance.
    pub fn structural(metric: impl Into<String>, golden: f64, got: f64) -> Drift {
        Drift {
            case: "<report>".into(),
            method: "-".into(),
            metric: metric.into(),
            golden,
            got,
            allowed: 0.0,
        }
    }
}

/// Appends a [`Drift`] for every `(metric, golden, got)` entry of
/// `case`'s `method` that moved beyond `tol`, in list order.
pub fn metric_drifts(
    case: &str,
    method: &str,
    metrics: &[(&str, f64, f64)],
    tol: &Tolerance,
    out: &mut Vec<Drift>,
) {
    for &(name, golden, got) in metrics {
        let allowed = tol.allowed(golden);
        if (got - golden).abs() > allowed {
            out.push(Drift {
                case: case.to_string(),
                method: method.to_string(),
                metric: name.to_string(),
                golden,
                got,
                allowed,
            });
        }
    }
}

fn method_drifts(
    case: &str,
    method: &str,
    golden: &MethodOutcome,
    got: &MethodOutcome,
    tol: &Tolerance,
    out: &mut Vec<Drift>,
) {
    let metrics = [
        ("l2", golden.l2, got.l2),
        ("pvb", golden.pvb, got.pvb),
        ("epe", golden.epe as f64, got.epe as f64),
        ("shots", golden.shots as f64, got.shots as f64),
        ("window", golden.window, got.window),
    ];
    metric_drifts(case, method, &metrics, tol, out);
}

/// Compares a freshly measured report against the golden one; an empty
/// result means "no drift". Structural mismatches (different suite,
/// grid, or case list) are reported as drifts too — a golden file for a
/// different suite must never silently pass.
pub fn compare_reports(golden: &EvalReport, got: &EvalReport, tol: &Tolerance) -> Vec<Drift> {
    let mut drifts = Vec::new();
    if golden.suite != got.suite {
        drifts.push(Drift::structural(
            format!("suite {:?} vs {:?}", golden.suite, got.suite),
            0.0,
            0.0,
        ));
    }
    if golden.size != got.size {
        drifts.push(Drift::structural(
            "size",
            golden.size as f64,
            got.size as f64,
        ));
    }
    if golden.kernel_count != got.kernel_count {
        drifts.push(Drift::structural(
            "kernel_count",
            golden.kernel_count as f64,
            got.kernel_count as f64,
        ));
    }
    if golden.cases.len() != got.cases.len() {
        drifts.push(Drift::structural(
            "case count",
            golden.cases.len() as f64,
            got.cases.len() as f64,
        ));
        return drifts;
    }
    for (g, m) in golden.cases.iter().zip(&got.cases) {
        if g.name != m.name {
            drifts.push(Drift::structural(
                format!("case {:?} vs {:?}", g.name, m.name),
                0.0,
                0.0,
            ));
            continue;
        }
        method_drifts(&g.name, "rule", &g.rule, &m.rule, tol, &mut drifts);
        method_drifts(&g.name, "opt", &g.opt, &m.opt, tol, &mut drifts);
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{CaseRecord, TelemetrySummary};

    fn outcome() -> MethodOutcome {
        MethodOutcome {
            l2: 1000.0,
            pvb: 2000.0,
            epe: 3,
            shots: 40,
            window: 0.5,
        }
    }

    fn report() -> EvalReport {
        EvalReport {
            suite: "tiny".into(),
            size: 64,
            kernel_count: 6,
            cases: vec![CaseRecord {
                name: "case4".into(),
                area_nm2: 1,
                rects: 1,
                rule: outcome(),
                opt: outcome(),
                telemetry: TelemetrySummary::default(),
                wall_ms: None,
            }],
        }
    }

    #[test]
    fn identical_reports_have_no_drift() {
        let r = report();
        assert!(compare_reports(&r, &r, &Tolerance::default()).is_empty());
    }

    #[test]
    fn drift_beyond_tolerance_is_reported_per_metric() {
        let golden = report();
        let mut got = report();
        got.cases[0].opt.l2 = 1100.0; // 10 % > 2 %
        got.cases[0].rule.epe = 4; // off by 1, allowed = 0.5 + 0.06
        let drifts = compare_reports(&golden, &got, &Tolerance::default());
        assert_eq!(drifts.len(), 2);
        assert_eq!(
            (drifts[0].case.as_str(), drifts[0].method.as_str()),
            ("case4", "rule")
        );
        assert_eq!(drifts[0].metric, "epe");
        assert_eq!(drifts[1].metric, "l2");
        assert!(drifts[1].to_string().contains("opt"));
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let golden = report();
        let mut got = report();
        got.cases[0].opt.l2 = 1015.0; // 1.5 % < 2 %
        got.cases[0].opt.shots = 40; // unchanged
        assert!(compare_reports(&golden, &got, &Tolerance::default()).is_empty());
    }

    #[test]
    fn structural_mismatches_fail() {
        let golden = report();
        let mut other_suite = report();
        other_suite.suite = "small".into();
        assert!(!compare_reports(&golden, &other_suite, &Tolerance::default()).is_empty());

        let mut extra_case = report();
        extra_case.cases.push(extra_case.cases[0].clone());
        assert!(!compare_reports(&golden, &extra_case, &Tolerance::default()).is_empty());

        let mut renamed = report();
        renamed.cases[0].name = "caseX".into();
        assert!(!compare_reports(&golden, &renamed, &Tolerance::default()).is_empty());
    }

    #[test]
    fn zero_tolerance_flags_any_change() {
        let golden = report();
        let mut got = report();
        got.cases[0].rule.window = 0.5 + 1e-9;
        let tol = Tolerance { rel: 0.0, abs: 0.0 };
        assert_eq!(compare_reports(&golden, &got, &tol).len(), 1);
    }
}
