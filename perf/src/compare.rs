//! `cfaopc-perf compare <parent.json>... -- <change.json>...`: judges a
//! change against its parent from `--out` records of untraced runs.
//!
//! For every workload and end-to-end metric it applies the rule of the
//! benchmark's design notes:
//!
//! * **gain** — at least [`MIN_PAIRS`] pairs, the change wins at least
//!   nine in ten pairs (ties count for neither side), and the medians
//!   differ by more than the parent's interquartile range;
//! * **unresolved** — the parent's own spread (IQR over median) is wider
//!   than the metric's bound, unless every change run beats every parent
//!   run (**better**);
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound in `BENCHMARK.json`;
//! * otherwise **same**.
//!
//! A workload whose change runs fail more output checks per run than
//! the parent's is **failed** in every metric, whatever the timings say.
//!
//! Runs pair up in the order given, so pass them in the order they
//! alternated.

use crate::catalog::{Catalog, MetricDef};
use crate::stats;
use cfaopc_eval::Json;

/// Schema tag of a `--out` record.
pub const SCHEMA: &str = "cfaopc-perf/1";

/// A gain needs at least this many parent/change pairs.
pub const MIN_PAIRS: usize = 10;

/// One run's end-to-end metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Failed output checks.
    pub failed: usize,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Parses a `--out` record.
    ///
    /// # Errors
    ///
    /// Returns a message for another schema, a traced run, or a missing
    /// field.
    pub fn parse(text: &str) -> Result<RunRecord, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} record"));
        }
        if doc.get("trace") == Some(&Json::Bool(true)) {
            return Err("a traced run has no end-to-end metrics".into());
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing \"workload\"")?
            .to_string();
        let failed = doc
            .get("result")
            .and_then(|r| r.get("failed"))
            .and_then(Json::as_usize)
            .ok_or("missing \"result.failed\"")?;
        let metrics = match doc.get("result").and_then(|r| r.get("metrics")) {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric {name} has no value"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing \"result.metrics\"".into()),
        };
        Ok(RunRecord {
            workload,
            failed,
            metrics,
        })
    }
}

/// The judgement for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairwise rule.
    Gain,
    /// Every change run beats every parent run, though the spread is
    /// wider than the bound.
    Better,
    /// Within the bound.
    Same,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
    /// The change fails more output checks per run than the parent.
    Failed,
    /// No runs on one side.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Failed => "FAILED",
            Verdict::Missing => "missing",
        }
    }

    /// Whether the verdict rejects the change.
    pub fn rejects(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Failed)
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Metric name.
    pub metric: String,
    /// Judgement.
    pub verdict: Verdict,
    /// Change median over parent median, minus one.
    pub delta: f64,
    /// Pairs compared.
    pub pairs: usize,
}

/// Judges one metric; `parent` and `change` are its values in run order.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> Cell {
    let cell = |verdict, delta, pairs| Cell {
        metric: def.name.clone(),
        verdict,
        delta,
        pairs,
    };
    let (Some(pm), Some(cm), Some([q1, _, q3])) = (
        stats::median(parent),
        stats::median(change),
        stats::quartiles(parent),
    ) else {
        return cell(Verdict::Missing, f64::NAN, 0);
    };
    let better = |c: f64, p: f64| {
        if def.higher_is_better {
            c > p
        } else {
            c < p
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let delta = cm / pm - 1.0;
    let bound = def.bound.unwrap_or(0.0);
    let worse_by = if def.higher_is_better { -delta } else { delta };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(cm, pm)
        && (cm - pm).abs() > q3 - q1
    {
        Verdict::Gain
    } else if (q3 - q1) / pm.abs() > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Same
    };
    cell(verdict, delta, pairs)
}

/// Failed output checks per run of `workload`; 0 without runs.
fn failed_per_run(runs: &[RunRecord], workload: &str) -> f64 {
    let (runs, failed) = runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0usize, 0usize), |(n, f), r| (n + 1, f + r.failed));
    if runs == 0 {
        0.0
    } else {
        failed as f64 / runs as f64
    }
}

/// Compares every workload's end-to-end metrics; one row per workload
/// seen on either side, in catalogue order.
pub fn compare(
    catalog: &Catalog,
    parent: &[RunRecord],
    change: &[RunRecord],
) -> Vec<(String, Vec<Cell>)> {
    let values = |runs: &[RunRecord], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.value(metric))
            .collect()
    };
    catalog
        .workloads
        .iter()
        .filter(|w| parent.iter().chain(change).any(|r| &r.workload == *w))
        .map(|w| {
            let failing = failed_per_run(change, w) > failed_per_run(parent, w);
            let cells = catalog
                .end_to_end
                .iter()
                .map(|def| {
                    let cell = judge(
                        def,
                        &values(parent, w, &def.name),
                        &values(change, w, &def.name),
                    );
                    if failing {
                        Cell {
                            verdict: Verdict::Failed,
                            ..cell
                        }
                    } else {
                        cell
                    }
                })
                .collect();
            (w.clone(), cells)
        })
        .collect()
}

/// Entry point of the subcommand; returns whether nothing regressed or
/// failed.
///
/// # Errors
///
/// Returns a message for bad arguments or unreadable records.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: cfaopc-perf compare <parent.json>... -- <change.json>...")?;
    let load = |paths: &[String]| -> Result<Vec<RunRecord>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                RunRecord::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let parent = load(&args[..split])?;
    let change = load(&args[split + 1..])?;
    let catalog = Catalog::embedded()?;
    let rows = compare(&catalog, &parent, &change);
    let mut clean = true;
    for (workload, cells) in &rows {
        let text: Vec<String> = cells
            .iter()
            .map(|c| {
                clean &= !c.verdict.rejects();
                format!(
                    "{} {} ({:+.1}%, {} pairs)",
                    c.metric,
                    c.verdict.label(),
                    c.delta * 100.0,
                    c.pairs
                )
            })
            .collect();
        println!("{workload:<12} | {}", text.join(" | "));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    /// Ten values around `center` with a ±1 % wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + 0.002 * f64::from(i % 5) - 0.004))
            .collect()
    }

    #[test]
    fn a_clear_faster_change_is_a_gain() {
        let cell = judge(&def(false, 0.08), &runs(10.0), &runs(8.0));
        assert_eq!(cell.verdict, Verdict::Gain);
        assert!((cell.delta + 0.2).abs() < 1e-9);
        assert_eq!(cell.pairs, 10);
    }

    #[test]
    fn a_gain_needs_ten_pairs() {
        let cell = judge(&def(false, 0.08), &runs(10.0)[..9], &runs(8.0)[..9]);
        assert_eq!(
            cell.verdict,
            Verdict::Same,
            "faster, but too few pairs to claim"
        );
    }

    #[test]
    fn small_differences_are_the_same() {
        assert_eq!(
            judge(&def(false, 0.08), &runs(10.0), &runs(10.3)).verdict,
            Verdict::Same
        );
        assert_eq!(
            judge(&def(true, 0.08), &runs(10.0), &runs(9.7)).verdict,
            Verdict::Same
        );
    }

    #[test]
    fn worse_than_the_bound_regresses_in_either_direction() {
        assert_eq!(
            judge(&def(false, 0.08), &runs(10.0), &runs(11.0)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&def(true, 0.08), &runs(10.0), &runs(9.0)).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_noisy_parent_leaves_the_metric_unresolved() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 8.0 } else { 12.0 })
            .collect();
        assert_eq!(
            judge(&def(false, 0.08), &noisy, &runs(11.0)).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        assert_eq!(
            judge(&def(false, 0.08), &noisy, &[7.0, 7.5]).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn missing_sides_are_reported() {
        assert_eq!(
            judge(&def(false, 0.08), &[], &runs(1.0)).verdict,
            Verdict::Missing
        );
    }

    fn record(workload: &str, failed: usize, cost: f64) -> RunRecord {
        RunRecord::parse(&format!(
            r#"{{"schema":"{SCHEMA}","workload":"{workload}","trace":false,
            "result":{{"failed":{failed},"metrics":{{"cpu_s_per_item":{{"value":{cost},"unit":"s"}}}}}}}}"#
        ))
        .unwrap()
    }

    fn verdict(rows: &[(String, Vec<Cell>)], metric: &str) -> Verdict {
        rows[0]
            .1
            .iter()
            .find(|c| c.metric == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn records_round_trip_and_rows_follow_the_catalogue() {
        let parent: Vec<RunRecord> = (0..10)
            .map(|i| record("serve_mixed", 0, 1.0 + 0.001 * f64::from(i)))
            .collect();
        let change: Vec<RunRecord> = (0..10)
            .map(|i| record("serve_mixed", 0, 1.5 + 0.001 * f64::from(i)))
            .collect();
        let rows = compare(&Catalog::embedded().unwrap(), &parent, &change);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "serve_mixed");
        assert_eq!(verdict(&rows, "cpu_s_per_item"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Missing);
        let traced = format!(r#"{{"schema":"{SCHEMA}","workload":"eval_small","trace":true}}"#);
        assert!(RunRecord::parse(&traced).is_err());
        let no_failed = format!(
            r#"{{"schema":"{SCHEMA}","workload":"eval_small","trace":false,"result":{{"metrics":{{}}}}}}"#
        );
        assert!(RunRecord::parse(&no_failed).unwrap_err().contains("failed"));
    }

    #[test]
    fn more_failures_per_run_fail_every_metric_even_when_faster() {
        let catalog = Catalog::embedded().unwrap();
        let parent: Vec<RunRecord> = (0..10).map(|_| record("eval_small", 0, 1.0)).collect();
        // Twice as fast, but one run failed a check.
        let mut change: Vec<RunRecord> = (0..10).map(|_| record("eval_small", 0, 0.5)).collect();
        assert_eq!(
            verdict(&compare(&catalog, &parent, &change), "cpu_s_per_item"),
            Verdict::Gain
        );
        change[3].failed = 1;
        let rows = compare(&catalog, &parent, &change);
        assert!(rows[0].1.iter().all(|c| c.verdict == Verdict::Failed));
        assert!(Verdict::Failed.rejects());
        // As many failures per run as the parent is not a new failure.
        let parent: Vec<RunRecord> = (0..5).map(|_| record("eval_small", 1, 1.0)).collect();
        let change: Vec<RunRecord> = (0..10).map(|_| record("eval_small", 1, 1.0)).collect();
        assert_eq!(
            verdict(&compare(&catalog, &parent, &change), "cpu_s_per_item"),
            Verdict::Same
        );
    }
}
