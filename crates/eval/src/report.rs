//! `RESULTS.json` serialization and the markdown paper table.
//!
//! The on-disk schema (`cfaopc-eval/1`) is one object per run:
//!
//! ```json
//! {
//!   "schema": "cfaopc-eval/1",
//!   "suite": "small", "size": 128, "kernel_count": 6,
//!   "cases": [
//!     {"case": "case1", "area_nm2": 215344, "rects": 21, "wall_ms": null,
//!      "rule": {"l2": ..., "pvb": ..., "epe": 3, "shots": 41, "window": 0.44},
//!      "opt":  {"l2": ..., "pvb": ..., "epe": 1, "shots": 30, "window": 0.56},
//!      "telemetry": {"pixel_iterations": 4, ...}}
//!   ]
//! }
//! ```
//!
//! `wall_ms` is `null` in deterministic mode; everything else is a pure
//! function of the suite spec, so the serialized bytes are stable across
//! runs and thread counts. The golden file (`eval/golden.json`) is simply
//! a blessed copy of this format.

use crate::harness::{CaseRecord, EvalReport, MethodOutcome, TelemetrySummary};
use crate::Json;
use std::fmt::Write as _;

/// Schema tag written to and required from every report file.
pub const SCHEMA: &str = "cfaopc-eval/1";

fn method_json(m: &MethodOutcome) -> Json {
    Json::Obj(vec![
        ("l2".into(), Json::Num(m.l2)),
        ("pvb".into(), Json::Num(m.pvb)),
        ("epe".into(), Json::int(m.epe)),
        ("shots".into(), Json::int(m.shots)),
        ("window".into(), Json::Num(m.window)),
    ])
}

fn telemetry_json(t: &TelemetrySummary) -> Json {
    Json::Obj(vec![
        ("pixel_iterations".into(), Json::int(t.pixel_iterations)),
        ("pixel_loss_first".into(), Json::Num(t.pixel_loss_first)),
        ("pixel_loss_last".into(), Json::Num(t.pixel_loss_last)),
        ("circle_iterations".into(), Json::int(t.circle_iterations)),
        ("circle_loss_first".into(), Json::Num(t.circle_loss_first)),
        ("circle_loss_last".into(), Json::Num(t.circle_loss_last)),
        ("final_sparsity".into(), Json::Num(t.final_sparsity)),
        ("final_active".into(), Json::int(t.final_active)),
    ])
}

impl EvalReport {
    /// The report as a JSON tree (see the module docs for the schema).
    pub fn to_json(&self) -> Json {
        let cases = self
            .cases
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("case".into(), Json::Str(c.name.clone())),
                    ("area_nm2".into(), Json::Num(c.area_nm2 as f64)),
                    ("rects".into(), Json::int(c.rects)),
                    ("wall_ms".into(), c.wall_ms.map_or(Json::Null, Json::Num)),
                    ("rule".into(), method_json(&c.rule)),
                    ("opt".into(), method_json(&c.opt)),
                    ("telemetry".into(), telemetry_json(&c.telemetry)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("suite".into(), Json::Str(self.suite.clone())),
            ("size".into(), Json::int(self.size)),
            ("kernel_count".into(), Json::int(self.kernel_count)),
            ("cases".into(), Json::Arr(cases)),
        ])
    }

    /// Serializes to the pretty-printed, byte-stable `RESULTS.json` text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Parses a report back from its JSON text (used by `--check` to
    /// load the golden file).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing/mistyped field, or the
    /// JSON syntax error, and rejects unknown schema tags.
    pub fn from_json_str(text: &str) -> Result<EvalReport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let suite = doc.str_field("suite")?.to_string();
        let size = doc.usize_field("size")?;
        let kernel_count = doc.usize_field("kernel_count")?;
        let cases = doc
            .get("cases")
            .and_then(Json::as_array)
            .ok_or("missing \"cases\" array")?
            .iter()
            .map(case_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EvalReport {
            suite,
            size,
            kernel_count,
            cases,
        })
    }

    /// Renders the paper-style markdown table: one row per case with
    /// both methods' metrics, plus a mean row.
    pub fn markdown_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| Case | Area (nm²) | L2 (CR) | PVB (CR) | EPE (CR) | #Shot (CR) | PW (CR) \
             | L2 (CO) | PVB (CO) | EPE (CO) | #Shot (CO) | PW (CO) |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
        for c in &self.cases {
            let _ = writeln!(
                out,
                "| {} | {} | {:.0} | {:.0} | {} | {} | {:.2} | {:.0} | {:.0} | {} | {} | {:.2} |",
                c.name,
                c.area_nm2,
                c.rule.l2,
                c.rule.pvb,
                c.rule.epe,
                c.rule.shots,
                c.rule.window,
                c.opt.l2,
                c.opt.pvb,
                c.opt.epe,
                c.opt.shots,
                c.opt.window,
            );
        }
        if !self.cases.is_empty() {
            let (l2r, l2o) = self.mean(|m| m.l2);
            let (pvbr, pvbo) = self.mean(|m| m.pvb);
            let (eper, epeo) = self.mean(|m| m.epe as f64);
            let (shotr, shoto) = self.mean(|m| m.shots as f64);
            let (pwr, pwo) = self.mean(|m| m.window);
            let _ = writeln!(
                out,
                "| **mean** | | {l2r:.0} | {pvbr:.0} | {eper:.1} | {shotr:.1} | {pwr:.2} \
                 | {l2o:.0} | {pvbo:.0} | {epeo:.1} | {shoto:.1} | {pwo:.2} |"
            );
        }
        out
    }
}

fn method_from_json(obj: &Json, which: &str) -> Result<MethodOutcome, String> {
    let m = obj
        .get(which)
        .ok_or_else(|| format!("missing {which:?} object"))?;
    Ok(MethodOutcome {
        l2: m.f64_field("l2")?,
        pvb: m.f64_field("pvb")?,
        epe: m.usize_field("epe")?,
        shots: m.usize_field("shots")?,
        window: m.f64_field("window")?,
    })
}

fn case_from_json(obj: &Json) -> Result<CaseRecord, String> {
    let name = obj.str_field("case")?.to_string();
    let telemetry = match obj.get("telemetry") {
        Some(t) => TelemetrySummary {
            pixel_iterations: t.usize_field("pixel_iterations")?,
            pixel_loss_first: t.f64_field("pixel_loss_first")?,
            pixel_loss_last: t.f64_field("pixel_loss_last")?,
            circle_iterations: t.usize_field("circle_iterations")?,
            circle_loss_first: t.f64_field("circle_loss_first")?,
            circle_loss_last: t.f64_field("circle_loss_last")?,
            final_sparsity: t.f64_field("final_sparsity")?,
            final_active: t.usize_field("final_active")?,
        },
        None => return Err(format!("case {name:?}: missing \"telemetry\"")),
    };
    Ok(CaseRecord {
        rule: method_from_json(obj, "rule").map_err(|e| format!("case {name:?}: {e}"))?,
        opt: method_from_json(obj, "opt").map_err(|e| format!("case {name:?}: {e}"))?,
        area_nm2: obj.f64_field("area_nm2")? as i64,
        rects: obj.usize_field("rects")?,
        wall_ms: obj.get("wall_ms").and_then(Json::as_f64),
        telemetry,
        name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> EvalReport {
        let outcome = |l2, shots| MethodOutcome {
            l2,
            pvb: 2.0 * l2,
            epe: 3,
            shots,
            window: 0.5,
        };
        EvalReport {
            suite: "tiny".into(),
            size: 64,
            kernel_count: 6,
            cases: vec![
                CaseRecord {
                    name: "case4".into(),
                    area_nm2: 82_560,
                    rects: 7,
                    rule: outcome(1000.5, 40),
                    opt: outcome(800.25, 25),
                    telemetry: TelemetrySummary {
                        pixel_iterations: 2,
                        pixel_loss_first: 9.0,
                        pixel_loss_last: 7.0,
                        circle_iterations: 4,
                        circle_loss_first: 6.5,
                        circle_loss_last: 5.25,
                        final_sparsity: 1.5,
                        final_active: 25,
                    },
                    wall_ms: None,
                },
                CaseRecord {
                    name: "random7".into(),
                    area_nm2: 120_000,
                    rects: 9,
                    rule: outcome(2000.0, 60),
                    opt: outcome(1500.0, 45),
                    telemetry: TelemetrySummary::default(),
                    wall_ms: Some(123.5),
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let report = sample_report();
        let text = report.to_json_string();
        let parsed = EvalReport::from_json_str(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn serialization_is_byte_stable() {
        let report = sample_report();
        assert_eq!(report.to_json_string(), report.to_json_string());
    }

    #[test]
    fn wall_ms_serializes_as_null_when_absent() {
        let text = sample_report().to_json_string();
        assert!(text.contains("\"wall_ms\": null"));
        assert!(text.contains("\"wall_ms\": 123.5"));
    }

    #[test]
    fn rejects_wrong_schema_and_malformed_fields() {
        assert!(EvalReport::from_json_str("{}").is_err());
        assert!(EvalReport::from_json_str("{\"schema\":\"other/9\"}").is_err());
        let mut text = sample_report().to_json_string();
        text = text.replace("\"epe\": 3", "\"epe\": \"three\"");
        let err = EvalReport::from_json_str(&text).unwrap_err();
        assert!(err.contains("epe"), "unhelpful error: {err}");
    }

    #[test]
    fn markdown_has_one_row_per_case_plus_mean() {
        let table = sample_report().markdown_table();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 2 + 2 + 1, "header, divider, 2 cases, mean");
        assert!(rows[2].starts_with("| case4 |"));
        assert!(rows.last().unwrap().starts_with("| **mean** |"));
        // Mean L2 of the rule method: (1000.5 + 2000) / 2 = 1500.25 → 1500.
        assert!(rows.last().unwrap().contains("| 1500 |"));
    }
}
