//! `CHIP_RESULTS.json` serialization and the golden-drift comparison.
//!
//! The on-disk schema (`cfaopc-chip/1`) is one object per suite run:
//!
//! ```json
//! {
//!   "schema": "cfaopc-chip/1",
//!   "suite": "chip-tiny", "tile_px": 32, "window_px": 64,
//!   "halo_px": 16, "kernel_count": 6,
//!   "chips": [
//!     {"chip": "chip3_4x4", "tiles_x": 4, "tiles_y": 4,
//!      "area_nm2": 1234567, "rects": 120,
//!      "rule": {"l2": ..., "pvb": ..., "epe": 3, "shots": 410,
//!               "mrc_violations": 2, "cross_seam_violations": 1},
//!      "opt":  {...},
//!      "tiles": [{"tile": "t0x0", "rule_shots": 31, "opt_shots": 22}, ...]}
//!   ]
//! }
//! ```
//!
//! Every field is a pure function of the suite spec, so the serialized
//! bytes are stable across runs and thread counts; the golden file
//! (`eval/golden_chip.json`) is a blessed copy of this format. Drift
//! checking is `cfaopc_eval`'s: [`metric_drifts`] over each method's six
//! metrics, [`Drift::structural`] for a suite or chip-list mismatch.

use crate::geometry::ChipGeometry;
use crate::spec::ChipSpec;
use cfaopc_eval::{metric_drifts, Drift, Json, Tolerance};
use std::fmt::Write as _;

/// Schema tag written to and required from every chip report file.
pub const SCHEMA: &str = "cfaopc-chip/1";

/// Chip-level metrics for one method on one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipMethodOutcome {
    /// Squared L2 of the blended nominal print vs the chip target, nm².
    pub l2: f64,
    /// Process-variation band of the blended corner prints, nm².
    pub pvb: f64,
    /// EPE violation count over the chip grid.
    pub epe: usize,
    /// Merged circular shot count (each shot owned by exactly one tile).
    pub shots: usize,
    /// Total MRC violations of the merged shot list.
    pub mrc_violations: usize,
    /// Spacing violations whose two shots came from different tiles.
    pub cross_seam_violations: usize,
}

/// Owned shot counts for one tile of a chip.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRecord {
    /// Tile name (`t2x1` = column 2, row 1).
    pub name: String,
    /// Shots the tile contributed to the merged rule mask.
    pub rule_shots: usize,
    /// Shots the tile contributed to the merged opt mask.
    pub opt_shots: usize,
}

/// Everything the harness measures for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipRecord {
    /// Chip name (`chip3_4x4`, `mosaic_2x2`, …).
    pub name: String,
    /// Tile columns.
    pub tiles_x: usize,
    /// Tile rows.
    pub tiles_y: usize,
    /// Total pattern area in nm².
    pub area_nm2: i64,
    /// Rectangle count of the chip layout.
    pub rects: usize,
    /// MultiILT + CircleRule (the rule-based baseline).
    pub rule: ChipMethodOutcome,
    /// CircleOpt (the paper's optimization-based method).
    pub opt: ChipMethodOutcome,
    /// Per-tile owned-shot counts, in row-major tile order.
    pub tiles: Vec<TileRecord>,
}

/// One full chip-suite run: the suite identity plus per-chip records in
/// suite order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Suite name.
    pub suite: String,
    /// Owned tile edge in pixels.
    pub tile_px: usize,
    /// Simulation window edge in pixels.
    pub window_px: usize,
    /// Halo width in pixels.
    pub halo_px: usize,
    /// Kernels per corner.
    pub kernel_count: usize,
    /// Per-chip records, in the suite's chip order.
    pub chips: Vec<ChipRecord>,
}

fn method_json(m: &ChipMethodOutcome) -> Json {
    Json::Obj(vec![
        ("l2".into(), Json::Num(m.l2)),
        ("pvb".into(), Json::Num(m.pvb)),
        ("epe".into(), Json::int(m.epe)),
        ("shots".into(), Json::int(m.shots)),
        ("mrc_violations".into(), Json::int(m.mrc_violations)),
        (
            "cross_seam_violations".into(),
            Json::int(m.cross_seam_violations),
        ),
    ])
}

impl ChipReport {
    /// The report of a run of `spec`: the suite's name, tile, window,
    /// halo and kernel count, plus `chips` in suite order.
    pub fn new(spec: &ChipSpec, chips: Vec<ChipRecord>) -> ChipReport {
        let geom = ChipGeometry::new(1, 1, spec.tile_px);
        ChipReport {
            suite: spec.name.clone(),
            tile_px: spec.tile_px,
            window_px: geom.window_px(),
            halo_px: geom.halo_px(),
            kernel_count: spec.kernel_count,
            chips,
        }
    }

    /// The report as a JSON tree (see the module docs for the schema).
    pub fn to_json(&self) -> Json {
        let chips = self
            .chips
            .iter()
            .map(|c| {
                let tiles = c
                    .tiles
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("tile".into(), Json::Str(t.name.clone())),
                            ("rule_shots".into(), Json::int(t.rule_shots)),
                            ("opt_shots".into(), Json::int(t.opt_shots)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("chip".into(), Json::Str(c.name.clone())),
                    ("tiles_x".into(), Json::int(c.tiles_x)),
                    ("tiles_y".into(), Json::int(c.tiles_y)),
                    ("area_nm2".into(), Json::Num(c.area_nm2 as f64)),
                    ("rects".into(), Json::int(c.rects)),
                    ("rule".into(), method_json(&c.rule)),
                    ("opt".into(), method_json(&c.opt)),
                    ("tiles".into(), Json::Arr(tiles)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("suite".into(), Json::Str(self.suite.clone())),
            ("tile_px".into(), Json::int(self.tile_px)),
            ("window_px".into(), Json::int(self.window_px)),
            ("halo_px".into(), Json::int(self.halo_px)),
            ("kernel_count".into(), Json::int(self.kernel_count)),
            ("chips".into(), Json::Arr(chips)),
        ])
    }

    /// Serializes to the pretty-printed, byte-stable
    /// `CHIP_RESULTS.json` text.
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
    pub fn from_json_str(text: &str) -> Result<ChipReport, String> {
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
        let chips = doc
            .get("chips")
            .and_then(Json::as_array)
            .ok_or("missing \"chips\" array")?
            .iter()
            .map(chip_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChipReport {
            suite: doc.str_field("suite")?.to_string(),
            tile_px: doc.usize_field("tile_px")?,
            window_px: doc.usize_field("window_px")?,
            halo_px: doc.usize_field("halo_px")?,
            kernel_count: doc.usize_field("kernel_count")?,
            chips,
        })
    }

    /// Renders the chip summary as a markdown table: one row per chip
    /// with both methods' metrics.
    pub fn markdown_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| Chip | Tiles | Area (nm²) | L2 (CR) | PVB (CR) | EPE (CR) | #Shot (CR) | xMRC (CR) \
             | L2 (CO) | PVB (CO) | EPE (CO) | #Shot (CO) | xMRC (CO) |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|---|");
        for c in &self.chips {
            let _ = writeln!(
                out,
                "| {} | {}×{} | {} | {:.0} | {:.0} | {} | {} | {} | {:.0} | {:.0} | {} | {} | {} |",
                c.name,
                c.tiles_x,
                c.tiles_y,
                c.area_nm2,
                c.rule.l2,
                c.rule.pvb,
                c.rule.epe,
                c.rule.shots,
                c.rule.cross_seam_violations,
                c.opt.l2,
                c.opt.pvb,
                c.opt.epe,
                c.opt.shots,
                c.opt.cross_seam_violations,
            );
        }
        out
    }
}

fn method_from_json(obj: &Json, which: &str) -> Result<ChipMethodOutcome, String> {
    let m = obj
        .get(which)
        .ok_or_else(|| format!("missing {which:?} object"))?;
    Ok(ChipMethodOutcome {
        l2: m.f64_field("l2")?,
        pvb: m.f64_field("pvb")?,
        epe: m.usize_field("epe")?,
        shots: m.usize_field("shots")?,
        mrc_violations: m.usize_field("mrc_violations")?,
        cross_seam_violations: m.usize_field("cross_seam_violations")?,
    })
}

fn chip_from_json(obj: &Json) -> Result<ChipRecord, String> {
    let name = obj.str_field("chip")?.to_string();
    let context = |e: String| format!("chip {name:?}: {e}");
    let tiles = obj
        .get("tiles")
        .and_then(Json::as_array)
        .ok_or_else(|| context("missing \"tiles\" array".into()))?
        .iter()
        .map(|t| {
            Ok(TileRecord {
                name: t.str_field("tile")?.to_string(),
                rule_shots: t.usize_field("rule_shots")?,
                opt_shots: t.usize_field("opt_shots")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()
        .map_err(context)?;
    Ok(ChipRecord {
        tiles_x: obj.usize_field("tiles_x").map_err(context)?,
        tiles_y: obj.usize_field("tiles_y").map_err(context)?,
        area_nm2: obj.f64_field("area_nm2").map_err(context)? as i64,
        rects: obj.usize_field("rects").map_err(context)?,
        rule: method_from_json(obj, "rule").map_err(context)?,
        opt: method_from_json(obj, "opt").map_err(context)?,
        tiles,
        name,
    })
}

fn method_drifts(
    chip: &str,
    method: &str,
    golden: &ChipMethodOutcome,
    got: &ChipMethodOutcome,
    tol: &Tolerance,
    out: &mut Vec<Drift>,
) {
    let metrics = [
        ("l2", golden.l2, got.l2),
        ("pvb", golden.pvb, got.pvb),
        ("epe", golden.epe as f64, got.epe as f64),
        ("shots", golden.shots as f64, got.shots as f64),
        (
            "mrc",
            golden.mrc_violations as f64,
            got.mrc_violations as f64,
        ),
        (
            "xseam",
            golden.cross_seam_violations as f64,
            got.cross_seam_violations as f64,
        ),
    ];
    metric_drifts(chip, method, &metrics, tol, out);
}

/// Compares a freshly measured chip report against the golden one; an
/// empty result means "no drift". Structural mismatches (different
/// suite, geometry, or chip list) are reported as drifts too.
pub fn compare_chip_reports(golden: &ChipReport, got: &ChipReport, tol: &Tolerance) -> Vec<Drift> {
    let mut drifts = Vec::new();
    if golden.suite != got.suite {
        drifts.push(Drift::structural(
            format!("suite {:?} vs {:?}", golden.suite, got.suite),
            0.0,
            0.0,
        ));
    }
    for (name, g, m) in [
        ("tile_px", golden.tile_px, got.tile_px),
        ("window_px", golden.window_px, got.window_px),
        ("halo_px", golden.halo_px, got.halo_px),
        ("kernel_count", golden.kernel_count, got.kernel_count),
    ] {
        if g != m {
            drifts.push(Drift::structural(name, g as f64, m as f64));
        }
    }
    if golden.chips.len() != got.chips.len() {
        drifts.push(Drift::structural(
            "chip count",
            golden.chips.len() as f64,
            got.chips.len() as f64,
        ));
        return drifts;
    }
    for (g, m) in golden.chips.iter().zip(&got.chips) {
        if g.name != m.name {
            drifts.push(Drift::structural(
                format!("chip {:?} vs {:?}", g.name, m.name),
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

    pub(crate) fn sample_report() -> ChipReport {
        let outcome = |l2, shots| ChipMethodOutcome {
            l2,
            pvb: 2.0 * l2,
            epe: 3,
            shots,
            mrc_violations: 2,
            cross_seam_violations: 1,
        };
        ChipReport {
            suite: "chip-tiny".into(),
            tile_px: 32,
            window_px: 64,
            halo_px: 16,
            kernel_count: 6,
            chips: vec![ChipRecord {
                name: "chip3_4x4".into(),
                tiles_x: 4,
                tiles_y: 4,
                area_nm2: 1_234_567,
                rects: 120,
                rule: outcome(9000.5, 410),
                opt: outcome(7000.25, 300),
                tiles: vec![
                    TileRecord {
                        name: "t0x0".into(),
                        rule_shots: 31,
                        opt_shots: 22,
                    },
                    TileRecord {
                        name: "t1x0".into(),
                        rule_shots: 0,
                        opt_shots: 0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_roundtrip_preserves_the_report() {
        let report = sample_report();
        let parsed = ChipReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn serialization_is_byte_stable() {
        let report = sample_report();
        assert_eq!(report.to_json_string(), report.to_json_string());
    }

    #[test]
    fn rejects_wrong_schema_and_malformed_fields() {
        assert!(ChipReport::from_json_str("{}").is_err());
        assert!(ChipReport::from_json_str("{\"schema\":\"cfaopc-eval/1\"}").is_err());
        let text = sample_report()
            .to_json_string()
            .replace("\"epe\": 3", "\"epe\": \"three\"");
        let err = ChipReport::from_json_str(&text).unwrap_err();
        assert!(err.contains("epe"), "unhelpful error: {err}");
    }

    #[test]
    fn identical_reports_have_no_drift() {
        let r = sample_report();
        assert!(compare_chip_reports(&r, &r, &Tolerance::default()).is_empty());
    }

    #[test]
    fn drift_beyond_tolerance_is_reported_per_metric() {
        let golden = sample_report();
        let mut got = sample_report();
        got.chips[0].opt.l2 = 9900.0; // > 2 %
        got.chips[0].rule.cross_seam_violations = 4; // off by 3
        let drifts = compare_chip_reports(&golden, &got, &Tolerance::default());
        assert_eq!(drifts.len(), 2);
        assert_eq!(drifts[0].metric, "xseam");
        assert_eq!(drifts[1].metric, "l2");
    }

    #[test]
    fn structural_mismatches_fail() {
        let golden = sample_report();
        let mut other = sample_report();
        other.tile_px = 64;
        assert!(!compare_chip_reports(&golden, &other, &Tolerance::default()).is_empty());
        let mut renamed = sample_report();
        renamed.chips[0].name = "chipX".into();
        assert!(!compare_chip_reports(&golden, &renamed, &Tolerance::default()).is_empty());
        let mut extra = sample_report();
        extra.chips.push(extra.chips[0].clone());
        assert!(!compare_chip_reports(&golden, &extra, &Tolerance::default()).is_empty());
    }

    #[test]
    fn markdown_has_one_row_per_chip() {
        let table = sample_report().markdown_table();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 3, "header, divider, one chip");
        assert!(rows[2].starts_with("| chip3_4x4 | 4×4 |"));
    }
}
