//! The committed baseline (`lint/baseline.json`): accepted legacy
//! findings, each with a one-line justification.
//!
//! Entries are keyed by `(rule, file, snippet)` rather than line number so
//! that unrelated edits shifting lines do not invalidate the baseline; a
//! `count` allows several identical sites in one file. The check is
//! two-sided: findings beyond the baselined count are **new** (exit 1) and
//! baselined counts no longer reached are **stale** (exit 2), so the
//! baseline can only shrink deliberately.

use crate::rules::Finding;
use cfaopc_trace::json::Json;

/// One accepted legacy finding (possibly several identical sites).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id ("L1" … "L5").
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Trimmed offending line — the matching key.
    pub snippet: String,
    /// How many identical sites are accepted.
    pub count: usize,
    /// Why this is acceptable.
    pub justification: String,
}

/// The parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// All accepted entries.
    pub entries: Vec<BaselineEntry>,
}

/// A baseline entry whose accepted sites no longer all exist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    /// Rule id of the stale entry.
    pub rule: String,
    /// File of the stale entry.
    pub file: String,
    /// Snippet key of the stale entry.
    pub snippet: String,
    /// Count recorded in the baseline.
    pub expected: usize,
    /// Matching findings actually present.
    pub actual: usize,
}

/// A finding annotated with its baseline status.
#[derive(Debug, Clone)]
pub struct Annotated {
    /// The underlying finding.
    pub finding: Finding,
    /// Whether the baseline accepts this site.
    pub baselined: bool,
    /// The baseline justification, when baselined.
    pub justification: Option<String>,
}

/// Result of matching findings against the baseline.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// All findings, in (file, line, rule) order, annotated.
    pub findings: Vec<Annotated>,
    /// Findings not covered by the baseline.
    pub new_count: usize,
    /// Findings absorbed by the baseline.
    pub baselined_count: usize,
    /// Baseline entries that over-count current findings.
    pub stale: Vec<StaleEntry>,
}

impl Baseline {
    /// Parses `lint/baseline.json` text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let entries_json = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or("baseline: missing `entries` array")?;
        let mut entries = Vec::new();
        for (i, entry) in entries_json.iter().enumerate() {
            let field = |key: &str| -> Result<String, String> {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(|s| s.to_string())
                    .ok_or(format!("baseline entry {i}: missing string `{key}`"))
            };
            entries.push(BaselineEntry {
                rule: field("rule")?,
                file: field("file")?,
                snippet: field("snippet")?,
                count: entry
                    .get("count")
                    .and_then(Json::as_usize)
                    .ok_or(format!("baseline entry {i}: missing integer `count`"))?,
                justification: field("justification")?,
            });
        }
        Ok(Baseline { entries })
    }

    /// Serializes in the committed format.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".to_string(), Json::int(1)),
            (
                "entries".to_string(),
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("rule".to_string(), Json::Str(e.rule.clone())),
                                ("file".to_string(), Json::Str(e.file.clone())),
                                ("snippet".to_string(), Json::Str(e.snippet.clone())),
                                ("count".to_string(), Json::int(e.count)),
                                (
                                    "justification".to_string(),
                                    Json::Str(e.justification.clone()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Matches findings (already sorted by file/line/rule) against the
    /// baseline: the first `count` sites per key are accepted, extras are
    /// new, shortfalls make the entry stale.
    pub fn apply(&self, findings: Vec<Finding>) -> Outcome {
        let mut remaining: Vec<(usize, &BaselineEntry)> =
            self.entries.iter().map(|e| (e.count, e)).collect();
        let mut outcome = Outcome::default();
        for finding in findings {
            let slot = remaining.iter_mut().find(|(left, e)| {
                *left > 0
                    && e.rule == finding.rule
                    && e.file == finding.file
                    && e.snippet == finding.snippet
            });
            let (baselined, justification) = match slot {
                Some((left, entry)) => {
                    *left -= 1;
                    (true, Some(entry.justification.clone()))
                }
                None => (false, None),
            };
            if baselined {
                outcome.baselined_count += 1;
            } else {
                outcome.new_count += 1;
            }
            outcome.findings.push(Annotated {
                finding,
                baselined,
                justification,
            });
        }
        for (left, entry) in remaining {
            if left > 0 {
                outcome.stale.push(StaleEntry {
                    rule: entry.rule.clone(),
                    file: entry.file.clone(),
                    snippet: entry.snippet.clone(),
                    expected: entry.count,
                    actual: entry.count - left,
                });
            }
        }
        outcome
    }

    /// Builds a fresh baseline from current findings, preserving the
    /// justifications of entries that still match; brand-new entries get a
    /// placeholder that reviewers must replace.
    pub fn updated_from(&self, findings: &[Finding]) -> Baseline {
        let mut entries: Vec<BaselineEntry> = Vec::new();
        for finding in findings {
            if let Some(entry) = entries.iter_mut().find(|e| {
                e.rule == finding.rule && e.file == finding.file && e.snippet == finding.snippet
            }) {
                entry.count += 1;
                continue;
            }
            let justification = self
                .entries
                .iter()
                .find(|e| {
                    e.rule == finding.rule && e.file == finding.file && e.snippet == finding.snippet
                })
                .map(|e| e.justification.clone())
                .unwrap_or_else(|| "UNREVIEWED: justify before merging".to_string());
            entries.push(BaselineEntry {
                rule: finding.rule.to_string(),
                file: finding.file.clone(),
                snippet: finding.snippet.clone(),
                count: 1,
                justification,
            });
        }
        Baseline { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            name: "x",
            file: file.to_string(),
            line,
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    fn entry(
        rule: &str,
        file: &str,
        snippet: &str,
        count: usize,
        justification: &str,
    ) -> BaselineEntry {
        BaselineEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            snippet: snippet.to_string(),
            count,
            justification: justification.to_string(),
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let baseline = Baseline {
            entries: vec![BaselineEntry {
                rule: "L2".to_string(),
                file: "crates/a/src/lib.rs".to_string(),
                snippet: "x.expect(\"y\")".to_string(),
                count: 2,
                justification: "unreachable by construction".to_string(),
            }],
        };
        let text = baseline.to_json().to_string_pretty();
        let back = Baseline::parse(&text).expect("parse");
        assert_eq!(back.entries, baseline.entries);
    }

    #[test]
    fn counts_split_between_baselined_and_new() {
        let baseline = Baseline {
            entries: vec![entry("L2", "f.rs", "s", 1, "ok")],
        };
        let out = baseline.apply(vec![
            finding("L2", "f.rs", 3, "s"),
            finding("L2", "f.rs", 9, "s"),
        ]);
        assert_eq!(out.baselined_count, 1);
        assert_eq!(out.new_count, 1);
        assert!(out.stale.is_empty());
        assert!(out.findings[0].baselined);
        assert!(!out.findings[1].baselined);
    }

    #[test]
    fn unmatched_entries_are_stale() {
        let baseline = Baseline {
            entries: vec![entry("L2", "f.rs", "gone", 2, "ok")],
        };
        let out = baseline.apply(vec![finding("L2", "f.rs", 3, "gone")]);
        assert_eq!(out.stale.len(), 1);
        assert_eq!(out.stale[0].expected, 2);
        assert_eq!(out.stale[0].actual, 1);
    }

    #[test]
    fn update_preserves_existing_justifications() {
        let old = Baseline {
            entries: vec![entry("L2", "f.rs", "s", 1, "carefully reviewed")],
        };
        let findings = vec![finding("L2", "f.rs", 3, "s"), finding("L5", "g.rs", 7, "t")];
        let new = old.updated_from(&findings);
        assert_eq!(new.entries.len(), 2);
        assert_eq!(new.entries[0].justification, "carefully reviewed");
        assert!(new.entries[1].justification.starts_with("UNREVIEWED"));
    }
}
