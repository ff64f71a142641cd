//! `cfaopc-lint` — a static analyzer for the cfaopc workspace with no
//! third-party dependency; its one dependency is the std-only workspace
//! leaf `cfaopc-trace`, for the JSON layer.
//!
//! The repo's core guarantees (bit-identical serial/parallel composition,
//! allocation-free steady-state iterations, byte-identical `RESULTS.json`
//! across thread counts, a panic-free library surface) are contracts that
//! runtime tests can only sample. This crate checks their *lexical
//! footprint* on every `.rs` file at CI time:
//!
//! * **L1** `unsafe` without an adjacent `// SAFETY:` comment
//! * **L2** `unwrap`/`expect`/`panic!`-family in non-test library code
//! * **L3** allocation anywhere in the call-graph closure of the fns
//!   named by `lint/hotpaths.toml`
//! * **L4** hash collections / bare float `==` in determinism crates
//! * **L5** ad-hoc atomic counters bypassing `cfaopc-trace`
//! * **L6** panic sites reachable from `[[panic_entry]]` runner fns
//! * **L7** lock-order and held-guard-I/O discipline in `[locks]` crates
//! * **L8** `+=` accumulation inside unordered parallel primitives
//!
//! The graph rules run over a workspace-wide call graph built by a
//! zero-dependency item [`parser`] on top of the total [`lexer`]
//! (resolution policy in [`callgraph`]). Accepted legacy findings live in
//! `lint/baseline.json` with one-line justifications; manifest entries
//! naming fns that no longer exist are *stale drift* and map to exit
//! code 2, like stale baseline entries. See DESIGN.md ("Static
//! analysis") for the rule catalog and baseline policy.

pub mod analyze;
pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use baseline::{Baseline, Outcome};
use cfaopc_trace::json::Json;

/// Exit codes of the `cfaopc-lint` binary. Distinct codes let CI and
/// scripts distinguish "fix your code" from "prune the baseline" from
/// "the linter itself broke".
pub const EXIT_CLEAN: i32 = 0;
/// At least one finding is not covered by the baseline.
pub const EXIT_NEW_FINDINGS: i32 = 1;
/// The baseline or the manifest lists sites/fns that no longer exist
/// (prune the baseline, or fix `lint/hotpaths.toml`).
pub const EXIT_STALE_BASELINE: i32 = 2;
/// I/O, manifest or baseline parse failure.
pub const EXIT_INTERNAL: i32 = 3;

/// Anything that stops the analyzer from producing a verdict.
#[derive(Debug)]
pub enum LintError {
    /// Filesystem failure on a specific path.
    Io(PathBuf, std::io::Error),
    /// `lint/hotpaths.toml` failed to parse.
    Manifest(manifest::ManifestError),
    /// `lint/baseline.json` failed to parse.
    Baseline(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(path, err) => write!(f, "{}: {err}", path.display()),
            LintError::Manifest(err) => write!(f, "{err}"),
            LintError::Baseline(msg) => write!(f, "baseline.json: {msg}"),
        }
    }
}

impl std::error::Error for LintError {}

/// How a run is configured; paths are workspace-root-relative by default.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Path to the hot-path manifest; `None` uses `<root>/lint/hotpaths.toml`
    /// and tolerates its absence (L3/L4/L5 scopes become empty).
    pub hotpaths: Option<PathBuf>,
    /// Path to the baseline; `None` uses `<root>/lint/baseline.json` and
    /// tolerates its absence (empty baseline).
    pub baseline: Option<PathBuf>,
}

/// The result of one analyzer run.
pub struct Report {
    /// Findings annotated with baseline status, plus stale entries.
    pub outcome: Outcome,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// The raw findings before baseline matching (for `--update-baseline`).
    pub raw_findings: Vec<rules::Finding>,
    /// The baseline that was applied.
    pub baseline: Baseline,
    /// Manifest entries naming fns that no longer exist (exit code 2).
    pub stale_manifest: Vec<rules::StaleManifest>,
    /// The workspace call graph, for `--callgraph` export / CI artifact.
    pub callgraph: Json,
}

impl Report {
    /// The process exit code this report warrants. New findings dominate
    /// staleness: fix the code first, then prune the metadata.
    pub fn exit_code(&self) -> i32 {
        if self.outcome.new_count > 0 {
            EXIT_NEW_FINDINGS
        } else if !self.outcome.stale.is_empty() || !self.stale_manifest.is_empty() {
            EXIT_STALE_BASELINE
        } else {
            EXIT_CLEAN
        }
    }

    /// Machine-readable report in the workspace's ordered JSON
    /// (`cfaopc_trace::json`: stable key order, trailing newline).
    pub fn to_json(&self) -> Json {
        let findings = self
            .outcome
            .findings
            .iter()
            .map(|a| {
                let mut fields = vec![
                    ("rule".to_string(), Json::Str(a.finding.rule.to_string())),
                    ("name".to_string(), Json::Str(a.finding.name.to_string())),
                    ("file".to_string(), Json::Str(a.finding.file.clone())),
                    ("line".to_string(), Json::int(a.finding.line as usize)),
                    ("message".to_string(), Json::Str(a.finding.message.clone())),
                    ("snippet".to_string(), Json::Str(a.finding.snippet.clone())),
                    ("baselined".to_string(), Json::Bool(a.baselined)),
                ];
                if let Some(justification) = &a.justification {
                    fields.push((
                        "justification".to_string(),
                        Json::Str(justification.clone()),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        let stale = self
            .outcome
            .stale
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("rule".to_string(), Json::Str(s.rule.clone())),
                    ("file".to_string(), Json::Str(s.file.clone())),
                    ("snippet".to_string(), Json::Str(s.snippet.clone())),
                    ("expected".to_string(), Json::int(s.expected)),
                    ("actual".to_string(), Json::int(s.actual)),
                ])
            })
            .collect();
        let stale_manifest = self
            .stale_manifest
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("section".to_string(), Json::Str(s.section.to_string())),
                    ("file".to_string(), Json::Str(s.file.clone())),
                    ("function".to_string(), Json::Str(s.function.clone())),
                ])
            })
            .collect();
        let rules_catalog = rules::CATALOG
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".to_string(), Json::Str(r.id.to_string())),
                    ("name".to_string(), Json::Str(r.name.to_string())),
                    ("rationale".to_string(), Json::Str(r.rationale.to_string())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("version".to_string(), Json::int(2)),
            ("files_scanned".to_string(), Json::int(self.files_scanned)),
            ("rules".to_string(), Json::Arr(rules_catalog)),
            ("findings".to_string(), Json::Arr(findings)),
            ("stale_baseline".to_string(), Json::Arr(stale)),
            ("stale_manifest".to_string(), Json::Arr(stale_manifest)),
            (
                "summary".to_string(),
                Json::Obj(vec![
                    ("total".to_string(), Json::int(self.outcome.findings.len())),
                    ("new".to_string(), Json::int(self.outcome.new_count)),
                    (
                        "baselined".to_string(),
                        Json::int(self.outcome.baselined_count),
                    ),
                    ("stale".to_string(), Json::int(self.outcome.stale.len())),
                    (
                        "stale_manifest".to_string(),
                        Json::int(self.stale_manifest.len()),
                    ),
                    (
                        "exit_code".to_string(),
                        Json::int(self.exit_code() as usize),
                    ),
                ]),
            ),
        ])
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for a in &self.outcome.findings {
            if a.baselined {
                continue;
            }
            let _ = writeln!(
                out,
                "{}:{}: [{}] {} — {}",
                a.finding.file, a.finding.line, a.finding.rule, a.finding.name, a.finding.message
            );
            if !a.finding.snippet.is_empty() {
                let _ = writeln!(out, "    {}", a.finding.snippet);
            }
        }
        for s in &self.outcome.stale {
            let _ = writeln!(
                out,
                "stale baseline entry: [{}] {} `{}` (baselined {}, found {}) — run --update-baseline or prune lint/baseline.json",
                s.rule, s.file, s.snippet, s.expected, s.actual
            );
        }
        for s in &self.stale_manifest {
            let _ = writeln!(
                out,
                "stale manifest entry: [[{}]] {} names fn `{}` which no longer exists — update lint/hotpaths.toml",
                s.section, s.file, s.function
            );
        }
        let _ = writeln!(
            out,
            "cfaopc-lint: {} files, {} findings ({} new, {} baselined, {} stale baseline, {} stale manifest entries)",
            self.files_scanned,
            self.outcome.findings.len(),
            self.outcome.new_count,
            self.outcome.baselined_count,
            self.outcome.stale.len(),
            self.stale_manifest.len()
        );
        out
    }
}

/// Directories never scanned: third-party stubs, build output, VCS
/// metadata and hidden directories.
fn skip_dir(name: &str) -> bool {
    name == "vendor" || name == "target" || name.starts_with('.')
}

/// Collects every `.rs` file under `root`, sorted by relative path so the
/// report (and therefore the JSON artifact) is deterministic.
pub fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| LintError::Io(dir.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::Io(dir.clone(), e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let file_type = entry
                .file_type()
                .map_err(|e| LintError::Io(path.clone(), e))?;
            if file_type.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs the full analysis and matches it against the baseline.
pub fn run(opts: &RunOptions) -> Result<Report, LintError> {
    let manifest_path = opts
        .hotpaths
        .clone()
        .unwrap_or_else(|| opts.root.join("lint/hotpaths.toml"));
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => manifest::parse(&text).map_err(LintError::Manifest)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && opts.hotpaths.is_none() => {
            manifest::Manifest::default()
        }
        Err(e) => return Err(LintError::Io(manifest_path, e)),
    };
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("lint/baseline.json"));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text).map_err(LintError::Baseline)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && opts.baseline.is_none() => {
            Baseline::default()
        }
        Err(e) => return Err(LintError::Io(baseline_path, e)),
    };

    // Pass 1: analyze every file, so the call graph sees the whole
    // workspace before any rule runs.
    let files = collect_rs_files(&opts.root)?;
    let mut analyzed = Vec::with_capacity(files.len());
    for path in &files {
        let source = std::fs::read_to_string(path).map_err(|e| LintError::Io(path.clone(), e))?;
        let rel = rel_path(&opts.root, path);
        analyzed.push(analyze::SourceFile::analyze(&rel, &source));
    }
    // Pass 2: build the workspace call graph and run all rules over it.
    let ws = callgraph::Workspace::new(&analyzed);
    let graph = callgraph::CallGraph::build(&ws);
    let (mut findings, stale_manifest) = rules::run_workspace(&ws, &graph, &manifest);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    let callgraph_json = graph.to_json();
    let outcome = baseline.apply(findings.clone());
    Ok(Report {
        outcome,
        files_scanned: files.len(),
        raw_findings: findings,
        baseline,
        stale_manifest,
        callgraph: callgraph_json,
    })
}
