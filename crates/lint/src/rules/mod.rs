//! The contract rules. L1–L5 are pure functions from one analyzed
//! [`SourceFile`] (plus the manifest) to findings; L3 and the graph rules
//! L6–L8 additionally consume the workspace call graph (see the
//! submodules). `run_all` applies the full pipeline to a single file —
//! the whole-workspace entry point is [`run_workspace`].
//!
//! | rule | name                          | scope                                     |
//! |------|-------------------------------|-------------------------------------------|
//! | L1   | unsafe-without-safety-comment | every `.rs` file                          |
//! | L2   | panic-in-library              | library code outside test scope           |
//! | L3   | hotpath-allocation            | allocation-reachability closure of the    |
//! |      |                               | fns named in hotpaths.toml                |
//! | L4   | nondeterministic-construct    | library code of the determinism crates    |
//! | L5   | adhoc-telemetry               | library code outside `cfaopc-trace`       |
//! | L6   | panic-reachable-from-runner   | closure of the `[[panic_entry]]` fns      |
//! | L7   | lock-discipline               | library code of the `[locks]` crates      |
//! | L8   | unordered-parallel-merge      | parallel-primitive call sites in the      |
//! |      |                               | determinism crates                        |

pub mod hotpath;
pub mod locks;
pub mod merge;
pub mod panics;

use crate::analyze::{LineClass, SourceFile};
use crate::callgraph::{CallGraph, Workspace};
use crate::lexer::TokKind;
use crate::manifest::Manifest;

/// One rule violation at a specific site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: "L1" … "L8".
    pub rule: &'static str,
    /// Stable rule slug, e.g. "unsafe-without-safety-comment".
    pub name: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed text of the offending line — the baseline key, so entries
    /// survive unrelated line drift.
    pub snippet: String,
}

/// A manifest entry naming a fn (or file) that no longer exists — silent
/// drift the run reports separately and maps to exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleManifest {
    /// Manifest section: "hotpath" or "panic_entry".
    pub section: &'static str,
    /// The entry's file path.
    pub file: String,
    /// The fn name that was not found.
    pub function: String,
}

/// One entry in the shared rule table (JSON report + `--explain`).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id, "L1" … "L8".
    pub id: &'static str,
    /// Stable slug, matching [`Finding::name`].
    pub name: &'static str,
    /// Why the rule exists.
    pub rationale: &'static str,
    /// An example finding message.
    pub example: &'static str,
    /// How to fix (or justify) a finding.
    pub fix: &'static str,
}

/// The rule catalog, in rule order. `--explain <RULE>` prints from this
/// table and the JSON report embeds it, so the two can never drift.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "L1",
        name: "unsafe-without-safety-comment",
        rationale: "Every `unsafe` block encodes a proof obligation; without an adjacent \
                    `// SAFETY:` comment the obligation is invisible to reviewers and decays.",
        example: "`unsafe` is not immediately preceded by a `// SAFETY:` comment",
        fix: "Add a `// SAFETY:` comment directly above the `unsafe` (attributes in between \
              are fine) stating the invariant that makes it sound.",
    },
    RuleInfo {
        id: "L2",
        name: "panic-in-library",
        rationale: "Library code panicking turns recoverable conditions into process aborts; \
                    the workspace contract is a panic-free library surface.",
        example: "`.unwrap()` in non-test library code; return a typed error or baseline with \
                  a justification",
        fix: "Return a typed error (or `unwrap_or_else(|e| e.into_inner())` for poisoned \
              locks); baseline only deliberate invariant checks, with a justification.",
    },
    RuleInfo {
        id: "L3",
        name: "hotpath-allocation",
        rationale: "Steady-state optimizer iterations must not allocate; hotpaths.toml names \
                    the seed fns and L3 flags allocations in every fn reachable from them \
                    through the call graph.",
        example: "`.collect()` in `take`, reachable from hot-path fn `loss_and_gradient_into` \
                  via loss_and_gradient_into -> take (allocation-free contract)",
        fix: "Hoist the allocation to setup and reuse pooled buffers; baseline deliberate \
              cold paths (pool refills, one-time setup) with a justification.",
    },
    RuleInfo {
        id: "L4",
        name: "nondeterministic-construct",
        rationale: "Crates feeding golden files must be byte-deterministic across thread \
                    counts; hash iteration order and exact float comparison both break that.",
        example: "`HashMap` in a determinism crate; use BTreeMap/BTreeSet or an ordered Vec",
        fix: "Use BTreeMap/BTreeSet or a sorted Vec; compare floats with an explicit \
              tolerance or bit pattern.",
    },
    RuleInfo {
        id: "L5",
        name: "adhoc-telemetry",
        rationale: "Telemetry counters must go through the gated cfaopc-trace API so disabled \
                    tracing stays zero-cost and counter placement stays auditable.",
        example: "ad-hoc atomic `.fetch_add()` outside cfaopc-trace; route counters through \
                  the gated trace API",
        fix: "Replace the raw atomic with a cfaopc-trace counter; only the exempt crates may \
              touch atomics directly.",
    },
    RuleInfo {
        id: "L6",
        name: "panic-reachable-from-runner",
        rationale: "A panic anywhere in the call closure of a cfaopc-serve runner entry point \
                    kills the runner thread and strands every queued job.",
        example: "`.expect(...)` in `spawn_worker` is reachable from runner entry `execute` \
                  via execute -> par_map -> spawn_worker; a panicking runner strands queued \
                  jobs",
        fix: "Convert the panic site to a typed error propagated to the runner's job-failure \
              path; baseline only sites whose failure is unrecoverable by construction.",
    },
    RuleInfo {
        id: "L7",
        name: "lock-discipline",
        rationale: "Nested `.lock()` acquisitions in inconsistent order deadlock under \
                    contention, and blocking I/O under a held guard stalls every thread \
                    waiting on that Mutex.",
        example: "blocking `.write_all(...)` while `self.inner` mutex guard is live; move \
                  the I/O outside the critical section",
        fix: "Acquire locks in one global order; copy data out and drop the guard before \
              blocking calls. Baseline deliberate cases (e.g. a writer lock held across one \
              line write for atomicity) with a justification.",
    },
    RuleInfo {
        id: "L8",
        name: "unordered-parallel-merge",
        rationale: "par_map/par_index_claim claim work in nondeterministic order; `+=` \
                    accumulation inside their closures makes float results depend on thread \
                    timing, breaking golden-file identity.",
        example: "`+=` accumulation inside a `par_index_claim` closure in a determinism \
                  crate; claim order is nondeterministic",
        fix: "Write per-index results and reduce serially in ascending order (or through the \
              ordered-turnstile helpers), or list the fn under `[ordered]` in hotpaths.toml \
              if it implements such a pattern itself.",
    },
];

/// Looks up a rule by id (`L3`) or slug (`hotpath-allocation`),
/// case-insensitively.
pub fn rule_info(query: &str) -> Option<&'static RuleInfo> {
    let q = query.trim().to_ascii_lowercase();
    CATALOG
        .iter()
        .find(|r| r.id.to_ascii_lowercase() == q || r.name.to_ascii_lowercase() == q)
}

/// Runs the full pipeline over one file as a single-file workspace: the
/// per-file rules plus the graph rules L3/L6/L7/L8, whose closures then
/// stay within the file. Stale-manifest entries are ignored here — a
/// single file can't see the rest of the workspace.
pub fn run_all(file: &SourceFile, manifest: &Manifest) -> Vec<Finding> {
    let sources = std::slice::from_ref(file);
    let ws = Workspace::new(sources);
    let graph = CallGraph::build(&ws);
    let (mut findings, _stale) = run_workspace(&ws, &graph, manifest);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// Runs every rule over an analyzed workspace. Returns the findings
/// (unsorted — the report layer sorts) and any stale manifest entries.
pub fn run_workspace(
    ws: &Workspace<'_>,
    graph: &CallGraph,
    manifest: &Manifest,
) -> (Vec<Finding>, Vec<StaleManifest>) {
    let mut findings = Vec::new();
    let mut stale = Vec::new();
    for entry in &ws.files {
        let file = entry.source;
        l1_unsafe_safety(file, &mut findings);
        l2_panic_surface(file, &mut findings);
        l4_determinism(file, manifest, &mut findings);
        l5_telemetry(file, manifest, &mut findings);
    }
    hotpath::run(ws, graph, manifest, &mut findings, &mut stale);
    panics::run(ws, graph, manifest, &mut findings, &mut stale);
    locks::run(ws, manifest, &mut findings);
    merge::run(ws, manifest, &mut findings);
    (findings, stale)
}

fn push(
    findings: &mut Vec<Finding>,
    file: &SourceFile,
    rule: &'static str,
    name: &'static str,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        name,
        file: file.rel.clone(),
        line,
        message,
        snippet: file.snippet(line),
    });
}

/// The previous non-comment token before index `i`.
fn prev_tok(file: &SourceFile, i: usize) -> Option<&crate::lexer::Tok> {
    file.toks[..i]
        .iter()
        .rev()
        .find(|t| !matches!(t.kind, TokKind::Comment { .. }))
}

/// The next non-comment token after index `i`.
fn next_tok(file: &SourceFile, i: usize) -> Option<&crate::lexer::Tok> {
    file.toks[i + 1..]
        .iter()
        .find(|t| !matches!(t.kind, TokKind::Comment { .. }))
}

/// Whether the identifier at `i` is used as a method call: preceded by
/// `.` and followed by `(` or a `::<…>` turbofish. The `.` requirement
/// keeps free functions that share a name (like eval's `expect`) clean.
fn is_method_call(file: &SourceFile, i: usize) -> bool {
    prev_tok(file, i).is_some_and(|t| t.is_punct("."))
        && next_tok(file, i).is_some_and(|t| t.is_punct("(") || t.is_punct("::"))
}

/// L1: every `unsafe` keyword must be immediately preceded by a comment
/// block containing `SAFETY:` (attribute lines in between are skipped; a
/// blank line breaks the association). Applies everywhere, tests included.
fn l1_unsafe_safety(file: &SourceFile, findings: &mut Vec<Finding>) {
    for tok in &file.toks {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let line = tok.line;
        if has_safety_comment(file, line) {
            continue;
        }
        // Several `unsafe` tokens can share a line (e.g. chained
        // `unsafe { … }` expressions); one missing comment yields one
        // finding, so dedup by line.
        if findings
            .iter()
            .any(|f| f.rule == "L1" && f.file == file.rel && f.line == line)
        {
            continue;
        }
        push(
            findings,
            file,
            "L1",
            "unsafe-without-safety-comment",
            line,
            "`unsafe` is not immediately preceded by a `// SAFETY:` comment".to_string(),
        );
    }
}

fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
    // Accept `SAFETY:` on the `unsafe` line itself (trailing or inline
    // block comment).
    if file.snippet(line).contains("SAFETY:") {
        return true;
    }
    // Walk upward: skip attribute lines, then require a contiguous
    // comment block and search it for `SAFETY:`.
    let mut l = line.saturating_sub(1);
    while l >= 1 && file.class_of(l) == LineClass::Attr {
        l -= 1;
    }
    if l == 0 || file.class_of(l) != LineClass::Comment {
        return false;
    }
    while l >= 1 && file.class_of(l) == LineClass::Comment {
        if file.snippet(l).contains("SAFETY:") {
            return true;
        }
        l -= 1;
    }
    false
}

/// L2: no `.unwrap()` / `.expect(…)` / `panic!` / `unreachable!` /
/// `todo!` / `unimplemented!` in non-test library code.
fn l2_panic_surface(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !file.role.library {
        return;
    }
    for (i, tok) in file.toks.iter().enumerate() {
        if file.in_test_scope[i] || tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            // Method calls only: a leading `.` distinguishes them from
            // free functions that happen to share the name.
            "unwrap" | "expect" if is_method_call(file, i) => {
                push(
                    findings,
                    file,
                    "L2",
                    "panic-in-library",
                    tok.line,
                    format!("`.{}()` in non-test library code; return a typed error or baseline with a justification", tok.text),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next_tok(file, i).is_some_and(|t| t.is_punct("!")) =>
            {
                push(
                    findings,
                    file,
                    "L2",
                    "panic-in-library",
                    tok.line,
                    format!("`{}!` in non-test library code; return a typed error or baseline with a justification", tok.text),
                );
            }
            _ => {}
        }
    }
}

/// Allocation sites inside a token range: `Vec::new` / `vec!` /
/// `.to_vec()` / `.collect()` / `.clone()` / `Box::new` and the
/// `with_capacity` variants. Shared by the interprocedural L3 in
/// [`hotpath`].
pub(crate) fn allocation_hits(file: &SourceFile, body: (usize, usize)) -> Vec<(u32, &'static str)> {
    let (open, close) = body;
    let mut hits = Vec::new();
    for i in open..=close.min(file.toks.len().saturating_sub(1)) {
        let tok = &file.toks[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        let hit: Option<&'static str> = match tok.text.as_str() {
            "Vec" | "Box" => {
                let path = next_tok(file, i).is_some_and(|t| t.is_punct("::"))
                    && file.toks[i + 1..]
                        .iter()
                        .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
                        .nth(1)
                        .is_some_and(|t| t.is_ident("new") || t.is_ident("with_capacity"));
                path.then(|| {
                    if tok.text == "Vec" {
                        "Vec::new"
                    } else {
                        "Box::new"
                    }
                })
            }
            "vec" => next_tok(file, i)
                .is_some_and(|t| t.is_punct("!"))
                .then_some("vec!"),
            "to_vec" | "collect" | "clone" => {
                is_method_call(file, i).then_some(match tok.text.as_str() {
                    "to_vec" => ".to_vec()",
                    "collect" => ".collect()",
                    _ => ".clone()",
                })
            }
            _ => None,
        };
        if let Some(what) = hit {
            hits.push((tok.line, what));
        }
    }
    hits
}

/// Panic sites inside a token range: `.unwrap()` / `.expect(…)` method
/// calls and the panic-family macros, skipping test-scope tokens. Shared
/// by the reachability rule L6 in [`panics`].
pub(crate) fn panic_sites(file: &SourceFile, body: (usize, usize)) -> Vec<(u32, String)> {
    let (open, close) = body;
    let mut sites = Vec::new();
    for i in open..=close.min(file.toks.len().saturating_sub(1)) {
        let tok = &file.toks[i];
        if file.in_test_scope.get(i).copied().unwrap_or(false) || tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "unwrap" | "expect" if is_method_call(file, i) => {
                sites.push((tok.line, format!(".{}(...)", tok.text)));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next_tok(file, i).is_some_and(|t| t.is_punct("!")) =>
            {
                sites.push((tok.line, format!("{}!", tok.text)));
            }
            _ => {}
        }
    }
    sites
}

/// L4: determinism crates may not use `HashMap`/`HashSet` (iteration
/// order feeds golden files) nor compare floats with bare `==`/`!=`.
fn l4_determinism(file: &SourceFile, manifest: &Manifest, findings: &mut Vec<Finding>) {
    if !file.role.library
        || !manifest
            .determinism_crates
            .iter()
            .any(|c| c == &file.role.crate_name)
    {
        return;
    }
    for (i, tok) in file.toks.iter().enumerate() {
        if file.in_test_scope[i] {
            continue;
        }
        if tok.kind == TokKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
            push(
                findings,
                file,
                "L4",
                "nondeterministic-construct",
                tok.line,
                format!(
                    "`{}` in a determinism crate; use BTreeMap/BTreeSet or an ordered Vec",
                    tok.text
                ),
            );
        }
        if tok.is_punct("==") || tok.is_punct("!=") {
            let float_operand = prev_tok(file, i).is_some_and(|t| t.kind == TokKind::Float)
                || next_tok(file, i).is_some_and(|t| t.kind == TokKind::Float);
            if float_operand {
                push(
                    findings,
                    file,
                    "L4",
                    "nondeterministic-construct",
                    tok.line,
                    format!("bare float `{}` comparison in a determinism crate; compare with an explicit tolerance or bit pattern", tok.text),
                );
            }
        }
    }
}

/// L5: telemetry must go through the gated `cfaopc-trace` entry points —
/// no ad-hoc `.fetch_add(…)`-style counters and no `static Atomic*`
/// declarations outside the exempt crates.
fn l5_telemetry(file: &SourceFile, manifest: &Manifest, findings: &mut Vec<Finding>) {
    if !file.role.library
        || manifest
            .telemetry_exempt
            .iter()
            .any(|c| c == &file.role.crate_name)
    {
        return;
    }
    for (i, tok) in file.toks.iter().enumerate() {
        if file.in_test_scope[i] || tok.kind != TokKind::Ident {
            continue;
        }
        if matches!(
            tok.text.as_str(),
            "fetch_add" | "fetch_sub" | "fetch_or" | "fetch_and"
        ) && is_method_call(file, i)
        {
            push(
                findings,
                file,
                "L5",
                "adhoc-telemetry",
                tok.line,
                format!("ad-hoc atomic `.{}()` outside cfaopc-trace; route counters through the gated trace API", tok.text),
            );
        }
        if tok.text.starts_with("Atomic") {
            // `static NAME: AtomicU64 = …` within the preceding few tokens.
            let recent: Vec<&crate::lexer::Tok> = file.toks[..i]
                .iter()
                .rev()
                .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
                .take(4)
                .collect();
            if recent.iter().any(|t| t.is_ident("static")) {
                push(
                    findings,
                    file,
                    "L5",
                    "adhoc-telemetry",
                    tok.line,
                    format!(
                        "`static {}` counter outside cfaopc-trace; use a gated trace counter",
                        tok.text
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        crate::manifest::parse(
            "[[hotpath]]\nfile = \"crates/core/src/hot.rs\"\nfunctions = [\"hot\"]\n\n[determinism]\ncrates = [\"eval\"]\n\n[telemetry]\nexempt = [\"trace\"]\n",
        )
        .expect("test manifest")
    }

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        run_all(&SourceFile::analyze(rel, src), &manifest())
    }

    #[test]
    fn l1_flags_uncommented_unsafe_and_accepts_safety() {
        let bad = lint("crates/x/src/a.rs", "fn f() { unsafe { g() } }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "L1");
        assert_eq!(bad[0].line, 1);

        let good = lint(
            "crates/x/src/a.rs",
            "fn f() {\n    // SAFETY: g upholds the contract.\n    unsafe { g() }\n}\n",
        );
        assert!(good.is_empty());
    }

    #[test]
    fn l1_skips_attributes_between_comment_and_unsafe() {
        let good = lint(
            "crates/x/src/a.rs",
            "// SAFETY: sound because reasons.\n#[inline]\nunsafe fn f() {}\n",
        );
        assert!(good.is_empty());
    }

    #[test]
    fn l1_not_fooled_by_strings_or_docs() {
        let src =
            "/// This fn is not `unsafe` at all.\nfn f() -> &'static str { \"unsafe { }\" }\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn l2_flags_library_unwrap_but_not_tests_or_bins() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint("crates/x/src/a.rs", src).len(), 1);
        assert!(lint("crates/x/tests/a.rs", src).is_empty());
        assert!(lint("crates/x/src/bin/tool.rs", src).is_empty());
        let test_scoped =
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint("crates/x/src/a.rs", test_scoped).is_empty());
    }

    #[test]
    fn l2_requires_method_position() {
        // A free function named `expect` (as in the JSON parser) is fine.
        let src = "fn expect(t: Tok) -> Tok { t }\nfn f(t: Tok) { expect(t); }\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn l2_flags_panic_macros() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { unreachable!(); }\nfn h() { todo!(); }\n";
        let findings = lint("crates/x/src/a.rs", src);
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.rule == "L2"));
    }

    #[test]
    fn l3_flags_allocation_in_named_hot_fn_only() {
        let src = "pub fn hot(xs: &[u8]) -> Vec<u8> { xs.to_vec() }\npub fn cold(xs: &[u8]) -> Vec<u8> { xs.to_vec() }\n";
        let findings = lint("crates/core/src/hot.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "L3");
        assert!(findings[0].message.contains("`hot`"));
    }

    #[test]
    fn l3_catches_each_allocator() {
        let src = "pub fn hot() {\n    let a = Vec::new();\n    let b = vec![0u8];\n    let c = b.clone();\n    let d: Vec<u8> = c.iter().copied().collect();\n    let e = Box::new(d);\n    drop((a, e));\n}\n";
        let findings = lint("crates/core/src/hot.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["L3"; 5]);
    }

    #[test]
    fn l4_flags_hash_collections_and_float_eq_in_determinism_crates() {
        let src = "use std::collections::HashMap;\nfn f(x: f64) -> bool { x == 0.5 }\n";
        let findings = lint("crates/eval/src/a.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "L4"));
        // Same code outside a determinism crate is fine.
        assert!(lint("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn l4_ignores_integer_comparisons() {
        let src = "fn f(x: usize) -> bool { x == 5 }\n";
        assert!(lint("crates/eval/src/a.rs", src).is_empty());
    }

    #[test]
    fn l5_flags_adhoc_atomics_outside_trace() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\nfn f() { HITS.fetch_add(1, Ordering::Relaxed); }\n";
        let findings = lint("crates/core/src/a.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "L5"));
        // The trace crate itself is exempt.
        assert!(lint("crates/trace/src/a.rs", src).is_empty());
    }

    #[test]
    fn l5_allows_non_static_atomic_fields() {
        let src = "struct Pool { next: AtomicUsize }\nfn f(p: &Pool) -> usize { p.next.load(Ordering::Relaxed) }\n";
        assert!(lint("crates/core/src/a.rs", src).is_empty());
    }
}
