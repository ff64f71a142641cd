//! End-to-end tests of the `cfaopc-lint` binary against scratch
//! workspaces, covering the acceptance contract: seeding one violation
//! of each rule L1–L8 exits non-zero with a JSON finding naming file,
//! line and rule; the interprocedural L3 catches an allocation one call
//! removed from its seed; stale manifest entries exit 2 like a stale
//! baseline; and `--explain` / `--callgraph` expose the rule catalog and
//! the resolved graph.

use std::path::{Path, PathBuf};
use std::process::Command;

use cfaopc_trace::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_cfaopc-lint");

/// Fresh scratch directory under cargo's per-target tmp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, text).unwrap();
}

fn run_lint(root: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN)
        .current_dir(root)
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const HOTPATHS: &str = r#"
[[hotpath]]
file = "crates/litho/src/hot.rs"
functions = ["tight_loop"]

[determinism]
crates = ["eval"]

[telemetry]
exempt = ["trace"]
"#;

/// One violation of each rule, each in its own file so the JSON can be
/// checked finding-by-finding.
fn seed_violations(root: &Path) {
    write(root, "lint/hotpaths.toml", HOTPATHS);
    // L1: unsafe with no SAFETY comment (line 2).
    write(
        root,
        "crates/litho/src/lib.rs",
        "pub fn deref(p: *const u8) -> u8 {\n    unsafe { *p }\n}\npub mod hot;\n",
    );
    // L2: unwrap in non-test library code (line 2).
    write(
        root,
        "crates/litho/src/panicky.rs",
        "pub fn first(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n",
    );
    // L3: allocation inside a manifest-listed hot path (line 2).
    write(
        root,
        "crates/litho/src/hot.rs",
        "pub fn tight_loop(n: usize) -> Vec<u8> {\n    let out: Vec<u8> = Vec::new();\n    out\n}\n",
    );
    // L4: bare float == in a determinism crate (line 2).
    write(
        root,
        "crates/eval/src/lib.rs",
        "pub fn is_zero(a: f64) -> bool {\n    a == 0.0\n}\n",
    );
    // L5: ad-hoc static atomic counter outside cfaopc-trace (line 3).
    write(
        root,
        "crates/litho/src/counters.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\nstatic CALLS: AtomicU64 = AtomicU64::new(0);\npub fn bump() { CALLS.fetch_add(1, Ordering::Relaxed); }\n",
    );
}

fn parse_report(root: &Path, json_rel: &str) -> Json {
    let text = std::fs::read_to_string(root.join(json_rel)).unwrap();
    Json::parse(&text).unwrap()
}

#[test]
fn seeded_violations_of_every_rule_fail_with_json_findings() {
    let root = scratch("seeded");
    seed_violations(&root);
    let (code, stdout, stderr) = run_lint(&root, &["--check", "--json", "report.json"]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");

    let report = parse_report(&root, "report.json");
    let findings = report.get("findings").and_then(Json::as_array).unwrap();
    let expect = [
        ("L1", "crates/litho/src/lib.rs", 2),
        ("L2", "crates/litho/src/panicky.rs", 2),
        ("L3", "crates/litho/src/hot.rs", 2),
        ("L4", "crates/eval/src/lib.rs", 2),
        ("L5", "crates/litho/src/counters.rs", 3),
    ];
    for (rule, file, line) in expect {
        let hit = findings.iter().any(|f| {
            f.get("rule").and_then(Json::as_str) == Some(rule)
                && f.get("file").and_then(Json::as_str) == Some(file)
                && f.get("line").and_then(Json::as_usize) == Some(line)
        });
        assert!(hit, "missing {rule} at {file}:{line} in:\n{stdout}");
    }
    let summary = report.get("summary").unwrap();
    assert_eq!(summary.get("exit_code").and_then(Json::as_usize), Some(1));
    assert!(summary.get("new").and_then(Json::as_usize).unwrap() >= 5);
}

#[test]
fn update_baseline_then_check_is_clean() {
    let root = scratch("baselined");
    seed_violations(&root);
    let (code, stdout, stderr) = run_lint(&root, &["--update-baseline"]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(root.join("lint/baseline.json").is_file());

    let (code, stdout, _) = run_lint(&root, &["--check", "--json", "report.json"]);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    let report = parse_report(&root, "report.json");
    let summary = report.get("summary").unwrap();
    assert_eq!(summary.get("new").and_then(Json::as_usize), Some(0));
    assert!(summary.get("baselined").and_then(Json::as_usize).unwrap() >= 5);

    // Baselined entries carry the placeholder justification until a
    // human rewrites it; the JSON must surface it for review.
    let findings = report.get("findings").and_then(Json::as_array).unwrap();
    assert!(findings
        .iter()
        .all(|f| f.get("baselined") == Some(&Json::Bool(true))));
}

#[test]
fn fixing_a_baselined_site_turns_the_entry_stale() {
    let root = scratch("stale");
    seed_violations(&root);
    let (code, _, _) = run_lint(&root, &["--update-baseline"]);
    assert_eq!(code, 0);

    // Fix the L2 site; its baseline entry now matches nothing.
    write(
        root.as_path(),
        "crates/litho/src/panicky.rs",
        "pub fn first(v: &[u8]) -> Option<u8> {\n    v.first().copied()\n}\n",
    );
    let (code, stdout, _) = run_lint(&root, &["--check", "--json", "report.json"]);
    assert_eq!(code, 2, "stdout:\n{stdout}");
    let report = parse_report(&root, "report.json");
    let stale = report
        .get("stale_baseline")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(stale.len(), 1);
    assert_eq!(
        stale[0].get("file").and_then(Json::as_str),
        Some("crates/litho/src/panicky.rs")
    );
    assert!(stdout.contains("stale baseline entry"));
}

#[test]
fn clean_workspace_exits_zero_without_manifest_or_baseline() {
    let root = scratch("clean");
    write(
        root.as_path(),
        "crates/litho/src/lib.rs",
        "/// Nothing objectionable.\npub fn id(x: u8) -> u8 {\n    x\n}\n",
    );
    let (code, stdout, stderr) = run_lint(&root, &["--check"]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
}

#[test]
fn interprocedural_l3_flags_helper_one_call_removed_from_the_seed() {
    let root = scratch("interproc");
    write(
        &root,
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/litho/src/hot.rs\"\nfunctions = [\"tight_loop\"]\n",
    );
    write(
        &root,
        "crates/litho/src/hot.rs",
        "pub fn tight_loop(xs: &mut [u8]) {\n    normalize(xs);\n}\n",
    );
    write(
        &root,
        "crates/litho/src/helpers.rs",
        "pub fn normalize(xs: &mut [u8]) {\n    let scratch = xs.to_vec();\n    drop(scratch);\n}\n",
    );
    let (code, stdout, _) = run_lint(&root, &["--check", "--json", "report.json"]);
    assert_eq!(code, 1, "stdout:\n{stdout}");
    let report = parse_report(&root, "report.json");
    let findings = report.get("findings").and_then(Json::as_array).unwrap();
    let hit = findings
        .iter()
        .find(|f| {
            f.get("rule").and_then(Json::as_str) == Some("L3")
                && f.get("file").and_then(Json::as_str) == Some("crates/litho/src/helpers.rs")
                && f.get("line").and_then(Json::as_usize) == Some(2)
        })
        .unwrap_or_else(|| panic!("no interprocedural L3 finding in:\n{stdout}"));
    let message = hit.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("reachable from hot-path fn `tight_loop`"));
    assert!(message.contains("tight_loop -> normalize"));
}

#[test]
fn stale_manifest_entry_exits_two() {
    let root = scratch("stale-manifest");
    write(
        &root,
        "lint/hotpaths.toml",
        "[[hotpath]]\nfile = \"crates/litho/src/hot.rs\"\nfunctions = [\"renamed_away\"]\n",
    );
    write(&root, "crates/litho/src/hot.rs", "pub fn tight_loop() {}\n");
    let (code, stdout, _) = run_lint(&root, &["--check", "--json", "report.json"]);
    assert_eq!(code, 2, "stdout:\n{stdout}");
    assert!(stdout.contains("stale manifest entry"));
    assert!(stdout.contains("renamed_away"));
    let report = parse_report(&root, "report.json");
    let stale = report
        .get("stale_manifest")
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(stale.len(), 1);
    assert_eq!(
        stale[0].get("section").and_then(Json::as_str),
        Some("hotpath")
    );
    assert_eq!(
        stale[0].get("function").and_then(Json::as_str),
        Some("renamed_away")
    );
    let summary = report.get("summary").unwrap();
    assert_eq!(summary.get("exit_code").and_then(Json::as_usize), Some(2));
}

const GRAPH_HOTPATHS: &str = r#"
[[panic_entry]]
file = "crates/serve/src/server.rs"
functions = ["runner_loop"]

[locks]
crates = ["serve"]

[determinism]
crates = ["eval"]
"#;

/// One violation of each graph rule L6/L7/L8, each in its own file.
fn seed_graph_violations(root: &Path) {
    write(root, "lint/hotpaths.toml", GRAPH_HOTPATHS);
    // L6: panic two calls below the runner entry (worker.rs line 5).
    write(
        root,
        "crates/serve/src/server.rs",
        "pub fn runner_loop(jobs: &[u8]) {\n    for j in jobs {\n        step(*j);\n    }\n}\n",
    );
    write(
        root,
        "crates/serve/src/worker.rs",
        "pub fn step(j: u8) {\n    check(j);\n}\nfn check(j: u8) {\n    if j > 7 { panic!(\"bad job\") }\n}\n",
    );
    // L7: blocking write while a mutex guard is live (stream.rs line 3).
    write(
        root,
        "crates/serve/src/stream.rs",
        "pub fn send_line(s: &Shared, line: &[u8]) {\n    let mut out = s.inner.lock().unwrap_or_else(|e| e.into_inner());\n    let _ = out.write_all(line);\n}\n",
    );
    // L8: `+=` inside a parallel primitive's closure (sums.rs line 4).
    write(
        root,
        "crates/eval/src/sums.rs",
        "pub fn total(xs: &[f64]) -> f64 {\n    let mut sum = 0.0;\n    par_index_claim(xs.len(), |i| {\n        sum += xs[i];\n    });\n    sum\n}\n",
    );
}

#[test]
fn seeded_graph_rule_violations_fail_with_json_findings() {
    let root = scratch("graph-seeded");
    seed_graph_violations(&root);
    let (code, stdout, stderr) = run_lint(&root, &["--check", "--json", "report.json"]);
    assert_eq!(code, 1, "stdout:\n{stdout}\nstderr:\n{stderr}");

    let report = parse_report(&root, "report.json");
    let findings = report.get("findings").and_then(Json::as_array).unwrap();
    let expect = [
        ("L6", "crates/serve/src/worker.rs", 5),
        ("L7", "crates/serve/src/stream.rs", 3),
        ("L8", "crates/eval/src/sums.rs", 4),
    ];
    for (rule, file, line) in expect {
        let hit = findings.iter().any(|f| {
            f.get("rule").and_then(Json::as_str) == Some(rule)
                && f.get("file").and_then(Json::as_str) == Some(file)
                && f.get("line").and_then(Json::as_usize) == Some(line)
        });
        assert!(hit, "missing {rule} at {file}:{line} in:\n{stdout}");
    }
    // The L6 message names the whole chain from the runner entry.
    let l6 = findings
        .iter()
        .find(|f| f.get("rule").and_then(Json::as_str) == Some("L6"))
        .unwrap();
    let message = l6.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("runner_loop -> step -> check"),
        "{message}"
    );
    // The report embeds the full rule catalog.
    let rules = report.get("rules").and_then(Json::as_array).unwrap();
    assert_eq!(rules.len(), 8);
}

#[test]
fn explain_prints_the_catalog_entry() {
    let root = scratch("explain");
    let (code, stdout, _) = run_lint(&root, &["--explain", "L6"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("panic-reachable-from-runner"));
    assert!(stdout.contains("fix:"));

    // Slug lookup works too, case-insensitively.
    let (code, stdout, _) = run_lint(&root, &["--explain", "Hotpath-Allocation"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("L3"));

    let (code, _, stderr) = run_lint(&root, &["--explain", "L99"]);
    assert_eq!(code, 3);
    assert!(stderr.contains("unknown rule"));
}

#[test]
fn callgraph_export_names_nodes_and_edges() {
    let root = scratch("graph-export");
    seed_graph_violations(&root);
    let (code, _, _) = run_lint(&root, &["--check", "--callgraph", "graph.json"]);
    assert_eq!(code, 1);
    let graph = parse_report(&root, "graph.json");
    let nodes = graph.get("nodes").and_then(Json::as_array).unwrap();
    let idx_of = |name: &str| {
        nodes
            .iter()
            .position(|n| n.get("fn").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no node {name}"))
    };
    let (runner, step) = (idx_of("runner_loop"), idx_of("step"));
    let edges = graph.get("edges").and_then(Json::as_array).unwrap();
    let has_edge = edges.iter().any(|e| {
        let pair = e.as_array().unwrap();
        pair[0].as_usize() == Some(runner) && pair[1].as_usize() == Some(step)
    });
    assert!(has_edge, "runner_loop -> step edge missing");
}

#[test]
fn self_check_on_the_lint_crate_is_clean() {
    let own = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (code, stdout, stderr) = run_lint(own, &["--check"]);
    assert_eq!(
        code, 0,
        "the linter must pass its own rules\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn unreadable_manifest_is_an_internal_error() {
    let root = scratch("broken-manifest");
    write(
        root.as_path(),
        "lint/hotpaths.toml",
        "[[hotpath]]\nnonsense\n",
    );
    write(root.as_path(), "src/lib.rs", "pub fn f() {}\n");
    let (code, _, stderr) = run_lint(&root, &["--check"]);
    assert_eq!(code, 3, "stderr:\n{stderr}");
    assert!(!stderr.is_empty());
}
