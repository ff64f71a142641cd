//! Rule L3 (interprocedural): the allocation-reachability closure.
//!
//! `lint/hotpaths.toml` names the seed fns; every workspace fn reachable
//! from a seed through the call graph inherits the allocation-free
//! contract, so an allocation hidden in a helper one (or five) calls away
//! from `render_tiles` is flagged exactly like one in `render_tiles` itself.
//! Seed entries whose file or fn no longer exists are reported as stale
//! manifest drift (exit code 2).

use crate::callgraph::{CallGraph, Workspace};
use crate::manifest::Manifest;
use crate::parser::FnItem;

use super::{allocation_hits, push, Finding, StaleManifest};

/// Token sub-ranges of fn `idx`'s body that belong to it alone — nested
/// `fn` items are excluded (they are graph nodes of their own, so scanning
/// them here would double-count their sites).
pub(crate) fn own_ranges(fns: &[FnItem], idx: usize) -> Vec<(usize, usize)> {
    let (open, close) = fns[idx].body;
    let mut children: Vec<(usize, usize)> = fns
        .iter()
        .enumerate()
        .filter(|(j, f)| *j != idx && f.body.0 > open && f.body.1 < close)
        .map(|(_, f)| f.body)
        .collect();
    children.sort_unstable();
    let mut tops: Vec<(usize, usize)> = Vec::new();
    for c in children {
        if tops.last().is_some_and(|t| c.1 <= t.1) {
            continue; // nested inside the previous child
        }
        tops.push(c);
    }
    let mut out = Vec::new();
    let mut cur = open;
    for (a, b) in tops {
        if a > cur {
            out.push((cur, a - 1));
        }
        cur = b + 1;
    }
    if cur <= close {
        out.push((cur, close));
    }
    out
}

/// Runs the rule over the workspace.
pub(crate) fn run(
    ws: &Workspace<'_>,
    graph: &CallGraph,
    manifest: &Manifest,
    findings: &mut Vec<Finding>,
    stale: &mut Vec<StaleManifest>,
) {
    let mut seeds = Vec::new();
    for entry in &manifest.hotpaths {
        for fname in &entry.functions {
            let found = graph.find(&entry.file, fname);
            if found.is_empty() {
                stale.push(StaleManifest {
                    section: "hotpath",
                    file: entry.file.clone(),
                    function: fname.clone(),
                });
            } else {
                seeds.extend(found);
            }
        }
    }
    let cl = graph.closure(&seeds);
    for (idx, node) in graph.nodes.iter().enumerate() {
        if !cl.reached[idx] || node.in_test_scope {
            continue;
        }
        let entry = &ws.files[node.file_idx];
        if !entry.source.role.library {
            continue;
        }
        let is_seed = cl.parent[idx].is_none();
        for range in own_ranges(&entry.parsed.fns, node.item_idx) {
            for (line, what) in allocation_hits(entry.source, range) {
                let message = if is_seed {
                    format!(
                        "`{what}` inside hot-path fn `{}` (allocation-free contract)",
                        node.name
                    )
                } else {
                    let seed = cl.seed_of[idx]
                        .map(|s| graph.nodes[s].name.as_str())
                        .unwrap_or("?");
                    format!(
                        "`{what}` in `{}`, reachable from hot-path fn `{seed}` via {} (allocation-free contract)",
                        node.name,
                        graph.chain(&cl, idx).join(" -> "),
                    )
                };
                push(
                    findings,
                    entry.source,
                    "L3",
                    "hotpath-allocation",
                    line,
                    message,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::SourceFile;
    use crate::manifest;
    use crate::rules::run_all;

    #[test]
    fn flags_allocation_one_call_removed_from_a_seed() {
        let m = manifest::parse(
            "[[hotpath]]\nfile = \"crates/core/src/hot.rs\"\nfunctions = [\"hot\"]\n",
        )
        .expect("manifest");
        let src = "\
pub fn hot(xs: &[u8]) -> Vec<u8> { helper(xs) }
fn helper(xs: &[u8]) -> Vec<u8> { xs.to_vec() }
fn unrelated(xs: &[u8]) -> Vec<u8> { xs.to_vec() }
";
        let findings = run_all(&SourceFile::analyze("crates/core/src/hot.rs", src), &m);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "L3");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0]
            .message
            .contains("reachable from hot-path fn `hot`"));
        assert!(findings[0].message.contains("hot -> helper"));
    }

    #[test]
    fn recursion_terminates() {
        let m = manifest::parse(
            "[[hotpath]]\nfile = \"crates/core/src/hot.rs\"\nfunctions = [\"hot\"]\n",
        )
        .expect("manifest");
        let src = "\
pub fn hot(n: usize) { if n > 0 { hot(n - 1); ping(n); } }
fn ping(n: usize) { pong(n); }
fn pong(n: usize) { ping(n); let v = vec![n]; drop(v); }
";
        let findings = run_all(&SourceFile::analyze("crates/core/src/hot.rs", src), &m);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("hot -> ping -> pong"));
    }
}
