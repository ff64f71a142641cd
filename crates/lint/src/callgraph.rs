//! Workspace-wide call graph over the parsed item trees.
//!
//! Resolution is deliberately approximate but *predictably* so:
//!
//! * unqualified calls prefer same-file candidates (innermost module
//!   first), then fall back to every same-named fn in the workspace —
//!   ambiguity over-approximates, so reachability rules stay sound;
//! * qualified calls (`a::b::f(…)`) match each qualifier against the
//!   candidate's crate name (`cfaopc_fft` ↔ `crates/fft`), file stem,
//!   module path and `impl` type; paths whose qualifiers match nothing in
//!   the workspace are treated as external (std) and get no edge;
//! * method calls (`x.f(…)`) have no receiver type information: they
//!   resolve only when the workspace defines exactly one fn with that
//!   name (and the name is not a ubiquitous std-trait method); anything
//!   else is an unknown callee with no edge.
//!
//! The closure computation is a plain BFS with a visited set, so cycles
//! (recursion) terminate, and each reached node remembers its BFS parent
//! so findings can print a call chain.

use std::collections::BTreeMap;

use crate::analyze::SourceFile;
use crate::parser::{self, CallSite, ParsedFile};
use cfaopc_trace::json::Json;

/// One analyzed file plus its parsed item tree.
pub struct FileEntry<'a> {
    /// The lexed/classified source.
    pub source: &'a SourceFile,
    /// The parsed items.
    pub parsed: ParsedFile,
}

/// All analyzed files of one lint run.
pub struct Workspace<'a> {
    /// Files in scan order (sorted by relative path by the caller).
    pub files: Vec<FileEntry<'a>>,
}

impl<'a> Workspace<'a> {
    /// Parses every file into the workspace item tree.
    pub fn new(sources: &'a [SourceFile]) -> Workspace<'a> {
        Workspace {
            files: sources
                .iter()
                .map(|source| FileEntry {
                    source,
                    parsed: parser::parse(source),
                })
                .collect(),
        }
    }

    /// The entry for a workspace-relative path.
    pub fn file(&self, rel: &str) -> Option<&FileEntry<'a>> {
        self.files.iter().find(|f| f.source.rel == rel)
    }
}

/// One fn in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into `Workspace::files`.
    pub file_idx: usize,
    /// Index into that file's `parsed.fns`.
    pub item_idx: usize,
    /// Workspace-relative file path.
    pub file: String,
    /// Crate directory name (empty for the root crate).
    pub crate_name: String,
    /// The fn's name.
    pub name: String,
    /// Enclosing inline module path.
    pub module_path: Vec<String>,
    /// Surrounding `impl` block's `Self` type, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn sits in test scope.
    pub in_test_scope: bool,
}

/// Std-trait method names too ubiquitous to attribute to a workspace fn
/// from a `receiver.name(…)` call, even when the workspace happens to
/// define exactly one fn with the name.
const COMMON_METHODS: &[&str] = &[
    "add",
    "as_mut",
    "as_ref",
    "borrow",
    "borrow_mut",
    "clone",
    "cmp",
    "default",
    "deref",
    "deref_mut",
    "div",
    "drop",
    "eq",
    "fill",
    "fmt",
    "flush",
    "from",
    "get",
    "hash",
    "index",
    "index_mut",
    "insert",
    "into",
    "into_iter",
    "iter",
    "iter_mut",
    "len",
    "map",
    "mul",
    "ne",
    "neg",
    "next",
    "not",
    "partial_cmp",
    "pop",
    "push",
    "read",
    "spawn",
    "sub",
    "to_owned",
    "to_string",
    "try_from",
    "try_into",
    "write",
];

/// The resolved call graph: `edges[i]` lists the callee node indices of
/// node `i`, sorted and deduplicated.
pub struct CallGraph {
    /// All workspace fns, in (file, source) order.
    pub nodes: Vec<FnNode>,
    /// Adjacency lists, aligned with `nodes`.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph for a workspace.
    pub fn build(ws: &Workspace<'_>) -> CallGraph {
        let mut nodes = Vec::new();
        for (file_idx, entry) in ws.files.iter().enumerate() {
            for (item_idx, item) in entry.parsed.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file_idx,
                    item_idx,
                    file: entry.source.rel.clone(),
                    crate_name: entry.source.role.crate_name.clone(),
                    name: item.name.clone(),
                    module_path: item.module_path.clone(),
                    impl_type: item.impl_type.clone(),
                    line: item.line,
                    in_test_scope: item.in_test_scope,
                });
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            by_name.entry(node.name.as_str()).or_default().push(i);
        }
        let mut edges = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let entry = &ws.files[node.file_idx];
            let item = &entry.parsed.fns[node.item_idx];
            let mut out = Vec::new();
            for call in &item.calls {
                out.extend(resolve(call, i, &nodes, &by_name, entry));
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&callee| callee != i); // self-recursion is a no-op edge
            edges.push(out);
        }
        CallGraph { nodes, edges }
    }

    /// All nodes for a `(file, fn name)` pair.
    pub fn find(&self, file: &str, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS closure from `seeds`. Cycles terminate via the visited set.
    pub fn closure(&self, seeds: &[usize]) -> Closure {
        let mut reached = vec![false; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut seed_of = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        for &s in seeds {
            if s < reached.len() && !reached[s] {
                reached[s] = true;
                seed_of[s] = Some(s);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if !reached[m] {
                    reached[m] = true;
                    parent[m] = Some(n);
                    seed_of[m] = seed_of[n];
                    queue.push_back(m);
                }
            }
        }
        Closure {
            reached,
            parent,
            seed_of,
        }
    }

    /// The BFS call chain seed → … → `node`, as fn names.
    pub fn chain<'c>(&'c self, closure: &Closure, node: usize) -> Vec<&'c str> {
        let mut names = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            names.push(self.nodes[n].name.as_str());
            cur = closure.parent[n];
        }
        names.reverse();
        names
    }

    /// JSON export for the CI artifact: node table plus `[from, to]`
    /// edge pairs, both in deterministic order.
    pub fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                Json::Obj(vec![
                    ("file".into(), Json::Str(n.file.clone())),
                    ("fn".into(), Json::Str(n.name.clone())),
                    ("line".into(), Json::int(n.line as usize)),
                    ("test".into(), Json::Bool(n.in_test_scope)),
                ])
            })
            .collect();
        let mut pairs = Vec::new();
        for (from, callees) in self.edges.iter().enumerate() {
            for &to in callees {
                pairs.push(Json::Arr(vec![Json::int(from), Json::int(to)]));
            }
        }
        Json::Obj(vec![
            ("nodes".into(), Json::Arr(nodes)),
            ("edges".into(), Json::Arr(pairs)),
        ])
    }
}

/// Result of a reachability closure.
pub struct Closure {
    /// Whether each node is reachable from any seed.
    pub reached: Vec<bool>,
    /// BFS tree parent of each reached node (`None` for seeds).
    pub parent: Vec<Option<usize>>,
    /// The seed each reached node was first reached from.
    pub seed_of: Vec<Option<usize>>,
}

/// Resolves one call site to candidate callee nodes.
fn resolve(
    call: &CallSite,
    caller: usize,
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    entry: &FileEntry<'_>,
) -> Vec<usize> {
    let Some(last) = call.path.last() else {
        return Vec::new();
    };
    if call.method {
        if COMMON_METHODS.contains(&last.as_str()) {
            return Vec::new();
        }
        // No receiver type: resolve only a workspace-unique name,
        // otherwise the callee is unknown (no edge).
        return match by_name.get(last.as_str()) {
            Some(c) if c.len() == 1 => c.clone(),
            _ => Vec::new(),
        };
    }
    // Expand a leading `use` alias (`use a::b as c; c::f()` → `a::b::f()`).
    let mut path: Vec<&str> = call.path.iter().map(|s| s.as_str()).collect();
    let expanded: Vec<String>;
    if let Some(alias) = entry.parsed.uses.iter().find(|u| u.alias == path[0]) {
        let mut full: Vec<String> = alias.path.clone();
        full.extend(path[1..].iter().map(|s| s.to_string()));
        expanded = full;
        path = expanded.iter().map(|s| s.as_str()).collect();
    }
    let (quals, name) = match path.split_last() {
        Some((name, quals)) => (quals, *name),
        None => return Vec::new(),
    };
    let Some(candidates) = by_name.get(name) else {
        return Vec::new(); // external (std or dependency-free) call
    };
    let caller_node = &nodes[caller];
    if quals.is_empty() {
        // Same file, same module wins; then an ancestor module in the
        // same file (deepest first); then any same-file fn; then every
        // same-named fn in the workspace (conservative ambiguity).
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| nodes[c].file_idx == caller_node.file_idx)
            .collect();
        let exact: Vec<usize> = same_file
            .iter()
            .copied()
            .filter(|&c| nodes[c].module_path == caller_node.module_path)
            .collect();
        if !exact.is_empty() {
            return exact;
        }
        let mut ancestors: Vec<usize> = same_file
            .iter()
            .copied()
            .filter(|&c| caller_node.module_path.starts_with(&nodes[c].module_path))
            .collect();
        if !ancestors.is_empty() {
            let deepest = ancestors.iter().map(|&c| nodes[c].module_path.len()).max();
            ancestors.retain(|&c| Some(nodes[c].module_path.len()) == deepest);
            return ancestors;
        }
        if !same_file.is_empty() {
            return same_file;
        }
        return candidates.clone();
    }
    // Qualified: every qualifier must match something the candidate is
    // known by; otherwise the path points outside the workspace.
    candidates
        .iter()
        .copied()
        .filter(|&c| quals.iter().all(|q| qual_matches(q, c, caller, nodes)))
        .collect()
}

/// Whether one path qualifier is compatible with a candidate callee.
fn qual_matches(qual: &str, candidate: usize, caller: usize, nodes: &[FnNode]) -> bool {
    let cand = &nodes[candidate];
    let caller_node = &nodes[caller];
    match qual {
        "crate" | "self" | "super" => cand.crate_name == caller_node.crate_name,
        "Self" => {
            cand.crate_name == caller_node.crate_name
                && caller_node.impl_type.is_some()
                && cand.impl_type == caller_node.impl_type
        }
        _ => {
            let crate_match = qual == cand.crate_name
                || qual.strip_prefix("cfaopc_") == Some(cand.crate_name.as_str())
                || qual.replace('-', "_") == format!("cfaopc_{}", cand.crate_name);
            let stem = cand
                .file
                .rsplit('/')
                .next()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or("");
            crate_match
                || qual == stem
                || cand.module_path.iter().any(|m| m == qual)
                || cand.impl_type.as_deref() == Some(qual)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files
            .iter()
            .map(|(rel, src)| SourceFile::analyze(rel, src))
            .collect()
    }

    fn callee_names(g: &CallGraph, file: &str, name: &str) -> Vec<String> {
        let callers = g.find(file, name);
        assert_eq!(callers.len(), 1, "ambiguous caller {file}:{name}");
        g.edges[callers[0]]
            .iter()
            .map(|&c| format!("{}:{}", g.nodes[c].file, g.nodes[c].name))
            .collect()
    }

    #[test]
    fn shadowed_names_resolve_to_the_callers_module() {
        let srcs = sources(&[(
            "crates/x/src/lib.rs",
            "mod a {\n    fn helper() {}\n    fn go() { helper(); }\n}\nmod b {\n    fn helper() {}\n}\n",
        )]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        let callers = g.find("crates/x/src/lib.rs", "go");
        assert_eq!(callers.len(), 1);
        let callees = &g.edges[callers[0]];
        assert_eq!(callees.len(), 1);
        assert_eq!(g.nodes[callees[0]].module_path, vec!["a"]);
    }

    #[test]
    fn use_as_alias_resolves_across_files() {
        let srcs = sources(&[
            (
                "crates/x/src/caller.rs",
                "use crate::deep::real_helper as h;\nfn go() { h(); }\n",
            ),
            ("crates/x/src/deep.rs", "pub fn real_helper() {}\n"),
            ("crates/y/src/other.rs", "pub fn unrelated() {}\n"),
        ]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        assert_eq!(
            callee_names(&g, "crates/x/src/caller.rs", "go"),
            vec!["crates/x/src/deep.rs:real_helper"]
        );
    }

    #[test]
    fn trait_method_calls_fall_back_to_unknown_callee() {
        // Two same-named methods on different types: a `.run()` call has
        // no receiver type, so neither may be assumed.
        let srcs = sources(&[(
            "crates/x/src/lib.rs",
            "struct A; struct B;\nimpl A { fn run(&self) {} }\nimpl B { fn run(&self) {} }\nfn go(x: &A) { x.run(); }\n",
        )]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        assert_eq!(
            callee_names(&g, "crates/x/src/lib.rs", "go"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn unique_method_name_resolves() {
        let srcs = sources(&[(
            "crates/x/src/lib.rs",
            "struct Pool;\nimpl Pool { fn take_buffer(&self) {} }\nfn go(p: &Pool) { p.take_buffer(); }\n",
        )]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        assert_eq!(
            callee_names(&g, "crates/x/src/lib.rs", "go"),
            vec!["crates/x/src/lib.rs:take_buffer"]
        );
    }

    #[test]
    fn ubiquitous_trait_methods_never_resolve() {
        let srcs = sources(&[(
            "crates/x/src/lib.rs",
            "struct S;\nimpl Clone for S { fn clone(&self) -> S { S } }\nfn go(s: &S) { s.clone(); }\n",
        )]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        assert_eq!(
            callee_names(&g, "crates/x/src/lib.rs", "go"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn qualified_external_paths_get_no_edge() {
        let srcs = sources(&[(
            "crates/x/src/lib.rs",
            "fn new() {}\nfn go() { std::vec::Vec::<u8>::new(); mem::take(); }\nfn take() {}\n",
        )]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        // `Vec::new` and `mem::take` have qualifiers matching nothing in
        // the workspace, so the same-named local fns are not edges.
        assert_eq!(
            callee_names(&g, "crates/x/src/lib.rs", "go"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn ambiguous_unqualified_calls_over_approximate() {
        let srcs = sources(&[
            ("crates/x/src/a.rs", "pub fn shared() {}\n"),
            ("crates/y/src/b.rs", "pub fn shared() {}\n"),
            ("crates/z/src/c.rs", "pub fn go() { shared(); }\n"),
        ]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        assert_eq!(
            callee_names(&g, "crates/z/src/c.rs", "go"),
            vec!["crates/x/src/a.rs:shared", "crates/y/src/b.rs:shared"]
        );
    }

    #[test]
    fn recursion_terminates_and_reaches() {
        let srcs = sources(&[(
            "crates/x/src/lib.rs",
            "fn a() { b(); }\nfn b() { a(); leaf(); }\nfn leaf() {}\n",
        )]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        let seeds = g.find("crates/x/src/lib.rs", "a");
        let cl = g.closure(&seeds);
        let leaf = g.find("crates/x/src/lib.rs", "leaf")[0];
        assert!(cl.reached[leaf]);
        assert_eq!(g.chain(&cl, leaf), vec!["a", "b", "leaf"]);
    }

    #[test]
    fn crate_qualifiers_match_cfaopc_naming() {
        let srcs = sources(&[
            ("crates/fft/src/parallel.rs", "pub fn par_map() {}\n"),
            (
                "crates/chip/src/harness.rs",
                "use cfaopc_fft::parallel as par;\nfn go() { par::par_map(); cfaopc_fft::parallel::par_map(); }\n",
            ),
        ]);
        let ws = Workspace::new(&srcs);
        let g = CallGraph::build(&ws);
        assert_eq!(
            callee_names(&g, "crates/chip/src/harness.rs", "go"),
            vec!["crates/fft/src/parallel.rs:par_map"]
        );
    }
}
