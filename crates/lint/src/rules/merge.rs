//! Rule L8: unordered parallel merge in the determinism crates.
//!
//! `par_map` / `par_index_claim` hand work items to threads in claim
//! order, which varies run to run. A `+=` accumulation
//! inside the argument list of such a call folds float results in that
//! nondeterministic order, so the sum's rounding depends on thread timing
//! and golden-file identity breaks. The fix is to write per-index results
//! and reduce serially in ascending order; fns that implement an ordered
//! reduction themselves (turnstiles, ascending merges) are exempted via
//! the manifest's `[ordered]` section.

use crate::callgraph::Workspace;
use crate::lexer::TokKind;
use crate::manifest::Manifest;

use super::{push, Finding};

/// Parallel primitives whose work-claim order is nondeterministic.
const PRIMITIVES: &[&str] = &["par_index_claim", "par_map"];

/// Runs the rule over the workspace.
pub(crate) fn run(ws: &Workspace<'_>, manifest: &Manifest, findings: &mut Vec<Finding>) {
    for entry in &ws.files {
        let file = entry.source;
        if !file.role.library
            || !manifest
                .determinism_crates
                .iter()
                .any(|c| c == &file.role.crate_name)
        {
            continue;
        }
        for item in &entry.parsed.fns {
            if item.in_test_scope || manifest.ordered_functions.iter().any(|f| f == &item.name) {
                continue;
            }
            for call in &item.calls {
                let Some(prim) = call.path.last().map(String::as_str) else {
                    continue;
                };
                if !PRIMITIVES.contains(&prim) {
                    continue;
                }
                for line in plus_eq_lines(file, call.tok) {
                    push(
                        findings,
                        file,
                        "L8",
                        "unordered-parallel-merge",
                        line,
                        format!(
                            "`+=` accumulation inside a `{prim}` call in `{}`; claim order is nondeterministic — write per-index results and reduce in ascending order, or list the fn under [ordered] in hotpaths.toml",
                            item.name
                        ),
                    );
                }
            }
        }
    }
}

/// Lines of `+=` punctuation inside the argument list that starts at the
/// first `(` after the callee token.
fn plus_eq_lines(file: &crate::analyze::SourceFile, callee: usize) -> Vec<u32> {
    let mut lines = Vec::new();
    let toks = &file.toks;
    let Some(open) = (callee + 1..toks.len()).find(|&i| toks[i].is_punct("(")) else {
        return lines;
    };
    let mut depth = 0i32;
    for tok in &toks[open..] {
        if matches!(tok.kind, TokKind::Comment { .. }) {
            continue;
        }
        if tok.is_punct("(") {
            depth += 1;
        } else if tok.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if tok.is_punct("+=") {
            lines.push(tok.line);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use crate::analyze::SourceFile;
    use crate::manifest::{self, Manifest};
    use crate::rules::{run_all, Finding};

    fn m(ordered: &str) -> Manifest {
        manifest::parse(&format!(
            "[determinism]\ncrates = [\"eval\"]\n\n[ordered]\nfunctions = [{ordered}]\n"
        ))
        .expect("manifest")
    }

    fn lint(rel: &str, src: &str, ordered: &str) -> Vec<Finding> {
        run_all(&SourceFile::analyze(rel, src), &m(ordered))
            .into_iter()
            .filter(|f| f.rule == "L8")
            .collect()
    }

    #[test]
    fn flags_accumulation_inside_a_parallel_closure() {
        let src = "\
fn total(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    par_index_claim(xs.len(), |i| {
        sum += xs[i];
    });
    sum
}
";
        let found = lint("crates/eval/src/a.rs", src, "");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 4);
        assert!(found[0].message.contains("`par_index_claim`"));
        assert!(found[0].message.contains("`total`"));
    }

    #[test]
    fn serial_reduction_after_par_map_is_clean() {
        let src = "\
fn total(xs: &[f64]) -> f64 {
    let parts = par_map(xs, |x| x * 2.0);
    let mut sum = 0.0;
    for p in parts {
        sum += p;
    }
    sum
}
";
        assert!(lint("crates/eval/src/a.rs", src, "").is_empty());
    }

    #[test]
    fn ordered_fns_are_exempt() {
        let src = "\
fn turnstile_total(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    par_index_claim(xs.len(), |i| {
        sum += xs[i];
    });
    sum
}
";
        assert!(lint("crates/eval/src/a.rs", src, "\"turnstile_total\"").is_empty());
        assert_eq!(lint("crates/eval/src/a.rs", src, "").len(), 1);
    }

    #[test]
    fn other_crates_and_tests_are_out_of_scope() {
        let src = "\
fn total(xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    par_map(xs, |x| { sum += x; });
    sum
}
";
        assert!(lint("crates/core/src/a.rs", src, "").is_empty());
        assert!(lint("crates/eval/tests/a.rs", src, "").is_empty());
    }

    #[test]
    fn method_position_par_map_is_also_flagged() {
        let src = "\
fn total(p: &Pool, xs: &[f64]) -> f64 {
    let mut sum = 0.0;
    p.par_map(xs, |x| { sum += x; });
    sum
}
";
        assert_eq!(lint("crates/eval/src/a.rs", src, "").len(), 1);
    }
}
