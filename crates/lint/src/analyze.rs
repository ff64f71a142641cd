//! Per-file structural analysis on top of the lexer: line classification
//! (code / comment / attribute / blank), `#[cfg(test)]` and `mod tests`
//! scoping, and the file's role in the workspace (library vs test vs
//! binary code). Rules consume this, and the fn items
//! [`crate::parser::parse`] finds, instead of raw tokens.

use crate::lexer::{Tok, TokKind};

/// What a source line predominantly contains, for the "immediately
/// preceded by a comment" logic of rule L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineClass {
    /// No tokens on the line.
    Blank,
    /// Only comment tokens.
    Comment,
    /// Only attribute tokens (`#[…]` / `#![…]`), possibly plus comments.
    Attr,
    /// Anything else.
    Code,
}

/// A file's place in the workspace, derived from its relative path.
#[derive(Debug, Clone, Default)]
pub struct FileRole {
    /// Crate directory name under `crates/`, or empty for the root crate.
    pub crate_name: String,
    /// True for `crates/*/src/**` and root `src/**`, excluding `main.rs`
    /// and `src/bin/**`: the code subject to L2/L4/L5.
    pub library: bool,
    /// True for files under `tests/`, `benches/` or `examples/`.
    pub test_file: bool,
}

/// Fully analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// The raw source lines (for finding snippets).
    pub src_lines: Vec<String>,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Class of each line; index 0 is line 1.
    pub line_class: Vec<LineClass>,
    /// For each token, whether it sits inside `#[cfg(test)]` or
    /// `mod tests` scope.
    pub in_test_scope: Vec<bool>,
    /// The file's workspace role.
    pub role: FileRole,
}

impl SourceFile {
    /// Analyzes one file.
    pub fn analyze(rel: &str, source: &str) -> SourceFile {
        let toks = crate::lexer::lex(source);
        let src_lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
        let attr_ranges = attr_ranges(&toks);
        let line_class = classify_lines(&toks, &attr_ranges, src_lines.len());
        let in_test_scope = test_scope(&toks, &attr_ranges);
        SourceFile {
            rel: rel.to_string(),
            src_lines,
            toks,
            line_class,
            in_test_scope,
            role: FileRole::from_rel(rel),
        }
    }

    /// The class of a 1-based line (out-of-range lines are blank).
    pub fn class_of(&self, line: u32) -> LineClass {
        let idx = line as usize;
        if idx == 0 {
            return LineClass::Blank;
        }
        self.line_class
            .get(idx - 1)
            .copied()
            .unwrap_or(LineClass::Blank)
    }

    /// The trimmed text of a 1-based line, for finding snippets.
    pub fn snippet(&self, line: u32) -> String {
        let idx = line as usize;
        if idx == 0 {
            return String::new();
        }
        self.src_lines
            .get(idx - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

impl FileRole {
    /// Derives the role from a workspace-relative path.
    pub fn from_rel(rel: &str) -> FileRole {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = if parts.first() == Some(&"crates") {
            parts.get(1).copied().unwrap_or("").to_string()
        } else {
            String::new()
        };
        let test_file = parts
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"));
        let src_tree = if parts.first() == Some(&"crates") {
            parts.get(2) == Some(&"src")
        } else {
            parts.first() == Some(&"src")
        };
        let in_bin = parts.contains(&"bin")
            || parts.last().is_some_and(|p| *p == "main.rs")
            || parts.last().is_some_and(|p| *p == "build.rs");
        FileRole {
            crate_name,
            library: src_tree && !in_bin && !test_file,
            test_file,
        }
    }
}

/// Token-index ranges (inclusive) of attributes: `#[…]` and `#![…]`.
fn attr_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                // Bracket-match to the closing `]`.
                let mut depth = 0i32;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct("[") {
                        depth += 1;
                    } else if toks[k].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                let end = k.min(toks.len().saturating_sub(1));
                ranges.push((i, end));
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

fn in_ranges(idx: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
}

fn classify_lines(toks: &[Tok], attrs: &[(usize, usize)], n_lines: usize) -> Vec<LineClass> {
    let max_line = toks
        .iter()
        .map(|t| t.end_line as usize)
        .max()
        .unwrap_or(0)
        .max(n_lines);
    let mut has_code = vec![false; max_line];
    let mut has_comment = vec![false; max_line];
    let mut has_attr = vec![false; max_line];
    for (idx, tok) in toks.iter().enumerate() {
        let bucket: &mut Vec<bool> = if matches!(tok.kind, TokKind::Comment { .. }) {
            &mut has_comment
        } else if in_ranges(idx, attrs) {
            &mut has_attr
        } else {
            &mut has_code
        };
        for line in tok.line..=tok.end_line {
            if let Some(slot) = bucket.get_mut(line as usize - 1) {
                *slot = true;
            }
        }
    }
    (0..max_line)
        .map(|i| {
            if has_code[i] {
                LineClass::Code
            } else if has_attr[i] {
                LineClass::Attr
            } else if has_comment[i] {
                LineClass::Comment
            } else {
                LineClass::Blank
            }
        })
        .collect()
}

/// Marks token ranges covered by `#[cfg(test)]` items and `mod tests`
/// blocks. Conservative by design: `#[cfg(all(test, …))]` also counts.
fn test_scope(toks: &[Tok], attrs: &[(usize, usize)]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    for &(a, b) in attrs {
        let has_cfg = toks[a..=b].iter().any(|t| t.is_ident("cfg"));
        let has_test = toks[a..=b].iter().any(|t| t.is_ident("test"));
        if !(has_cfg && has_test) {
            continue;
        }
        if let Some((start, end)) = item_extent(toks, b + 1) {
            mark(&mut mask, a, end);
            let _ = start;
        }
    }
    // `mod tests {` — common idiom the issue calls out explicitly.
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].is_ident("mod")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 1].text.starts_with("test")
            && toks[i + 2].is_punct("{")
        {
            if let Some(close) = brace_match(toks, i + 2) {
                mark(&mut mask, i, close);
            }
        }
        i += 1;
    }
    mask
}

fn mark(mask: &mut [bool], from: usize, to: usize) {
    for slot in mask.iter_mut().take(to + 1).skip(from) {
        *slot = true;
    }
}

/// From `start`, finds the extent of the next item: skips further
/// attributes and comments, then runs to the first `;` at depth 0 or to
/// the matching `}` of the first `{`. Returns (first token, last token).
fn item_extent(toks: &[Tok], start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    // Skip comments and subsequent attributes.
    loop {
        match toks.get(i) {
            Some(t) if matches!(t.kind, TokKind::Comment { .. }) => i += 1,
            Some(t) if t.is_punct("#") => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct("!")) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                    let mut depth = 0i32;
                    while j < toks.len() {
                        if toks[j].is_punct("[") {
                            depth += 1;
                        } else if toks[j].is_punct("]") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    i = j + 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    let first = i;
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("{") && depth == 0 {
            let close = brace_match(toks, i)?;
            return Some((first, close));
        } else if t.is_punct(";") && depth == 0 {
            return Some((first, i));
        }
        i += 1;
    }
    None
}

/// Given the index of a `{` token, returns the index of its matching `}`.
pub(crate) fn brace_match(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, tok) in toks.iter().enumerate().skip(open) {
        if tok.is_punct("{") {
            depth += 1;
        } else if tok.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_lines() {
        let src = "// comment\n\n#[inline]\nfn f() {}\n";
        let file = SourceFile::analyze("crates/x/src/lib.rs", src);
        assert_eq!(file.class_of(1), LineClass::Comment);
        assert_eq!(file.class_of(2), LineClass::Blank);
        assert_eq!(file.class_of(3), LineClass::Attr);
        assert_eq!(file.class_of(4), LineClass::Code);
    }

    #[test]
    fn cfg_test_scopes_the_following_item() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod checks {\n    fn t() { y.unwrap(); }\n}\nfn after() {}\n";
        let file = SourceFile::analyze("crates/x/src/lib.rs", src);
        let unwraps: Vec<bool> = file
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| file.in_test_scope[i])
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        // Code after the scoped item is live again.
        let after = file
            .toks
            .iter()
            .enumerate()
            .find(|(_, t)| t.is_ident("after"))
            .map(|(i, _)| file.in_test_scope[i]);
        assert_eq!(after, Some(false));
    }

    #[test]
    fn mod_tests_scopes_to_closing_brace() {
        let src = "mod tests {\n    fn t() { panic!(); }\n}\nfn live() {}\n";
        let file = SourceFile::analyze("crates/x/src/lib.rs", src);
        let panic_idx = file
            .toks
            .iter()
            .position(|t| t.is_ident("panic"))
            .expect("panic tok");
        assert!(file.in_test_scope[panic_idx]);
        let live_idx = file
            .toks
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live tok");
        assert!(!file.in_test_scope[live_idx]);
    }

    #[test]
    fn roles_from_paths() {
        assert!(FileRole::from_rel("crates/core/src/compose.rs").library);
        assert!(!FileRole::from_rel("crates/core/tests/alloc.rs").library);
        assert!(FileRole::from_rel("crates/core/tests/alloc.rs").test_file);
        assert!(!FileRole::from_rel("crates/bench/src/bin/fig1.rs").library);
        assert!(FileRole::from_rel("src/lib.rs").library);
        assert!(!FileRole::from_rel("src/bin/cfaopc.rs").library);
        assert!(!FileRole::from_rel("examples/quickstart.rs").library);
        assert_eq!(
            FileRole::from_rel("crates/eval/src/json.rs").crate_name,
            "eval"
        );
    }
}
