//! Recursive-descent item parser on top of the total lexer: per-file item
//! tree with functions (module path, surrounding `impl` type, body span,
//! call expressions) and `use` aliases. This is deliberately *not* a full
//! Rust parser — it only recovers the structure the call graph needs, and
//! it shares the lexer's robustness promise: any token stream parses to
//! *some* item tree without panicking (malformed input degrades to fewer
//! recognized items, never to an error).

use crate::analyze::{brace_match, SourceFile};
use crate::lexer::{Tok, TokKind};

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written (`foo` → `["foo"]`, `a::b::foo` →
    /// `["a", "b", "foo"]`). Method calls carry only the method name.
    pub path: Vec<String>,
    /// True for `receiver.name(…)` — resolution must be conservative
    /// because the receiver's type is unknown.
    pub method: bool,
    /// True for a method call on the bare `self` receiver
    /// (`self.name(…)`), whose type is the caller's `impl` type.
    pub on_self: bool,
    /// 1-based line of the callee name.
    pub line: u32,
    /// Token index of the callee name (last path segment).
    pub tok: usize,
}

/// One `fn` item with everything the call graph needs.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing inline `mod` names, outermost first (empty at file root).
    pub module_path: Vec<String>,
    /// The `Self` type name when the fn sits in an `impl` block
    /// (`impl Foo` and `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// Whether the fn is declared directly in an `impl` or `trait` block:
    /// only such fns can be called with method syntax.
    pub associated: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// Calls made directly by this body (nested `fn` bodies excluded —
    /// those get their own item; closure bodies are included here).
    pub calls: Vec<CallSite>,
    /// Whether the `fn` keyword sits in `#[cfg(test)]`/`mod tests` scope.
    pub in_test_scope: bool,
}

/// One name introduced by a `use` declaration (globs are ignored).
#[derive(Debug, Clone)]
pub struct UseAlias {
    /// The name visible in this file (`c` in `use a::b as c;`, `b` in
    /// `use a::b;`).
    pub alias: String,
    /// The full imported path, including the final segment.
    pub path: Vec<String>,
}

/// The parsed item tree of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` with a body, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Every `use` alias, in source order.
    pub uses: Vec<UseAlias>,
}

/// Keywords that can precede `(` without being a call (`if (…)`,
/// `return (…)`, `match (…)`, …) or appear as path heads.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "type"
            | "mod"
            | "use"
            | "pub"
            | "static"
            | "const"
            | "where"
            | "as"
            | "in"
            | "box"
            | "yield"
    )
}

/// Parses a file into its item tree.
pub fn parse(file: &SourceFile) -> ParsedFile {
    let mut out = ParsedFile::default();
    walk(
        file,
        0,
        file.toks.len(),
        &mut Vec::new(),
        None,
        false,
        &mut out,
    );
    out
}

/// Next non-comment token index at or after `i`.
fn skip_comments(toks: &[Tok], mut i: usize) -> usize {
    while toks
        .get(i)
        .is_some_and(|t| matches!(t.kind, TokKind::Comment { .. }))
    {
        i += 1;
    }
    i
}

/// Index of the previous non-comment token before `i`.
fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    (0..i)
        .rev()
        .find(|&p| !matches!(toks[p].kind, TokKind::Comment { .. }))
}

/// Walks the token range `[start, end)` collecting items. `module_path`
/// and `impl_type` describe the enclosing scope, and `associated` is
/// whether the range is an `impl` or `trait` body.
fn walk(
    file: &SourceFile,
    start: usize,
    end: usize,
    module_path: &mut Vec<String>,
    impl_type: Option<&str>,
    associated: bool,
    out: &mut ParsedFile,
) {
    let toks = &file.toks;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if matches!(t.kind, TokKind::Comment { .. }) {
            i += 1;
            continue;
        }
        if t.is_ident("use") {
            i = parse_use(toks, i + 1, end, out);
            continue;
        }
        if t.is_ident("mod") {
            // Inline module `mod name { … }`; `mod name;` declares an
            // out-of-line module handled when its file is scanned.
            let j = skip_comments(toks, i + 1);
            let name = match toks.get(j) {
                Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            let k = skip_comments(toks, j + 1);
            if toks.get(k).is_some_and(|t| t.is_punct("{")) {
                if let Some(close) = brace_match(toks, k) {
                    module_path.push(name);
                    walk(file, k + 1, close.min(end), module_path, None, false, out);
                    module_path.pop();
                    i = close + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, body_open)) = impl_header(toks, i + 1, end) {
                if let Some(close) = brace_match(toks, body_open) {
                    walk(
                        file,
                        body_open + 1,
                        close.min(end),
                        module_path,
                        ty.as_deref(),
                        true,
                        out,
                    );
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("trait") {
            // A trait's header ends at its body's `{` as an impl's does;
            // its default method bodies are associated fns with no `Self`
            // type.
            if let Some((_, body_open)) = impl_header(toks, i + 1, end) {
                if let Some(close) = brace_match(toks, body_open) {
                    walk(
                        file,
                        body_open + 1,
                        close.min(end),
                        module_path,
                        None,
                        true,
                        out,
                    );
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            // `fn name … { body }`; `fn(` is a fn-pointer type, and a
            // signature ending in `;` (a trait's required method) has no
            // body.
            let j = skip_comments(toks, i + 1);
            let Some(name_tok) = toks.get(j) else { break };
            if name_tok.kind != TokKind::Ident {
                i = j.max(i + 1);
                continue;
            }
            let mut k = j + 1;
            let mut depth = 0i32;
            let mut body = None;
            while k < end {
                let t = &toks[k];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if t.is_punct("{") && depth == 0 {
                    body = brace_match(toks, k).map(|close| (k, close));
                    break;
                } else if t.is_punct(";") && depth == 0 {
                    break;
                }
                k += 1;
            }
            let Some((open, close)) = body else {
                i = k.max(i + 1);
                continue;
            };
            let mut calls = Vec::new();
            extract_calls(toks, open + 1, close, &mut calls);
            out.fns.push(FnItem {
                name: name_tok.text.clone(),
                module_path: module_path.clone(),
                impl_type: impl_type.map(|s| s.to_string()),
                associated,
                line: toks[i].line,
                body: (open, close),
                calls,
                in_test_scope: file.in_test_scope.get(i).copied().unwrap_or(false),
            });
            // Recurse into the body for nested items (fns, mods, uses).
            walk(
                file,
                open + 1,
                close.min(end),
                module_path,
                None,
                false,
                out,
            );
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

/// Parses an `impl` header starting just after the `impl` keyword.
/// Returns the `Self` type name (last path segment; `None` for
/// unrecognized shapes like `impl Trait for &T`) and the index of the
/// body's `{`.
fn impl_header(toks: &[Tok], start: usize, end: usize) -> Option<(Option<String>, usize)> {
    let mut i = skip_comments(toks, start);
    // Skip generic parameters `impl<…>`.
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i, end)?;
    }
    // Collect the first type path, then — if a top-level `for` follows —
    // the type path after it wins (`impl Trait for Type`).
    let mut last_seg: Option<String> = None;
    let mut depth = 0i32;
    while i < end {
        let t = &toks[i];
        if matches!(t.kind, TokKind::Comment { .. }) {
            i += 1;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("<") && depth == 0 {
            i = skip_angles(toks, i, end)?;
            continue;
        } else if t.is_punct("{") && depth == 0 {
            return Some((last_seg, i));
        } else if t.is_ident("where") && depth == 0 {
            // Segments in where-clauses are bounds, not the Self type.
            while i < end && !toks[i].is_punct("{") {
                i += 1;
            }
            continue;
        } else if t.is_ident("for") && depth == 0 {
            last_seg = None; // the Self type follows
        } else if t.kind == TokKind::Ident && depth == 0 && !is_keyword(&t.text) {
            last_seg = Some(t.text.clone());
        }
        i += 1;
    }
    None
}

/// From an opening `<` at `i`, returns the index just past its matching
/// `>`. Fused `<<`/`>>` count twice; `->` / `=>` don't participate.
fn skip_angles(toks: &[Tok], i: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = i;
    while k < end {
        let t = &toks[k];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        } else if t.is_punct(";") || t.is_punct("{") {
            return None; // not a generic argument list after all
        }
        k += 1;
        if depth <= 0 {
            return Some(k);
        }
    }
    None
}

/// Parses one `use` declaration starting just after the `use` keyword;
/// returns the index just past the terminating `;`.
fn parse_use(toks: &[Tok], start: usize, end: usize, out: &mut ParsedFile) -> usize {
    // Find the end of the declaration first so malformed trees can't
    // desynchronize the caller.
    let mut stop = start;
    let mut depth = 0i32;
    while stop < end {
        let t = &toks[stop];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                break; // unbalanced: bail at the enclosing block's close
            }
        } else if t.is_punct(";") && depth == 0 {
            break;
        }
        stop += 1;
    }
    use_tree(toks, start, stop, &mut Vec::new(), out);
    (stop + 1).min(end)
}

/// Recursively parses a use tree in `[start, stop)` with the accumulated
/// `prefix` of outer segments.
fn use_tree(
    toks: &[Tok],
    start: usize,
    stop: usize,
    prefix: &mut Vec<String>,
    out: &mut ParsedFile,
) {
    let mut i = skip_comments(toks, start);
    let base_len = prefix.len();
    let mut last: Option<String> = None;
    while i < stop {
        let t = &toks[i];
        if matches!(t.kind, TokKind::Comment { .. }) {
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && t.text != "as" {
            if let Some(seg) = last.replace(t.text.clone()) {
                prefix.push(seg);
            }
            i += 1;
            continue;
        }
        if t.is_punct("::") {
            i += 1;
            continue;
        }
        if t.is_ident("as") {
            let j = skip_comments(toks, i + 1);
            if let (Some(alias_tok), Some(seg)) = (toks.get(j), last.take()) {
                if alias_tok.kind == TokKind::Ident && alias_tok.text != "_" {
                    let mut path = prefix.clone();
                    path.push(seg);
                    out.uses.push(UseAlias {
                        alias: alias_tok.text.clone(),
                        path,
                    });
                }
            }
            i = j + 1;
            continue;
        }
        if t.is_punct("{") {
            // Group: each comma-separated subtree re-uses the prefix.
            if let Some(seg) = last.take() {
                prefix.push(seg);
            }
            let close = match group_close(toks, i, stop) {
                Some(c) => c,
                None => stop,
            };
            let mut sub = i + 1;
            let mut depth = 0i32;
            for k in i + 1..close {
                let t = &toks[k];
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                } else if t.is_punct(",") && depth == 0 {
                    use_tree(toks, sub, k, prefix, out);
                    sub = k + 1;
                }
            }
            use_tree(toks, sub, close, prefix, out);
            prefix.truncate(base_len);
            return;
        }
        if t.is_punct("*") {
            // Glob: introduces unknowable names; ignored by design.
            last = None;
            i += 1;
            continue;
        }
        i += 1;
    }
    // Plain leaf `use a::b::c;` — alias is the last segment. `self`
    // aliases the parent module's name (`use a::b::{self}` → `b`).
    if let Some(seg) = last {
        if seg == "self" {
            if let Some(parent) = prefix.last().cloned() {
                out.uses.push(UseAlias {
                    alias: parent,
                    path: prefix.clone(),
                });
            }
        } else {
            let mut path = prefix.clone();
            path.push(seg.clone());
            out.uses.push(UseAlias { alias: seg, path });
        }
    }
    prefix.truncate(base_len);
}

/// Matching `}` or `]` for the `{` or `[` at `open`, bounded by `stop`.
fn group_close(toks: &[Tok], open: usize, stop: usize) -> Option<usize> {
    let (opener, closer) = if toks.get(open)?.is_punct("[") {
        ("[", "]")
    } else {
        ("{", "}")
    };
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(stop).skip(open) {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Collects call expressions in `[start, end)`, skipping nested `fn`
/// bodies (their calls belong to the nested item) and attributes.
fn extract_calls(toks: &[Tok], start: usize, end: usize, out: &mut Vec<CallSite>) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if matches!(t.kind, TokKind::Comment { .. }) {
            i += 1;
            continue;
        }
        if t.is_punct("#") {
            // An attribute, `#[…]` or `#![…]`: its tokens are no calls.
            let mut k = skip_comments(toks, i + 1);
            if toks.get(k).is_some_and(|t| t.is_punct("!")) {
                k = skip_comments(toks, k + 1);
            }
            if toks.get(k).is_some_and(|t| t.is_punct("[")) {
                i = group_close(toks, k, end).map_or(end, |close| close + 1);
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            // Skip the nested fn's signature and body.
            let mut k = skip_comments(toks, i + 1);
            let mut depth = 0i32;
            let mut advanced = false;
            while k < end {
                let t = &toks[k];
                if t.is_punct("(") || t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    depth -= 1;
                } else if t.is_punct("{") && depth == 0 {
                    if let Some(close) = brace_match(toks, k) {
                        i = close + 1;
                        advanced = true;
                    }
                    break;
                } else if t.is_punct(";") && depth == 0 {
                    i = k + 1;
                    advanced = true;
                    break;
                }
                k += 1;
            }
            if !advanced {
                i = k.max(i + 1);
            }
            continue;
        }
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            i += 1;
            continue;
        }
        // Read the path chain `seg (:: seg)*`, treating any `::<…>`
        // turbofish (mid-path or trailing) as part of the chain.
        let mut segs = vec![t.text.clone()];
        let mut j = i; // index of the last path-segment ident
        let mut cursor = i; // index of the last consumed path token
        loop {
            let a = skip_comments(toks, cursor + 1);
            if !toks.get(a).is_some_and(|t| t.is_punct("::")) {
                break;
            }
            let b = skip_comments(toks, a + 1);
            if toks.get(b).is_some_and(|t| t.is_punct("<")) {
                match skip_angles(toks, b, end) {
                    Some(past) => {
                        cursor = past - 1;
                        continue;
                    }
                    None => break,
                }
            }
            match toks.get(b) {
                Some(n) if n.kind == TokKind::Ident && !is_keyword(&n.text) => {
                    segs.push(n.text.clone());
                    j = b;
                    cursor = b;
                }
                _ => break,
            }
        }
        let k = skip_comments(toks, cursor + 1);
        if toks.get(k).is_some_and(|t| t.is_punct("(")) {
            let dot = prev_code(toks, i).filter(|&d| toks[d].is_punct("."));
            let method = segs.len() == 1 && dot.is_some();
            let on_self = method
                && dot
                    .and_then(|d| prev_code(toks, d))
                    .is_some_and(|r| toks[r].text == "self");
            out.push(CallSite {
                path: segs,
                method,
                on_self,
                line: toks[j].line,
                tok: j,
            });
        }
        i = cursor + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> ParsedFile {
        parse(&SourceFile::analyze("crates/x/src/lib.rs", src))
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn call_paths(f: &FnItem) -> Vec<String> {
        f.calls.iter().map(|c| c.path.join("::")).collect()
    }

    #[test]
    fn records_module_paths_and_impl_types() {
        let src = "\
mod outer {
    mod inner {
        fn deep() {}
    }
    struct S;
    impl S {
        fn method(&self) {}
    }
    impl std::fmt::Display for S {
        fn fmt(&self) {}
    }
}
";
        let p = parsed(src);
        assert_eq!(fn_named(&p, "deep").module_path, vec!["outer", "inner"]);
        let m = fn_named(&p, "method");
        assert_eq!(m.module_path, vec!["outer"]);
        assert_eq!(m.impl_type.as_deref(), Some("S"));
        assert_eq!(fn_named(&p, "fmt").impl_type.as_deref(), Some("S"));
        assert!(m.associated && fn_named(&p, "fmt").associated);
        assert!(!fn_named(&p, "deep").associated);
    }

    #[test]
    fn trait_bodies_hold_associated_fns() {
        let src = "\
pub trait Sink<T>: Send where T: Clone {
    fn required(&self);
    fn provided(&self) {
        fn nested() {}
    }
}
fn free() {}
";
        let p = parsed(src);
        let provided = fn_named(&p, "provided");
        assert!(provided.associated);
        assert_eq!(provided.impl_type, None);
        assert!(!fn_named(&p, "nested").associated);
        assert!(!fn_named(&p, "free").associated);
        assert_eq!(p.fns.len(), 3, "a required method has no body");
    }

    #[test]
    fn finds_fn_bodies_including_nested() {
        let src = "pub fn outer<T: Clone>(x: &[T]) -> Vec<T> {\n    fn inner(n: usize) -> usize { n }\n    x.to_vec()\n}\n";
        let p = parsed(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn generic_impl_headers_resolve_self_type() {
        let src = "\
impl<W: Write + Send> TaggedLineWriter<W> {
    fn new() {}
}
impl<T> From<Vec<T>> for Holder<T> where T: Clone {
    fn from() {}
}
";
        let p = parsed(src);
        assert_eq!(
            fn_named(&p, "new").impl_type.as_deref(),
            Some("TaggedLineWriter")
        );
        assert_eq!(fn_named(&p, "from").impl_type.as_deref(), Some("Holder"));
    }

    #[test]
    fn collects_calls_with_paths_and_methods() {
        let src = "\
fn caller() {
    helper();
    crate::sub::helper2();
    x.method_one().method_two();
    Vec::<u8>::with_capacity(4);
    y.collect::<Vec<_>>();
    not_a_call;
    macro_not_call!(arg);
    if (a) {}
}
";
        let p = parsed(src);
        let f = fn_named(&p, "caller");
        assert_eq!(
            call_paths(f),
            vec![
                "helper",
                "crate::sub::helper2",
                "method_one",
                "method_two",
                "Vec::with_capacity",
                "collect",
            ]
        );
        assert!(f.calls[2].method && f.calls[3].method);
        assert!(!f.calls[0].method && !f.calls[4].method);
    }

    #[test]
    fn attributes_are_not_calls() {
        let src = "\
fn caller() {
    #![allow(unused)]
    #[cfg(target_arch = \"x86_64\")]
    arch_call();
    #[allow(clippy::too_many_arguments, reason = \"wide\")]
    let v = vec![after(1)];
    index[at(0)];
}
";
        let p = parsed(src);
        assert_eq!(
            call_paths(fn_named(&p, "caller")),
            vec!["arch_call", "after", "at"]
        );
    }

    #[test]
    fn nested_fn_calls_belong_to_the_nested_item() {
        let src = "\
fn outer() {
    fn inner() { inner_call(); }
    outer_call();
    let clo = |x: usize| closure_call(x);
    clo(1);
}
";
        let p = parsed(src);
        assert_eq!(
            call_paths(fn_named(&p, "outer")),
            vec!["outer_call", "closure_call", "clo"]
        );
        assert_eq!(call_paths(fn_named(&p, "inner")), vec!["inner_call"]);
    }

    #[test]
    fn use_aliases_including_groups_and_self() {
        let src = "\
use crate::stitch::extract_window_into;
use cfaopc_fft::parallel as par;
use a::b::{c, d as dd, e::{f, self}};
use ignored::*;
fn f() {}
";
        let p = parsed(src);
        let aliases: Vec<(String, String)> = p
            .uses
            .iter()
            .map(|u| (u.alias.clone(), u.path.join("::")))
            .collect();
        assert_eq!(
            aliases,
            vec![
                (
                    "extract_window_into".into(),
                    "crate::stitch::extract_window_into".into()
                ),
                ("par".into(), "cfaopc_fft::parallel".into()),
                ("c".into(), "a::b::c".into()),
                ("dd".into(), "a::b::d".into()),
                ("f".into(), "a::b::e::f".into()),
                ("e".into(), "a::b::e".into()),
            ]
        );
    }

    #[test]
    fn test_scope_carries_to_items() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn t() {}
}
";
        let p = parsed(src);
        assert!(!fn_named(&p, "live").in_test_scope);
        assert!(fn_named(&p, "t").in_test_scope);
    }

    #[test]
    fn malformed_input_parses_without_panicking() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "use ;",
            "use a::{b,",
            "mod m {",
            "fn f() { x.(); ::; a::<(); }",
            "impl<T for {}",
        ] {
            let _ = parsed(src);
        }
    }
}
