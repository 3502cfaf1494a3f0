//! Approximate item extraction: functions, signatures, calls and
//! panic-relevant sites, recovered from the token stream.
//!
//! This is deliberately *not* a Rust parser. It recognizes `fn` items
//! (including methods inside `impl` blocks), their visibility, parameter
//! names, return-type tokens and brace-matched bodies, and then scans each
//! body for:
//!
//! * **calls** — `name(…)`, `.method(…)`, `Path::name(…)`, each recorded
//!   with its kind — the edges of the approximate call graph;
//! * **panic sites** — unguarded indexing `x[i]`, integer/float division
//!   `a / b` (and `%`), and slice arithmetic inside index brackets
//!   (`x[i - 1]`) — the seeds of the panic-reachability pass;
//! * **guard evidence** — `assert!`/`debug_assert!` macros, calls into
//!   `check_*`/`validate*`/`require_*`/`ensure_*` helpers, comparisons
//!   against `len`/`rows`/`cols`/`dim` and early `Err` returns — which
//!   downgrade the sites that follow them.
//!
//! Closures and nested functions are attributed to the enclosing `fn`.

use crate::lexer::{Tok, TokKind};
use crate::scanner::SourceFile;

/// Kinds of panic-relevant sites found inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// Raw `x[i]` indexing (panics on out-of-bounds).
    Index,
    /// Division or remainder by a non-literal divisor (panics on zero for
    /// integers, poisons with inf/NaN for floats).
    Div,
    /// Subtraction inside index brackets (`x[i - 1]`), the classic usize
    /// underflow panic.
    SliceArith,
}

impl SiteKind {
    /// Stable key used in findings and the ratchet baseline.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            SiteKind::Index => "index",
            SiteKind::Div => "div",
            SiteKind::SliceArith => "slice_arith",
        }
    }
}

/// One panic-relevant site.
#[derive(Debug, Clone)]
pub struct Site {
    /// What kind of hazard this is.
    pub kind: SiteKind,
    /// 1-based source line.
    pub line: usize,
    /// Whether guard evidence appeared earlier in the same function.
    pub guarded: bool,
}

/// A call found inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Qualifying path segment (`Matrix` in `Matrix::zeros(…)`), when
    /// present.
    pub qual: Option<String>,
    /// The called function/method name.
    pub name: String,
    /// Whether this is a method call (`.name(…)`), which only a function
    /// with a `self` receiver can answer.
    pub method: bool,
    /// 1-based source line of the call.
    pub line: usize,
}

/// One extracted function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Simple name.
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qual: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is unrestricted `pub` (i.e. part of the crate
    /// API; `pub(crate)` and private both count as non-pub).
    pub is_pub: bool,
    /// Whether the function takes a `self` receiver.
    pub has_self: bool,
    /// Parameter names (patterns other than plain identifiers are
    /// skipped).
    pub params: Vec<String>,
    /// Token texts of the return type (empty for `()`).
    pub ret: Vec<String>,
    /// Doc-comment lines directly above the item (attributes skipped).
    pub doc: Vec<String>,
    /// Calls made in the body.
    pub calls: Vec<Call>,
    /// Panic-relevant sites in the body.
    pub sites: Vec<Site>,
    /// Whether the function lives in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Token range of the body (inside the braces), for further passes.
    pub body: std::ops::Range<usize>,
}

/// Words that look like calls but are control flow.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "loop", "return", "fn", "move", "in", "else",
];

/// Identifier fragments whose call is treated as guard evidence.
fn is_guard_call(name: &str) -> bool {
    name.starts_with("check_")
        || name.starts_with("validate")
        || name.starts_with("require")
        || name.starts_with("ensure")
        || name.starts_with("guard")
        || matches!(
            name,
            "is_empty"
                | "is_square"
                | "min"
                | "max"
                | "clamp"
                | "saturating_sub"
                | "checked_sub"
                | "checked_div"
                | "position"
                | "is_finite"
                | "abs"
                | "windows"
                | "chunks"
                | "enumerate"
        )
}

/// Identifiers that, compared against something, constitute bounds/shape
/// evidence (`if i < v.len()`, `if a.rows() != b.rows()` …).
fn is_dim_ident(name: &str) -> bool {
    matches!(
        name,
        "len"
            | "rows"
            | "cols"
            | "dim"
            | "shape"
            | "n"
            | "m"
            | "d"
            | "k"
            | "total"
            | "size"
            | "n_nodes"
            | "n_labeled"
            | "n_unlabeled"
            | "count"
    )
}

/// Extracts every function from an analyzed file.
#[must_use]
pub fn extract(file: &str, source: &SourceFile) -> Vec<FnInfo> {
    // Comment-free view with original indices retained for doc lookup.
    let toks: Vec<(usize, &Tok)> = source
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::Comment | TokKind::Doc))
        .collect();

    let mut fns = Vec::new();
    // Stack of (brace depth, impl type name) for method qualification.
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;

    let mut i = 0;
    while i < toks.len() {
        let (_, t) = toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while impls.last().is_some_and(|&(d, _)| d > depth) {
                impls.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            // Scan to the opening `{`; the impl type is the last ident at
            // angle-depth 0 (`impl<T> Foo<T>` → Foo, `impl X for Y` → Y).
            let mut angle = 0i32;
            let mut ty = String::new();
            let mut j = i + 1;
            while j < toks.len() && !toks[j].1.is_punct('{') {
                let tj = toks[j].1;
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle -= 1;
                } else if tj.kind == TokKind::Ident && angle <= 0 && !tj.is_ident("for") {
                    ty = tj.text.clone();
                }
                j += 1;
            }
            impls.push((depth, ty));
            i = j;
            continue;
        }
        if t.is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|(_, n)| n.kind == TokKind::Ident)
        {
            let (consumed, info) = parse_fn(file, source, &toks, i, depth, &impls);
            fns.push(info);
            i = consumed;
            continue;
        }
        i += 1;
    }
    fns
}

/// Parses one `fn` starting at `toks[at]` (the `fn` keyword). Returns the
/// index to resume the outer walk at (just past the signature, so nested
/// fns are still discovered) and the extracted info.
fn parse_fn(
    file: &str,
    source: &SourceFile,
    toks: &[(usize, &Tok)],
    at: usize,
    depth: usize,
    impls: &[(usize, String)],
) -> (usize, FnInfo) {
    let fn_line = toks[at].1.line;
    let name = toks[at + 1].1.text.clone();

    // Visibility: walk back over the item prefix (attributes, `const`,
    // `async`, `unsafe`, `extern "C"`) until an item boundary.
    let mut is_pub = false;
    let mut b = at;
    while b > 0 {
        b -= 1;
        let tb = toks[b].1;
        if tb.is_punct('{') || tb.is_punct('}') || tb.is_punct(';') {
            break;
        }
        if tb.is_ident("pub") {
            // `pub(crate)` restricts visibility: not part of the API.
            is_pub = !toks.get(b + 1).is_some_and(|(_, n)| n.is_punct('('));
            break;
        }
    }

    // Doc comment lines directly above (walking the line view upward over
    // attributes).
    let mut doc = Vec::new();
    let mut li = fn_line.saturating_sub(1); // 0-based index of fn line
    while li > 0 {
        li -= 1;
        let line = &source.lines[li];
        let trimmed = line.code.trim();
        if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            continue;
        }
        if line.is_doc {
            doc.push(
                line.comment
                    .trim_start_matches(['/', '!'])
                    .trim()
                    .to_owned(),
            );
        } else {
            break;
        }
    }
    doc.reverse();

    // Generics between name and `(`.
    let mut j = at + 2;
    if toks.get(j).is_some_and(|(_, t)| t.is_punct('<')) {
        let mut angle = 0i32;
        while j < toks.len() {
            let tj = toks[j].1;
            if tj.is_punct('<') {
                angle += 1;
            } else if tj.is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }

    // Parameters.
    let mut params = Vec::new();
    let mut has_self = false;
    if toks.get(j).is_some_and(|(_, t)| t.is_punct('(')) {
        let mut paren = 0i32;
        while j < toks.len() {
            let tj = toks[j].1;
            if tj.is_punct('(') {
                paren += 1;
            } else if tj.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    j += 1;
                    break;
                }
            } else if paren == 1 && tj.is_ident("self") {
                has_self = true;
            } else if paren == 1
                && tj.kind == TokKind::Ident
                && toks.get(j + 1).is_some_and(|(_, n)| n.is_punct(':'))
                && !tj.is_ident("mut")
            {
                params.push(tj.text.clone());
            }
            j += 1;
        }
    }

    // Return type: tokens between `->` and the body `{` (or `;`/`where`).
    let mut ret = Vec::new();
    if toks.get(j).is_some_and(|(_, t)| t.is_punct('-'))
        && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct('>'))
    {
        j += 2;
        while j < toks.len() {
            let tj = toks[j].1;
            if tj.is_punct('{') || tj.is_punct(';') || tj.is_ident("where") {
                break;
            }
            ret.push(tj.text.clone());
            j += 1;
        }
    }
    // Skip a `where` clause.
    while j < toks.len() && !toks[j].1.is_punct('{') && !toks[j].1.is_punct(';') {
        j += 1;
    }

    // Body: brace-matched token range (in comment-free indices).
    let mut body = j..j;
    if toks.get(j).is_some_and(|(_, t)| t.is_punct('{')) {
        let mut brace = 0i32;
        let mut k = j;
        while k < toks.len() {
            let tk = toks[k].1;
            if tk.is_punct('{') {
                brace += 1;
            } else if tk.is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            k += 1;
        }
        body = (j + 1)..k.min(toks.len());
    }

    let qual = impls
        .last()
        .filter(|(_, ty)| !ty.is_empty() && depth > 0)
        .map_or_else(|| name.clone(), |(_, ty)| format!("{ty}::{name}"));

    let (calls, sites) = scan_body(toks, body.clone());
    let in_test = source
        .test_mask
        .get(fn_line.saturating_sub(1))
        .copied()
        .unwrap_or(false);

    let info = FnInfo {
        name,
        qual,
        file: file.to_owned(),
        line: fn_line,
        is_pub,
        has_self,
        params,
        ret,
        doc,
        calls,
        sites,
        in_test,
        body: body.clone(),
    };
    // Resume at the body's opening `{` (or the trailing `;`) so the outer
    // walk keeps its brace depth balanced and still discovers nested fns.
    (j.max(at + 2), info)
}

/// Scans a body token range for calls, panic sites and guard evidence.
fn scan_body(toks: &[(usize, &Tok)], body: std::ops::Range<usize>) -> (Vec<Call>, Vec<Site>) {
    let mut calls = Vec::new();
    let mut raw_sites: Vec<(SiteKind, usize)> = Vec::new();
    // Lines at which guard evidence appears.
    let mut guard_lines: Vec<usize> = Vec::new();

    let mut k = body.start;
    while k < body.end {
        let t = toks[k].1;
        let next = toks.get(k + 1).map(|(_, n)| *n);
        let prev = (k > body.start).then(|| toks[k - 1].1);

        if t.kind == TokKind::Ident {
            // `if !(x > 0.0)` is a keyword and a negation, not a macro.
            let is_macro = next.is_some_and(|n| n.is_punct('!'))
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str());
            if is_macro {
                if t.text.contains("assert") {
                    guard_lines.push(t.line);
                }
                k += 2;
                continue;
            }
            if next.is_some_and(|n| n.is_punct('('))
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            {
                let qual = prev.filter(|p| p.is_punct(':')).and_then(|_| {
                    // `Path::name(` — the segment two tokens back.
                    (k >= body.start + 3
                        && toks[k - 2].1.is_punct(':')
                        && toks[k - 3].1.kind == TokKind::Ident)
                        .then(|| toks[k - 3].1.text.clone())
                });
                if is_guard_call(&t.text) {
                    guard_lines.push(t.line);
                }
                calls.push(Call {
                    qual,
                    name: t.text.clone(),
                    method: prev.is_some_and(|p| p.is_punct('.')),
                    line: t.line,
                });
            }
            // `if a.len() < b` style comparisons: an `if`/`while` line that
            // also mentions a dimension identifier counts as a guard.
            if (t.is_ident("if") || t.is_ident("while"))
                && scan_line_has_dim_compare(toks, k, &body)
            {
                guard_lines.push(t.line);
            }
            // Loop-bounded iteration: `for i in 0..v.len()` and iterator
            // loops (`.iter()`, `.enumerate()`, `.windows(…)`) derive
            // every index from the collection itself.
            if t.is_ident("for") && scan_line_has_loop_bound(toks, k, &body) {
                guard_lines.push(t.line);
            }
            // Early error returns are shape-guard evidence.
            if t.is_ident("Err")
                && prev.is_some_and(|p| p.kind == TokKind::Ident && p.is_ident("return"))
            {
                guard_lines.push(t.line);
            }
            k += 1;
            continue;
        }

        // Indexing: `[` preceded by an expression terminator.
        if t.is_punct('[')
            && prev.is_some_and(|p| {
                (p.kind == TokKind::Ident && !p.is_ident("mut"))
                    || p.is_punct(')')
                    || p.is_punct(']')
            })
        {
            // Walk the bracket group looking for arithmetic.
            let mut brk = 0i32;
            let mut kk = k;
            let mut arith = false;
            while kk < body.end {
                let tk = toks[kk].1;
                if tk.is_punct('[') {
                    brk += 1;
                } else if tk.is_punct(']') {
                    brk -= 1;
                    if brk == 0 {
                        break;
                    }
                } else if brk == 1 && tk.is_punct('-') {
                    arith = true;
                }
                kk += 1;
            }
            raw_sites.push((
                if arith {
                    SiteKind::SliceArith
                } else {
                    SiteKind::Index
                },
                t.line,
            ));
            k += 1;
            continue;
        }

        // Division / remainder by a non-literal divisor.
        if (t.is_punct('/') || t.is_punct('%'))
            && prev.is_some_and(|p| {
                p.is_punct(')')
                    || p.is_punct(']')
                    || matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
            })
        {
            let literal_divisor = next.is_some_and(|n| {
                matches!(n.kind, TokKind::Int | TokKind::Float)
                    && !n.text.trim_start_matches(['0', '_', '.']).is_empty()
            });
            if !literal_divisor {
                raw_sites.push((SiteKind::Div, t.line));
            }
            k += 1;
            continue;
        }

        k += 1;
    }

    let sites = raw_sites
        .into_iter()
        .map(|(kind, line)| Site {
            kind,
            line,
            guarded: guard_lines.iter().any(|&g| g <= line),
        })
        .collect();
    (calls, sites)
}

/// Whether a `for` loop header on this source line bounds its indices by
/// a dimension (`0..v.len()`) or iterates the collection directly
/// (`.iter()`, `.enumerate()`, `.windows(…)`, `.zip(…)`).
fn scan_line_has_loop_bound(
    toks: &[(usize, &Tok)],
    at: usize,
    body: &std::ops::Range<usize>,
) -> bool {
    let line = toks[at].1.line;
    let mut k = at;
    while k < body.end && toks[k].1.line == line {
        let t = toks[k].1;
        if t.kind == TokKind::Ident
            && (is_dim_ident(&t.text)
                || matches!(
                    t.text.as_str(),
                    "iter" | "iter_mut" | "enumerate" | "windows" | "chunks" | "zip"
                ))
        {
            return true;
        }
        k += 1;
    }
    false
}

/// Whether the statement starting at an `if`/`while` token compares a
/// dimension identifier (`len`, `rows`, …) on the same source line.
fn scan_line_has_dim_compare(
    toks: &[(usize, &Tok)],
    at: usize,
    body: &std::ops::Range<usize>,
) -> bool {
    let line = toks[at].1.line;
    let mut has_dim = false;
    let mut has_cmp = false;
    let mut k = at;
    while k < body.end && toks[k].1.line == line {
        let t = toks[k].1;
        if t.kind == TokKind::Ident && is_dim_ident(&t.text) {
            has_dim = true;
        }
        // Comparison against a zero literal is a positivity/emptiness
        // guard (`if d > 0.0`, `if total == 0 { return … }`).
        if matches!(t.kind, TokKind::Int | TokKind::Float)
            && t.text.trim_start_matches(['0', '_', '.']).is_empty()
        {
            has_dim = true;
        }
        if t.is_punct('<') || t.is_punct('>') || t.is_punct('=') || t.is_punct('!') {
            has_cmp = true;
        }
        k += 1;
    }
    has_dim && has_cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::analyze;

    fn extract_src(src: &str) -> Vec<FnInfo> {
        extract("test.rs", &analyze(src))
    }

    #[test]
    fn finds_pub_and_private_fns() {
        let fns = extract_src("pub fn a() {}\nfn b() {}\npub(crate) fn c() {}");
        assert_eq!(fns.len(), 3);
        assert!(fns[0].is_pub);
        assert!(!fns[1].is_pub);
        assert!(!fns[2].is_pub, "pub(crate) is not API-public");
    }

    #[test]
    fn methods_are_qualified_by_impl_type() {
        let fns = extract_src("impl Matrix {\n  pub fn get(&self, i: usize) -> f64 { 0.0 }\n}");
        assert_eq!(fns[0].qual, "Matrix::get");
        assert!(fns[0].has_self);
        assert_eq!(fns[0].params, vec!["i"]);
        assert_eq!(fns[0].ret, vec!["f64"]);
    }

    #[test]
    fn generic_impl_resolves_base_type() {
        let fns = extract_src("impl<T> Wrapper<T> {\n  fn inner(&self) {}\n}");
        assert_eq!(fns[0].qual, "Wrapper::inner");
    }

    #[test]
    fn later_methods_keep_their_impl_qualifier() {
        // Regression: resuming past the body's opening brace unbalanced
        // the outer depth tracking, dropping the impl context for every
        // method after the first.
        let fns = extract_src(
            "impl Pool {\n  pub fn new() -> Self { Pool }\n  pub fn workers(&self) -> usize { 1 }\n  pub fn map(&self) {}\n}",
        );
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, vec!["Pool::new", "Pool::workers", "Pool::map"]);
    }

    #[test]
    fn trait_impl_uses_self_type() {
        let fns = extract_src("impl Display for Matrix {\n  fn fmt(&self) {}\n}");
        assert_eq!(fns[0].qual, "Matrix::fmt");
    }

    #[test]
    fn collects_calls_with_qualifiers() {
        let fns = extract_src("fn f() { let a = Matrix::zeros(3, 3); a.solve(); helper(1); }");
        let calls = &fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.name == "zeros" && c.qual.as_deref() == Some("Matrix")));
        assert!(calls
            .iter()
            .any(|c| c.name == "solve" && c.qual.is_none() && c.method));
        assert!(calls.iter().any(|c| c.name == "helper" && !c.method));
        assert!(calls.iter().all(|c| c.name != "zeros" || !c.method));
    }

    #[test]
    fn unguarded_index_is_a_site() {
        let fns = extract_src("fn f(v: &[f64], i: usize) -> f64 { v[i] }");
        assert_eq!(fns[0].sites.len(), 1);
        assert_eq!(fns[0].sites[0].kind, SiteKind::Index);
        assert!(!fns[0].sites[0].guarded);
    }

    #[test]
    fn assert_guard_downgrades_index() {
        let fns = extract_src("fn f(v: &[f64], i: usize) -> f64 { assert!(i < v.len()); v[i] }");
        assert_eq!(fns[0].sites.len(), 1);
        assert!(fns[0].sites[0].guarded);
    }

    #[test]
    fn if_len_compare_is_guard_evidence() {
        let fns = extract_src(
            "fn f(v: &[f64], i: usize) -> f64 { if i >= v.len() { return 0.0; } v[i] }",
        );
        assert!(fns[0].sites.iter().all(|s| s.guarded));
    }

    #[test]
    fn division_by_variable_is_a_site_by_literal_is_not() {
        let fns = extract_src("fn f(a: f64, b: f64) -> f64 { a / b + a / 2.0 }");
        let divs: Vec<_> = fns[0]
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Div)
            .collect();
        assert_eq!(divs.len(), 1);
    }

    #[test]
    fn slice_arithmetic_is_flagged() {
        let fns = extract_src("fn f(v: &[f64], i: usize) -> f64 { v[i - 1] }");
        assert_eq!(fns[0].sites[0].kind, SiteKind::SliceArith);
    }

    #[test]
    fn array_literals_are_not_index_sites() {
        let fns = extract_src("fn f() -> [f64; 2] { [0.0, 1.0] }");
        assert!(fns[0].sites.is_empty());
    }

    #[test]
    fn test_fns_are_marked() {
        let fns = extract_src("#[cfg(test)]\nmod tests {\n  fn t(v: &[f64]) -> f64 { v[0] }\n}");
        assert!(fns[0].in_test);
    }

    #[test]
    fn doc_lines_are_attached() {
        let fns = extract_src("/// shape: (n, n)\n/// more.\n#[must_use]\npub fn f() {}");
        assert_eq!(fns[0].doc, vec!["shape: (n, n)", "more."]);
    }
}
