//! Machine-checked `/// complexity: O(...)` contracts on hot functions.
//!
//! The contract grammar is a product of dimension factors:
//!
//! ```text
//! /// complexity: O(n)            degree 1
//! /// complexity: O(n * m * k)    degree 3
//! /// complexity: O(n^2 * d)      degree 3
//! /// complexity: O(1)            degree 0
//! ```
//!
//! Identifiers must come from [`DIM_VOCAB`]; sums (`O(n + m)`) are
//! rejected — declare the dominant term. The checker compares the
//! declared degree against the **observed loop-nest depth** of the body:
//! the maximum nesting of `for`/`while`/`loop` constructs in the token
//! stream, with `for` loops over constant literal ranges (`0..3`)
//! excluded.
//!
//! The estimator deliberately under-counts: it cannot see the cost of
//! callees (a `dot_slices` call inside one loop is depth 1, not 2) or
//! loops hidden in iterator chains (`.map(…).collect()`). A declared
//! degree *above* the observed nesting is therefore accepted; a body
//! that nests **deeper** than its contract admits is always a finding.

use crate::items::FnInfo;
use crate::lexer::{Tok, TokKind};
use crate::scanner::SourceFile;

/// Dimension identifiers admitted in complexity contracts.
pub const DIM_VOCAB: [&str; 15] = [
    "n", "m", "k", "d", "q", "c", "b", "p", "nnz", "rows", "cols", "len", "dim", "iters", "classes",
];

/// A parsed complexity contract: the product factors as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// `(dimension, exponent)` pairs; empty for `O(1)`.
    pub factors: Vec<(String, u32)>,
}

impl Contract {
    /// Total polynomial degree (sum of exponents; `O(1)` is zero).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.factors.iter().map(|&(_, e)| e as usize).sum()
    }

    /// Re-renders the contract for messages (`O(n^2 * d)`).
    #[must_use]
    pub fn render(&self) -> String {
        if self.factors.is_empty() {
            return "O(1)".to_owned();
        }
        let terms: Vec<String> = self
            .factors
            .iter()
            .map(|(name, exp)| {
                if *exp == 1 {
                    name.clone()
                } else {
                    format!("{name}^{exp}")
                }
            })
            .collect();
        format!("O({})", terms.join(" * "))
    }
}

/// Extracts the contract from a function's doc lines.
///
/// Returns `None` when no `complexity:` line is present, `Some(Err(…))`
/// when one is present but malformed.
#[must_use]
pub fn parse_contract(doc: &[String]) -> Option<Result<Contract, String>> {
    let body = doc
        .iter()
        .find_map(|d| d.trim().strip_prefix("complexity:"))?;
    Some(parse_expr(body.trim()))
}

/// Parses `O(factor * factor * …)`.
fn parse_expr(s: &str) -> Result<Contract, String> {
    let inner = s
        .strip_prefix("O(")
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| format!("expected `O(...)`, got `{s}`"))?;
    let mut factors = Vec::new();
    for raw in inner.split('*') {
        let factor = raw.trim();
        if factor == "1" {
            continue;
        }
        let (name, exp) = match factor.split_once('^') {
            Some((base, exp)) => {
                let exp: u32 = exp
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad exponent in `{factor}`"))?;
                (base.trim(), exp)
            }
            None => (factor, 1),
        };
        if !DIM_VOCAB.contains(&name) {
            return Err(format!(
                "unknown dimension `{name}` (factors must be `*`-separated names from {DIM_VOCAB:?}, optionally with `^<int>`)"
            ));
        }
        factors.push((name.to_owned(), exp));
    }
    Ok(Contract { factors })
}

/// Observed loop-nest depth of a function body: the maximum nesting of
/// counted `for`/`while`/`loop` constructs. `for` loops whose iterated
/// expression mentions no identifier at all (constant literal ranges
/// like `0..3`) are not counted. Loops inside closures count toward the
/// enclosing function, matching how [`crate::items`] attributes bodies.
#[must_use]
pub fn observed_depth(source: &SourceFile, f: &FnInfo) -> usize {
    let toks: Vec<&Tok> = source
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::Doc))
        .collect();
    let end = f.body.end.min(toks.len());
    let mut frames: Vec<bool> = Vec::new();
    let mut depth = 0usize;
    let mut max = 0usize;
    // Set when a loop keyword has been seen and its body `{` is pending.
    let mut pending: Option<bool> = None;
    let mut k = f.body.start;
    while k < end {
        let t = toks[k];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            let counted = !t.is_ident("for") || !constant_for_header(&toks, k, end);
            pending = Some(counted);
        } else if t.is_punct('{') {
            let is_loop = pending.take().unwrap_or(false);
            frames.push(is_loop);
            if is_loop {
                depth += 1;
                max = max.max(depth);
            }
        } else if t.is_punct('}') && frames.pop().unwrap_or(false) {
            depth = depth.saturating_sub(1);
        }
        k += 1;
    }
    max
}

/// Whether a `for` header starting at `toks[at]` iterates a purely
/// constant expression (no identifier after `in` before the body `{`).
fn constant_for_header(toks: &[&Tok], at: usize, end: usize) -> bool {
    let mut seen_in = false;
    let mut k = at + 1;
    while k < end {
        let t = toks[k];
        if t.is_punct('{') {
            break;
        }
        if t.is_ident("in") {
            seen_in = true;
        } else if seen_in && t.kind == TokKind::Ident {
            return false;
        }
        k += 1;
    }
    seen_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::scanner::analyze;

    fn contract(doc: &str) -> Result<Contract, String> {
        parse_contract(&[doc.to_owned()]).expect("annotation present")
    }

    fn depth_of(src: &str) -> usize {
        let source = analyze(src);
        let fns = extract("t.rs", &source);
        observed_depth(&source, &fns[0])
    }

    #[test]
    fn parses_products_and_exponents() {
        let c = contract("complexity: O(n * m * k)").unwrap();
        assert_eq!(c.degree(), 3);
        let c = contract("complexity: O(n^2 * d)").unwrap();
        assert_eq!(c.degree(), 3);
        assert_eq!(c.render(), "O(n^2 * d)");
        let c = contract("complexity: O(1)").unwrap();
        assert_eq!(c.degree(), 0);
        assert_eq!(c.render(), "O(1)");
    }

    #[test]
    fn rejects_sums_and_unknown_dims() {
        assert!(contract("complexity: O(n + m)").is_err());
        assert!(contract("complexity: O(foo)").is_err());
        assert!(contract("complexity: n^2").is_err());
        assert!(contract("complexity: O(n^x)").is_err());
    }

    #[test]
    fn absent_annotation_is_none() {
        assert!(parse_contract(&["computes things.".to_owned()]).is_none());
    }

    #[test]
    fn counts_nested_loops() {
        assert_eq!(depth_of("fn f(n: usize) { for i in 0..n { g(i); } }"), 1);
        assert_eq!(
            depth_of("fn f(n: usize) { for i in 0..n { for j in 0..n { g(i, j); } } }"),
            2
        );
        assert_eq!(
            depth_of("fn f(n: usize) { for i in 0..n { g(i); } for j in 0..n { g(j); } }"),
            1
        );
    }

    #[test]
    fn constant_ranges_do_not_count() {
        assert_eq!(depth_of("fn f() { for i in 0..3 { g(i); } }"), 0);
        assert_eq!(
            depth_of("fn f(n: usize) { for i in 0..n { for c in 0..3 { g(i, c); } } }"),
            1
        );
    }

    #[test]
    fn while_and_loop_count() {
        assert_eq!(depth_of("fn f(n: usize) { while n > 0 { g(); } }"), 1);
        assert_eq!(depth_of("fn f() { loop { break; } }"), 1);
    }

    #[test]
    fn loops_inside_closures_count() {
        let src = "fn f(n: usize) { run(|chunk| { for i in 0..n { g(i); } }); }";
        assert_eq!(depth_of(src), 1);
    }

    #[test]
    fn iterator_chains_are_invisible() {
        // Documented limit: no counted loop in a .map().collect() chain.
        let src = "fn f(v: &[f64]) -> Vec<f64> { v.iter().map(|x| x * 2.0).collect() }";
        assert_eq!(depth_of(src), 0);
    }
}
