//! The shape-contract pass: machine-readable `/// shape: (…)` doc
//! annotations on `Matrix`/`Vector`-producing functions, validated for
//! grammar and checked for consistency at call sites of the block
//! operations the paper's criteria are built from (`W₂₁·Y_n` products,
//! block extraction, Sherman-Morrison updates).
//!
//! # Annotation grammar
//!
//! ```text
//! /// shape: (DIM)            — Vector-producing (also `(DIM,)`)
//! /// shape: (DIM, DIM)      — Matrix-producing
//! DIM := INT                  — concrete dimension
//!      | IDENT                — free symbol naming a dimension (`n`, `d`)
//!      | IDENT '.' FIELD      — dimension of a parameter; IDENT must be a
//!                               parameter name or `self`,
//!                               FIELD ∈ {rows, cols, len}
//! ```
//!
//! The pass reports (rule `shape_annotation`):
//! * missing annotations on `pub` Matrix/Vector-producing functions in the
//!   annotated crates (`linalg`, `graph`, `core`);
//! * malformed annotations (unparseable dims, wrong dimension count for
//!   the produced type, dotted dims referencing unknown parameters).
//!
//! And (rule `shape_mismatch`): call sites of the block operations below
//! where both dimensions resolve to *unequal integer literals* — only
//! definite mismatches fire, symbolic dims never do.
//!
//! | operation  | constraint                  |
//! |------------|-----------------------------|
//! | `matmul`   | `recv.cols == arg.rows`     |
//! | `matvec`   | `recv.cols == arg.len`      |
//! | `dot`      | `recv.len == arg.len`       |
//! | `hadamard` | `recv.shape == arg.shape`   |
//! | `vstack`   | `recv.cols == arg.cols`     |
//! | `hstack`   | `recv.rows == arg.rows`     |
//!
//! Shapes at call sites are inferred per function body from `let`
//! bindings whose initializer calls an annotated function, with parameter
//! dims substituted by the literal arguments.

use crate::items::FnInfo;
use crate::lexer::{Tok, TokKind};
use crate::scanner::SourceFile;
use std::collections::HashMap;

/// One symbolic dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dim {
    /// A concrete integer dimension.
    Lit(u64),
    /// A named symbolic dimension (`n`, `points.rows`, …).
    Sym(String),
}

/// A parsed shape annotation: one dim for vectors, two for matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape(pub Vec<Dim>);

/// A problem found by the pass.
#[derive(Debug, Clone)]
pub struct ShapeFinding {
    /// `true` for `shape_mismatch`, `false` for `shape_annotation`.
    pub mismatch: bool,
    /// Function the finding is in (qualified name).
    pub func: String,
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

/// What a function's return type produces, shape-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Produces {
    MatrixLike,
    VectorLike,
    Other,
}

/// Classifies the return type; `Self` resolves through the impl type in
/// the qualified name.
fn produces(f: &FnInfo) -> Produces {
    let impl_ty = f.qual.split("::").next().unwrap_or("");
    let mentions = |name: &str| {
        f.ret.iter().any(|t| t == name) || (f.ret.iter().any(|t| t == "Self") && impl_ty == name)
    };
    if mentions("Matrix") || mentions("CsrMatrix") || mentions("Blocks") {
        Produces::MatrixLike
    } else if mentions("Vector") {
        Produces::VectorLike
    } else {
        Produces::Other
    }
}

/// Extracts and parses the `shape:` doc line of a function, if present.
/// Returns `Err(message)` on grammar problems.
fn parse_annotation(f: &FnInfo) -> Option<Result<Shape, String>> {
    let line = f.doc.iter().find_map(|d| d.trim().strip_prefix("shape:"))?;
    Some(parse_shape_expr(line.trim(), f))
}

/// Parses `(d1)` / `(d1,)` / `(d1, d2)` and validates dotted dims against
/// the function's parameters.
fn parse_shape_expr(text: &str, f: &FnInfo) -> Result<Shape, String> {
    let inner = text
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| format!("annotation `{text}` is not parenthesized"))?;
    let mut dims = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma in `(n,)`
        }
        dims.push(parse_dim(part, f)?);
    }
    if dims.is_empty() || dims.len() > 2 {
        return Err(format!(
            "annotation `{text}` has {} dims; expected 1 (Vector) or 2 (Matrix)",
            dims.len()
        ));
    }
    Ok(Shape(dims))
}

/// Parses a single DIM term.
fn parse_dim(part: &str, f: &FnInfo) -> Result<Dim, String> {
    if let Ok(n) = part.parse::<u64>() {
        return Ok(Dim::Lit(n));
    }
    if let Some((base, field)) = part.split_once('.') {
        if !matches!(field, "rows" | "cols" | "len") {
            return Err(format!(
                "dim `{part}`: field `{field}` is not one of rows/cols/len"
            ));
        }
        if base != "self" && !f.params.iter().any(|p| p == base) {
            return Err(format!(
                "dim `{part}`: `{base}` is not a parameter of `{}`",
                f.name
            ));
        }
        return Ok(Dim::Sym(part.to_owned()));
    }
    if part.chars().all(|c| c.is_alphanumeric() || c == '_') && !part.is_empty() {
        return Ok(Dim::Sym(part.to_owned()));
    }
    Err(format!("dim `{part}` is not INT, IDENT or IDENT.FIELD"))
}

/// Runs the annotation presence/grammar checks over one file's functions.
///
/// `require` turns on the *presence* requirement (annotated crates only);
/// grammar problems are reported wherever an annotation exists.
#[must_use]
pub fn check_annotations(fns: &[FnInfo], require: bool) -> Vec<ShapeFinding> {
    let mut out = Vec::new();
    for f in fns {
        if f.in_test {
            continue;
        }
        let produced = produces(f);
        match parse_annotation(f) {
            None => {
                if require && f.is_pub && produced != Produces::Other {
                    out.push(ShapeFinding {
                        mismatch: false,
                        func: f.qual.clone(),
                        line: f.line,
                        message: format!(
                            "`{}` produces a {} but has no `/// shape:` annotation",
                            f.qual,
                            if produced == Produces::MatrixLike {
                                "Matrix"
                            } else {
                                "Vector"
                            }
                        ),
                    });
                }
            }
            Some(Err(msg)) => out.push(ShapeFinding {
                mismatch: false,
                func: f.qual.clone(),
                line: f.line,
                message: msg,
            }),
            Some(Ok(shape)) => {
                let expected = match produced {
                    Produces::MatrixLike => Some(2),
                    Produces::VectorLike => Some(1),
                    Produces::Other => None,
                };
                if let Some(want) = expected {
                    if shape.0.len() != want {
                        out.push(ShapeFinding {
                            mismatch: false,
                            func: f.qual.clone(),
                            line: f.line,
                            message: format!(
                                "`{}` annotation has {} dims but the return type needs {want}",
                                f.qual,
                                shape.0.len()
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// The block-operation constraint table: `(method, recv dim index,
/// arg dim index)`; `usize::MAX` in both positions means full-shape
/// equality.
const CONSTRAINTS: [(&str, usize, usize); 6] = [
    ("matmul", 1, 0), // recv.cols == arg.rows
    ("matvec", 1, 0), // recv.cols == arg.len
    ("dot", 0, 0),    // recv.len == arg.len
    ("hadamard", usize::MAX, usize::MAX),
    ("vstack", 1, 1), // recv.cols == arg.cols
    ("hstack", 0, 0), // recv.rows == arg.rows
];

/// A registry of annotated functions, for shape inference at call sites.
#[derive(Debug, Default)]
pub struct Registry {
    /// Simple name → (params, shape). Names with conflicting annotations
    /// are dropped (ambiguous resolution must not cause false positives).
    by_name: HashMap<String, Option<(Vec<String>, Shape)>>,
    /// Qualified `Type::name` → (params, shape).
    by_qual: HashMap<String, (Vec<String>, Shape)>,
}

impl Registry {
    /// Registers every well-annotated function.
    pub fn add_all(&mut self, fns: &[FnInfo]) {
        for f in fns {
            let Some(Ok(shape)) = parse_annotation(f) else {
                continue;
            };
            let entry = (f.params.clone(), shape);
            self.by_qual.insert(f.qual.clone(), entry.clone());
            match self.by_name.entry(f.name.clone()) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(Some(entry));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    if o.get().as_ref() != Some(&entry) {
                        o.insert(None); // ambiguous
                    }
                }
            }
        }
    }

    fn resolve(&self, qual: Option<&str>, name: &str) -> Option<&(Vec<String>, Shape)> {
        if let Some(q) = qual {
            return self.by_qual.get(&format!("{q}::{name}"));
        }
        self.by_name.get(name).and_then(Option::as_ref)
    }
}

/// Checks block-operation call sites inside every function body of a file.
#[must_use]
pub fn check_call_sites(
    source: &SourceFile,
    fns: &[FnInfo],
    registry: &Registry,
) -> Vec<ShapeFinding> {
    let toks: Vec<&Tok> = source
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::Doc))
        .collect();
    let mut out = Vec::new();
    for f in fns {
        if f.in_test {
            continue;
        }
        check_body(&toks, f, registry, &mut out);
    }
    out
}

/// Walks one body: builds the local shape environment from `let` bindings
/// and checks the constraint table at method call sites.
fn check_body(toks: &[&Tok], f: &FnInfo, registry: &Registry, out: &mut Vec<ShapeFinding>) {
    let mut env: HashMap<String, Shape> = HashMap::new();
    let body = f.body.clone();
    let mut k = body.start.min(toks.len());
    let end = body.end.min(toks.len());
    while k < end {
        let t = toks[k];
        // `let [mut] name = <expr>` — try to infer the binding's shape.
        if t.is_ident("let") {
            let mut n = k + 1;
            if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            if let (Some(name_tok), Some(eq)) = (toks.get(n), toks.get(n + 1)) {
                if name_tok.kind == TokKind::Ident && eq.is_punct('=') {
                    if let Some(shape) = infer_expr_shape(toks, n + 2, end, registry, &env) {
                        env.insert(name_tok.text.clone(), shape);
                    }
                }
            }
        }
        // `recv.method(arg)` — constraint check.
        if t.is_punct('.')
            && k > body.start
            && toks[k - 1].kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|m| m.kind == TokKind::Ident)
            && toks.get(k + 2).is_some_and(|p| p.is_punct('('))
        {
            let recv = &toks[k - 1].text;
            let method = &toks[k + 1].text;
            if let Some(&(_, ri, ai)) = CONSTRAINTS.iter().find(|(m, _, _)| m == method) {
                let args = top_level_args(toks, k + 2, end);
                let arg = args.first().and_then(|a| single_ident(a));
                if let (Some(rs), Some(a)) = (env.get(recv), arg) {
                    if let Some(as_) = env.get(&a) {
                        check_constraint(rs, as_, ri, ai, method, toks[k].line, f, out);
                    }
                }
            }
        }
        k += 1;
    }
}

/// Definite-mismatch comparison between two inferred shapes.
#[allow(clippy::too_many_arguments)]
fn check_constraint(
    recv: &Shape,
    arg: &Shape,
    ri: usize,
    ai: usize,
    method: &str,
    line: usize,
    f: &FnInfo,
    out: &mut Vec<ShapeFinding>,
) {
    let mut push = |message: String| {
        out.push(ShapeFinding {
            mismatch: true,
            func: f.qual.clone(),
            line,
            message,
        });
    };
    if ri == usize::MAX {
        // Full-shape equality.
        for (a, b) in recv.0.iter().zip(arg.0.iter()) {
            if let (Dim::Lit(x), Dim::Lit(y)) = (a, b) {
                if x != y {
                    push(format!(
                        "`{method}` operands have definite shape mismatch: {x} vs {y}"
                    ));
                    return;
                }
            }
        }
        return;
    }
    let (Some(rd), Some(ad)) = (recv.0.get(ri), arg.0.get(ai)) else {
        return;
    };
    if let (Dim::Lit(x), Dim::Lit(y)) = (rd, ad) {
        if x != y {
            push(format!(
                "`{method}` inner dimensions definitely disagree: {x} vs {y}"
            ));
        }
    }
}

/// Infers the shape of the expression starting at `toks[at]` when it is a
/// call to an annotated function with simple-token arguments.
fn infer_expr_shape(
    toks: &[&Tok],
    at: usize,
    end: usize,
    registry: &Registry,
    env: &HashMap<String, Shape>,
) -> Option<Shape> {
    // Find the first `name(` in the statement; capture the `Type::` or
    // receiver qualifier just before it.
    let mut k = at;
    while k + 1 < end && !toks[k].is_punct(';') {
        if toks[k].kind == TokKind::Ident && toks[k + 1].is_punct('(') {
            let name = &toks[k].text;
            let qual = (k >= at + 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':'))
                .then(|| toks.get(k.wrapping_sub(3)).map(|t| t.text.clone()))
                .flatten();
            let recv = (k > at && toks[k - 1].is_punct('.') && k >= at + 2)
                .then(|| toks[k - 2].text.clone());
            let entry = registry.resolve(qual.as_deref(), name)?;
            let args = top_level_args(toks, k + 1, end);
            return Some(substitute(entry, &args, recv.as_deref(), env));
        }
        k += 1;
    }
    None
}

/// Splits the argument list opening at `toks[open]` (`(`) into top-level
/// argument token groups.
fn top_level_args<'a>(toks: &[&'a Tok], open: usize, end: usize) -> Vec<Vec<&'a Tok>> {
    let mut args: Vec<Vec<&Tok>> = vec![Vec::new()];
    let mut depth = 0i32;
    let mut k = open;
    while k < end {
        let t = toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
            if depth > 1 {
                if let Some(a) = args.last_mut() {
                    a.push(t);
                }
            }
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
            if let Some(a) = args.last_mut() {
                a.push(t);
            }
        } else if t.is_punct(',') && depth == 1 {
            args.push(Vec::new());
        } else if depth >= 1 {
            if let Some(a) = args.last_mut() {
                a.push(t);
            }
        }
        k += 1;
    }
    if args.len() == 1 && args[0].is_empty() {
        args.clear();
    }
    args
}

/// The single identifier an argument consists of (`&x` and `&mut x`
/// unwrap), or `None` for anything more complex.
fn single_ident(arg: &[&Tok]) -> Option<String> {
    let filtered: Vec<&&Tok> = arg
        .iter()
        .filter(|t| !t.is_punct('&') && !t.is_ident("mut"))
        .collect();
    match filtered.as_slice() {
        [t] if t.kind == TokKind::Ident => Some(t.text.clone()),
        _ => None,
    }
}

/// Substitutes parameter references in an annotation with the call's
/// actual arguments.
fn substitute(
    entry: &(Vec<String>, Shape),
    args: &[Vec<&Tok>],
    recv: Option<&str>,
    env: &HashMap<String, Shape>,
) -> Shape {
    let (params, shape) = entry;
    let arg_of = |p: &str| -> Option<&Vec<&Tok>> {
        params.iter().position(|q| q == p).and_then(|i| args.get(i))
    };
    let dims = shape
        .0
        .iter()
        .map(|d| match d {
            Dim::Lit(n) => Dim::Lit(*n),
            Dim::Sym(s) => subst_sym(s, &arg_of, recv, env),
        })
        .collect();
    Shape(dims)
}

/// Substitutes one symbolic dim term.
fn subst_sym<'a>(
    s: &str,
    arg_of: &impl Fn(&str) -> Option<&'a Vec<&'a Tok>>,
    recv: Option<&str>,
    env: &HashMap<String, Shape>,
) -> Dim {
    if let Some((base, field)) = s.split_once('.') {
        let target = if base == "self" {
            recv.map(str::to_owned)
        } else {
            arg_of(base).and_then(|a| single_ident(a))
        };
        if let Some(name) = target {
            if let Some(shape) = env.get(&name) {
                let idx = match (field, shape.0.len()) {
                    ("rows" | "len", _) => 0,
                    ("cols", 2) => 1,
                    _ => return Dim::Sym(format!("{name}.{field}")),
                };
                if let Some(d) = shape.0.get(idx) {
                    return d.clone();
                }
            }
            return Dim::Sym(format!("{name}.{field}"));
        }
        return Dim::Sym(s.to_owned());
    }
    // Free symbol: if it names a parameter, substitute the argument.
    match arg_of(s) {
        Some(a) => match a.as_slice() {
            [t] if t.kind == TokKind::Int => t
                .text
                .replace('_', "")
                .parse::<u64>()
                .map_or_else(|_| Dim::Sym(s.to_owned()), Dim::Lit),
            [t] if t.kind == TokKind::Ident => Dim::Sym(t.text.clone()),
            _ => Dim::Sym(s.to_owned()),
        },
        None => Dim::Sym(s.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::scanner::analyze;

    fn annotations(src: &str, require: bool) -> Vec<ShapeFinding> {
        check_annotations(&extract("t.rs", &analyze(src)), require)
    }

    const LIB: &str = "impl Matrix {\n\
        /// shape: (rows, cols)\n\
        pub fn zeros(rows: usize, cols: usize) -> Self { Matrix }\n\
        /// shape: (self.rows, other.cols)\n\
        pub fn matmul(&self, other: &Matrix) -> Matrix { Matrix }\n\
        }\n";

    #[test]
    fn well_formed_annotations_are_clean() {
        assert!(annotations(LIB, true).is_empty());
    }

    #[test]
    fn missing_annotation_fires_only_when_required() {
        let src = "pub fn make() -> Matrix { Matrix }";
        assert_eq!(annotations(src, true).len(), 1);
        assert!(annotations(src, false).is_empty());
    }

    #[test]
    fn unknown_param_in_dotted_dim_is_flagged() {
        let src =
            "/// shape: (nope.rows, b.cols)\npub fn f(a: &Matrix, b: &Matrix) -> Matrix { Matrix }";
        let f = annotations(src, false);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("nope"));
    }

    #[test]
    fn wrong_dim_count_is_flagged() {
        let src = "/// shape: (n)\npub fn f(n: usize) -> Matrix { Matrix }";
        let f = annotations(src, true);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("needs 2"));
    }

    #[test]
    fn vector_annotation_takes_one_dim() {
        let src = "/// shape: (n,)\npub fn f(n: usize) -> Vector { Vector }";
        assert!(annotations(src, true).is_empty());
    }

    #[test]
    fn bad_field_is_flagged() {
        let src = "/// shape: (a.width, a.cols)\npub fn f(a: &Matrix) -> Matrix { Matrix }";
        let f = annotations(src, false);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("width"));
    }

    fn mismatches(body: &str) -> Vec<ShapeFinding> {
        let src = format!("{LIB}fn user() {{\n{body}\n}}\n");
        let source = analyze(&src);
        let fns = extract("t.rs", &source);
        let mut reg = Registry::default();
        reg.add_all(&fns);
        check_call_sites(&source, &fns, &reg)
            .into_iter()
            .filter(|f| f.mismatch)
            .collect()
    }

    #[test]
    fn definite_matmul_mismatch_fires() {
        let out = mismatches(
            "let a = Matrix::zeros(3, 4);\nlet b = Matrix::zeros(5, 2);\nlet c = a.matmul(&b);",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("4 vs 5"), "{}", out[0].message);
    }

    #[test]
    fn compatible_matmul_is_clean() {
        let out = mismatches(
            "let a = Matrix::zeros(3, 4);\nlet b = Matrix::zeros(4, 2);\nlet c = a.matmul(&b);",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn symbolic_dims_never_fire() {
        let out = mismatches(
            "let a = Matrix::zeros(n, 4);\nlet b = Matrix::zeros(m, 2);\nlet c = a.matmul(&b);",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn chained_result_shapes_propagate() {
        // c = a(3×4) · b(4×2) → (3, 2); c.matmul(d(9×9)) is definite 2 vs 9.
        let out = mismatches(
            "let a = Matrix::zeros(3, 4);\nlet b = Matrix::zeros(4, 2);\n\
             let c = a.matmul(&b);\nlet d = Matrix::zeros(9, 9);\nlet e = c.matmul(&d);",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("2 vs 9"), "{}", out[0].message);
    }
}
