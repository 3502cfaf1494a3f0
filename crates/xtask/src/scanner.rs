//! Line-level analysis of Rust sources, built on the token lexer.
//!
//! PR 1 implemented this module as a hand-rolled line state machine; it is
//! now a thin layer over [`crate::lexer`]: the lexer produces both the
//! token stream (used by the `analyze` passes) and the blanked per-line
//! view (used by the PR-1 `check` rules), and this module derives the
//! `#[cfg(test)]` mask from the *token stream* with a region stack. That
//! fixes two PR-1 scanner bugs:
//!
//! * **nested `#[cfg(test)]` modules** — the old single-slot tracker was
//!   overwritten by an inner `#[cfg(test)]` item, unmasking the tail of
//!   the outer test module and producing false positives;
//! * **`'\''` char literals** — the old scanner mis-consumed the escaped
//!   quote and desynchronized on the closing quote.

pub use crate::lexer::Line;
use crate::lexer::{lex, Tok, TokKind};

/// A fully analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Analyzed lines, in order.
    pub lines: Vec<Line>,
    /// `test_mask[i]` is `true` when line `i` belongs to a `#[cfg(test)]`
    /// region (the attribute line itself included).
    pub test_mask: Vec<bool>,
    /// The full token stream (comments included), for the semantic passes.
    pub tokens: Vec<Tok>,
}

/// Analyzes a whole file: lexes it and computes the `#[cfg(test)]` mask.
#[must_use]
pub fn analyze(source: &str) -> SourceFile {
    let out = lex(source);
    let test_mask = compute_test_mask(&out.tokens, out.lines.len());
    SourceFile {
        lines: out.lines,
        test_mask,
        tokens: out.tokens,
    }
}

/// Marks every line covered by a `#[cfg(test)]` item. Regions are tracked
/// with a stack of opening brace depths, so test modules nested inside
/// test modules stay masked until the *outer* brace closes.
fn compute_test_mask(tokens: &[Tok], line_count: usize) -> Vec<bool> {
    let mut mask = vec![false; line_count];
    let code: Vec<&Tok> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment | TokKind::Doc))
        .collect();

    let mut depth = 0usize;
    // Brace depth at which each open `#[cfg(test)]` region started, with
    // the line its attribute began on.
    let mut regions: Vec<(usize, usize)> = Vec::new();
    // A `#[cfg(test)]` attribute was seen; waiting for `{` or item-level
    // `;`. Holds (attribute line, bracket/paren depth since arming).
    let mut armed: Option<(usize, i32)> = None;

    let mark = |mask: &mut Vec<bool>, from: usize, to: usize| {
        for line in from..=to.min(line_count) {
            if line >= 1 {
                mask[line - 1] = true;
            }
        }
    };

    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        if t.is_punct('#') && is_cfg_test_attr(&code[i..]) {
            if armed.is_none() {
                armed = Some((t.line, 0));
            }
            i += 7;
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                if let Some((attr_line, _)) = armed.take() {
                    regions.push((depth, attr_line));
                }
                depth += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if regions.last().is_some_and(|&(d, _)| d == depth) {
                    let (_, attr_line) = regions.pop().unwrap_or((0, t.line));
                    mark(&mut mask, attr_line, t.line);
                }
            }
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => {
                if let Some((_, delim)) = armed.as_mut() {
                    *delim += 1;
                }
            }
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => {
                if let Some((_, delim)) = armed.as_mut() {
                    *delim -= 1;
                }
            }
            (TokKind::Punct, ";") => {
                // `#[cfg(test)] use …;`-style single-item gating: only an
                // item-level semicolon resolves the armed attribute.
                if let Some((attr_line, delim)) = armed {
                    if delim <= 0 {
                        mark(&mut mask, attr_line, t.line);
                        armed = None;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unclosed regions (truncated file): mask to the end.
    for (_, attr_line) in regions {
        mark(&mut mask, attr_line, line_count);
    }
    if let Some((attr_line, _)) = armed {
        mark(&mut mask, attr_line, line_count);
    }
    // Lines strictly inside open regions between attribute and closing
    // brace are handled by the ranged marking above; nothing else to do.
    mask
}

/// Whether `code` (comment-free tokens) starts with exactly
/// `#[cfg(test)]`.
fn is_cfg_test_attr(code: &[&Tok]) -> bool {
    code.len() >= 7
        && code[0].is_punct('#')
        && code[1].is_punct('[')
        && code[2].is_ident("cfg")
        && code[3].is_punct('(')
        && code[4].is_ident("test")
        && code[5].is_punct(')')
        && code[6].is_punct(']')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_string_bodies() {
        let f = analyze(r#"let x = "panic!(no)"; call();"#);
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].code.contains("call()"));
    }

    #[test]
    fn extracts_line_comments() {
        let f = analyze("let x = 1; // lint: allow(float_eq)");
        assert!(f.lines[0].comment.contains("lint: allow(float_eq)"));
        assert!(!f.lines[0].code.contains("lint"));
    }

    #[test]
    fn doc_comments_are_flagged_and_excluded_from_code() {
        let f = analyze("/// uses .unwrap() in an example\nfn x() {}");
        assert!(f.lines[0].is_doc);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[1].is_doc);
    }

    #[test]
    fn multiline_strings_stay_blanked() {
        let f = analyze("let s = \"first \\\n  second==1.0\";\nlet t = 2;");
        assert!(!f.lines[1].code.contains("=="));
        assert!(f.lines[2].code.contains("let t"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = analyze("/* start\n .unwrap() inside\n end */ let x = 1;");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("let x"));
    }

    #[test]
    fn cfg_test_region_is_masked() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}";
        let f = analyze(src);
        assert!(!f.test_mask[0]);
        assert!(f.test_mask[1]);
        assert!(f.test_mask[2]);
        assert!(f.test_mask[3]);
        assert!(f.test_mask[4]);
        assert!(!f.test_mask[5]);
    }

    #[test]
    fn cfg_test_single_item_is_masked() {
        let f = analyze("#[cfg(test)]\nuse helper::thing;\nfn real() {}");
        assert!(f.test_mask[0]);
        assert!(f.test_mask[1]);
        assert!(!f.test_mask[2]);
    }

    #[test]
    fn nested_cfg_test_modules_stay_masked() {
        // Regression (PR-1 scanner bug): the inner `#[cfg(test)]` item
        // overwrote the single-slot region tracker, unmasking `g`.
        let src = "#[cfg(test)]\nmod tests {\n    #[cfg(test)]\n    mod inner { fn f() {} }\n    fn g() { y.unwrap(); }\n}\nfn real() {}";
        let f = analyze(src);
        for line in 0..6 {
            assert!(f.test_mask[line], "line {} must be masked", line + 1);
        }
        assert!(!f.test_mask[6]);
    }

    #[test]
    fn sibling_cfg_test_items_each_masked() {
        let src =
            "#[cfg(test)]\nmod a { fn f() {} }\nfn mid() {}\n#[cfg(test)]\nmod b { fn g() {} }";
        let f = analyze(src);
        assert!(f.test_mask[0]);
        assert!(f.test_mask[1]);
        assert!(!f.test_mask[2]);
        assert!(f.test_mask[3]);
        assert!(f.test_mask[4]);
    }

    #[test]
    fn cfg_test_attr_with_array_semicolon_stays_armed() {
        // The `;` inside `[u8; 3]` must not resolve the armed attribute.
        let src = "#[cfg(test)]\nstatic X: [u8; 3] = [0; 3];\nfn real() {}";
        let f = analyze(src);
        assert!(f.test_mask[0]);
        assert!(f.test_mask[1]);
        assert!(!f.test_mask[2]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = analyze("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("str"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let f = analyze("let c = '=' ; let d = '\\n';");
        assert!(!f.lines[0].code.contains("'='"), "{}", f.lines[0].code);
        assert!(!f.lines[0].code.contains('n'), "{}", f.lines[0].code);
    }

    #[test]
    fn escaped_quote_char_literal_does_not_desync() {
        // Regression (PR-1 scanner bug): `'\''` lost sync and could blank
        // or expose the wrong span on the rest of the line.
        let f = analyze(r"let c = '\''; x.unwrap();");
        assert!(f.lines[0].code.contains(".unwrap()"), "{}", f.lines[0].code);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = analyze("let s = r#\"has .unwrap() text\"#; f();");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("f()"));
    }

    #[test]
    fn multiline_raw_strings_are_blanked() {
        // Regression fixture: a raw string spanning lines must mask its
        // interior (including `#[cfg(test)]`-looking text and braces) and
        // re-expose code after the terminator.
        let src = "let s = r##\"\n#[cfg(test)]\nmod fake { x.unwrap(); }\n\"##;\nx.unwrap();";
        let f = analyze(src);
        assert!(!f.lines[1].code.contains("cfg"));
        assert!(!f.lines[2].code.contains("unwrap"));
        assert!(f.lines[4].code.contains(".unwrap()"));
        assert!(!f.test_mask[4], "raw-string text must not arm the mask");
    }
}
