//! A real token lexer for Rust sources.
//!
//! PR 1's checker reduced files to blanked lines and matched substrings;
//! that is too coarse for call graphs and shape contracts, and it
//! mis-handled two edge cases (nested `#[cfg(test)]` modules and the
//! `'\''` char literal). This module lexes a file into a flat token
//! stream — identifiers, literals, punctuation, doc/line comments — with
//! line/column positions, while *also* producing the blanked per-line
//! view the PR-1 rules still consume. One pass, one source of truth.
//!
//! The lexer understands: line and (nested) block comments, doc comments
//! (`///`, `//!`), string literals with escapes spanning lines, raw
//! strings `r#"…"#` with any hash count, byte and byte-raw strings, raw
//! identifiers (`r#match`), char literals (including `'\''`) versus
//! lifetimes, decimal/hex/octal/binary numbers with suffixes and
//! exponents. It does not build an AST — the item extractor
//! ([`crate::items`]) layers approximate structure on top.

/// Kinds of tokens the lexer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers are normalized: `r#match`
    /// lexes as `match`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// Integer literal (any base, with optional suffix).
    Int,
    /// Float literal (decimal point and/or exponent, optional suffix).
    Float,
    /// Any string-family literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    /// The text is the literal body (delimiters stripped).
    Str,
    /// Char or byte-char literal; text is the body between quotes.
    Char,
    /// One punctuation character (`{`, `[`, `/`, `-`, …).
    Punct,
    /// A doc comment line (`///` or `//!`); text is the body.
    Doc,
    /// A non-doc comment (`//` or `/* … */`); text is the body.
    Comment,
}

/// One lexed token with its position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for what is included).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// Whether this token is the identifier/keyword `word`.
    #[must_use]
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }
}

/// One analyzed source line (the PR-1 view, kept for the line rules).
#[derive(Debug, Clone)]
pub struct Line {
    /// Original text, unmodified.
    pub raw: String,
    /// The line with string/char-literal bodies and all comments replaced
    /// by spaces; token searches run against this.
    pub code: String,
    /// Text of the trailing `//` line comment (without the slashes),
    /// empty when there is none (doc comments included, matching PR 1).
    pub comment: String,
    /// Whether the line is (part of) a doc comment (`///` or `//!`).
    pub is_doc: bool,
}

/// Lexer output: the token stream plus the blanked per-line view.
#[derive(Debug)]
pub struct LexOutput {
    /// All tokens in source order.
    pub tokens: Vec<Tok>,
    /// Per-line blanked view.
    pub lines: Vec<Line>,
}

/// Internal cursor over the source characters.
struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    /// Blanked code text of the line under construction.
    code: String,
    /// Trailing line-comment text of the line under construction.
    comment: String,
    /// Whether the current line's visible content is a doc comment.
    is_doc: bool,
    /// Finished blanked lines.
    lines: Vec<(String, String, bool)>,
}

impl Cursor {
    fn new(source: &str) -> Self {
        Cursor {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            code: String::new(),
            comment: String::new(),
            is_doc: false,
            lines: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, echoing `echo` into the blanked line (newlines
    /// finish the current line regardless of `echo`).
    fn bump(&mut self, echo: Option<char>) {
        let c = self.chars[self.pos];
        self.pos += 1;
        if c == '\n' {
            self.flush_line();
        } else if let Some(e) = echo {
            self.code.push(e);
        }
    }

    fn flush_line(&mut self) {
        self.lines.push((
            std::mem::take(&mut self.code),
            std::mem::take(&mut self.comment),
            self.is_doc,
        ));
        self.is_doc = false;
        self.line += 1;
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Counts `#` characters at `from` and requires a following `"` for a raw
/// string opener; returns the hash count.
fn raw_opener_hashes(cur: &Cursor, from: usize) -> Option<usize> {
    let mut hashes = 0;
    while cur.peek(from + hashes) == Some('#') {
        hashes += 1;
    }
    (cur.peek(from + hashes) == Some('"')).then_some(hashes)
}

/// Lexes a whole source file.
#[must_use]
pub fn lex(source: &str) -> LexOutput {
    let mut cur = Cursor::new(source);
    let mut tokens = Vec::new();

    while !cur.at_end() {
        let c = cur.chars[cur.pos];
        let line = cur.line;
        match c {
            '\n' | ' ' | '\t' | '\r' => cur.bump(if c == '\n' { None } else { Some(c) }),
            '/' if cur.peek(1) == Some('/') => lex_line_comment(&mut cur, &mut tokens),
            '/' if cur.peek(1) == Some('*') => lex_block_comment(&mut cur, &mut tokens),
            '"' => lex_string(&mut cur, &mut tokens, 0, false),
            'r' if raw_opener_hashes(&cur, 1).is_some() => {
                let hashes = raw_opener_hashes(&cur, 1).unwrap_or(0);
                cur.bump(Some('"')); // the `r`, echoed as the open marker
                for _ in 0..hashes {
                    cur.bump(Some(' '));
                }
                lex_string(&mut cur, &mut tokens, hashes, true);
            }
            'r' if cur.peek(1) == Some('#')
                && cur.peek(2).is_some_and(is_ident_start)
                && raw_opener_hashes(&cur, 1).is_none() =>
            {
                // Raw identifier r#ident: skip the prefix, lex the ident.
                cur.bump(Some('r'));
                cur.bump(Some('#'));
                lex_ident(&mut cur, &mut tokens);
            }
            'b' if cur.peek(1) == Some('"') => {
                cur.bump(Some('b'));
                lex_string(&mut cur, &mut tokens, 0, false);
            }
            'b' if cur.peek(1) == Some('r') && raw_opener_hashes(&cur, 2).is_some() => {
                let hashes = raw_opener_hashes(&cur, 2).unwrap_or(0);
                cur.bump(Some('b'));
                cur.bump(Some('"'));
                for _ in 0..hashes {
                    cur.bump(Some(' '));
                }
                lex_string(&mut cur, &mut tokens, hashes, true);
            }
            'b' if cur.peek(1) == Some('\'') => {
                cur.bump(Some('b'));
                lex_char_or_lifetime(&mut cur, &mut tokens);
            }
            '\'' => lex_char_or_lifetime(&mut cur, &mut tokens),
            _ if c.is_ascii_digit() => lex_number(&mut cur, &mut tokens),
            _ if is_ident_start(c) => lex_ident(&mut cur, &mut tokens),
            _ => {
                tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                cur.bump(Some(c));
            }
        }
    }
    cur.flush_line();

    let lines = source
        .lines()
        .zip(cur.lines)
        .map(|(raw, (code, comment, is_doc))| Line {
            raw: raw.to_owned(),
            code,
            comment,
            is_doc,
        })
        .collect();
    LexOutput { tokens, lines }
}

fn lex_line_comment(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let line = cur.line;
    cur.bump(Some(' ')); // `/`
    cur.bump(Some(' ')); // `/`
    let doc = matches!(cur.peek(0), Some('/') | Some('!'));
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump(None);
    }
    // PR-1 semantics: `comment` is everything after the first two slashes,
    // and a line is "doc" when the doc marker is its first visible code.
    if doc && cur.code.trim().is_empty() {
        cur.is_doc = true;
    }
    cur.comment = text.clone();
    // Strip the leading doc marker from the stored token text.
    let body = text
        .strip_prefix('/')
        .or_else(|| text.strip_prefix('!'))
        .unwrap_or(&text);
    tokens.push(Tok {
        kind: if doc { TokKind::Doc } else { TokKind::Comment },
        text: body.trim().to_owned(),
        line,
    });
}

fn lex_block_comment(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let line = cur.line;
    cur.bump(Some(' ')); // `/`
    cur.bump(Some(' ')); // `*`
    let mut depth = 1usize;
    let mut text = String::new();
    while !cur.at_end() && depth > 0 {
        if cur.peek(0) == Some('*') && cur.peek(1) == Some('/') {
            depth -= 1;
            cur.bump(Some(' '));
            cur.bump(Some(' '));
        } else if cur.peek(0) == Some('/') && cur.peek(1) == Some('*') {
            depth += 1;
            cur.bump(Some(' '));
            cur.bump(Some(' '));
        } else {
            let c = cur.chars[cur.pos];
            if c != '\n' {
                text.push(c);
            }
            cur.bump(Some(' '));
        }
    }
    tokens.push(Tok {
        kind: TokKind::Comment,
        text: text.trim().to_owned(),
        line,
    });
}

/// Lexes a string body starting at the opening `"`; `hashes` is the raw
/// marker count and `is_raw` disables escape processing (the raw opener's
/// `r#…#` prefix has already been consumed and echoed by the caller).
fn lex_string(cur: &mut Cursor, tokens: &mut Vec<Tok>, hashes: usize, is_raw: bool) {
    let line = cur.line;
    if is_raw {
        cur.bump(None); // the quote char itself; marker already echoed
    } else {
        cur.bump(Some('"')); // opening quote of an ordinary string
    }
    let mut text = String::new();
    while !cur.at_end() {
        let c = cur.chars[cur.pos];
        if c == '\\' && !is_raw {
            text.push(c);
            cur.bump(Some(' '));
            if !cur.at_end() {
                text.push(cur.chars[cur.pos]);
                cur.bump(Some(' '));
            }
        } else if c == '"' && (0..hashes).all(|k| cur.peek(1 + k) == Some('#')) {
            cur.bump(Some('"'));
            for _ in 0..hashes {
                cur.bump(Some(' '));
            }
            break;
        } else {
            text.push(c);
            cur.bump(Some(' '));
        }
    }
    tokens.push(Tok {
        kind: TokKind::Str,
        text,
        line,
    });
}

/// Lexes either a lifetime (`'a`) or a char literal (`'x'`, `'\n'`,
/// `'\''`). Unlike the PR-1 scanner this handles `'\''` exactly: the
/// escaped quote is part of the body, the literal ends at the *next*
/// quote.
fn lex_char_or_lifetime(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let line = cur.line;
    let next = cur.peek(1);
    let literal = next == Some('\\') || cur.peek(2) == Some('\'');
    if literal {
        cur.bump(Some('\'')); // opening quote
        let mut text = String::new();
        if cur.peek(0) == Some('\\') {
            text.push('\\');
            cur.bump(Some(' '));
            if !cur.at_end() {
                text.push(cur.chars[cur.pos]);
                cur.bump(Some(' '));
            }
        } else if !cur.at_end() {
            text.push(cur.chars[cur.pos]);
            cur.bump(Some(' '));
        }
        while !cur.at_end() && cur.peek(0) != Some('\'') && cur.peek(0) != Some('\n') {
            text.push(cur.chars[cur.pos]);
            cur.bump(Some(' '));
        }
        if cur.peek(0) == Some('\'') {
            cur.bump(Some('\''));
        }
        tokens.push(Tok {
            kind: TokKind::Char,
            text,
            line,
        });
    } else {
        // Lifetime: quote plus identifier characters.
        cur.bump(Some('\''));
        let mut text = String::new();
        while let Some(c) = cur.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            cur.bump(Some(c));
        }
        tokens.push(Tok {
            kind: TokKind::Lifetime,
            text,
            line,
        });
    }
}

fn lex_number(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let line = cur.line;
    let mut text = String::new();
    let mut is_float = false;

    let radix_prefix = cur.peek(0) == Some('0')
        && matches!(
            cur.peek(1),
            Some('x') | Some('X') | Some('o') | Some('O') | Some('b') | Some('B')
        );
    if radix_prefix {
        for _ in 0..2 {
            text.push(cur.chars[cur.pos]);
            let c = cur.chars[cur.pos];
            cur.bump(Some(c));
        }
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_hexdigit() || c == '_' {
                text.push(c);
                cur.bump(Some(c));
            } else {
                break;
            }
        }
    } else {
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                cur.bump(Some(c));
            } else {
                break;
            }
        }
        // A decimal point belongs to the number only when not starting a
        // range (`1..n`) or a method call (`1.max(2)`).
        if cur.peek(0) == Some('.')
            && cur.peek(1) != Some('.')
            && !cur.peek(1).is_some_and(is_ident_start)
        {
            is_float = true;
            text.push('.');
            cur.bump(Some('.'));
            while let Some(c) = cur.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump(Some(c));
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(0), Some('e') | Some('E')) {
            let sign = matches!(cur.peek(1), Some('+') | Some('-'));
            let digit_at = if sign { 2 } else { 1 };
            if cur.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                for _ in 0..digit_at {
                    let c = cur.chars[cur.pos];
                    text.push(c);
                    cur.bump(Some(c));
                }
                while let Some(c) = cur.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        cur.bump(Some(c));
                    } else {
                        break;
                    }
                }
            }
        }
    }
    // Type suffix (`f64`, `u32`, `usize`, …).
    let mut suffix = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            suffix.push(c);
            cur.bump(Some(c));
        } else {
            break;
        }
    }
    if suffix.starts_with('f') {
        is_float = true;
    }
    text.push_str(&suffix);
    tokens.push(Tok {
        kind: if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        },
        text,
        line,
    });
}

fn lex_ident(cur: &mut Cursor, tokens: &mut Vec<Tok>) {
    let line = cur.line;
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump(Some(c));
        } else {
            break;
        }
    }
    tokens.push(Tok {
        kind: TokKind::Ident,
        text,
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let toks = kinds("let x2 = 4.5e-3f64 + 0x1F;");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert_eq!(toks[1], (TokKind::Ident, "x2".into()));
        assert_eq!(toks[2], (TokKind::Punct, "=".into()));
        assert_eq!(toks[3], (TokKind::Float, "4.5e-3f64".into()));
        assert_eq!(toks[4], (TokKind::Punct, "+".into()));
        assert_eq!(toks[5], (TokKind::Int, "0x1F".into()));
    }

    #[test]
    fn int_method_call_and_range_are_not_floats() {
        let toks = kinds("0.max(1); 1..n; 2.0_f64;");
        assert_eq!(toks[0], (TokKind::Int, "0".into()));
        assert!(toks.iter().any(|t| t == &(TokKind::Ident, "max".into())));
        assert!(toks.contains(&(TokKind::Int, "1".into())));
        assert!(toks.contains(&(TokKind::Float, "2.0_f64".into())));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let toks = kinds(r####"let s = r##"a "# b"##; f();"####);
        assert!(toks.contains(&(TokKind::Str, "a \"# b".into())));
        assert!(toks.iter().any(|t| t == &(TokKind::Ident, "f".into())));
    }

    #[test]
    fn raw_identifier_is_normalized() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokKind::Ident, "type".into())));
    }

    #[test]
    fn escaped_quote_char_literal() {
        // `'\''` broke the PR-1 scanner; the lexer must consume all four
        // characters as one Char token.
        let toks = kinds(r"let c = '\''; let d = 'x';");
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokKind::Char).count(),
            2,
            "{toks:?}"
        );
        assert!(toks.contains(&(TokKind::Char, "\\'".into())));
        assert!(toks.contains(&(TokKind::Char, "x".into())));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) {}");
        assert!(toks.contains(&(TokKind::Lifetime, "a".into())));
        assert!(toks.iter().all(|t| t.0 != TokKind::Char));
    }

    #[test]
    fn doc_and_plain_comments() {
        let out = lex("/// doc text\n// plain\nfn x() {} /* block */");
        assert_eq!(out.tokens[0].kind, TokKind::Doc);
        assert_eq!(out.tokens[0].text, "doc text");
        assert_eq!(out.tokens[1].kind, TokKind::Comment);
        assert!(out.lines[0].is_doc);
        assert!(!out.lines[1].is_doc);
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Comment && t.text == "block"));
    }

    #[test]
    fn blanked_lines_match_pr1_semantics() {
        let out = lex(r#"let x = "panic!(no)"; call(); // lint: allow(float_eq)"#);
        assert!(!out.lines[0].code.contains("panic!"));
        assert!(out.lines[0].code.contains("call()"));
        assert!(out.lines[0].comment.contains("lint: allow(float_eq)"));
    }

    #[test]
    fn multiline_string_and_block_comment_blanking() {
        let out = lex("let s = \"a\nb.unwrap()\nc\"; let t = 1;\n/* x\n.unwrap()\n*/ ok();");
        assert!(!out.lines[1].code.contains("unwrap"));
        assert!(out.lines[2].code.contains("let t"));
        assert!(!out.lines[4].code.contains("unwrap"));
        assert!(out.lines[5].code.contains("ok()"));
    }

    #[test]
    fn multiline_raw_string_blanking() {
        let out = lex("let s = r#\"first\n.unwrap() inside\nlast\"#; tail();");
        assert!(!out.lines[1].code.contains("unwrap"));
        assert!(out.lines[2].code.contains("tail()"));
        let strs: Vec<_> = lex("let s = r#\"first\n.unwrap()\nlast\"#;")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains(".unwrap()"));
    }

    #[test]
    fn token_lines_are_recorded() {
        let out = lex("a\nbb\n  ccc");
        let lines: Vec<usize> = out.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
