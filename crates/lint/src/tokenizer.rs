//! A lightweight Rust tokenizer — just enough lexical fidelity for the
//! invariant rules.
//!
//! The lexer understands everything that could make a naive textual
//! scan lie about source code: line comments, (nested) block comments,
//! string/char/byte literals, raw strings with arbitrary `#` fences,
//! lifetimes vs. char literals, and numeric literals (so float
//! arithmetic is distinguishable from integer arithmetic). It does
//! *not* parse Rust — rules work on the token stream plus a
//! `#[cfg(test)]` span map (see [`test_spans`]).
//!
//! Suppression pragmas (`// hnp-lint: allow(<rule>)`) are extracted
//! during lexing from comment bodies, so they survive in places a
//! token stream would drop them.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// Integer literal (any radix).
    IntLit,
    /// Float literal (`1.0`, `1e3`, `2f32`, …).
    FloatLit,
    /// String or byte-string literal (raw or not), contents dropped.
    StrLit,
    /// Char literal.
    CharLit,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Source text (empty for string literals — rules never need the
    /// contents, and dropping them avoids accidental matches).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this token is the punctuation `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == ch as u8
    }
}

/// A suppression pragma found in a comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the pragma appears on.
    pub line: u32,
    /// Rule names listed in `allow(...)`.
    pub rules: Vec<String>,
    /// `allow-file(...)` form: suppresses the whole file.
    pub whole_file: bool,
    /// The comment text after `allow(...)`: the justification.
    pub note: String,
}

/// Lexer output: the token stream plus extracted pragmas.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Suppression pragmas in source order.
    pub suppressions: Vec<Suppression>,
}

/// Lexes `src` into tokens and pragmas. Unterminated constructs are
/// tolerated (the remainder is consumed) — a linter must never panic
/// on the code it inspects.
pub fn lex(src: &str) -> LexOutput {
    let b = src.as_bytes();
    let mut out = LexOutput::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                scan_pragma(&src[start..i], line, &mut out.suppressions);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i + 2;
                let mut depth = 1usize;
                let comment_line = line;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                scan_pragma(&src[start..end], comment_line, &mut out.suppressions);
            }
            b'"' => {
                i = consume_string(b, i + 1, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::StrLit,
                    text: String::new(),
                    line,
                });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident
                // with no closing quote right after the first char.
                let is_lifetime = i + 1 < b.len()
                    && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                    && !(i + 2 < b.len() && b[i + 2] == b'\'');
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    i += 1;
                    if i < b.len() && b[i] == b'\\' {
                        i += 2; // Skip the escape head; tail consumed below.
                    }
                    while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
                        i += 1;
                    }
                    if i < b.len() && b[i] == b'\'' {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::CharLit,
                        text: String::new(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let (ni, kind) = consume_number(b, i, src);
                out.tokens.push(Tok {
                    kind,
                    text: src[i..ni].to_string(),
                    line,
                });
                i = ni;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // Raw / byte string prefixes: r"", r#""#, b"", br"" …
                if i < b.len() && matches!(word, "r" | "b" | "br" | "rb") {
                    if b[i] == b'"' {
                        if word.contains('r') {
                            i = consume_raw_string(b, i, 0, &mut line);
                        } else {
                            i = consume_string(b, i + 1, &mut line);
                        }
                        out.tokens.push(Tok {
                            kind: TokKind::StrLit,
                            text: String::new(),
                            line,
                        });
                        continue;
                    }
                    if b[i] == b'#' && word.contains('r') {
                        let mut hashes = 0usize;
                        let mut j = i;
                        while j < b.len() && b[j] == b'#' {
                            hashes += 1;
                            j += 1;
                        }
                        if j < b.len() && b[j] == b'"' {
                            i = consume_raw_string(b, j, hashes, &mut line);
                            out.tokens.push(Tok {
                                kind: TokKind::StrLit,
                                text: String::new(),
                                line,
                            });
                            continue;
                        }
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: word.to_string(),
                    line,
                });
            }
            _ => {
                out.tokens.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a non-raw string body starting *after* the opening quote;
/// returns the index past the closing quote.
fn consume_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a raw string starting at the opening quote with `hashes`
/// fence characters; returns the index past the closing fence.
fn consume_raw_string(b: &[u8], open_quote: usize, hashes: usize, line: &mut u32) -> usize {
    let mut i = open_quote + 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
        }
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Consumes a numeric literal at `i`; returns (end index, kind).
fn consume_number(b: &[u8], start: usize, src: &str) -> (usize, TokKind) {
    let mut i = start;
    let radix_prefixed = i + 1 < b.len() && b[i] == b'0' && matches!(b[i + 1], b'x' | b'o' | b'b');
    if radix_prefixed {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return (i, TokKind::IntLit);
    }
    let mut is_float = false;
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part: `1.5` and `1.` are floats, but `1..2` is a
    // range and `1.max(2)` is a method call.
    if i < b.len() && b[i] == b'.' {
        let next = b.get(i + 1).copied();
        let next_is_digit = next.is_some_and(|n| n.is_ascii_digit());
        let next_is_ident = next.is_some_and(|n| n.is_ascii_alphabetic() || n == b'_');
        let next_is_dot = next == Some(b'.');
        if next_is_digit || (!next_is_ident && !next_is_dot) {
            is_float = true;
            i += 1;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Exponent.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (`u8`, `f32`, …).
    let suffix_start = i;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    let suffix = &src[suffix_start..i];
    if suffix.starts_with('f') {
        is_float = true;
    }
    (
        i,
        if is_float {
            TokKind::FloatLit
        } else {
            TokKind::IntLit
        },
    )
}

/// Extracts `hnp-lint: allow(...)` / `allow-file(...)` pragmas from a
/// comment body.
fn scan_pragma(comment: &str, line: u32, out: &mut Vec<Suppression>) {
    let Some(pos) = comment.find("hnp-lint:") else {
        return;
    };
    let rest = comment[pos + "hnp-lint:".len()..].trim_start();
    let whole_file = rest.starts_with("allow-file(");
    let open = if whole_file {
        "allow-file("
    } else if rest.starts_with("allow(") {
        "allow("
    } else {
        return;
    };
    let body = &rest[open.len()..];
    let Some(close) = body.find(')') else {
        return;
    };
    let rules: Vec<String> = body[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return;
    }
    out.push(Suppression {
        line,
        rules,
        whole_file,
        note: body[close + 1..].trim().to_string(),
    });
}

/// Computes, per token, whether it lies inside a test-only span: an
/// item annotated `#[cfg(test)]` / `#[test]` (any attribute whose
/// argument tokens mention the identifier `test`, which also covers
/// `cfg(any(test, …))`). The span runs from the attribute to the end
/// of the following item — its balanced `{…}` body, or the first
/// top-level `;` for body-less items.
pub fn test_spans(tokens: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Find the matching `]` of the attribute.
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut mentions_test = false;
            while j < tokens.len() {
                if tokens[j].is_punct('[') {
                    depth += 1;
                } else if tokens[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if !mentions_test {
                i = j + 1;
                continue;
            }
            // Mark from the attribute through the end of the item.
            let span_start = i;
            let mut k = j + 1;
            // Chained attributes belong to the same item.
            while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
                let mut d = 0i32;
                while k < tokens.len() {
                    if tokens[k].is_punct('[') {
                        d += 1;
                    } else if tokens[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
            // Consume to the item body's closing brace (or `;`).
            let mut brace = 0i32;
            let mut entered = false;
            while k < tokens.len() {
                if tokens[k].is_punct('{') {
                    brace += 1;
                    entered = true;
                } else if tokens[k].is_punct('}') {
                    brace -= 1;
                    if entered && brace == 0 {
                        break;
                    }
                } else if tokens[k].is_punct(';') && !entered {
                    break;
                }
                k += 1;
            }
            let span_end = k.min(tokens.len().saturating_sub(1));
            for slot in in_test.iter_mut().take(span_end + 1).skip(span_start) {
                *slot = true;
            }
            i = span_end + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn string_contents_produce_no_identifier_tokens() {
        let got = idents(r#"let x = "HashMap unwrap() panic!"; call(x)"#);
        assert_eq!(got, vec!["let", "x", "call", "x"]);
    }

    #[test]
    fn raw_strings_with_fences_are_opaque() {
        let src = "let s = r#\"thread_rng \"quoted\" unwrap\"#; done()";
        assert_eq!(idents(src), vec!["let", "s", "done"]);
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "/* outer /* inner unwrap() */ still comment */ real()";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::CharLit).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 1);
    }

    #[test]
    fn float_and_int_literals_are_distinguished() {
        let toks = lex("let a = 1.5; let b = 10; let c = 2e3; let d = 7f32; let e = 0x1F;").tokens;
        let kinds: Vec<TokKind> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::IntLit | TokKind::FloatLit))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::FloatLit,
                TokKind::IntLit,
                TokKind::FloatLit,
                TokKind::FloatLit,
                TokKind::IntLit
            ]
        );
    }

    #[test]
    fn range_and_method_call_on_int_are_not_floats() {
        let toks = lex("for i in 1..10 { let m = 3.max(i); }").tokens;
        assert!(toks.iter().all(|t| t.kind != TokKind::FloatLit));
    }

    #[test]
    fn pragma_extraction_from_line_and_block_comments() {
        let src = "\n// hnp-lint: allow(determinism) seeded elsewhere\nx();\n/* hnp-lint: allow(panic_hygiene, layering) */\n";
        let out = lex(src);
        assert_eq!(out.suppressions.len(), 2);
        assert_eq!(out.suppressions[0].line, 2);
        assert_eq!(out.suppressions[0].rules, vec!["determinism"]);
        assert_eq!(out.suppressions[1].rules, vec!["panic_hygiene", "layering"]);
        assert!(!out.suppressions[0].whole_file);
    }

    #[test]
    fn allow_file_pragma_is_flagged() {
        let out = lex("// hnp-lint: allow-file(integer_purity)\n");
        assert_eq!(out.suppressions.len(), 1);
        assert!(out.suppressions[0].whole_file);
    }

    #[test]
    fn line_numbers_survive_multiline_strings_and_comments() {
        let src = "let a = \"line\nline\nline\";\n/* c\nc */\nlet marker = 1;\n";
        let toks = lex(src).tokens;
        let marker = toks.iter().find(|t| t.is_ident("marker")).expect("marker");
        assert_eq!(marker.line, 6);
    }

    #[test]
    fn cfg_test_mod_span_covers_body() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let out = lex(src);
        let spans = test_spans(&out.tokens);
        for (tok, in_test) in out.tokens.iter().zip(&spans) {
            if tok.is_ident("y") {
                assert!(*in_test, "test-mod body must be marked");
            }
            if tok.is_ident("x") || tok.is_ident("live2") {
                assert!(!*in_test, "live code must not be marked");
            }
        }
    }

    #[test]
    fn test_attr_with_chained_attrs_covers_fn() {
        let src =
            "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { z.unwrap(); }\nfn live() {}\n";
        let out = lex(src);
        let spans = test_spans(&out.tokens);
        for (tok, in_test) in out.tokens.iter().zip(&spans) {
            if tok.is_ident("z") {
                assert!(*in_test);
            }
            if tok.is_ident("live") {
                assert!(!*in_test);
            }
        }
    }

    #[test]
    fn non_test_attr_does_not_open_a_span() {
        let src = "#[derive(Debug)]\nstruct S;\nfn live() { a.unwrap(); }\n";
        let out = lex(src);
        let spans = test_spans(&out.tokens);
        assert!(spans.iter().all(|s| !s));
    }

    #[test]
    fn bodyless_cfg_test_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse helpers::fixture;\nfn live() { b.unwrap(); }\n";
        let out = lex(src);
        let spans = test_spans(&out.tokens);
        for (tok, in_test) in out.tokens.iter().zip(&spans) {
            if tok.is_ident("fixture") {
                assert!(*in_test);
            }
            if tok.is_ident("b") {
                assert!(!*in_test, "span must end at the `use` semicolon");
            }
        }
    }

    #[test]
    fn unterminated_constructs_do_not_hang_or_panic() {
        let _ = lex("let s = \"unterminated");
        let _ = lex("/* unterminated");
        let _ = lex("let r = r#\"unterminated");
        let _ = lex("'");
    }
}
