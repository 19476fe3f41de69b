//! A minimal hand-rolled Rust lexer for `xtask check`.
//!
//! The per-line rules are token-level patterns (float literals next to
//! `==`, `as usize` after a float-producing call, `fs::write` paths), so
//! a full parser is unnecessary — but a naive regex over source text is
//! not enough either: `unwrap` inside a string literal or a doc comment
//! must not fire. This lexer produces a faithful token stream that skips
//! comments and strings while still *reading* comments, because allow
//! directives in plain comments are the suppression mechanism (see
//! DESIGN.md §7) and comments containing `SAFETY:` justify `unsafe`.
//! String literal *contents* are kept on the token (the metrics
//! consistency rule needs the literal metric names).
//!
//! Deliberately unsupported (not used in this workspace): full escape
//! decoding beyond the common `\n`/`\t`/`\"`/`\\` forms and nested
//! generic disambiguation (a token-level checker never needs it).

use std::cell::Cell;
use std::collections::HashSet;

/// Token classification, as coarse as the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including hex/octal/binary).
    Int,
    /// Float literal (has a fractional part, exponent, or f32/f64 suffix).
    Float,
    /// String literal of any flavor (`text` holds the decoded contents).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Any operator or delimiter, multi-character ops kept whole (`==`).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Coarse kind.
    pub kind: TokKind,
    /// Source text (decoded contents for string literals).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// True when the token is the given punctuation string.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }

    /// True when the token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// One rule named by an allow directive. A directive comment —
/// `// deepod-lint: allow(<rule>, ..)`, or the older `deepod-audit:`
/// spelling — covers its own line *and* the following line, so both
/// trailing and standalone-line-above placements work.
#[derive(Debug)]
pub struct Allow {
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: String,
    /// Set once the directive has suppressed a finding; a directive that
    /// never does is itself an `unused-allow` finding.
    pub used: Cell<bool>,
}

impl Allow {
    /// True when this directive suppresses `rule` on `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (line == self.line || line == self.line + 1)
    }
}

/// A lexed source file: the token stream plus the allow directives and
/// `SAFETY:` comments harvested from comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Allow directives, one entry per named rule.
    pub allows: Vec<Allow>,
    /// Lines (1-based) on which a comment containing `SAFETY:` (or a
    /// `# Safety` doc-section header) starts. The `unsafe-safety` rule
    /// accepts a justification comment on the same line as the `unsafe`
    /// keyword or within a few lines above it.
    pub safety_lines: HashSet<u32>,
}

/// Records the allow directive in a plain comment at `line`. Doc
/// comments (`///`, `//!`, `/**`, `/*!`) only *describe* directives.
fn record_allows(allows: &mut Vec<Allow>, comment: &str, line: u32) {
    let is_doc = (comment.starts_with("///") && !comment.starts_with("////"))
        || comment.starts_with("//!")
        || (comment.starts_with("/**") && !comment.starts_with("/**/"))
        || comment.starts_with("/*!");
    if is_doc {
        return;
    }
    let pos = match (comment.find("deepod-lint:"), comment.find("deepod-audit:")) {
        (Some(p), _) => p + "deepod-lint:".len(),
        (None, Some(p)) => p + "deepod-audit:".len(),
        (None, None) => return,
    };
    let rest = comment[pos..].trim_start();
    let Some(list) = rest.strip_prefix("allow(") else {
        return;
    };
    let Some(end) = list.find(')') else { return };
    for rule in list[..end].split(',').map(str::trim) {
        if !rule.is_empty() {
            allows.push(Allow {
                line,
                rule: rule.to_string(),
                used: Cell::new(false),
            });
        }
    }
}

/// Decodes the character after a backslash in a string literal. Only the
/// escapes this workspace uses are mapped; anything else passes through,
/// which is fine because decoded contents are only *matched*, not
/// re-emitted as Rust.
fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

/// Lexes `src` into a token stream. Never fails: unknown bytes become
/// single-character punctuation so the linter degrades gracefully on
/// exotic input instead of crashing the gate.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Lexed::default();

    // Multi-character operators, longest first so `..=` wins over `..`.
    const PUNCTS: [&str; 24] = [
        "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "->", "=>", "::", "..", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "<<", ">>",
    ];

    // A leading `#!` shebang line (but not an inner attribute `#![...]`)
    // is not Rust tokens; skip it wholesale.
    if n >= 2 && b[0] == '#' && b[1] == '!' && (n == 2 || b[2] != '[') {
        while i < n && b[i] != '\n' {
            i += 1;
        }
    }

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            record_allows(&mut out.allows, &text, line);
            if text.contains("SAFETY:") || text.contains("# Safety") {
                out.safety_lines.insert(line);
            }
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 1;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 1;
                }
                i += 1;
            }
            let text: String = b[start..i.min(n)].iter().collect();
            record_allows(&mut out.allows, &text, start_line);
            if text.contains("SAFETY:") || text.contains("# Safety") {
                out.safety_lines.insert(start_line);
            }
            continue;
        }
        // Raw / byte strings: r"...", r#"..."#, b"...", br#"..."#.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let mut j = i + 1;
            if c == 'b' && j < n && b[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            let is_raw = c == 'r' || (c == 'b' && i + 1 < n && b[i + 1] == 'r');
            if j < n && b[j] == '"' && (is_raw || (c == 'b' && hashes == 0)) {
                let tline = line;
                let mut content = String::new();
                if is_raw {
                    // Scan to closing quote followed by `hashes` hashes.
                    j += 1;
                    'raw: while j < n {
                        if b[j] == '\n' {
                            line += 1;
                        }
                        if b[j] == '"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        content.push(b[j]);
                        j += 1;
                    }
                } else {
                    // b"..." — ordinary escape rules.
                    j += 1;
                    while j < n && b[j] != '"' {
                        if b[j] == '\\' {
                            j += 1;
                            if j < n {
                                if b[j] == '\n' {
                                    line += 1; // `\` line continuation
                                }
                                content.push(unescape(b[j]));
                            }
                        } else {
                            if b[j] == '\n' {
                                line += 1;
                            }
                            content.push(b[j]);
                        }
                        j += 1;
                    }
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Str,
                    text: content,
                    line: tline,
                });
                i = j;
                continue;
            }
            // else: fall through — it is an ordinary identifier.
        }
        if c == '"' {
            let tline = line;
            let mut content = String::new();
            i += 1;
            while i < n && b[i] != '"' {
                if b[i] == '\\' {
                    i += 1;
                    if i < n {
                        if b[i] == '\n' {
                            line += 1; // `\` line continuation
                        }
                        content.push(unescape(b[i]));
                    }
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    content.push(b[i]);
                }
                i += 1;
            }
            i += 1;
            out.tokens.push(Token {
                kind: TokKind::Str,
                text: content,
                line: tline,
            });
            continue;
        }
        if c == '\'' {
            // Lifetime or char literal. `'a` (lifetime) vs `'a'` (char).
            let is_char = if i + 1 < n && b[i + 1] == '\\' {
                true
            } else if i + 1 < n && (b[i + 1].is_alphanumeric() || b[i + 1] == '_') {
                i + 2 < n && b[i + 2] == '\''
            } else {
                true // e.g. '(' — only valid as a char literal
            };
            if is_char {
                let tline = line;
                i += 1;
                while i < n && b[i] != '\'' {
                    if b[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1;
                out.tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                });
            } else {
                let start = i;
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut kind = TokKind::Int;
            if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'o' | 'b') {
                i += 2;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            } else {
                while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                    i += 1;
                }
                // Fractional part — but not `..` (range) and not `.method()`.
                if i < n && b[i] == '.' {
                    let next = b.get(i + 1).copied().unwrap_or(' ');
                    if next.is_ascii_digit() {
                        kind = TokKind::Float;
                        i += 1;
                        while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                            i += 1;
                        }
                    } else if next != '.' && !next.is_alphabetic() && next != '_' {
                        kind = TokKind::Float; // `1.` with nothing after
                        i += 1;
                    }
                }
                // Exponent.
                if i < n
                    && (b[i] == 'e' || b[i] == 'E')
                    && b.get(i + 1).is_some_and(|&d| {
                        d.is_ascii_digit()
                            || ((d == '+' || d == '-')
                                && b.get(i + 2).is_some_and(|e| e.is_ascii_digit()))
                    })
                {
                    kind = TokKind::Float;
                    i += 2;
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                }
                // Type suffix (`1f32`, `1_u64`).
                let suffix_start = i;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let suffix: String = b[suffix_start..i].iter().collect();
                if suffix.contains("f32") || suffix.contains("f64") {
                    kind = TokKind::Float;
                }
            }
            out.tokens.push(Token {
                kind,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line,
            });
            continue;
        }
        // Punctuation: longest known multi-char operator first.
        let mut matched = false;
        for p in PUNCTS {
            let pc: Vec<char> = p.chars().collect();
            if i + pc.len() <= n && b[i..i + pc.len()] == pc[..] {
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: p.to_string(),
                    line,
                });
                i += pc.len();
                matched = true;
                break;
            }
        }
        if !matched {
            out.tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    out
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
    fn lexes_idents_numbers_and_ops() {
        let ts = kinds("let x = a.unwrap() == 0.5;");
        assert!(ts.contains(&(TokKind::Ident, "unwrap".into())));
        assert!(ts.contains(&(TokKind::Punct, "==".into())));
        assert!(ts.contains(&(TokKind::Float, "0.5".into())));
    }

    #[test]
    fn range_is_not_a_float() {
        let ts = kinds("for i in 0..10 {}");
        assert!(ts.contains(&(TokKind::Int, "0".into())));
        assert!(ts.contains(&(TokKind::Punct, "..".into())));
        assert!(!ts.iter().any(|(k, _)| *k == TokKind::Float));
    }

    #[test]
    fn float_suffix_and_exponent() {
        let ts = kinds("1f32 2e3 4_000.5");
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Float).count(), 3);
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let ts = kinds("\"x.unwrap()\" // y.unwrap()\n/* z.unwrap() */ ok");
        assert!(!ts.iter().any(|(_, t)| t == "unwrap"));
        assert!(ts.contains(&(TokKind::Ident, "ok".into())));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let ts = kinds(r###"let s = r#"a "quoted" panic!()"#; done"###);
        assert!(!ts.iter().any(|(_, t)| t == "panic"));
        assert!(ts.contains(&(TokKind::Ident, "done".into())));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(ts.contains(&(TokKind::Lifetime, "'a".into())));
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn allow_directives_cover_their_line_and_the_next() {
        let lx = lex("a\n// deepod-lint: allow(unwrap, float-eq)\nb.unwrap();\n");
        for line in [2, 3] {
            for rule in ["unwrap", "float-eq"] {
                assert!(lx.allows.iter().any(|a| a.covers(rule, line)));
            }
        }
        assert!(!lx.allows.iter().any(|a| a.covers("unwrap", 1)));
        // Doc comments describe directives; they never are one.
        assert!(lex("/// `// deepod-lint: allow(unwrap)`\n")
            .allows
            .is_empty());
        assert!(lex("//! deepod-lint: allow(unwrap)\n").allows.is_empty());
    }

    #[test]
    fn method_call_on_int_is_not_a_float() {
        let ts = kinds("let m = 1.max(2);");
        assert!(ts.contains(&(TokKind::Int, "1".into())));
        assert!(ts.contains(&(TokKind::Ident, "max".into())));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let ts = kinds("a /* outer /* inner */ still.comment() */ b");
        assert_eq!(
            ts,
            vec![(TokKind::Ident, "a".into()), (TokKind::Ident, "b".into())],
            "tokens inside the nested comment must not leak"
        );
    }

    #[test]
    fn lifetime_tick_before_closing_angle_is_not_a_char() {
        // `'a>` — the tick is followed by an ident then `>`, so it is a
        // lifetime; a naive lexer eats `a>` looking for a closing quote
        // and silently swallows the rest of the generics.
        let ts = kinds("struct S<'a>(&'a str);");
        assert_eq!(
            ts.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert!(!ts.iter().any(|(k, _)| *k == TokKind::Char));
        assert!(ts.contains(&(TokKind::Ident, "str".into())));
    }

    #[test]
    fn byte_raw_strings_hide_their_contents() {
        let ts = kinds(r###"let s = br#"x.unwrap() "q" panic!()"#; after"###);
        assert_eq!(ts.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert!(!ts.iter().any(|(_, t)| t == "unwrap" || t == "panic"));
        assert!(ts.contains(&(TokKind::Ident, "after".into())));
    }

    #[test]
    fn leading_shebang_is_skipped_but_inner_attribute_is_not() {
        let ts = kinds("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert_eq!(ts[0], (TokKind::Ident, "fn".into()), "{ts:?}");
        // `#![allow(dead_code)]` must still lex as tokens.
        let ts = kinds("#![allow(dead_code)]\n");
        assert!(ts.contains(&(TokKind::Ident, "allow".into())));
    }

    #[test]
    fn string_contents_are_retained() {
        let lx = lex("emit(\"serve.queue_depth\", r#\"raw.name\"#, \"a\\nb\");");
        let strs: Vec<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["serve.queue_depth", "raw.name", "a\nb"]);
    }

    #[test]
    fn safety_comment_lines_are_recorded() {
        let lx = lex("a\n// SAFETY: len checked above\nunsafe { x() }\n/* SAFETY: aligned */\n");
        assert!(lx.safety_lines.contains(&2));
        assert!(lx.safety_lines.contains(&4));
        assert!(!lx.safety_lines.contains(&1));
    }

    #[test]
    fn audit_allow_directives_share_the_allows_map() {
        let lx = lex("// deepod-audit: allow(no-panic)\nv[0];\n");
        assert!(lx.allows.iter().any(|a| a.covers("no-panic", 1)));
        assert!(lx.allows.iter().any(|a| a.covers("no-panic", 2)));
    }

    #[test]
    fn escaped_newlines_in_strings_advance_the_line() {
        let lx = lex("let s = \"a \\\n b\";\nlet t = b\"c \\\n d\";\nafter();\n");
        let after = lx.tokens.iter().find(|t| t.is_ident("after"));
        assert_eq!(after.map(|t| t.line), Some(5));
    }
}
