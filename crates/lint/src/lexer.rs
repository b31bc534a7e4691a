//! A minimal Rust lexer — just enough fidelity for gt-lint's rules.
//!
//! Produces a flat token stream with line numbers. Comments are skipped
//! (so doc-example code never trips a rule), except that `// gt-lint:
//! allow(<rule>, "reason")` directives are collected so diagnostics on the
//! same or the following line can be suppressed; one without a reason is
//! not a directive and suppresses nothing. String/char literals
//! become single opaque tokens, which keeps every downstream heuristic
//! honest: a `"panic!"` inside a log message is not a `panic!` call.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Single punctuation character.
    Punct,
    /// Numeric literal (possibly split around `.`).
    Num,
    /// String literal (normal, raw, or byte), content dropped.
    Str,
    /// Character literal.
    CharLit,
    /// Lifetime such as `'a`.
    Lifetime,
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text. For [`TokKind::Str`]/[`TokKind::CharLit`] this is a
    /// placeholder, not the literal's content.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Tok {
    /// True if the token is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if the token is punctuation with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// An `// gt-lint: allow(rule, "reason")` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment appears on. Suppresses diagnostics on this line
    /// and the next (so the comment can sit above the offending line).
    pub line: u32,
    /// Rule name being allowed.
    pub rule: String,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream with comments and whitespace removed.
    pub toks: Vec<Tok>,
    /// All allow directives found in comments.
    pub allows: Vec<Allow>,
}

/// Lex `src` into tokens plus allow directives.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments). Scan it for allow directives.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            collect_allows(&src[start..i], line, &mut out.allows);
            continue;
        }
        // Block comment, possibly nested.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let start_line = line;
            let mut depth = 1u32;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            collect_allows(&src[start..i.min(src.len())], start_line, &mut out.allows);
            continue;
        }
        // Raw / byte string literals: r"..", r#".."#, br".., b"..".
        if let Some((next, lines)) = try_raw_or_byte_string(b, i) {
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: "\"raw\"".into(),
                line,
            });
            line += lines;
            i = next;
            continue;
        }
        // Normal string literal.
        if c == b'"' {
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: "\"str\"".into(),
                line,
            });
            continue;
        }
        // Char literal vs. lifetime.
        if c == b'\'' {
            if let Some(next) = try_char_literal(b, i) {
                out.toks.push(Tok {
                    kind: TokKind::CharLit,
                    text: "'c'".into(),
                    line,
                });
                i = next;
            } else {
                // Lifetime: consume ident chars after the quote.
                let start = i;
                i += 1;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[start..i].into(),
                    line,
                });
            }
            continue;
        }
        // Identifier / keyword.
        if c == b'_' || c.is_ascii_alphabetic() {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: src[start..i].into(),
                line,
            });
            continue;
        }
        // Numeric literal (suffix letters folded in; `.` stays punct).
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (is_ident_byte(b[i]) || b[i].is_ascii_digit()) {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: src[start..i].into(),
                line,
            });
            continue;
        }
        // Anything else: single punctuation character.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: (c as char).to_string(),
            line,
        });
        i += 1;
    }
    out
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Recognise `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` starting at `i`.
/// Returns `(index past the literal, newlines consumed)`.
fn try_raw_or_byte_string(b: &[u8], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = j < b.len() && b[j] == b'r';
    if raw {
        j += 1;
    }
    if j == i {
        return None; // neither b nor r prefix; plain strings handled elsewhere
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' || (!raw && hashes > 0) {
        return None;
    }
    if !raw {
        // b"..." — escapes behave like a normal string.
        j += 1;
        let mut lines = 0u32;
        while j < b.len() {
            match b[j] {
                b'\\' => j += 2,
                b'"' => return Some((j + 1, lines)),
                b'\n' => {
                    lines += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        return Some((j, lines));
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    j += 1;
    let mut lines = 0u32;
    while j < b.len() {
        if b[j] == b'\n' {
            lines += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some((k, lines));
            }
        }
        j += 1;
    }
    Some((j, lines))
}

/// Recognise a char literal at `i` (which points at `'`). Returns the index
/// past it, or `None` if this is a lifetime.
fn try_char_literal(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escaped char: skip the backslash + escape body up to closing quote.
        j += 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return if j < b.len() { Some(j + 1) } else { None };
    }
    // `'x'` is a char literal; `'x` followed by anything else is a lifetime.
    // Multi-byte UTF-8 scalar: advance one scalar value.
    let mut k = j + 1;
    while k < b.len() && (b[k] & 0xC0) == 0x80 {
        k += 1;
    }
    if k < b.len() && b[k] == b'\'' {
        Some(k + 1)
    } else {
        None
    }
}

/// Scan a comment for `gt-lint: allow(rule, "reason")` directives. The
/// reason is mandatory: the escape hatch must say why it is safe.
fn collect_allows(comment: &str, line: u32, out: &mut Vec<Allow>) {
    let needle = "gt-lint: allow(";
    let mut rest = comment;
    while let Some(pos) = rest.find(needle) {
        let after = &rest[pos + needle.len()..];
        let end = after.find(')').unwrap_or(after.len());
        let inner = &after[..end];
        // Rule name is everything before the first comma; the rest is the
        // human-readable reason.
        if let Some((rule, reason)) = inner.split_once(',') {
            if !rule.trim().is_empty() && !reason.trim().is_empty() {
                out.push(Allow {
                    line,
                    rule: rule.trim().to_string(),
                });
            }
        }
        rest = &after[end..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_opaque() {
        let l = lex("// panic! in a comment\nlet s = \"unwrap()\"; x.lock();");
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.toks.iter().any(|t| t.is_ident("lock")));
    }

    #[test]
    fn lines_survive_raw_strings() {
        let l = lex("let s = r#\"a\nb\nc\"#;\nx.send(1);");
        let send = l.toks.iter().find(|t| t.is_ident("send")).unwrap();
        assert_eq!(send.line, 4);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'y'; }");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(l.toks.iter().any(|t| t.kind == TokKind::CharLit));
    }

    #[test]
    fn allow_directives_are_collected() {
        let l = lex("x();\n// gt-lint: allow(atomic-ordering, \"a counter\")\ny.load(Relaxed);");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].rule, "atomic-ordering");
        assert_eq!(l.allows[0].line, 2);
    }

    #[test]
    fn an_allow_without_a_reason_is_not_an_allow() {
        let l = lex("// gt-lint: allow(atomic-ordering)\n// gt-lint: allow(dead-counter,   )\n");
        assert!(l.allows.is_empty(), "{:?}", l.allows);
    }
}
