//! Shallow structural parser on top of the token stream.
//!
//! gt-lint does not need a real AST. The rules work on two structural
//! facts: where functions are (name and body as token ranges) and where a
//! bracket closes. `#[cfg(test)]` items are stripped up front so test-only
//! code is never audited as production code.

use crate::lexer::{self, Allow, Tok, TokKind};
use std::path::{Path, PathBuf};

/// One lexed and test-stripped source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as given (kept relative for readable diagnostics).
    pub path: PathBuf,
    /// Tokens with `#[cfg(test)]` items removed.
    pub toks: Vec<Tok>,
    /// Allow directives found anywhere in the file (comments survive
    /// stripping because they are collected during lexing).
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lex `src` as the contents of `path`.
    pub fn from_source(path: &Path, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let toks = strip_test_items(lexed.toks);
        SourceFile {
            path: path.to_path_buf(),
            toks,
            allows: lexed.allows,
        }
    }

    /// Read and lex the file at `path`.
    pub fn read(path: &Path) -> std::io::Result<SourceFile> {
        let src = std::fs::read_to_string(path)?;
        Ok(SourceFile::from_source(path, &src))
    }
}

/// A function item: token ranges are half-open `[start, end)`.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Tokens between the body braces (exclusive of them). Empty for
    /// bodyless trait-method declarations.
    pub body: (usize, usize),
}

/// Index of the close bracket matching the open bracket at `open`, or
/// `toks.len()` if unbalanced.
pub fn matching_close(toks: &[Tok], open: usize, open_ch: char, close_ch: char) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Remove `#[cfg(test)]` items (attribute, any stacked attributes, and the
/// following item through its closing brace or semicolon).
fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    let mut keep = vec![true; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        // Skip any further stacked attributes.
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            j = matching_close(&toks, j + 1, '[', ']') + 1;
        }
        // Skip the item itself: through a top-level `;` or a brace block.
        let mut brace = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                brace += 1;
            } else if toks[j].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    j += 1;
                    break;
                }
            } else if toks[j].is_punct(';') && brace == 0 {
                j += 1;
                break;
            }
            j += 1;
        }
        for k in keep.iter_mut().take(j.min(toks.len())).skip(start) {
            *k = false;
        }
        i = j;
    }
    toks.into_iter()
        .zip(keep)
        .filter_map(|(t, k)| k.then_some(t))
        .collect()
}

/// All function items in the token stream (module level and inside
/// `impl` blocks; bodies of earlier functions are skipped, so nested
/// helper fns are not double-reported).
pub fn functions(toks: &[Tok]) -> Vec<Func> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !toks[i].is_ident("fn") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // Find the parameter list. Generic params in this workspace never
        // contain parentheses, so the first `(` opens the parameters.
        let mut j = i + 2;
        let mut ok = true;
        while j < toks.len() && !toks[j].is_punct('(') {
            if toks[j].is_punct('{') || toks[j].is_punct(';') {
                ok = false;
                break;
            }
            j += 1;
        }
        if !ok || j >= toks.len() {
            i += 1;
            continue;
        }
        let params_close = matching_close(toks, j, '(', ')');
        // Find the body: first `{` before any `;` ends the signature.
        let mut k = params_close + 1;
        let mut body = (params_close + 1, params_close + 1);
        while k < toks.len() {
            if toks[k].is_punct('{') {
                let close = matching_close(toks, k, '{', '}');
                body = (k + 1, close);
                k = close;
                break;
            }
            if toks[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        out.push(Func { name, body });
        i = k.max(i + 2);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source(Path::new("t.rs"), src)
    }

    #[test]
    fn test_items_are_stripped() {
        let f = file(
            "fn prod() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests { fn t() { y.expect(\"e\"); } }\n\
             fn prod2() {}",
        );
        let fns = functions(&f.toks);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["prod", "prod2"]);
        assert!(!f.toks.iter().any(|t| t.is_ident("expect")));
    }

    #[test]
    fn functions_and_bodies() {
        let f = file("impl X { fn a(&self, n: u64) -> bool { n > 0 } fn b() {} }");
        let fns = functions(&f.toks);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        let (s, e) = fns[0].body;
        assert!(f.toks[s..e].iter().any(|t| t.is_ident("n")));
    }
}
