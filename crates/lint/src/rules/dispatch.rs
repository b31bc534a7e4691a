//! Rules `wildcard-arm` and `unhandled-variant`: protocol dispatch must be
//! exhaustive by name.
//!
//! The wire protocol evolves one enum variant at a time. A `_ => {}` arm in
//! a dispatch match means a newly added `Msg` variant is
//! silently swallowed instead of being a compile/lint error — the exact bug
//! class that epoch fencing and failover recovery cannot survive. Two
//! checks:
//!
//! * **wildcard-arm** — in any match whose arm patterns name a protocol
//!   enum, a catch-all arm (`_` or a bare binding) whose body is a *silent
//!   default* (`{}`, `None`, `false`, `Ok(())`, …) is flagged. Catch-alls
//!   that forward (`other => handle_msg(sh, other)`) or return an error are
//!   legitimate and pass.
//! * **unhandled-variant** — every declared variant of an audited enum must
//!   appear as an enum-qualified pattern (`Msg::Foo { .. }`) somewhere in
//!   the audited files.

use crate::diag::Diagnostic;
use crate::parser::{functions, matches_in, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Enums whose dispatch must be exhaustive by name. `ClientMsg` and
/// `ServerMsg` are the front-door wire frames (gt-proto): a silently
/// swallowed frame variant is the same bug class on the client↔server
/// hop as a swallowed `Msg` is on the server↔server fabric.
const AUDITED_ENUMS: &[&str] = &["Msg", "ClientMsg", "ServerMsg"];

/// Idents that may appear in a "silent default" arm body. Anything else
/// (function calls, error construction, field writes) makes the body
/// non-silent and therefore acceptable as a catch-all.
const SILENT_IDENTS: &[&str] = &[
    "None", "false", "true", "Ok", "Continue", "LoopCtl", "return", "continue", "break",
];

/// Run both dispatch rules. `decl_files` are searched for the enum
/// declarations; `files` for the matches.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Pass 1: harvest audited enum declarations (name -> variants + site).
    let mut enums: BTreeMap<String, (Vec<String>, std::path::PathBuf, u32)> = BTreeMap::new();
    for f in files {
        for (name, variants, line) in enum_decls(f) {
            if AUDITED_ENUMS.contains(&name.as_str()) {
                enums.insert(name, (variants, f.path.clone(), line));
            }
        }
    }

    // Pass 2: walk every match; collect handled variants and flag silent
    // catch-alls in protocol matches.
    let mut handled: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        let toks = &f.toks;
        for func in functions(toks) {
            for m in matches_in(toks, func.body.0, func.body.1) {
                let mut names_protocol_enum = false;
                for arm in &m.arms {
                    let (s, e) = arm.pat;
                    for i in s..e.min(toks.len()) {
                        // `Enum :: Variant` inside the pattern.
                        if toks[i].kind == crate::lexer::TokKind::Ident
                            && AUDITED_ENUMS.contains(&toks[i].text.as_str())
                            && i + 2 < e
                            && toks[i + 1].is_punct(':')
                            && toks[i + 2].is_punct(':')
                        {
                            names_protocol_enum = true;
                            if i + 3 < e && toks[i + 3].kind == crate::lexer::TokKind::Ident {
                                handled
                                    .entry(toks[i].text.clone())
                                    .or_default()
                                    .insert(toks[i + 3].text.clone());
                            }
                        }
                    }
                }
                if !names_protocol_enum {
                    continue;
                }
                for arm in &m.arms {
                    let (ps, pe) = arm.pat;
                    // Catch-all: a single bare identifier (`_` or a binding).
                    let is_catch_all =
                        pe - ps == 1 && toks[ps].kind == crate::lexer::TokKind::Ident;
                    if is_catch_all && body_is_silent(toks, arm.body) {
                        out.push(Diagnostic::new(
                            "wildcard-arm",
                            &f.path,
                            arm.line,
                            format!(
                                "catch-all `{} =>` in a protocol dispatch silently swallows \
                                 unlisted variants",
                                toks[ps].text
                            ),
                            "list the remaining variants explicitly so new protocol variants \
                             fail the lint, or add `// gt-lint: allow(wildcard-arm, \"why\")`",
                        ));
                    }
                }
            }
        }
    }

    // Pass 3: every declared variant must be handled somewhere.
    for (name, (variants, path, line)) in &enums {
        let seen = handled.get(name).cloned().unwrap_or_default();
        for v in variants {
            if !seen.contains(v) {
                out.push(Diagnostic::new(
                    "unhandled-variant",
                    path,
                    *line,
                    format!("variant `{name}::{v}` is never matched by name in dispatch code"),
                    format!(
                        "add an explicit `{name}::{v}` arm to the server/coordinator dispatch \
                         (or delete the variant if the protocol no longer uses it)"
                    ),
                ));
            }
        }
    }

    out
}

/// `enum Name { Variant, Variant(..), Variant { .. }, ... }` declarations.
fn enum_decls(f: &SourceFile) -> Vec<(String, Vec<String>, u32)> {
    let toks = &f.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !toks[i].is_ident("enum") || toks[i + 1].kind != crate::lexer::TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        // Skip generics to the opening brace.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i += 1;
            continue;
        }
        let close = crate::parser::matching_close(toks, j, '{', '}');
        let mut variants = Vec::new();
        let mut k = j + 1;
        let (mut p, mut b, mut c) = (0i32, 0i32, 0i32);
        let mut expect_name = true;
        while k < close {
            let t = &toks[k];
            if t.is_punct('(') {
                p += 1;
            } else if t.is_punct(')') {
                p -= 1;
            } else if t.is_punct('[') {
                b += 1;
            } else if t.is_punct('{') {
                c += 1;
            } else if t.is_punct(']') {
                b -= 1;
            } else if t.is_punct('}') {
                c -= 1;
            } else if t.is_punct(',') && p == 0 && b == 0 && c == 0 {
                expect_name = true;
                k += 1;
                continue;
            } else if t.is_punct('#') && expect_name {
                // Variant attribute: skip `#[...]`.
                if k + 1 < close && toks[k + 1].is_punct('[') {
                    k = crate::parser::matching_close(toks, k + 1, '[', ']');
                }
            } else if expect_name && t.kind == crate::lexer::TokKind::Ident {
                variants.push(t.text.clone());
                expect_name = false;
            }
            k += 1;
        }
        out.push((name, variants, line));
        i = close;
    }
    out
}

/// True if the arm body does nothing observable: only unit/default values.
fn body_is_silent(toks: &[crate::lexer::Tok], body: (usize, usize)) -> bool {
    let (s, e) = body;
    let slice = &toks[s.min(toks.len())..e.min(toks.len())];
    if slice.is_empty() {
        return true;
    }
    slice.iter().all(|t| match t.kind {
        crate::lexer::TokKind::Ident => SILENT_IDENTS.contains(&t.text.as_str()),
        crate::lexer::TokKind::Punct => {
            matches!(t.text.as_str(), "(" | ")" | "{" | "}" | ";" | ",")
        }
        crate::lexer::TokKind::Num => t.text == "0",
        _ => false,
    })
}
