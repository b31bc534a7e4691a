//! Rule `atomic-ordering`: atomics that participate in cross-thread
//! handshakes must not use `Ordering::Relaxed` on the publish or consume
//! side.
//!
//! A struct field of `Atomic*` type is a *handshake* atomic when some
//! load of it is consumed by a branch (`if`/`while`/`match`/`assert` in
//! the same statement, or a comparison right after the call), or when
//! any site uses `compare_exchange`(`_weak`) — an RMW handshake by
//! construction. For a handshake atomic, every `Relaxed` site is a
//! finding: a relaxed store publishes state the reader may never
//! observe in order, and a relaxed load consumes state with no
//! happens-before edge to the writes it gates.
//!
//! Pure counters are exempt by an allowlist of struct-name stems
//! (`*Metrics`, `*Stats`, `*Counters`): monotonically summed telemetry
//! has no consume side and `Relaxed` is exactly right there.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::{matching_close, SourceFile};

/// Struct-name stems whose atomic fields are counter-only telemetry.
const COUNTER_STRUCT_STEMS: &[&str] = &["Metrics", "Stats", "Counters"];

/// Atomic access methods audited for ordering arguments.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
];

#[derive(Debug)]
struct Site {
    field: String,
    method: String,
    line: u32,
    relaxed: bool,
    branch_consumed: bool,
    file: std::path::PathBuf,
}

/// Run the rule over `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let fields = atomic_fields(files);
    if fields.is_empty() {
        return Vec::new();
    }
    // A field name declared both in a counter struct and a non-counter
    // struct stays audited (over-approximate toward finding).
    let audited: Vec<&str> = fields
        .iter()
        .map(|f| f.field.as_str())
        .filter(|f| {
            fields
                .iter()
                .filter(|g| g.field == *f)
                .any(|g| !COUNTER_STRUCT_STEMS.iter().any(|s| g.strukt.ends_with(s)))
        })
        .collect();

    let mut sites: Vec<Site> = Vec::new();
    for f in files {
        collect_sites(f, &audited, &mut sites);
    }

    // Handshake classification per field.
    let mut out = Vec::new();
    let mut fields_seen: Vec<&str> = sites.iter().map(|s| s.field.as_str()).collect();
    fields_seen.sort();
    fields_seen.dedup();
    for field in fields_seen {
        let of_field: Vec<&Site> = sites.iter().filter(|s| s.field == field).collect();
        let handshake = of_field.iter().any(|s| {
            (s.method == "load" && s.branch_consumed) || s.method.starts_with("compare_exchange")
        });
        if !handshake {
            continue;
        }
        for s in of_field.iter().filter(|s| s.relaxed) {
            let side = if s.method == "load" {
                "consume"
            } else {
                "publish"
            };
            out.push(Diagnostic::new(
                "atomic-ordering",
                &s.file,
                s.line,
                format!(
                    "handshake atomic `{field}` uses `Ordering::Relaxed` on a {side} \
                     side (`{}`)",
                    s.method
                ),
                "use Acquire for the consuming load, Release for the publishing \
                 store/RMW (or SeqCst to match the field's other sites); Relaxed is \
                 only for counters that no control flow consumes",
            ));
        }
    }
    out
}

/// One atomic struct field.
#[derive(Debug)]
struct AtomicField {
    strukt: String,
    field: String,
}

/// Harvest `Atomic*`-typed struct fields from declarations in `files`.
fn atomic_fields(files: &[&SourceFile]) -> Vec<AtomicField> {
    let mut out = Vec::new();
    for f in files {
        let toks = &f.toks;
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if !toks[i].is_ident("struct") || toks[i + 1].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let strukt = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') || toks[j].is_punct('(') {
                    break; // unit or tuple struct
                }
                j += 1;
            }
            if j >= toks.len() || !toks[j].is_punct('{') {
                i += 2;
                continue;
            }
            let close = matching_close(toks, j, '{', '}');
            let mut k = j + 1;
            while k < close {
                // Field: IDENT `:` <type tokens> up to a depth-0 comma.
                while k + 1 < close && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                    k = matching_close(toks, k + 1, '[', ']') + 1;
                }
                if k + 1 >= close {
                    break;
                }
                let field_ok = toks[k].kind == TokKind::Ident
                    && toks[k + 1].is_punct(':')
                    && !(k + 2 < close && toks[k + 2].is_punct(':'));
                if !field_ok {
                    k += 1;
                    continue;
                }
                let field = toks[k].text.clone();
                let mut depth = 0i32;
                let mut is_atomic = false;
                let mut m = k + 2;
                while m < close {
                    let t = &toks[m];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(')')
                        || t.is_punct(']')
                        || t.is_punct('}')
                        || t.is_punct('>')
                    {
                        depth -= 1;
                    } else if t.is_punct(',') && depth <= 0 {
                        break;
                    }
                    if t.kind == TokKind::Ident && t.text.starts_with("Atomic") {
                        is_atomic = true;
                    }
                    m += 1;
                }
                if is_atomic {
                    out.push(AtomicField {
                        strukt: strukt.clone(),
                        field,
                    });
                }
                k = m + 1;
            }
            i = close;
        }
    }
    out
}

/// Collect `.field.method(… Relaxed …)` sites for audited fields in `f`.
fn collect_sites(f: &SourceFile, audited: &[&str], out: &mut Vec<Site>) {
    let toks = &f.toks;
    for i in 0..toks.len() {
        // Shape: `.` FIELD `.` METHOD `(` …
        if !(toks[i].kind == TokKind::Ident
            && audited.contains(&toks[i].text.as_str())
            && i >= 1
            && toks[i - 1].is_punct('.')
            && i + 3 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ATOMIC_METHODS.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct('('))
        {
            continue;
        }
        let method = toks[i + 2].text.clone();
        let close = matching_close(toks, i + 3, '(', ')');
        let relaxed = toks[i + 4..close.min(toks.len())]
            .iter()
            .any(|t| t.is_ident("Relaxed"));
        // Branch consumption: the statement the load sits in starts with a
        // branch keyword, or a comparison follows the call directly.
        let mut branch_consumed = false;
        if method == "load" {
            let mut j = i;
            while j > 0 {
                let t = &toks[j - 1];
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                if t.is_ident("if")
                    || t.is_ident("while")
                    || t.is_ident("match")
                    || (t.kind == TokKind::Ident && t.text.starts_with("assert"))
                    || t.is_punct('<')
                    || t.is_punct('>')
                    || (t.is_punct('=') && j >= 2 && toks[j - 2].is_punct('='))
                {
                    branch_consumed = true;
                    break;
                }
                j -= 1;
            }
            for t in toks.iter().skip(close + 1).take(3) {
                if t.is_punct('<')
                    || t.is_punct('>')
                    || t.is_punct('=')
                    || t.is_punct('!')
                    || t.is_ident("cmp")
                {
                    branch_consumed = true;
                    break;
                }
                if t.is_punct(';') || t.is_punct(',') || t.is_punct(')') {
                    break;
                }
            }
        }
        out.push(Site {
            field: toks[i].text.clone(),
            method,
            line: toks[i].line,
            relaxed,
            branch_consumed,
            file: f.path.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_source(Path::new("t.rs"), src);
        check(&[&f])
    }

    #[test]
    fn relaxed_handshake_load_fires() {
        let d = lint(
            "struct Shared { crashed: AtomicBool }\n\
             fn f(sh: &Shared) { if sh.crashed.load(Ordering::Relaxed) { return; } }\n\
             fn g(sh: &Shared) { sh.crashed.store(true, Ordering::SeqCst); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("consume"));
    }

    #[test]
    fn relaxed_cas_fires_on_publish_side() {
        let d = lint(
            "struct T { remaining: AtomicU64 }\n\
             fn f(t: &T) { let _ = t.remaining.compare_exchange(1, 0,\n\
               Ordering::Relaxed, Ordering::Relaxed); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("publish"));
    }

    #[test]
    fn counter_structs_are_exempt() {
        let d = lint(
            "struct IoMetrics { hits: AtomicU64 }\n\
             fn f(m: &IoMetrics) { m.hits.fetch_add(1, Ordering::Relaxed);\n\
               if m.hits.load(Ordering::Relaxed) > 0 { report(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn acquire_release_handshake_is_clean() {
        let d = lint(
            "struct Shared { ready: AtomicBool }\n\
             fn w(sh: &Shared) { sh.ready.store(true, Ordering::Release); }\n\
             fn r(sh: &Shared) { while !sh.ready.load(Ordering::Acquire) { hint(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
