//! Rules `dead-counter` and `unsurfaced-counter`: every atomic counter
//! declared in a metrics struct must be incremented somewhere in
//! production code *and* surfaced through a snapshot/read.
//!
//! Counters exist so experiments and the chaos suite can assert on them
//! (chaos-off runs require every fault counter to be exactly zero). A
//! counter nobody increments asserts nothing; a counter nobody reads is
//! invisible. Both rot silently — this rule makes them fail the build.
//!
//! A struct written as the body of a `counters! { struct … }` table is
//! read like any other, except that the macro generates its snapshot: its
//! counters are surfaced by construction and only have to be incremented.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::parser::SourceFile;

/// Methods that count as incrementing a counter. Plain `store` does not —
/// `reset()` stores zero into everything, which must not mark a counter
/// as live.
const INC_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_or",
];

/// Methods that count as surfacing a counter.
const READ_METHODS: &[&str] = &["load"];

/// How many tokens after a field mention we search for an inc/read method
/// (covers `self.msgs[self.idx(a, b)].fetch_add(...)`-style chains).
const WINDOW: usize = 16;

/// Run the rules. `decl_files` hold the metrics structs; `use_files` are
/// scanned for increments and reads.
pub fn check(decl_files: &[&SourceFile], use_files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for decl in decl_files {
        for st in atomic_structs(decl) {
            let struct_name = &st.name;
            for (field, line) in st.fields {
                let incremented = use_files.iter().any(|f| mentions(f, &field, INC_METHODS));
                let surfaced = st.generated_snapshot
                    || use_files.iter().any(|f| mentions(f, &field, READ_METHODS));
                if !incremented {
                    out.push(Diagnostic::new(
                        "dead-counter",
                        &decl.path,
                        line,
                        format!("counter `{struct_name}.{field}` is never incremented"),
                        "wire the counter into the code path it is meant to measure, or delete \
                         it (dead counters make zero-assertions in the chaos suite vacuous)",
                    ));
                } else if !surfaced {
                    out.push(Diagnostic::new(
                        "unsurfaced-counter",
                        &decl.path,
                        line,
                        format!("counter `{struct_name}.{field}` is incremented but never read"),
                        "surface it in the metrics snapshot (and the chaos dormancy \
                         assertions) or delete it",
                    ));
                }
            }
        }
    }
    out
}

/// A struct that declares at least one `Atomic*`-typed field.
struct AtomicStruct {
    name: String,
    /// It is the table of a `counters!` invocation.
    generated_snapshot: bool,
    /// `(field_name, decl_line)` of each atomic field.
    fields: Vec<(String, u32)>,
}

fn atomic_structs(f: &SourceFile) -> Vec<AtomicStruct> {
    let toks = &f.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !toks[i].is_ident("struct") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let generated_snapshot = i >= 3
            && toks[i - 3].is_ident("counters")
            && toks[i - 2].is_punct('!')
            && toks[i - 1].is_punct('{');
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            if toks[j].is_punct(';') {
                break; // tuple/unit struct — no named counters
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i += 2;
            continue;
        }
        let close = crate::parser::matching_close(toks, j, '{', '}');
        let mut fields = Vec::new();
        let mut k = j + 1;
        while k < close {
            // Field: [pub] name : <type tokens up to `,` at depth 0>.
            if toks[k].is_ident("pub") {
                k += 1;
                // `pub(crate)` etc.
                if k < close && toks[k].is_punct('(') {
                    k = crate::parser::matching_close(toks, k, '(', ')') + 1;
                }
                continue;
            }
            if toks[k].kind == TokKind::Ident && k + 1 < close && toks[k + 1].is_punct(':') {
                let fname = toks[k].text.clone();
                let fline = toks[k].line;
                // Type runs to the next `,` at bracket depth 0.
                let (mut p, mut a) = (0i32, 0i32);
                let mut t = k + 2;
                let mut atomic = false;
                while t < close {
                    let tok = &toks[t];
                    if tok.is_punct('(') {
                        p += 1;
                    } else if tok.is_punct(')') {
                        p -= 1;
                    } else if tok.is_punct('<') {
                        a += 1;
                    } else if tok.is_punct('>') {
                        a -= 1;
                    } else if tok.is_punct(',') && p == 0 && a <= 0 {
                        break;
                    } else if tok.kind == TokKind::Ident && tok.text.starts_with("Atomic") {
                        atomic = true;
                    }
                    t += 1;
                }
                if atomic {
                    fields.push((fname, fline));
                }
                k = t + 1;
                continue;
            }
            k += 1;
        }
        if !fields.is_empty() {
            out.push(AtomicStruct {
                name,
                generated_snapshot,
                fields,
            });
        }
        i = close;
    }
    out
}

/// Does `f` contain `.field` followed within [`WINDOW`] tokens by one of
/// `methods`? The window tolerates indexing and iterator chains between
/// the field access and the atomic op.
fn mentions(f: &SourceFile, field: &str, methods: &[&str]) -> bool {
    let toks = &f.toks;
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == field) {
            continue;
        }
        if i == 0 || !toks[i - 1].is_punct('.') {
            continue; // require field-access position
        }
        let end = (i + WINDOW).min(toks.len());
        if toks[i + 1..end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && methods.contains(&t.text.as_str()))
        {
            return true;
        }
    }
    false
}
