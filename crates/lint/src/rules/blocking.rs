//! Rule `blocking-in-dispatcher`: functions reachable from the message
//! dispatcher must not block.
//!
//! The dispatcher thread is the server's only consumer of its fabric
//! inbox: a `sleep`, a `recv*` or a condvar `wait` anywhere in a
//! `handle_*`/`dispatch_msg` call chain stalls every message behind it —
//! including the relay acks whose absence then triggers retransmission
//! storms against the stalled server. Roots are the dispatch entry
//! points themselves (`dispatch_msg` and every `handle_*`); the
//! dispatcher *loop* is deliberately not a root — parking in
//! `recv_until` until a message or a machine deadline is its job.
//!
//! Reachability is over a name-based call graph of the audited files:
//! same-name functions are merged, which over-approximates toward
//! finding. A `spawn(…)` argument runs on another thread, so nothing
//! inside one — blocking call or callee — belongs to the spawning
//! function.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::parser::{functions, matching_close, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Calls that park the calling thread.
const BLOCKING_PRIMS: &[&str] = &[
    "sleep",
    "recv",
    "recv_timeout",
    "recv_until",
    "wait",
    "wait_for",
];

/// What one function definition does on its caller's thread.
struct FnFacts {
    file: PathBuf,
    callees: BTreeSet<String>,
    /// `(primitive, line)` of each direct blocking call.
    blocking: Vec<(String, u32)>,
}

fn facts_of(f: &SourceFile, body: (usize, usize)) -> FnFacts {
    let toks: &[Tok] = &f.toks;
    let mut facts = FnFacts {
        file: f.path.clone(),
        callees: BTreeSet::new(),
        blocking: Vec::new(),
    };
    let (mut i, end) = (body.0, body.1.min(toks.len()));
    while i + 1 < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident && toks[i + 1].is_punct('(') {
            if t.is_ident("spawn") {
                i = matching_close(toks, i + 1, '(', ')');
                continue;
            }
            if BLOCKING_PRIMS.contains(&t.text.as_str()) {
                facts.blocking.push((t.text.clone(), t.line));
            }
            facts.callees.insert(t.text.clone());
        }
        i += 1;
    }
    facts
}

/// Is `name` a dispatcher root?
fn is_root(name: &str) -> bool {
    name == "dispatch_msg" || name.starts_with("handle_")
}

/// Run the rule over `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut fns: Vec<(String, FnFacts)> = Vec::new();
    for f in files {
        for func in functions(&f.toks) {
            fns.push((func.name, facts_of(f, func.body)));
        }
    }
    let mut callees: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (name, facts) in &fns {
        let of_name = callees.entry(name).or_default();
        of_name.extend(facts.callees.iter().map(String::as_str));
    }
    // Which root reaches each function (a root itself; otherwise the
    // first root that gets there, for the message).
    let roots: Vec<&str> = callees.keys().copied().filter(|n| is_root(n)).collect();
    let mut reached_from: BTreeMap<&str, &str> = roots.iter().map(|r| (*r, *r)).collect();
    for root in roots {
        let mut work: Vec<&str> = callees[root].iter().copied().collect();
        while let Some(name) = work.pop() {
            if !reached_from.contains_key(name) {
                reached_from.insert(name, root);
                work.extend(callees.get(name).into_iter().flatten());
            }
        }
    }
    let mut out = Vec::new();
    for (name, facts) in &fns {
        let Some(root) = reached_from.get(name.as_str()) else {
            continue;
        };
        for (prim, line) in &facts.blocking {
            let via = if name == root {
                String::new()
            } else {
                format!(" (reachable from dispatcher root `{root}`)")
            };
            out.push(Diagnostic::new(
                "blocking-in-dispatcher",
                &facts.file,
                *line,
                format!("`{name}`{via} calls blocking `{prim}` on the dispatcher thread"),
                "move the blocking work to a worker thread or make it event-driven \
                 (timers via the retransmit tick, waits via a message round-trip)",
            ));
        }
    }
    out
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
    fn direct_and_transitive_blocking_fire() {
        let d = lint(
            "fn handle_submit(x: &X) { sleep(D); }\n\
             fn helper(x: &X) { x.cv.wait(g); }\n\
             fn handle_abort(x: &X) { helper(x); }",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("handle_submit")));
        assert!(d.iter().any(|d| d
            .message
            .contains("`helper` (reachable from dispatcher root `handle_abort`)")));
    }

    #[test]
    fn every_blocking_primitive_fires_once() {
        for prim in BLOCKING_PRIMS {
            let d = lint(&format!(
                "fn handle_x(x: &X) {{ park(x); }}\n\
                 fn park(x: &X) {{ x.ep.{prim}(D); }}"
            ));
            assert_eq!(d.len(), 1, "{prim}: {d:?}");
            assert!(
                d[0].message.contains(&format!("blocking `{prim}`")),
                "{d:?}"
            );
        }
    }

    #[test]
    fn dispatcher_loop_is_not_a_root() {
        let d = lint(
            "fn dispatcher_loop(ep: &Ep) { let m = ep.recv_until(D); }\n\
             fn unrelated() { sleep(D); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn spawned_closures_are_exempt() {
        let d = lint(
            "fn handle_migrate(x: &X) { spawn(move || { sleep(D); settle(x); }); }\n\
             fn settle(x: &X) { x.rx.recv_timeout(D); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
