//! Rule `guard-across-send`: no **ranked** `OrderedMutex` guard may be
//! live across a fabric send or blocking receive, directly or through a
//! call chain.
//!
//! `guard-across-channel` already flags any guard held across a blocking
//! channel op inside the three concurrency-critical files. This rule is
//! the interprocedural, rank-aware complement over the whole protocol
//! surface: it reuses the lock-order guard-liveness machinery but
//! restricts lock identity to names harvested from the global
//! `OrderedMutex` rank table, so renaming a local `Mutex` can't silence
//! it and helper files outside the lock files are covered. A ranked
//! guard held across a send couples the global lock order to fabric
//! backpressure — the cross-node deadlock shape the rank table exists to
//! prevent.
//!
//! Scope: the workspace file set covers all of `crates/core/src` — the
//! server data plane (`server.rs`, `queue.rs`, `coordinator.rs`, …) and
//! the client (`cluster.rs`, `cluster/`), whose per-travel table is
//! stepped under its lock and whose effects are carried out after the
//! guard is gone. In `Files` mode (fixtures, `tests/`, `examples/`) every
//! file is checked.

use crate::diag::Diagnostic;
use crate::ir;
use crate::parser::SourceFile;
use crate::rules::lock_order::{collect_facts, transitive, Event};
use std::collections::BTreeSet;

/// Run the rule over `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let ranked: BTreeSet<String> = ir::ranked_locks(files)
        .into_iter()
        .map(|l| l.name)
        .collect();
    if ranked.is_empty() {
        return Vec::new();
    }
    let fns = collect_facts(files);
    let (_, trans_chan) = transitive(&fns);

    let mut out = Vec::new();
    for (name, facts) in &fns {
        let mut flagged: BTreeSet<&str> = BTreeSet::new(); // one per (fn, lock)
        for ev in &facts.events {
            let (what, line, held): (String, u32, &[String]) = match ev {
                Event::Channel { what, line, held } => (what.clone(), *line, held),
                Event::Call { callee, line, held }
                    if trans_chan.get(callee).copied().unwrap_or(false) =>
                {
                    (format!("call to `{callee}`"), *line, held)
                }
                _ => continue,
            };
            for h in held.iter().filter(|h| ranked.contains(h.as_str())) {
                if flagged.insert(h.as_str()) {
                    out.push(Diagnostic::new(
                        "guard-across-send",
                        &facts.file,
                        line,
                        format!(
                            "`{name}` holds ranked `OrderedMutex` guard `{h}` across a \
                             fabric send/recv ({what})"
                        ),
                        "snapshot what you need, drop the guard, then send; ranked \
                         guards across fabric ops couple lock order to backpressure",
                    ));
                }
            }
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
    fn ranked_guard_across_send_fires_interprocedurally() {
        let d = lint(
            "struct S { journal: OrderedMutex<u64> }\n\
             fn mk() -> S { S { journal: OrderedMutex::new(30, \"journal\", 0) } }\n\
             fn deep(ep: &Ep) { ep.send(0, 1); }\n\
             fn outer(s: &S, ep: &Ep) { let g = s.journal.lock(); deep(ep); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("journal"));
        assert!(d[0].rule == "guard-across-send");
    }

    #[test]
    fn unranked_guard_is_not_this_rules_business() {
        let d = lint(
            "struct S { journal: OrderedMutex<u64>, scratch: Mutex<u64> }\n\
             fn mk() -> S { S { journal: OrderedMutex::new(30, \"journal\", 0),\n\
               scratch: Mutex::new(0) } }\n\
             fn f(s: &S, ep: &Ep) { let g = s.scratch.lock(); ep.send(0, 1); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn dropped_guard_is_clean() {
        let d = lint(
            "struct S { journal: OrderedMutex<u64> }\n\
             fn mk() -> S { S { journal: OrderedMutex::new(30, \"journal\", 0) } }\n\
             fn f(s: &S, ep: &Ep) { let g = s.journal.lock(); drop(g); ep.send(0, 1); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
