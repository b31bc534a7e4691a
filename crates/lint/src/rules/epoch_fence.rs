//! Rule `epoch-fence`: travel-scoped message handlers must consult the
//! travel-epoch fence before mutating per-travel state.
//!
//! After a coordinator failover, stale messages from the previous epoch
//! keep arriving. Any `handle_*` function that takes a `travel: TravelId`
//! and *creates or modifies* per-travel state (`insert`, `entry`, `push`,
//! `extend`, ledger mutators, …) without first checking
//! `is_retired`/`travel_epoch` can resurrect a travel that the fence
//! already killed. Pure-cleanup handlers (`remove`/`retain` only) are
//! exempt — tearing state down is safe at any epoch. Stepping a protocol
//! machine with an input (`.on_frontier(…)`, `.on_seed(…)` — the server's
//! machines name every input `on_*`) is a mutation like any other: the
//! machines hold the per-travel state now, and fencing is their shell's
//! job. Mutations through a guard of the fence's own bookkeeping (`relay`,
//! which owns the travel-epoch and peer-epoch fences, and `retired`) are
//! exempt: updating the fence *is* the fence.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::parser::{functions, SourceFile};

/// Method names that create or modify per-travel state. The trailing
/// entries are the ledger/sync-state mutators specific to this
/// workspace; the set is deliberately explicit so the rule's reach is
/// reviewable in one place.
const MUTATORS: &[&str] = &[
    "insert",
    "entry",
    "push",
    "push_many",
    "push_back",
    "extend",
    "extend_from_slice",
    "observe",
    "step_done",
    "add_results",
    "exec_created",
    "exec_terminated",
];

/// Prefix of the protocol machines' input methods.
const MACHINE_INPUT: &str = "on_";

/// Locks that *are* the fence; mutating through their guards is exempt.
const FENCE_LOCKS: &[&str] = &["relay", "retired"];

/// Idents that count as consulting the fence.
const FENCE_CALLS: &[&str] = &["is_retired", "travel_epoch_of"];

/// Run the rule over `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        let toks = &f.toks;
        for func in functions(toks) {
            if !func.name.starts_with("handle_") || !takes_travel_id(toks, func.params) {
                continue;
            }
            let (s, e) = func.body;
            let fence_guards = fence_guard_names(toks, s, e);
            let consult_at = first_consult(toks, s, e);
            for i in s..e.min(toks.len()) {
                let t = &toks[i];
                let is_mutation = t.kind == TokKind::Ident
                    && (MUTATORS.contains(&t.text.as_str()) || t.text.starts_with(MACHINE_INPUT))
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && i + 1 < toks.len()
                    && toks[i + 1].is_punct('(');
                if !is_mutation {
                    continue;
                }
                if receiver_is_fence_state(toks, i, &fence_guards) {
                    continue;
                }
                if consult_at.map(|c| c < i) != Some(true) {
                    out.push(Diagnostic::new(
                        "epoch-fence",
                        &f.path,
                        t.line,
                        format!(
                            "`{}` mutates per-travel state via `.{}()` before consulting the \
                             travel-epoch fence",
                            func.name, t.text
                        ),
                        "check `sh.is_retired(travel)` / compare the travel epoch before \
                         mutating, or add `// gt-lint: allow(epoch-fence, \"why\")`",
                    ));
                    break; // one finding per handler is enough
                }
            }
        }
    }
    out
}

/// Does the parameter list contain `travel : TravelId`?
fn takes_travel_id(toks: &[Tok], params: (usize, usize)) -> bool {
    let (s, e) = params;
    (s..e.min(toks.len()).saturating_sub(2)).any(|i| {
        toks[i].is_ident("travel") && toks[i + 1].is_punct(':') && toks[i + 2].is_ident("TravelId")
    })
}

/// Token index of the first fence consult in the body, if any. A consult
/// is a call to a fence helper, or a comparison involving an identifier
/// that contains "epoch".
fn first_consult(toks: &[Tok], s: usize, e: usize) -> Option<usize> {
    for i in s..e.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if FENCE_CALLS.contains(&t.text.as_str()) {
            return Some(i);
        }
        if t.text.contains("epoch") && is_compared(toks, i) {
            return Some(i);
        }
    }
    None
}

/// Is the identifier at `i` adjacent to a comparison operator
/// (`==`, `!=`, `<`, `>`, `<=`, `>=`)?
fn is_compared(toks: &[Tok], i: usize) -> bool {
    let after = |j: usize| -> bool {
        if j >= toks.len() {
            return false;
        }
        let a = &toks[j];
        if a.is_punct('<') || a.is_punct('>') {
            // `<` could open generics, but inside a handler body a `<`
            // next to an epoch value is always a comparison.
            return true;
        }
        (a.is_punct('=') || a.is_punct('!')) && j + 1 < toks.len() && toks[j + 1].is_punct('=')
    };
    let before = |j: usize| -> bool {
        if j == 0 {
            return false;
        }
        let a = &toks[j - 1];
        if a.is_punct('<') || a.is_punct('>') {
            return true;
        }
        a.is_punct('=') && j >= 2 && (toks[j - 2].is_punct('=') || toks[j - 2].is_punct('!'))
    };
    // The ident may be a field chain: `r.epoch ==` / `== r.epoch`.
    after(i + 1) || before(i)
}

/// Names bound as guards of fence-state locks:
/// `let [mut] NAME = <chain>.{relay|retired}.lock()...`.
fn fence_guard_names(toks: &[Tok], s: usize, e: usize) -> Vec<String> {
    let mut out: Vec<String> = FENCE_LOCKS.iter().map(|s| s.to_string()).collect();
    let mut i = s;
    while i + 3 < e.min(toks.len()) {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks[j].is_ident("mut") {
                j += 1;
            }
            if toks[j].kind == TokKind::Ident && j + 1 < e && toks[j + 1].is_punct('=') {
                let name = toks[j].text.clone();
                // Scan the initializer (to `;`) for a fence lock name.
                let mut k = j + 2;
                let mut is_fence = false;
                while k < e.min(toks.len()) && !toks[k].is_punct(';') {
                    if toks[k].kind == TokKind::Ident
                        && FENCE_LOCKS.contains(&toks[k].text.as_str())
                    {
                        is_fence = true;
                    }
                    k += 1;
                }
                if is_fence {
                    out.push(name);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Walk the receiver chain left from the mutator at `i` (`base.field.
/// lock().entry(` → `base`, `field`, …) and report whether any link is a
/// fence-state lock or a guard bound from one.
fn receiver_is_fence_state(toks: &[Tok], i: usize, fence_guards: &[String]) -> bool {
    // toks[i-1] is the `.`; walk left over `ident`/`)`/`]` + `.` links.
    let mut j = i - 1; // at '.'
    while j > 0 {
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident {
            if fence_guards.iter().any(|g| g == &prev.text) {
                return true;
            }
            if j >= 2 && toks[j - 2].is_punct('.') {
                j -= 2;
                continue;
            }
            return false;
        }
        if prev.is_punct(')') || prev.is_punct(']') {
            // Skip the bracketed group to its opener, then continue left.
            let close = j - 1;
            let (open_ch, close_ch) = if prev.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0i32;
            let mut k = close;
            loop {
                if toks[k].is_punct(close_ch) {
                    depth += 1;
                } else if toks[k].is_punct(open_ch) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == 0 {
                    return false;
                }
                k -= 1;
            }
            // Before the opener there may be a call target `ident(`.
            if k >= 1 && toks[k - 1].kind == TokKind::Ident {
                if fence_guards.iter().any(|g| g == &toks[k - 1].text) {
                    return true;
                }
                if k >= 2 && toks[k - 2].is_punct('.') {
                    j = k - 2;
                    continue;
                }
            }
            return false;
        }
        return false;
    }
    false
}
