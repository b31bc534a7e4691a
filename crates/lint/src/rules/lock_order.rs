//! Rules `lock-cycle` and `guard-across-channel`: static lock-acquisition
//! analysis over the concurrency-heavy files.
//!
//! The analysis simulates guard liveness token-by-token inside each
//! function: a `let g = x.lock();` guard lives to the end of its enclosing
//! block (or an explicit `drop(g)`), a chained temporary
//! (`x.lock().field`) lives to the end of its statement. While a guard is
//! live, three things produce facts:
//!
//! * acquiring another lock adds an edge `held → acquired` to the global
//!   acquisition-order graph;
//! * calling a function that (transitively) acquires locks adds the same
//!   edges, via a name-based call graph with a fixpoint over transitive
//!   acquisitions; the graph is cut at `spawn` (a new thread does not
//!   inherit the caller's guards) and at a blocklist of method names too
//!   generic to resolve by name (`push`, `get`, `wait`, …);
//! * a blocking channel `send`/`recv`(`_timeout`) — direct or transitive —
//!   is a `guard-across-channel` finding: a guard held across a blocking
//!   channel op couples lock order to message order, the classic
//!   distributed-deadlock shape. (`try_send`/`try_recv` never block and
//!   are exempt.)
//!
//! A cycle in the acquisition graph (including a self-edge) is a
//! `lock-cycle` finding. Lock identity is the field name before
//! `.lock()`/`.read()`/`.write()`, with `let Some(g) = &sh.log`-style
//! aliases resolved; this is intentionally simple — names are per-struct
//! unique in this workspace — and documented as a known limitation in
//! DESIGN.md.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::parser::{brace_depths, functions, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
const CHANNEL_METHODS: &[&str] = &["send", "recv", "recv_timeout"];

/// Method/function names never resolved through the call graph: either
/// std-library methods that collide with workspace fn names, or cuts
/// (`spawn`: a new thread starts with no inherited guards).
pub(crate) const CALL_BLOCKLIST: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "send",
    "recv",
    "recv_timeout",
    "try_send",
    "try_recv",
    "len",
    "is_empty",
    "clear",
    "next",
    "take",
    "lock",
    "read",
    "write",
    "drop",
    "clone",
    "iter",
    "iter_mut",
    "extend",
    "contains",
    "contains_key",
    "wait",
    "wait_for",
    "notify_all",
    "notify_one",
    "spawn",
    "join",
    "new",
    "default",
    "fmt",
    "load",
    "store",
    "fetch_add",
    "fetch_max",
    "min",
    "max",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "retain",
    "drain",
    // Workspace-specific collisions: `Cluster::progress`/`Cluster::io_stats`
    // share names with `TravelLedger::progress`/`PartitionStore::io_stats`,
    // and `Cluster::current_seq` with `PartitionStore::current_seq`.
    "progress",
    "io_stats",
    "current_seq",
];

#[derive(Debug)]
pub(crate) enum Event {
    Acquire {
        lock: String,
        line: u32,
        held: Vec<String>,
    },
    Channel {
        what: String,
        line: u32,
        held: Vec<String>,
    },
    Call {
        callee: String,
        line: u32,
        held: Vec<String>,
    },
}

#[derive(Debug, Default)]
pub(crate) struct FnFacts {
    pub(crate) file: PathBuf,
    pub(crate) events: Vec<Event>,
    pub(crate) acquires: BTreeSet<String>,
    pub(crate) channels: bool,
    pub(crate) callees: BTreeSet<String>,
}

/// Pass 1: per-function guard/channel facts, merged by name. Same-name
/// functions (e.g. `close` on two queue types) are merged, which
/// over-approximates safely. Shared with `guard-across-send`.
pub(crate) fn collect_facts(files: &[&SourceFile]) -> BTreeMap<String, FnFacts> {
    let mut fns: BTreeMap<String, FnFacts> = BTreeMap::new();
    for f in files {
        let depths = brace_depths(&f.toks);
        for func in functions(&f.toks) {
            let facts = analyze_fn(f, &depths, func.body);
            let entry = fns.entry(func.name.clone()).or_insert_with(|| FnFacts {
                file: f.path.clone(),
                ..FnFacts::default()
            });
            entry.acquires.extend(facts.acquires.iter().cloned());
            entry.channels |= facts.channels;
            entry.callees.extend(facts.callees.iter().cloned());
            entry.events.extend(facts.events);
        }
    }
    fns
}

/// Pass 2: fixpoint for transitive acquisitions / channel ops.
pub(crate) fn transitive(
    fns: &BTreeMap<String, FnFacts>,
) -> (BTreeMap<String, BTreeSet<String>>, BTreeMap<String, bool>) {
    let mut trans_acq: BTreeMap<String, BTreeSet<String>> = fns
        .iter()
        .map(|(n, f)| (n.clone(), f.acquires.clone()))
        .collect();
    let mut trans_chan: BTreeMap<String, bool> =
        fns.iter().map(|(n, f)| (n.clone(), f.channels)).collect();
    loop {
        let mut changed = false;
        for (name, facts) in fns {
            let mut acq = trans_acq[name].clone();
            let mut chan = trans_chan[name];
            for callee in &facts.callees {
                if let Some(a) = trans_acq.get(callee) {
                    for l in a.clone() {
                        acq.insert(l);
                    }
                }
                if trans_chan.get(callee).copied().unwrap_or(false) {
                    chan = true;
                }
            }
            if acq.len() != trans_acq[name].len() {
                trans_acq.insert(name.clone(), acq);
                changed = true;
            }
            if chan != trans_chan[name] {
                trans_chan.insert(name.clone(), chan);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (trans_acq, trans_chan)
}

/// Run both rules over `files`.
pub fn check(files: &[&SourceFile]) -> Vec<Diagnostic> {
    let fns = collect_facts(files);
    let (trans_acq, trans_chan) = transitive(&fns);

    // Pass 3: edges + guard-across-channel findings.
    let mut edges: BTreeMap<(String, String), (PathBuf, u32)> = BTreeMap::new();
    let mut out = Vec::new();
    for (name, facts) in &fns {
        let mut flagged: BTreeSet<String> = BTreeSet::new(); // one per (fn, lock)
        for ev in &facts.events {
            match ev {
                Event::Acquire { lock, line, held } => {
                    for h in held {
                        edges
                            .entry((h.clone(), lock.clone()))
                            .or_insert((facts.file.clone(), *line));
                    }
                }
                Event::Channel { what, line, held } => {
                    for h in held {
                        if flagged.insert(h.clone()) {
                            out.push(guard_across_channel(name, h, what, &facts.file, *line));
                        }
                    }
                }
                Event::Call { callee, line, held } => {
                    if held.is_empty() {
                        continue;
                    }
                    if let Some(acq) = trans_acq.get(callee) {
                        for h in held {
                            for l in acq {
                                edges
                                    .entry((h.clone(), l.clone()))
                                    .or_insert((facts.file.clone(), *line));
                            }
                        }
                    }
                    if trans_chan.get(callee).copied().unwrap_or(false) {
                        for h in held {
                            if flagged.insert(h.clone()) {
                                out.push(guard_across_channel(
                                    name,
                                    h,
                                    &format!("call to `{callee}`"),
                                    &facts.file,
                                    *line,
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    // Pass 4: cycles in the acquisition graph.
    out.extend(find_cycles(&edges));
    out
}

fn guard_across_channel(
    func: &str,
    lock: &str,
    what: &str,
    file: &PathBuf,
    line: u32,
) -> Diagnostic {
    Diagnostic::new(
        "guard-across-channel",
        file,
        line,
        format!("`{func}` holds the `{lock}` guard across a blocking channel op ({what})"),
        "drop the guard (end its scope or `drop(g)`) before the channel op, or add \
         `// gt-lint: allow(guard-across-channel, \"why\")`",
    )
}

/// Simulate guard liveness over one function body.
fn analyze_fn(f: &SourceFile, depths: &[u32], body: (usize, usize)) -> FnFacts {
    struct Guard {
        lock: String,
        name: Option<String>,
        scope_end: usize,
    }
    let toks = &f.toks;
    let (s, e) = body;
    let mut facts = FnFacts {
        file: f.path.clone(),
        ..FnFacts::default()
    };
    let mut active: Vec<Guard> = Vec::new();
    let mut aliases: BTreeMap<String, String> = BTreeMap::new();

    let mut i = s;
    while i < e.min(toks.len()) {
        active.retain(|g| g.scope_end > i);
        let t = &toks[i];

        // Alias: `let Some(NAME) = &chain.field` (no calls in initializer).
        if t.is_ident("let")
            && i + 4 < e
            && toks[i + 1].is_ident("Some")
            && toks[i + 2].is_punct('(')
            && toks[i + 3].kind == TokKind::Ident
            && toks[i + 4].is_punct(')')
            && i + 5 < e
            && toks[i + 5].is_punct('=')
        {
            let name = toks[i + 3].text.clone();
            let mut j = i + 6;
            let mut last_ident = None;
            let mut has_call = false;
            while j < e {
                let tj = &toks[j];
                if tj.is_punct(';') || tj.is_punct('{') || tj.is_ident("else") {
                    break;
                }
                if tj.is_punct('(') {
                    has_call = true;
                }
                if tj.kind == TokKind::Ident {
                    last_ident = Some(tj.text.clone());
                }
                j += 1;
            }
            if let (false, Some(l)) = (has_call, last_ident) {
                aliases.insert(name, l);
            }
            i += 6;
            continue;
        }

        // Explicit `drop(NAME)`.
        if t.is_ident("drop")
            && i + 3 < e
            && toks[i + 1].is_punct('(')
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is_punct(')')
        {
            let name = &toks[i + 2].text;
            active.retain(|g| g.name.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        }

        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let called = i + 1 < toks.len() && toks[i + 1].is_punct('(');

        // Lock acquisition: `<recv>.lock()` / `.read()` / `.write()`.
        if t.kind == TokKind::Ident
            && LOCK_METHODS.contains(&t.text.as_str())
            && is_method
            && called
            && i + 2 < toks.len()
            && toks[i + 2].is_punct(')')
        {
            if let Some(lock) = receiver_lock_name(toks, i, &aliases) {
                let held: Vec<String> = active.iter().map(|g| g.lock.clone()).collect();
                facts.events.push(Event::Acquire {
                    lock: lock.clone(),
                    line: t.line,
                    held,
                });
                facts.acquires.insert(lock.clone());
                let bound = let_bound_name(toks, i, s);
                let scope_end = if bound.is_some() {
                    // Guard: lives to the end of the enclosing block.
                    let d = depths[i];
                    (i + 1..e).find(|&j| depths[j] < d).unwrap_or(e)
                } else {
                    // Temporary: lives to the end of the statement (a `;`
                    // at this depth, or entering/leaving a block).
                    let d = depths[i];
                    (i + 1..e)
                        .find(|&j| {
                            depths[j] < d
                                || (depths[j] == d
                                    && (toks[j].is_punct(';') || toks[j].is_punct('{')))
                        })
                        .unwrap_or(e)
                };
                active.push(Guard {
                    lock,
                    name: bound,
                    scope_end,
                });
            }
            i += 3;
            continue;
        }

        // Blocking channel op.
        if t.kind == TokKind::Ident
            && CHANNEL_METHODS.contains(&t.text.as_str())
            && is_method
            && called
        {
            facts.channels = true;
            facts.events.push(Event::Channel {
                what: format!("`.{}()`", t.text),
                line: t.line,
                held: active.iter().map(|g| g.lock.clone()).collect(),
            });
            i += 2;
            continue;
        }

        // Plain or method call, resolved by name unless blocklisted.
        if t.kind == TokKind::Ident
            && called
            && !CALL_BLOCKLIST.contains(&t.text.as_str())
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            facts.callees.insert(t.text.clone());
            facts.events.push(Event::Call {
                callee: t.text.clone(),
                line: t.line,
                held: active.iter().map(|g| g.lock.clone()).collect(),
            });
        }
        i += 1;
    }
    facts
}

/// Lock identity of the receiver of the lock call at `i`: the identifier
/// before the final `.`, alias-resolved.
fn receiver_lock_name(
    toks: &[Tok],
    i: usize,
    aliases: &BTreeMap<String, String>,
) -> Option<String> {
    if i < 2 {
        return None;
    }
    let prev = &toks[i - 2];
    if prev.kind != TokKind::Ident {
        return None;
    }
    let name = aliases
        .get(&prev.text)
        .cloned()
        .unwrap_or_else(|| prev.text.clone());
    Some(name)
}

/// If the lock call at `i` is the whole initializer of a `let` binding
/// (`let [mut] NAME = <chain>.lock();`), return the bound name.
fn let_bound_name(toks: &[Tok], i: usize, body_start: usize) -> Option<String> {
    // Must be immediately followed by `;` (otherwise the guard is a
    // temporary inside a larger expression).
    if !(i + 3 < toks.len() && toks[i + 3].is_punct(';')) {
        return None;
    }
    // Walk the receiver chain left to `=`, then expect `let [mut] NAME`.
    let mut j = i - 1; // at '.'
    while j > body_start {
        let p = &toks[j - 1];
        if p.kind == TokKind::Ident || p.is_punct('.') || p.is_punct('&') {
            j -= 1;
            continue;
        }
        if p.is_punct(')') || p.is_punct(']') {
            // Bracketed link in the chain (indexing); walk past it.
            let close_ch = &p.text;
            let open_ch = if close_ch == ")" { "(" } else { "[" };
            let mut depth = 0i32;
            let mut k = j - 1;
            loop {
                if toks[k].kind == TokKind::Punct && toks[k].text == *close_ch {
                    depth += 1;
                } else if toks[k].kind == TokKind::Punct && toks[k].text == open_ch {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if k == body_start {
                    return None;
                }
                k -= 1;
            }
            j = k;
            continue;
        }
        if p.is_punct('=') {
            // `==`/`=>`/`>=` never directly precede a guard chain here.
            if j >= 2 && toks[j - 2].kind == TokKind::Ident {
                let name_idx = j - 2;
                let mut k = name_idx;
                if k >= 1 && toks[k - 1].is_ident("mut") {
                    k -= 1;
                }
                if k >= 1 && toks[k - 1].is_ident("let") {
                    return Some(toks[name_idx].text.clone());
                }
            }
            return None;
        }
        return None;
    }
    None
}

/// Find elementary cycles (including self-edges) in the acquisition graph
/// and report each once.
fn find_cycles(edges: &BTreeMap<(String, String), (PathBuf, u32)>) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out = Vec::new();

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS from each node, tracking the current path.
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)]; // (node idx in path, next child)
        while let Some((pi, ci)) = stack.pop() {
            let node = path[pi];
            let children = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if ci >= children.len() {
                path.truncate(pi);
                continue;
            }
            stack.push((pi, ci + 1));
            let child = children[ci];
            path.truncate(pi + 1);
            if let Some(pos) = path.iter().position(|&n| n == child) {
                // Cycle: path[pos..] + child.
                let mut cyc: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                let mut key = cyc.clone();
                key.sort();
                if seen_cycles.insert(key) {
                    cyc.push(child.to_string());
                    let mut sites = Vec::new();
                    for w in cyc.windows(2) {
                        if let Some((file, line)) = edges.get(&(w[0].clone(), w[1].clone())) {
                            sites.push(format!("{}:{}", file.display(), line));
                        }
                    }
                    let (file, line) = edges
                        .get(&(cyc[0].clone(), cyc[1].clone()))
                        .cloned()
                        .unwrap_or((PathBuf::from("<graph>"), 0));
                    out.push(Diagnostic::new(
                        "lock-cycle",
                        &file,
                        line,
                        format!(
                            "lock acquisition cycle: {} (edges at {})",
                            cyc.join(" -> "),
                            sites.join(", ")
                        ),
                        "pick one global acquisition order for these locks and restructure so \
                         every code path follows it (see OrderedMutex ranks in \
                         crates/core/src/lockorder.rs)",
                    ));
                }
                continue;
            }
            if path.len() > 16 {
                continue; // defensive bound; real graphs here are tiny
            }
            path.push(child);
            stack.push((pi + 1, 0));
        }
    }
    out
}
