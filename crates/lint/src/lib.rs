//! gt-lint — workspace-native static analysis for GraphTrek's concurrency
//! and protocol invariants.
//!
//! The rule families (see [`diag::ALL_RULES`]):
//!
//! | rule | enforces |
//! |------|----------|
//! | `lock-cycle` | no cycles in the static lock-acquisition graph |
//! | `guard-across-channel` | no guard live across a blocking `send`/`recv` |
//! | `wildcard-arm` | no silent `_ =>` arms in protocol dispatch |
//! | `unhandled-variant` | every `Msg` variant matched by name |
//! | `epoch-fence` | travel-scoped handlers fence before mutating |
//! | `panic` | no `unwrap`/`expect`/`panic!` in hot paths |
//! | `dead-counter`, `unsurfaced-counter` | every metrics counter incremented and surfaced |
//! | `protocol-conformance` | sent `Msg` variants dispatched; request→ack pairs acked + retried; no dead variants |
//! | `guard-across-send` | no ranked `OrderedMutex` guard live across a fabric send, interprocedurally |
//! | `atomic-ordering` | no `Relaxed` on handshake atomics (counters exempt) |
//! | `blocking-in-dispatcher` | nothing reachable from `handle_*` blocks the dispatcher |
//! | `bare-allow` | every `allow(...)` escape hatch carries a reason |
//!
//! The crate is self-contained (own lexer + shallow parser, no
//! dependencies) so it runs in the offline workspace. Diagnostics can be
//! suppressed line-by-line with `// gt-lint: allow(<rule>, "reason")` on
//! the offending line or the line above; the reason string is mandatory
//! (`bare-allow`). The protocol rules additionally read
//! `// gt-lint: pair(Req -> Ack)` directives declaring request→ack
//! pairings the `*Ack` naming convention cannot infer.

#![warn(missing_docs)]

pub mod diag;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use diag::{Diagnostic, ALL_RULES};

use parser::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// What to lint.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Audit the workspace rooted at this directory with the per-rule file
    /// sets the rules were designed for (server/cluster/queue for lock
    /// analysis, hot-path crates for panic hygiene, …).
    Workspace(PathBuf),
    /// Audit exactly these files (directories are walked for `*.rs`),
    /// applying every enabled rule to every file. Used for fixtures and
    /// for the nightly pass over `examples/` and `tests/`.
    Files(Vec<PathBuf>),
}

/// Hot-path files within `crates/core/src` for the `panic` rule, beside
/// the server and the cluster client themselves (see [`is_server`],
/// [`is_cluster`]): everything that runs inside a server process. The
/// query layer (`lang`, `parse`, `oracle`) is exempt: it runs client-side
/// before submission, where a panic cannot kill a server thread.
const CORE_HOT: &[&str] = &[
    "coordinator.rs",
    "queue.rs",
    "message.rs",
    "metrics.rs",
    "cache.rs",
    "engine.rs",
    "faults.rs",
    "lib.rs",
    "client.rs",
    "wirecodec.rs",
    "frontdoor.rs",
    "qos.rs",
];

/// Run the enabled rules and return unsuppressed diagnostics sorted by
/// file/line. `enabled` holds rule names from [`ALL_RULES`].
pub fn run(mode: &Mode, enabled: &BTreeSet<String>) -> Result<Vec<Diagnostic>, String> {
    let files = collect_files(mode)?;
    let mut parsed = Vec::new();
    for path in &files {
        let sf = SourceFile::read(path)
            .map_err(|e| format!("gt-lint: cannot read {}: {e}", path.display()))?;
        parsed.push(sf);
    }
    let sets = match mode {
        Mode::Workspace(_) => workspace_sets(&parsed),
        Mode::Files(_) => FileSets::all(&parsed),
    };

    let on = |rule: &str| enabled.contains(rule);
    let mut diags = Vec::new();
    if on("lock-cycle") || on("guard-across-channel") {
        let mut d = rules::lock_order::check(&sets.lock);
        d.retain(|d| on(d.rule));
        diags.extend(d);
    }
    if on("wildcard-arm") || on("unhandled-variant") {
        let mut d = rules::dispatch::check(&sets.dispatch);
        d.retain(|d| on(d.rule));
        diags.extend(d);
    }
    if on("epoch-fence") {
        diags.extend(rules::epoch_fence::check(&sets.fence));
    }
    if on("panic") {
        diags.extend(rules::panic_hygiene::check(&sets.panic));
    }
    if on("dead-counter") || on("unsurfaced-counter") {
        let mut d = rules::metrics_discipline::check(&sets.metrics_decl, &sets.metrics_use);
        d.retain(|d| on(d.rule));
        diags.extend(d);
    }
    if on("protocol-conformance") {
        diags.extend(rules::protocol::check(&sets.protocol));
    }
    if on("guard-across-send") {
        diags.extend(rules::guard_send::check(&sets.guard_send));
    }
    if on("atomic-ordering") {
        diags.extend(rules::atomic_ordering::check(&sets.atomic));
    }
    if on("blocking-in-dispatcher") {
        diags.extend(rules::blocking::check(&sets.blocking));
    }
    if on("bare-allow") {
        for f in &parsed {
            for a in f.allows.iter().filter(|a| !a.has_reason) {
                diags.push(Diagnostic::new(
                    "bare-allow",
                    &f.path,
                    a.line,
                    format!("`allow({})` has no reason string", a.rule),
                    "every escape hatch must say why it is safe: \
                     `// gt-lint: allow(rule, \"reason\")`",
                ));
            }
        }
    }

    // Allow-comment suppression: an allow on line L covers L and L+1.
    diags.retain(|d| {
        !parsed.iter().any(|f| {
            f.path == d.file
                && f.allows
                    .iter()
                    .any(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line))
        })
    });
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(diags)
}

/// Per-rule file subsets (borrowing from the parsed set).
struct FileSets<'a> {
    lock: Vec<&'a SourceFile>,
    dispatch: Vec<&'a SourceFile>,
    fence: Vec<&'a SourceFile>,
    panic: Vec<&'a SourceFile>,
    metrics_decl: Vec<&'a SourceFile>,
    metrics_use: Vec<&'a SourceFile>,
    protocol: Vec<&'a SourceFile>,
    guard_send: Vec<&'a SourceFile>,
    atomic: Vec<&'a SourceFile>,
    blocking: Vec<&'a SourceFile>,
}

impl<'a> FileSets<'a> {
    /// Every rule sees every file (fixture mode).
    fn all(parsed: &'a [SourceFile]) -> FileSets<'a> {
        let all: Vec<&SourceFile> = parsed.iter().collect();
        FileSets {
            lock: all.clone(),
            dispatch: all.clone(),
            fence: all.clone(),
            panic: all.clone(),
            metrics_decl: all.clone(),
            protocol: all.clone(),
            guard_send: all.clone(),
            atomic: all.clone(),
            blocking: all.clone(),
            metrics_use: all,
        }
    }
}

fn ends_with(p: &Path, suffix: &str) -> bool {
    p.to_string_lossy().replace('\\', "/").ends_with(suffix)
}

/// A module of `crates/core/src` that is a shell file plus a directory:
/// `<name>.rs` and every file under `<name>/`, however deep. The rules
/// scoped to one take the directory, not a list of names, so a new
/// protocol machine is audited from its first commit.
fn in_core_module(p: &Path, name: &str) -> bool {
    let p = p.to_string_lossy().replace('\\', "/");
    p.ends_with(&format!("crates/core/src/{name}.rs"))
        || p.contains(&format!("crates/core/src/{name}/"))
}

/// The server: `server.rs` and its protocol machines under `server/`.
fn is_server(p: &Path) -> bool {
    in_core_module(p, "server")
}

/// The cluster client: `cluster.rs` and its machines under `cluster/`.
fn is_cluster(p: &Path) -> bool {
    in_core_module(p, "cluster")
}

fn workspace_sets(parsed: &[SourceFile]) -> FileSets<'_> {
    let pick = |pred: &dyn Fn(&Path) -> bool| -> Vec<&SourceFile> {
        parsed.iter().filter(|f| pred(&f.path)).collect()
    };
    FileSets {
        lock: pick(&|p| is_server(p) || is_cluster(p) || ends_with(p, "crates/core/src/queue.rs")),
        // Dispatch audit spans every crate that matches on a wire enum:
        // the fabric protocol (core), the client↔server proto frames
        // (proto, client), and the socket mesh + door (transport, core).
        dispatch: pick(&|p| {
            let s = p.to_string_lossy().replace('\\', "/");
            ends_with(p, ".rs")
                && [
                    "core/src",
                    "proto/src",
                    "client/src",
                    "server/src",
                    "transport/src",
                ]
                .iter()
                .any(|d| s.contains(d))
        }),
        fence: pick(&is_server),
        panic: pick(&|p| {
            is_server(p)
                || is_cluster(p)
                || CORE_HOT
                    .iter()
                    .any(|n| ends_with(p, &format!("crates/core/src/{n}")))
                || p.to_string_lossy()
                    .replace('\\', "/")
                    .contains("crates/net/src/")
        }),
        metrics_decl: pick(&|p| {
            ends_with(p, "crates/core/src/metrics.rs") || ends_with(p, "crates/net/src/stats.rs")
        }),
        metrics_use: pick(&|_| true),
        // The whole protocol surface: every sender and dispatcher lives in
        // core/src (clients in cluster.rs, servers in server.rs).
        protocol: pick(&|p| ends_with(p, ".rs") && p.to_string_lossy().contains("core/src")),
        // Servers and clients alike: no ranked guard outlives a send.
        guard_send: pick(&|p| ends_with(p, ".rs") && p.to_string_lossy().contains("core/src")),
        // Handshake atomics live in core (crash flags, epochs), net
        // (fabric stats), and kvstore (version clock, pins).
        atomic: pick(&|p| {
            let s = p.to_string_lossy().replace('\\', "/");
            s.contains("crates/core/src/")
                || s.contains("crates/net/src/")
                || s.contains("crates/kvstore/src/")
        }),
        blocking: pick(&is_server),
    }
}

/// Resolve the mode to a concrete file list.
fn collect_files(mode: &Mode) -> Result<Vec<PathBuf>, String> {
    match mode {
        Mode::Workspace(root) => {
            let mut out = Vec::new();
            for dir in [
                "crates/core/src",
                "crates/net/src",
                "crates/kvstore/src",
                "crates/transport/src",
                "crates/proto/src",
                "crates/server/src",
                "crates/client/src",
            ] {
                let d = root.join(dir);
                if !d.is_dir() {
                    continue; // a partial tree is audited for what it holds
                }
                let mut files = rs_files_in(&d)
                    .map_err(|e| format!("gt-lint: cannot walk {}: {e}", d.display()))?;
                files.sort();
                out.extend(files);
            }
            if out.is_empty() {
                return Err(format!(
                    "gt-lint: no sources under {} (wrong --root?)",
                    root.display()
                ));
            }
            Ok(out)
        }
        Mode::Files(paths) => {
            let mut out = Vec::new();
            for p in paths {
                if p.is_dir() {
                    let mut files = rs_files_in(p)
                        .map_err(|e| format!("gt-lint: cannot walk {}: {e}", p.display()))?;
                    files.sort();
                    out.extend(files);
                } else if p.is_file() {
                    out.push(p.clone());
                } else {
                    return Err(format!("gt-lint: no such path: {}", p.display()));
                }
            }
            Ok(out)
        }
    }
}

/// All `*.rs` files under `dir`, recursively.
fn rs_files_in(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    Ok(out)
}
