//! gt-lint — workspace-native static analysis for the GraphTrek
//! invariants no other gate holds.
//!
//! Each invariant of the workspace has one gate, the cheapest that catches
//! a violation seeded into the tree (DESIGN.md §9, EXPERIMENTS.md "Second
//! census"): rustc's exhaustiveness for protocol dispatch, clippy's
//! restriction lints for panics in server code, the debug-build rank table
//! (`graphtrek::lockorder`) for lock order and guards held across a send,
//! unit tests for the retired-travel fence. What is left for this crate
//! are the rules whose seeded violation nothing else catches (see
//! [`diag::ALL_RULES`]):
//!
//! | rule | enforces |
//! |------|----------|
//! | `dead-counter`, `unsurfaced-counter` | every metrics counter incremented and surfaced |
//! | `atomic-ordering` | no `Relaxed` on handshake atomics (counters exempt) |
//! | `blocking-in-dispatcher` | nothing reachable from `handle_*` blocks the dispatcher |
//!
//! The crate is self-contained (own lexer + shallow parser, no
//! dependencies) so it runs in the offline workspace. Diagnostics can be
//! suppressed line-by-line with `// gt-lint: allow(<rule>, "reason")` on
//! the offending line or the line above; without a reason string the
//! comment is not a directive and suppresses nothing.

#![warn(missing_docs)]

pub mod diag;
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
    /// sets the rules were designed for (the server for the dispatcher
    /// rule, the crates holding handshake atomics, …).
    Workspace(PathBuf),
    /// Audit exactly these files (directories are walked for `*.rs`),
    /// applying every enabled rule to every file. Used for fixtures.
    Files(Vec<PathBuf>),
}

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
    if on("dead-counter") || on("unsurfaced-counter") {
        let mut d = rules::metrics_discipline::check(&sets.metrics_decl, &sets.metrics_use);
        d.retain(|d| on(d.rule));
        diags.extend(d);
    }
    if on("atomic-ordering") {
        diags.extend(rules::atomic_ordering::check(&sets.atomic));
    }
    if on("blocking-in-dispatcher") {
        diags.extend(rules::blocking::check(&sets.blocking));
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
    metrics_decl: Vec<&'a SourceFile>,
    metrics_use: Vec<&'a SourceFile>,
    atomic: Vec<&'a SourceFile>,
    blocking: Vec<&'a SourceFile>,
}

impl<'a> FileSets<'a> {
    /// Every rule sees every file (fixture mode).
    fn all(parsed: &'a [SourceFile]) -> FileSets<'a> {
        let all: Vec<&SourceFile> = parsed.iter().collect();
        FileSets {
            metrics_decl: all.clone(),
            atomic: all.clone(),
            blocking: all.clone(),
            metrics_use: all,
        }
    }
}

fn ends_with(p: &Path, suffix: &str) -> bool {
    p.to_string_lossy().replace('\\', "/").ends_with(suffix)
}

/// The server: `server.rs` and every file under `server/`, however deep.
/// The rule scoped to it takes the directory, not a list of names, so a
/// new protocol machine is audited from its first commit.
fn is_server(p: &Path) -> bool {
    let p = p.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/core/src/server.rs") || p.contains("crates/core/src/server/")
}

fn workspace_sets(parsed: &[SourceFile]) -> FileSets<'_> {
    let pick = |pred: &dyn Fn(&Path) -> bool| -> Vec<&SourceFile> {
        parsed.iter().filter(|f| pred(&f.path)).collect()
    };
    FileSets {
        metrics_decl: pick(&|p| {
            ends_with(p, "crates/core/src/metrics.rs") || ends_with(p, "crates/net/src/stats.rs")
        }),
        metrics_use: pick(&|_| true),
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
