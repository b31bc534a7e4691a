//! CLI for gt-lint.
//!
//! ```text
//! gt-lint [--deny all] [--rules r1,r2,...] [--root DIR] [--format F] [PATH...]
//! ```
//!
//! With no paths, audits the workspace (rooted at `--root`, default `.`)
//! with the per-rule file sets. With paths, audits exactly those files —
//! used for fixtures.
//!
//! `--format` selects the output: `text` (default, human-readable),
//! `json` (stable machine-readable array), `sarif` (SARIF 2.1.0 log),
//! or `github` (GitHub Actions `::error` annotations).
//!
//! Exit codes: 0 clean (or findings without `--deny all`), 1 denied
//! findings, 2 usage/IO error.

use gt_lint::diag::{render_github, render_json, render_sarif};
use gt_lint::{run, Mode, ALL_RULES};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
    Github,
}

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut rules: BTreeSet<String> = ALL_RULES.iter().map(|s| s.to_string()).collect();
    let mut root = PathBuf::from(".");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut format = Format::Text;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => match args.next().as_deref() {
                Some("all") => deny_all = true,
                other => return usage(&format!("--deny expects `all`, got {other:?}")),
            },
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    Some("github") => Format::Github,
                    other => {
                        return usage(&format!(
                            "--format expects text|json|sarif|github, got {other:?}"
                        ))
                    }
                };
            }
            "--rules" => {
                let Some(list) = args.next() else {
                    return usage("--rules expects a comma-separated list");
                };
                rules.clear();
                for r in list.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                    if !ALL_RULES.contains(&r) {
                        return usage(&format!(
                            "unknown rule `{r}` (known: {})",
                            ALL_RULES.join(", ")
                        ));
                    }
                    rules.insert(r.to_string());
                }
            }
            "--root" => {
                let Some(dir) = args.next() else {
                    return usage("--root expects a directory");
                };
                root = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => return usage(&format!("unknown flag `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }

    let mode = if paths.is_empty() {
        Mode::Workspace(root)
    } else {
        Mode::Files(paths)
    };

    match run(&mode, &rules) {
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Ok(diags) => {
            match format {
                Format::Text => {
                    if diags.is_empty() {
                        println!("gt-lint: clean ({} rules)", rules.len());
                    } else {
                        for d in &diags {
                            println!("{d}");
                        }
                        println!("gt-lint: {} finding(s)", diags.len());
                    }
                }
                Format::Json => println!("{}", render_json(&diags)),
                Format::Sarif => println!("{}", render_sarif(&diags)),
                Format::Github => {
                    if !diags.is_empty() {
                        println!("{}", render_github(&diags));
                    }
                    println!("gt-lint: {} finding(s)", diags.len());
                }
            }
            if deny_all && !diags.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

const USAGE: &str =
    "usage: gt-lint [--deny all] [--rules r1,r2,...] [--root DIR] [--format F] [PATH...]
  no PATHs: audit the workspace under --root (default `.`)
  PATHs:    audit exactly these files/dirs with every enabled rule
  --format: text (default) | json | sarif | github";

fn usage(msg: &str) -> ExitCode {
    eprintln!("gt-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
