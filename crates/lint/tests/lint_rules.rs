//! Per-rule fixture tests: every gt-lint rule has at least one positive
//! fixture (the rule fires) and one negative fixture (it stays quiet),
//! plus binary-level exit-code checks and a workspace-clean gate.

use gt_lint::{run, Diagnostic, Mode, ALL_RULES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint one fixture with the given rules enabled.
fn lint(file: &str, rules: &[&str]) -> Vec<Diagnostic> {
    let enabled: BTreeSet<String> = rules.iter().map(|s| s.to_string()).collect();
    run(&Mode::Files(vec![fixture(file)]), &enabled)
        .unwrap_or_else(|e| panic!("linting {file}: {e}"))
}

#[test]
fn counter_rules_fire_on_dead_and_unsurfaced() {
    let diags = lint("counter_bad.rs", &["dead-counter", "unsurfaced-counter"]);
    let hit = |rule: &str, counter: &str| {
        diags
            .iter()
            .any(|d| d.rule == rule && d.message.contains(counter))
    };
    assert!(hit("dead-counter", "Metrics.dead"), "{diags:?}");
    assert!(hit("unsurfaced-counter", "Metrics.hidden"), "{diags:?}");
    assert!(hit("dead-counter", "Table.dead_row"), "{diags:?}");
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn counter_rules_quiet_when_bumped_and_read() {
    assert!(lint("counter_ok.rs", &["dead-counter", "unsurfaced-counter"]).is_empty());
}

#[test]
fn atomic_ordering_fires_on_relaxed_handshake() {
    let diags = lint("atomic_bad.rs", &["atomic-ordering"]);
    assert!(
        diags.iter().any(|d| d.message.contains("ready")),
        "{diags:?}"
    );
}

#[test]
fn atomic_ordering_quiet_on_acq_rel_and_counters() {
    assert!(lint("atomic_ok.rs", &["atomic-ordering"]).is_empty());
}

#[test]
fn blocking_fires_direct_and_through_helper() {
    let diags = lint("blocking_bad.rs", &["blocking-in-dispatcher"]);
    assert!(
        diags.iter().any(|d| d.message.contains("handle_submit")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`settle`") && d.message.contains("handle_abort")),
        "{diags:?}"
    );
}

#[test]
fn blocking_quiet_on_loop_and_spawned_worker() {
    assert!(lint("blocking_ok.rs", &["blocking-in-dispatcher"]).is_empty());
}

/// Workspace mode scopes the dispatcher rule by directory: a file nested
/// under `crates/core/src/server/` is audited, the cluster client is not.
#[test]
fn the_dispatcher_rule_reaches_modules_under_the_server_dir_only() {
    let enabled: BTreeSet<String> = ["blocking-in-dispatcher".to_string()].into();
    let diags = run(&Mode::Workspace(fixture("nested_ws")), &enabled).expect("fixture tree");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].file.ends_with("server/deep/stall.rs"), "{diags:?}");
    assert!(diags[0].message.contains("handle_probe"), "{diags:?}");
}

/// An allow needs its reason: with one it suppresses the finding on the
/// next line, without one it is a plain comment and the finding stands.
#[test]
fn an_allow_suppresses_only_with_a_reason() {
    let diags = lint("allow_reason.rs", &["atomic-ordering"]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 20, "the reasonless one: {diags:?}");
}

/// Every negative fixture stays clean even with *all* rules enabled, so a
/// fixture exercising one rule never trips another by accident.
#[test]
fn ok_fixtures_clean_under_all_rules() {
    for f in ["counter_ok.rs", "atomic_ok.rs", "blocking_ok.rs"] {
        let diags = lint(f, ALL_RULES);
        assert!(diags.is_empty(), "{f} should be clean, got: {diags:?}");
    }
}

/// The binary exits non-zero (`--deny all`) on every positive fixture and
/// zero on a negative one.
#[test]
fn binary_exit_codes_match_fixture_polarity() {
    let deny_all = |f: &str| {
        Command::new(env!("CARGO_BIN_EXE_gt-lint"))
            .args(["--deny", "all"])
            .arg(fixture(f))
            .status()
            .expect("spawn gt-lint")
            .code()
    };
    for f in ["counter_bad.rs", "atomic_bad.rs", "blocking_bad.rs"] {
        assert_eq!(deny_all(f), Some(1), "{f} must fail --deny all");
    }
    assert_eq!(deny_all("atomic_ok.rs"), Some(0));
}

/// Golden test for the machine-readable output: its exact shape (field
/// order, one object per line, stable paths) is contract, not
/// implementation detail.
#[test]
fn json_output_matches_golden() {
    let json = |rule: &str, f: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_gt-lint"))
            .args(["--format", "json", "--rules", rule])
            .arg(fixture(f))
            .output()
            .expect("spawn gt-lint");
        String::from_utf8(out.stdout).expect("utf8")
    };
    let path = fixture("blocking_bad.rs");
    let path = path.to_string_lossy().replace('\\', "/");
    let golden = format!(
        "[\n  {{\"rule\":\"blocking-in-dispatcher\",\"file\":\"{path}\",\"line\":7,\
         \"message\":\"`handle_submit` calls blocking `sleep` on the dispatcher thread\",\
         \"hint\":\"move the blocking work to a worker thread or make it event-driven \
         (timers via the retransmit tick, waits via a message round-trip)\"}},\n  \
         {{\"rule\":\"blocking-in-dispatcher\",\"file\":\"{path}\",\"line\":12,\
         \"message\":\"`settle` (reachable from dispatcher root `handle_abort`) calls \
         blocking `recv_timeout` on the dispatcher thread\",\
         \"hint\":\"move the blocking work to a worker thread or make it event-driven \
         (timers via the retransmit tick, waits via a message round-trip)\"}}\n]\n",
    );
    assert_eq!(json("blocking-in-dispatcher", "blocking_bad.rs"), golden);

    // A clean run still emits a (valid, empty) JSON array.
    assert_eq!(json("atomic-ordering", "atomic_ok.rs"), "[\n]\n");
}

/// The CI gate in library form: the workspace itself ships lint-clean.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let enabled: BTreeSet<String> = ALL_RULES.iter().map(|s| s.to_string()).collect();
    let diags = run(&Mode::Workspace(root), &enabled).expect("workspace lint");
    assert!(diags.is_empty(), "workspace findings: {diags:#?}");
}
