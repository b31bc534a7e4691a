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

fn rules_hit(file: &str, rules: &[&str]) -> BTreeSet<&'static str> {
    lint(file, rules).into_iter().map(|d| d.rule).collect()
}

#[test]
fn lock_cycle_fires_on_ab_ba() {
    assert!(rules_hit("lock_cycle_bad.rs", &["lock-cycle"]).contains("lock-cycle"));
}

#[test]
fn lock_cycle_quiet_on_consistent_order() {
    assert!(lint("lock_cycle_ok.rs", &["lock-cycle"]).is_empty());
}

#[test]
fn guard_across_channel_fires_on_live_guard() {
    assert!(rules_hit("guard_channel_bad.rs", &["guard-across-channel"])
        .contains("guard-across-channel"));
}

#[test]
fn guard_across_channel_quiet_after_drop() {
    assert!(lint("guard_channel_ok.rs", &["guard-across-channel"]).is_empty());
}

#[test]
fn wildcard_arm_fires_on_silent_catch_all() {
    assert!(rules_hit("wildcard_bad.rs", &["wildcard-arm"]).contains("wildcard-arm"));
}

#[test]
fn wildcard_arm_quiet_on_forwarding_catch_all() {
    assert!(lint("wildcard_ok.rs", &["wildcard-arm"]).is_empty());
}

#[test]
fn unhandled_variant_fires_on_missing_arm() {
    let diags = lint("missing_variant_bad.rs", &["unhandled-variant"]);
    assert_eq!(
        diags.len(),
        1,
        "exactly Msg::Gone should be flagged: {diags:?}"
    );
    assert!(diags[0].message.contains("Msg::Gone"));
}

#[test]
fn unhandled_variant_quiet_when_all_named() {
    assert!(lint("variant_ok.rs", &["unhandled-variant"]).is_empty());
}

#[test]
fn epoch_fence_fires_on_unfenced_mutation() {
    assert!(rules_hit("fence_bad.rs", &["epoch-fence"]).contains("epoch-fence"));
}

#[test]
fn epoch_fence_quiet_when_fence_consulted_first() {
    assert!(lint("fence_ok.rs", &["epoch-fence"]).is_empty());
}

/// Workspace mode scopes the server rules by directory: a file nested
/// under `crates/core/src/server/` is audited, and stepping a machine
/// (`on_*`) unfenced is the mutation the rule looks for there.
#[test]
fn server_scoped_rules_reach_modules_under_the_server_dir() {
    let enabled: BTreeSet<String> = ["epoch-fence".to_string()].into();
    let diags = run(&Mode::Workspace(fixture("nested_ws")), &enabled).expect("fixture tree");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].file.ends_with("server/sync_glue.rs"), "{diags:?}");
    assert!(diags[0].message.contains("on_frontier"), "{diags:?}");
}

/// The cluster client is scoped the same way, and `guard-across-send`
/// exempts none of it: a file nested under `crates/core/src/cluster/`
/// that sends under the travel table's guard, or unwraps, is flagged.
#[test]
fn cluster_scoped_rules_reach_modules_under_the_cluster_dir() {
    let enabled: BTreeSet<String> = ["guard-across-send", "guard-across-channel", "panic"]
        .map(String::from)
        .into();
    let diags = run(&Mode::Workspace(fixture("nested_ws")), &enabled).expect("fixture tree");
    let rules: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
    let want = ["guard-across-channel", "guard-across-send", "panic"];
    assert_eq!(rules, want.into(), "{diags:?}");
    for d in &diags {
        assert!(d.file.ends_with("cluster/held_send.rs"), "{diags:?}");
    }
}

#[test]
fn panic_fires_on_unwrap_and_panic_macro() {
    let diags = lint("panic_bad.rs", &["panic"]);
    assert!(
        diags.len() >= 2,
        "unwrap and panic! both flagged: {diags:?}"
    );
}

#[test]
fn panic_quiet_on_typed_errors_and_allow_comment() {
    assert!(lint("panic_ok.rs", &["panic"]).is_empty());
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
fn protocol_conformance_fires_on_all_three_shapes() {
    let diags = lint("protocol_bad.rs", &["protocol-conformance"]);
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("Orphan") && m.contains("no dispatch arm")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("no ack path") && m.contains("Reply")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("retry/timeout")), "{msgs:?}");
    assert!(
        msgs.iter()
            .any(|m| m.contains("Dead") && m.contains("dead protocol")),
        "{msgs:?}"
    );
}

#[test]
fn protocol_conformance_quiet_on_covered_pair() {
    assert!(lint("protocol_ok.rs", &["protocol-conformance"]).is_empty());
}

#[test]
fn guard_send_fires_interprocedurally() {
    let diags = lint("guard_send_bad.rs", &["guard-across-send"]);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "guard-across-send" && d.message.contains("journal")),
        "{diags:?}"
    );
}

#[test]
fn guard_send_quiet_when_guard_dropped_before_send() {
    assert!(lint("guard_send_ok.rs", &["guard-across-send"]).is_empty());
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

#[test]
fn bare_allow_fires_on_reasonless_escape_hatch() {
    let diags = lint("bare_allow_bad.rs", &["bare-allow", "panic"]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "bare-allow");
}

/// Every negative fixture stays clean even with *all* rules enabled, so a
/// fixture exercising one rule never trips another by accident.
#[test]
fn ok_fixtures_clean_under_all_rules() {
    for f in [
        "lock_cycle_ok.rs",
        "guard_channel_ok.rs",
        "wildcard_ok.rs",
        "variant_ok.rs",
        "fence_ok.rs",
        "panic_ok.rs",
        "counter_ok.rs",
        "protocol_ok.rs",
        "guard_send_ok.rs",
        "atomic_ok.rs",
        "blocking_ok.rs",
    ] {
        let diags = lint(f, ALL_RULES);
        assert!(diags.is_empty(), "{f} should be clean, got: {diags:?}");
    }
}

/// The binary exits non-zero (`--deny all`) on every positive fixture and
/// zero on every negative one.
#[test]
fn binary_exit_codes_match_fixture_polarity() {
    let bad = [
        "lock_cycle_bad.rs",
        "guard_channel_bad.rs",
        "wildcard_bad.rs",
        "missing_variant_bad.rs",
        "fence_bad.rs",
        "panic_bad.rs",
        "counter_bad.rs",
        "protocol_bad.rs",
        "guard_send_bad.rs",
        "atomic_bad.rs",
        "blocking_bad.rs",
        "bare_allow_bad.rs",
    ];
    for f in bad {
        let st = Command::new(env!("CARGO_BIN_EXE_gt-lint"))
            .args(["--deny", "all"])
            .arg(fixture(f))
            .status()
            .expect("spawn gt-lint");
        assert_eq!(st.code(), Some(1), "{f} must fail --deny all");
    }
    let st = Command::new(env!("CARGO_BIN_EXE_gt-lint"))
        .args(["--deny", "all"])
        .arg(fixture("panic_ok.rs"))
        .status()
        .expect("spawn gt-lint");
    assert_eq!(st.code(), Some(0), "panic_ok.rs must pass --deny all");
}

/// Golden test for the machine-readable output: CI consumes `--format
/// json`, so its exact shape (field order, one object per line, stable
/// paths) is contract, not implementation detail.
#[test]
fn json_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_gt-lint"))
        .args(["--format", "json", "--rules", "bare-allow"])
        .arg(fixture("bare_allow_bad.rs"))
        .output()
        .expect("spawn gt-lint");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let path = fixture("bare_allow_bad.rs");
    let path = path.to_string_lossy().replace('\\', "/");
    let golden = format!(
        "[\n  {{\"rule\":\"bare-allow\",\"file\":\"{path}\",\"line\":8,\
         \"message\":\"`allow(panic)` has no reason string\",\
         \"hint\":\"every escape hatch must say why it is safe: \
         `// gt-lint: allow(rule, \\\"reason\\\")`\"}}\n]\n",
    );
    assert_eq!(stdout, golden);

    // A clean run still emits a (valid, empty) JSON array.
    let out = Command::new(env!("CARGO_BIN_EXE_gt-lint"))
        .args(["--format", "json", "--rules", "panic"])
        .arg(fixture("panic_ok.rs"))
        .output()
        .expect("spawn gt-lint");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "[\n]\n");
}

/// Regression gate for the global `OrderedMutex` rank table: every ranked
/// lock in the workspace keeps a unique name and a unique rank, so a new
/// lock can't silently shadow an existing rank (the runtime checker only
/// catches *orders actually exercised*; this covers the table itself).
#[test]
fn rank_table_has_unique_names_and_ranks() {
    use gt_lint::ir::ranked_locks;
    use gt_lint::parser::SourceFile;
    use std::collections::BTreeMap;

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let mut files = Vec::new();
    let mut dirs = vec![root];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read core/src") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(SourceFile::read(&path).expect("parse"));
            }
        }
    }
    let refs: Vec<&SourceFile> = files.iter().collect();
    let locks = ranked_locks(&refs);
    // 8 in the server shell, 3 in the cluster: the travel table and the
    // two per-slot locks.
    assert!(
        locks.len() >= 11,
        "rank table shrank? found {} ranked locks",
        locks.len()
    );
    let mut by_name: BTreeMap<&str, &str> = BTreeMap::new();
    let mut by_rank: BTreeMap<u64, &str> = BTreeMap::new();
    for l in &locks {
        let file = l.file.file_name().unwrap().to_str().unwrap();
        if let Some(prev) = by_name.insert(&l.name, file) {
            panic!("duplicate lock name `{}` in {prev} and {file}", l.name);
        }
        if let Some(prev) = by_rank.insert(l.rank, &l.name) {
            panic!(
                "rank {} assigned to both `{prev}` and `{}` — ranks are a \
                 single global order, pick an unused one",
                l.rank, l.name
            );
        }
    }
}

/// The CI gate in library form: the workspace itself ships lint-clean.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let enabled: BTreeSet<String> = ALL_RULES.iter().map(|s| s.to_string()).collect();
    let diags = run(&Mode::Workspace(root), &enabled).expect("workspace lint");
    assert!(diags.is_empty(), "workspace findings: {diags:#?}");
}
