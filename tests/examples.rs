//! The programs under `examples/` are run, not just compiled: `cargo test`
//! builds each next to this test's executable, and every one must finish
//! with exit status 0 on a closed stdin.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const EXAMPLES: [&str; 8] = [
    "chaos_drill",
    "data_auditing",
    "gtravel_shell",
    "live_ingest",
    "multi_tenant",
    "provenance",
    "quickstart",
    "straggler_storm",
];

/// `target/<profile>/examples/`, from `target/<profile>/deps/<this test>`.
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe.ancestors().nth(2).expect("target/<profile>/deps/<exe>");
    profile_dir.join("examples")
}

#[test]
fn every_example_exits_zero() {
    let on_disk = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples"))
        .expect("examples/")
        .count();
    assert_eq!(on_disk, EXAMPLES.len(), "list a new example here");
    // One at a time: each boots a cluster of its own.
    for name in EXAMPLES {
        let bin = examples_dir().join(name);
        assert!(
            bin.exists(),
            "{} is not built: a plain `cargo test` builds the examples, `--test examples` alone does not",
            bin.display()
        );
        let started = Instant::now();
        let out = Command::new(&bin)
            .stdin(Stdio::null())
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited with {}\n--- stdout\n{}\n--- stderr\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        println!("{name}: ok in {:.1?}", started.elapsed());
    }
}
