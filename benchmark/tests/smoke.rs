//! Half-second smoke run of every workload at R-MAT scale 9, untraced and
//! traced: the result line must hold exactly the metrics `BENCHMARK.json`
//! names, each once, finite and well-formed — and `BENCHMARK.json` itself
//! must be what the metric tables in the code render. Keeps the JSON and the
//! code from drifting apart.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_gt-benchmark");

fn committed_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json at the repo root")
}

/// Values of every `"name": "<x>"` between `"<section>": [` and the closing `]`.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

/// (name, value, unit) triples of a result line's `metrics` object.
fn metrics_of(line: &str) -> Vec<(String, f64, String)> {
    let body = line
        .split_once("\"metrics\": {")
        .expect("result line has a metrics object")
        .1;
    body.split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').next().expect("metric name").to_string();
            let (value, rest) = w[1]
                .split_once(", \"unit\": \"")
                .expect("unit follows value");
            let unit = rest[..rest.find('"').expect("unit closes")].to_string();
            (name, value.parse().expect("numeric value"), unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace, "--smoke", "9"])
        .output()
        .expect("spawn gt-benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    let json = committed_json();
    assert!(names_in(&json, "workloads").iter().any(|w| w == workload));
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
        let got = metrics_of(&line);
        let want = names_in(&json, section);
        let got_names: Vec<&str> = got.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            got_names, want,
            "{workload} --trace {trace}: names and order"
        );
        for (name, value, unit) in &got {
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?}"
            );
            assert!(!unit.is_empty(), "{name} has no unit");
        }
        if trace == "0" {
            for (name, value, _) in &got {
                assert!(*value > 0.0, "end-to-end metric {name} must never be 0");
            }
        }
    }
}

#[test]
fn door_point_emits_every_metric_once() {
    check("door_point");
}

#[test]
fn fanout_uds_emits_every_metric_once() {
    check("fanout_uds");
}

#[test]
fn deep_cold_emits_every_metric_once() {
    check("deep_cold");
}

#[test]
fn ingest_mix_emits_every_metric_once() {
    check("ingest_mix");
}

#[test]
fn layer_isolation_shows_in_the_numbers() {
    let of = |workload: &str, metric: &str| -> f64 {
        metrics_of(&run(workload, "1"))
            .into_iter()
            .find(|(n, _, _)| n == metric)
            .map(|(_, v, _)| v)
            .unwrap_or_else(|| panic!("{metric} missing"))
    };
    assert_eq!(of("fanout_uds", "kvstore.cold_per_travel"), 0.0);
    assert!(of("deep_cold", "kvstore.cold_per_travel") > 0.0);
    assert!(of("door_point", "frontdoor.overhead_us_p50") > 0.0);
    assert_eq!(of("fanout_uds", "frontdoor.overhead_us_p50"), 0.0);
    assert!(of("ingest_mix", "mvcc.views_pinned") > 0.0);
    assert_eq!(of("door_point", "mvcc.views_pinned"), 0.0);
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let out = Command::new(BIN)
        .arg("--print-benchmark-json")
        .output()
        .expect("spawn gt-benchmark");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 output"),
        committed_json(),
        "BENCHMARK.json drifted from the metric tables; regenerate it with --print-benchmark-json"
    );
}
