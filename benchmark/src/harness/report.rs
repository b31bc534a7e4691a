//! The metric tables — the one place a metric's name, unit, direction and
//! bound are written down — and the hand-rendered strict JSON built from
//! them (`BENCHMARK.json`, and the result line each run prints last).

use crate::workload;
use std::fmt::Write as _;

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 25;

/// An end-to-end metric: what a user of the system feels.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Measured with tracing off, on every workload.
///
/// Every bound sits at the schema's cap of 0.25. Pinned to one CPU and read
/// from quiet windows (`harness::affinity`, `workload::Across`), ten-seed
/// spreads on the reference box (2 vCPUs of a shared host) run from 1 % to
/// 10 %; what is left is the host's second gear when it lasts for whole
/// runs, and a bound below that rejects unchanged code. Tighten them on a
/// quieter box.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "travels_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Per-layer metrics (name, unit, better), grouped by the module they
/// measure. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    // engine — counters from `Cluster::metrics`, divided by travels.
    ("engine.real_io_per_travel", "count", "lower"),
    ("engine.combined_per_travel", "count", "higher"),
    ("engine.redundant_per_travel", "count", "lower"),
    ("engine.useful_visit_ratio", "ratio", "higher"),
    ("engine.msgs_dispatched_per_travel", "count", "lower"),
    ("engine.submit_us_p50", "us", "lower"),
    // net / transport — `Cluster::net_stats`, and bare carrier round trips.
    ("net.msgs_per_travel", "count", "lower"),
    ("net.bytes_per_travel", "bytes", "lower"),
    ("net.fabric_hop_us_p50", "us", "lower"),
    ("transport.uds_rtt_us_p50", "us", "lower"),
    ("transport.tcp_rtt_us_p50", "us", "lower"),
    // queue — `all_travel_metrics`, and a push/pop replay.
    ("queue.wait_us_mean", "us", "lower"),
    ("queue.peak_len", "count", "lower"),
    ("queue.push_pop_ns_per_item", "ns", "lower"),
    // cache — observe() replay.
    ("cache.observe_ns_per_visit", "ns", "lower"),
    // kvstore — `Cluster::io_stats`, and a replay on harness-owned stores.
    ("kvstore.cold_per_travel", "count", "lower"),
    ("kvstore.seq_per_travel", "count", "lower"),
    ("kvstore.warm_per_travel", "count", "lower"),
    ("kvstore.warm_hit_ratio", "ratio", "higher"),
    ("kvstore.bytes_read_per_travel", "bytes", "lower"),
    ("kvstore.bytes_written_per_row", "bytes", "lower"),
    ("kvstore.get_us_p50", "us", "lower"),
    ("kvstore.scan_us_per_key", "us", "lower"),
    ("kvstore.get_at_us_p50", "us", "lower"),
    ("kvstore.scan_at_us_per_key", "us", "lower"),
    ("kvstore.put_batch_us_per_row", "us", "lower"),
    ("kvstore.flush_ms", "ms", "lower"),
    // mvcc — `Cluster::metrics` snapshot counters.
    ("mvcc.views_pinned", "count", "higher"),
    ("mvcc.stale_seq_reads_per_travel", "count", "lower"),
    // graph — replay of the travel's vertex reads and edge scans.
    ("graph.get_vertex_us_p50", "us", "lower"),
    ("graph.edges_out_us_per_edge", "us", "lower"),
    ("graph.decode_self_us_per_travel", "us", "lower"),
    // wirecodec — the travel's real per-destination `Msg::Visit` payloads.
    ("wirecodec.encode_ns_per_msg", "ns", "lower"),
    ("wirecodec.decode_ns_per_msg", "ns", "lower"),
    ("wirecodec.bytes_per_visit_msg", "bytes", "lower"),
    // door — proto, parse, and the front door's own share of a request.
    ("proto.codec_ns_per_req", "ns", "lower"),
    ("proto.reply_bytes", "bytes", "lower"),
    ("parse.parse_compile_us_per_req", "us", "lower"),
    ("frontdoor.overhead_us_p50", "us", "lower"),
    ("client.lat_p99_us", "us", "lower"),
    ("client.lat_p999_us", "us", "lower"),
    // ingest — open-loop acks, timed from each batch's due time.
    ("ingest.ack_p50_us", "us", "lower"),
    ("ingest.ack_p99_us", "us", "lower"),
    ("ingest.acked_per_s", "1/s", "higher"),
    // validity of the measurement itself.
    ("loadgen.late_p99_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("budget.attributed_ratio", "ratio", "higher"),
    ("budget.attributed_us_per_travel", "us", "lower"),
    ("replay.travels", "count", "higher"),
];

/// The program and arguments `BENCHMARK.json` names.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "gt-benchmark",
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, rendered from the tables above; `--print-benchmark-json`
/// prints it and the smoke test holds the committed file to it.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let cmd: Vec<String> = COMMAND
        .iter()
        .copied()
        .chain(std::iter::once("--"))
        .map(json_str)
        .collect();
    let _ = writeln!(s, "  \"command\": [{}],", cmd.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, w) in workload::ALL.iter().enumerate() {
        let comma = if i + 1 < workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"end_to_end\": [");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"per_layer\": [");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(name),
            json_str(unit),
            json_str(better)
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// One measured value, with the sample count behind it when it is a
/// percentile or a mean of samples.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: Option<usize>,
}

/// The metrics of one run, in table order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<Value>,
}

impl Metrics {
    /// Record a metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.push(Value {
            name,
            value,
            samples: None,
        });
    }

    /// Record a metric that summarizes `samples` samples.
    pub fn put_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push(Value {
            name,
            value,
            samples: Some(samples),
        });
    }

    /// Look a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// Check that exactly the metrics of `table` are present, each once and
    /// finite, and return them in table order with their units.
    pub fn in_table_order(
        &self,
        table: impl Iterator<Item = (&'static str, &'static str)>,
    ) -> Result<Vec<(&Value, &'static str)>, String> {
        let mut out = Vec::new();
        for (name, unit) in table {
            let mut hits = self.values.iter().filter(|v| v.name == name);
            let v = hits
                .next()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if hits.next().is_some() {
                return Err(format!("metric {name} was measured twice"));
            }
            if !v.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            out.push((v, unit));
        }
        if out.len() != self.values.len() {
            let extra = self
                .values
                .iter()
                .find(|v| !out.iter().any(|(o, _)| o.name == v.name))
                .map_or("?", |v| v.name);
            return Err(format!("metric {extra} is not in the table"));
        }
        Ok(out)
    }
}

/// Outcome of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Errors, timeouts and oracle mismatches.
    pub failed: u64,
    /// The metrics (`end_to_end` when untraced, `per_layer` when traced).
    pub metrics: Metrics,
    /// Whether this was the traced pass.
    pub traced: bool,
}

impl RunResult {
    /// The (name, unit) table this run must fill.
    fn table(&self) -> Box<dyn Iterator<Item = (&'static str, &'static str)>> {
        if self.traced {
            Box::new(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        } else {
            Box::new(END_TO_END.iter().map(|m| (m.name, m.unit)))
        }
    }

    /// `workload metric value unit` lines, one per metric, plus the failure
    /// ratio; percentiles carry their sample count.
    pub fn human(&self, workload: &str) -> Result<String, String> {
        let mut s = String::new();
        for (v, unit) in self.metrics.in_table_order(self.table())? {
            let n = v.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
            let _ = writeln!(s, "{workload} {} {} {unit}{n}", v.name, v.value);
        }
        if !self.traced {
            let ratio = self.failed as f64 / self.attempted.max(1) as f64;
            let _ = writeln!(
                s,
                "{workload} failed_ratio {ratio} ratio ({} of {})",
                self.failed, self.attempted
            );
        }
        Ok(s)
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (v, unit)) in self
            .metrics
            .in_table_order(self.table())?
            .iter()
            .enumerate()
        {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(v.name),
                v.value,
                json_str(unit)
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        names.extend(workload::ALL.iter().map(|w| w.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {n}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(workload::ALL
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn result_line_holds_exactly_the_table() {
        let mut m = Metrics::default();
        for e in &END_TO_END {
            m.put_n(e.name, 1.5, 30);
        }
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: m,
            traced: false,
        };
        let line = r.json_line().unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(r.human("w").unwrap().lines().count(), END_TO_END.len() + 1);

        let mut missing = Metrics::default();
        missing.put("travels_per_s", 1.0);
        assert!(missing
            .in_table_order(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .is_err());
        let mut nan = Metrics::default();
        for e in &END_TO_END {
            nan.put(e.name, f64::NAN);
        }
        assert!(nan
            .in_table_order(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .is_err());
    }
}
