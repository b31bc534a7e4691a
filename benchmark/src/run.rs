//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, and the traced pass that yields the per-layer ones.

use crate::harness::report::{Metrics, RunResult};
use crate::harness::scratch::{target_dir, Scratch};
use crate::harness::stats::{median_f64, ratio, Summary};
use crate::harness::trace::Tracer;
use crate::replay;
use crate::workload::{Across, Env, Load, Params, Spec, INGEST_ROWS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `p`-th percentile in microseconds. A percentile the samples cannot
/// support is an error, except in a smoke run.
fn pct_us(s: &Summary, p: f64, what: &str, params: &Params) -> Result<f64, String> {
    match s.percentile(p) {
        Ok(ns) => Ok(ns as f64 / 1e3),
        Err(_) if params.smoke.is_some() => Ok(s.percentile_thin(p) as f64 / 1e3),
        Err(e) => Err(format!("{what}: run too short, {e}")),
    }
}

/// Oracle checks on one load phase: (operations added, failures added).
fn check(env: &Env, load: &Load) -> (u64, u64) {
    let mismatched = env.verify(&load.kept);
    let (probes, bad_probes) = if env.spec.ingest_per_s.is_some() {
        env.verify_after_ingest(&load.acked)
    } else {
        (0, 0)
    };
    (probes, mismatched + bad_probes)
}

fn report_errors(spec: &Spec, load: &Load, failed: u64) {
    if failed > 0 {
        eprintln!(
            "{}: {failed} failed operations ({} errors; first: {})",
            spec.name,
            load.errors,
            load.first_error.as_deref().unwrap_or("oracle mismatch")
        );
    }
}

/// The timed phase cut into windows of `window` consecutive travels, in the
/// order they completed; what is left over joins the last window. For each
/// window: its latencies, and the seconds it spans. Cut by count, not by
/// time, so a window supports the same percentiles however slow the run.
fn windows(load: &Load, window: usize) -> Vec<(Summary, f64)> {
    let mut by_done: Vec<(u64, u64)> = load
        .done_ns
        .iter()
        .copied()
        .zip(load.lat_ns.iter().copied())
        .collect();
    by_done.sort_unstable();
    let n_windows = (by_done.len() / window).max(1);
    let mut start_ns = 0u64;
    (0..n_windows)
        .map(|w| {
            let lo = w * window;
            let hi = if w + 1 == n_windows {
                by_done.len()
            } else {
                lo + window
            };
            let end_ns = by_done[lo..hi].last().map_or(start_ns, |(done, _)| *done);
            let span_s = (end_ns - start_ns) as f64 / 1e9;
            start_ns = end_ns;
            let lat = by_done[lo..hi].iter().map(|(_, lat)| *lat).collect();
            (Summary::new(lat), span_s)
        })
        .collect()
}

/// The one value a metric reports from its per-window `values`; the windows
/// go to standard error, where a disturbed run can be told from a slow
/// program.
fn across(spec: &Spec, what: &str, values: &[f64], higher_is_better: bool) -> f64 {
    eprintln!("{} {what} by window: {values:.1?}", spec.name);
    match spec.across {
        Across::Median => median_f64(values),
        Across::Quietest if higher_is_better => values.iter().copied().fold(f64::MIN, f64::max),
        Across::Quietest => values.iter().copied().fold(f64::MAX, f64::min),
    }
}

/// The untraced pass: set up [`SETUPS`] times, measure on the last.
pub fn untraced(
    spec: &'static Spec,
    params: Params,
    seconds: f64,
    scratch: &Scratch,
) -> Result<RunResult, String> {
    let setups = if params.smoke.is_some() { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        if let Some(env) = last.take() {
            Env::teardown(env);
        }
        let (env, secs) = Env::setup(spec, params, scratch, false)?;
        setup_s.push(secs);
        last = Some(env);
    }
    let mut env = last.expect("at least one set-up ran");
    let load = env.load(seconds, None);
    let (probes, bad) = check(&env, &load);
    env.teardown();

    let mut m = Metrics::default();
    let n = load.lat_ns.len();
    // Half a second of smoke run is one window.
    let window = if params.smoke.is_some() {
        usize::MAX
    } else {
        spec.window
    };
    let windows = windows(&load, window);
    let rates: Vec<f64> = windows
        .iter()
        .map(|(s, span_s)| ratio(s.count() as f64, *span_s))
        .collect();
    let pct = |p: f64, what: &str| -> Result<f64, String> {
        let per_window: Result<Vec<f64>, String> = windows
            .iter()
            .map(|(s, _)| pct_us(s, p, what, &params))
            .collect();
        per_window.map(|v| across(spec, what, &v, false))
    };
    m.put_n(
        "travels_per_s",
        across(spec, "travels_per_s", &rates, true),
        n,
    );
    // A percentile is one window's: the count beside it is a window's too.
    let n_window = windows.iter().map(|(s, _)| s.count()).min().unwrap_or(0);
    m.put_n("lat_p50_us", pct(50.0, "lat_p50_us")?, n_window);
    m.put_n("lat_p90_us", pct(90.0, "lat_p90_us")?, n_window);
    m.put_n("setup_s", median_f64(&setup_s), setup_s.len());
    let failed = load.errors + bad;
    report_errors(spec, &load, failed);
    Ok(RunResult {
        attempted: load.attempted + probes,
        failed,
        metrics: m,
        traced: false,
    })
}

/// The traced pass: a quarter of the run untraced and a quarter with
/// caller-side spans (their throughput ratio is the tracing overhead), then
/// a layer-by-layer replay of sampled travels on harness-owned stores. The
/// trace is written to `<target>/bench-trace/<workload>.jsonl`.
pub fn traced(
    spec: &'static Spec,
    params: Params,
    seconds: f64,
    scratch: &Scratch,
) -> Result<RunResult, String> {
    let phase = seconds / 4.0;
    let tracer = Tracer::default();

    let (mut env, _) = Env::setup(spec, params, scratch, false)?;
    let plain = env.load(phase, None);
    let (probes_a, bad_a) = check(&env, &plain);
    env.teardown();

    let (mut env, _) = Env::setup(spec, params, scratch, true)?;
    let load = env.load(phase, Some(&tracer));
    let (probes_b, bad_b) = check(&env, &load);
    let engine_calls = env.timed.as_ref().map(|t| t.take_calls());
    let replayed = replay::run(&env, &load, engine_calls.as_deref(), scratch, &tracer);
    env.teardown();
    let replayed = replayed?;

    let path = target_dir()
        .join("bench-trace")
        .join(format!("{}.jsonl", spec.name));
    let n_spans = tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let travels = load.lat_ns.len() as f64;
    let c = &load.counters;
    let lat = Summary::new(load.lat_ns.clone());
    let acks = Summary::new(load.ack_ns.clone());
    let late = Summary::new(load.late_ns.clone());
    let visits = (c.real_io + c.combined + c.redundant) as f64;
    let reads = (c.warm + c.cold + c.seq) as f64;
    let rows = (load.acked.len() as u64 * 2 * INGEST_ROWS) as f64;
    let lat_p50_us = pct_us(&lat, 50.0, "traced lat_p50_us", &params)?;

    let mut m = replayed.metrics;
    m.put(
        "engine.real_io_per_travel",
        ratio(c.real_io as f64, travels),
    );
    m.put(
        "engine.combined_per_travel",
        ratio(c.combined as f64, travels),
    );
    m.put(
        "engine.redundant_per_travel",
        ratio(c.redundant as f64, travels),
    );
    m.put("engine.useful_visit_ratio", ratio(c.real_io as f64, visits));
    m.put(
        "engine.msgs_dispatched_per_travel",
        ratio(c.dispatched as f64, travels),
    );
    m.put("net.msgs_per_travel", ratio(c.net_msgs as f64, travels));
    m.put("net.bytes_per_travel", ratio(c.net_bytes as f64, travels));
    m.put("queue.wait_us_mean", load.queue_wait_ns_mean / 1e3);
    m.put("queue.peak_len", load.queue_peak as f64);
    m.put("kvstore.cold_per_travel", ratio(c.cold as f64, travels));
    m.put("kvstore.seq_per_travel", ratio(c.seq as f64, travels));
    m.put("kvstore.warm_per_travel", ratio(c.warm as f64, travels));
    m.put("kvstore.warm_hit_ratio", ratio(c.warm as f64, reads));
    m.put(
        "kvstore.bytes_read_per_travel",
        ratio(c.bytes_read as f64, travels),
    );
    m.put(
        "kvstore.bytes_written_per_row",
        ratio(c.bytes_written as f64, rows),
    );
    m.put("mvcc.views_pinned", c.views_pinned as f64);
    m.put(
        "mvcc.stale_seq_reads_per_travel",
        ratio(c.stale_seq_reads as f64, travels),
    );
    m.put_n("client.lat_p99_us", lat.us_or_zero(99.0), lat.count());
    m.put_n("client.lat_p999_us", lat.us_or_zero(99.9), lat.count());
    m.put_n("ingest.ack_p50_us", acks.us_or_zero(50.0), acks.count());
    m.put_n("ingest.ack_p99_us", acks.us_or_zero(99.0), acks.count());
    m.put(
        "ingest.acked_per_s",
        ratio(load.acked.len() as f64, load.elapsed_s),
    );
    m.put_n("loadgen.late_p99_us", late.us_or_zero(99.0), late.count());
    m.put(
        "trace.overhead_ratio",
        ratio(
            ratio(travels, load.elapsed_s),
            ratio(plain.lat_ns.len() as f64, plain.elapsed_s),
        ),
    );
    m.put("trace.spans", n_spans as f64);
    m.put(
        "budget.attributed_us_per_travel",
        replayed.attributed_us_per_travel,
    );
    m.put(
        "budget.attributed_ratio",
        ratio(replayed.attributed_us_per_travel, lat_p50_us),
    );

    let failed = plain.errors + load.errors + bad_a + bad_b;
    report_errors(spec, &load, failed);
    Ok(RunResult {
        attempted: plain.attempted + load.attempted + probes_a + probes_b,
        failed,
        metrics: m,
        traced: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cut_by_count_in_completion_order() {
        // Two callers' travels, concatenated caller by caller: done at
        // 1, 3, 5, 7 s and at 2, 4, 6 s; latency = 10 x done.
        let done_s = [1u64, 3, 5, 7, 2, 4, 6];
        let load = Load {
            done_ns: done_s.iter().map(|s| s * 1_000_000_000).collect(),
            lat_ns: done_s.iter().map(|s| s * 10).collect(),
            ..Load::default()
        };
        let w = windows(&load, 3);
        assert_eq!(w.len(), 2, "the seventh travel joins the last window");
        assert_eq!((w[0].0.count(), w[0].1), (3, 3.0));
        assert_eq!((w[1].0.count(), w[1].1), (4, 4.0));
        assert_eq!(w[0].0.percentile_thin(100.0), 30);
        assert_eq!(w[1].0.percentile_thin(1.0), 40);

        let whole = windows(&load, usize::MAX);
        assert_eq!((whole.len(), whole[0].0.count(), whole[0].1), (1, 7, 7.0));
        let none = windows(&Load::default(), 3);
        assert_eq!((none.len(), none[0].0.count(), none[0].1), (1, 0, 0.0));
    }
}
