//! Harness-side spans. Nothing here is called from inside the program:
//! spans are recorded around `Client::run` / `Cluster::submit` /
//! `Cluster::ingest`, inside [`super::backend::TimedBackend`], and around
//! the replay's direct calls into each layer's public functions. Each
//! thread fills its own [`SpanBuf`]; buffers merge into the [`Tracer`]
//! when dropped and the whole trace is written once, after the run.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one travel (or one ingest batch).
    pub trace_id: u64,
    /// Unique within the run.
    pub span_id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Module name of the layer the call went into.
    pub layer: &'static str,
    /// Function (or phase) timed.
    pub op: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Run-wide span collector.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh per-thread buffer.
    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            spans: Vec::new(),
            recording: true,
        }
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all = self.done.lock().expect("span sink poisoned").clone();
        all.sort_by_key(|s| (s.start_ns, s.span_id));
        all
    }

    /// Write the trace as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"trace_id\": {}, \"span_id\": {}, \"parent\": {}, \"layer\": \"{}\", \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.trace_id, s.span_id, s.parent, s.layer, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// One thread's spans; merged into the tracer on drop.
#[derive(Debug)]
pub struct SpanBuf<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
    /// Cleared by [`SpanBuf::pause`]: calls are still timed, not recorded.
    recording: bool,
}

impl SpanBuf<'_> {
    /// Spans held by this buffer.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Stop recording (timing continues): the replay keeps full spans for
    /// its first travels only, so the trace file stays readable.
    pub fn pause(&mut self) {
        self.recording = false;
    }

    /// Record a finished interval; returns its span id (usable as a parent).
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: u64,
        layer: &'static str,
        op: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span_id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        if self.recording {
            self.spans.push(Span {
                trace_id,
                span_id,
                parent,
                layer,
                op,
                start_ns: self.tracer.ns(start),
                end_ns: self.tracer.ns(end),
            });
        }
        span_id
    }

    /// Time `f` as a child of `parent`; returns its result and duration (ns).
    pub fn time<R>(
        &mut self,
        trace_id: u64,
        parent: u64,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.record(trace_id, parent, layer, op, start, end);
        (r, (end - start).as_nanos() as u64)
    }

    /// Reserve a span id for a parent whose interval is recorded after its
    /// children (see [`SpanBuf::record_as`]).
    pub fn reserve(&mut self) -> u64 {
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record an interval under an id from [`SpanBuf::reserve`].
    pub fn record_as(
        &mut self,
        span_id: u64,
        trace_id: u64,
        layer: &'static str,
        op: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.recording {
            return;
        }
        self.spans.push(Span {
            trace_id,
            span_id,
            parent: 0,
            layer,
            op,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Self time per layer: each span's duration minus the part its child
/// spans cover, summed by layer. Children are clipped to the parent and
/// overlapping children are merged before subtracting.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, u64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.span_id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *by_layer.entry(s.layer).or_default() += s.dur_ns().saturating_sub(covered);
    }
    by_layer.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent,
            layer,
            op: "t",
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span(1, 0, "client", 0, 100),
            span(2, 1, "engine", 10, 60),
            // Overlaps the first child and sticks out of the parent.
            span(3, 1, "engine", 50, 120),
            span(4, 2, "kvstore", 20, 30),
        ];
        let t: std::collections::BTreeMap<_, _> = self_time_by_layer(&spans).into_iter().collect();
        // Parent 0..100, children cover 10..100 → 10 self.
        assert_eq!(t["client"], 10);
        // engine: (50 - 10 covered) + 70.
        assert_eq!(t["engine"], 40 + 70);
        assert_eq!(t["kvstore"], 10);
    }

    #[test]
    fn buffers_merge_on_drop_and_write_jsonl() {
        let tracer = Tracer::default();
        {
            let mut buf = tracer.buf();
            let root = buf.reserve();
            let t0 = Instant::now();
            let (v, _) = buf.time(7, root, "graph", "get_vertex", || 41 + 1);
            assert_eq!(v, 42);
            buf.record_as(root, 7, "replay", "travel", t0, Instant::now());
            assert!(tracer.spans().is_empty(), "not merged before drop");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.parent != 0 && s.layer == "graph"));
        let dir =
            std::env::temp_dir().join(format!("gt-benchmark-trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(tracer.write_jsonl(&path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"layer\": \"graph\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
