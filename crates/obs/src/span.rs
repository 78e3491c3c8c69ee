//! Spans, the tracer that mints them, and the shared overhead counters.

use crate::json::push_json_str;
use crate::sink::SpanSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Text.
    Str(String),
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Int(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// One key/value attribute on a span.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute name (static so recording never allocates for keys).
    pub key: &'static str,
    /// Attribute value.
    pub value: AttrValue,
}

/// A finished span, as delivered to a [`SpanSink`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the tracer).
    pub span_id: u64,
    /// Parent span id; `None` for a trace root.
    pub parent_id: Option<u64>,
    /// Span name (a pipeline stage or operator label).
    pub name: &'static str,
    /// Start offset in microseconds since the tracer's epoch (monotonic).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Whether the span recorded an error (failed stage, shed, deadline).
    pub error: bool,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<Attr>,
}

impl SpanRecord {
    /// Looks up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|a| a.key == key).map(|a| &a.value)
    }

    /// Renders the record as one JSON object (the JSONL line format).
    ///
    /// Compact, one record per line (the pretty [`crate::json::ToJson`]
    /// writer is for files read by people); the format is fixed:
    /// `trace_id`, `span_id`, `parent_id` (number or null), `name`,
    /// `start_us`, `dur_us`, `error`, and `attrs` as a flat object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"trace_id\":");
        out.push_str(&self.trace_id.to_string());
        out.push_str(",\"span_id\":");
        out.push_str(&self.span_id.to_string());
        out.push_str(",\"parent_id\":");
        match self.parent_id {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        push_json_str(&mut out, self.name);
        out.push_str(",\"start_us\":");
        out.push_str(&self.start_us.to_string());
        out.push_str(",\"dur_us\":");
        out.push_str(&self.dur_us.to_string());
        out.push_str(",\"error\":");
        out.push_str(if self.error { "true" } else { "false" });
        out.push_str(",\"attrs\":{");
        for (i, attr) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, attr.key);
            out.push(':');
            match &attr.value {
                AttrValue::Str(s) => push_json_str(&mut out, s),
                AttrValue::Int(v) => out.push_str(&v.to_string()),
                AttrValue::Float(v) => {
                    if v.is_finite() {
                        out.push_str(&v.to_string());
                    } else {
                        out.push_str("null");
                    }
                }
                AttrValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out.push_str("}}");
        out
    }
}

/// Overhead counters shared by a tracer and its sink chain. All relaxed
/// atomics; exact at quiescence. With tracing disabled nothing increments
/// them — the CI gate asserts they read zero on an untraced run.
#[derive(Debug, Default)]
pub struct ObsCounters {
    /// Spans finished (handed to the sink chain).
    pub spans_finished: AtomicU64,
    /// Span records delivered to a terminal sink (memory ring / JSONL).
    pub spans_emitted: AtomicU64,
    /// Span records discarded (unsampled trace, or ring-buffer overwrite).
    pub spans_dropped: AtomicU64,
    /// Traces kept by the sampler.
    pub traces_sampled: AtomicU64,
    /// Traces discarded by the sampler.
    pub traces_discarded: AtomicU64,
    /// Span-ring slots overwritten before being read (bounded
    /// [`MemorySink`](crate::sink::MemorySink) evictions; a subset of
    /// `spans_dropped`).
    pub span_ring_overwrites: AtomicU64,
    /// Request-summary-ring slots overwritten before being read (the
    /// serving tier's debug request log evicting its oldest entry).
    pub request_ring_overwrites: AtomicU64,
}

/// Serializable point-in-time view of [`ObsCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsCountersSnapshot {
    /// Spans finished.
    pub spans_finished: u64,
    /// Spans delivered to a terminal sink.
    pub spans_emitted: u64,
    /// Spans discarded.
    pub spans_dropped: u64,
    /// Traces kept by the sampler.
    pub traces_sampled: u64,
    /// Traces discarded by the sampler.
    pub traces_discarded: u64,
    /// Span-ring slots overwritten before being read.
    pub span_ring_overwrites: u64,
    /// Request-summary-ring slots overwritten before being read.
    pub request_ring_overwrites: u64,
}

impl ObsCounters {
    /// A serializable snapshot.
    pub fn snapshot(&self) -> ObsCountersSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ObsCountersSnapshot {
            spans_finished: load(&self.spans_finished),
            spans_emitted: load(&self.spans_emitted),
            spans_dropped: load(&self.spans_dropped),
            traces_sampled: load(&self.traces_sampled),
            traces_discarded: load(&self.traces_discarded),
            span_ring_overwrites: load(&self.span_ring_overwrites),
            request_ring_overwrites: load(&self.request_ring_overwrites),
        }
    }
}

/// State shared by a tracer and every span it mints.
struct TracerShared {
    epoch: Instant,
    sink: Arc<dyn SpanSink>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    counters: Arc<ObsCounters>,
}

/// Mints root spans. Cheap to share (`Arc` it once); thread-safe — workers
/// open roots and children concurrently, ids are atomic allocations.
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl Tracer {
    /// A tracer delivering finished spans to `sink`, counting into
    /// `counters` (pass the same handle given to the sinks so one snapshot
    /// covers the whole chain).
    pub fn new(sink: Arc<dyn SpanSink>, counters: Arc<ObsCounters>) -> Self {
        Tracer {
            shared: Arc::new(TracerShared {
                epoch: Instant::now(),
                sink,
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                counters,
            }),
        }
    }

    /// Opens a new trace with a root span named `name`.
    pub fn root(&self, name: &'static str) -> Span {
        let trace_id = self.shared.next_trace.fetch_add(1, Ordering::Relaxed);
        Span::open(
            Arc::clone(&self.shared),
            trace_id,
            None,
            name,
            Instant::now(),
        )
    }

    /// Opens a root span under a caller-supplied trace id — wire trace
    /// propagation: the id parsed from an inbound `traceparent` header
    /// becomes this process's trace id, so client, front door, and engine
    /// spans stitch into one trace.
    pub fn root_for_trace(&self, name: &'static str, trace_id: u64) -> Span {
        Span::open(
            Arc::clone(&self.shared),
            trace_id,
            None,
            name,
            Instant::now(),
        )
    }

    /// The shared overhead counters.
    pub fn counters(&self) -> &Arc<ObsCounters> {
        &self.shared.counters
    }
}

/// One span of work. Created from a [`Tracer`] (roots) or a parent span
/// ([`Span::child`]); finished explicitly with [`Span::finish`] or
/// implicitly on drop — a panic or early return can never lose a span.
pub struct Span {
    shared: Arc<TracerShared>,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'static str,
    start: Instant,
    start_us: u64,
    attrs: Vec<Attr>,
    error: bool,
    finished: bool,
}

impl Span {
    fn open(
        shared: Arc<TracerShared>,
        trace_id: u64,
        parent_id: Option<u64>,
        name: &'static str,
        start: Instant,
    ) -> Span {
        let span_id = shared.next_span.fetch_add(1, Ordering::Relaxed);
        let start_us = start.duration_since(shared.epoch).as_micros() as u64;
        Span {
            shared,
            trace_id,
            span_id,
            parent_id,
            name,
            start,
            start_us,
            attrs: Vec::new(),
            error: false,
            finished: false,
        }
    }

    /// Opens a child span. Children may be created from any thread holding
    /// a reference to the parent; they finish independently.
    pub fn child(&self, name: &'static str) -> Span {
        self.child_from(name, Instant::now())
    }

    /// Opens a child span whose clock started at `start`: for work timed
    /// before it was known to need a span (say, pulling an item from a
    /// stream that may turn out empty).
    pub fn child_from(&self, name: &'static str, start: Instant) -> Span {
        Span::open(
            Arc::clone(&self.shared),
            self.trace_id,
            Some(self.span_id),
            name,
            start,
        )
    }

    /// Sets (appends) a typed attribute.
    pub fn set(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push(Attr {
            key,
            value: value.into(),
        });
    }

    /// Marks the span as errored (failed stage, shed, deadline abort).
    /// Error roots are always kept by the sampler.
    pub fn set_error(&mut self) {
        self.error = true;
    }

    /// This span's trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// This span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Elapsed time since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Finishes the span now, delivering it to the sink. Dropping without
    /// calling this finishes it too; `finish` just makes the point explicit
    /// at call sites.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let record = SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_us: self.start_us,
            dur_us: self.start.elapsed().as_micros() as u64,
            error: self.error,
            attrs: std::mem::take(&mut self.attrs),
        };
        self.shared
            .counters
            .spans_finished
            .fetch_add(1, Ordering::Relaxed);
        self.shared.sink.record(record);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // A span dropped mid-unwind never reached its normal finish path;
        // mark it errored so the sampler keeps the trace that explains the
        // panic.
        if !self.finished && std::thread::panicking() {
            self.error = true;
        }
        self.finish_inner();
    }
}

/// A clonable, thread-safe handle to a span whose owner and finisher live
/// on different threads — the cross-thread sibling of [`SpanCtx`].
///
/// The serving front door needs this shape: a connection thread opens a
/// `net` root span, hands it to an engine worker (which opens the `serve`
/// child under it), and only finishes the root once the response is on the
/// wire. Every operation locks briefly; after [`SharedSpan::finish`] (or
/// the last clone dropping) further calls are no-ops, so a worker holding
/// a stale handle can never resurrect a finished span.
#[derive(Clone)]
pub struct SharedSpan {
    inner: Arc<Mutex<Option<Span>>>,
}

impl SharedSpan {
    /// Wraps an open span for cross-thread sharing.
    pub fn new(span: Span) -> Self {
        SharedSpan {
            inner: Arc::new(Mutex::new(Some(span))),
        }
    }

    /// Opens a child of the shared span, or `None` if it already finished.
    pub fn child(&self, name: &'static str) -> Option<Span> {
        self.lock().as_ref().map(|s| s.child(name))
    }

    /// The trace id, or `None` if the span already finished.
    pub fn trace_id(&self) -> Option<u64> {
        self.lock().as_ref().map(|s| s.trace_id())
    }

    /// Appends a typed attribute (no-op after finish).
    pub fn set(&self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(s) = self.lock().as_mut() {
            s.set(key, value);
        }
    }

    /// Marks the span errored (no-op after finish).
    pub fn set_error(&self) {
        if let Some(s) = self.lock().as_mut() {
            s.set_error();
        }
    }

    /// Finishes the span now, across every clone of the handle.
    pub fn finish(&self) {
        if let Some(s) = self.lock().take() {
            s.finish();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Span>> {
        // Recover from poisoning: spans finish inside drop guards where a
        // second panic would abort.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A `Copy` tracing context threaded through the pipeline. Empty when
/// tracing is off — every operation is then a no-op branch, so untraced
/// requests pay nothing.
#[derive(Clone, Copy, Default)]
pub struct SpanCtx<'a> {
    span: Option<&'a Span>,
}

impl<'a> SpanCtx<'a> {
    /// An empty (disabled) context.
    pub fn none() -> Self {
        SpanCtx { span: None }
    }

    /// A context rooted at `span`: children created through it become
    /// `span`'s children.
    pub fn of(span: &'a Span) -> Self {
        SpanCtx { span: Some(span) }
    }

    /// Whether tracing is active.
    pub fn enabled(&self) -> bool {
        self.span.is_some()
    }

    /// Opens a child span of the context's span, or `None` when disabled.
    pub fn child(&self, name: &'static str) -> Option<Span> {
        self.span.map(|s| s.child(name))
    }

    /// [`Span::child_from`] of the context's span, or `None` when disabled.
    pub fn child_from(&self, name: &'static str, start: Instant) -> Option<Span> {
        self.span.map(|s| s.child_from(name, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn tracer() -> (Tracer, Arc<MemorySink>, Arc<ObsCounters>) {
        let counters = Arc::new(ObsCounters::default());
        let sink = Arc::new(MemorySink::new(1024, Arc::clone(&counters)));
        let tracer = Tracer::new(sink.clone() as Arc<dyn SpanSink>, Arc::clone(&counters));
        (tracer, sink, counters)
    }

    #[test]
    fn spans_nest_and_record_on_finish() {
        let (tracer, sink, _) = tracer();
        let mut root = tracer.root("serve");
        root.set("db", "concert_singer");
        root.set("request", 7u64);
        let root_id = root.span_id();
        let child = root.child("execute");
        assert_eq!(child.trace_id(), root.trace_id());
        child.finish();
        root.finish();
        let records = sink.records();
        assert_eq!(records.len(), 2);
        // Children finish before their parents.
        assert_eq!(records[0].name, "execute");
        assert_eq!(records[0].parent_id, Some(root_id));
        assert_eq!(records[1].name, "serve");
        assert_eq!(records[1].parent_id, None);
        assert_eq!(
            records[1].attr("db"),
            Some(&AttrValue::Str("concert_singer".into()))
        );
        assert_eq!(records[1].attr("request"), Some(&AttrValue::Int(7)));
    }

    #[test]
    fn drop_finishes_unfinished_spans() {
        let (tracer, sink, counters) = tracer();
        {
            let mut span = tracer.root("work");
            span.set_error();
            // No finish(): an early return / `?` would look like this.
        }
        let records = sink.records();
        assert_eq!(records.len(), 1);
        assert!(records[0].error);
        assert_eq!(counters.snapshot().spans_finished, 1);
    }

    #[test]
    fn panic_does_not_lose_spans() {
        let (tracer, sink, _) = tracer();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let root = tracer.root("serve");
            let _stage = root.child("verify");
            panic!("verifier exploded");
        }));
        assert!(result.is_err());
        let records = sink.records();
        assert_eq!(records.len(), 2, "both spans survived the panic");
        assert!(records.iter().any(|r| r.name == "verify"));
        assert!(records.iter().any(|r| r.name == "serve"));
        assert!(
            records.iter().all(|r| r.error),
            "spans dropped during unwind are marked errored"
        );
    }

    #[test]
    fn timestamps_are_monotonic_and_nested() {
        let (tracer, sink, _) = tracer();
        let root = tracer.root("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = root.child("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        inner.finish();
        root.finish();
        let records = sink.records();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        assert!(inner.start_us >= outer.start_us);
        assert!(
            inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us,
            "child interval nests inside parent"
        );
        assert!(outer.dur_us >= 4_000, "outer saw both sleeps");
    }

    #[test]
    fn concurrent_children_get_unique_ids() {
        let (tracer, sink, _) = tracer();
        let root = tracer.root("serve");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let root = &root;
                scope.spawn(move || {
                    for _ in 0..50 {
                        root.child("stage").finish();
                    }
                });
            }
        });
        root.finish();
        let records = sink.records();
        assert_eq!(records.len(), 8 * 50 + 1);
        let mut ids: Vec<u64> = records.iter().map(|r| r.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8 * 50 + 1, "no id collisions");
    }

    #[test]
    fn shared_span_nests_across_threads_and_finishes_once() {
        let (tracer, sink, _) = tracer();
        let shared = SharedSpan::new(tracer.root("net"));
        shared.set("remote", "127.0.0.1:9");
        let worker = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let child = shared.child("serve").expect("parent still open");
                child.finish();
            })
        };
        worker.join().unwrap();
        shared.finish();
        // Idempotent: a second finish and post-finish operations are no-ops.
        shared.finish();
        shared.set("late", true);
        assert!(shared.child("late").is_none());
        let records = sink.records();
        assert_eq!(records.len(), 2);
        let child = records.iter().find(|r| r.name == "serve").unwrap();
        let root = records.iter().find(|r| r.name == "net").unwrap();
        assert_eq!(child.parent_id, Some(root.span_id));
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(
            root.attr("remote"),
            Some(&AttrValue::Str("127.0.0.1:9".into()))
        );
        assert!(root.attr("late").is_none(), "post-finish set dropped");
    }

    #[test]
    fn disabled_ctx_is_free_and_silent() {
        let ctx = SpanCtx::none();
        assert!(!ctx.enabled());
        assert!(ctx.child("anything").is_none());
        let counters = ObsCounters::default();
        let s = counters.snapshot();
        assert_eq!(s.spans_finished, 0);
        assert_eq!(s.spans_emitted, 0);
        assert_eq!(s.spans_dropped, 0);
    }
}
