//! # cyclesql-obs
//!
//! Request-scoped observability for the CycleSQL stack: a low-overhead
//! hierarchical span/event system with pluggable sinks.
//!
//! The serving engine's aggregate metrics (`MetricsSnapshot`) answer "how
//! is the fleet doing"; this crate answers "why was *this* request slow or
//! rejected" — the same per-instance-vs-aggregate gap that separates the
//! paper's provenance-backed explanations from whole-benchmark accuracy
//! scores.
//!
//! Pieces:
//!
//! - [`Tracer`] / [`Span`] — monotonic-timestamped hierarchical spans with
//!   typed key/value attributes. Finishing is **drop-safe**: a span that
//!   goes out of scope during a panic, an early `return`, or a deadline
//!   abort still reaches the sink (with whatever attributes it carried).
//! - [`SpanSink`] — where finished spans go. [`MemorySink`] is a bounded
//!   ring buffer for tests, [`JsonlSink`] appends one JSON object per span
//!   for offline analysis, and [`SamplingSink`] wraps either with a 1-in-N
//!   head-count policy that *always* keeps error traces (shed, deadline,
//!   failed stages), buffering a trace's spans until its root finishes.
//! - [`SpanCtx`] — a `Copy` handle threaded through the pipeline. When no
//!   tracer is installed the context is empty and every call is a branch
//!   on a `None`: the traced-off hot path allocates nothing and emits
//!   nothing (pinned by [`ObsCounters`] reading zero).
//! - [`trace`] — wire trace-context propagation: W3C `traceparent`
//!   parsing into the tracer's 64-bit ids, and the hex spelling used by
//!   response headers and debug endpoints.
//! - [`metrics`] — the one latency-bucket layout (log₂ µs), the
//!   lock-free [`Histogram`] and its quantile estimator, and
//!   [`Exposition`], the one Prometheus text writer: the engine, window,
//!   span-pipeline and wire-tier families all render through it.
//! - [`window`] — rolling time-windowed telemetry: per-stage rings of
//!   fixed-width buckets (rate, error rate, latency histogram)
//!   whose histogram buckets carry **exemplars** (trace id + SQL digest
//!   of a recent request), deterministic under an injected clock.
//! - [`json`] — the workspace's JSON: the [`ToJson`] pretty writer for
//!   results that reach a file, [`push_json_str`] for hand-rolled lines,
//!   and [`Json`], the one reader (request bodies, saved models).
//! - [`flame`] — text flamegraphs and per-stage summaries rebuilt from
//!   finished spans, shared by the live `/v1/debug/flame` endpoint and
//!   the offline `trace_report` tool.
//!
//! ```
//! use cyclesql_obs::{MemorySink, ObsCounters, Tracer};
//! use std::sync::Arc;
//!
//! let counters = Arc::new(ObsCounters::default());
//! let sink = Arc::new(MemorySink::new(128, Arc::clone(&counters)));
//! let tracer = Tracer::new(sink.clone(), Arc::clone(&counters));
//! {
//!     let mut root = tracer.root("serve");
//!     root.set("db", "concert_singer");
//!     let child = root.child("execute");
//!     child.finish();
//! } // root finishes on drop
//! let records = sink.records();
//! assert_eq!(records.len(), 2);
//! assert_eq!(counters.snapshot().spans_emitted, 2);
//! ```

#![warn(missing_docs)]

pub mod flame;
pub mod json;
pub mod metrics;
pub mod sample;
pub mod sink;
pub mod span;
pub mod trace;
pub mod window;

pub use flame::{render_flame, stage_summary, FlameSpan};
pub use json::{push_json_str, Json, ToJson};
pub use metrics::{
    label, latency_bucket, latency_bucket_le_us, Exposition, Histogram, HistogramSnapshot,
    LATENCY_BUCKETS,
};
pub use sample::{SamplePolicy, SamplingSink};
pub use sink::{parse_jsonl_line, JsonlSink, MemorySink, ParsedSpan, SpanSink};
pub use span::{
    Attr, AttrValue, ObsCounters, ObsCountersSnapshot, SharedSpan, Span, SpanCtx, SpanRecord,
    Tracer,
};
pub use trace::{format_trace_id, parse_trace_id, parse_traceparent};
pub use window::{Exemplar, Window, WindowConfig, WindowSet, WindowSnapshot};
