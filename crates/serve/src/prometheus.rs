//! Prometheus text-format (version 0.0.4) rendering for the engine's
//! metrics, written by hand against the exposition-format spec so the
//! export surface has zero dependencies.
//!
//! [`render_metrics`] covers every counter and per-stage histogram summary
//! in a [`MetricsSnapshot`]; [`render_observability`] appends the span
//! pipeline's own health counters (spans emitted/dropped, sampler
//! decisions) from an [`ObsCountersSnapshot`]. Both emit `# HELP` / `# TYPE`
//! headers per metric family and label stage summaries as
//! `cyclesql_stage_latency_ms{stage="execute",quantile="0.99"}`.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use cyclesql_obs::{ObsCountersSnapshot, WindowSnapshot};
use std::fmt::Write as _;

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Prometheus floats: plain decimal, no exponent needed at our scales; an
/// integral value still renders with a trailing `.0`-free form (`42`),
/// which the format accepts.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Joins label pairs into `k="v",k2="v2"` (no braces); empty for no labels.
fn label_str(labels: &[(&str, String)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect::<Vec<_>>()
        .join(",")
}

/// One `name{labels} value` sample line; `labels` may be empty.
fn sample(out: &mut String, name: &str, labels: &str, value: &str) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Quantile/mean/count rows of one summary-style histogram family, with
/// `extra` labels (e.g. `shard="0"`) prepended to the per-row labels.
fn summary_rows(out: &mut String, name: &str, extra: &str, h: &HistogramSnapshot) {
    let join = |l: &str| {
        if extra.is_empty() {
            l.to_string()
        } else if l.is_empty() {
            extra.to_string()
        } else {
            format!("{extra},{l}")
        }
    };
    for (q, v) in [("0.5", h.p50_ms), ("0.95", h.p95_ms), ("0.99", h.p99_ms)] {
        sample(out, name, &join(&format!("quantile=\"{q}\"")), &fmt_f64(v));
    }
    sample(out, &format!("{name}_mean"), &join(""), &fmt_f64(h.mean_ms));
    sample(
        out,
        &format!("{name}_count"),
        &join(""),
        &h.count.to_string(),
    );
}

fn stage_rows_labeled(out: &mut String, extra: &str, stage: &str, h: &HistogramSnapshot) {
    summary_rows(
        out,
        "cyclesql_stage_latency_ms",
        &if extra.is_empty() {
            format!("stage=\"{stage}\"")
        } else {
            format!("{extra},stage=\"{stage}\"")
        },
        h,
    );
}

/// Renders a [`MetricsSnapshot`] as Prometheus exposition text.
pub fn render_metrics(snapshot: &MetricsSnapshot) -> String {
    render_labeled(&[(String::new(), snapshot)])
}

/// A metric family: name, help text, and the sample's source in a
/// snapshot.
type Family<T> = (&'static str, &'static str, fn(&MetricsSnapshot) -> T);

/// Renders several engines' snapshots as one exposition page, each sample
/// labeled `shard="<id>"`. Every family keeps a single `# HELP` / `# TYPE`
/// header (required by the format), with one labeled sample per shard —
/// the shape the network tier's `/metrics` endpoint serves when the
/// catalog is split across engine instances.
pub fn render_metrics_sharded(shards: &[(usize, MetricsSnapshot)]) -> String {
    let labeled: Vec<(String, &MetricsSnapshot)> = shards
        .iter()
        .map(|(shard, snap)| (label_str(&[("shard", shard.to_string())]), snap))
        .collect();
    render_labeled(&labeled)
}

/// Every family of [`render_metrics`], one header each, with one sample
/// per snapshot carrying that snapshot's labels (empty for none).
fn render_labeled(snapshots: &[(String, &MetricsSnapshot)]) -> String {
    let mut out = String::new();
    let counters: [Family<u64>; 15] = [
        (
            "cyclesql_requests_admitted_total",
            "Requests admitted past backpressure.",
            |s| s.admitted,
        ),
        (
            "cyclesql_requests_completed_total",
            "Requests fully served.",
            |s| s.completed,
        ),
        (
            "cyclesql_requests_shed_total",
            "Requests rejected at admission by the shed policy.",
            |s| s.shed,
        ),
        (
            "cyclesql_requests_timeout_total",
            "Requests abandoned by their deadline.",
            |s| s.timeouts,
        ),
        (
            "cyclesql_requests_unknown_db_total",
            "Requests naming an unserved database.",
            |s| s.unknown_db,
        ),
        (
            "cyclesql_serve_panics_total",
            "Panics a worker survived: in a pipeline (answered with an internal error) or a completion.",
            |s| s.panics,
        ),
        (
            "cyclesql_plan_cache_hits_total",
            "Result-cache hits.",
            |s| s.cache_hits,
        ),
        (
            "cyclesql_plan_cache_misses_total",
            "Result-cache misses.",
            |s| s.cache_misses,
        ),
        (
            "cyclesql_explain_cache_hits_total",
            "Data-grounded explanations read memoized from a result-cache entry.",
            |s| s.explain_cache_hits,
        ),
        (
            "cyclesql_explain_cache_misses_total",
            "Data-grounded explanations built by the served loop.",
            |s| s.explain_cache_misses,
        ),
        (
            "cyclesql_sim_candidates_total",
            "Candidates the simulated model drew (the loop pulls them only as it examines them).",
            |s| s.sim_candidates,
        ),
        (
            "cyclesql_sim_attempts_total",
            "Simulated-model validation runs of drawn wrong candidates.",
            |s| s.sim_attempts,
        ),
        (
            "cyclesql_sim_retries_total",
            "Simulated-model validation attempts rejected and drawn again (query failed or matched the gold).",
            |s| s.sim_retries,
        ),
        (
            "cyclesql_verifier_accepts_total",
            "Accepting verifier verdicts.",
            |s| s.verifier_accepts,
        ),
        (
            "cyclesql_verifier_rejects_total",
            "Rejecting verifier verdicts.",
            |s| s.verifier_rejects,
        ),
    ];
    for (name, help, get) in counters {
        family(&mut out, name, help, "counter");
        for (labels, snap) in snapshots {
            sample(&mut out, name, labels, &get(snap).to_string());
        }
    }
    let gauges: [Family<f64>; 2] = [
        (
            "cyclesql_plan_cache_hit_rate",
            "Result-cache hits over lookups, in [0, 1].",
            |s| s.cache_hit_rate,
        ),
        (
            "cyclesql_loop_iterations_avg",
            "Mean candidate-loop iterations per completed request.",
            |s| s.avg_iterations,
        ),
    ];
    for (name, help, get) in gauges {
        family(&mut out, name, help, "gauge");
        for (labels, snap) in snapshots {
            sample(&mut out, name, labels, &fmt_f64(get(snap)));
        }
    }
    family(
        &mut out,
        "cyclesql_stage_latency_ms",
        "Per-stage latency summary (bucket-resolution quantiles, ms).",
        "summary",
    );
    for (extra, snap) in snapshots {
        let s = &snap.stages;
        for (stage, h) in [
            ("translate", &s.translate),
            ("execute", &s.execute),
            ("provenance", &s.provenance),
            ("explain", &s.explain),
            ("verify", &s.verify),
            ("total", &s.total),
        ] {
            stage_rows_labeled(&mut out, extra, stage, h);
        }
    }
    family(
        &mut out,
        "cyclesql_queue_wait_ms",
        "Admission-queue wait (submit to worker dequeue, ms).",
        "summary",
    );
    for (extra, snap) in snapshots {
        summary_rows(&mut out, "cyclesql_queue_wait_ms", extra, &snap.queue_wait);
    }
    out
}

/// Renders the tracing pipeline's own counters as Prometheus exposition
/// text (appended after [`render_metrics`] by [`render_all`]).
pub fn render_observability(counters: &ObsCountersSnapshot) -> String {
    let mut out = String::new();
    counter(
        &mut out,
        "cyclesql_obs_spans_finished_total",
        "Spans finished and handed to the sink chain.",
        counters.spans_finished,
    );
    counter(
        &mut out,
        "cyclesql_obs_spans_emitted_total",
        "Span records delivered to a terminal sink.",
        counters.spans_emitted,
    );
    counter(
        &mut out,
        "cyclesql_obs_spans_dropped_total",
        "Span records discarded (unsampled trace or ring overwrite).",
        counters.spans_dropped,
    );
    counter(
        &mut out,
        "cyclesql_obs_traces_sampled_total",
        "Traces kept by the sampler.",
        counters.traces_sampled,
    );
    counter(
        &mut out,
        "cyclesql_obs_traces_discarded_total",
        "Traces discarded by the sampler.",
        counters.traces_discarded,
    );
    counter(
        &mut out,
        "cyclesql_obs_span_ring_overwrites_total",
        "Span-ring slots overwritten before being read.",
        counters.span_ring_overwrites,
    );
    counter(
        &mut out,
        "cyclesql_obs_request_ring_overwrites_total",
        "Request-summary-ring slots overwritten before being read.",
        counters.request_ring_overwrites,
    );
    out
}

/// Renders per-stage rolling-window telemetry as OpenMetrics-style
/// exposition text, exemplars included: each populated latency bucket may
/// carry `# {trace_id="...",sql="..."} value` — the trace id and SQL
/// digest of a recent request that landed in that bucket — so a scrape
/// can link a histogram spike to one concrete trace.
///
/// `shard` adds a `shard="<id>"` label to every sample (pass `None` for a
/// single-engine page). Histogram rows are cumulative (`le` in µs), with
/// the standard `+Inf`, `_count`, and `_sum` rows per stage.
pub fn render_windows(windows: &[(&'static str, WindowSnapshot)], shard: Option<usize>) -> String {
    let mut out = String::new();
    render_windows_into(&mut out, windows, shard, true);
    out
}

/// Renders several shards' window snapshots as one page with a single
/// header per family.
pub fn render_windows_sharded(shards: &[(usize, Vec<(&'static str, WindowSnapshot)>)]) -> String {
    let mut out = String::new();
    let mut first = true;
    for (shard, windows) in shards {
        render_windows_into(&mut out, windows, Some(*shard), first);
        first = false;
    }
    out
}

fn render_windows_into(
    out: &mut String,
    windows: &[(&'static str, WindowSnapshot)],
    shard: Option<usize>,
    headers: bool,
) {
    let base = |stage: &str| match shard {
        Some(s) => format!("shard=\"{s}\",stage=\"{stage}\""),
        None => format!("stage=\"{stage}\""),
    };
    if headers {
        family(
            out,
            "cyclesql_window_requests_per_sec",
            "Request rate over the rolling window.",
            "gauge",
        );
    }
    for (stage, w) in windows {
        sample(
            out,
            "cyclesql_window_requests_per_sec",
            &base(stage),
            &fmt_f64(w.rate_per_sec),
        );
    }
    if headers {
        family(
            out,
            "cyclesql_window_error_rate",
            "Errored requests over requests in the rolling window, in [0, 1].",
            "gauge",
        );
    }
    for (stage, w) in windows {
        sample(
            out,
            "cyclesql_window_error_rate",
            &base(stage),
            &fmt_f64(w.error_rate),
        );
    }
    if headers {
        family(
            out,
            "cyclesql_window_latency_us",
            "Rolling-window latency histogram (µs) with trace exemplars.",
            "histogram",
        );
    }
    for (stage, w) in windows {
        let labels = base(stage);
        let mut cumulative = 0u64;
        for (b, n) in w.hist.iter().enumerate() {
            cumulative += n;
            // Keep the page bounded: only buckets that changed the
            // cumulative count get a row (plus +Inf below).
            if *n == 0 {
                continue;
            }
            let le = cyclesql_obs::latency_bucket_upper_us(b);
            let mut line =
                format!("cyclesql_window_latency_us_bucket{{{labels},le=\"{le}\"}} {cumulative}");
            if let Some(ex) = &w.exemplars[b] {
                let _ = write!(
                    line,
                    " # {{trace_id=\"{}\",sql=\"{:016x}\"}} {}",
                    cyclesql_obs::format_trace_id(ex.trace_id),
                    ex.sql_digest,
                    ex.value_us
                );
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "cyclesql_window_latency_us_bucket{{{labels},le=\"+Inf\"}} {}",
            w.count
        );
        sample(
            out,
            "cyclesql_window_latency_us_count",
            &labels,
            &w.count.to_string(),
        );
        sample(
            out,
            "cyclesql_window_latency_us_sum",
            &labels,
            &w.sum_us.to_string(),
        );
    }
}

/// One text page with both the serving metrics and (when the engine is
/// traced) the span-pipeline counters.
pub fn render_all(snapshot: &MetricsSnapshot, counters: Option<&ObsCountersSnapshot>) -> String {
    let mut out = render_metrics(snapshot);
    if let Some(counters) = counters {
        out.push_str(&render_observability(counters));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use cyclesql_core::StageTimings;
    use std::time::Duration;

    #[test]
    fn renders_every_counter_family_once() {
        let m = Metrics::default();
        m.stages
            .record(&StageTimings::default(), Duration::from_millis(3));
        let text = render_metrics(&m.snapshot(7, 3));
        for name in [
            "cyclesql_requests_admitted_total",
            "cyclesql_requests_completed_total",
            "cyclesql_requests_shed_total",
            "cyclesql_requests_timeout_total",
            "cyclesql_requests_unknown_db_total",
            "cyclesql_serve_panics_total",
            "cyclesql_plan_cache_hits_total",
            "cyclesql_plan_cache_misses_total",
            "cyclesql_plan_cache_hit_rate",
            "cyclesql_explain_cache_hits_total",
            "cyclesql_explain_cache_misses_total",
            "cyclesql_sim_candidates_total",
            "cyclesql_sim_attempts_total",
            "cyclesql_sim_retries_total",
            "cyclesql_verifier_accepts_total",
            "cyclesql_verifier_rejects_total",
            "cyclesql_loop_iterations_avg",
            "cyclesql_stage_latency_ms",
            "cyclesql_queue_wait_ms",
        ] {
            assert_eq!(
                text.matches(&format!("# TYPE {name} ")).count(),
                1,
                "{name} typed exactly once"
            );
        }
        assert!(text.contains("cyclesql_plan_cache_hits_total 7"));
        assert!(text.contains("cyclesql_plan_cache_hit_rate 0.7"));
        assert!(text.contains("cyclesql_stage_latency_ms_count{stage=\"total\"} 1"));
        assert!(text.contains("{stage=\"execute\",quantile=\"0.99\"}"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in `{line}`"
            );
            assert!(parts.next().is_some(), "no metric name in `{line}`");
        }
    }

    #[test]
    fn sharded_rendering_keeps_one_header_per_family() {
        let m0 = Metrics::default();
        m0.admitted.store(5, std::sync::atomic::Ordering::Relaxed);
        m0.stages
            .record(&StageTimings::default(), Duration::from_millis(2));
        m0.queue_wait.record(Duration::from_micros(700));
        m0.sim_candidates
            .store(6, std::sync::atomic::Ordering::Relaxed);
        m0.sim_attempts
            .store(4, std::sync::atomic::Ordering::Relaxed);
        m0.sim_retries
            .store(1, std::sync::atomic::Ordering::Relaxed);
        let m1 = Metrics::default();
        m1.admitted.store(9, std::sync::atomic::Ordering::Relaxed);
        let shards = vec![(0usize, m0.snapshot(3, 1)), (1usize, m1.snapshot(0, 0))];
        let text = render_metrics_sharded(&shards);
        assert_eq!(
            text.matches("# TYPE cyclesql_requests_admitted_total ")
                .count(),
            1,
            "one TYPE header even with two shards"
        );
        assert!(text.contains("cyclesql_requests_admitted_total{shard=\"0\"} 5"));
        assert!(text.contains("cyclesql_requests_admitted_total{shard=\"1\"} 9"));
        assert!(text.contains("{shard=\"0\",stage=\"total\",quantile=\"0.99\"}"));
        assert!(text.contains("cyclesql_queue_wait_ms_count{shard=\"0\"} 1"));
        assert!(text.contains("cyclesql_sim_candidates_total{shard=\"0\"} 6"));
        assert!(text.contains("cyclesql_sim_attempts_total{shard=\"0\"} 4"));
        assert!(text.contains("cyclesql_sim_retries_total{shard=\"0\"} 1"));
        assert_eq!(
            text.matches("# HELP cyclesql_sim_retries_total ").count(),
            1
        );
        // Every non-comment line still parses as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in `{line}`"
            );
            assert!(parts.next().is_some(), "no metric name in `{line}`");
        }
    }

    #[test]
    fn observability_counters_render_and_append() {
        let counters = ObsCountersSnapshot {
            spans_finished: 10,
            spans_emitted: 8,
            spans_dropped: 2,
            traces_sampled: 1,
            traces_discarded: 1,
            span_ring_overwrites: 2,
            request_ring_overwrites: 4,
        };
        let text = render_observability(&counters);
        assert!(text.contains("cyclesql_obs_spans_emitted_total 8"));
        assert!(text.contains("cyclesql_obs_spans_dropped_total 2"));
        assert!(text.contains("cyclesql_obs_span_ring_overwrites_total 2"));
        assert!(text.contains("cyclesql_obs_request_ring_overwrites_total 4"));

        let m = Metrics::default();
        let all = render_all(&m.snapshot(0, 0), Some(&counters));
        assert!(all.contains("cyclesql_requests_admitted_total 0"));
        assert!(all.contains("cyclesql_obs_traces_sampled_total 1"));
        let without = render_all(&m.snapshot(0, 0), None);
        assert!(!without.contains("cyclesql_obs_"));
    }

    #[test]
    fn window_rendering_carries_openmetrics_exemplars() {
        use cyclesql_obs::{latency_bucket, Exemplar, Window, WindowConfig};
        let w = Window::new(WindowConfig {
            bucket_ms: 1_000,
            buckets: 60,
        });
        w.record_at(
            100,
            1_500,
            false,
            Some(Exemplar {
                trace_id: 0x8448_eb21_1c80_319c,
                sql_digest: 0xdead_beef,
                value_us: 1_500,
            }),
        );
        w.record_at(200, 10, true, None);
        let windows = vec![("total", w.snapshot_at(500))];
        let text = render_windows(&windows, None);
        assert!(text.contains("# TYPE cyclesql_window_latency_us histogram"));
        assert!(text.contains("cyclesql_window_requests_per_sec{stage=\"total\"}"));
        assert!(text.contains("cyclesql_window_error_rate{stage=\"total\"} 0.5"));
        // The exemplar rides its bucket row in OpenMetrics syntax.
        let le = cyclesql_obs::latency_bucket_upper_us(latency_bucket(1_500));
        let bucket_line = text
            .lines()
            .find(|l| l.contains(&format!("le=\"{le}\"")))
            .expect("exemplar bucket row");
        assert!(
            bucket_line.contains("# {trace_id=\"8448eb211c80319c\",sql=\"00000000deadbeef\"} 1500"),
            "exemplar on `{bucket_line}`"
        );
        assert!(text.contains("le=\"+Inf\"}} 2") || text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("cyclesql_window_latency_us_count{stage=\"total\"} 2"));
        assert!(text.contains("cyclesql_window_latency_us_sum{stage=\"total\"} 1510"));

        // Sharded form: single header, shard labels on every row.
        let sharded = render_windows_sharded(&[
            (0, vec![("total", w.snapshot_at(500))]),
            (1, vec![("total", w.snapshot_at(500))]),
        ]);
        assert_eq!(
            sharded
                .matches("# TYPE cyclesql_window_latency_us ")
                .count(),
            1
        );
        assert!(sharded.contains("shard=\"0\",stage=\"total\""));
        assert!(sharded.contains("shard=\"1\",stage=\"total\""));
    }
}
