//! Prometheus text-format rendering for the engine's metrics, written
//! through the one exposition writer, [`cyclesql_obs::Exposition`].
//!
//! [`render_metrics`] covers every counter and per-stage histogram summary
//! of a set of [`MetricsSnapshot`]s, [`render_windows`] the rolling-window
//! telemetry with its trace exemplars, and [`render_observability`] the
//! span pipeline's own health counters (spans emitted/dropped, sampler
//! decisions) from an [`ObsCountersSnapshot`]. A snapshot given a shard id
//! labels its samples `shard="<id>"`; stage summaries are labelled as
//! `cyclesql_stage_latency_ms{stage="execute",quantile="0.99"}`.

use crate::metrics::MetricsSnapshot;
use cyclesql_obs::{label, Exposition, ObsCountersSnapshot, WindowSnapshot};

/// A metric family: name, help text, and the sample's source in a
/// snapshot.
type Family<T> = (&'static str, &'static str, fn(&MetricsSnapshot) -> T);

const COUNTERS: [Family<u64>; 15] = [
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

const GAUGES: [Family<f64>; 2] = [
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

/// `shard="<id>"`, or no label for an engine that is not a shard.
fn shard_label(shard: Option<usize>) -> String {
    shard.map_or_else(String::new, |id| label("", "shard", id))
}

/// Renders every engine family, one header each, with one sample per
/// snapshot. The network tier's `/metrics` passes each shard's snapshot
/// with its id; a single engine passes one snapshot with `None`.
pub fn render_metrics(page: &mut Exposition, snapshots: &[(Option<usize>, &MetricsSnapshot)]) {
    let labelled: Vec<(String, &MetricsSnapshot)> = snapshots
        .iter()
        .map(|&(shard, snap)| (shard_label(shard), snap))
        .collect();
    for (name, help, get) in COUNTERS {
        page.family(name, help, "counter");
        for (labels, snap) in &labelled {
            page.sample(name, labels, get(snap));
        }
    }
    for (name, help, get) in GAUGES {
        page.family(name, help, "gauge");
        for (labels, snap) in &labelled {
            page.sample(name, labels, get(snap));
        }
    }
    const STAGE: &str = "cyclesql_stage_latency_ms";
    page.family(
        STAGE,
        "Per-stage latency summary (bucket-resolution quantiles, ms).",
        "summary",
    );
    for (labels, snap) in &labelled {
        let s = &snap.stages;
        for (stage, h) in [
            ("translate", &s.translate),
            ("execute", &s.execute),
            ("provenance", &s.provenance),
            ("explain", &s.explain),
            ("verify", &s.verify),
            ("total", &s.total),
        ] {
            page.summary(STAGE, &label(labels, "stage", stage), h);
        }
    }
    const QUEUE: &str = "cyclesql_queue_wait_ms";
    page.family(
        QUEUE,
        "Admission-queue wait (submit to worker dequeue, ms).",
        "summary",
    );
    for (labels, snap) in &labelled {
        page.summary(QUEUE, labels, &snap.queue_wait);
    }
}

/// Renders the tracing pipeline's own counters. The shards of a server
/// share one tracer, so these carry no shard label.
pub fn render_observability(page: &mut Exposition, counters: &ObsCountersSnapshot) {
    for (name, help, value) in [
        (
            "cyclesql_obs_spans_finished_total",
            "Spans finished and handed to the sink chain.",
            counters.spans_finished,
        ),
        (
            "cyclesql_obs_spans_emitted_total",
            "Span records delivered to a terminal sink.",
            counters.spans_emitted,
        ),
        (
            "cyclesql_obs_spans_dropped_total",
            "Span records discarded (unsampled trace or ring overwrite).",
            counters.spans_dropped,
        ),
        (
            "cyclesql_obs_traces_sampled_total",
            "Traces kept by the sampler.",
            counters.traces_sampled,
        ),
        (
            "cyclesql_obs_traces_discarded_total",
            "Traces discarded by the sampler.",
            counters.traces_discarded,
        ),
        (
            "cyclesql_obs_span_ring_overwrites_total",
            "Span-ring slots overwritten before being read.",
            counters.span_ring_overwrites,
        ),
        (
            "cyclesql_obs_request_ring_overwrites_total",
            "Request-summary-ring slots overwritten before being read.",
            counters.request_ring_overwrites,
        ),
    ] {
        page.counter(name, help, value);
    }
}

/// One engine's window snapshots by stage, with its shard id.
type EngineWindows<'a> = (Option<usize>, &'a [(&'a str, WindowSnapshot)]);

/// Renders per-stage rolling-window telemetry, exemplars included: each
/// populated latency bucket may carry `# {trace_id="...",sql="..."} value`
/// — the trace id and SQL digest of a recent request that landed in that
/// bucket — so a scrape can link a histogram spike to one concrete trace.
///
/// Each engine's windows come with its shard id (`None` for an engine that
/// is not a shard). Histogram rows are cumulative (`le` in µs), with the
/// standard `+Inf`, `_count`, and `_sum` rows per stage. Engines render
/// one after another, so the family headers come with the first.
pub fn render_windows(page: &mut Exposition, engines: &[EngineWindows<'_>]) {
    const RATE: &str = "cyclesql_window_requests_per_sec";
    const ERRORS: &str = "cyclesql_window_error_rate";
    const LATENCY: &str = "cyclesql_window_latency_us";
    for &(shard, windows) in engines {
        let base = shard_label(shard);
        let labelled: Vec<(String, &WindowSnapshot)> = windows
            .iter()
            .map(|(stage, w)| (label(&base, "stage", stage), w))
            .collect();
        page.family(RATE, "Request rate over the rolling window.", "gauge");
        for (labels, w) in &labelled {
            page.sample(RATE, labels, w.rate_per_sec);
        }
        page.family(
            ERRORS,
            "Errored requests over requests in the rolling window, in [0, 1].",
            "gauge",
        );
        for (labels, w) in &labelled {
            page.sample(ERRORS, labels, w.error_rate);
        }
        page.family(
            LATENCY,
            "Rolling-window latency histogram (µs) with trace exemplars.",
            "histogram",
        );
        for (labels, w) in &labelled {
            page.histogram(LATENCY, labels, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use cyclesql_core::StageTimings;
    use std::time::Duration;

    /// The text one page renders.
    fn page(render: impl FnOnce(&mut Exposition)) -> String {
        let mut page = Exposition::default();
        render(&mut page);
        page.finish()
    }

    #[test]
    fn renders_every_counter_family_once() {
        let m = Metrics::default();
        m.stages
            .record(&StageTimings::default(), Duration::from_millis(3));
        let text = page(|p| render_metrics(p, &[(None, &m.snapshot(7, 3))]));
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
        let (s0, s1) = (m0.snapshot(3, 1), m1.snapshot(0, 0));
        let text = page(|p| render_metrics(p, &[(Some(0), &s0), (Some(1), &s1)]));
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
        let text = page(|p| render_observability(p, &counters));
        assert!(text.contains("cyclesql_obs_spans_emitted_total 8"));
        assert!(text.contains("cyclesql_obs_spans_dropped_total 2"));
        assert!(text.contains("cyclesql_obs_span_ring_overwrites_total 2"));
        assert!(text.contains("cyclesql_obs_request_ring_overwrites_total 4"));

        let snap = Metrics::default().snapshot(0, 0);
        let all = page(|p| {
            render_metrics(p, &[(None, &snap)]);
            render_observability(p, &counters);
        });
        assert!(all.contains("cyclesql_requests_admitted_total 0"));
        assert!(all.contains("cyclesql_obs_traces_sampled_total 1"));
        let without = page(|p| render_metrics(p, &[(None, &snap)]));
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
        let text = page(|p| render_windows(p, &[(None, &windows)]));
        assert!(text.contains("# TYPE cyclesql_window_latency_us histogram"));
        assert!(text.contains("cyclesql_window_requests_per_sec{stage=\"total\"}"));
        assert!(text.contains("cyclesql_window_error_rate{stage=\"total\"} 0.5"));
        // The exemplar rides its bucket row in OpenMetrics syntax.
        let le = cyclesql_obs::latency_bucket_le_us(latency_bucket(1_500));
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
        let sharded = page(|p| {
            render_windows(
                p,
                &[
                    (Some(0), &[("total", w.snapshot_at(500))]),
                    (Some(1), &[("total", w.snapshot_at(500))]),
                ],
            )
        });
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
