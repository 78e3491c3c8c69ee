//! Byte-for-byte goldens of every exposition surface, over fixed
//! synthetic snapshots: the served `/metrics` page (two shards' engine
//! families, their window telemetry with exemplars, the wire tier, and
//! the span-pipeline counters of a traced server), `trace_report`'s page,
//! a single engine's window families, and `/v1/debug/telemetry`'s JSON.
//!
//! The files under `tests/golden/` were written by the renderers as they
//! stood before the one exposition writer replaced them.

use cyclesql_net::debug::render_telemetry_json;
use cyclesql_net::{render_metrics_page, NetMetrics};
use cyclesql_obs::{Exemplar, Exposition, HistogramSnapshot, ObsCountersSnapshot, WindowSnapshot};
use cyclesql_serve::{
    render_metrics, render_observability, render_windows, MetricsSnapshot, StageSnapshots,
};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// A summary histogram snapshot with fractional, integral and zero values.
fn hist(count: u64, mean_ms: f64, p50_ms: f64, p95_ms: f64, p99_ms: f64) -> HistogramSnapshot {
    HistogramSnapshot {
        count,
        mean_ms,
        p50_ms,
        p95_ms,
        p99_ms,
    }
}

/// Two shards' engine snapshots: a busy one and a nearly idle one.
fn engine_shards() -> Vec<(usize, MetricsSnapshot)> {
    let busy = MetricsSnapshot {
        admitted: 412,
        completed: 405,
        shed: 3,
        timeouts: 4,
        unknown_db: 2,
        panics: 1,
        cache_hits: 300,
        cache_misses: 112,
        cache_hit_rate: 300.0 / 412.0,
        explain_cache_hits: 57,
        explain_cache_misses: 91,
        sim_candidates: 1_234,
        sim_attempts: 88,
        sim_retries: 9,
        verifier_accepts: 380,
        verifier_rejects: 61,
        avg_iterations: 441.0 / 405.0,
        stages: StageSnapshots {
            translate: hist(405, 0.734, 0.512, 2.048, 4.096),
            execute: hist(405, 0.0421, 0.032, 0.128, 0.256),
            provenance: hist(148, 0.0105, 0.008, 0.016, 0.032),
            explain: hist(148, 0.02, 0.016, 0.064, 0.064),
            verify: hist(441, 0.003, 0.004, 0.004, 0.008),
            total: hist(405, 1.5, 1.024, 8.192, 524.288),
        },
        queue_wait: hist(409, 0.0012345, 0.001, 0.002, 1_048.576),
    };
    let idle = MetricsSnapshot {
        admitted: 1,
        completed: 1,
        shed: 0,
        timeouts: 0,
        unknown_db: 0,
        panics: 0,
        cache_hits: 0,
        cache_misses: 1,
        cache_hit_rate: 0.0,
        explain_cache_hits: 0,
        explain_cache_misses: 1,
        sim_candidates: 2,
        sim_attempts: 0,
        sim_retries: 0,
        verifier_accepts: 1,
        verifier_rejects: 0,
        avg_iterations: 1.0,
        stages: StageSnapshots {
            translate: hist(1, 3.0, 4.096, 4.096, 4.096),
            execute: hist(1, 0.25, 0.256, 0.256, 0.256),
            provenance: hist(0, 0.0, 0.0, 0.0, 0.0),
            explain: hist(0, 0.0, 0.0, 0.0, 0.0),
            verify: hist(1, 0.0, 0.001, 0.001, 0.001),
            total: hist(1, 3.5, 4.096, 4.096, 4.096),
        },
        queue_wait: hist(1, 0.0, 0.001, 0.001, 0.001),
    };
    vec![(0, busy), (1, idle)]
}

/// A window snapshot with the given non-empty latency buckets
/// `(bucket, count, exemplar)`.
fn window(
    count_errors: (u64, u64),
    sum_us: u64,
    buckets: &[(usize, u64, Option<Exemplar>)],
) -> WindowSnapshot {
    let mut w = WindowSnapshot::empty(60_000);
    w.count = count_errors.0;
    w.errors = count_errors.1;
    w.sum_us = sum_us;
    w.rate_per_sec = w.count as f64 / 60.0;
    w.error_rate = if w.count == 0 {
        0.0
    } else {
        w.errors as f64 / w.count as f64
    };
    for &(b, n, ex) in buckets {
        w.hist[b] = n;
        w.exemplars[b] = ex;
    }
    w
}

fn exemplar(trace_id: u64, sql_digest: u64, value_us: u64) -> Option<Exemplar> {
    Some(Exemplar {
        trace_id,
        sql_digest,
        value_us,
    })
}

/// Two shards' window telemetry: exemplars on some buckets, an empty
/// stage, and a sample in the overflow bucket.
fn window_shards() -> Vec<(usize, Vec<(&'static str, WindowSnapshot)>)> {
    vec![
        (
            0,
            vec![
                (
                    "total",
                    window(
                        (7, 2),
                        9_321,
                        &[
                            (0, 1, None),
                            (3, 2, exemplar(0x8448_eb21_1c80_319c, 0xdead_beef, 5)),
                            (11, 4, exemplar(0x2a, 0, 1_500)),
                        ],
                    ),
                ),
                ("execute", window((0, 0), 0, &[])),
            ],
        ),
        (
            1,
            vec![
                (
                    "total",
                    window(
                        (3, 0),
                        600_000_000,
                        &[
                            (10, 2, None),
                            (30, 1, exemplar(u64::MAX, u64::MAX, 599_000_000)),
                        ],
                    ),
                ),
                ("execute", window((1, 1), 40, &[(6, 1, exemplar(7, 3, 40))])),
            ],
        ),
    ]
}

/// Wire-tier counters with three wire-assembly samples.
fn net_metrics() -> NetMetrics {
    let m = NetMetrics::default();
    for (c, v) in [
        (&m.connections_accepted, 17),
        (&m.connections_rejected, 1),
        (&m.requests, 420),
        (&m.parse_errors, 5),
        (&m.timeouts, 2),
        (&m.queries_ok, 401),
        (&m.queries_shed, 3),
        (&m.queries_deadline, 4),
        (&m.queries_unknown_db, 2),
        (&m.drain_rejected, 6),
        (&m.spilled, 8),
        (&m.inflight_waits, 11),
    ] {
        c.store(v, Ordering::Relaxed);
    }
    for us in [250, 3_000, 1_000_000] {
        m.assemble.record(Duration::from_micros(us));
    }
    m
}

/// Span-pipeline counters, each distinct.
fn obs_counters() -> ObsCountersSnapshot {
    ObsCountersSnapshot {
        spans_finished: 1_000,
        spans_emitted: 640,
        spans_dropped: 360,
        traces_sampled: 40,
        traces_discarded: 45,
        span_ring_overwrites: 12,
        request_ring_overwrites: 3,
    }
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[track_caller]
fn assert_golden(name: &str, rendered: &str) {
    let want = golden(name);
    if rendered != want {
        let line = rendered
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(want.lines().count()));
        panic!(
            "{name} differs from its golden at line {}:\n got: {:?}\nwant: {:?}",
            line + 1,
            rendered.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

#[test]
fn served_metrics_page_matches_its_golden() {
    let (shards, windows, net) = (engine_shards(), window_shards(), net_metrics());
    assert_golden(
        "metrics_page.txt",
        &render_metrics_page(&shards, &windows, &net, None),
    );
    assert_golden(
        "metrics_page_no_windows.txt",
        &render_metrics_page(&shards, &[], &net, None),
    );
}

/// A traced server's page is the untraced one with the seven
/// span-pipeline families appended once, unlabelled.
#[test]
fn traced_metrics_page_appends_the_span_counters_once() {
    let (shards, windows, net) = (engine_shards(), window_shards(), net_metrics());
    let page = render_metrics_page(&shards, &windows, &net, Some(&obs_counters()));
    assert_golden("metrics_page_traced.txt", &page);
    assert!(page.starts_with(&golden("metrics_page.txt")));
    assert_eq!(page.matches("# HELP cyclesql_obs_").count(), 7);
}

#[test]
fn trace_report_page_matches_its_golden() {
    let shards = engine_shards();
    let mut page = Exposition::default();
    render_metrics(&mut page, &[(None, &shards[0].1)]);
    render_observability(&mut page, &obs_counters());
    assert_golden("trace_report_page.txt", &page.finish());
}

#[test]
fn single_engine_windows_match_their_golden() {
    let windows = window_shards();
    let mut page = Exposition::default();
    render_windows(&mut page, &[(None, &windows[0].1)]);
    assert_golden("windows_single.txt", &page.finish());
}

#[test]
fn telemetry_json_matches_its_golden() {
    assert_golden("telemetry.json", &render_telemetry_json(&window_shards()));
}

/// No family header repeats anywhere on the composed page.
#[test]
fn composed_page_has_one_header_per_family() {
    let page = render_metrics_page(
        &engine_shards(),
        &window_shards(),
        &net_metrics(),
        Some(&obs_counters()),
    );
    let mut helps: Vec<&str> = page.lines().filter(|l| l.starts_with("# HELP ")).collect();
    let total = helps.len();
    helps.sort_unstable();
    helps.dedup();
    assert_eq!(helps.len(), total, "a # HELP line repeats");
}
