//! Rendering for the debug introspection endpoints: request summaries,
//! slow-query attribution, per-shard windowed telemetry, and trace
//! flamegraph lookup.
//!
//! Everything here is pure data-to-text — the endpoint handlers in
//! [`server`](crate::server) gather per-shard state through the router
//! and hand it to these functions, so the formats are testable without a
//! socket.

use cyclesql_obs::{format_trace_id, push_json_str, FlameSpan, SpanRecord, WindowSnapshot};
use cyclesql_serve::{RequestSummary, STAGE_NAMES};
use std::fmt::Write as _;

/// Extracts a query-string parameter from a request target
/// (`/path?k=v&k2=v2`). Returns the raw value, not URL-decoded — the
/// debug endpoints only take hex ids and integers.
pub fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn push_summary(out: &mut String, shard: usize, s: &RequestSummary) {
    out.push('{');
    let _ = write!(out, "\"shard\":{shard},\"request\":{},", s.request);
    out.push_str("\"trace_id\":");
    match s.trace_id {
        Some(tid) => {
            push_json_str(out, &format_trace_id(tid));
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"item_id\":");
    push_json_str(out, &s.item_id);
    out.push_str(",\"db\":");
    push_json_str(out, &s.db);
    out.push_str(",\"outcome\":");
    push_json_str(out, s.outcome);
    let _ = write!(
        out,
        ",\"accepted\":{},\"iterations\":{},\"plan_hits\":{},\"plan_misses\":{},\
         \"queue_wait_us\":{},\"total_us\":{},",
        s.accepted, s.iterations, s.plan_hits, s.plan_misses, s.queue_wait_us, s.total_us
    );
    out.push_str("\"stages_us\":{");
    for (i, (name, us)) in STAGE_NAMES.iter().zip(s.stages_us).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{us}");
    }
    out.push_str("},\"slowest_stage\":");
    match s.slowest_stage() {
        Some((name, us)) => {
            let _ = write!(out, "{{\"stage\":\"{name}\",\"us\":{us}}}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"sql_digest\":");
    push_json_str(out, &format!("{:016x}", s.sql_digest));
    out.push('}');
}

/// Renders per-shard request summaries as one JSON page. `limit` keeps
/// only the most recent entries (per concatenation order) when set.
pub fn render_requests_json(
    shards: &[(usize, Vec<RequestSummary>)],
    limit: Option<usize>,
) -> String {
    let mut flat: Vec<(usize, &RequestSummary)> = shards
        .iter()
        .flat_map(|(shard, list)| list.iter().map(move |s| (*shard, s)))
        .collect();
    let total = flat.len();
    if let Some(limit) = limit {
        if flat.len() > limit {
            flat.drain(..flat.len() - limit);
        }
    }
    let mut out = format!("{{\"total\":{total},\"requests\":[");
    for (i, (shard, s)) in flat.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_summary(&mut out, *shard, s);
    }
    out.push_str("]}");
    out
}

/// Renders per-shard slow-request summaries (already threshold-filtered
/// by the engines) with the threshold echoed back.
pub fn render_slow_json(shards: &[(usize, Vec<RequestSummary>)], threshold_us: u64) -> String {
    let mut out = format!("{{\"threshold_us\":{threshold_us},\"requests\":[");
    let mut first = true;
    for (shard, list) in shards {
        for s in list {
            if !first {
                out.push(',');
            }
            first = false;
            push_summary(&mut out, *shard, s);
        }
    }
    out.push_str("]}");
    out
}

/// Renders per-shard windowed telemetry snapshots as JSON: rates, error
/// rates, and non-empty latency buckets with their exemplars.
pub fn render_telemetry_json(shards: &[(usize, Vec<(&'static str, WindowSnapshot)>)]) -> String {
    let mut out = String::from("{\"shards\":[");
    for (i, (shard, stages)) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"shard\":{shard},\"stages\":[");
        for (j, (stage, w)) in stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{stage}\",\"window_ms\":{},\"count\":{},\"errors\":{},\
                 \"rate_per_sec\":{:.3},\"error_rate\":{:.4},\"sum_us\":{},\"buckets\":[",
                w.window_ms, w.count, w.errors, w.rate_per_sec, w.error_rate, w.sum_us
            );
            for (k, (le_us, count, exemplar)) in w.buckets().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"le_us\":{le_us},\"count\":{count}");
                if let Some(ex) = exemplar {
                    let _ = write!(
                        out,
                        ",\"exemplar\":{{\"trace_id\":\"{}\",\"sql_digest\":\"{:016x}\",\"value_us\":{}}}",
                        format_trace_id(ex.trace_id),
                        ex.sql_digest,
                        ex.value_us
                    );
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Looks one trace up in a span-record dump and renders its flamegraph;
/// `None` when no span of that trace was captured.
pub fn flame_for_trace(records: &[SpanRecord], trace_id: u64) -> Option<String> {
    let spans: Vec<FlameSpan> = records
        .iter()
        .filter(|r| r.trace_id == trace_id)
        .map(FlameSpan::from)
        .collect();
    cyclesql_obs::render_flame(&spans, trace_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_params_parse_from_targets() {
        assert_eq!(
            query_param("/v1/debug/flame?trace_id=2a", "trace_id"),
            Some("2a")
        );
        assert_eq!(
            query_param("/v1/debug/slow?threshold_ms=5&limit=3", "limit"),
            Some("3")
        );
        assert_eq!(query_param("/v1/debug/requests", "limit"), None);
        assert_eq!(query_param("/v1/debug/requests?limit", "limit"), None);
        assert_eq!(query_param("/a?x=1", "y"), None);
    }

    fn summary(request: u64, total_us: u64) -> RequestSummary {
        RequestSummary {
            request,
            trace_id: Some(0x2a),
            item_id: format!("item-{request}"),
            db: "concert_singer".into(),
            outcome: "ok",
            accepted: true,
            iterations: 2,
            plan_hits: 1,
            plan_misses: 1,
            queue_wait_us: 9,
            total_us,
            stages_us: [5, total_us / 2, 5, 5, 5],
            sql_digest: 7,
        }
    }

    #[test]
    fn requests_page_is_json_with_limit_keeping_newest() {
        let shards = vec![(0usize, vec![summary(1, 100), summary(2, 200)])];
        let page = render_requests_json(&shards, Some(1));
        assert!(page.contains("\"total\":2"));
        assert!(!page.contains("\"request\":1"));
        assert!(page.contains("\"request\":2"));
        assert!(page.contains("\"trace_id\":\"000000000000002a\""));
        assert!(page.contains("\"slowest_stage\":{\"stage\":\"execute\""));
        assert!(page.ends_with("]}"));
    }

    #[test]
    fn slow_page_echoes_threshold() {
        let shards = vec![(0usize, vec![summary(1, 9_000)]), (1usize, vec![])];
        let page = render_slow_json(&shards, 5_000);
        assert!(page.contains("\"threshold_us\":5000"));
        assert!(page.contains("\"shard\":0"));
    }

    #[test]
    fn telemetry_page_carries_exemplars() {
        use cyclesql_obs::{Exemplar, Window, WindowConfig};
        let w = Window::new(WindowConfig::default());
        w.record_at(
            10,
            1_500,
            false,
            Some(Exemplar {
                trace_id: 0xbeef,
                sql_digest: 3,
                value_us: 1_500,
            }),
        );
        let shards = vec![(0usize, vec![("total", w.snapshot_at(10))])];
        let page = render_telemetry_json(&shards);
        assert!(page.contains("\"stage\":\"total\""));
        assert!(page.contains("\"exemplar\":{\"trace_id\":\"000000000000beef\""));
        assert!(page.contains("\"le_us\":2048"));
    }
}
