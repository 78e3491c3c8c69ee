//! Wire-tier counters: what happened at the socket and HTTP layers before
//! a request ever reached a shard. Lock-free like the engine's metrics;
//! rendered into the same `/metrics` page ([`render_metrics_page`])
//! alongside the per-shard engine families.

use cyclesql_obs::{Exposition, Histogram, ObsCountersSnapshot, WindowSnapshot};
use cyclesql_serve::{render_metrics, render_observability, render_windows, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Front-door counters.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted.
    pub connections_accepted: AtomicU64,
    /// Connections turned away at the connection cap.
    pub connections_rejected: AtomicU64,
    /// Requests fully parsed off the wire.
    pub requests: AtomicU64,
    /// Requests rejected by the HTTP parser (400/413/431/501).
    pub parse_errors: AtomicU64,
    /// Idle or mid-request timeouts that closed a connection (408).
    pub timeouts: AtomicU64,
    /// Queries answered 200.
    pub queries_ok: AtomicU64,
    /// Queries shed with 503 (admission queue full).
    pub queries_shed: AtomicU64,
    /// Queries that hit their deadline (504).
    pub queries_deadline: AtomicU64,
    /// Queries naming an unserved database (404).
    pub queries_unknown_db: AtomicU64,
    /// Requests refused with 503 because the server was draining.
    pub drain_rejected: AtomicU64,
    /// Queries diverted from their primary shard to a replica.
    pub spilled: AtomicU64,
    /// Requests that waited for their connection's previous response to
    /// be written before being handled (one in flight per connection).
    pub inflight_waits: AtomicU64,
    /// Wire assembly time per parsed request (first byte → complete).
    pub assemble: Histogram,
}

/// Point-in-time counter values.
#[derive(Debug, Clone)]
pub struct NetMetricsSnapshot {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections turned away at the connection cap.
    pub connections_rejected: u64,
    /// Requests fully parsed off the wire.
    pub requests: u64,
    /// Requests rejected by the HTTP parser.
    pub parse_errors: u64,
    /// Connection timeouts.
    pub timeouts: u64,
    /// Queries answered 200.
    pub queries_ok: u64,
    /// Queries shed with 503.
    pub queries_shed: u64,
    /// Queries that hit their deadline.
    pub queries_deadline: u64,
    /// Queries naming an unserved database.
    pub queries_unknown_db: u64,
    /// Requests refused while draining.
    pub drain_rejected: u64,
    /// Queries spilled to a replica shard.
    pub spilled: u64,
    /// Requests that waited for their connection's previous response.
    pub inflight_waits: u64,
}

impl NetMetrics {
    /// Snapshots every counter.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetMetricsSnapshot {
            connections_accepted: load(&self.connections_accepted),
            connections_rejected: load(&self.connections_rejected),
            requests: load(&self.requests),
            parse_errors: load(&self.parse_errors),
            timeouts: load(&self.timeouts),
            queries_ok: load(&self.queries_ok),
            queries_shed: load(&self.queries_shed),
            queries_deadline: load(&self.queries_deadline),
            queries_unknown_db: load(&self.queries_unknown_db),
            drain_rejected: load(&self.drain_rejected),
            spilled: load(&self.spilled),
            inflight_waits: load(&self.inflight_waits),
        }
    }

    /// Renders the wire-tier families.
    pub fn render(&self, page: &mut Exposition) {
        let s = self.snapshot();
        for (name, help, value) in [
            (
                "cyclesql_net_connections_accepted",
                "Connections accepted.",
                s.connections_accepted,
            ),
            (
                "cyclesql_net_connections_rejected",
                "Connections turned away at the connection cap.",
                s.connections_rejected,
            ),
            (
                "cyclesql_net_requests",
                "Requests fully parsed off the wire.",
                s.requests,
            ),
            (
                "cyclesql_net_parse_errors",
                "Requests rejected by the HTTP parser.",
                s.parse_errors,
            ),
            (
                "cyclesql_net_timeouts",
                "Connection idle/read timeouts.",
                s.timeouts,
            ),
            (
                "cyclesql_net_queries_ok",
                "Queries answered 200.",
                s.queries_ok,
            ),
            (
                "cyclesql_net_queries_shed",
                "Queries shed with 503.",
                s.queries_shed,
            ),
            (
                "cyclesql_net_queries_deadline",
                "Queries that exceeded their deadline (504).",
                s.queries_deadline,
            ),
            (
                "cyclesql_net_queries_unknown_db",
                "Queries naming an unserved database (404).",
                s.queries_unknown_db,
            ),
            (
                "cyclesql_net_drain_rejected",
                "Requests refused with 503 while draining.",
                s.drain_rejected,
            ),
            (
                "cyclesql_net_spilled",
                "Queries diverted from their primary shard to a replica.",
                s.spilled,
            ),
            (
                "cyclesql_net_inflight_waits_total",
                "Requests that waited for their connection's previous response to be written.",
                s.inflight_waits,
            ),
        ] {
            page.counter(name, help, value);
        }
        const ASSEMBLE: &str = "cyclesql_net_assemble_ms";
        let a = self.assemble.snapshot();
        page.family(ASSEMBLE, "Wire assembly time per request.", "summary")
            .sample(ASSEMBLE, "quantile=\"0.5\"", a.p50_ms)
            .sample(ASSEMBLE, "quantile=\"0.99\"", a.p99_ms)
            .sample("cyclesql_net_assemble_ms_count", "", a.count);
    }
}

/// The `/metrics` page: every shard's engine families (shard-labelled),
/// the rolling-window telemetry with trace exemplars (shards that keep
/// windows), the wire-tier families, and, when the server is traced, the
/// span-pipeline counters of the tracer its shards share.
pub fn render_metrics_page(
    shards: &[(usize, MetricsSnapshot)],
    windows: &[(usize, Vec<(&'static str, WindowSnapshot)>)],
    net: &NetMetrics,
    obs: Option<&ObsCountersSnapshot>,
) -> String {
    let mut page = Exposition::default();
    let shards: Vec<_> = shards.iter().map(|(id, s)| (Some(*id), s)).collect();
    render_metrics(&mut page, &shards);
    let windows: Vec<_> = windows
        .iter()
        .map(|(id, w)| (Some(*id), w.as_slice()))
        .collect();
    render_windows(&mut page, &windows);
    net.render(&mut page);
    if let Some(counters) = obs {
        render_observability(&mut page, counters);
    }
    page.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_emits_one_header_per_family() {
        let m = NetMetrics::default();
        m.queries_ok.fetch_add(3, Ordering::Relaxed);
        m.assemble.record(Duration::from_micros(250));
        let mut page = Exposition::default();
        m.render(&mut page);
        let page = page.finish();
        for family in [
            "cyclesql_net_connections_accepted",
            "cyclesql_net_connections_rejected",
            "cyclesql_net_requests",
            "cyclesql_net_parse_errors",
            "cyclesql_net_timeouts",
            "cyclesql_net_queries_ok",
            "cyclesql_net_queries_shed",
            "cyclesql_net_queries_deadline",
            "cyclesql_net_queries_unknown_db",
            "cyclesql_net_drain_rejected",
            "cyclesql_net_spilled",
            "cyclesql_net_inflight_waits_total",
            "cyclesql_net_assemble_ms",
        ] {
            assert_eq!(
                page.matches(&format!("# HELP {family} ")).count(),
                1,
                "{family}"
            );
        }
        assert!(page.contains("cyclesql_net_queries_ok 3\n"));
        assert!(page.contains("cyclesql_net_assemble_ms_count 1\n"));
    }
}
