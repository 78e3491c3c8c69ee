//! Wire-tier counters: what happened at the socket and HTTP layers before
//! a request ever reached a shard. Lock-free like the engine's metrics;
//! rendered into the same `/metrics` page alongside the per-shard engine
//! families.

use cyclesql_serve::Histogram;
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

    /// Renders the wire-tier families as Prometheus exposition text.
    pub fn render(&self) -> String {
        let s = self.snapshot();
        let mut out = String::with_capacity(1024);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP cyclesql_net_{name} {help}\n# TYPE cyclesql_net_{name} counter\ncyclesql_net_{name} {value}\n"
            ));
        };
        counter(
            "connections_accepted",
            "Connections accepted.",
            s.connections_accepted,
        );
        counter(
            "connections_rejected",
            "Connections turned away at the connection cap.",
            s.connections_rejected,
        );
        counter(
            "requests",
            "Requests fully parsed off the wire.",
            s.requests,
        );
        counter(
            "parse_errors",
            "Requests rejected by the HTTP parser.",
            s.parse_errors,
        );
        counter("timeouts", "Connection idle/read timeouts.", s.timeouts);
        counter("queries_ok", "Queries answered 200.", s.queries_ok);
        counter("queries_shed", "Queries shed with 503.", s.queries_shed);
        counter(
            "queries_deadline",
            "Queries that exceeded their deadline (504).",
            s.queries_deadline,
        );
        counter(
            "queries_unknown_db",
            "Queries naming an unserved database (404).",
            s.queries_unknown_db,
        );
        counter(
            "drain_rejected",
            "Requests refused with 503 while draining.",
            s.drain_rejected,
        );
        counter(
            "spilled",
            "Queries diverted from their primary shard to a replica.",
            s.spilled,
        );
        counter(
            "inflight_waits_total",
            "Requests that waited for their connection's previous response to be written.",
            s.inflight_waits,
        );
        let a = self.assemble.snapshot();
        out.push_str(&format!(
            "# HELP cyclesql_net_assemble_ms Wire assembly time per request.\n\
             # TYPE cyclesql_net_assemble_ms summary\n\
             cyclesql_net_assemble_ms{{quantile=\"0.5\"}} {}\n\
             cyclesql_net_assemble_ms{{quantile=\"0.99\"}} {}\n\
             cyclesql_net_assemble_ms_count {}\n",
            a.p50_ms, a.p99_ms, a.count
        ));
        out
    }
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
        let page = m.render();
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
