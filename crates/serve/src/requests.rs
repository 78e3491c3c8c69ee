//! A bounded ring of per-request summaries — the data behind the front
//! door's `GET /v1/debug/requests` and `/v1/debug/slow` introspection
//! endpoints.
//!
//! Each served request (success, shed, deadline, unknown database) leaves
//! one [`RequestSummary`]: enough to answer "what just went through this
//! engine and where did the time go" without replaying a trace file. The
//! ring is fixed-capacity; overwrites of unread entries are counted into
//! [`ObsCounters::request_ring_overwrites`] when the engine is traced, so
//! an operator can tell a quiet engine from one whose history is being
//! evicted faster than it is scraped.

use cyclesql_obs::ObsCounters;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Stage slots in [`RequestSummary::stages_us`], in pipeline order.
pub const STAGE_NAMES: [&str; 5] = ["translate", "execute", "provenance", "explain", "verify"];

/// One finished request, reduced to what debug introspection needs.
#[derive(Debug, Clone)]
pub struct RequestSummary {
    /// Engine-assigned request sequence number.
    pub request: u64,
    /// Trace id when the request was traced (wire-propagated or minted).
    pub trace_id: Option<u64>,
    /// The benchmark item's stable id.
    pub item_id: String,
    /// Target database.
    pub db: String,
    /// Outcome label: `ok`, `shed`, `deadline`, `unknown_db`, `shutdown`,
    /// `internal`.
    pub outcome: &'static str,
    /// Whether the verifier accepted a candidate (false on errors).
    pub accepted: bool,
    /// Loop iterations (candidates examined; 0 on errors).
    pub iterations: usize,
    /// Result-cache hits during this request.
    pub plan_hits: u64,
    /// Result-cache misses during this request.
    pub plan_misses: u64,
    /// Time spent in the admission queue, microseconds.
    pub queue_wait_us: u64,
    /// Wall-clock from dequeue to completion, microseconds.
    pub total_us: u64,
    /// Per-stage wall-clock in [`STAGE_NAMES`] order, microseconds.
    pub stages_us: [u64; 5],
    /// FNV-1a digest of the chosen SQL (0 when no SQL was selected).
    pub sql_digest: u64,
}

impl RequestSummary {
    /// The slowest pipeline stage `(name, µs)`, for slow-query
    /// attribution; `None` when every stage reads zero.
    pub fn slowest_stage(&self) -> Option<(&'static str, u64)> {
        STAGE_NAMES
            .iter()
            .zip(self.stages_us)
            .max_by_key(|(_, us)| *us)
            .filter(|(_, us)| *us > 0)
            .map(|(name, us)| (*name, us))
    }
}

/// Bounded MPMC ring of request summaries, oldest evicted first.
pub struct RequestLog {
    capacity: usize,
    buf: Mutex<VecDeque<RequestSummary>>,
    /// Overwrite accounting lands here when the engine is traced; an
    /// untraced engine passes `None` and the all-zero counter gate holds.
    counters: Option<Arc<ObsCounters>>,
}

impl RequestLog {
    /// A ring holding at most `capacity` summaries.
    pub fn new(capacity: usize, counters: Option<Arc<ObsCounters>>) -> Self {
        RequestLog {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            counters,
        }
    }

    /// Appends one summary, evicting (and counting) the oldest when full.
    pub fn push(&self, summary: RequestSummary) {
        let mut buf = self.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            if let Some(c) = &self.counters {
                c.request_ring_overwrites.fetch_add(1, Ordering::Relaxed);
            }
        }
        buf.push_back(summary);
    }

    /// A copy of the buffered summaries, oldest first.
    pub fn recent(&self) -> Vec<RequestSummary> {
        self.lock().iter().cloned().collect()
    }

    /// Buffered summaries whose total time is at least `threshold_us`,
    /// oldest first.
    pub fn slow(&self, threshold_us: u64) -> Vec<RequestSummary> {
        self.lock()
            .iter()
            .filter(|s| s.total_us >= threshold_us)
            .cloned()
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<RequestSummary>> {
        self.buf.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Digest of a chosen SQL string for exemplars and request summaries
/// (0 is reserved for "no SQL selected"): FNV-1a, the hash the front
/// router places shards with, so the digest is computable on either side
/// of the wire.
pub fn sql_digest(sql: &str) -> u64 {
    if sql.is_empty() {
        0
    } else {
        cyclesql_rng::fnv1a(sql.as_bytes()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(request: u64, total_us: u64) -> RequestSummary {
        RequestSummary {
            request,
            trace_id: None,
            item_id: format!("item-{request}"),
            db: "concert_singer".into(),
            outcome: "ok",
            accepted: true,
            iterations: 1,
            plan_hits: 0,
            plan_misses: 1,
            queue_wait_us: 5,
            total_us,
            stages_us: [10, total_us.saturating_sub(40), 10, 10, 10],
            sql_digest: sql_digest("SELECT 1"),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_overwrites_when_traced() {
        let counters = Arc::new(ObsCounters::default());
        let log = RequestLog::new(3, Some(Arc::clone(&counters)));
        for i in 0..5 {
            log.push(summary(i, 100));
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        let ids: Vec<u64> = recent.iter().map(|s| s.request).collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest evicted first");
        assert_eq!(counters.snapshot().request_ring_overwrites, 2);
        assert_eq!(
            counters.snapshot().span_ring_overwrites,
            0,
            "request overwrites count separately from span overwrites"
        );
    }

    #[test]
    fn untraced_ring_keeps_counters_untouched() {
        let log = RequestLog::new(1, None);
        log.push(summary(0, 100));
        log.push(summary(1, 100));
        assert_eq!(log.recent().len(), 1);
        // Nothing to assert on counters — the point is `push` cannot
        // reach any: the zero-cost gate is structural.
    }

    #[test]
    fn slow_filter_is_inclusive_threshold() {
        let log = RequestLog::new(8, None);
        log.push(summary(0, 50));
        log.push(summary(1, 100));
        log.push(summary(2, 150));
        let slow = log.slow(100);
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().all(|s| s.total_us >= 100));
        assert_eq!(log.slow(0).len(), 3, "zero threshold returns everything");
    }

    #[test]
    fn slowest_stage_attributes_to_the_max_slot() {
        let mut s = summary(0, 500);
        s.stages_us = [10, 400, 50, 20, 20];
        assert_eq!(s.slowest_stage(), Some(("execute", 400)));
        s.stages_us = [0; 5];
        assert_eq!(s.slowest_stage(), None);
    }

    #[test]
    fn sql_digest_is_stable_and_reserves_zero() {
        assert_eq!(sql_digest(""), 0);
        let d = sql_digest("SELECT name FROM singer");
        assert_ne!(d, 0);
        assert_eq!(d, sql_digest("SELECT name FROM singer"));
        assert_ne!(d, sql_digest("SELECT name FROM stadium"));
    }
}
