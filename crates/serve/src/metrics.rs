//! Lock-free serving observability: atomic counters plus per-stage
//! latency histograms ([`cyclesql_obs::Histogram`]).
//!
//! Recording is wait-free (one relaxed fetch-add per counter, three per
//! histogram sample); nothing on the request path takes a lock. Snapshots
//! are serializable ([`MetricsSnapshot`]).

use cyclesql_core::StageTimings;
use cyclesql_obs::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One histogram per pipeline stage, plus end-to-end request latency.
#[derive(Debug, Default)]
pub struct StageHistograms {
    /// Model inference.
    pub translate: Histogram,
    /// Candidate execution.
    pub execute: Histogram,
    /// Provenance tracking.
    pub provenance: Histogram,
    /// Explanation generation.
    pub explain: Histogram,
    /// Verifier decisions.
    pub verify: Histogram,
    /// Whole-request service time (queue wait excluded).
    pub total: Histogram,
}

impl StageHistograms {
    /// Records a completed request's per-stage timings and total service
    /// time.
    pub fn record(&self, stages: &StageTimings, total: Duration) {
        self.translate.record(stages.translate);
        self.execute.record(stages.execute);
        self.provenance.record(stages.provenance);
        self.explain.record(stages.explain);
        self.verify.record(stages.verify);
        self.total.record(total);
    }
}

/// Engine-wide counters. All relaxed atomics — consistency between
/// counters is only guaranteed at quiescence (e.g. after
/// `ServiceEngine::shutdown` drains).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests admitted past backpressure.
    pub admitted: AtomicU64,
    /// Requests fully served (a response was produced, success or error).
    pub completed: AtomicU64,
    /// Requests rejected at admission by the shed policy.
    pub shed: AtomicU64,
    /// Requests abandoned by their deadline (at the queue head or
    /// mid-loop).
    pub timeouts: AtomicU64,
    /// Requests naming a database the catalog does not serve.
    pub unknown_db: AtomicU64,
    /// Panics a worker caught and survived: in a request's pipeline (the
    /// request completed with `ServeError::Internal`) or in the completion
    /// that delivered its answer.
    pub panics: AtomicU64,
    /// Loop iterations whose verdict was "entails" (one per accepted
    /// request).
    pub verifier_accepts: AtomicU64,
    /// Loop iterations whose verdict was "does not entail" (failed
    /// candidates count as rejections).
    pub verifier_rejects: AtomicU64,
    /// Total loop iterations.
    pub iterations: AtomicU64,
    /// Data-grounded explanations read memoized from a result-cache entry.
    pub explain_cache_hits: AtomicU64,
    /// Data-grounded explanations the served loop built (and memoized when
    /// the result was cached).
    pub explain_cache_misses: AtomicU64,
    /// Candidates the simulated model drew (the served loop pulls them
    /// only as it examines them).
    pub sim_candidates: AtomicU64,
    /// The simulated model's validation runs of drawn wrong candidates.
    pub sim_attempts: AtomicU64,
    /// Validation attempts the simulator rejected and drew again (the
    /// query failed, or its result equalled the gold's).
    pub sim_retries: AtomicU64,
    /// Per-stage latency histograms.
    pub stages: StageHistograms,
    /// Admission-queue wait (submit → worker dequeue), recorded for every
    /// dequeued request including ones whose deadline expired in queue.
    pub queue_wait: Histogram,
}

impl Metrics {
    /// Serializable snapshot; result-cache counters are supplied by the
    /// caller (they live on the cache).
    pub fn snapshot(&self, cache_hits: u64, cache_misses: u64) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let completed = load(&self.completed);
        MetricsSnapshot {
            admitted: load(&self.admitted),
            completed,
            shed: load(&self.shed),
            timeouts: load(&self.timeouts),
            unknown_db: load(&self.unknown_db),
            panics: load(&self.panics),
            cache_hits,
            cache_misses,
            cache_hit_rate: if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            },
            explain_cache_hits: load(&self.explain_cache_hits),
            explain_cache_misses: load(&self.explain_cache_misses),
            sim_candidates: load(&self.sim_candidates),
            sim_attempts: load(&self.sim_attempts),
            sim_retries: load(&self.sim_retries),
            verifier_accepts: load(&self.verifier_accepts),
            verifier_rejects: load(&self.verifier_rejects),
            avg_iterations: if completed == 0 {
                0.0
            } else {
                load(&self.iterations) as f64 / completed as f64
            },
            stages: StageSnapshots {
                translate: self.stages.translate.snapshot(),
                execute: self.stages.execute.snapshot(),
                provenance: self.stages.provenance.snapshot(),
                explain: self.stages.explain.snapshot(),
                verify: self.stages.verify.snapshot(),
                total: self.stages.total.snapshot(),
            },
            queue_wait: self.queue_wait.snapshot(),
        }
    }
}

/// Per-stage histogram snapshots.
#[derive(Debug, Clone)]
pub struct StageSnapshots {
    /// Model inference.
    pub translate: HistogramSnapshot,
    /// Candidate execution.
    pub execute: HistogramSnapshot,
    /// Provenance tracking.
    pub provenance: HistogramSnapshot,
    /// Explanation generation.
    pub explain: HistogramSnapshot,
    /// Verifier decisions.
    pub verify: HistogramSnapshot,
    /// Whole-request service time.
    pub total: HistogramSnapshot,
}

/// A serializable point-in-time view of every counter and histogram.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests admitted past backpressure.
    pub admitted: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests abandoned by deadline.
    pub timeouts: u64,
    /// Requests for unserved databases.
    pub unknown_db: u64,
    /// Panics caught in pipelines or completions.
    pub panics: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Hits over lookups, in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Explanations read memoized from a result-cache entry (not counted
    /// in `cache_hits`).
    pub explain_cache_hits: u64,
    /// Explanations built by the served loop (not counted in
    /// `cache_misses`).
    pub explain_cache_misses: u64,
    /// Candidates the simulated model drew.
    pub sim_candidates: u64,
    /// The simulated model's validation runs of drawn wrong candidates.
    pub sim_attempts: u64,
    /// Validation attempts the simulator rejected and drew again.
    pub sim_retries: u64,
    /// Accepting verifier verdicts.
    pub verifier_accepts: u64,
    /// Rejecting verifier verdicts.
    pub verifier_rejects: u64,
    /// Mean loop iterations per completed request.
    pub avg_iterations: f64,
    /// Per-stage latency histograms.
    pub stages: StageSnapshots,
    /// Admission-queue wait histogram.
    pub queue_wait: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_all_zero() {
        let m = Metrics::default();
        let s = m.snapshot(0, 0);
        assert_eq!((s.completed, s.panics), (0, 0));
        assert_eq!((s.sim_candidates, s.sim_attempts, s.sim_retries), (0, 0, 0));
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.avg_iterations, 0.0);
        assert_eq!(s.stages.total.p99_ms, 0.0);
    }
}
